//! A map from a small id to a record, as one sorted vector.
//!
//! The radio plane's tables (UEs of a cell, DRBs of a UE, QFI rules) hold
//! a handful to a few dozen rows, are walked in full every slot and change
//! only at attach, handover and configuration time. A sorted `Vec` walks
//! as one contiguous run, addresses a row by position (a MAC grant carries
//! the row index of its UE), and iterates in ascending id order — the
//! order the per-slot RNG draws depend on.

/// Rows `(id, record)` in ascending id order, ids unique.
#[derive(Debug, Clone)]
pub(crate) struct IdTable<K, V> {
    rows: Vec<(K, V)>,
}

impl<K, V> Default for IdTable<K, V> {
    fn default() -> Self {
        IdTable { rows: Vec::new() }
    }
}

impl<K: Ord + Copy, V> IdTable<K, V> {
    fn position(&self, id: K) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&id, |row| row.0)
    }

    pub(crate) fn get(&self, id: K) -> Option<&V> {
        self.position(id).ok().map(|i| &self.rows[i].1)
    }

    pub(crate) fn get_mut(&mut self, id: K) -> Option<&mut V> {
        self.position(id).ok().map(|i| &mut self.rows[i].1)
    }

    /// Install or replace the record of `id`; the replaced one comes back.
    pub(crate) fn insert(&mut self, id: K, record: V) -> Option<V> {
        match self.position(id) {
            Ok(i) => Some(std::mem::replace(&mut self.rows[i].1, record)),
            Err(i) => {
                self.rows.insert(i, (id, record));
                None
            }
        }
    }

    /// The record of `id`, created by `make` if there is none yet.
    pub(crate) fn get_or_insert_with(&mut self, id: K, make: impl FnOnce() -> V) -> &mut V {
        let i = self.position(id).unwrap_or_else(|i| {
            self.rows.insert(i, (id, make()));
            i
        });
        &mut self.rows[i].1
    }

    pub(crate) fn remove(&mut self, id: K) -> Option<V> {
        self.position(id).ok().map(|i| self.rows.remove(i).1)
    }

    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row at position `i` of the ascending-id order.
    pub(crate) fn row_mut(&mut self, i: usize) -> (K, &mut V) {
        let (id, record) = &mut self.rows[i];
        (*id, record)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.rows.iter().map(|(id, record)| (*id, record))
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.rows.iter_mut().map(|(id, record)| (*id, record))
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.rows.iter().map(|row| row.0)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.rows.iter().map(|row| &row.1)
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.rows.iter_mut().map(|row| &mut row.1)
    }

    /// Empty the table, handing every row out in ascending id order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (K, V)> + '_ {
        self.rows.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_stay_sorted_and_unique_whatever_the_insert_order() {
        let mut t = IdTable::default();
        for id in [5u8, 1, 9, 3] {
            assert_eq!(t.insert(id, u32::from(id)), None);
        }
        assert_eq!(t.insert(1, 10), Some(1), "an id has one row: replaced");
        assert_eq!(t.insert(3, 30), Some(3));
        assert_eq!(t.insert(5, 50), Some(5));
        assert_eq!(t.insert(9, 90), Some(9));
        assert_eq!(t.keys().collect::<Vec<_>>(), vec![1, 3, 5, 9]);
        assert_eq!(t.get(3), Some(&30));
        assert_eq!(t.get(4), None);
        *t.get_or_insert_with(4, || 0) += 7;
        *t.get_or_insert_with(4, || 100) += 1;
        assert_eq!(t.get(4), Some(&8));
        assert_eq!(t.row_mut(2), (4, &mut 8));
        assert_eq!(t.remove(1), Some(10));
        assert_eq!(t.remove(1), None);
        for v in t.values_mut() {
            *v += 1;
        }
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(3, &31), (4, &9), (5, &51), (9, &91)]);
        assert_eq!(t.drain().map(|(k, _)| k).collect::<Vec<_>>(), vec![3, 4, 5, 9]);
        assert!(t.is_empty());
    }
}
