//! PDCP SN → (flow, packet ident) for the downlink data SDUs of one
//! (UE, DRB) that sit between RLC enqueue and their transmit record.
//!
//! PDCP numbers a bearer's SDUs in ascending order and the RLC transmits
//! them in that order, so the live SNs are a window: a deque addressed by
//! `sn − base` replaces a hash probe per enqueue and per transmit record.
//! SNs that carry no downlink data (an uplink flow's feedback shares the
//! bearer) or that were tail-dropped are holes in the window.

use std::collections::VecDeque;

/// Slots the window reserves when its first SDU arrives, so a bearer's
/// first packets do not regrow it (and an idle bearer never allocates).
const RESERVE: usize = 32;

/// `(flow, ident)` of an empty slot (no flow has this index).
const HOLE: (u32, u16) = (u32::MAX, 0);

/// The SN window of one (UE, DRB).
#[derive(Debug, Clone, Default)]
pub(crate) struct SnRing {
    /// SN of `slots[0]`.
    base: u64,
    slots: VecDeque<(u32, u16)>,
}

impl SnRing {
    /// Register `sn`, which is above every SN registered before it.
    pub(crate) fn insert(&mut self, sn: u64, flow: usize, ident: u16) {
        if self.slots.is_empty() {
            self.base = sn;
            if self.slots.capacity() == 0 {
                self.slots.reserve(RESERVE);
            }
        }
        let end = self.base + self.slots.len() as u64;
        debug_assert!(sn >= end, "PDCP SNs ascend: {sn} after {end}");
        self.slots.extend((end..sn).map(|_| HOLE));
        let flow = u32::try_from(flow).expect("flow index fits u32");
        debug_assert_ne!((flow, ident), HOLE);
        self.slots.push_back((flow, ident));
    }

    /// Take the registration of `sn` out, if there is one.
    pub(crate) fn remove(&mut self, sn: u64) -> Option<(usize, u16)> {
        let slot = self.slots.get_mut(usize::try_from(sn.checked_sub(self.base)?).ok()?)?;
        let (flow, ident) = std::mem::replace(slot, HOLE);
        while self.slots.front() == Some(&HOLE) {
            self.slots.pop_front();
            self.base += 1;
        }
        ((flow, ident) != HOLE).then_some((flow as usize, ident))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_tracks_holes_repeats_and_out_of_order_removal() {
        let mut r = SnRing::default();
        assert_eq!(r.remove(3), None, "empty");
        r.insert(10, 1, 100);
        r.insert(11, 1, 101);
        r.insert(14, 2, 7); // 12 and 13 carried no data
        assert_eq!(r.remove(9), None, "below the window");
        assert_eq!(r.remove(12), None, "a hole");
        assert_eq!(r.remove(15), None, "above the window");
        // A tail drop at handover takes an SN out ahead of older ones.
        assert_eq!(r.remove(14), Some((2, 7)));
        assert_eq!(r.remove(10), Some((1, 100)));
        assert_eq!(r.remove(10), None, "a second transmit record of one SN");
        assert_eq!(r.remove(11), Some((1, 101)));
        assert!(r.slots.is_empty(), "holes behind the last live SN are trimmed");
        r.insert(40, 3, 1);
        assert_eq!((r.base, r.remove(40)), (40, Some((3, 1))));
    }
}
