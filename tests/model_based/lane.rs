//! The contract `EventQueue::arm` documents, as the wake-up lane's reference:
//! one map of entries keyed by `(instant, sequence number)`, ≤ 1 per key.

use std::collections::BTreeMap;

use super::Popped;
use l4span::sim::Instant;

#[derive(Default)]
pub struct ArmContract {
    pub entries: BTreeMap<(Instant, u64), Popped>,
    /// Where each armed key's one entry is.
    armed: BTreeMap<usize, (Instant, u64)>,
    seq: u64,
    pub now: Instant,
}

impl ArmContract {
    /// A past-due `at` means now; the entry takes the next sequence number.
    pub fn schedule(&mut self, at: Instant, what: Popped) -> (Instant, u64) {
        let stamp = (at.max(self.now), self.seq);
        self.seq += 1;
        self.entries.insert(stamp, what);
        stamp
    }

    /// `Instant::MAX` means never. A key armed for `at` or earlier stays;
    /// otherwise its entry moves to `at` (or is made) as a fresh schedule.
    pub fn arm(&mut self, k: usize, at: Instant) {
        let at = at.max(self.now);
        if at == Instant::MAX || self.armed.get(&k).is_some_and(|&(t, _)| t <= at) {
            return;
        }
        if let Some(stamp) = self.armed.remove(&k) {
            self.entries.remove(&stamp);
        }
        let stamp = self.schedule(at, Popped::Wake(k));
        self.armed.insert(k, stamp);
    }

    pub fn pop(&mut self) -> Option<(Instant, Popped)> {
        let ((at, _), what) = self.entries.pop_first()?;
        if let Popped::Wake(k) = what {
            self.armed.remove(&k);
        }
        self.now = at;
        Some((at, what))
    }

    pub fn next_at(&self) -> Option<Instant> {
        self.entries.keys().next().map(|&(at, _)| at)
    }

    /// Take every entry out, in pop order, without moving the clock.
    pub fn drain(&mut self) -> Vec<(Instant, Popped)> {
        self.armed.clear();
        let entries = std::mem::take(&mut self.entries).into_iter();
        entries.map(|((at, _), what)| (at, what)).collect()
    }
}
