//! Deterministic event queue.
//!
//! A binary heap keyed on `(Instant, sequence)` so that events scheduled
//! for the same instant dequeue in the order they were scheduled. This
//! stability is what makes whole-network runs reproducible: the gNB slot
//! tick, a WAN packet arrival, and a TCP retransmission timer may all fire
//! at the same nanosecond, and their relative order must not depend on
//! heap internals.
//!
//! Beside the heap sits the **wake-up lane**: one slot per timer owner
//! (a sender's timer, an application's clock, a queue stage's next
//! departure). Such an owner asks to be woken at its next activity, and
//! that instant moves as its state does. A heap entry cannot be moved,
//! so an owner pulling its wake-up earlier through [`EventQueue::schedule`]
//! would leave the old entry behind to pop as a no-op — and with a
//! retransmission timeout tens of seconds out, thousands of them.
//! [`EventQueue::arm`] moves the owner's one entry instead: a superseded
//! entry cannot exist, and [`EventQueue::pop`] hands out the earlier of
//! the heap's top and the lane's minimum by the same `(time, sequence)`
//! order, drawn from the same counter.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Instant;

/// The queue's total order: `(time, sequence)`.
type Stamp = (Instant, u64);

/// The stamp of a disarmed slot; no entry carries it.
const NEVER: Stamp = (Instant::MAX, u64::MAX);

/// One scheduled entry. Ordered for a *min*-heap via reversed comparison.
struct Entry<E> {
    at: Instant,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The wake-up lane: a winner tree over one slot per hosted key, so the
/// minimum is read in O(1) and a slot moves in O(log keys) without any
/// entry changing place.
struct Lane<E> {
    /// The hosted keys, ascending; a key's slot is its rank.
    keys: Vec<usize>,
    /// Slots rounded up to a power of two (0 for a queue without a lane).
    width: usize,
    /// Per slot, padded to `width`: the armed stamp, or [`NEVER`].
    when: Vec<Stamp>,
    /// Per slot: the stamp its last move earlier displaced (see
    /// [`EventQueue::arm`]), or [`NEVER`].
    displaced: Vec<Stamp>,
    /// Per slot: the event an armed slot pops as.
    event: Vec<Option<E>>,
    /// `tree[width + s] = s`, and `tree[i]` is whichever of `tree[2i]`
    /// and `tree[2i + 1]` holds the smaller stamp: `tree[1]` is the
    /// lane's minimum.
    tree: Vec<u32>,
    /// `when[tree[1]]`, or [`NEVER`]: what `pop` compares the heap's
    /// top against.
    min: Stamp,
    armed: usize,
}

impl<E> Lane<E> {
    fn new(keys: Vec<usize>) -> Self {
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "event queue: wake-up keys must ascend"
        );
        let n = keys.len();
        let width = if n == 0 { 0 } else { n.next_power_of_two() };
        let mut tree = vec![0u32; 2 * width];
        for s in 0..width {
            tree[width + s] = s as u32;
        }
        // Every slot is disarmed, so every node's left child wins.
        for i in (1..width).rev() {
            tree[i] = tree[2 * i];
        }
        Lane {
            keys,
            width,
            when: vec![NEVER; width],
            displaced: vec![NEVER; n],
            event: (0..n).map(|_| None).collect(),
            tree,
            min: NEVER,
            armed: 0,
        }
    }

    fn slot(&self, key: usize) -> usize {
        match self.keys.binary_search(&key) {
            Ok(s) => s,
            Err(_) => panic!("event queue: wake-up key {key} is not hosted here"),
        }
    }

    /// `when[s]` went down: `s` takes over every node on its path whose
    /// winner it now beats, and nothing above the first it does not.
    fn moved_earlier(&mut self, s: usize) {
        let stamp = self.when[s];
        let mut node = (self.width + s) >> 1;
        while node >= 1 {
            let w = self.tree[node] as usize;
            if w != s {
                if self.when[w] <= stamp {
                    break;
                }
                self.tree[node] = s as u32;
            }
            node >>= 1;
        }
        self.min = self.when[self.tree[1] as usize];
    }

    /// Disarm the minimum and replay its path to the root.
    fn take_min(&mut self) -> (Stamp, E) {
        let s = self.tree[1] as usize;
        let stamp = std::mem::replace(&mut self.when[s], NEVER);
        let mut node = (self.width + s) >> 1;
        while node >= 1 {
            let (l, r) = (self.tree[2 * node], self.tree[2 * node + 1]);
            self.tree[node] = if self.when[l as usize] <= self.when[r as usize] {
                l
            } else {
                r
            };
            node >>= 1;
        }
        self.min = self.when[self.tree[1] as usize];
        self.armed -= 1;
        let event = self.event[s].take().expect("an armed slot holds its event");
        (stamp, event)
    }

    /// Disarm everything and forget every displaced stamp.
    fn reset(&mut self) {
        self.when.fill(NEVER);
        self.displaced.fill(NEVER);
        self.event.iter_mut().for_each(|e| *e = None);
        self.min = NEVER;
        self.armed = 0;
    }
}

/// A stable, deterministic priority queue of future events.
///
/// `E` is whatever event representation the driver chooses — the harness
/// crate uses a single world-level `enum`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    lane: Lane<E>,
    seq: u64,
    /// Monotonically non-decreasing time of the last popped event …
    now: Instant,
    /// … and its sequence number.
    now_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at t = 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` pending events before the
    /// backing heap reallocates — drivers that know their steady-state
    /// event population can avoid growth pauses mid-run.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_wakeups(cap, [])
    }

    /// [`EventQueue::with_capacity`], plus one wake-up slot for each of
    /// `keys` (ascending): the timer owners [`EventQueue::arm`] may name
    /// on this queue. The lane is sized here, once, by the keys hosted —
    /// not by the largest key.
    pub fn with_wakeups(cap: usize, keys: impl IntoIterator<Item = usize>) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            lane: Lane::new(keys.into_iter().collect()),
            seq: 0,
            now: Instant::ZERO,
            now_seq: 0,
        }
    }

    /// Reserve room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in a discrete-event
    /// simulation; it is clamped to `now` (fires immediately) so the
    /// simulation stays monotonic rather than panicking deep inside a run.
    pub fn schedule(&mut self, at: Instant, event: E) {
        let at = at.max(self.now);
        self.heap.push(Entry {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Ask for the owner `key` to be woken at `at` (a past-due `at`
    /// means now; [`Instant::MAX`] means never). A key has one entry: if
    /// it is armed for `at` or earlier nothing happens; if it is armed
    /// for later its entry *moves* to `at`; if it is disarmed `event()`
    /// becomes its entry. Either way the entry takes the sequence number
    /// a [`EventQueue::schedule`] at this point would, so it pops where
    /// a freshly scheduled event would and the order of everything else
    /// is untouched.
    ///
    /// One tie is kept as the plain heap had it. There a displaced entry
    /// stayed queued, so an owner that went back to the very instant its
    /// last move displaced — armed for its timeout, pulled earlier by an
    /// ACK, woken, and with nothing further to send armed for the same
    /// timeout again — fired from that older entry, ahead of whatever
    /// had been scheduled for the instant in between. The slot remembers
    /// the stamp its last move displaced and takes it back on such an
    /// arm, unless the queue has already popped past it. Only the last
    /// one: an owner returning to an instant it left two moves ago takes
    /// a fresh stamp.
    ///
    /// # Panics
    ///
    /// When `key` is not one of this queue's
    /// [`EventQueue::with_wakeups`] keys.
    pub fn arm(&mut self, key: usize, at: Instant, event: impl FnOnce() -> E) {
        let at = at.max(self.now);
        let s = self.lane.slot(key);
        let armed = self.lane.when[s];
        if at >= armed.0 {
            return;
        }
        let displaced = self.lane.displaced[s];
        let back = displaced.0 == at && displaced > (self.now, self.now_seq);
        self.lane.when[s] = if back {
            displaced
        } else {
            let fresh = (at, self.seq);
            self.seq += 1;
            fresh
        };
        if armed != NEVER {
            self.lane.displaced[s] = armed;
        } else {
            self.lane.event[s] = Some(event());
            self.lane.armed += 1;
            if back {
                self.lane.displaced[s] = NEVER;
            }
        }
        self.lane.moved_earlier(s);
    }

    /// Time of the earliest pending event, if any.
    pub fn next_at(&self) -> Option<Instant> {
        let wake = self.lane.min.0;
        match self.heap.peek() {
            Some(top) => Some(top.at.min(wake)),
            None => (wake != Instant::MAX).then_some(wake),
        }
    }

    /// Remove the earliest entry of heap and lane. A queue with nothing
    /// armed — every queue that never calls `arm` — pays one predictable
    /// branch for the lane's existence.
    #[inline]
    fn take_first(&mut self) -> Option<(Stamp, E)> {
        if self.lane.armed != 0 {
            let wake = self.lane.min;
            if self.heap.peek().is_none_or(|top| wake < (top.at, top.seq)) {
                return Some(self.lane.take_min());
            }
        }
        let e = self.heap.pop()?;
        Some(((e.at, e.seq), e.event))
    }

    /// Pop the earliest event, advancing the queue clock to its time.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        let ((at, seq), event) = self.take_first()?;
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.now_seq = seq;
        Some((at, event))
    }

    /// Time of the most recently popped event (the simulation's "now").
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of pending events: scheduled ones plus armed wake-ups.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.armed
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending events without advancing time.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane.reset();
    }

    /// Remove every pending event — armed wake-ups included, as the
    /// events they would pop as — in `(time, sequence)` order without
    /// advancing the queue clock. Re-scheduling the survivors in the
    /// returned order (re-arming those that are wake-ups) assigns fresh,
    /// ascending sequence numbers, so the relative FIFO order of
    /// same-instant events is preserved — this is what shard
    /// installation relies on when it prunes a replica's queue down to
    /// the events its cells own. The old numbers mean nothing after
    /// that, so the lane forgets its displaced stamps.
    pub fn drain_ordered(&mut self) -> Vec<(Instant, E)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(((at, _), event)) = self.take_first() {
            out.push((at, event));
        }
        self.lane.reset();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_millis(30), "c");
        q.schedule(Instant::from_millis(10), "a");
        q.schedule(Instant::from_millis(20), "b");
        assert_eq!(q.next_at(), Some(Instant::from_millis(10)));
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = Instant::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_millis(7), ());
        assert_eq!(q.now(), Instant::ZERO);
        q.pop();
        assert_eq!(q.now(), Instant::from_millis(7));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_millis(10), "late");
        q.pop();
        // Attempt to schedule before `now`; it must fire "now", not panic
        // and not travel back in time.
        q.schedule(Instant::from_millis(1), "clamped");
        let (at, ev) = q.pop().unwrap();
        assert_eq!(ev, "clamped");
        assert_eq!(at, Instant::from_millis(10));
    }

    #[test]
    fn drain_ordered_yields_time_seq_order_and_keeps_clock() {
        let mut q = EventQueue::new();
        let t = Instant::from_millis(4);
        q.schedule(Instant::from_millis(9), "late");
        q.schedule(t, "first");
        q.schedule(t, "second");
        q.schedule(Instant::from_millis(2), "early");
        q.pop(); // advance clock to 2ms
        let drained = q.drain_ordered();
        assert_eq!(
            drained.iter().map(|(_, e)| *e).collect::<Vec<_>>(),
            ["first", "second", "late"],
            "drain preserves (time, seq) order"
        );
        assert!(q.is_empty());
        assert_eq!(q.now(), Instant::from_millis(2), "clock untouched");
        // Re-scheduling in drained order keeps same-instant FIFO intact.
        for (at, e) in drained {
            q.schedule(at, e);
        }
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    fn ms(t: u64) -> Instant {
        Instant::from_millis(t)
    }

    #[test]
    fn arming_earlier_moves_the_one_entry() {
        let mut q = EventQueue::with_wakeups(0, [3]);
        q.arm(3, ms(10), || "timer");
        q.arm(3, ms(12), || {
            unreachable!("armed for earlier: nothing happens")
        });
        q.arm(3, ms(10), || unreachable!("equal is not earlier"));
        assert_eq!((q.len(), q.next_at()), (1, Some(ms(10))));
        q.arm(3, ms(4), || unreachable!("a move keeps the entry's event"));
        assert_eq!((q.len(), q.next_at()), (1, Some(ms(4))));
        assert_eq!(q.pop(), Some((ms(4), "timer")));
        assert_eq!(q.pop(), None, "nothing was left behind at 10 ms");
        q.arm(3, ms(10), || "again");
        assert_eq!(q.pop(), Some((ms(10), "again")));
    }

    #[test]
    fn a_moved_wakeup_pops_where_a_fresh_schedule_would() {
        let mut q = EventQueue::with_wakeups(4, [0, 7]);
        q.schedule(ms(5), "a");
        q.arm(7, ms(9), || "seven");
        q.schedule(ms(5), "b");
        q.arm(0, ms(5), || "zero");
        q.arm(7, ms(5), || unreachable!());
        q.schedule(ms(5), "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "zero", "seven", "c"]);
    }

    #[test]
    fn past_due_means_now_and_never_means_never() {
        let mut q = EventQueue::with_wakeups(0, [0]);
        q.schedule(ms(7), "tick");
        q.pop();
        q.arm(0, Instant::MAX, || unreachable!("never is not an entry"));
        assert!(q.is_empty());
        q.arm(0, ms(3), || "late");
        assert_eq!(q.pop(), Some((ms(7), "late")), "past-due fires now");
        // From inside that wake-up the owner is due again immediately.
        q.arm(0, ms(5), || "again");
        assert_eq!(q.pop(), Some((ms(7), "again")));
        assert!(q.is_empty());
    }

    #[test]
    fn returning_to_the_displaced_stamp_pops_at_its_old_place() {
        let mut q = EventQueue::with_wakeups(0, [0]);
        q.arm(0, ms(9), || "timer");
        q.schedule(ms(9), "x");
        q.arm(0, ms(5), || unreachable!());
        assert_eq!(q.pop(), Some((ms(5), "timer")));
        // Back to the timeout the pull-earlier displaced: ahead of `x`,
        // as the entry left at 9 ms in a plain heap would be.
        q.arm(0, ms(9), || "timer");
        assert_eq!(q.pop(), Some((ms(9), "timer")));
        assert_eq!(q.pop(), Some((ms(9), "x")));

        // Only the last displacement is remembered: two moves later the
        // timeout is a fresh entry, behind `y`.
        q.arm(0, ms(20), || "timer");
        q.schedule(ms(20), "y");
        q.arm(0, ms(15), || unreachable!());
        q.arm(0, ms(12), || unreachable!());
        assert_eq!(q.pop(), Some((ms(12), "timer")));
        q.arm(0, ms(20), || "timer");
        assert_eq!(q.pop(), Some((ms(20), "y")));
        assert_eq!(q.pop(), Some((ms(20), "timer")));

        // And a stamp the queue has already passed is gone for good.
        q.arm(0, ms(30), || "timer");
        q.schedule(ms(30), "z");
        q.schedule(ms(30), "w");
        q.arm(0, ms(25), || unreachable!());
        assert_eq!(q.pop(), Some((ms(25), "timer")));
        assert_eq!(q.pop(), Some((ms(30), "z")));
        q.arm(0, ms(30), || "timer");
        assert_eq!(q.pop(), Some((ms(30), "w")));
        assert_eq!(q.pop(), Some((ms(30), "timer")));
    }

    #[test]
    fn many_keys_pop_in_stamp_order_between_the_scheduled_events() {
        // Five hosted keys: the winner tree is padded to eight leaves.
        let keys = [2, 3, 5, 8, 13];
        let mut q = EventQueue::with_wakeups(0, keys);
        for (i, &k) in keys.iter().enumerate() {
            q.arm(k, ms(10 * (5 - i as u64)), move || k);
            q.schedule(ms(10 * (5 - i as u64) + 5), 100 + k);
        }
        q.arm(5, ms(1), || unreachable!());
        assert_eq!(q.len(), 10);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let want = [
            (1, 5),
            (10, 13),
            (15, 113),
            (20, 8),
            (25, 108),
            (35, 105),
            (40, 3),
            (45, 103),
            (50, 2),
            (55, 102),
        ];
        assert_eq!(order, want.map(|(t, e)| (ms(t), e)));
    }

    #[test]
    fn drain_ordered_takes_wakeups_too_and_clear_disarms() {
        let mut q = EventQueue::with_wakeups(0, [0, 1]);
        q.schedule(ms(4), "b");
        q.arm(1, ms(4), || "one");
        q.arm(0, ms(2), || "zero");
        q.schedule(ms(9), "late");
        let drained: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(drained, ["zero", "b", "one", "late"]);
        assert!(q.is_empty());
        q.arm(1, ms(3), || "re-armed");
        assert_eq!(q.len(), 1);
        q.clear();
        assert_eq!((q.len(), q.next_at()), (0, None));
        q.arm(1, ms(6), || "after clear");
        assert_eq!(q.pop(), Some((ms(6), "after clear")));
    }

    #[test]
    #[should_panic(expected = "wake-up key 4 is not hosted here")]
    fn arming_a_key_the_queue_does_not_host_panics() {
        let mut q = EventQueue::with_wakeups(0, [1, 5]);
        q.arm(4, ms(1), || ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_millis(1), 1u32);
        q.schedule(Instant::from_millis(3), 3u32);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(q.now() + Duration::from_millis(1), 2u32);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.is_empty());
    }
}
