//! Deterministic event queue.
//!
//! Every pending event carries a stamp `(Instant, sequence)` drawn from
//! one counter, and events pop in stamp order, so events scheduled for
//! the same instant dequeue in the order they were scheduled. This
//! stability is what makes whole-network runs reproducible: the gNB slot
//! tick, a WAN packet arrival, and a TCP retransmission timer may all
//! fire at the same nanosecond, and their relative order must not depend
//! on the queue's internals.
//!
//! The events themselves live in one **node slab**: scheduling moves an
//! event into a free node, popping moves it out and frees the node, so a
//! warm queue neither allocates nor boxes. Two indexes over the slab
//! keep the order:
//!
//! * **Per-instant lists on the slot grid.** A queue built
//!   [`EventQueue::with_grid`] knows the slot clock most of its events
//!   fall on — a cell's TDD slots: every delay of the radio model is a
//!   whole number of them. An event exactly on that grid and fewer than
//!   `HORIZON` slots ahead joins the list of its instant, in a ring of
//!   buckets indexed by slot number; an occupancy mask of one bit per
//!   bucket finds the next instant. A list holds its nodes in scheduling
//!   order, which is sequence order, so appending is all the ordering it
//!   needs.
//! * **An index heap** for the rest — off the grid, beyond the horizon,
//!   or on a queue without a grid: a binary heap of `(stamp, node)`
//!   entries, which sifts 24 bytes whatever the size of the event.
//!
//! Beside them sits the **wake-up lane**: one slot per timer owner (a
//! sender's timer, an application's clock, a queue stage's next
//! departure). Such an owner asks to be woken at its next activity, and
//! that instant moves as its state does. A scheduled entry cannot be
//! moved, so an owner pulling its wake-up earlier through
//! [`EventQueue::schedule`] would leave the old entry behind to pop as a
//! no-op — and with a retransmission timeout tens of seconds out,
//! thousands of them. [`EventQueue::arm`] moves the owner's one entry
//! instead: a superseded entry cannot exist.
//!
//! [`EventQueue::pop`] hands out the smallest stamp of lists, heap and
//! lane. Where an event waits is a matter of speed only: the stamps, and
//! with them the pop order, are the same on any grid or none.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{Duration, Instant};

/// The queue's total order: `(time, sequence)`.
type Stamp = (Instant, u64);

/// The stamp of a disarmed slot or an empty index; no entry carries it.
const NEVER: Stamp = (Instant::MAX, u64::MAX);

/// No node: the end of a list or of the free list.
const NIL: u32 = u32::MAX;

/// How many slots the per-instant lists reach ahead of the clock at
/// most; an on-grid event further ahead waits in the heap. A bucket's
/// number is a `u8`, so moving along the ring is wrapping arithmetic.
const HORIZON: usize = 1 << u8::BITS;

/// Words of the bucket occupancy mask.
const MASK_WORDS: usize = HORIZON / 64;

/// A slab node's event (`None` while the node is free), cache-line
/// aligned: the world's events take exactly two lines each.
#[repr(align(64))]
struct Aligned<E>(Option<E>);

/// A slab node's bookkeeping, apart from its event so that walking a
/// list or the free list touches no event's memory.
#[derive(Clone, Copy)]
struct Link {
    /// The event's sequence number (its instant is its list's, or its
    /// heap entry's) …
    seq: u64,
    /// … and the next node of the same instant's list, or of the free
    /// list.
    next: u32,
}

/// An index-heap entry: a stamp and the node holding its event. Ordered
/// for a *min*-heap via reversed comparison.
struct HeapRef {
    at: Instant,
    seq: u64,
    node: u32,
}

impl HeapRef {
    fn stamp(&self) -> Stamp {
        (self.at, self.seq)
    }
}

impl PartialEq for HeapRef {
    fn eq(&self, other: &Self) -> bool {
        self.stamp() == other.stamp()
    }
}
impl Eq for HeapRef {}
impl PartialOrd for HeapRef {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapRef {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.stamp().cmp(&self.stamp())
    }
}

/// One bucket of the ring: the first and last node of its instant's
/// list, and the instant.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    at: Instant,
}

/// The per-instant lists: a ring of [`HORIZON`] buckets, one per slot of
/// the grid from a base slot on.
///
/// The base is a grid instant no later than any listed event: the
/// instant of the last list popped from, or the first grid instant not
/// before the clock when no list is pending. It lags the clock while the
/// queue pops off-grid events, which only sends events to the heap
/// sooner; it never runs ahead of a listed one. Every listed event lies
/// in the `reach` slots from the base on, so no two listed instants
/// share a bucket, and the ring read from the earliest list on is in
/// time order.
struct Grid {
    /// The slot length in nanoseconds …
    slot: u64,
    /// … and `⌈2⁶⁴ / slot⌉`: for an offset below 2³² (every offset within
    /// reach of the base) `offset · magic` wraps below `magic` exactly
    /// when the offset is a whole number of slots, and its high word is
    /// that number — a multiply where a division would be.
    magic: u64,
    /// `reach · slot`, where `reach` is [`HORIZON`] slots or as many as
    /// fit in 2³² ns: how far past the base a listed event may lie.
    span: u64,
    /// The base instant (nanoseconds) and its bucket.
    base_at: u64,
    base_bucket: u8,
    lists: Box<[List; HORIZON]>,
    /// Bit `b` is set iff bucket `b` holds a list.
    occupied: [u64; MASK_WORDS],
    /// The stamp of the earliest list's first node, or [`NEVER`] …
    min: Stamp,
    /// … and that list's bucket.
    min_bucket: u8,
}

impl Grid {
    fn new(slot: Duration, origin: Instant, now: Instant) -> Self {
        let slot = slot.as_nanos();
        let reach = (u64::from(u32::MAX) / slot).min(HORIZON as u64);
        let empty = List {
            head: NIL,
            tail: NIL,
            at: Instant::ZERO,
        };
        let mut grid = Grid {
            slot,
            magic: u64::MAX / slot + 1,
            span: reach * slot,
            base_at: origin.as_nanos(),
            base_bucket: 0,
            lists: Box::new([empty; HORIZON]),
            occupied: [0; MASK_WORDS],
            min: NEVER,
            min_bucket: 0,
        };
        grid.rebase(now);
        grid
    }

    /// The bucket of `at` (no earlier than the clock), when `at` lies on
    /// the grid and within reach of the base.
    #[inline]
    fn bucket(&self, at: Instant) -> Option<u8> {
        // Before the base the subtraction wraps far past the span.
        let offset = at.as_nanos().wrapping_sub(self.base_at);
        if offset >= self.span || offset.wrapping_mul(self.magic) >= self.magic {
            return None;
        }
        let slots = (u128::from(offset) * u128::from(self.magic)) >> 64;
        Some(self.base_bucket.wrapping_add(slots as u8))
    }

    #[inline]
    fn list(&mut self, b: u8) -> &mut List {
        &mut self.lists[usize::from(b)]
    }

    #[inline]
    fn mark(&mut self, b: u8, on: bool) {
        let (word, bit) = (usize::from(b) / 64, 1u64 << (b % 64));
        if on {
            self.occupied[word] |= bit;
        } else {
            self.occupied[word] &= !bit;
        }
    }

    /// The first occupied bucket from `from` on, in ring order: the
    /// earliest listed instant when `from` is the bucket of an instant
    /// no later than every listed one.
    fn first_occupied(&self, from: u8) -> Option<u8> {
        let (w, bit) = (usize::from(from) / 64, from % 64);
        let ahead = self.occupied[w] & (u64::MAX << bit);
        if ahead != 0 {
            return Some((w * 64) as u8 + ahead.trailing_zeros() as u8);
        }
        // Round the ring; the last word visited is `w` again, whose bits
        // from `bit` on were just found clear.
        (1..=MASK_WORDS)
            .map(|k| (w + k) % MASK_WORDS)
            .find(|&i| self.occupied[i] != 0)
            .map(|i| (i * 64) as u8 + self.occupied[i].trailing_zeros() as u8)
    }

    /// With no list pending, move the base to the first grid instant
    /// not before `now`.
    fn rebase(&mut self, now: Instant) {
        if let Some(behind) = now.as_nanos().checked_sub(self.base_at) {
            self.base_at += behind.div_ceil(self.slot) * self.slot;
        }
    }

    /// Forget every list.
    fn reset(&mut self) {
        self.occupied = [0; MASK_WORDS];
        self.min = NEVER;
    }
}

/// Where the smallest pending stamp waits.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Source {
    Lane,
    Lists,
    Heap,
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
    fn take_min(&mut self) -> E {
        let s = self.tree[1] as usize;
        self.when[s] = NEVER;
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
        self.event[s].take().expect("an armed slot holds its event")
    }

    /// Disarm everything.
    fn reset(&mut self) {
        self.when.fill(NEVER);
        self.event.iter_mut().for_each(|e| *e = None);
        self.min = NEVER;
        self.armed = 0;
    }
}

/// A stable, deterministic priority queue of future events.
///
/// `E` is whatever event representation the driver chooses — the harness
/// crate uses a single world-level `enum`, stored by value.
pub struct EventQueue<E> {
    /// The node slab: every scheduled event, in a node, and the nodes'
    /// links; the free nodes chain through `next` from `free`.
    events: Vec<Aligned<E>>,
    links: Vec<Link>,
    free: u32,
    /// Nodes holding an event, listed or in the heap.
    held: usize,
    heap: BinaryHeap<HeapRef>,
    /// The per-instant lists, on a queue that has a grid.
    grid: Option<Grid>,
    lane: Lane<E>,
    seq: u64,
    /// Monotonically non-decreasing time of the last popped event.
    now: Instant,
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
    /// slab or the heap reallocates — drivers that know their
    /// steady-state event population can avoid growth pauses mid-run.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_wakeups(cap, [])
    }

    /// [`EventQueue::with_capacity`], plus one wake-up slot for each of
    /// `keys` (ascending): the timer owners [`EventQueue::arm`] may name
    /// on this queue. The lane is sized here, once, by the keys hosted —
    /// not by the largest key.
    pub fn with_wakeups(cap: usize, keys: impl IntoIterator<Item = usize>) -> Self {
        EventQueue {
            events: Vec::with_capacity(cap),
            links: Vec::with_capacity(cap),
            free: NIL,
            held: 0,
            heap: BinaryHeap::with_capacity(cap),
            grid: None,
            lane: Lane::new(keys.into_iter().collect()),
            seq: 0,
            now: Instant::ZERO,
        }
    }

    /// This queue, keeping the events that fall on the grid `origin + k
    /// · slot` in per-instant lists (see the module documentation). The
    /// grid changes where events wait, never the order they pop in.
    ///
    /// # Panics
    ///
    /// When `slot` is shorter than 2 ns, or events are already pending.
    pub fn with_grid(mut self, slot: Duration, origin: Instant) -> Self {
        assert!(
            slot.as_nanos() >= 2,
            "event queue: a grid slot is 2 ns or longer"
        );
        assert!(
            self.is_empty(),
            "event queue: the grid is set before scheduling"
        );
        self.grid = Some(Grid::new(slot, origin, self.now));
        self
    }

    /// Reserve room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.events.reserve(additional);
        self.links.reserve(additional);
        self.heap.reserve(additional);
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in a discrete-event
    /// simulation; it is clamped to `now` (fires immediately) so the
    /// simulation stays monotonic rather than panicking deep inside a run.
    pub fn schedule(&mut self, at: Instant, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let node = self.hold(seq, event);
        match self.grid.as_ref().and_then(|g| g.bucket(at)) {
            Some(b) => self.append(b, node, (at, seq)),
            None => self.heap.push(HeapRef { at, seq, node }),
        }
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
        self.lane.when[s] = (at, self.seq);
        self.seq += 1;
        if armed == NEVER {
            self.lane.event[s] = Some(event());
            self.lane.armed += 1;
        }
        self.lane.moved_earlier(s);
    }

    /// Time of the earliest pending event, if any.
    pub fn next_at(&self) -> Option<Instant> {
        self.first().map(|((at, _), _)| at)
    }

    /// The smallest pending stamp of lists, heap and lane, and where it
    /// waits.
    #[inline]
    fn first(&self) -> Option<(Stamp, Source)> {
        let heap = self.heap.peek().map_or(NEVER, HeapRef::stamp);
        let listed = self.grid.as_ref().map_or(NEVER, |g| g.min);
        let wake = self.lane.min;
        if wake < heap.min(listed) {
            Some((wake, Source::Lane))
        } else if listed < heap {
            Some((listed, Source::Lists))
        } else {
            (heap != NEVER).then_some((heap, Source::Heap))
        }
    }

    /// Remove the entry [`EventQueue::first`] found at `from`.
    #[inline]
    fn take(&mut self, from: Source) -> E {
        let node = match from {
            Source::Lane => return self.lane.take_min(),
            Source::Lists => self.unlist_first(),
            Source::Heap => self.heap.pop().expect("the heap holds the minimum").node,
        };
        self.held -= 1;
        self.links[node as usize].next = self.free;
        self.free = node;
        self.events[node as usize]
            .0
            .take()
            .expect("a held node holds its event")
    }

    /// Move `event`, stamped `seq`, into a free slab node.
    #[inline]
    fn hold(&mut self, seq: u64, event: E) -> u32 {
        self.held += 1;
        let link = Link { seq, next: NIL };
        if self.free == NIL {
            debug_assert!(self.links.len() < NIL as usize, "event queue: slab full");
            self.events.push(Aligned(Some(event)));
            self.links.push(link);
            (self.links.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.links[i as usize].next;
            self.links[i as usize] = link;
            self.events[i as usize].0 = Some(event);
            i
        }
    }

    /// Append `node`, stamped `stamp`, to the list of bucket `b`.
    #[inline]
    fn append(&mut self, b: u8, node: u32, stamp: Stamp) {
        let g = self.grid.as_mut().expect("listed on a grid");
        let occupied = g.occupied[usize::from(b) / 64] & (1 << (b % 64)) != 0;
        let list = g.list(b);
        if occupied {
            self.links[list.tail as usize].next = node;
            list.tail = node;
            return;
        }
        *list = List {
            head: node,
            tail: node,
            at: stamp.0,
        };
        g.mark(b, true);
        // A fresh sequence number: a new list can only be the first if
        // its instant is the earliest.
        if stamp < g.min {
            (g.min, g.min_bucket) = (stamp, b);
        }
    }

    /// Unlink the first node of the earliest list.
    #[inline]
    fn unlist_first(&mut self) -> u32 {
        let g = self.grid.as_mut().expect("the lists hold the minimum");
        let b = g.min_bucket;
        let list = g.list(b);
        let node = list.head;
        if node != list.tail {
            list.head = self.links[node as usize].next;
            g.min.1 = self.links[list.head as usize].seq;
            return node;
        }
        g.mark(b, false);
        g.min = match g.first_occupied(b) {
            Some(nb) => {
                g.min_bucket = nb;
                let list = g.list(nb);
                (list.at, self.links[list.head as usize].seq)
            }
            None => NEVER,
        };
        node
    }

    /// Pop the earliest event, advancing the queue clock to its time.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        let ((at, _), from) = self.first()?;
        debug_assert!(at >= self.now, "event queue went backwards");
        if let Some(g) = &mut self.grid {
            if from == Source::Lists {
                // The clock is on the grid: the new base.
                (g.base_at, g.base_bucket) = (at.as_nanos(), g.min_bucket);
            } else if g.min == NEVER {
                // No list to keep the base behind: catch up with the clock.
                g.rebase(at);
            }
        }
        self.now = at;
        Some((at, self.take(from)))
    }

    /// Time of the most recently popped event (the simulation's "now").
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of pending events: scheduled ones plus armed wake-ups.
    pub fn len(&self) -> usize {
        self.held + self.lane.armed
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending events without advancing time.
    pub fn clear(&mut self) {
        self.events.clear();
        self.links.clear();
        self.free = NIL;
        self.held = 0;
        self.heap.clear();
        if let Some(g) = &mut self.grid {
            g.reset();
        }
        self.lane.reset();
    }

    /// Remove every pending event — armed wake-ups included, as the
    /// events they would pop as — in `(time, sequence)` order without
    /// advancing the queue clock. Re-scheduling the survivors in the
    /// returned order (re-arming those that are wake-ups) assigns fresh,
    /// ascending sequence numbers, so the relative FIFO order of
    /// same-instant events is preserved — this is what shard
    /// installation relies on when it prunes a replica's queue down to
    /// the events its cells own.
    pub fn drain_ordered(&mut self) -> Vec<(Instant, E)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(((at, _), from)) = self.first() {
            out.push((at, self.take(from)));
        }
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

    /// A queue on a 1 ms grid from t = 0.
    fn gridded<E>() -> EventQueue<E> {
        EventQueue::new().with_grid(Duration::from_millis(1), Instant::ZERO)
    }

    #[test]
    fn an_on_grid_event_a_horizon_ahead_waits_in_the_heap() {
        let mut q = gridded();
        q.schedule(ms(HORIZON as u64), "far");
        assert_eq!(q.heap.len(), 1, "slot 256 from slot 0 is past the lists");
        q.schedule(ms(HORIZON as u64 - 1), "near");
        q.schedule(ms(1), "tick");
        assert_eq!(
            q.heap.len(),
            1,
            "the last slot inside the horizon is listed"
        );
        assert_eq!(q.pop(), Some((ms(1), "tick")));
        // From slot 1 the same instant is inside the horizon: listed
        // behind the heap's older stamp for it.
        q.schedule(ms(HORIZON as u64), "later");
        assert_eq!(q.heap.len(), 1);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [(ms(255), "near"), (ms(256), "far"), (ms(256), "later")]
        );
    }

    #[test]
    fn a_past_due_schedule_joins_the_tail_of_the_current_instants_list() {
        let mut q = gridded();
        q.schedule(ms(5), "a");
        q.schedule(ms(5), "b");
        assert_eq!(q.pop(), Some((ms(5), "a")));
        q.schedule(ms(2), "late");
        q.schedule(ms(5), "c");
        assert!(q.heap.is_empty(), "clamped onto the grid: listed");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, [(ms(5), "b"), (ms(5), "late"), (ms(5), "c")]);
        // The instant's list emptied; a past-due event starts it again.
        q.schedule(ms(1), "again");
        assert_eq!(q.pop(), Some((ms(5), "again")));
        assert!(q.is_empty());
    }

    #[test]
    fn the_grid_test_is_a_division() {
        let mut rng = crate::SimRng::new(5);
        for slot in [
            2,
            3,
            1_000,
            499_999,
            500_000,
            1_000_000,
            16_777_215,
            16_777_216,
            1 << 31,
        ] {
            let base = Instant::from_nanos(rng.range_u64(1, 1 << 40));
            let mut g = Grid::new(Duration::from_nanos(slot), base, base);
            g.base_bucket = rng.range_u64(0, HORIZON as u64) as u8;
            let reach = (u64::from(u32::MAX) / slot).min(HORIZON as u64);
            for k in 0..reach + 2 {
                for d in [0, 1, slot - 1, slot / 2] {
                    let offset = (k * slot + d).min(u64::from(u32::MAX));
                    let want = (offset % slot == 0 && offset / slot < reach)
                        .then(|| g.base_bucket.wrapping_add((offset / slot) as u8));
                    let at = Instant::from_nanos(base.as_nanos() + offset);
                    assert_eq!(g.bucket(at), want, "slot {slot} offset {offset}");
                }
            }
            assert_eq!(g.bucket(Instant::from_nanos(base.as_nanos() - 1)), None);
        }
    }

    #[test]
    fn queues_with_and_without_a_grid_pop_like_a_plain_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = crate::SimRng::new(26);
        let mut plain: BinaryHeap<Reverse<(Instant, u64, u32)>> = BinaryHeap::new();
        let mut queues = [
            EventQueue::new(),
            gridded(),
            // A phased grid: every instant before its origin is off it.
            EventQueue::new().with_grid(Duration::from_micros(500), Instant::from_micros(3)),
        ];
        let (mut now, mut seq) = (Instant::ZERO, 0u64);
        let mut listed = [0; 3];
        for id in 0..20_000u32 {
            if rng.chance(0.55) {
                // Mostly on one of the grids, up to ~300 ms ahead, and
                // sometimes a little behind the clock.
                let ns = now.as_nanos();
                let at = match rng.range_u64(0, 4) {
                    0 => ns + rng.range_u64(0, 300_000_000),
                    1 => (ns / 500_000 + rng.range_u64(0, 600)) * 500_000 + 3_000,
                    _ => (ns / 1_000_000 + rng.range_u64(0, 300)) * 1_000_000,
                };
                let at = Instant::from_nanos(at.saturating_sub(2_000_000));
                plain.push(Reverse((at.max(now), seq, id)));
                seq += 1;
                for q in &mut queues {
                    q.schedule(at, id);
                }
            } else {
                let want = plain.pop().map(|Reverse((at, _, id))| (at, id));
                for q in &mut queues {
                    assert_eq!(q.pop(), want);
                }
                now = want.map_or(now, |(at, _)| at);
            }
            for (q, n) in queues.iter().zip(&mut listed) {
                assert_eq!(q.len(), plain.len());
                assert_eq!(q.next_at(), plain.peek().map(|e| e.0 .0));
                *n += q.len() - q.heap.len();
            }
        }
        assert_eq!(listed[0], 0, "no grid, no lists");
        assert!(listed[1] > 0 && listed[2] > 0, "the grids list: {listed:?}");
        for q in &mut queues {
            let drained: Vec<_> = q.drain_ordered();
            let want: Vec<_> = plain
                .clone()
                .into_sorted_vec()
                .into_iter()
                .rev()
                .map(|Reverse((at, _, id))| (at, id))
                .collect();
            assert_eq!(drained, want);
        }
    }
}
