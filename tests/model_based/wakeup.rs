//! One live wake-up per timer owner, as it was while the event queue
//! could only add entries: the reference the queue's wake-up lane
//! (`EventQueue::arm`) is compared to.
//!
//! Every component the world polls on a clock — a flow's sender, its
//! application, the bottleneck router, an impairment queue stage —
//! asks to be woken at its next activity, and that instant moves as
//! the component's state does. Events could not be cancelled once
//! queued, so an owner that moved its wake-up earlier left the old
//! event behind. A [`Wakeup`] made that event harmless: it remembers
//! the one entry — instant and sequence number — the owner is armed
//! for, and only the pop of that entry is live. A superseded pop
//! returned before it touched the owner and, in particular, before it
//! could arm a successor.

use l4span::sim::Instant;

/// What a disarmed [`Wakeup`] holds.
const DISARMED: (Instant, u64) = (Instant::MAX, 0);

/// The armed entry `(instant, sequence number)` of one timer owner
/// ([`DISARMED`] when there is none).
///
/// The caller owns the event queue: [`Wakeup::arm`] says *whether* and
/// *when* to schedule the owner's event, [`Wakeup::fire`] says whether
/// a popped one is the live one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wakeup {
    armed: (Instant, u64),
}

impl Default for Wakeup {
    fn default() -> Self {
        Wakeup::new()
    }
}

impl Wakeup {
    /// A disarmed wake-up.
    pub const fn new() -> Wakeup {
        Wakeup { armed: DISARMED }
    }

    /// Ask to be woken at `at` (a past-due `at` means `now`) by the
    /// entry the caller schedules next, numbered `seq`. Returns the
    /// instant to schedule that entry at, or `None` when a wake-up no
    /// later than that is already armed (or `at` is [`Instant::MAX`],
    /// "never").
    ///
    /// The *clamped* instant is what gets recorded: bookkeeping a
    /// past-due `at` as-is would arm a phantom instant no pop can match.
    #[inline]
    pub fn arm(&mut self, at: Instant, now: Instant, seq: u64) -> Option<Instant> {
        let at = at.max(now);
        if at < self.armed.0 {
            self.armed = (at, seq);
            Some(at)
        } else {
            None
        }
    }

    /// The owner's entry `(at, seq)` popped: is it the armed one? The
    /// live pop disarms (its handler re-arms from the owner's new
    /// state); a superseded pop changes nothing.
    #[inline]
    pub fn fire(&mut self, at: Instant, seq: u64) -> bool {
        if self.armed == (at, seq) {
            self.armed = DISARMED;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(t: u64) -> Instant {
        Instant::from_millis(t)
    }

    #[test]
    fn arming_earlier_makes_the_later_pop_stale() {
        let mut w = Wakeup::new();
        assert_eq!(w.arm(ms(10), ms(0), 0), Some(ms(10)));
        assert_eq!(w.arm(ms(12), ms(1), 1), None, "not earlier: covered");
        assert_eq!(w.arm(ms(10), ms(1), 1), None, "equal is not earlier");
        assert_eq!(w.arm(ms(4), ms(2), 1), Some(ms(4)));
        assert!(w.fire(ms(4), 1));
        // The handler found nothing to do and did not re-arm: the pop
        // left over from the first arm is stale and stays inert.
        assert!(!w.fire(ms(10), 0));
        assert_eq!(w, Wakeup::new());
    }

    #[test]
    fn past_due_arm_is_clamped_and_can_rearm_at_now_from_inside_fire() {
        let mut w = Wakeup::new();
        assert_eq!(w.arm(ms(3), ms(7), 0), Some(ms(7)), "past-due fires now");
        assert!(w.fire(ms(7), 0));
        // The handler polls its owner, which is due again immediately.
        assert_eq!(w.arm(ms(5), ms(7), 1), Some(ms(7)));
        assert!(w.fire(ms(7), 1));
        assert!(!w.fire(ms(7), 1), "disarmed: nothing left at this instant");
    }

    #[test]
    fn two_pops_at_one_instant_yield_exactly_one_live() {
        let mut w = Wakeup::new();
        assert_eq!(w.arm(ms(9), ms(0), 0), Some(ms(9)));
        assert_eq!(w.arm(ms(5), ms(0), 1), Some(ms(5)));
        assert!(w.fire(ms(5), 1));
        // Re-armed at the instant the superseded event is queued for:
        // two events now sit at 9 ms, and the newer one is live.
        assert_eq!(w.arm(ms(9), ms(5), 2), Some(ms(9)));
        let live = [w.fire(ms(9), 0), w.fire(ms(9), 2)];
        assert_eq!(live, [false, true]);
    }

    #[test]
    fn never_is_not_armed_and_arming_after_it_works() {
        let mut w = Wakeup::new();
        assert_eq!(w.arm(Instant::MAX, ms(1), 0), None);
        assert_eq!(w.arm(ms(2), ms(1), 0), Some(ms(2)));
        assert_eq!(w.arm(Instant::MAX, ms(1), 1), None, "never does not disarm");
        assert!(w.fire(ms(2), 0));
    }
}
