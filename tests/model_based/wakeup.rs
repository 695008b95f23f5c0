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
//! the one instant the owner is armed for, and only the pop that
//! matches it is live. A superseded pop returned before it touched the
//! owner and, in particular, before it could arm a successor.

use l4span::sim::Instant;

/// The armed instant of one timer owner ([`Instant::MAX`] = disarmed).
///
/// The caller owns the event queue: [`Wakeup::arm`] says *whether* and
/// *when* to schedule the owner's event, [`Wakeup::fire`] says whether
/// a popped one is the live one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wakeup {
    armed: Instant,
}

impl Default for Wakeup {
    fn default() -> Self {
        Wakeup::new()
    }
}

impl Wakeup {
    /// A disarmed wake-up.
    pub const fn new() -> Wakeup {
        Wakeup {
            armed: Instant::MAX,
        }
    }

    /// Ask to be woken at `at` (a past-due `at` means `now`). Returns
    /// the instant to schedule the owner's event at, or `None` when a
    /// wake-up no later than that is already armed (or `at` is
    /// [`Instant::MAX`], "never").
    ///
    /// The *clamped* instant is what gets recorded: bookkeeping a
    /// past-due `at` as-is would arm a phantom instant no pop can match.
    #[inline]
    pub fn arm(&mut self, at: Instant, now: Instant) -> Option<Instant> {
        let at = at.max(now);
        if at < self.armed {
            self.armed = at;
            Some(at)
        } else {
            None
        }
    }

    /// The owner's event popped at `now`: is it the armed one? The live
    /// pop disarms (its handler re-arms from the owner's new state); a
    /// superseded pop changes nothing.
    #[inline]
    pub fn fire(&mut self, now: Instant) -> bool {
        if self.armed == now {
            self.armed = Instant::MAX;
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
        assert_eq!(w.arm(ms(10), ms(0)), Some(ms(10)));
        assert_eq!(w.arm(ms(12), ms(1)), None, "not earlier: already covered");
        assert_eq!(w.arm(ms(10), ms(1)), None, "equal is not strictly earlier");
        assert_eq!(w.arm(ms(4), ms(2)), Some(ms(4)));
        assert!(w.fire(ms(4)));
        // The handler found nothing to do and did not re-arm: the pop
        // left over from the first arm is stale and stays inert.
        assert!(!w.fire(ms(10)));
        assert_eq!(w, Wakeup::new());
    }

    #[test]
    fn past_due_arm_is_clamped_and_can_rearm_at_now_from_inside_fire() {
        let mut w = Wakeup::new();
        assert_eq!(w.arm(ms(3), ms(7)), Some(ms(7)), "past-due fires now");
        assert!(w.fire(ms(7)));
        // The handler polls its owner, which is due again immediately.
        assert_eq!(w.arm(ms(5), ms(7)), Some(ms(7)));
        assert!(w.fire(ms(7)));
        assert!(!w.fire(ms(7)), "disarmed: nothing left at this instant");
    }

    #[test]
    fn two_pops_at_one_instant_yield_exactly_one_live() {
        let mut w = Wakeup::new();
        assert_eq!(w.arm(ms(9), ms(0)), Some(ms(9)));
        assert_eq!(w.arm(ms(5), ms(0)), Some(ms(5)));
        assert!(w.fire(ms(5)));
        // Re-armed at the instant the superseded event is queued for:
        // two events now sit at 9 ms, one arm is outstanding.
        assert_eq!(w.arm(ms(9), ms(5)), Some(ms(9)));
        let live = [w.fire(ms(9)), w.fire(ms(9))];
        assert_eq!(live, [true, false]);
    }

    #[test]
    fn never_is_not_armed_and_arming_after_it_works() {
        let mut w = Wakeup::new();
        assert_eq!(w.arm(Instant::MAX, ms(1)), None);
        assert_eq!(w.arm(ms(2), ms(1)), Some(ms(2)));
        assert_eq!(w.arm(Instant::MAX, ms(1)), None, "never does not disarm");
        assert!(w.fire(ms(2)));
    }
}
