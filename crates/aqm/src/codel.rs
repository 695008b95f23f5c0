//! CoDel (RFC 8289) and its ECN-marking variant.
//!
//! TC-RAN (Irazabal & Nikaein, the paper's baseline in §6.2.2) installs
//! CoDel / ECN-CoDel between the SDAP and PDCP layers with a fixed
//! 5 ms / 100 ms configuration. CoDel's control law: once the sojourn
//! time has exceeded `target` continuously for `interval`, drop (or mark)
//! the head packet and schedule the next drop at `interval/√count`.

use l4span_sim::{Duration, Instant};

use crate::Verdict;

/// CoDel state.
#[derive(Debug, Clone)]
pub struct CoDel {
    /// Acceptable standing sojourn time (default 5 ms).
    pub target: Duration,
    /// Sliding window over which target must be exceeded (default 100 ms).
    pub interval: Duration,
    /// Mark with CE instead of dropping (ECN-CoDel).
    pub ecn_mode: bool,
    first_above_time: Option<Instant>,
    dropping: bool,
    drop_next: Instant,
    count: u32,
}

impl CoDel {
    /// Standard 5 ms / 100 ms configuration.
    pub fn new(ecn_mode: bool) -> CoDel {
        CoDel::with_params(
            Duration::from_millis(5),
            Duration::from_millis(100),
            ecn_mode,
        )
    }

    /// Custom parameters.
    pub fn with_params(target: Duration, interval: Duration, ecn_mode: bool) -> CoDel {
        CoDel {
            target,
            interval,
            ecn_mode,
            first_above_time: None,
            dropping: false,
            drop_next: Instant::ZERO,
            count: 0,
        }
    }

    /// Whether the control law is in its dropping state (diagnostics).
    pub fn dropping(&self) -> bool {
        self.dropping
    }

    fn control_action(&self) -> Verdict {
        if self.ecn_mode {
            Verdict::Mark
        } else {
            Verdict::Drop
        }
    }

    fn next_drop_delay(&self) -> Duration {
        Duration::from_secs_f64(self.interval.as_secs_f64() / f64::from(self.count.max(1)).sqrt())
    }

    /// Decide the fate of the packet at the queue head given its sojourn
    /// time. Call once per dequeued packet.
    pub fn decide(&mut self, sojourn: Duration, now: Instant) -> Verdict {
        if sojourn < self.target {
            self.first_above_time = None;
            if self.dropping {
                self.dropping = false;
            }
            return Verdict::Pass;
        }
        // Sojourn at or above target.
        match self.first_above_time {
            None => {
                self.first_above_time = Some(now + self.interval);
                Verdict::Pass
            }
            Some(fat) => {
                if !self.dropping {
                    if now >= fat {
                        // Enter dropping state.
                        self.dropping = true;
                        // RFC 8289: resume from a recent count if the last
                        // dropping episode was recent; keep it simple and
                        // restart at 1.
                        self.count = 1;
                        self.drop_next = now + self.next_drop_delay();
                        self.control_action()
                    } else {
                        Verdict::Pass
                    }
                } else if now >= self.drop_next {
                    self.count += 1;
                    self.drop_next = now + self.next_drop_delay();
                    self.control_action()
                } else {
                    Verdict::Pass
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_target_never_acts() {
        let mut c = CoDel::new(false);
        for ms in 0..1000 {
            let v = c.decide(Duration::from_millis(2), Instant::from_millis(ms));
            assert_eq!(v, Verdict::Pass);
        }
    }

    #[test]
    fn sustained_excess_triggers_drop_after_interval() {
        let mut c = CoDel::new(false);
        let mut first_drop = None;
        for ms in 0..500 {
            let v = c.decide(Duration::from_millis(20), Instant::from_millis(ms));
            if v == Verdict::Drop {
                first_drop = Some(ms);
                break;
            }
        }
        let at = first_drop.expect("must eventually drop");
        assert!(
            (100..=120).contains(&at),
            "first drop at {at} ms, expected ≈ interval"
        );
    }

    #[test]
    fn drop_rate_accelerates_with_count() {
        let mut c = CoDel::new(false);
        let mut drops = Vec::new();
        for ms in 0..2000 {
            if c.decide(Duration::from_millis(20), Instant::from_millis(ms)) == Verdict::Drop {
                drops.push(ms);
            }
        }
        assert!(drops.len() >= 4, "drops: {drops:?}");
        let gap1 = drops[1] - drops[0];
        let last_gap = drops[drops.len() - 1] - drops[drops.len() - 2];
        assert!(
            last_gap <= gap1,
            "intervals must shrink: first {gap1}, last {last_gap}"
        );
    }

    #[test]
    fn recovery_exits_dropping_state() {
        let mut c = CoDel::new(false);
        for ms in 0..300 {
            c.decide(Duration::from_millis(20), Instant::from_millis(ms));
        }
        assert!(c.dropping());
        let v = c.decide(Duration::from_millis(1), Instant::from_millis(301));
        assert_eq!(v, Verdict::Pass);
        assert!(!c.dropping());
    }

    #[test]
    fn ecn_variant_marks_instead_of_dropping() {
        let mut c = CoDel::new(true);
        let mut saw_mark = false;
        for ms in 0..500 {
            match c.decide(Duration::from_millis(20), Instant::from_millis(ms)) {
                Verdict::Mark => saw_mark = true,
                Verdict::Drop => panic!("ECN-CoDel must not drop"),
                Verdict::Pass => {}
            }
        }
        assert!(saw_mark);
    }
}
