//! Dual-connectivity bonding primitives: a deterministic per-leg
//! striper, a receiver-side reorder/join buffer, and an RFC 8382-style
//! shared-bottleneck detector.
//!
//! A bonded flow (see [`crate::scenario::FlowSpec::bond`]) has one
//! transport endpoint whose packets are striped across the uplink
//! grants of **two** UEs homed on different cells, NR dual-connectivity
//! style. Three pieces make that work:
//!
//! * [`BondTx`] — assigns each outgoing packet to a leg. Transports
//!   that are not bonding-aware (the TCP family) get byte-balanced
//!   striping; the FEC media endpoint stripes itself by NADA rate and
//!   does not use this.
//! * [`BondJoin`] — the server-side join point. Legs have independent
//!   radio delays, so packets arrive interleaved out of transmission
//!   order; the join buffer restores order using the IP identification
//!   field (a per-flow monotone counter in this stack) and releases a
//!   stuck head-of-line gap after a bounded timeout so one stalled leg
//!   cannot wedge the flow.
//! * [`SbdDetector`] — decides whether the two legs share a bottleneck
//!   (RFC 8382's premise: summary statistics of one-way delay
//!   correlate when they do). When they correlate, the legs' congestion
//!   controllers must be coupled — otherwise the bond grabs two
//!   bottleneck shares.
//!
//! Everything here is pure deterministic arithmetic over simulated
//! time: no wall clocks, no RNG, so bonded runs stay byte-reproducible
//! across worker counts.

use std::collections::BTreeMap;

use l4span_net::{ipv4::unwrap_ident, PacketBuf};
use l4span_sim::{Duration, Instant};

/// How long the join buffer waits on a head-of-line gap before
/// releasing what it has. Covers one leg's HARQ retransmission plus
/// scheduling jitter; beyond that the hole is almost certainly loss and
/// the transport's own recovery should see it.
pub const JOIN_GAP_TIMEOUT: Duration = Duration::from_millis(10);

/// Join-buffer occupancy cap. A leg outage can park this many packets
/// behind a gap; past it the buffer force-releases from the lowest
/// sequence so memory stays bounded.
pub const JOIN_CAP: usize = 256;

/// One-way-delay bin width for the shared-bottleneck detector. RFC 8382
/// recommends summary statistics over ~50 ms intervals (T in §4.1).
pub const SBD_BIN: Duration = Duration::from_millis(50);

/// Bins of correlation history the detector keeps (~800 ms of signal).
pub const SBD_HISTORY: usize = 16;

/// Minimum joint bins before the detector renders any verdict.
pub const SBD_MIN_BINS: usize = 8;

/// Correlation above which the legs are declared coupled.
pub const SBD_COUPLE: f64 = 0.6;

/// Correlation below which a coupled pair is released (hysteresis band
/// between the two thresholds, so a verdict does not chatter).
pub const SBD_DECOUPLE: f64 = 0.2;

/// Byte-balanced deterministic striper for transports that are not
/// bonding-aware. Each packet goes to whichever leg has carried fewer
/// bytes so far (ties break to leg 0), which keeps the split exactly
/// even without any randomness.
#[derive(Debug, Default)]
pub struct BondTx {
    bytes: [u64; 2],
}

impl BondTx {
    /// Fresh striper with both legs empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pick the leg for a packet of `wire_len` bytes and account it.
    pub fn pick(&mut self, wire_len: usize) -> u8 {
        let leg = u8::from(self.bytes[1] < self.bytes[0]);
        self.bytes[leg as usize] += wire_len as u64;
        leg
    }

    /// Cumulative bytes assigned to each leg.
    pub fn bytes(&self) -> [u64; 2] {
        self.bytes
    }
}

/// Receiver-side reorder/join buffer keyed by the flow's IP
/// identification counter.
///
/// The TCP sender in this stack stamps every transmitted packet —
/// including retransmissions — with a fresh, monotonically increasing
/// 16-bit identification, so unwrapping that counter to 64 bits
/// recovers transmission order across the two legs. Packets older than
/// the release point are handed through immediately (they are late
/// retransmit arrivals the transport's receiver must judge, not ours).
#[derive(Debug)]
pub struct BondJoin {
    /// Next sequence the in-order release point is waiting for; `None`
    /// until the first packet anchors the unwrap reference.
    next: Option<u64>,
    /// Highest unwrapped sequence seen; the unwrap reference.
    high: u64,
    /// Out-of-order packets parked behind a gap.
    buf: BTreeMap<u64, (PacketBuf, Instant)>,
    /// Packets force-released by the gap timeout or the occupancy cap.
    pub flushed: u64,
}

impl BondJoin {
    /// Empty join buffer.
    pub fn new() -> Self {
        Self {
            next: None,
            high: 0,
            buf: BTreeMap::new(),
            flushed: 0,
        }
    }

    /// Ingest one packet from either leg; in-order releases (possibly
    /// several, if this packet filled a gap) are appended to `out`.
    pub fn on_packet(
        &mut self,
        ident: u16,
        pkt: PacketBuf,
        now: Instant,
        out: &mut Vec<PacketBuf>,
    ) {
        let Some(next) = self.next else {
            // First packet anchors the sequence line and flows through.
            let seq = ident as u64;
            self.high = seq;
            self.next = Some(seq + 1);
            out.push(pkt);
            return;
        };
        let seq = unwrap_ident(ident, self.high);
        self.high = self.high.max(seq);
        if seq < next {
            // Late retransmit arrival from the slower leg: the release
            // point already moved past it, so hand it straight to the
            // transport receiver (which dedups by its own sequence
            // space) rather than stalling it here.
            out.push(pkt);
            return;
        }
        self.buf.insert(seq, (pkt, now));
        self.drain_in_order(out);
        if self.buf.len() > JOIN_CAP {
            // Occupancy cap: jump the release point to the lowest
            // buffered sequence and drain the run behind it.
            self.flushed += 1;
            let lowest = *self.buf.keys().next().expect("non-empty");
            self.next = Some(lowest);
            self.drain_in_order(out);
        }
    }

    /// Release the head-of-line gap if its oldest parked packet has
    /// waited longer than [`JOIN_GAP_TIMEOUT`]. Called from the UE poll
    /// cadence so a stalled leg cannot wedge the flow.
    pub fn poll(&mut self, now: Instant, out: &mut Vec<PacketBuf>) {
        loop {
            let Some((&lowest, &(_, t))) = self.buf.iter().next() else {
                return;
            };
            if now.saturating_since(t) < JOIN_GAP_TIMEOUT {
                return;
            }
            self.flushed += 1;
            self.next = Some(lowest);
            self.drain_in_order(out);
        }
    }

    /// Number of packets currently parked behind a gap.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    fn drain_in_order(&mut self, out: &mut Vec<PacketBuf>) {
        let Some(mut next) = self.next else { return };
        while let Some((pkt, _)) = self.buf.remove(&next) {
            out.push(pkt);
            next += 1;
        }
        self.next = Some(next);
    }
}

impl Default for BondJoin {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-leg one-way-delay bin accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct Bin {
    sum_us: u64,
    n: u64,
}

/// RFC 8382-style shared-bottleneck detector over two legs' one-way
/// delays.
///
/// Delay samples are averaged into [`SBD_BIN`]-wide bins per leg; bins
/// where **both** legs produced samples become joint observations, and
/// the Pearson correlation of the last [`SBD_HISTORY`] joint
/// observations drives a hysteretic verdict: correlation above
/// [`SBD_COUPLE`] declares a shared bottleneck, and only a drop below
/// [`SBD_DECOUPLE`] releases it. (RFC 8382 proper uses grouped skewness
/// and variability statistics across many flows; with exactly two legs
/// of one flow, delay correlation is the same signal with less
/// machinery.)
#[derive(Debug)]
pub struct SbdDetector {
    bin_start: Instant,
    cur: [Bin; 2],
    /// Joint (leg0 mean, leg1 mean) observations, oldest first.
    hist: Vec<(f64, f64)>,
    coupled: bool,
    /// Verdict transitions (either direction) since construction.
    pub flips: u64,
}

impl SbdDetector {
    /// Fresh detector; the verdict starts uncoupled.
    pub fn new() -> Self {
        Self {
            bin_start: Instant::ZERO,
            cur: [Bin::default(); 2],
            hist: Vec::new(),
            coupled: false,
            flips: 0,
        }
    }

    /// Feed one one-way-delay sample for `leg` observed at `now`.
    pub fn observe(&mut self, leg: u8, owd: Duration, now: Instant) {
        self.roll(now);
        let b = &mut self.cur[leg as usize];
        b.sum_us += owd.as_micros();
        b.n += 1;
    }

    /// Current verdict: do the legs share a bottleneck?
    pub fn coupled(&self) -> bool {
        self.coupled
    }

    /// Close any bins that `now` has moved past and update the verdict.
    fn roll(&mut self, now: Instant) {
        while now.saturating_since(self.bin_start) >= SBD_BIN {
            if self.cur[0].n > 0 && self.cur[1].n > 0 {
                let m0 = self.cur[0].sum_us as f64 / self.cur[0].n as f64;
                let m1 = self.cur[1].sum_us as f64 / self.cur[1].n as f64;
                if self.hist.len() == SBD_HISTORY {
                    self.hist.remove(0);
                }
                self.hist.push((m0, m1));
                self.update_verdict();
            }
            self.cur = [Bin::default(); 2];
            self.bin_start += SBD_BIN;
        }
    }

    fn update_verdict(&mut self) {
        if self.hist.len() < SBD_MIN_BINS {
            return;
        }
        let r = pearson(&self.hist);
        let next = if self.coupled {
            r >= SBD_DECOUPLE
        } else {
            r > SBD_COUPLE
        };
        if next != self.coupled {
            self.coupled = next;
            self.flips += 1;
        }
    }
}

impl Default for SbdDetector {
    fn default() -> Self {
        Self::new()
    }
}

/// Pearson correlation coefficient of paired samples; 0 when either
/// side is constant (no co-variation signal either way).
fn pearson(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len() as f64;
    let (mut sx, mut sy) = (0.0, 0.0);
    for &(x, y) in pairs {
        sx += x;
        sy += y;
    }
    let (mx, my) = (sx / n, sy / n);
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for &(x, y) in pairs {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use l4span_net::Ecn;

    fn pkt(ident: u16) -> PacketBuf {
        PacketBuf::udp(0x0a00_0001, 0x0a00_0101, Ecn::Ect1, ident, 5000, 6000, 100)
    }

    #[test]
    fn bond_tx_balances_bytes_deterministically() {
        let mut tx = BondTx::new();
        // Equal sizes alternate starting at leg 0.
        assert_eq!(tx.pick(100), 0);
        assert_eq!(tx.pick(100), 1);
        assert_eq!(tx.pick(100), 0);
        // After 200/100 the lighter leg 1 takes the jumbo, and then
        // leg 0 absorbs traffic until the byte counts converge again.
        assert_eq!(tx.pick(1000), 1);
        assert_eq!(tx.bytes(), [200, 1100]);
        assert_eq!(tx.pick(100), 0);
        assert_eq!(tx.pick(100), 0);
        assert_eq!(tx.bytes(), [400, 1100]);
    }

    #[test]
    fn join_releases_in_order_across_interleaved_legs() {
        let mut j = BondJoin::new();
        let mut out = Vec::new();
        let t = Instant::ZERO;
        j.on_packet(1, pkt(1), t, &mut out);
        assert_eq!(out.len(), 1);
        // 3 arrives before 2: parked.
        j.on_packet(3, pkt(3), t, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(j.pending(), 1);
        // 2 fills the gap: both release, in order.
        j.on_packet(2, pkt(2), t, &mut out);
        let ids: Vec<u16> = out.iter().map(|p| p.identification()).collect();
        assert_eq!(ids, [1, 2, 3]);
        assert_eq!(j.pending(), 0);
        assert_eq!(j.flushed, 0);
    }

    #[test]
    fn join_gap_timeout_releases_a_stalled_gap() {
        let mut j = BondJoin::new();
        let mut out = Vec::new();
        j.on_packet(10, pkt(10), Instant::ZERO, &mut out);
        j.on_packet(12, pkt(12), Instant::from_millis(1), &mut out);
        j.on_packet(13, pkt(13), Instant::from_millis(2), &mut out);
        assert_eq!(out.len(), 1);
        // Before the timeout nothing moves; after it the gap is
        // abandoned and the parked run releases.
        j.poll(Instant::from_millis(5), &mut out);
        assert_eq!(out.len(), 1);
        j.poll(Instant::from_millis(12), &mut out);
        let ids: Vec<u16> = out.iter().map(|p| p.identification()).collect();
        assert_eq!(ids, [10, 12, 13]);
        assert_eq!(j.flushed, 1);
        // The straggler 11 now arrives late: released immediately.
        j.on_packet(11, pkt(11), Instant::from_millis(13), &mut out);
        assert_eq!(out.last().unwrap().identification(), 11);
    }

    #[test]
    fn join_unwraps_the_ident_counter_across_the_u16_seam() {
        let mut j = BondJoin::new();
        let mut out = Vec::new();
        let t = Instant::ZERO;
        j.on_packet(u16::MAX - 1, pkt(u16::MAX - 1), t, &mut out);
        j.on_packet(u16::MAX, pkt(u16::MAX), t, &mut out);
        // Wrap: 0 and 1 must read as *after* 65535, not a 64k jump back.
        j.on_packet(1, pkt(1), t, &mut out);
        assert_eq!(out.len(), 2, "the wrapped 1 parks behind the missing 0");
        j.on_packet(0, pkt(0), t, &mut out);
        let ids: Vec<u16> = out.iter().map(|p| p.identification()).collect();
        assert_eq!(ids, [u16::MAX - 1, u16::MAX, 0, 1]);
    }

    #[test]
    fn join_cap_bounds_memory_under_a_leg_outage() {
        let mut j = BondJoin::new();
        let mut out = Vec::new();
        let t = Instant::ZERO;
        j.on_packet(0, pkt(0), t, &mut out);
        // Sequence 1 never arrives; park JOIN_CAP + 1 packets behind it.
        for i in 0..=(JOIN_CAP as u16) {
            j.on_packet(2 + i, pkt(2 + i), t, &mut out);
        }
        assert!(j.pending() <= JOIN_CAP);
        assert!(j.flushed >= 1);
        assert!(out.len() > 1, "the cap force-released the parked run");
    }

    #[test]
    fn sbd_couples_on_correlated_owd_and_holds_through_the_band() {
        let mut d = SbdDetector::new();
        // Both legs ride the same sawtooth: strongly correlated.
        for bin in 0..SBD_MIN_BINS as u64 + 2 {
            let t = Instant::from_millis(bin * 50 + 1);
            let owd = Duration::from_millis(10 + (bin % 5) * 4);
            d.observe(0, owd, t);
            d.observe(1, owd + Duration::from_millis(3), t);
        }
        // Verdicts land when a *later* sample rolls the bin closed.
        d.observe(0, Duration::from_millis(10), Instant::from_secs(2));
        d.observe(1, Duration::from_millis(10), Instant::from_secs(2));
        assert!(d.coupled(), "identical sawtooths must read as shared");
        assert_eq!(d.flips, 1);
    }

    #[test]
    fn sbd_stays_uncoupled_on_independent_legs() {
        let mut d = SbdDetector::new();
        for bin in 0..SBD_HISTORY as u64 {
            let t = Instant::from_millis(bin * 50 + 1);
            // Leg 0 rises while leg 1 falls: anticorrelated.
            d.observe(0, Duration::from_millis(5 + bin), t);
            d.observe(1, Duration::from_millis(40 - bin), t);
        }
        d.observe(0, Duration::from_millis(10), Instant::from_secs(2));
        d.observe(1, Duration::from_millis(10), Instant::from_secs(2));
        assert!(!d.coupled());
        assert_eq!(d.flips, 0);
    }

    #[test]
    fn pearson_is_zero_on_constant_series() {
        let flat: Vec<(f64, f64)> = (0..10).map(|i| (5.0, i as f64)).collect();
        assert_eq!(pearson(&flat), 0.0);
    }
}
