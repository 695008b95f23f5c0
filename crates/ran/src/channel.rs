//! Per-UE wireless channel models.
//!
//! The paper evaluates under static, pedestrian, and vehicular channels
//! emulated by Amarisoft test equipment (§6.1). We reproduce them with a
//! Jakes sum-of-sinusoids Rayleigh fader: the complex channel gain is a
//! sum of `N` plane waves with Doppler shifts `f_d·cos(α_n)`, giving the
//! classic U-shaped Doppler spectrum and a coherence time of
//! `≈ 0.423 / f_d` (Clarke). The gain is a *pure function of time* given
//! the path table drawn at construction, so the channel can be sampled at
//! any instant (including in the past, for stale-CQI modeling) without
//! mutable state.

use std::cell::Cell;

use l4span_sim::{Duration, Instant, SimRng};

/// Mobility profile of a UE. Doppler values are chosen so the coherence
/// times bracket the paper's τ_c = 24.9 ms vehicular measurement at
/// 3.5 GHz (\[78\] in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelProfile {
    /// No mobility: constant SNR (small lognormal shadowing only).
    Static,
    /// Walking speed (~1.4 m/s): slow fading, coherence ≈ 120 ms.
    Pedestrian,
    /// Driving speed (~70 km/h): fast fading, coherence ≈ 25 ms.
    Vehicular,
}

impl ChannelProfile {
    /// UE speed in m/s used to derive the Doppler spread.
    pub fn speed_mps(self) -> f64 {
        match self {
            ChannelProfile::Static => 0.0,
            ChannelProfile::Pedestrian => 1.4,
            ChannelProfile::Vehicular => 19.4, // 70 km/h
        }
    }

    /// Maximum Doppler shift at carrier frequency `carrier_hz`.
    pub fn doppler_hz(self, carrier_hz: f64) -> f64 {
        self.speed_mps() * carrier_hz / 299_792_458.0
    }

    /// Clarke coherence time `0.423 / f_d`; `Duration::MAX` when static.
    pub fn coherence_time(self, carrier_hz: f64) -> Duration {
        let fd = self.doppler_hz(carrier_hz);
        if fd <= 0.0 {
            Duration::MAX
        } else {
            Duration::from_secs_f64(0.423 / fd)
        }
    }
}

/// Number of sinusoid paths in the Jakes sum. 16 is plenty for a smooth
/// Rayleigh envelope.
const N_PATHS: usize = 16;

/// Fading sample grid: the Jakes sum is evaluated on this grid and held
/// constant in between. 2 ms is ≈12× oversampled relative to the fastest
/// (vehicular, τ_c ≈ 25 ms) coherence time, so queueing behaviour is
/// unaffected, while the per-slot MAC loop stops paying for a 16-path
/// trigonometric sum at every single 0.5 ms slot.
const SAMPLE_PERIOD_NANOS: u64 = 2_000_000;

/// Grid points the sample memo holds: 8 × 2 ms = a 16 ms look-back,
/// which covers the scheduler's two readers (`now` and `now − cqi_delay`,
/// 4 ms by default) with room to spare. Only a speed knob: a sample that
/// has fallen out of the ring is recomputed.
const RING_SLOTS: usize = 8;

/// Rician K-factor (LOS-to-scatter power ratio) for the mobile profiles.
/// Pure single-tap Rayleigh (K = 0) nulls 20+ dB deep, far deeper than
/// the effective post-equalisation fading of the multi-tap 3GPP channel
/// models (EPA/EVA) that UE emulators run; K = 4 keeps realistic swing
/// without second-long outages.
const RICIAN_K: f64 = 4.0;

/// Precomputed coefficients of the Jakes paths, one array per
/// coefficient: the Doppler angular rate `ω = 2π·f_d·cos(α)` and the
/// sine/cosine of the two random phases, so one `sin_cos` per path
/// replaces two phase-offset cosines on every channel sample — and the
/// sixteen of them are evaluated in one element-wise pass
/// ([`l4span_sim::fastmath::sin_cos_n`]).
#[derive(Debug, Clone, Default)]
struct PathCoefs {
    omega: [f64; N_PATHS],
    cos_i: [f64; N_PATHS],
    sin_i: [f64; N_PATHS],
    cos_q: [f64; N_PATHS],
    sin_q: [f64; N_PATHS],
}

/// A Rician-fading channel for one UE (Jakes scatter + LOS component).
#[derive(Debug, Clone)]
pub struct FadingChannel {
    profile: ChannelProfile,
    mean_snr_db: f64,
    doppler_hz: f64,
    paths: PathCoefs,
    /// Static-profile shadowing offset in dB.
    static_offset_db: f64,
    /// Memo of recent grid-point SNRs in dB: a direct-mapped ring
    /// indexed by grid-point number, each slot keyed by `grid point + 1`
    /// (0 = empty). Whatever order the `now` and `now − cqi_delay`
    /// readers arrive in, they land on different slots, so each grid
    /// point is evaluated once — and caching the finished dB value
    /// (rather than the linear gain) keeps the `log10` off the hit path
    /// too. Purely a cache: the stored value is exactly what
    /// recomputation would give, so `snr_db` stays a pure function of
    /// time.
    ring: [Cell<(u64, f64)>; RING_SLOTS],
    /// Jakes sums evaluated so far (memo misses).
    evaluations: Cell<u64>,
}

impl FadingChannel {
    /// Create a channel with the given mobility profile and mean SNR.
    /// Fading realisations are drawn from `rng`, so two UEs with derived
    /// RNG streams fade independently.
    pub fn new(
        profile: ChannelProfile,
        mean_snr_db: f64,
        carrier_hz: f64,
        rng: &mut SimRng,
    ) -> FadingChannel {
        let doppler_hz = profile.doppler_hz(carrier_hz);
        let mut paths = PathCoefs::default();
        for n in 0..N_PATHS {
            // Jakes: evenly-spaced arrival angles with random offset.
            let alpha =
                (core::f64::consts::TAU * (n as f64 + rng.f64())) / N_PATHS as f64;
            let phi_i = rng.range_f64(0.0, core::f64::consts::TAU);
            let phi_q = rng.range_f64(0.0, core::f64::consts::TAU);
            paths.omega[n] = core::f64::consts::TAU * doppler_hz * alpha.cos();
            (paths.sin_i[n], paths.cos_i[n]) = phi_i.sin_cos();
            (paths.sin_q[n], paths.cos_q[n]) = phi_q.sin_cos();
        }
        FadingChannel {
            profile,
            mean_snr_db,
            doppler_hz,
            paths,
            static_offset_db: rng.normal(0.0, 1.0),
            ring: Default::default(),
            evaluations: Cell::new(0),
        }
    }

    /// Mobility profile this channel was built with.
    pub fn profile(&self) -> ChannelProfile {
        self.profile
    }

    /// Mean SNR (dB) around which the fading swings.
    pub fn mean_snr_db(&self) -> f64 {
        self.mean_snr_db
    }

    /// Linear channel power gain `|h(t)|²`, unit mean.
    fn power_gain(&self, at: Instant) -> f64 {
        if self.doppler_hz <= 0.0 {
            return 1.0;
        }
        let t = at.as_secs_f64();
        let p = &self.paths;
        // cos(ωt + φ) expanded so the two phase-offset cosines share one
        // (fast-polynomial) sin_cos evaluation of ωt. The trigonometry is
        // element-wise, so it runs as one packed pass; the sums below
        // stay sequential, in path order, so no bit of the gain depends
        // on how that pass was compiled.
        let phase = p.omega.map(|w| w * t);
        let (mut sw, mut cw) = ([0.0; N_PATHS], [0.0; N_PATHS]);
        l4span_sim::fastmath::sin_cos_n(&phase, &mut sw, &mut cw);
        let (mut i, mut q) = (0.0f64, 0.0f64);
        for n in 0..N_PATHS {
            i += cw[n] * p.cos_i[n] - sw[n] * p.sin_i[n];
            q += cw[n] * p.cos_q[n] - sw[n] * p.sin_q[n];
        }
        // Unit-power scattered component…
        let scale = (1.0 / N_PATHS as f64).sqrt();
        let (si, sq) = (i * scale, q * scale);
        // …plus the LOS component: h = √(K/(K+1)) + √(1/(K+1))·s,
        // E[|h|²] = 1.
        let los = (RICIAN_K / (RICIAN_K + 1.0)).sqrt();
        let nlos = (1.0 / (RICIAN_K + 1.0)).sqrt();
        let hi = los + nlos * si;
        let hq = nlos * sq;
        hi * hi + hq * hq
    }

    /// The fading grid point `at` falls on: [`FadingChannel::snr_db`]
    /// gives one answer for every instant that shares it (a static
    /// channel has a single point).
    pub(crate) fn grid_point(&self, at: Instant) -> u64 {
        if self.doppler_hz <= 0.0 {
            0
        } else {
            at.as_nanos() / SAMPLE_PERIOD_NANOS
        }
    }

    /// Instantaneous SNR in dB at time `at` (fading held constant within
    /// each `SAMPLE_PERIOD_NANOS` grid interval).
    pub fn snr_db(&self, at: Instant) -> f64 {
        if self.doppler_hz <= 0.0 {
            // Static: mean SNR plus a fixed per-UE shadowing offset.
            return self.mean_snr_db + self.static_offset_db;
        }
        let point = self.grid_point(at);
        let slot = &self.ring[(point % RING_SLOTS as u64) as usize];
        let (key, db) = slot.get();
        if key == point + 1 {
            return db;
        }
        self.evaluations.set(self.evaluations.get() + 1);
        let g = self.power_gain(Instant::from_nanos(point * SAMPLE_PERIOD_NANOS));
        let db = self.mean_snr_db + 10.0 * g.max(1e-9).log10();
        slot.set((point + 1, db));
        db
    }

    /// How many times the Jakes sum has been evaluated (misses of the
    /// grid-point memo) — a deterministic proxy for the channel's work.
    /// Always 0 for a static channel.
    pub fn evaluations(&self) -> u64 {
        self.evaluations.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(1234)
    }

    #[test]
    fn static_channel_is_constant() {
        let ch = FadingChannel::new(ChannelProfile::Static, 22.0, 3.75e9, &mut rng());
        let a = ch.snr_db(Instant::from_millis(0));
        let b = ch.snr_db(Instant::from_secs(10));
        assert_eq!(a, b);
        assert!((a - 22.0).abs() < 4.0, "shadowing offset is small");
    }

    #[test]
    fn fading_has_unit_mean_power() {
        let ch = FadingChannel::new(ChannelProfile::Vehicular, 22.0, 3.75e9, &mut rng());
        let n = 20_000;
        let mut sum = 0.0;
        for k in 0..n {
            sum += ch.power_gain(Instant::from_micros(137 * k));
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean power {mean}");
    }

    #[test]
    fn vehicular_decorrelates_faster_than_pedestrian() {
        let carrier = 3.75e9;
        let veh = ChannelProfile::Vehicular.coherence_time(carrier);
        let ped = ChannelProfile::Pedestrian.coherence_time(carrier);
        assert!(veh < ped);
        // Paper's τ_c: the vehicular coherence time is in the tens of ms.
        assert!(veh >= Duration::from_millis(1) && veh <= Duration::from_millis(60));
        assert_eq!(
            ChannelProfile::Static.coherence_time(carrier),
            Duration::MAX
        );
    }

    #[test]
    fn snr_is_pure_function_of_time() {
        let ch = FadingChannel::new(ChannelProfile::Pedestrian, 20.0, 3.75e9, &mut rng());
        let t = Instant::from_millis(123);
        assert_eq!(ch.snr_db(t), ch.snr_db(t));
    }

    #[test]
    fn gnb_access_pattern_evaluates_each_grid_point_once() {
        // The slot loop reads every UE's channel twice per 0.5 ms slot:
        // at `now − cqi_delay` (link adaptation) and at `now` (the
        // block-error draw). Neither reader may evict the other's sample.
        let ch = FadingChannel::new(ChannelProfile::Vehicular, 22.0, 3.75e9, &mut rng());
        let cqi_delay = Duration::from_millis(4);
        for slot in 0..4000u64 {
            let now = Instant::from_micros(500 * slot);
            let stale = Instant::from_nanos(now.as_nanos().saturating_sub(cqi_delay.as_nanos()));
            ch.snr_db(stale);
            ch.snr_db(now);
        }
        // 2 s of slots touch the grid points 0..1000, each exactly once.
        assert_eq!(ch.evaluations(), 1000);
        let still = FadingChannel::new(ChannelProfile::Static, 22.0, 3.75e9, &mut rng());
        still.snr_db(Instant::from_millis(5));
        assert_eq!(still.evaluations(), 0);
    }

    #[test]
    fn different_rng_streams_fade_independently() {
        let mut r1 = SimRng::new(1);
        let mut r2 = SimRng::new(2);
        let c1 = FadingChannel::new(ChannelProfile::Vehicular, 20.0, 3.75e9, &mut r1);
        let c2 = FadingChannel::new(ChannelProfile::Vehicular, 20.0, 3.75e9, &mut r2);
        let t = Instant::from_millis(50);
        assert_ne!(c1.snr_db(t), c2.snr_db(t));
    }

    #[test]
    fn fading_swings_span_several_db() {
        let ch = FadingChannel::new(ChannelProfile::Vehicular, 22.0, 3.75e9, &mut rng());
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for k in 0..10_000 {
            let s = ch.snr_db(Instant::from_micros(500 * k));
            lo = lo.min(s);
            hi = hi.max(s);
        }
        assert!(hi - lo > 10.0, "Rayleigh fading should swing >10 dB");
    }
}
