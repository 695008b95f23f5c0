//! Fast trigonometry for the simulator's channel models.
//!
//! The Jakes fader evaluates tens of thousands of sinusoids per simulated
//! second; libm's `sin`/`cos` (correctly rounded over the full range) are
//! the single largest line item in that budget. A channel *model* needs
//! nowhere near correct rounding — [`sin_cos`] here is a Cody–Waite
//! range reduction plus degree-9/8 Taylor polynomials, giving ≈1e-9
//! absolute error (≈1e-8 dB after the SNR log) at a fraction of the
//! cost. It is a pure function, so determinism is unaffected.

/// High part of π/2 for two-step Cody–Waite reduction (the nearest f64,
/// i.e. the standard constant itself).
const PI_2_HI: f64 = core::f64::consts::FRAC_PI_2;
/// Low (residual) part of π/2: `π/2 − PI_2_HI` to extended precision.
const PI_2_LO: f64 = 6.123_233_995_736_766e-17;

/// `(sin r, cos r)` for the reduced argument r ∈ [-π/4, π/4].
#[inline(always)]
fn sin_cos_reduced(r: f64) -> (f64, f64) {
    let r2 = r * r;
    // sin(r), Taylor to r^11.
    let s = r
        * (1.0
            + r2 * (-1.0 / 6.0
                + r2 * (1.0 / 120.0
                    + r2 * (-1.0 / 5040.0 + r2 * (1.0 / 362_880.0 + r2 * (-1.0 / 39_916_800.0))))));
    // cos(r), Taylor to r^12.
    let c = 1.0
        + r2 * (-0.5
            + r2 * (1.0 / 24.0
                + r2 * (-1.0 / 720.0
                    + r2 * (1.0 / 40_320.0
                        + r2 * (-1.0 / 3_628_800.0 + r2 * (1.0 / 479_001_600.0))))));
    (s, c)
}

/// Sine and cosine of `x` (radians), accurate to ≈1e-9 absolute error
/// for |x| up to ~1e8 radians — far beyond any simulated Doppler phase.
/// Returns `(sin x, cos x)`.
#[inline]
pub fn sin_cos(x: f64) -> (f64, f64) {
    // Reduce x to r ∈ [-π/4, π/4] with x = k·(π/2) + r.
    let kf = (x * core::f64::consts::FRAC_2_PI).round();
    let r = (x - kf * PI_2_HI) - kf * PI_2_LO;
    let k = (kf as i64) & 3;
    let (s, c) = sin_cos_reduced(r);

    match k {
        0 => (s, c),
        1 => (c, -s),
        2 => (-s, -c),
        _ => (-c, s),
    }
}

/// `1.5 · 2^52`: adding it to a double below 2^51 in magnitude leaves
/// the nearest integer (ties to even) in the low mantissa bits, and
/// subtracting it again recovers that integer as a double.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// [`sin_cos`] of `N` phases at once: `sin[j]`, `cos[j]` are bit for
/// bit what `sin_cos(x[j])` returns. Same reduction and polynomials,
/// but written without a call or a branch — `round()` (a libm call on
/// the baseline x86-64 target) becomes the `ROUND_MAGIC`
/// add/subtract with an exact fix-up of its ties-to-even, and the
/// quadrant `match` becomes mask selects and sign-bit XORs — so the
/// element-wise loop compiles to packed arithmetic. Callers keep their
/// own accumulation order; nothing here reassociates.
#[inline]
pub fn sin_cos_n<const N: usize>(x: &[f64; N], sin: &mut [f64; N], cos: &mut [f64; N]) {
    for j in 0..N {
        let x = x[j];
        let t = x * core::f64::consts::FRAC_2_PI;
        // Nearest integer, ties to even; `t − even` is exact.
        let even = (t + ROUND_MAGIC) - ROUND_MAGIC;
        let d = t - even;
        // `round()` sends ties away from zero: the two disagree exactly
        // when the tie was resolved towards zero.
        let up = if (d == 0.5) & (t > 0.0) { 1.0 } else { 0.0 };
        let down = if (d == -0.5) & (t < 0.0) { 1.0 } else { 0.0 };
        // `round()` also keeps the sign of a result that is zero.
        let kf = ((even + up) - down).copysign(t);
        let r = (x - kf * PI_2_HI) - kf * PI_2_LO;
        // Two's-complement low bits of the integer `kf`.
        let k = (kf + ROUND_MAGIC).to_bits();
        let (s, c) = sin_cos_reduced(r);

        // Quadrants 1 and 3 swap sine and cosine; sine is negated in
        // quadrants 2 and 3, cosine in 1 and 2.
        let swap = 0u64.wrapping_sub(k & 1);
        let (sb, cb) = (s.to_bits(), c.to_bits());
        let sin_bits = (sb & !swap) | (cb & swap);
        let cos_bits = (cb & !swap) | (sb & swap);
        sin[j] = f64::from_bits(sin_bits ^ ((k & 2) << 62));
        cos[j] = f64::from_bits(cos_bits ^ ((k.wrapping_add(1) & 2) << 62));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_libm_over_small_range() {
        for i in -10_000..10_000 {
            let x = i as f64 * 0.001_3;
            let (s, c) = sin_cos(x);
            assert!((s - x.sin()).abs() < 1e-9, "sin({x}): {s} vs {}", x.sin());
            assert!((c - x.cos()).abs() < 1e-9, "cos({x}): {c} vs {}", x.cos());
        }
    }

    #[test]
    fn matches_libm_at_large_phase() {
        // Doppler phases after minutes of simulated time.
        for i in 0..5_000 {
            let x = 1.0e5 + i as f64 * 7.77;
            let (s, c) = sin_cos(x);
            assert!((s - x.sin()).abs() < 1e-8, "sin({x})");
            assert!((c - x.cos()).abs() < 1e-8, "cos({x})");
        }
    }

    /// Assert `sin_cos_n` reproduces `sin_cos` bit for bit on `xs`.
    fn assert_array_form_matches(xs: &[f64; 16]) {
        let (mut sn, mut cs) = ([0.0; 16], [0.0; 16]);
        sin_cos_n(xs, &mut sn, &mut cs);
        for (j, &x) in xs.iter().enumerate() {
            let (s, c) = sin_cos(x);
            assert_eq!(
                (sn[j].to_bits(), cs[j].to_bits()),
                (s.to_bits(), c.to_bits()),
                "x = {x:e} ({:#x}): array ({}, {}) vs scalar ({s}, {c})",
                x.to_bits(),
                sn[j],
                cs[j],
            );
        }
    }

    #[test]
    fn array_form_bit_equals_scalar_on_random_phases() {
        let mut rng = crate::SimRng::new(0xFA57);
        for round in 0..20_000 {
            // Magnitudes from 1e-3 to 1e8 rad, both signs.
            let scale = 10f64.powi((round % 12) - 3);
            let xs: [f64; 16] = core::array::from_fn(|_| rng.range_f64(-scale, scale));
            assert_array_form_matches(&xs);
        }
    }

    #[test]
    fn array_form_bit_equals_scalar_on_ties_and_zeros() {
        // Every half-integer t in ±1000 that some x reaches exactly
        // (`x · 2/π == t`): `round()` sends those away from zero, the
        // magic-number rounding to even.
        let mut ties = Vec::new();
        for k in -1000..1000 {
            let t = f64::from(k) + 0.5;
            let near = t / core::f64::consts::FRAC_2_PI;
            let hit = (-4i64..=4)
                .map(|ulps| f64::from_bits((near.to_bits() as i64 + ulps) as u64))
                .find(|x| x * core::f64::consts::FRAC_2_PI == t);
            ties.extend(hit);
        }
        assert!(ties.len() > 1000, "only {} exact ties found", ties.len());
        ties.extend([0.0, -0.0, 1e-300, -1e-300]);
        while ties.len() % 16 != 0 {
            ties.push(0.0);
        }
        for chunk in ties.chunks_exact(16) {
            assert_array_form_matches(chunk.try_into().expect("chunk of 16"));
        }
    }

    #[test]
    fn pythagorean_identity_holds() {
        for i in 0..1_000 {
            let (s, c) = sin_cos(i as f64 * 1.234_5);
            assert!((s * s + c * c - 1.0).abs() < 1e-9);
        }
    }
}
