//! Deterministic correlated noise with random access.
//!
//! The channel models need temporally correlated fluctuations that can be
//! sampled at *arbitrary* instants: a two-week experiment samples once a
//! second, a MAC-level run samples every frame. A stateful AR(1) process
//! cannot be sampled out of order, so this module provides **value noise**:
//! hash values on a fixed time lattice, smoothly interpolated. The result
//! is a pure function of `(seed, t)` with correlation length of one lattice
//! step and approximately normal marginals when octaves are summed.

/// 64-bit mix (SplitMix64 finalizer).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in [-1, 1) from (seed, lattice index).
fn lattice_value(seed: u64, k: i64) -> f64 {
    let h = mix(seed ^ (k as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

/// Smoothstep interpolation weight.
fn smooth(x: f64) -> f64 {
    x * x * (3.0 - 2.0 * x)
}

/// Smoothly interpolated hash noise on a 1-D lattice.
///
/// `eval(x)` is deterministic, continuous, has zero mean, and decorrelates
/// over roughly one lattice unit. Scale `x` by your desired correlation
/// time before calling.
#[derive(Debug, Clone, Copy)]
pub struct ValueNoise {
    seed: u64,
}

impl ValueNoise {
    /// Create a noise function with the given seed.
    pub fn new(seed: u64) -> Self {
        ValueNoise { seed }
    }

    /// Evaluate at lattice coordinate `x` (one unit = one correlation
    /// length). Output is in `(-1, 1)`.
    pub fn eval(&self, x: f64) -> f64 {
        let k = x.floor() as i64;
        let frac = x - x.floor();
        let a = lattice_value(self.seed, k);
        let b = lattice_value(self.seed, k + 1);
        a + (b - a) * smooth(frac)
    }

    /// Sum of `octaves` noise layers with halving correlation times and
    /// amplitudes, normalized to unit peak amplitude. Richer spectrum than
    /// a single layer; still deterministic and random-access.
    pub fn fbm(&self, x: f64, octaves: u32) -> f64 {
        let mut sum = 0.0;
        let mut amp = 1.0;
        let mut freq = 1.0;
        let mut norm = 0.0;
        for o in 0..octaves.max(1) {
            let layer = ValueNoise {
                seed: mix(self.seed ^ o as u64),
            };
            sum += amp * layer.eval(x * freq);
            norm += amp;
            amp *= 0.5;
            freq *= 2.0;
        }
        sum / norm
    }
}

/// Deterministic sparse impulsive events: does an impulse overlap instant
/// `t_s`, given an average `rate_hz` and impulse duration `dur_s`?
///
/// Time is cut into windows of `dur_s`; each window independently contains
/// an impulse with probability `rate_hz * dur_s` (clamped), decided by a
/// hash of the window index. This reproduces the bursty, appliance-driven
/// impulsive noise of the PLC literature while staying a pure function.
pub fn impulse_at(seed: u64, t_s: f64, rate_hz: f64, dur_s: f64) -> bool {
    if rate_hz <= 0.0 || dur_s <= 0.0 || t_s < 0.0 {
        return false;
    }
    let window = (t_s / dur_s) as i64;
    let p = (rate_hz * dur_s).clamp(0.0, 1.0);
    let u = (lattice_value(seed ^ 0xABCD_EF01, window) + 1.0) / 2.0;
    u < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let n = ValueNoise::new(7);
        for i in 0..1000 {
            let x = i as f64 * 0.137;
            let v = n.eval(x);
            assert_eq!(v, n.eval(x));
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn noise_is_continuous() {
        let n = ValueNoise::new(3);
        for i in 0..2000 {
            let x = i as f64 * 0.01;
            let dv = (n.eval(x + 1e-6) - n.eval(x)).abs();
            assert!(dv < 1e-4, "jump at x={x}");
        }
    }

    #[test]
    fn noise_decorrelates_over_lattice() {
        let n = ValueNoise::new(11);
        // Correlation at lag 0.1 should be much higher than at lag 10.
        let xs: Vec<f64> = (0..2000).map(|i| i as f64 * 0.5).collect();
        let corr = |lag: f64| {
            let pairs: Vec<(f64, f64)> = xs.iter().map(|&x| (n.eval(x), n.eval(x + lag))).collect();
            simnet_pearson(&pairs)
        };
        assert!(corr(0.05) > 0.9);
        assert!(corr(17.3).abs() < 0.15);
    }

    fn simnet_pearson(points: &[(f64, f64)]) -> f64 {
        crate::stats::pearson(points).unwrap()
    }

    #[test]
    fn noise_has_near_zero_mean() {
        let n = ValueNoise::new(5);
        let mean: f64 = (0..10_000).map(|i| n.eval(i as f64 * 0.77)).sum::<f64>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = ValueNoise::new(1);
        let b = ValueNoise::new(2);
        let same = (0..100)
            .filter(|&i| a.eval(i as f64) == b.eval(i as f64))
            .count();
        assert!(same < 5);
    }

    #[test]
    fn fbm_stays_bounded_and_deterministic() {
        let n = ValueNoise::new(9);
        for i in 0..500 {
            let x = i as f64 * 0.31;
            let v = n.fbm(x, 3);
            assert!((-1.0..=1.0).contains(&v));
            assert_eq!(v, n.fbm(x, 3));
        }
    }

    #[test]
    fn impulse_rate_is_approximately_respected() {
        let hits = (0..100_000)
            .filter(|&i| impulse_at(42, i as f64 * 0.01, 0.5, 0.01))
            .count();
        // 1000 s of simulated time at 0.5 impulses/s of 10 ms each:
        // expected fraction of 10 ms samples inside an impulse = 0.5 * 0.01.
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.005).abs() < 0.002, "frac={frac}");
    }

    #[test]
    fn impulse_handles_degenerate_inputs() {
        assert!(!impulse_at(1, 10.0, 0.0, 0.01));
        assert!(!impulse_at(1, 10.0, 1.0, 0.0));
        assert!(!impulse_at(1, -5.0, 1.0, 0.01));
    }
}
