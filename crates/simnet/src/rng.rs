//! Reproducible randomness.
//!
//! Every stochastic component of the simulator (each link's noise process,
//! each appliance schedule, each MAC backoff...) draws from its **own named
//! stream**, derived from a master seed and a label. This gives two
//! essential properties:
//!
//! 1. **Reproducibility** — the same master seed replays the same run.
//! 2. **Insensitivity** — adding a new consumer does not perturb the draws
//!    of existing consumers, so experiments stay comparable as the model
//!    grows.
//!
//! Only `rand`'s core traits are used; the distributions the channel models
//! need (normal, exponential, Bernoulli) are implemented
//! here from uniform draws, so no extra dependency is required.
//!
//! [`Distributions::std_normal`] consumes exactly two words per value. A
//! caller that defers a run of normal draws (the channel estimator) can
//! therefore move the generator past them with [`advance`], a fixed-cost
//! jump of the xoshiro256++ state, and replay them later from the state
//! it captured.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, RngExt, SeedableRng};
use std::cell::Cell;
use std::sync::Mutex;

/// FNV-1a 64-bit hash, used to derive per-label stream seeds.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates seed material.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A factory of independently-seeded random streams.
#[derive(Debug, Clone)]
pub struct RngPool {
    master: u64,
}

impl RngPool {
    /// Create a pool from a master seed.
    pub fn new(master_seed: u64) -> Self {
        RngPool {
            master: master_seed,
        }
    }

    /// Derive a stream for a string label (e.g. `"link:3-8:noise"`).
    pub fn stream(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(splitmix(self.master ^ fnv1a(label.as_bytes())))
    }
}

/// The smallest nonzero value of [`Distributions::uniform`]: 2⁻⁵³.
const SMALLEST_UNIFORM: f64 = 1.0 / (1u64 << 53) as f64;

/// Distribution sampling helpers over any [`Rng`].
///
/// All methods take `&mut R` so they compose with both owned streams and
/// borrowed ones.
pub struct Distributions;

impl Distributions {
    /// Uniform in `[0, 1)`, never exactly 1.
    pub fn uniform<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        rng.random::<f64>()
    }

    /// Standard normal via Box–Muller. One value per call (the pair's
    /// second member is discarded for statelessness).
    ///
    /// Consumes exactly two words: `u1` and `u2`. The one `u1` whose log
    /// is undefined, 0, is read as 2⁻⁵³, the smallest nonzero uniform;
    /// every other value is used as drawn.
    pub fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let u1 = Self::uniform(rng).max(SMALLEST_UNIFORM);
        let u2 = Self::uniform(rng);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
        mean + std * Self::std_normal(rng)
    }

    /// Exponential with rate `lambda` (mean `1/lambda`).
    pub fn exponential<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0);
        let u = loop {
            let u = Self::uniform(rng);
            if u > 1e-300 {
                break u;
            }
        };
        -u.ln() / lambda
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
        Self::uniform(rng) < p.clamp(0.0, 1.0)
    }
}

/// Bits of xoshiro256++ state.
const STATE_BITS: usize = 256;

/// The xoshiro256++ state transition raised to a fixed power: a 256×256
/// matrix over GF(2), stored by columns. Column `i` is where the state
/// with only bit `i % 64` of word `i / 64` set lands. The transition uses
/// only xors, shifts and rotations, so it is linear: any state moves by
/// xoring the columns of its set bits (Blackman & Vigna, "Scrambled
/// linear pseudorandom number generators", 2021).
#[derive(Debug)]
pub struct Jump {
    words: u64,
    cols: [[u64; 4]; STATE_BITS],
}

impl Jump {
    /// Number of outputs the jump moves past.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// The state `words` outputs after `state`.
    fn apply(&self, state: [u64; 4]) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (cols, &word) in self.cols.chunks_exact(64).zip(&state) {
            let mut bits = word;
            while bits != 0 {
                let col = &cols[bits.trailing_zeros() as usize];
                for (o, c) in out.iter_mut().zip(col) {
                    *o ^= c;
                }
                bits &= bits - 1;
            }
        }
        out
    }

    /// The jump by `words` outputs, by square-and-multiply over the
    /// one-output transition.
    fn build(words: u64) -> Box<Jump> {
        let mut acc = Box::new(Jump {
            words: 0,
            cols: std::array::from_fn(unit_state),
        });
        let mut pow = Box::new(Jump {
            words: 1,
            cols: std::array::from_fn(|i| {
                let mut rng = StdRng::from_state(unit_state(i));
                rng.next_u64();
                rng.state()
            }),
        });
        let mut rest = words;
        loop {
            if rest & 1 == 1 {
                acc = pow.after(&acc);
            }
            rest >>= 1;
            if rest == 0 {
                return acc;
            }
            pow = pow.after(&pow);
        }
    }

    /// `self` applied after `first`: the jump by both counts.
    fn after(&self, first: &Jump) -> Box<Jump> {
        Box::new(Jump {
            words: first.words + self.words,
            cols: std::array::from_fn(|i| self.apply(first.cols[i])),
        })
    }
}

/// The state with only bit `i % 64` of word `i / 64` set.
fn unit_state(i: usize) -> [u64; 4] {
    let mut s = [0; 4];
    s[i / 64] = 1 << (i % 64);
    s
}

/// Every jump built so far, one per word count, kept for the life of
/// the process (8 KiB each). Global rather than per thread: parallel
/// sweeps run on fresh scoped threads, which would rebuild them all.
static JUMPS: Mutex<Vec<&'static Jump>> = Mutex::new(Vec::new());

/// Jumps a thread keeps at hand without taking the [`JUMPS`] lock.
const RECENT_JUMPS: usize = 8;

thread_local! {
    /// This thread's most recently fetched jumps, newest first.
    static RECENT: Cell<[Option<&'static Jump>; RECENT_JUMPS]> =
        const { Cell::new([None; RECENT_JUMPS]) };
}

/// The jump by `words` outputs. The first call for a word count builds
/// it (about a millisecond); every later call, on any thread, returns
/// the same table without allocating.
pub fn jump(words: u64) -> &'static Jump {
    RECENT.with(|recent| {
        let mut cached = recent.get();
        if let Some(j) = cached.iter().flatten().find(|j| j.words == words) {
            return *j;
        }
        let j = shared_jump(words);
        cached.rotate_right(1);
        cached[0] = Some(j);
        recent.set(cached);
        j
    })
}

fn shared_jump(words: u64) -> &'static Jump {
    // Each update is one push of a finished table, so a holder that
    // panicked mid-build left the list valid.
    let mut built = JUMPS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(j) = built.iter().find(|j| j.words == words) {
        return j;
    }
    let j: &'static Jump = Box::leak(Jump::build(words));
    built.push(j);
    j
}

/// Move `rng` forward by `words` outputs, to where `words` calls of
/// `next_u64` would leave it. Past the first call for a word count,
/// which builds its [`jump`], the cost does not grow with `words`.
pub fn advance(rng: &mut StdRng, words: u64) {
    if words > 0 {
        *rng = StdRng::from_state(jump(words).apply(rng.state()));
    }
}

/// A first-order Gauss–Markov (AR(1)) process: the workhorse for temporally
/// correlated channel fluctuations.
///
/// `x[k+1] = mean + rho * (x[k] - mean) + sqrt(1 - rho^2) * sigma * N(0,1)`
///
/// With `rho` derived from a correlation time, the process has stationary
/// standard deviation `sigma` regardless of the step size.
#[derive(Debug, Clone)]
pub struct GaussMarkov {
    mean: f64,
    sigma: f64,
    corr_time_s: f64,
    state: f64,
}

impl GaussMarkov {
    /// Create a process with stationary `mean`, standard deviation `sigma`
    /// and correlation time `corr_time_s` seconds, started at the mean.
    pub fn new(mean: f64, sigma: f64, corr_time_s: f64) -> Self {
        debug_assert!(sigma >= 0.0 && corr_time_s > 0.0);
        GaussMarkov {
            mean,
            sigma,
            corr_time_s,
            state: mean,
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.state
    }

    /// Stationary mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Advance the process by `dt_s` seconds and return the new value.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R, dt_s: f64) -> f64 {
        debug_assert!(dt_s >= 0.0);
        let rho = (-dt_s / self.corr_time_s).exp();
        let innovation = (1.0 - rho * rho).max(0.0).sqrt() * self.sigma;
        self.state = self.mean
            + rho * (self.state - self.mean)
            + innovation * Distributions::std_normal(rng);
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let pool = RngPool::new(42);
        let a: Vec<f64> = {
            let mut r = pool.stream("x");
            (0..8).map(|_| Distributions::uniform(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = pool.stream("x");
            (0..8).map(|_| Distributions::uniform(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ_by_label_and_seed() {
        let pool = RngPool::new(42);
        let mut rx = pool.stream("x");
        let mut ry = pool.stream("y");
        let x: f64 = Distributions::uniform(&mut rx);
        let y: f64 = Distributions::uniform(&mut ry);
        assert_ne!(x, y);
        let other = RngPool::new(43);
        let mut rz = other.stream("x");
        assert_ne!(x, Distributions::uniform(&mut rz));
    }

    #[test]
    fn normal_moments() {
        let pool = RngPool::new(1);
        let mut r = pool.stream("normal");
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| Distributions::normal(&mut r, 3.0, 2.0))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean={mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std={}", var.sqrt());
    }

    #[test]
    fn std_normal_consumes_exactly_two_words() {
        for seed in 0..64 {
            let mut drawn = StdRng::seed_from_u64(seed);
            let mut stepped = drawn.clone();
            for _ in 0..100 {
                Distributions::std_normal(&mut drawn);
                stepped.next_u64();
                stepped.next_u64();
                assert_eq!(drawn, stepped);
            }
        }
    }

    #[test]
    fn std_normal_reads_a_zero_word_as_the_smallest_uniform() {
        struct Words(std::vec::IntoIter<u64>);
        impl RngCore for Words {
            fn next_u64(&mut self) -> u64 {
                self.0.next().expect("enough words")
            }
        }
        let mut words = Words(vec![0, 7 << 11, 99].into_iter());
        let x = Distributions::std_normal(&mut words);
        assert!(x.is_finite(), "x={x}");
        assert_eq!(words.0.as_slice(), [99]);
        // The same value as a draw whose first word is the smallest
        // nonzero uniform.
        let mut smallest = Words(vec![1 << 11, 7 << 11].into_iter());
        assert_eq!(
            x.to_bits(),
            Distributions::std_normal(&mut smallest).to_bits()
        );
    }

    /// `rng` after `words` single steps.
    fn stepped(rng: &StdRng, words: u64) -> StdRng {
        let mut rng = rng.clone();
        for _ in 0..words {
            rng.next_u64();
        }
        rng
    }

    #[test]
    fn advance_matches_stepping_for_every_estimator_skip() {
        // 2 words per carrier per updated slot, 1 to 6 slots, HPAV and
        // AV500 carrier counts.
        for n in [917, 2153] {
            for k in 1..=6 {
                let words = 2 * k * n;
                for seed in [0, 2015] {
                    let start = StdRng::seed_from_u64(seed);
                    let mut jumped = start.clone();
                    advance(&mut jumped, words);
                    assert_eq!(jumped, stepped(&start, words), "words={words}");
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn advance_matches_stepping(
            state in (
                proptest::any::<u64>(),
                proptest::any::<u64>(),
                proptest::any::<u64>(),
                proptest::any::<u64>(),
            ),
            words in 0u64..=20_000,
        ) {
            let state = [state.0, state.1, state.2, state.3];
            proptest::prop_assume!(state != [0; 4]);
            let start = StdRng::from_state(state);
            let mut jumped = start.clone();
            advance(&mut jumped, words);
            proptest::prop_assert_eq!(jumped, stepped(&start, words));
        }
    }

    #[test]
    fn exponential_mean() {
        let pool = RngPool::new(2);
        let mut r = pool.stream("exp");
        let n = 20_000;
        let mean = (0..n)
            .map(|_| Distributions::exponential(&mut r, 0.5))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn gauss_markov_is_stationary() {
        let pool = RngPool::new(6);
        let mut r = pool.stream("gm");
        let mut gm = GaussMarkov::new(10.0, 1.5, 5.0);
        // Burn in, then measure moments.
        for _ in 0..1_000 {
            gm.step(&mut r, 1.0);
        }
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| gm.step(&mut r, 1.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((mean - 10.0).abs() < 0.15, "mean={mean}");
        assert!((std - 1.5).abs() < 0.15, "std={std}");
    }

    #[test]
    fn gauss_markov_correlation_decays() {
        let pool = RngPool::new(7);
        let mut r = pool.stream("gm2");
        let mut gm = GaussMarkov::new(0.0, 1.0, 10.0);
        for _ in 0..100 {
            gm.step(&mut r, 1.0);
        }
        // Small steps stay close to the previous value; huge steps decorrelate.
        let v0 = gm.value();
        let v1 = gm.step(&mut r, 0.01);
        assert!((v1 - v0).abs() < 0.5, "small step moved too far");
        let before = gm.value();
        let after = gm.step(&mut r, 10_000.0);
        // After many correlation times the state is a fresh N(0,1) draw;
        // just sanity-check it's finite and unequal.
        assert!(after.is_finite() && after != before);
    }
}
