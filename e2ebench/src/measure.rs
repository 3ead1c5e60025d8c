//! Host-side measurement helpers: order statistics, the host calibration
//! loop, and process resource readings from `/proc`.

use std::hint::black_box;
use std::time::Instant;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [u32; 5] = [99, 95, 90, 75, 50];

/// The tail of a latency sample: the highest ladder percentile, at most
/// `cap`, that leaves at least ten samples beyond it. Capping keeps the
/// reported percentile fixed while the sample count varies between runs
/// of one workload. Returns `(value, percentile, samples)`.
pub fn tail(xs: &[f64], cap: u32) -> (f64, u32, usize) {
    let n = xs.len();
    let p = TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| n * (100 - p as usize) >= 1000)
        .unwrap_or(50);
    (quantile(xs, f64::from(p) / 100.0), p, n)
}

/// Time a fixed pure-CPU loop (integer hashing, no memory traffic) and
/// return the median of three timings in seconds. The loop never
/// changes, so a slower reading means a slower or busier host.
pub fn calibrate() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            for i in 0..40_000_000u64 {
                x ^= black_box(i);
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
            }
            black_box(x);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds consumed by every thread of this
/// process so far (`/proc/self/stat`, in USER_HZ = 100 ticks).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// FNV-1a 64-bit digest of `bytes`, the pinning hash for outputs.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// [`digest`] of a value's compact JSON serialization.
pub fn digest_json<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    digest(
        serde_json::to_string(value)
            .expect("experiment results serialize")
            .as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let (_, p, n) = tail(&xs, 99);
        assert_eq!((p, n), (90, 100));
        let (_, p, _) = tail(&xs, 75);
        assert_eq!(p, 75);
        let (_, p, _) = tail(&xs[..30], 99);
        assert_eq!(p, 50);
    }
}
