//! Probing policies and the accuracy/overhead tradeoff.
//!
//! Probing every link of an n-station network costs O(n²) (paper §4.3);
//! the paper's remedy is to adapt the probing interval to link quality
//! (§7.3): **bad** links (BLE < 60 Mb/s) keep the 5-second baseline,
//! **average** links are probed 8× slower, **good** links (BLE >
//! 100 Mb/s) 16× slower — justified by the §6.2 finding that link quality
//! and link-metric variability are negatively correlated.
//!
//! [`evaluate_policy`] reproduces the paper's evaluation (Fig. 19): replay
//! a 50 ms-resolution BLE trace, take the probe value as the estimate for
//! the whole interval, and score the absolute error against the interval's
//! true mean: `|BLE_t − Σ_{l=t}^{t+i-1} BLE_l / i|`.

use serde::{Deserialize, Serialize};
use simnet::time::Duration;
use simnet::trace::Series;

/// Wire size of one probe packet (the paper probes with 1500-byte UDP
/// packets at 150 kb/s, §6.1) — used to convert probe counts into
/// overhead bytes in the metrics registry.
pub const PROBE_BYTES: u64 = 1500;

/// A link-probing policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProbingPolicy {
    /// Probe every link at the same fixed interval.
    Fixed(Duration),
    /// The paper's method: adapt the interval to link quality.
    QualityAdaptive {
        /// Interval for bad links (the baseline; the paper uses 5 s).
        base: Duration,
        /// Slow-down multiplier for average links (paper: 8).
        average_mult: u32,
        /// Slow-down multiplier for good links (paper: 16).
        good_mult: u32,
        /// Links with average BLE below this are bad (paper: 60 Mb/s).
        bad_below_mbps: f64,
        /// Links with average BLE above this are good (paper: 100 Mb/s).
        good_above_mbps: f64,
    },
}

impl ProbingPolicy {
    /// The paper's §7.3 configuration.
    pub fn paper_adaptive() -> Self {
        ProbingPolicy::QualityAdaptive {
            base: Duration::from_secs(5),
            average_mult: 8,
            good_mult: 16,
            bad_below_mbps: 60.0,
            good_above_mbps: 100.0,
        }
    }

    /// Probing interval for a link whose long-run average BLE is
    /// `avg_ble_mbps`.
    pub fn interval_for(&self, avg_ble_mbps: f64) -> Duration {
        match *self {
            ProbingPolicy::Fixed(d) => d,
            ProbingPolicy::QualityAdaptive {
                base,
                average_mult,
                good_mult,
                bad_below_mbps,
                good_above_mbps,
            } => {
                if avg_ble_mbps < bad_below_mbps {
                    base
                } else if avg_ble_mbps > good_above_mbps {
                    base * good_mult as u64
                } else {
                    base * average_mult as u64
                }
            }
        }
    }
}

/// Result of evaluating a policy over a set of link traces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyEvaluation {
    /// Absolute estimation errors (Mb/s), one per estimation instant per
    /// link — the sample behind the Fig. 19 CDF.
    pub errors_mbps: Vec<f64>,
    /// Total probes sent across all links.
    pub probes: u64,
    /// Total trace duration × links (probe-opportunity normalization).
    pub total_link_seconds: f64,
}

impl PolicyEvaluation {
    /// Overhead reduction versus another evaluation (e.g. the 5 s
    /// baseline): `1 − probes/base.probes`.
    pub fn overhead_reduction_vs(&self, base: &PolicyEvaluation) -> f64 {
        if base.probes == 0 {
            return 0.0;
        }
        1.0 - self.probes as f64 / base.probes as f64
    }
}

/// Replay `traces` (one BLE series per link, ideally sampled every 50 ms
/// as in §6.2) under `policy`: at each probe instant the estimate is the
/// probed BLE, the truth is the mean BLE until the next probe, and the
/// error is their absolute difference.
pub fn evaluate_policy(policy: ProbingPolicy, traces: &[Series]) -> PolicyEvaluation {
    let _span = simnet::obs::span::enter("hybrid.probe_eval");
    let mut errors = Vec::new();
    let mut probes = 0u64;
    let mut total_link_seconds = 0.0;
    for series in traces {
        let pts = series.points();
        if pts.len() < 2 {
            continue;
        }
        let avg = series.stats().mean();
        let interval = policy.interval_for(avg);
        let span = pts.last().expect("len>=2").0 - pts[0].0;
        total_link_seconds += span.as_secs_f64();
        let mut idx = 0usize;
        while idx < pts.len() {
            let (t0, probe_value) = pts[idx];
            probes += 1;
            let window_end = t0 + interval;
            let mut sum = 0.0;
            let mut n = 0usize;
            let mut j = idx;
            while j < pts.len() && pts[j].0 < window_end {
                sum += pts[j].1;
                n += 1;
                j += 1;
            }
            if n > 0 {
                errors.push((probe_value - sum / n as f64).abs());
            }
            if j == idx {
                break;
            }
            idx = j;
        }
    }
    // Account the probing cost in the ambient metrics registry (inert
    // bookkeeping; the evaluation itself is untouched).
    let obs = simnet::obs::current();
    let reg = obs.registry();
    reg.counter("hybrid.probe.count").add(probes);
    reg.counter("hybrid.probe.overhead_bytes")
        .add(probes * PROBE_BYTES);
    PolicyEvaluation {
        errors_mbps: errors,
        probes,
        total_link_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::Time;

    #[test]
    fn paper_policy_intervals() {
        let p = ProbingPolicy::paper_adaptive();
        assert_eq!(p.interval_for(30.0), Duration::from_secs(5));
        assert_eq!(p.interval_for(80.0), Duration::from_secs(40));
        assert_eq!(p.interval_for(120.0), Duration::from_secs(80));
    }

    #[test]
    fn classification_thresholds() {
        // Bad below 60 Mb/s, good above 100 Mb/s; both class boundaries
        // belong to the average class.
        let p = ProbingPolicy::paper_adaptive();
        assert_eq!(p.interval_for(30.0), Duration::from_secs(5));
        assert_eq!(p.interval_for(60.0), Duration::from_secs(40));
        assert_eq!(p.interval_for(80.0), Duration::from_secs(40));
        assert_eq!(p.interval_for(100.0), Duration::from_secs(40));
        assert_eq!(p.interval_for(100.1), Duration::from_secs(80));
    }

    #[test]
    fn fixed_policy_ignores_quality() {
        let p = ProbingPolicy::Fixed(Duration::from_secs(7));
        for ble in [10.0, 80.0, 140.0] {
            assert_eq!(p.interval_for(ble), Duration::from_secs(7));
        }
    }

    fn flat_series(value: f64, seconds: u64) -> Series {
        let mut s = Series::new("flat");
        for i in 0..(seconds * 20) {
            s.push(Time::from_millis(i * 50), value);
        }
        s
    }

    fn ramp_series(start: f64, slope_per_s: f64, seconds: u64) -> Series {
        let mut s = Series::new("ramp");
        for i in 0..(seconds * 20) {
            let t = i as f64 * 0.05;
            s.push(Time::from_millis(i * 50), start + slope_per_s * t);
        }
        s
    }

    #[test]
    fn flat_trace_has_zero_error() {
        let eval = evaluate_policy(
            ProbingPolicy::Fixed(Duration::from_secs(5)),
            &[flat_series(100.0, 60)],
        );
        assert!(eval.errors_mbps.iter().all(|e| *e < 1e-9));
        assert!(eval.probes >= 12);
    }

    #[test]
    fn longer_intervals_give_larger_errors_on_varying_trace() {
        let trace = vec![ramp_series(50.0, 1.0, 160)];
        let short = evaluate_policy(ProbingPolicy::Fixed(Duration::from_secs(5)), &trace);
        let long = evaluate_policy(ProbingPolicy::Fixed(Duration::from_secs(80)), &trace);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&long.errors_mbps) > mean(&short.errors_mbps),
            "long={} short={}",
            mean(&long.errors_mbps),
            mean(&short.errors_mbps)
        );
        assert!(long.probes < short.probes);
    }

    #[test]
    fn adaptive_policy_cuts_overhead_on_good_links() {
        // Two good links, one bad link: the adaptive policy probes the
        // good ones 16x slower.
        let traces = vec![
            flat_series(120.0, 160),
            flat_series(130.0, 160),
            flat_series(30.0, 160),
        ];
        let base = evaluate_policy(ProbingPolicy::Fixed(Duration::from_secs(5)), &traces);
        let ours = evaluate_policy(ProbingPolicy::paper_adaptive(), &traces);
        let reduction = ours.overhead_reduction_vs(&base);
        assert!(
            reduction > 0.5,
            "reduction={reduction} (2 of 3 links slowed 16x)"
        );
    }

    #[test]
    fn probe_rate_normalizes_by_span() {
        let eval = evaluate_policy(
            ProbingPolicy::Fixed(Duration::from_secs(5)),
            &[flat_series(100.0, 100)],
        );
        // ~1 probe per 5 link-seconds.
        let rate = eval.probes as f64 / eval.total_link_seconds;
        assert!((rate - 0.2).abs() < 0.05, "{rate}");
    }

    #[test]
    fn empty_traces_are_ignored() {
        let eval = evaluate_policy(ProbingPolicy::paper_adaptive(), &[Series::new("empty")]);
        assert_eq!(eval.probes, 0);
        assert!(eval.errors_mbps.is_empty());
    }
}
