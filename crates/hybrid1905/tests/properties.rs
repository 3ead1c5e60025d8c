//! Property-based tests for the hybrid abstraction layer.

use hybrid1905::balancer::{combine_streams, SplitStrategy};
use hybrid1905::probing::{evaluate_policy, ProbingPolicy};
use proptest::prelude::*;
use simnet::time::{Duration, Time};
use simnet::trace::Series;

fn timeline(gaps: &[u64]) -> Vec<Time> {
    let mut t = 0u64;
    gaps.iter()
        .map(|&g| {
            t += g + 1;
            Time::from_micros(t)
        })
        .collect()
}

proptest! {
    /// The in-order receiver releases packets at non-decreasing times no
    /// earlier than their medium delivery, for any timelines, strategy
    /// and stream length.
    #[test]
    fn combined_release_is_monotone(
        gaps_a in proptest::collection::vec(0u64..500, 0..200),
        gaps_b in proptest::collection::vec(0u64..500, 0..200),
        p in 0f64..1.0,
        rr in any::<bool>(),
        total in 0usize..500,
        seed in any::<u64>(),
    ) {
        let a = timeline(&gaps_a);
        let b = timeline(&gaps_b);
        let strategy = if rr {
            SplitStrategy::RoundRobin
        } else {
            SplitStrategy::Weighted { p_first: p }
        };
        let out = combine_streams(&a, &b, strategy, total, seed);
        prop_assert!(out.release_times.len() + out.undelivered as usize <= total.max(out.release_times.len()));
        for w in out.release_times.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        // Conservation: released + undelivered-cutoff ≤ total.
        prop_assert!(out.release_times.len() <= total);
        prop_assert!(out.to_first as usize <= total);
    }

    /// A stream combined with an empty second medium at weight 1 is the
    /// prefix-monotone closure of the first medium's timeline.
    #[test]
    fn single_medium_passthrough(gaps in proptest::collection::vec(0u64..100, 1..100)) {
        let a = timeline(&gaps);
        let out = combine_streams(&a, &[], SplitStrategy::Weighted { p_first: 1.0 }, a.len(), 3);
        prop_assert_eq!(out.release_times.len(), a.len());
        for (r, d) in out.release_times.iter().zip(&a) {
            prop_assert!(r >= d);
        }
        prop_assert_eq!(out.undelivered, 0);
    }

    /// The probing evaluator conserves probes: intervals never produce
    /// more probes than samples, and a finer policy never probes less.
    #[test]
    fn probing_overhead_ordering(values in proptest::collection::vec(10f64..150.0, 40..400)) {
        let mut s = Series::new("ble");
        for (i, v) in values.iter().enumerate() {
            s.push(Time::from_millis(50 * i as u64), *v);
        }
        let traces = vec![s];
        let fine = evaluate_policy(ProbingPolicy::Fixed(Duration::from_secs(1)), &traces);
        let coarse = evaluate_policy(ProbingPolicy::Fixed(Duration::from_secs(10)), &traces);
        prop_assert!(fine.probes >= coarse.probes);
        prop_assert!(fine.probes as usize <= values.len());
        // Errors are non-negative.
        prop_assert!(fine.errors_mbps.iter().all(|e| *e >= 0.0));
        prop_assert!(coarse.errors_mbps.iter().all(|e| *e >= 0.0));
    }
}
