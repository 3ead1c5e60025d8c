//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use simnet::grid::Grid;
use simnet::noise::ValueNoise;
use simnet::obs::{MetricsSnapshot, Registry};
use simnet::stats::{linear_fit, Ecdf, RunningStats};
use simnet::time::{Duration, Time};
use simnet::RngPool;

/// Replay a worker's instrument operations into a fresh registry and
/// snapshot it — the exact shape `sweep::par_map_workers` folds back
/// into the coordinator.
fn worker_snapshot(ops: &[(u8, u64)]) -> MetricsSnapshot {
    let r = Registry::new();
    for &(which, v) in ops {
        match which % 4 {
            0 => r.counter("c.alpha").add(v),
            1 => r.counter("c.beta").add(v % 7),
            2 => r.histo("h.alpha").record(v),
            _ => r.histo("h.beta").record(v % 1000),
        }
    }
    r.snapshot()
}

/// Deterministic Fisher–Yates permutation of `0..n` from an LCG seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    /// Welford statistics agree with the naive two-pass computation.
    #[test]
    fn running_stats_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 2..300)) {
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-6 * var.abs().max(1.0));
        prop_assert_eq!(s.count(), xs.len() as u64);
    }

    /// An ECDF is a valid distribution function: monotone, 0 below the
    /// minimum, 1 at and above the maximum, and quantiles invert it.
    #[test]
    fn ecdf_is_a_distribution(xs in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
        let e = Ecdf::new(xs.clone());
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(e.eval(lo - 1.0), 0.0);
        prop_assert_eq!(e.eval(hi), 1.0);
        let mut prev = 0.0;
        for k in 0..20 {
            let x = lo + (hi - lo) * k as f64 / 19.0;
            let v = e.eval(x);
            prop_assert!(v >= prev - 1e-12);
            prop_assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let x = e.quantile(q);
            prop_assert!((lo..=hi).contains(&x));
        }
    }

    /// Least squares recovers a noiseless line exactly for any slope and
    /// intercept.
    #[test]
    fn linear_fit_recovers_lines(
        slope in -100f64..100.0,
        intercept in -100f64..100.0,
        n in 3usize..50,
    ) {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| (i as f64, slope * i as f64 + intercept))
            .collect();
        let fit = linear_fit(&pts).expect("distinct xs");
        prop_assert!((fit.slope - slope).abs() < 1e-6 * slope.abs().max(1.0));
        prop_assert!((fit.intercept - intercept).abs() < 1e-5 * intercept.abs().max(1.0));
    }

    /// Value noise is bounded, deterministic and continuous for any seed.
    #[test]
    fn value_noise_bounded_and_continuous(seed in any::<u64>(), x in -1e4f64..1e4) {
        let n = ValueNoise::new(seed);
        let v = n.eval(x);
        prop_assert!((-1.0..=1.0).contains(&v));
        prop_assert_eq!(v, n.eval(x));
        let dv = (n.eval(x + 1e-7) - v).abs();
        prop_assert!(dv < 1e-4);
    }

    /// Independently labelled RNG streams do not collide for distinct
    /// labels (probabilistically: first draws differ).
    #[test]
    fn rng_streams_distinct(seed in any::<u64>(), a in 0u64..1_000, b in 0u64..1_000) {
        prop_assume!(a != b);
        let pool = RngPool::new(seed);
        let mut ra = pool.stream(&format!("s:{a}"));
        let mut rb = pool.stream(&format!("s:{b}"));
        let xa = simnet::rng::Distributions::uniform(&mut ra);
        let xb = simnet::rng::Distributions::uniform(&mut rb);
        prop_assert_ne!(xa, xb);
    }

    /// Dijkstra shortest paths over random trees match the unique tree
    /// path length (sum of edge weights on the path).
    #[test]
    fn grid_paths_on_trees_are_exact(
        parents in proptest::collection::vec((0usize..100, 1.0f64..50.0), 1..60),
    ) {
        let mut g = Grid::new();
        let root = g.add_junction("root");
        let mut nodes = vec![root];
        let mut depth = vec![0.0f64];
        let mut cum = vec![0.0f64];
        for (p, w) in parents {
            let parent = nodes[p % nodes.len()];
            let pd = cum[p % nodes.len()];
            let n = g.add_junction(format!("n{}", nodes.len()));
            g.connect(parent, n, w);
            nodes.push(n);
            depth.push(w);
            cum.push(pd + w);
        }
        // Distance from root to any node equals its cumulative depth.
        for (i, &n) in nodes.iter().enumerate() {
            let d = g.cable_distance(root, n).expect("tree is connected");
            prop_assert!((d - cum[i]).abs() < 1e-9, "node {i}: {d} vs {}", cum[i]);
        }
    }

    /// Mains-cycle helpers: slot indices are always valid and periodic.
    #[test]
    fn tonemap_slots_valid_and_periodic(ns in 0u64..10_000_000_000, l in 1usize..12) {
        let t = Time(ns);
        let s = t.tonemap_slot(l);
        prop_assert!(s < l);
        let shifted = t + Duration::from_millis(10); // half mains cycle
        prop_assert_eq!(s, shifted.tonemap_slot(l));
    }

    /// `Registry::absorb` is order-insensitive for counters and
    /// histograms: folding worker snapshots in any permutation yields
    /// the same coordinator snapshot. (Gauges are deliberately
    /// last-write-wins and excluded.)
    #[test]
    fn registry_absorb_order_insensitive(
        workers in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), 0u64..1_000_000), 0..20),
            0..6,
        ),
        seed in any::<u64>(),
    ) {
        let snaps: Vec<MetricsSnapshot> =
            workers.iter().map(|w| worker_snapshot(w)).collect();
        let in_order = Registry::new();
        for s in &snaps {
            in_order.absorb(s);
        }
        let shuffled = Registry::new();
        for &i in &permutation(snaps.len(), seed) {
            shuffled.absorb(&snaps[i]);
        }
        let a = in_order.snapshot();
        let b = shuffled.snapshot();
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.histos, b.histos);
    }

    /// `Registry::absorb` is associative for counters and histograms:
    /// pre-merging a group of worker snapshots through an intermediate
    /// registry and absorbing its snapshot equals absorbing the workers
    /// directly — so sweeps may fold in chunks of any shape.
    #[test]
    fn registry_absorb_associative(
        workers in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), 0u64..1_000_000), 0..20),
            1..6,
        ),
        split in 0usize..6,
    ) {
        let snaps: Vec<MetricsSnapshot> =
            workers.iter().map(|w| worker_snapshot(w)).collect();
        let split = split.min(snaps.len());
        let flat = Registry::new();
        for s in &snaps {
            flat.absorb(s);
        }
        let left = Registry::new();
        for s in &snaps[..split] {
            left.absorb(s);
        }
        let right = Registry::new();
        for s in &snaps[split..] {
            right.absorb(s);
        }
        let grouped = Registry::new();
        grouped.absorb(&left.snapshot());
        grouped.absorb(&right.snapshot());
        let a = flat.snapshot();
        let b = grouped.snapshot();
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.histos, b.histos);
    }
}
