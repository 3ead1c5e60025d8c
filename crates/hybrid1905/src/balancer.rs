//! The §7.4 load balancer: bandwidth aggregation over WiFi + PLC.
//!
//! The paper's implementation sits between the IP and MAC layers (built
//! on the Click modular router): each IP packet is forwarded to one
//! medium with probability proportional to that medium's estimated
//! capacity; the destination restores order using the IP identification
//! sequence. A round-robin splitter — which ignores capacity — serves as
//! the baseline and is limited to twice the *slower* medium's rate
//! ("the slowest medium becomes a bottleneck").
//!
//! [`combine_streams`] reproduces that data path over two per-medium
//! delivery timelines: global sequence numbers are assigned to mediums by
//! the splitter, each medium delivers its packets at its own measured
//! times, and the receiver releases packets **in order**. All of Fig. 20
//! (hybrid vs round-robin throughput, file completion times, jitter)
//! derives from the released timeline.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use simnet::rng::Distributions;
use simnet::stats::RunningStats;
use simnet::time::Time;

/// How the splitter assigns packets to the two mediums.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SplitStrategy {
    /// Send to medium A with probability `p_first` (the paper sets it
    /// proportional to estimated capacities).
    Weighted {
        /// Probability of choosing the first medium.
        p_first: f64,
    },
    /// Strict alternation — the capacity-blind baseline.
    RoundRobin,
}

impl SplitStrategy {
    /// Capacity-proportional weights (the paper's algorithm): medium A
    /// gets `cap_a / (cap_a + cap_b)`.
    pub fn capacity_weighted(cap_a_mbps: f64, cap_b_mbps: f64) -> SplitStrategy {
        let a = cap_a_mbps.max(0.0);
        let b = cap_b_mbps.max(0.0);
        let p = if a + b > 0.0 { a / (a + b) } else { 0.5 };
        SplitStrategy::Weighted { p_first: p }
    }
}

/// The in-order packet stream a hybrid receiver hands to the application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CombinedDelivery {
    /// In-order release time of each global packet (index = global seq).
    pub release_times: Vec<Time>,
    /// Packets that could not be delivered (assigned to a medium that ran
    /// out of deliveries).
    pub undelivered: u64,
    /// How many packets went to the first medium.
    pub to_first: u64,
}

impl CombinedDelivery {
    /// Completion time of the whole stream (delivery of the last packet),
    /// e.g. the paper's 600 MB download completion (Fig. 20 right).
    pub fn completion_time(&self) -> Option<Time> {
        self.release_times.last().copied()
    }

    /// Jitter: standard deviation of inter-release gaps, in milliseconds
    /// (the paper measures jitter to verify reordering "does not worsen"
    /// it, §7.4).
    pub fn jitter_ms(&self) -> f64 {
        if self.release_times.len() < 3 {
            return 0.0;
        }
        let mut stats = RunningStats::new();
        for w in self.release_times.windows(2) {
            stats.push((w[1] - w[0]).as_millis_f64());
        }
        stats.std()
    }

    /// Mean released rate over the whole stream, Mb/s.
    pub fn mean_throughput_mbps(&self, pkt_bytes: u32) -> f64 {
        match (self.release_times.first(), self.release_times.last()) {
            (Some(&first), Some(&last)) if last > first => {
                let span = (last - first).as_secs_f64();
                (self.release_times.len() - 1) as f64 * pkt_bytes as f64 * 8.0 / span / 1e6
            }
            _ => 0.0,
        }
    }
}

/// Steady-state extrapolation of a measured delivery timeline: the k-th
/// delivery beyond the measured window arrives at the medium's recent
/// mean inter-delivery gap past the last measurement. Returns `None` for
/// an empty timeline (a dead medium never delivers).
fn delivery_at(times: &[Time], k: usize) -> Option<Time> {
    if let Some(&t) = times.get(k) {
        return Some(t);
    }
    let n = times.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        // One sample: reuse its time as both origin and gap.
        let gap = times[0].as_nanos().max(1);
        return Some(Time(times[0].as_nanos() + gap * (k - n + 1) as u64));
    }
    // Mean gap over the last half of the window (steady state).
    let half = n / 2;
    let span = times[n - 1].saturating_since(times[half]);
    let gaps = (n - 1 - half).max(1) as u64;
    let gap = (span.as_nanos() / gaps).max(1);
    Some(Time(times[n - 1].as_nanos() + gap * (k - n + 1) as u64))
}

/// Run the splitter + in-order receiver over two per-medium delivery
/// timelines.
///
/// `first` and `second` are the (sorted) delivery timestamps each medium
/// achieves for the packets assigned to it, as measured by the medium
/// simulations under saturation; the k-th packet assigned to a medium is
/// delivered at that medium's k-th timestamp. Past the measured window
/// the timeline is extrapolated at the medium's steady-state rate, so a
/// long file transfer (Fig. 20 right) can be combined from a shorter
/// measurement. `total` limits the global stream length; the in-order
/// release time of global packet g is `max(release(g−1), delivery(g))`.
pub fn combine_streams(
    first: &[Time],
    second: &[Time],
    strategy: SplitStrategy,
    total: usize,
    seed: u64,
) -> CombinedDelivery {
    let _span = simnet::obs::span::enter("hybrid.split");
    let obs = simnet::obs::current();
    // Reorder-buffer residence time per packet (µs): how long an
    // early-delivered packet waits for its in-order turn. Recording is a
    // shared-cell add and never feeds back into the split (observation is
    // inert — see `simnet::obs`).
    let reorder_wait = obs.registry().histo("hybrid.balancer.reorder_wait_us");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut i = 0usize; // consumed from first
    let mut j = 0usize; // consumed from second
    let mut release_times = Vec::with_capacity(total);
    let mut undelivered = 0u64;
    let mut to_first = 0u64;
    let mut last_release = Time::ZERO;
    for g in 0..total {
        let pick_first = match strategy {
            SplitStrategy::Weighted { p_first } => Distributions::bernoulli(&mut rng, p_first),
            SplitStrategy::RoundRobin => g % 2 == 0,
        };
        let delivery = if pick_first {
            to_first += 1;
            let d = delivery_at(first, i);
            i += 1;
            d
        } else {
            let d = delivery_at(second, j);
            j += 1;
            d
        };
        match delivery {
            Some(d) => {
                last_release = last_release.max(d);
                reorder_wait.record(last_release.saturating_since(d).as_nanos() / 1_000);
                release_times.push(last_release);
            }
            None => {
                undelivered += 1;
                // A packet assigned to a dead medium blocks in-order
                // release of everything after it; account it as never
                // released and stop.
                break;
            }
        }
    }
    let reg = obs.registry();
    reg.counter("hybrid.balancer.packets")
        .add(release_times.len() as u64);
    reg.counter("hybrid.balancer.undelivered").add(undelivered);
    if total > 0 {
        reg.gauge("hybrid.balancer.split_to_first")
            .set(to_first as f64 / total as f64);
    }
    CombinedDelivery {
        release_times,
        undelivered,
        to_first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A medium delivering one packet every `gap_ms` starting at t = 0.
    fn timeline(gap_ms: u64, n: usize) -> Vec<Time> {
        (1..=n as u64)
            .map(|k| Time::from_millis(k * gap_ms))
            .collect()
    }

    #[test]
    fn capacity_weights_normalize() {
        let s = SplitStrategy::capacity_weighted(90.0, 30.0);
        match s {
            SplitStrategy::Weighted { p_first } => assert!((p_first - 0.75).abs() < 1e-12),
            _ => panic!(),
        }
        // Degenerate: both zero → 0.5.
        match SplitStrategy::capacity_weighted(0.0, 0.0) {
            SplitStrategy::Weighted { p_first } => assert_eq!(p_first, 0.5),
            _ => panic!(),
        }
    }

    #[test]
    fn weighted_split_aggregates_bandwidth() {
        // Medium A: 1 pkt/ms (fast); medium B: 1 pkt/3ms (slow).
        // Capacity-proportional split (3:1) should release at ~A+B rate.
        let a = timeline(1, 3000);
        let b = timeline(3, 1000);
        let combined = combine_streams(&a, &b, SplitStrategy::capacity_weighted(3.0, 1.0), 3500, 7);
        assert_eq!(combined.undelivered, 0);
        let rate =
            combined.release_times.len() as f64 / combined.completion_time().unwrap().as_secs_f64();
        // Sum of rates = 1000 + 333 = 1333 pkt/s; allow slack for the
        // probabilistic split exhausting one side early.
        assert!(rate > 1100.0, "rate={rate} pkt/s");
    }

    #[test]
    fn round_robin_is_bottlenecked_by_the_slow_medium() {
        let a = timeline(1, 3000); // 1000 pkt/s
        let b = timeline(3, 1000); // 333 pkt/s
        let combined = combine_streams(&a, &b, SplitStrategy::RoundRobin, 2000, 7);
        let rate =
            combined.release_times.len() as f64 / combined.completion_time().unwrap().as_secs_f64();
        // Limited to ~2x the slow medium (666 pkt/s), far below A+B.
        assert!(
            (550.0..750.0).contains(&rate),
            "rate={rate} pkt/s (expected ~2x slow medium)"
        );
    }

    #[test]
    fn releases_are_monotone_in_order() {
        let a = timeline(2, 500);
        let b = timeline(5, 200);
        let combined = combine_streams(&a, &b, SplitStrategy::Weighted { p_first: 0.7 }, 600, 3);
        for w in combined.release_times.windows(2) {
            assert!(w[1] >= w[0], "in-order release must be monotone");
        }
    }

    #[test]
    fn exhausted_medium_counts_undelivered() {
        let a = timeline(1, 5);
        let b: Vec<Time> = Vec::new();
        let combined = combine_streams(&a, &b, SplitStrategy::RoundRobin, 10, 1);
        assert!(combined.undelivered > 0);
        assert!(combined.release_times.len() < 10);
    }

    #[test]
    fn throughput_series_and_mean() {
        // 1000 packets of 1250 B, one per ms => 10 Mb/s.
        let a = timeline(1, 1000);
        let combined = combine_streams(
            &a,
            &timeline(1, 0),
            SplitStrategy::Weighted { p_first: 1.0 },
            1000,
            1,
        );
        let mean = combined.mean_throughput_mbps(1250);
        assert!((mean - 10.0).abs() < 0.5, "mean={mean}");
    }

    #[test]
    fn jitter_of_uniform_stream_is_small() {
        let a = timeline(2, 500);
        let combined = combine_streams(
            &a,
            &timeline(1, 0),
            SplitStrategy::Weighted { p_first: 1.0 },
            500,
            1,
        );
        assert!(combined.jitter_ms() < 0.01);
    }

    #[test]
    fn round_robin_jitter_exceeds_weighted_on_asymmetric_links() {
        let a = timeline(1, 4000);
        let b = timeline(10, 400);
        let weighted =
            combine_streams(&a, &b, SplitStrategy::capacity_weighted(10.0, 1.0), 4000, 5);
        let rr = combine_streams(&a, &b, SplitStrategy::RoundRobin, 780, 5);
        assert!(
            rr.jitter_ms() >= weighted.jitter_ms(),
            "rr={} weighted={}",
            rr.jitter_ms(),
            weighted.jitter_ms()
        );
    }
}
