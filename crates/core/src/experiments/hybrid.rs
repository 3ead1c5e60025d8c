//! The hybrid bandwidth-aggregation experiment: Figure 20 (§7.4).
//!
//! Both medium simulations run packet-level under saturation; the §7.4
//! splitter (capacity-weighted vs round-robin) and the in-order receiver
//! are applied to the measured delivery timelines (see
//! `hybrid1905::balancer` for why this is faithful when both mediums are
//! saturated and do not interfere).

use crate::env::PaperEnv;
use crate::experiments::Scale;
use electrifi_testbed::StationId;
use hybrid1905::balancer::{combine_streams, CombinedDelivery, SplitStrategy};
use plc_mac::sim::{Flow, PlcSim, SimConfig};
use serde::{Deserialize, Serialize};
use simnet::time::{Duration, Time};
use simnet::traffic::TrafficSource;
use wifi80211::sim::{WifiFlow, WifiSim, WifiSimConfig};

/// Packet size used throughout the hybrid experiment.
const PKT_BYTES: u32 = 1500;

/// The four per-link throughput traces of Fig. 20 (left panel).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig20Throughput {
    /// Link endpoints.
    pub link: (StationId, StationId),
    /// Mean WiFi-only throughput, Mb/s.
    pub wifi_only: f64,
    /// Mean PLC-only throughput, Mb/s.
    pub plc_only: f64,
    /// Capacity-weighted hybrid (the paper's algorithm), Mb/s.
    pub hybrid: f64,
    /// Round-robin baseline, Mb/s.
    pub round_robin: f64,
    /// Jitter of the hybrid stream, ms.
    pub hybrid_jitter_ms: f64,
    /// Jitter of the better single medium, ms.
    pub single_jitter_ms: f64,
}

/// One completion-time comparison of Fig. 20 (right panel).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CompletionRow {
    /// Link endpoints.
    pub link: (StationId, StationId),
    /// WiFi-only completion time of the file, seconds.
    pub wifi_s: f64,
    /// Hybrid completion time, seconds.
    pub hybrid_s: f64,
}

/// Fig. 20 output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig20Result {
    /// The detailed four-way comparison (paper link 0-4).
    pub detail: Fig20Throughput,
    /// File-download completion times across the paper's 13 links.
    pub completions: Vec<CompletionRow>,
    /// File size used, bytes (paper: 600 MB).
    pub file_bytes: u64,
}

/// Measure one link's saturated delivery timeline on both mediums:
/// `(plc_times, wifi_times)`, each sorted by delivery time.
fn delivery_timelines(
    env: &PaperEnv,
    a: StationId,
    b: StationId,
    duration: Duration,
) -> (Vec<Time>, Vec<Time>) {
    // --- PLC side.
    let cfg = SimConfig {
        seed: env.testbed.seed ^ 0xF20 ^ ((a as u64) << 12) ^ b as u64,
        ..SimConfig::default()
    };
    let outlets = [
        (a, env.testbed.station(a).outlet),
        (b, env.testbed.station(b).outlet),
    ];
    let mut plc = PlcSim::new(cfg, &env.testbed.grid, &outlets);
    let plc_times = if plc.connected(a, b) {
        let f = plc.add_flow(Flow::unicast(a, b, TrafficSource::iperf_saturated()));
        plc.run_until(Time::ZERO + duration);
        let mut d = plc.take_delivered(f);
        d.sort_by_key(|p| p.delivered);
        d.into_iter().map(|p| p.delivered).collect()
    } else {
        Vec::new()
    };
    // --- WiFi side.
    let wcfg = WifiSimConfig {
        seed: env.testbed.seed ^ 0x20F ^ ((a as u64) << 12) ^ b as u64,
        channel: env.wifi_params,
        ..WifiSimConfig::default()
    };
    let positions = [
        (a, env.testbed.station(a).pos),
        (b, env.testbed.station(b).pos),
    ];
    let mut wifi = WifiSim::new(wcfg, &env.testbed.floor, &positions);
    let f = wifi.add_flow(WifiFlow {
        src: a,
        dst: b,
        source: TrafficSource::iperf_saturated(),
    });
    wifi.run_until(Time::ZERO + duration);
    let mut wd = wifi.take_delivered(f);
    wd.sort_by_key(|p| p.delivered);
    let wifi_times: Vec<Time> = wd.into_iter().map(|p| p.delivered).collect();
    (plc_times, wifi_times)
}

fn mean_rate_mbps(times: &[Time]) -> f64 {
    match (times.first(), times.last()) {
        (Some(&f), Some(&l)) if l > f && times.len() > 1 => {
            (times.len() - 1) as f64 * PKT_BYTES as f64 * 8.0 / (l - f).as_secs_f64() / 1e6
        }
        _ => 0.0,
    }
}

fn jitter_ms(times: &[Time]) -> f64 {
    if times.len() < 3 {
        return 0.0;
    }
    let mut s = simnet::stats::RunningStats::new();
    for w in times.windows(2) {
        s.push((w[1] - w[0]).as_millis_f64());
    }
    s.std()
}

/// Measurement window of the detailed four-way comparison.
fn detail_duration(scale: Scale) -> Duration {
    scale.dur(Duration::from_secs(100), 20)
}

/// Run the detailed four-way comparison on one link.
pub fn fig20_detail(env: &PaperEnv, a: StationId, b: StationId, scale: Scale) -> Fig20Throughput {
    let (plc_times, wifi_times) = delivery_timelines(env, a, b, detail_duration(scale));
    detail_from_timelines((a, b), &plc_times, &wifi_times)
}

/// The four-way comparison over one link's measured timelines.
fn detail_from_timelines(
    link: (StationId, StationId),
    plc_times: &[Time],
    wifi_times: &[Time],
) -> Fig20Throughput {
    // Split weights: the paper re-estimates each medium's capacity every
    // second from live transmissions, so the splitter converges to the
    // actual achievable rates — model that converged state by weighting
    // with the measured steady-state goodputs.
    let strategy =
        SplitStrategy::capacity_weighted(mean_rate_mbps(plc_times), mean_rate_mbps(wifi_times));
    let total = plc_times.len() + wifi_times.len();
    let hybrid = combine_streams(plc_times, wifi_times, strategy, total, 0xF20);
    let rr = combine_streams(
        plc_times,
        wifi_times,
        SplitStrategy::RoundRobin,
        total,
        0xF20,
    );
    let single_jitter_ms = if mean_rate_mbps(plc_times) > mean_rate_mbps(wifi_times) {
        jitter_ms(plc_times)
    } else {
        jitter_ms(wifi_times)
    };
    Fig20Throughput {
        link,
        wifi_only: mean_rate_mbps(wifi_times),
        plc_only: mean_rate_mbps(plc_times),
        hybrid: hybrid.mean_throughput_mbps(PKT_BYTES),
        round_robin: rr.mean_throughput_mbps(PKT_BYTES),
        hybrid_jitter_ms: hybrid.jitter_ms(),
        single_jitter_ms,
    }
}

/// Completion time of an `n_packets` download over a delivery plan.
fn completion_s(delivery: &CombinedDelivery) -> f64 {
    delivery
        .completion_time()
        .map(|t| t.as_secs_f64())
        .unwrap_or(f64::INFINITY)
}

/// Run Fig. 20: the detailed link plus the 13-link completion-time sweep.
pub fn fig20(env: &PaperEnv, scale: Scale) -> Fig20Result {
    // Scaled file: 600 MB at Paper scale.
    let file_bytes: u64 = match scale {
        Scale::Paper => 600_000_000,
        Scale::Quick => 12_000_000,
    };
    let n_packets = (file_bytes / PKT_BYTES as u64) as usize;
    let duration = scale.dur(Duration::from_secs(120), 12);
    let links: [(StationId, StationId); 13] = [
        (0, 9),
        (0, 5),
        (9, 0),
        (9, 6),
        (9, 7),
        (3, 9),
        (1, 6),
        (1, 8),
        (2, 11),
        (2, 5),
        (6, 1),
        (6, 2),
        (7, 9),
    ];
    // Every link's timelines come from its own seeded simulations, so the
    // detailed link and the 13 completion links measure through one
    // deterministic sweep; the combine step below runs serially, in link
    // order.
    let runs: Vec<(StationId, StationId, Duration)> =
        std::iter::once((0, 4, detail_duration(scale)))
            .chain(links.iter().map(|&(a, b)| (a, b, duration)))
            .collect();
    let mut timelines =
        electrifi_testbed::sweep::par_map(&runs, |_, &(a, b, d)| delivery_timelines(env, a, b, d))
            .into_iter();
    let (plc_times, wifi_times) = timelines.next().expect("the detailed link was measured");
    let detail = detail_from_timelines((0, 4), &plc_times, &wifi_times);
    let mut completions = Vec::new();
    for (&(a, b), (plc_times, wifi_times)) in links.iter().zip(timelines) {
        if wifi_times.is_empty() {
            continue; // the paper only lists links with WiFi connectivity
        }
        // The combiner extrapolates each medium's measured timeline at
        // its steady-state rate, so the short measured run covers the
        // whole file.
        let wifi_rate = mean_rate_mbps(&wifi_times);
        let wifi_s = file_bytes as f64 * 8.0 / (wifi_rate * 1e6);
        let strategy = SplitStrategy::capacity_weighted(mean_rate_mbps(&plc_times), wifi_rate);
        let hybrid = combine_streams(
            &plc_times,
            &wifi_times,
            strategy,
            n_packets,
            0xC0C0 ^ ((a as u64) << 8) ^ b as u64,
        );
        completions.push(CompletionRow {
            link: (a, b),
            wifi_s,
            hybrid_s: completion_s(&hybrid),
        });
    }
    Fig20Result {
        detail,
        completions,
        file_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::PAPER_SEED;

    #[test]
    fn hybrid_aggregates_and_rr_bottlenecks() {
        let env = PaperEnv::new(PAPER_SEED);
        let d = fig20_detail(&env, 0, 4, Scale::Quick);
        assert!(d.plc_only > 1.0, "plc={}", d.plc_only);
        assert!(d.wifi_only > 1.0, "wifi={}", d.wifi_only);
        let sum = d.plc_only + d.wifi_only;
        // Hybrid approaches the sum of capacities (within 25%).
        assert!(d.hybrid > 0.7 * sum, "hybrid={} sum={sum}", d.hybrid);
        // Round-robin is capped near 2x the slower medium.
        let two_min = 2.0 * d.plc_only.min(d.wifi_only);
        assert!(
            d.round_robin < two_min * 1.3,
            "rr={} 2*min={two_min}",
            d.round_robin
        );
        assert!(d.hybrid > d.round_robin * 0.95);
    }

    #[test]
    fn completions_improve_with_hybrid() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig20(&env, Scale::Quick);
        assert!(!r.completions.is_empty());
        let mut better = 0usize;
        for c in &r.completions {
            assert!(c.hybrid_s.is_finite());
            if c.hybrid_s < c.wifi_s {
                better += 1;
            }
        }
        // The paper shows a drastic decrease on every listed link; allow
        // a margin but require a clear majority.
        assert!(
            better * 2 > r.completions.len(),
            "only {better}/{} links improved",
            r.completions.len()
        );
    }
}
