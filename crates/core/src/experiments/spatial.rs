//! Spatial-variation experiments: Figures 3, 6 and 7 (§4.1, §5).

use crate::env::PaperEnv;
use crate::experiments::Scale;
use crate::probesim::LinkProbeSim;
use electrifi_testbed::{sweep, StationId};
use plc_phy::PlcTechnology;
use serde::{Deserialize, Serialize};
use simnet::stats::RunningStats;
use simnet::time::{Duration, Time};
use wifi80211::throughput::expected_goodput_mbps;

/// Links with mean PLC SNR below this are treated as unconnected and
/// skipped (the modems would not associate).
const PLC_DEAD_SNR_DB: f64 = -2.0;

/// One station pair's two-medium measurement (a row of Fig. 3).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PairMeasurement {
    /// Source station.
    pub a: StationId,
    /// Destination station.
    pub b: StationId,
    /// Mean PLC UDP throughput, Mb/s (0 = no PLC connectivity).
    pub t_plc: f64,
    /// Std of PLC throughput over 100 ms samples.
    pub s_plc: f64,
    /// Mean WiFi UDP throughput, Mb/s (0 = blind spot).
    pub t_wifi: f64,
    /// Std of WiFi throughput over 100 ms samples.
    pub s_wifi: f64,
    /// Straight-line distance, metres.
    pub air_m: f64,
}

/// Fig. 3 output: per-pair rows plus the §4.1 headline statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Per-pair measurements (pairs where at least one medium connects).
    pub rows: Vec<PairMeasurement>,
    /// Fraction of WiFi-connected pairs that PLC also connects.
    pub plc_covers_wifi: f64,
    /// Fraction of PLC-connected pairs that WiFi also connects.
    pub wifi_covers_plc: f64,
    /// Fraction of pairs where PLC outperforms WiFi.
    pub plc_wins: f64,
    /// Largest PLC/WiFi throughput ratio among both-connected pairs.
    pub max_plc_gain: f64,
    /// Largest WiFi/PLC throughput ratio among both-connected pairs.
    pub max_wifi_gain: f64,
    /// Largest WiFi throughput std, Mb/s.
    pub max_sigma_wifi: f64,
    /// Largest PLC throughput std, Mb/s.
    pub max_sigma_plc: f64,
}

/// Measurement window of a spatial sweep: when it starts, how long each
/// link is measured, how densely it is sampled, and how many pairs are
/// kept. This is the scenario-facing knob set — scenario workloads map
/// directly onto it, while [`fig3`]/[`fig7`] wrap it with the paper's
/// fixed values.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SpatialConfig {
    /// Measurement start instant (the paper measures during working
    /// hours).
    pub start: Time,
    /// Per-link measurement duration.
    pub duration: Duration,
    /// Sampling interval within the window.
    pub sample: Duration,
    /// Keep only the first `max_pairs` pairs of the deterministic pair
    /// order (`None` = all pairs).
    pub max_pairs: Option<usize>,
}

impl SpatialConfig {
    /// The Fig. 3 window at a given scale (5 min of 100 ms samples at
    /// `Paper` scale, starting 10:00 on a weekday).
    pub fn fig3(scale: Scale) -> Self {
        SpatialConfig {
            start: Time::from_hours(10),
            duration: scale.dur(Duration::from_secs(300), 30),
            sample: Duration::from_millis(100),
            max_pairs: None,
        }
    }

    /// The Fig. 7 window at a given scale (60 s per link, 500 ms samples,
    /// starting 14:00).
    pub fn fig7(scale: Scale) -> Self {
        SpatialConfig {
            start: Time::from_hours(14),
            duration: scale.dur(Duration::from_secs(60), 20),
            sample: Duration::from_millis(500),
            max_pairs: None,
        }
    }
}

/// Run the Fig. 3 experiment: for each station pair, measure both mediums
/// back-to-back (5 min at 100 ms samples at `Paper` scale) during working
/// hours.
pub fn fig3(env: &PaperEnv, scale: Scale) -> Fig3Result {
    let mut cfg = SpatialConfig::fig3(scale);
    cfg.max_pairs = Some(scale.take(env.station_pairs().len(), 12));
    fig3_with(env, cfg)
}

/// [`fig3`] with an explicit measurement window — the entry point
/// scenario workloads use (any testbed, any window).
pub fn fig3_with(env: &PaperEnv, cfg: SpatialConfig) -> Fig3Result {
    let duration = cfg.duration;
    let sample = cfg.sample;
    let start = cfg.start;
    // Undirected pairs, measured in the a->b (a < b) direction as the
    // paper measures "for each pair of stations".
    let all: Vec<(StationId, StationId)> = {
        let mut v = env.station_pairs();
        if let Some(keep) = cfg.max_pairs {
            v.truncate(keep);
        }
        v
    };
    // Each pair's measurement is pure (per-pair seeds), so the sweep fans
    // out across cores with results collected in pair order.
    let rows: Vec<PairMeasurement> = sweep::par_map(&all, |_, &(a, b)| {
        let air_m = env.testbed.air_distance_m(a, b);
        // --- PLC side.
        let same_net = env.testbed.station(a).network == env.testbed.station(b).network;
        let (t_plc, s_plc) = if same_net {
            measure_plc(env, a, b, PlcTechnology::HpAv, start, duration, sample)
        } else {
            (0.0, 0.0) // separate logical networks: no PLC link (paper §3.1)
        };
        // --- WiFi side (back-to-back: same window).
        let (t_wifi, s_wifi) = measure_wifi(env, a, b, start, duration, sample);
        if t_plc > 0.0 || t_wifi > 0.0 {
            Some(PairMeasurement {
                a,
                b,
                t_plc,
                s_plc,
                t_wifi,
                s_wifi,
                air_m,
            })
        } else {
            None
        }
    })
    .into_iter()
    .flatten()
    .collect();
    summarize_fig3(rows)
}

fn summarize_fig3(rows: Vec<PairMeasurement>) -> Fig3Result {
    let wifi_connected = rows.iter().filter(|r| r.t_wifi > 0.5).count();
    let plc_connected = rows.iter().filter(|r| r.t_plc > 0.5).count();
    let both = rows
        .iter()
        .filter(|r| r.t_wifi > 0.5 && r.t_plc > 0.5)
        .count();
    let plc_wins =
        rows.iter().filter(|r| r.t_plc > r.t_wifi).count() as f64 / rows.len().max(1) as f64;
    let mut max_plc_gain: f64 = 0.0;
    let mut max_wifi_gain: f64 = 0.0;
    for r in rows.iter().filter(|r| r.t_wifi > 0.5 && r.t_plc > 0.5) {
        max_plc_gain = max_plc_gain.max(r.t_plc / r.t_wifi);
        max_wifi_gain = max_wifi_gain.max(r.t_wifi / r.t_plc);
    }
    let max_sigma_wifi = rows.iter().map(|r| r.s_wifi).fold(0.0, f64::max);
    let max_sigma_plc = rows.iter().map(|r| r.s_plc).fold(0.0, f64::max);
    Fig3Result {
        plc_covers_wifi: if wifi_connected == 0 {
            1.0
        } else {
            both as f64 / wifi_connected as f64
        },
        wifi_covers_plc: if plc_connected == 0 {
            1.0
        } else {
            both as f64 / plc_connected as f64
        },
        plc_wins,
        max_plc_gain,
        max_wifi_gain,
        max_sigma_wifi,
        max_sigma_plc,
        rows,
    }
}

/// Measure one directed PLC link's UDP throughput statistics.
pub fn measure_plc(
    env: &PaperEnv,
    a: StationId,
    b: StationId,
    tech: PlcTechnology,
    start: Time,
    duration: Duration,
    sample: Duration,
) -> (f64, f64) {
    let channel = env.plc_channel_tech(a, b, tech);
    // Skip hopeless links without burning simulation time.
    if channel.spectrum(PaperEnv::dir(a, b), start).mean_db() < PLC_DEAD_SNR_DB {
        return (0.0, 0.0);
    }
    let seed = 0x517A ^ ((a as u64) << 20) ^ ((b as u64) << 4);
    let mut sim = LinkProbeSim::new(channel, PaperEnv::dir(a, b), env.estimator, seed);
    // Warm-up: let the association-time tone-map refinements finish.
    let mut t = sim.warmup(start, 8);
    let mut stats = RunningStats::new();
    let end = t + duration;
    while t < end {
        // Keep the estimator live and read the delivered throughput.
        sim.saturate_interval(t, t + Duration::from_millis(20), Duration::from_millis(10));
        stats.push(sim.throughput_now(t));
        t += sample;
    }
    if stats.mean() < 0.3 {
        (0.0, 0.0)
    } else {
        (stats.mean(), stats.std())
    }
}

/// Measure one WiFi link's UDP throughput statistics.
pub fn measure_wifi(
    env: &PaperEnv,
    a: StationId,
    b: StationId,
    start: Time,
    duration: Duration,
    sample: Duration,
) -> (f64, f64) {
    let channel = env.wifi_channel(a, b);
    if !channel.connected() {
        return (0.0, 0.0);
    }
    let mut stats = RunningStats::new();
    let mut t = start;
    let end = start + duration;
    while t < end {
        stats.push(expected_goodput_mbps(&channel, t, 1));
        t += sample;
    }
    if stats.mean() < 0.3 {
        (0.0, 0.0)
    } else {
        (stats.mean(), stats.std())
    }
}

/// One bar pair of Fig. 6: throughput in both directions of a PLC link.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AsymmetryRow {
    /// First station.
    pub x: StationId,
    /// Second station.
    pub y: StationId,
    /// Throughput x→y, Mb/s.
    pub t_xy: f64,
    /// Throughput y→x, Mb/s.
    pub t_yx: f64,
}

impl AsymmetryRow {
    /// max/min throughput ratio.
    pub fn ratio(&self) -> f64 {
        let hi = self.t_xy.max(self.t_yx);
        let lo = self.t_xy.min(self.t_yx).max(1e-6);
        hi / lo
    }
}

/// Fig. 6 output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Both-direction throughput for every measured pair, sorted by
    /// descending asymmetry.
    pub rows: Vec<AsymmetryRow>,
    /// Fraction of connected pairs with asymmetry above 1.5× (the paper
    /// reports ≈30%).
    pub frac_above_1_5: f64,
}

/// Run the Fig. 6 asymmetry experiment over all same-network pairs.
pub fn fig6(env: &PaperEnv, scale: Scale) -> Fig6Result {
    let duration = scale.dur(Duration::from_secs(60), 20);
    let sample = Duration::from_millis(200);
    let start = Time::from_hours(11);
    let mut pairs: Vec<(StationId, StationId)> =
        env.plc_pairs().into_iter().filter(|(a, b)| a < b).collect();
    pairs.truncate(scale.take(pairs.len(), 8));
    let mut rows: Vec<AsymmetryRow> = sweep::par_map(&pairs, |_, &(x, y)| {
        let (t_xy, _) = measure_plc(env, x, y, PlcTechnology::HpAv, start, duration, sample);
        let (t_yx, _) = measure_plc_rev(env, y, x, start, duration, sample);
        if t_xy > 0.5 && t_yx > 0.5 {
            Some(AsymmetryRow { x, y, t_xy, t_yx })
        } else {
            None
        }
    })
    .into_iter()
    .flatten()
    .collect();
    rows.sort_by(|a, b| b.ratio().partial_cmp(&a.ratio()).expect("finite"));
    let above = rows.iter().filter(|r| r.ratio() > 1.5).count();
    Fig6Result {
        frac_above_1_5: above as f64 / rows.len().max(1) as f64,
        rows,
    }
}

/// Like [`measure_plc`] but for the reverse direction of the (unordered)
/// channel.
fn measure_plc_rev(
    env: &PaperEnv,
    src: StationId,
    dst: StationId,
    start: Time,
    duration: Duration,
    sample: Duration,
) -> (f64, f64) {
    measure_plc(env, src, dst, PlcTechnology::HpAv, start, duration, sample)
}

/// One point of Fig. 7: a link's throughput at its cable distance.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DistanceRow {
    /// Source station.
    pub a: StationId,
    /// Destination station.
    pub b: StationId,
    /// Cable distance, metres.
    pub cable_m: f64,
    /// UDP throughput, Mb/s.
    pub throughput: f64,
    /// Cumulative PBerr measured during the run.
    pub pberr: f64,
}

/// Fig. 7 output: AV and AV500 point clouds plus PBerr-vs-throughput.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Result {
    /// HomePlug AV links.
    pub av: Vec<DistanceRow>,
    /// HomePlug AV500 links.
    pub av500: Vec<DistanceRow>,
}

/// Run the Fig. 7 distance study over all directed same-network links.
pub fn fig7(env: &PaperEnv, scale: Scale) -> Fig7Result {
    let mut cfg = SpatialConfig::fig7(scale);
    cfg.max_pairs = Some(scale.take(env.plc_pairs().len(), 10));
    fig7_with(env, cfg)
}

/// [`fig7`] with an explicit measurement window — the entry point
/// scenario workloads use (any testbed, any window).
pub fn fig7_with(env: &PaperEnv, cfg: SpatialConfig) -> Fig7Result {
    let duration = cfg.duration;
    let start = cfg.start;
    let mut pairs = env.plc_pairs();
    if let Some(keep) = cfg.max_pairs {
        pairs.truncate(keep);
    }
    let measure = |a: StationId, b: StationId, tech: PlcTechnology| -> Option<DistanceRow> {
        let cable_m = env
            .testbed
            .cable_distance_m(a, b)
            .expect("same-network pairs are wired");
        let channel = env.plc_channel_tech(a, b, tech);
        if channel.spectrum(PaperEnv::dir(a, b), start).mean_db() < PLC_DEAD_SNR_DB {
            return None;
        }
        let seed = 0xF1607 ^ ((a as u64) << 24) ^ ((b as u64) << 8);
        let mut sim = LinkProbeSim::new(channel, PaperEnv::dir(a, b), env.estimator, seed);
        let mut t = sim.warmup(start, 8);
        let mut stats = RunningStats::new();
        let end = t + duration;
        while t < end {
            sim.saturate_interval(t, t + Duration::from_millis(20), Duration::from_millis(10));
            stats.push(sim.throughput_now(t));
            t += cfg.sample;
        }
        let pberr = sim.pberr_cumulative().unwrap_or(0.0);
        if stats.mean() > 0.3 {
            Some(DistanceRow {
                a,
                b,
                cable_m,
                throughput: stats.mean(),
                pberr,
            })
        } else {
            None
        }
    };
    // Both technologies of one pair measure in the same sweep item; the
    // two point clouds are then partitioned back out in pair order.
    let per_pair: Vec<(Option<DistanceRow>, Option<DistanceRow>)> =
        sweep::par_map(&pairs, |_, &(a, b)| {
            (
                measure(a, b, PlcTechnology::HpAv),
                measure(a, b, PlcTechnology::HpAv500),
            )
        });
    let mut av = Vec::new();
    let mut av500 = Vec::new();
    for (row_av, row_av500) in per_pair {
        av.extend(row_av);
        av500.extend(row_av500);
    }
    Fig7Result { av, av500 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::PAPER_SEED;

    #[test]
    fn fig3_quick_reproduces_headlines() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig3(&env, Scale::Quick);
        assert!(!r.rows.is_empty());
        // PLC throughput std stays small (paper: σP ≤ ~4 Mb/s).
        assert!(r.max_sigma_plc < 8.0, "sigma_plc={}", r.max_sigma_plc);
        // All throughputs in sane HPAV/802.11n ranges.
        for row in &r.rows {
            assert!(row.t_plc < 100.0 && row.t_wifi < 120.0, "{row:?}");
        }
    }

    #[test]
    fn fig6_quick_finds_asymmetry() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig6(&env, Scale::Quick);
        assert!(!r.rows.is_empty());
        for row in &r.rows {
            assert!(row.ratio() >= 1.0);
        }
    }

    #[test]
    fn fig7_quick_shows_distance_decay() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig7(&env, Scale::Quick);
        assert!(!r.av.is_empty());
        // Spearman correlation between distance and throughput should be
        // negative.
        let pts: Vec<(f64, f64)> = r.av.iter().map(|x| (x.cable_m, x.throughput)).collect();
        if pts.len() >= 4 {
            let rho = simnet::stats::spearman(&pts).unwrap();
            assert!(rho < 0.3, "rho={rho} (expected non-positive trend)");
        }
    }
}
