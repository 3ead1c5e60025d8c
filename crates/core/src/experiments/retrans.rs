//! Retransmission experiments: Figures 21, 22, 23 and 24 (§8).

use crate::env::PaperEnv;
use crate::experiments::Scale;
use electrifi_testbed::{PlcNetwork, StationId};
use hybrid1905::etx::UEtx;
use plc_mac::sim::{Flow, PlcSim, SimConfig};
use plc_phy::estimation::EstimatorConfig;
use serde::{Deserialize, Serialize};
use simnet::time::{Duration, Time};
use simnet::trace::Series;
use simnet::traffic::{TrafficPattern, TrafficSource};

/// One broadcast-probing observation of Fig. 21.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BroadcastRow {
    /// Broadcasting station.
    pub src: StationId,
    /// Receiving station.
    pub dst: StationId,
    /// Broadcast packet loss rate at this receiver.
    pub loss_rate: f64,
    /// The link's unicast throughput (night reference), Mb/s.
    pub throughput: f64,
    /// The link's PBerr (night reference).
    pub pberr: f64,
    /// Whether this is a working-hours (day) or night measurement.
    pub day: bool,
}

/// Fig. 21 output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig21Result {
    /// All (src, dst, loss) observations.
    pub rows: Vec<BroadcastRow>,
}

/// Run Fig. 21: every station of network A broadcasts 1500 B probes at
/// 10 Hz; the others count losses. Repeated day and night.
pub fn fig21(env: &PaperEnv, scale: Scale) -> Fig21Result {
    let duration = scale.dur(Duration::from_secs(500), 50);
    let outlets = env.testbed.plc_outlets(PlcNetwork::A);
    let members: Vec<StationId> = outlets.iter().map(|(id, _)| *id).collect();
    let keep = scale.take(members.len(), 4);
    // Each (time-of-day, broadcaster) run is an independently-seeded sim,
    // so the grid fans out through the deterministic sweep machinery.
    // Receiver rows are sorted by destination, which also pins the row
    // order that previously followed HashMap iteration.
    let runs: Vec<(bool, u64, StationId)> = [(true, 11u64), (false, 2u64)]
        .into_iter()
        .flat_map(|(day, start_hour)| {
            members
                .iter()
                .take(keep)
                .map(move |&src| (day, start_hour, src))
        })
        .collect();
    let mut rows: Vec<_> =
        electrifi_testbed::sweep::par_map(&runs, |_, &(day, start_hour, src)| {
            let cfg = SimConfig {
                seed: env.testbed.seed ^ 0xF21 ^ ((src as u64) << 8) ^ day as u64,
                ..SimConfig::default()
            };
            let mut sim = PlcSim::new(cfg, &env.testbed.grid, &outlets);
            let f = sim.add_flow(Flow::broadcast(
                src,
                TrafficSource::new(
                    TrafficPattern::Cbr {
                        rate_bps: 120_000.0, // 1500 B every 100 ms
                        pkt_bytes: 1500,
                    },
                    Time::from_hours(start_hour),
                ),
            ));
            // Warp to the time of day and run.
            sim.run_until(Time::from_hours(start_hour) + duration);
            let mut run_rows = Vec::new();
            for (&dst, &(ok, lost)) in sim.broadcast_stats(f).iter() {
                let total = ok + lost;
                if total == 0 {
                    continue;
                }
                // A floor at 1/total keeps zero-loss links plottable on
                // the paper's log axis.
                let loss_rate = (lost as f64 / total as f64).max(0.5 / total as f64);
                // The night reference is filled in below.
                run_rows.push(BroadcastRow {
                    src,
                    dst,
                    loss_rate,
                    throughput: 0.0,
                    pberr: 0.0,
                    day,
                });
            }
            run_rows.sort_by_key(|r| r.dst);
            run_rows
        })
        .into_iter()
        .flatten()
        .collect();
    // Reference unicast quality per receiver (from the channel at night):
    // throughput and pberr scale stand-ins. It does not depend on the
    // time of day, so it is measured once per (src, dst) pair that
    // appears in the rows.
    let mut links: Vec<(StationId, StationId)> = rows.iter().map(|r| (r.src, r.dst)).collect();
    links.sort_unstable();
    links.dedup();
    let references =
        electrifi_testbed::sweep::par_map(&links, |_, &(src, dst)| night_reference(env, src, dst));
    for row in &mut rows {
        let k = links
            .binary_search(&(row.src, row.dst))
            .expect("every row's link has a reference");
        (row.throughput, row.pberr) = references[k];
    }
    Fig21Result { rows }
}

/// Night-time unicast reference metrics for a link (steady-state).
fn night_reference(env: &PaperEnv, a: StationId, b: StationId) -> (f64, f64) {
    use crate::probesim::LinkProbeSim;
    let seed = 0x217F ^ ((a as u64) << 16) ^ b as u64;
    let mut sim = LinkProbeSim::new(
        env.plc_channel(a, b),
        PaperEnv::dir(a, b),
        EstimatorConfig::default(),
        seed,
    );
    let start = Time::from_hours(2);
    let t_end = sim.warmup(start, 8);
    let t = sim.throughput_now(t_end);
    (t, sim.pberr_cumulative().unwrap_or(0.0))
}

/// One U-ETX observation of Fig. 22.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UEtxRow {
    /// Source station.
    pub a: StationId,
    /// Destination station.
    pub b: StationId,
    /// Average BLE of the link, Mb/s.
    pub ble: f64,
    /// PBerr measured during the run.
    pub pberr: f64,
    /// Unicast ETX statistics.
    pub uetx: UEtx,
}

/// Fig. 22 output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig22Result {
    /// Per-link rows sorted by increasing BLE.
    pub rows: Vec<UEtxRow>,
    /// Pearson correlation of (PBerr, U-ETX) — the paper finds an almost
    /// linear relationship.
    pub rho_pberr_uetx: Option<f64>,
}

/// Run Fig. 22: 150 kb/s unicast probes on each link, counting the
/// frames each packet needs.
pub fn fig22(env: &PaperEnv, scale: Scale) -> Fig22Result {
    let duration = scale.dur(Duration::from_secs(300), 30);
    let mut pairs = env.plc_pairs();
    pairs.truncate(scale.take(pairs.len(), 8));
    // Per-link seeded runs fan out through the deterministic sweep
    // machinery; links with too little data drop out as `None` just like
    // the old `continue`s.
    let mut rows: Vec<UEtxRow> =
        electrifi_testbed::sweep::par_map(&pairs, |_, &(a, b)| -> Option<UEtxRow> {
            let outlets = [
                (a, env.testbed.station(a).outlet),
                (b, env.testbed.station(b).outlet),
            ];
            let cfg = SimConfig {
                seed: env.testbed.seed ^ 0xF22 ^ ((a as u64) << 12) ^ b as u64,
                ..SimConfig::default()
            };
            let mut sim = PlcSim::new(cfg, &env.testbed.grid, &outlets);
            let f = sim.add_flow(Flow::unicast(a, b, TrafficSource::probe_150kbps()));
            sim.run_until(Time::ZERO + duration);
            let counts = sim.take_tx_counts(f);
            let uetx = UEtx::from_tx_counts(&counts)?;
            let ble = sim.int6krate(a, b);
            let (total, err) = sim.pb_counters(a, b);
            if total == 0 || ble < 5.0 {
                return None;
            }
            Some(UEtxRow {
                a,
                b,
                ble,
                pberr: err as f64 / total as f64,
                uetx,
            })
        })
        .into_iter()
        .flatten()
        .collect();
    rows.sort_by(|x, y| x.ble.partial_cmp(&y.ble).expect("finite"));
    let pts: Vec<(f64, f64)> = rows.iter().map(|r| (r.pberr, r.uetx.mean)).collect();
    Fig22Result {
        rho_pberr_uetx: simnet::stats::pearson(&pts),
        rows,
    }
}

/// A background-traffic sensitivity trace (one panel of Fig. 23/24).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensitivityTrace {
    /// The probed link.
    pub probe_link: (StationId, StationId),
    /// The saturated background link.
    pub background_link: (StationId, StationId),
    /// Whether probes were sent in 20-packet bursts (the §8.2 fix).
    pub bursts: bool,
    /// BLE of the probed link over time (sampled every second).
    pub ble: Series,
    /// PBerr of the probed link over time.
    pub pberr: Series,
    /// When the background flow starts.
    pub background_at: Time,
}

impl SensitivityTrace {
    /// Ratio of mean BLE after background activation to before — the
    /// sensitivity measure (1.0 = insensitive).
    pub fn ble_retention(&self) -> f64 {
        let Some(&(end, _)) = self.ble.points().last() else {
            return f64::NAN;
        };
        // Skip a settling window after activation, scaled to the trace.
        let settle = (end.saturating_since(self.background_at) / 5).min(Duration::from_secs(20));
        let mut before = simnet::stats::RunningStats::new();
        let mut after = simnet::stats::RunningStats::new();
        for &(t, v) in self.ble.points() {
            if t < self.background_at {
                before.push(v);
            } else if t > self.background_at + settle {
                after.push(v);
            }
        }
        if before.mean() <= 0.0 {
            return f64::NAN;
        }
        after.mean() / before.mean()
    }
}

/// Run one §8.2 contention experiment: `probe` sends 150 kb/s (single
/// packets or 20-packet bursts); after `background_at`, `background`
/// saturates the medium.
pub fn sensitivity_run(
    env: &PaperEnv,
    probe: (StationId, StationId),
    background: (StationId, StationId),
    bursts: bool,
    scale: Scale,
) -> SensitivityTrace {
    let total = scale.dur(Duration::from_secs(600), 30);
    let background_at = Time::ZERO + total / 3;
    let stations: Vec<StationId> = {
        let mut v = vec![probe.0, probe.1, background.0, background.1];
        v.sort_unstable();
        v.dedup();
        v
    };
    let outlets: Vec<(StationId, simnet::grid::NodeId)> = stations
        .iter()
        .map(|&s| (s, env.testbed.station(s).outlet))
        .collect();
    let cfg = SimConfig {
        seed: env.testbed.seed
            ^ 0xF23
            ^ ((probe.0 as u64) << 24)
            ^ ((probe.1 as u64) << 16)
            ^ ((background.0 as u64) << 8)
            ^ bursts as u64,
        ..SimConfig::default()
    };
    let mut sim = PlcSim::new(cfg, &env.testbed.grid, &outlets);
    let probe_source = if bursts {
        TrafficSource::probe_bursts_150kbps()
    } else {
        TrafficSource::probe_150kbps()
    };
    let _probe_flow = sim.add_flow(Flow::unicast(probe.0, probe.1, probe_source));
    let _bg_flow = sim.add_flow(Flow::unicast(
        background.0,
        background.1,
        TrafficSource::new(TrafficPattern::Saturated { pkt_bytes: 1500 }, background_at),
    ));
    let mut ble = Series::new(format!("BLE {}-{}", probe.0, probe.1));
    let mut pberr = Series::new(format!("PBerr {}-{}", probe.0, probe.1));
    let step = Duration::from_secs(1);
    let mut t = Time::ZERO + step;
    while t <= Time::ZERO + total {
        sim.run_until(t);
        ble.push(t, sim.int6krate(probe.0, probe.1));
        if let Some(p) = sim.ampstat(probe.0, probe.1) {
            pberr.push(t, p);
        }
        t += step;
    }
    SensitivityTrace {
        probe_link: probe,
        background_link: background,
        bursts,
        ble,
        pberr,
        background_at,
    }
}

/// Fig. 23 output: a sensitive and an insensitive link pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig23Result {
    /// The pair whose metrics survive background traffic.
    pub insensitive: SensitivityTrace,
    /// The pair whose BLE collapses (capture effect).
    pub sensitive: SensitivityTrace,
}

/// Run Fig. 23 with the paper's link pairs: probe 0→11 vs background 1→6
/// (insensitive) and probe 6→11 vs background 1→0 (sensitive).
pub fn fig23(env: &PaperEnv, scale: Scale) -> Fig23Result {
    let (insensitive, sensitive) = sensitivity_pair(
        env,
        ((0, 11), (1, 6)),
        ((6, 11), (1, 0)),
        [false, false],
        scale,
    );
    Fig23Result {
        insensitive,
        sensitive,
    }
}

/// Run two independent [`sensitivity_run`]s through the deterministic
/// sweep machinery (each owns a per-seed sim, so results are identical
/// to sequential calls).
fn sensitivity_pair(
    env: &PaperEnv,
    first: ((StationId, StationId), (StationId, StationId)),
    second: ((StationId, StationId), (StationId, StationId)),
    bursts: [bool; 2],
    scale: Scale,
) -> (SensitivityTrace, SensitivityTrace) {
    let specs = [(first, bursts[0]), (second, bursts[1])];
    let mut traces = electrifi_testbed::sweep::par_map(&specs, |_, &((probe, background), b)| {
        sensitivity_run(env, probe, background, b, scale)
    })
    .into_iter();
    (
        traces.next().expect("two traces"),
        traces.next().expect("two traces"),
    )
}

/// Fig. 24 output: the burst fix applied to a sensitive pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig24Result {
    /// Single-packet probing (sensitive).
    pub single: SensitivityTrace,
    /// 20-packet burst probing (fixed).
    pub bursts: SensitivityTrace,
}

/// Run Fig. 24 on the paper's 7→6 probe / 8→3 background pair.
pub fn fig24(env: &PaperEnv, scale: Scale) -> Fig24Result {
    let (single, bursts) = sensitivity_pair(
        env,
        ((7, 6), (8, 3)),
        ((7, 6), (8, 3)),
        [false, true],
        scale,
    );
    Fig24Result { single, bursts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::PAPER_SEED;

    #[test]
    fn fig21_broadcast_losses_are_low_and_uninformative() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig21(&env, Scale::Quick);
        assert!(!r.rows.is_empty());
        // Most loss rates are tiny (ROBO modulation), across a wide
        // throughput range — the §8.1 point.
        let low_loss = r.rows.iter().filter(|x| x.loss_rate < 0.02).count();
        assert!(
            low_loss * 3 >= r.rows.len() * 2,
            "{low_loss}/{} low-loss rows",
            r.rows.len()
        );
        let spread = r
            .rows
            .iter()
            .map(|x| x.throughput)
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), t| {
                (lo.min(t), hi.max(t))
            });
        assert!(
            spread.1 > 1.5 * spread.0.max(1.0),
            "throughputs span a range: {spread:?}"
        );
    }

    #[test]
    fn fig22_uetx_tracks_pberr() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig22(&env, Scale::Quick);
        assert!(r.rows.len() >= 3, "{} rows", r.rows.len());
        for row in &r.rows {
            assert!(row.uetx.mean >= 1.0);
        }
        if let Some(rho) = r.rho_pberr_uetx {
            assert!(rho > -0.2, "rho={rho} (expected non-negative)");
        }
    }

    #[test]
    fn fig24_bursts_restore_ble() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig24(&env, Scale::Quick);
        let single = r.single.ble_retention();
        let burst = r.bursts.ble_retention();
        assert!(
            burst >= single - 0.05,
            "bursts must not be worse: single={single} bursts={burst}"
        );
        assert!(burst > 0.7, "bursty probing should hold BLE: {burst}");
    }
}
