//! Temporal-variation experiments: Figures 4, 9, 10, 11, 12, 13, 14
//! (§4.2, §6).

use crate::env::PaperEnv;
use crate::experiments::Scale;
use crate::probesim::LinkProbeSim;
use electrifi_testbed::StationId;
use plc_phy::estimation::EstimatorConfig;
use plc_phy::PlcTechnology;
use serde::{Deserialize, Serialize};
use simnet::stats::RunningStats;
use simnet::time::{Duration, Time};
use simnet::trace::Series;
use wifi80211::Mcs;

/// Fig. 4 output: concurrent capacity traces of both mediums for a link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Link {
    /// Source station.
    pub a: StationId,
    /// Destination station.
    pub b: StationId,
    /// PLC capacity (BLE) series.
    pub plc: Series,
    /// WiFi capacity (MCS PHY rate) series.
    pub wifi: Series,
}

/// Fig. 4 output for the two example links.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Result {
    /// The good link (paper: 3-8, started 4:30 pm).
    pub good: Fig4Link,
    /// The average link (paper: 4-0, started 11:30 am).
    pub average: Fig4Link,
}

fn capacity_trace(
    env: &PaperEnv,
    a: StationId,
    b: StationId,
    start: Time,
    duration: Duration,
    step: Duration,
) -> Fig4Link {
    let seed = 0xF164 ^ ((a as u64) << 16) ^ b as u64;
    let mut plc_sim = LinkProbeSim::new(
        env.plc_channel(a, b),
        PaperEnv::dir(a, b),
        EstimatorConfig::default(),
        seed,
    );
    let wifi_chan = env.wifi_channel(a, b);
    let mut plc = Series::new(format!("PLC {a}-{b}"));
    let mut wifi = Series::new(format!("WiFi {a}-{b}"));
    // Warm-up so tone maps exist and have refined.
    let mut t = plc_sim.warmup(start, 8);
    let end = start + duration;
    while t < end {
        // "averaged over 50 packets": a short saturated burst per sample.
        plc_sim.saturate_interval(t, t + Duration::from_millis(50), Duration::from_millis(10));
        plc.push(t, plc_sim.ble_avg());
        // WiFi capacity from the MCS the adaptation would pick, averaged
        // over a second of channel state.
        let mut acc = RunningStats::new();
        for k in 0..10u64 {
            let snr = wifi_chan.snr_db(t + Duration::from_millis(k * 100));
            acc.push(
                Mcs::select(snr, 1.5)
                    .map(|m| m.phy_rate_mbps())
                    .unwrap_or(0.0),
            );
        }
        wifi.push(t, acc.mean());
        t += step;
    }
    Fig4Link { a, b, plc, wifi }
}

/// Run the Fig. 4 concurrent temporal traces.
pub fn fig4(env: &PaperEnv, scale: Scale) -> Fig4Result {
    let duration = scale.dur(Duration::from_secs(7_000), 100);
    let step = scale.dur(Duration::from_secs(10), 10);
    Fig4Result {
        // Paper link 3-8 at 4:30 pm; 4-0 at 11:30 am (working hours).
        good: capacity_trace(env, 3, 8, Time::from_hours(16), duration, step),
        average: capacity_trace(env, 4, 0, Time::from_hours(11), duration, step),
    }
}

/// One captured SoF sample of Fig. 9: (capture time, slot, BLEs).
pub type SofSample = (Time, u8, f64);

/// Fig. 9 output: instantaneous per-frame `BLEs` over a short window,
/// captured from SoF delimiters under saturation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Result {
    /// Captured samples per link.
    pub links: Vec<(StationId, StationId, Vec<SofSample>)>,
    /// The invariance-scale period that should be visible (half mains
    /// cycle, 10 ms).
    pub expected_period: Duration,
}

/// Run Fig. 9: sniff SoF delimiters on a good and an average link.
pub fn fig9(env: &PaperEnv, _scale: Scale) -> Fig9Result {
    use plc_mac::sim::{Flow, PlcSim, SimConfig};
    use simnet::traffic::TrafficSource;
    let mut links = Vec::new();
    for (a, b) in [(0u16, 2u16), (6u16, 1u16)] {
        let cfg = SimConfig {
            seed: env.testbed.seed ^ ((a as u64) << 8) ^ b as u64,
            sniffer: true,
            ..SimConfig::default()
        };
        let outlets = [
            (a, env.testbed.station(a).outlet),
            (b, env.testbed.station(b).outlet),
        ];
        let mut sim = PlcSim::new(cfg, &env.testbed.grid, &outlets);
        let _f = sim.add_flow(Flow::unicast(a, b, TrafficSource::iperf_saturated()));
        sim.run_until(Time::from_millis(1_500));
        // Keep the last ~100 ms (tone maps converged by then).
        let recs: Vec<(Time, u8, f64)> = sim
            .sniffer_records()
            .iter()
            .filter(|r| r.t >= Time::from_millis(1_400))
            .map(|r| (r.t, r.sof.slot, r.sof.ble_mbps))
            .collect();
        links.push((a, b, recs));
    }
    Fig9Result {
        links,
        expected_period: simnet::time::MAINS_HALF_CYCLE,
    }
}

/// Cycle-scale trace of one link (a panel of Fig. 10).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CycleTrace {
    /// Source station.
    pub a: StationId,
    /// Destination station.
    pub b: StationId,
    /// Technology used.
    pub technology: PlcTechnology,
    /// BLE̅ sampled every 50 ms.
    pub ble: Series,
    /// Tone-map update inter-arrival times α.
    pub alphas: Vec<Duration>,
}

impl CycleTrace {
    /// Mean tone-map update inter-arrival, ms.
    pub fn mean_alpha_ms(&self) -> f64 {
        if self.alphas.is_empty() {
            return f64::NAN;
        }
        self.alphas.iter().map(|d| d.as_millis_f64()).sum::<f64>() / self.alphas.len() as f64
    }
}

/// Produce one cycle-scale BLE trace (night-time: no appliance
/// switching, as §6.2 requires).
pub fn cycle_trace(
    env: &PaperEnv,
    a: StationId,
    b: StationId,
    technology: PlcTechnology,
    est_cfg: EstimatorConfig,
    duration: Duration,
) -> CycleTrace {
    let start = Time::from_hours(2); // 2 am: fixed electrical structure
    let channel = env.plc_channel_tech(a, b, technology);
    let seed = 0xC1C1E ^ ((a as u64) << 16) ^ b as u64;
    let mut sim = LinkProbeSim::new(channel, PaperEnv::dir(a, b), est_cfg, seed);
    let mut t = sim.warmup(start, 8);
    let mut ble = Series::new(format!("BLE {a}-{b}"));
    let mut alphas = Vec::new();
    let mut last_regen: Option<Time> = None;
    let end = t + duration;
    while t < end {
        let out = sim.frame(t, 24_000);
        if out.regenerated {
            if let Some(prev) = last_regen {
                alphas.push(t - prev);
            }
            last_regen = Some(t);
        }
        ble.push(t, sim.ble_avg());
        t += Duration::from_millis(50);
    }
    CycleTrace {
        a,
        b,
        technology,
        ble,
        alphas,
    }
}

/// Fig. 10 output: representative traces across qualities, including the
/// HPAV500 vendor-quirk variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Result {
    /// One panel per (link, technology, quirk) combination.
    pub traces: Vec<CycleTrace>,
}

/// Run Fig. 10 on the paper's example links.
///
/// Each panel is an independent per-link-seeded probe simulation, so the
/// seven traces run through the deterministic sweep machinery
/// ([`electrifi_testbed::sweep::par_map`]) — results are byte-identical
/// to the sequential loop they replaced.
pub fn fig10(env: &PaperEnv, scale: Scale) -> Fig10Result {
    let duration = scale.dur(Duration::from_secs(240), 24);
    // Paper panels: 11-4 and 6-5 (bad), 18-15 and 1-2 (average),
    // 15-18 and 3-1 (good) — plus HPAV500 with the vendor quirk on link
    // 18-15 (the paper's deep oscillation example).
    let quirk_cfg = EstimatorConfig {
        av500_quirk: true,
        ..EstimatorConfig::default()
    };
    let panels: Vec<(StationId, StationId, PlcTechnology, EstimatorConfig)> =
        [(11u16, 4u16), (6, 5), (18, 15), (1, 2), (15, 18), (3, 1)]
            .into_iter()
            .map(|(a, b)| (a, b, PlcTechnology::HpAv, EstimatorConfig::default()))
            .chain(std::iter::once((18, 15, PlcTechnology::HpAv500, quirk_cfg)))
            .collect();
    let traces = electrifi_testbed::sweep::par_map(&panels, |_, &(a, b, tech, cfg)| {
        cycle_trace(env, a, b, tech, cfg, duration)
    });
    Fig10Result { traces }
}

/// One point of Fig. 11: a link's quality vs its update rate and
/// variability.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig11Row {
    /// Source station.
    pub a: StationId,
    /// Destination station.
    pub b: StationId,
    /// Average BLE (link quality), Mb/s.
    pub avg_ble: f64,
    /// Mean tone-map update inter-arrival α, ms.
    pub alpha_ms: f64,
    /// Std of BLE, Mb/s.
    pub ble_std: f64,
}

/// Fig. 11 output plus the §6.2 headline correlations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Result {
    /// Per-link rows sorted by increasing average BLE.
    pub rows: Vec<Fig11Row>,
    /// Spearman correlation of (avg BLE, α): positive — good links update
    /// less often.
    pub rho_ble_alpha: Option<f64>,
    /// Spearman correlation of (avg BLE, BLE std): negative — good links
    /// vary less.
    pub rho_ble_std: Option<f64>,
}

/// Run Fig. 11 over the testbed's links.
pub fn fig11(env: &PaperEnv, scale: Scale) -> Fig11Result {
    let duration = scale.dur(Duration::from_secs(240), 24);
    let mut pairs = env.plc_pairs();
    pairs.truncate(scale.take(pairs.len(), 10));
    // Each link's probe sim is independently seeded, so the per-link rows
    // go through the deterministic sweep machinery; dead links (mean BLE
    // below 5 Mbps) drop out as `None` just like the old `continue`.
    let mut rows: Vec<Fig11Row> =
        electrifi_testbed::sweep::par_map(&pairs, |_, &(a, b)| -> Option<Fig11Row> {
            let trace = cycle_trace(
                env,
                a,
                b,
                PlcTechnology::HpAv,
                EstimatorConfig::default(),
                duration,
            );
            let stats = trace.ble.stats();
            if stats.mean() < 5.0 {
                return None; // effectively dead link
            }
            Some(Fig11Row {
                a,
                b,
                avg_ble: stats.mean(),
                alpha_ms: trace.mean_alpha_ms(),
                ble_std: stats.std(),
            })
        })
        .into_iter()
        .flatten()
        .collect();
    rows.sort_by(|x, y| x.avg_ble.partial_cmp(&y.avg_ble).expect("finite"));
    let alpha_pts: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.alpha_ms.is_finite())
        .map(|r| (r.avg_ble, r.alpha_ms))
        .collect();
    let std_pts: Vec<(f64, f64)> = rows.iter().map(|r| (r.avg_ble, r.ble_std)).collect();
    Fig11Result {
        rho_ble_alpha: simnet::stats::spearman(&alpha_pts),
        rho_ble_std: simnet::stats::spearman(&std_pts),
        rows,
    }
}

/// Random-scale long trace of one link (Figs. 12-14).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LongTrace {
    /// Source station.
    pub a: StationId,
    /// Destination station.
    pub b: StationId,
    /// BLE̅ series (window-averaged).
    pub ble: Series,
    /// Throughput series (window-averaged).
    pub throughput: Series,
    /// PBerr series (window-averaged).
    pub pberr: Series,
}

/// Produce a long (days/weeks) trace, sampled every `sample` and
/// window-averaged over `window` as the paper does ("metrics are averaged
/// over 1 minute intervals").
pub fn long_trace(
    env: &PaperEnv,
    a: StationId,
    b: StationId,
    duration: Duration,
    sample: Duration,
    window: Duration,
) -> LongTrace {
    let seed = 0x1076 ^ ((a as u64) << 16) ^ b as u64;
    let mut sim = LinkProbeSim::new(
        env.plc_channel(a, b),
        PaperEnv::dir(a, b),
        EstimatorConfig::default(),
        seed,
    );
    let mut ble = Series::new(format!("BLE {a}-{b}"));
    let mut thr = Series::new(format!("T {a}-{b}"));
    let mut pbe = Series::new(format!("PBerr {a}-{b}"));
    let mut t = Time::ZERO;
    while t < Time::ZERO + duration {
        let (b_now, p_now, t_now) = sim.sample_saturated(t);
        ble.push(t, b_now);
        thr.push(t, t_now);
        pbe.push(t, p_now);
        t += sample;
    }
    LongTrace {
        a,
        b,
        ble: ble.window_average(window),
        throughput: thr.window_average(window),
        pberr: pbe.window_average(window),
    }
}

/// Run [`long_trace`] over several independent links in parallel.
///
/// Each trace owns its own per-link-seeded [`LinkProbeSim`], so the
/// results are byte-identical to calling [`long_trace`] sequentially;
/// traces come back in the order of `links`.
pub fn long_traces(
    env: &PaperEnv,
    links: &[(StationId, StationId)],
    duration: Duration,
    sample: Duration,
    window: Duration,
) -> Vec<LongTrace> {
    electrifi_testbed::sweep::par_map(links, |_, &(a, b)| {
        long_trace(env, a, b, duration, sample, window)
    })
}

/// Fig. 12 output: two-day traces for the two example links, plus the
/// 9 pm lights-off check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12Result {
    /// Link 15-16: throughput + PBerr.
    pub link_15_16: LongTrace,
    /// Link 0-1: BLE + PBerr.
    pub link_0_1: LongTrace,
}

/// Run Fig. 12 (2 days, 1-minute averages at `Paper` scale).
pub fn fig12(env: &PaperEnv, scale: Scale) -> Fig12Result {
    let duration = scale.dur(Duration::from_secs(2 * 24 * 3600), 200);
    let sample = scale.dur(Duration::from_secs(20), 10);
    let window = scale.dur(Duration::from_secs(60), 10);
    let mut traces = long_traces(env, &[(15, 16), (0, 1)], duration, sample, window).into_iter();
    Fig12Result {
        link_15_16: traces.next().expect("two traces"),
        link_0_1: traces.next().expect("two traces"),
    }
}

/// Figs. 13/14 output: two-week hour-of-day statistics for a link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeeklyResult {
    /// The raw (window-averaged) trace.
    pub trace: LongTrace,
    /// Per-hour weekday BLE stats (mean, std).
    pub weekday_by_hour: Vec<(u32, f64, f64)>,
    /// Per-hour weekend BLE stats (mean, std).
    pub weekend_by_hour: Vec<(u32, f64, f64)>,
}

/// Run a Fig. 13/14-style two-week experiment on one link.
pub fn weekly(env: &PaperEnv, a: StationId, b: StationId, scale: Scale) -> WeeklyResult {
    weekly_links(env, &[(a, b)], scale)
        .pop()
        .expect("one link in, one result out")
}

/// Run Fig. 13/14-style two-week experiments on several links at once.
///
/// The two-week traces dominate the temporal experiments' wall-clock
/// time; each link is an independent per-seed simulation, so they run
/// through the deterministic sweep machinery. Results come back in the
/// order of `links` and are byte-identical to sequential [`weekly`]
/// calls.
pub fn weekly_links(
    env: &PaperEnv,
    links: &[(StationId, StationId)],
    scale: Scale,
) -> Vec<WeeklyResult> {
    let duration = scale.dur(Duration::from_secs(14 * 24 * 3600), 1000);
    let sample = scale.dur(Duration::from_secs(300), 250);
    let window = sample;
    electrifi_testbed::sweep::par_map(links, |_, &(a, b)| {
        let trace = long_trace(env, a, b, duration, sample, window);
        let fold = |weekend: bool| -> Vec<(u32, f64, f64)> {
            trace
                .ble
                .by_hour_of_day(Some(weekend))
                .into_iter()
                .map(|(h, s)| (h, s.mean(), s.std()))
                .collect()
        };
        WeeklyResult {
            weekday_by_hour: fold(false),
            weekend_by_hour: fold(true),
            trace,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Scale, PAPER_SEED};

    #[test]
    fn fig4_wifi_varies_more_than_plc_on_good_link() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig4(&env, Scale::Quick);
        let plc_cv = r.good.plc.stats().cv().abs();
        let wifi_cv = r.good.wifi.stats().cv().abs();
        assert!(
            wifi_cv > plc_cv,
            "wifi cv={wifi_cv} plc cv={plc_cv}: WiFi must vary more"
        );
    }

    #[test]
    fn fig9_bles_are_slot_periodic() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig9(&env, Scale::Quick);
        for (a, b, recs) in &r.links {
            assert!(recs.len() > 5, "link {a}-{b}: {} frames", recs.len());
            // Same slot => same BLE within the window (per-slot tone maps).
            use std::collections::HashMap;
            let mut by_slot: HashMap<u8, Vec<f64>> = HashMap::new();
            for &(_, slot, ble) in recs {
                by_slot.entry(slot).or_default().push(ble);
            }
            for (slot, bles) in by_slot {
                let first = bles[0];
                for v in &bles {
                    assert!(
                        (v - first).abs() < 1e-9,
                        "link {a}-{b} slot {slot}: BLE changed mid-window"
                    );
                }
            }
        }
    }

    #[test]
    fn fig10_good_links_are_steadier_than_bad() {
        // The simulated building assigns link qualities by its own wiring,
        // so compare the *measured* best and worst links rather than the
        // paper's example ids.
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig10(&env, Scale::Quick);
        let hpav: Vec<&CycleTrace> = r
            .traces
            .iter()
            .filter(|t| t.technology == PlcTechnology::HpAv)
            .collect();
        let best = hpav
            .iter()
            .max_by(|x, y| {
                x.ble
                    .stats()
                    .mean()
                    .partial_cmp(&y.ble.stats().mean())
                    .unwrap()
            })
            .expect("traces exist");
        let worst = hpav
            .iter()
            .min_by(|x, y| {
                x.ble
                    .stats()
                    .mean()
                    .partial_cmp(&y.ble.stats().mean())
                    .unwrap()
            })
            .expect("traces exist");
        assert!(best.ble.stats().mean() > worst.ble.stats().mean());
        let best_cv = best.ble.stats().cv().abs();
        let worst_cv = worst.ble.stats().cv().abs();
        assert!(
            best_cv <= worst_cv + 0.05,
            "best cv={best_cv} worst cv={worst_cv}"
        );
    }

    #[test]
    fn fig11_reports_correlations() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig11(&env, Scale::Quick);
        assert!(r.rows.len() >= 4, "only {} usable links", r.rows.len());
        // The headline §6.2 finding: quality and variability negatively
        // correlated.
        if let Some(rho) = r.rho_ble_std {
            assert!(rho < 0.4, "rho(ble,std)={rho}");
        }
    }

    #[test]
    fn fig12_shows_diurnal_structure() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig12(&env, Scale::Quick);
        assert!(!r.link_0_1.ble.is_empty());
        assert!(!r.link_15_16.throughput.is_empty());
        // PBerr stays a probability.
        for (_, p) in r.link_0_1.pberr.points() {
            assert!((0.0..=1.0).contains(p));
        }
    }
}
