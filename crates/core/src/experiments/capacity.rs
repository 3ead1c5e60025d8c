//! Capacity-estimation experiments: Figures 15, 16, 17, 18 and 19 (§7).

use crate::env::PaperEnv;
use crate::experiments::Scale;
use crate::probesim::LinkProbeSim;
use electrifi_testbed::StationId;
use hybrid1905::probing::{evaluate_policy, PolicyEvaluation, ProbingPolicy};
use plc_phy::PlcTechnology;
use serde::{Deserialize, Serialize};
use simnet::stats::{linear_fit, LinearFit, NormalityCheck};
use simnet::time::{Duration, Time};
use simnet::trace::Series;

/// One point of Fig. 15: a link's (throughput, average BLE).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig15Row {
    /// Source station.
    pub a: StationId,
    /// Destination station.
    pub b: StationId,
    /// Mean UDP throughput, Mb/s.
    pub throughput: f64,
    /// Mean BLE, Mb/s.
    pub ble: f64,
}

/// Fig. 15 output: the BLE-vs-throughput fit (paper: `BLE = 1.7 T − 0.65`
/// with normally distributed residuals).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig15Result {
    /// Per-link points.
    pub rows: Vec<Fig15Row>,
    /// The least-squares fit of BLE on T.
    pub fit: Option<LinearFit>,
    /// Normality check of the residuals.
    pub residual_normality: Option<NormalityCheck>,
}

/// Run Fig. 15: saturated runs over the testbed's links.
///
/// The simulated UDP throughput is derived from the MAC model, so unlike
/// `iperf` it carries no application-layer measurement noise of its own;
/// a small multiplicative jitter (σ = 1.5%) emulates the measurement
/// process so the residual analysis is meaningful.
pub fn fig15(env: &PaperEnv, scale: Scale) -> Fig15Result {
    use rand::SeedableRng;
    use simnet::rng::Distributions;
    let duration = scale.dur(Duration::from_secs(240), 60);
    let start = Time::from_hours(15);
    let mut pairs = env.plc_pairs();
    pairs.truncate(scale.take(pairs.len(), 12));
    // One pure item per link: the measurement-jitter RNG is seeded per
    // link (not threaded through the sweep), so items parallelize.
    let rows: Vec<Fig15Row> = electrifi_testbed::sweep::par_map(&pairs, |_, &(a, b)| {
        let channel = env.plc_channel(a, b);
        if channel.spectrum(PaperEnv::dir(a, b), start).mean_db() < -2.0 {
            return None;
        }
        let seed = 0xF15 ^ ((a as u64) << 20) ^ ((b as u64) << 2);
        let mut meas_rng =
            rand::rngs::StdRng::seed_from_u64(0xF15E ^ ((a as u64) << 20) ^ ((b as u64) << 2));
        let mut sim = LinkProbeSim::new(channel, PaperEnv::dir(a, b), env.estimator, seed);
        let mut t = sim.warmup(start, 8);
        let mut ble = simnet::stats::RunningStats::new();
        let mut thr = simnet::stats::RunningStats::new();
        let end = t + duration;
        while t < end {
            sim.saturate_interval(t, t + Duration::from_millis(30), Duration::from_millis(10));
            ble.push(sim.ble_avg());
            let jitter = 1.0 + Distributions::normal(&mut meas_rng, 0.0, 0.015);
            thr.push(sim.throughput_now(t) * jitter);
            t += Duration::from_secs(1);
        }
        if thr.mean() > 0.3 {
            Some(Fig15Row {
                a,
                b,
                throughput: thr.mean(),
                ble: ble.mean(),
            })
        } else {
            None
        }
    })
    .into_iter()
    .flatten()
    .collect();
    let pts: Vec<(f64, f64)> = rows.iter().map(|r| (r.throughput, r.ble)).collect();
    let fit = linear_fit(&pts);
    let residual_normality = fit.and_then(|f| {
        let residuals: Vec<f64> = f.residuals(&pts).collect();
        NormalityCheck::of(&residuals)
    });
    Fig15Result {
        rows,
        fit,
        residual_normality,
    }
}

/// One probing-rate convergence trace of Fig. 16.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    /// Probes per second.
    pub pkts_per_sec: u32,
    /// Estimated capacity (average BLE) over time.
    pub estimate: Series,
}

/// Fig. 16 output: per-link, per-rate convergence traces after a device
/// reset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig16Result {
    /// (link endpoints, traces per probing rate).
    pub links: Vec<((StationId, StationId), Vec<ConvergenceTrace>)>,
}

/// Run Fig. 16: reset, then probe at 1/10/50/200 packets per second with
/// 1300-byte probes.
pub fn fig16(env: &PaperEnv, scale: Scale) -> Fig16Result {
    let duration = scale.dur(Duration::from_secs(4_000), 100);
    let rates = [1u32, 10, 50, 200];
    let link_ids = [(1u16, 11u16), (1u16, 5u16)];
    // Every (link, rate) cell is an independently-seeded simulation, so
    // the whole grid fans out through the deterministic sweep machinery
    // and is regrouped per link in the original order afterwards.
    let cells: Vec<(StationId, StationId, u32)> = link_ids
        .iter()
        .flat_map(|&(a, b)| rates.iter().map(move |&rate| (a, b, rate)))
        .collect();
    let traces = electrifi_testbed::sweep::par_map(&cells, |_, &(a, b, rate)| {
        let seed = 0xF16 ^ ((a as u64) << 16) ^ ((b as u64) << 2) ^ rate as u64;
        let mut sim = LinkProbeSim::new(
            env.plc_channel(a, b),
            PaperEnv::dir(a, b),
            env.estimator,
            seed,
        );
        sim.reset(); // explicit: the paper resets devices each run
        let trace = probe_at_rate(&mut sim, Time::from_hours(1), duration, rate, 1300);
        ConvergenceTrace {
            pkts_per_sec: rate,
            estimate: trace,
        }
    });
    let links = link_ids
        .iter()
        .zip(traces.chunks(rates.len()))
        .map(|(&link, chunk)| (link, chunk.to_vec()))
        .collect();
    Fig16Result { links }
}

/// Probe a link at `rate` packets/s of `bytes` each for `duration`,
/// sampling the estimated capacity once per second (Paper cadence).
fn probe_at_rate(
    sim: &mut LinkProbeSim,
    start: Time,
    duration: Duration,
    rate: u32,
    bytes: u32,
) -> Series {
    // One span per (link, rate) probing campaign — the per-frame loop
    // inside is far too hot to trace individually.
    let _span = simnet::obs::span::enter_at("probe.at_rate", start);
    let mut series = Series::new(format!("{rate} pkt/s"));
    let gap = Duration::from_secs_f64(1.0 / rate as f64);
    let mut t = start;
    let end = start + duration;
    let mut next_sample = start;
    while t < end {
        sim.frame(t, bytes);
        if t >= next_sample {
            series.push(t, sim.estimator().ble_avg());
            next_sample += Duration::from_secs(5);
        }
        t += gap;
    }
    series
}

/// Fig. 17 output: pause/resume traces for several links.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig17Result {
    /// Per link: the estimate series with a probing pause in the middle.
    pub links: Vec<((StationId, StationId), Series)>,
    /// When the pause starts.
    pub pause_at: Time,
    /// When probing resumes.
    pub resume_at: Time,
}

/// Run Fig. 17: probe at 20 pkt/s, pause for ~7 minutes, resume; the
/// estimate must persist.
pub fn fig17(env: &PaperEnv, scale: Scale) -> Fig17Result {
    let before = scale.dur(Duration::from_secs(2_300), 100);
    let pause = scale.dur(Duration::from_secs(420), 100);
    let after = scale.dur(Duration::from_secs(2_000), 100);
    let start = Time::from_hours(1);
    let pause_at = start + before;
    let resume_at = pause_at + pause;
    // Each link is an independently-seeded simulation: the links fan out
    // through the deterministic sweep and come back in link order.
    let link_ids = [(1u16, 0u16), (1, 6), (1, 10), (1, 5)];
    let links = electrifi_testbed::sweep::par_map(&link_ids, |_, &(a, b)| {
        let seed = 0xF17 ^ ((a as u64) << 16) ^ b as u64;
        let mut sim = LinkProbeSim::new(
            env.plc_channel(a, b),
            PaperEnv::dir(a, b),
            env.estimator,
            seed,
        );
        sim.reset();
        let mut series = probe_at_rate(&mut sim, start, before, 20, 1300);
        // Pause: nothing sent. Resume.
        let resumed = probe_at_rate(&mut sim, resume_at, after, 20, 1300);
        for &(t, v) in resumed.points() {
            series.push(t, v);
        }
        ((a, b), series)
    });
    Fig17Result {
        links,
        pause_at,
        resume_at,
    }
}

/// Fig. 18 output: probe-size traces at 1 packet per second.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig18Result {
    /// Per probe size (label in the paper's on-wire bytes, incl. the 8 B
    /// PB header): the estimate series. "520 B" carries one PB (512 B
    /// payload), "521 B" spills into a second PB.
    pub sizes: Vec<(u32, Series)>,
    /// The one-PB-per-symbol ceiling `R1sym` (≈89.4 Mb/s).
    pub r1sym: f64,
}

/// Run Fig. 18 on a good link (paper: 11-6) with sizes 200/520/521/1300 B.
pub fn fig18(env: &PaperEnv, scale: Scale) -> Fig18Result {
    let duration = scale.dur(Duration::from_secs(10_000), 200);
    let (a, b) = (11u16, 6u16);
    // (label as the paper quotes it — wire bytes incl. PB header, payload
    // handed to the MAC). Each size is its own seeded simulation.
    let probes = [(200u32, 200u32), (520, 512), (521, 513), (1300, 1300)];
    let sizes = electrifi_testbed::sweep::par_map(&probes, |_, &(label, payload)| {
        let seed = 0xF18 ^ label as u64;
        let mut sim = LinkProbeSim::new(
            env.plc_channel(a, b),
            PaperEnv::dir(a, b),
            env.estimator,
            seed,
        );
        sim.reset();
        let series = probe_at_rate(&mut sim, Time::from_hours(1), duration, 1, payload);
        (label, series)
    });
    Fig18Result {
        sizes,
        r1sym: LinkProbeSim::r1sym_mbps(),
    }
}

/// Fig. 19 output: estimation-error evaluations for the three probing
/// strategies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig19Result {
    /// The paper's quality-adaptive method.
    pub adaptive: PolicyEvaluation,
    /// Fixed 5-second probing (baseline).
    pub every_5s: PolicyEvaluation,
    /// Fixed 80-second probing.
    pub every_80s: PolicyEvaluation,
    /// Overhead reduction of the adaptive method vs the 5 s baseline
    /// (paper: 32%).
    pub overhead_reduction: f64,
}

/// Run Fig. 19: replay §6.2-style 50 ms BLE traces of the testbed links
/// under the three probing policies.
pub fn fig19(env: &PaperEnv, scale: Scale) -> Fig19Result {
    use crate::experiments::temporal::cycle_trace;
    let duration = scale.dur(Duration::from_secs(240), 24);
    let mut pairs = env.plc_pairs();
    pairs.truncate(scale.take(pairs.len(), 10));
    // One trace per pair through the sweep; the usability filter runs
    // afterwards, in pair order.
    let traces: Vec<Series> = electrifi_testbed::sweep::par_map(&pairs, |_, &(a, b)| {
        cycle_trace(env, a, b, PlcTechnology::HpAv, env.estimator, duration).ble
    })
    .into_iter()
    .filter(|ble| ble.stats().mean() > 5.0)
    .collect();
    let adaptive = evaluate_policy(ProbingPolicy::paper_adaptive(), &traces);
    let every_5s = evaluate_policy(ProbingPolicy::Fixed(Duration::from_secs(5)), &traces);
    let every_80s = evaluate_policy(ProbingPolicy::Fixed(Duration::from_secs(80)), &traces);
    let overhead_reduction = adaptive.overhead_reduction_vs(&every_5s);
    Fig19Result {
        adaptive,
        every_5s,
        every_80s,
        overhead_reduction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::PAPER_SEED;

    #[test]
    fn fig15_fit_matches_the_papers_slope_range() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig15(&env, Scale::Quick);
        assert!(r.rows.len() >= 5, "{} usable links", r.rows.len());
        let fit = r.fit.expect("enough points to fit");
        assert!(
            (1.4..2.1).contains(&fit.slope),
            "slope={} (paper: 1.7)",
            fit.slope
        );
        assert!(fit.r2 > 0.8, "r2={}", fit.r2);
    }

    #[test]
    fn fig16_faster_probing_converges_faster() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig16(&env, Scale::Quick);
        let (_link, traces) = &r.links[0];
        let final_of =
            |t: &ConvergenceTrace| t.estimate.points().last().map(|p| p.1).unwrap_or(0.0);
        // Highest rate ends at least as high as the lowest rate.
        let slow = traces.iter().find(|t| t.pkts_per_sec == 1).unwrap();
        let fast = traces.iter().find(|t| t.pkts_per_sec == 200).unwrap();
        assert!(
            final_of(fast) >= final_of(slow) * 0.95,
            "fast={} slow={}",
            final_of(fast),
            final_of(slow)
        );
        // Estimates grow over time (convergence from below).
        let first = fast.estimate.points().first().unwrap().1;
        assert!(final_of(fast) >= first);
    }

    #[test]
    fn fig17_pause_does_not_lose_the_estimate() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig17(&env, Scale::Quick);
        for ((a, b), series) in &r.links {
            let before: Vec<f64> = series
                .points()
                .iter()
                .filter(|(t, _)| *t < r.pause_at)
                .map(|(_, v)| *v)
                .collect();
            let after: Vec<f64> = series
                .points()
                .iter()
                .filter(|(t, _)| *t >= r.resume_at)
                .map(|(_, v)| *v)
                .collect();
            let last_before = *before.last().expect("samples before pause");
            let first_after = *after.first().expect("samples after resume");
            assert!(
                first_after >= last_before * 0.8,
                "link {a}-{b}: estimate dropped across pause ({last_before} -> {first_after})"
            );
        }
    }

    #[test]
    fn fig18_small_probes_cap_at_r1sym() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig18(&env, Scale::Quick);
        for (bytes, series) in &r.sizes {
            let final_est = series.points().last().unwrap().1;
            if *bytes <= 520 {
                assert!(
                    final_est <= r.r1sym * 1.02,
                    "{bytes} B probes must cap at R1sym: {final_est}"
                );
            } else {
                assert!(
                    final_est > r.r1sym * 1.02,
                    "{bytes} B probes must exceed R1sym: {final_est}"
                );
            }
        }
    }

    #[test]
    fn fig19_adaptive_cuts_overhead_with_good_accuracy() {
        let env = PaperEnv::new(PAPER_SEED);
        let r = fig19(&env, Scale::Quick);
        assert!(
            r.overhead_reduction > 0.1,
            "reduction={}",
            r.overhead_reduction
        );
        // Adaptive accuracy sits between the 5 s and 80 s baselines.
        let med =
            |e: &PolicyEvaluation| simnet::stats::Ecdf::new(e.errors_mbps.clone()).quantile(0.9);
        assert!(
            med(&r.adaptive) <= med(&r.every_80s) + 1e-9,
            "adaptive p90={} vs 80s p90={}",
            med(&r.adaptive),
            med(&r.every_80s)
        );
    }
}
