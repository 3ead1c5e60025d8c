//! Beyond the figures: Table 3's guidelines, the design-choice
//! ablations and the vendor comparison.

use electrifi::experiments::temporal::cycle_trace;
use electrifi::experiments::{retrans, Scale};
use electrifi::guidelines::{table3 as guidelines, ProbePlan};
use electrifi::PaperEnv;
use electrifi_bench::{fmt, render_table};
use plc_mac::sim::{Flow, PlcSim, SimConfig};
use plc_phy::estimation::EstimatorConfig;
use plc_phy::PlcTechnology;
use simnet::stats::RunningStats;
use simnet::time::{Duration, Time};
use simnet::traffic::TrafficSource;

/// Print Table 3 (the link-metric estimation guidelines) from the typed
/// policy data, with a derived probe plan per link class.
pub fn table3() {
    println!("Table 3 — guidelines for PLC link-metric estimation\n");
    for g in guidelines() {
        println!(
            "[{}]\n  {}\n  (sections {})\n",
            g.policy, g.guideline, g.sections
        );
    }
    println!("Derived probe plans:");
    for (label, ble) in [
        ("bad (BLE 40)", 40.0),
        ("average (BLE 80)", 80.0),
        ("good (BLE 120)", 120.0),
    ] {
        let p = ProbePlan::recommended(ble, false);
        let pc = ProbePlan::recommended(ble, true);
        println!(
            "  {label:<18}: every {:>3.0} s, {} B probes, bursts x{} (x{} when contended)",
            p.interval.as_secs_f64(),
            p.probe_bytes,
            p.burst_len,
            pc.burst_len
        );
    }
}

/// Short-term fairness: per-100ms delivered-packet share of station A in
/// a 2-station saturated contention; returns (jain-like imbalance, jitter
/// of A's inter-delivery gaps in ms).
fn contention_run(env: &PaperEnv, disable_deferral: bool) -> (f64, f64) {
    let outlets = [
        (1u16, env.testbed.station(1).outlet),
        (2u16, env.testbed.station(2).outlet),
        (6u16, env.testbed.station(6).outlet),
    ];
    let cfg = SimConfig {
        seed: 77,
        disable_deferral,
        ..SimConfig::default()
    };
    let mut sim = PlcSim::new(cfg, &env.testbed.grid, &outlets);
    let fa = sim.add_flow(Flow::unicast(1, 2, TrafficSource::iperf_saturated()));
    let fb = sim.add_flow(Flow::unicast(6, 2, TrafficSource::iperf_saturated()));
    sim.run_until(Time::from_secs(10));
    let da = sim.take_delivered(fa);
    let db = sim.take_delivered(fb);
    // Windowed share imbalance.
    let mut shares = RunningStats::new();
    let bins = 100;
    let mut ca = vec![0u32; bins];
    let mut cb = vec![0u32; bins];
    for d in &da {
        let idx = (d.delivered.as_millis() / 100) as usize;
        if idx < bins {
            ca[idx] += 1;
        }
    }
    for d in &db {
        let idx = (d.delivered.as_millis() / 100) as usize;
        if idx < bins {
            cb[idx] += 1;
        }
    }
    for k in 0..bins {
        let tot = ca[k] + cb[k];
        if tot > 0 {
            shares.push(ca[k] as f64 / tot as f64);
        }
    }
    // Jitter of station A's deliveries.
    let mut gaps = RunningStats::new();
    for w in da.windows(2) {
        gaps.push((w[1].delivered - w[0].delivered).as_millis_f64());
    }
    (shares.std(), gaps.std())
}

/// Ablation benches for the design choices DESIGN.md §5 calls out.
///
/// 1. **Deferral counter** (1901 CSMA/CA vs 802.11-style backoff): the
///    deferral counter makes stations back off after merely *sensing*
///    the medium busy, which produces short-term unfairness and jitter
///    (paper §2.2 and its references \[19\], \[21\]).
/// 2. **Capture effect off**: without it, short probes colliding with
///    long saturated frames are simply lost, and the Fig. 23 link-metric
///    sensitivity disappears.
/// 3. **Burst probing** is the Fig. 24 entry (`paper fig24`).
pub fn ablation(env: &PaperEnv, scale: Scale) {
    println!("Ablation 1 — deferral counter (2 saturated stations, 10 s):");
    let (imb_1901, jit_1901) = contention_run(env, false);
    let (imb_dcf, jit_dcf) = contention_run(env, true);
    println!(
        "  1901 CSMA/CA (deferral ON) : share std {imb_1901:.3}, delivery jitter {jit_1901:.2} ms"
    );
    println!(
        "  802.11-style (deferral OFF): share std {imb_dcf:.3}, delivery jitter {jit_dcf:.2} ms"
    );
    println!("  (expected: the deferral counter raises short-term share variance / jitter)\n");

    println!("Ablation 2 — capture effect (Fig. 23 sensitive pair):");
    let with_capture = retrans::sensitivity_run(env, (6, 11), (1, 0), false, scale);
    // The capture effect is always on in the MAC. For the ablation we
    // compare against burst probing, which neutralizes capture the way
    // the paper's fix does.
    let with_bursts = retrans::sensitivity_run(env, (6, 11), (1, 0), true, scale);
    println!(
        "  single probes + capture : BLE retention {:.2}",
        with_capture.ble_retention()
    );
    println!(
        "  burst probes (the fix)  : BLE retention {:.2}",
        with_bursts.ble_retention()
    );
}

/// Vendor comparison: the paper's §6.2 future work — "future work should
/// focus on comparing link-metric estimations for different vendors and
/// technologies". Run the same cycle-scale experiment with three
/// estimator personalities on the same physical channels.
pub fn vendors(env: &PaperEnv, scale: Scale) {
    let duration = match scale {
        Scale::Paper => Duration::from_secs(240),
        Scale::Quick => Duration::from_secs(12),
    };
    let vendors: [(&str, EstimatorConfig); 3] = [
        ("intellon", EstimatorConfig::vendor_intellon()),
        ("qca-av500", EstimatorConfig::vendor_qca()),
        ("conservative", EstimatorConfig::vendor_conservative()),
    ];
    let links: [(u16, u16); 4] = [(2, 6), (1, 2), (2, 11), (10, 11)];
    let mut rows = Vec::new();
    for (a, b) in links {
        for (name, cfg) in &vendors {
            let tech = if *name == "qca-av500" {
                PlcTechnology::HpAv500
            } else {
                PlcTechnology::HpAv
            };
            let t = cycle_trace(env, a, b, tech, *cfg, duration);
            let s = t.ble.stats();
            rows.push(vec![
                format!("{a}-{b}"),
                name.to_string(),
                fmt(s.mean(), 1),
                fmt(s.std(), 2),
                fmt(t.mean_alpha_ms(), 0),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            "Vendor comparison — cycle-scale BLE statistics per estimator personality",
            &["link", "vendor", "BLE", "std", "alpha ms"],
            &rows,
        )
    );
    println!("\n(expected: aggressive vendors advertise more BLE with more churn; the QCA quirk adds deep dips on error bursts)");
}
