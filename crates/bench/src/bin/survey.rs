//! `survey` — characterize every link of the floor the way a deployment
//! tool would: channel statistics, steady-state metrics, link classes and
//! probe plans. Optionally dumps machine-readable JSON.
//!
//! ```sh
//! cargo run --release -p electrifi-bench --bin survey            # table
//! cargo run --release -p electrifi-bench --bin survey -- --json  # JSON lines
//! cargo run --release -p electrifi-bench --bin survey -- --seed 7
//! ```

use electrifi::analysis::LinkClass;
use electrifi::experiments::Scale;
use electrifi::experiments::PAPER_SEED;
use electrifi::guidelines::ProbePlan;
use electrifi::{LinkProbeSim, PaperEnv};
use electrifi_bench::{fmt, render_table, RunGuard};
use plc_phy::characterization::characterize;
use plc_phy::estimation::EstimatorConfig;
use serde::Serialize;
use simnet::time::Time;

#[derive(Serialize)]
struct SurveyRow {
    src: u16,
    dst: u16,
    cable_m: f64,
    mean_snr_db: f64,
    freq_selectivity_db: f64,
    coherence_bw_mhz: f64,
    notches: usize,
    ble_mbps: f64,
    pberr: f64,
    throughput_mbps: f64,
    class: String,
    probe_interval_s: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(PAPER_SEED);
    let env = PaperEnv::new(seed);
    let run = RunGuard::begin("survey", seed, Scale::Paper);
    let now = Time::from_hours(10);

    let mut rows = Vec::new();
    for (a, b) in env.plc_pairs() {
        let channel = env.plc_channel(a, b);
        let spec = channel.spectrum(PaperEnv::dir(a, b), now);
        let c = characterize(channel.plan(), &spec);
        if c.mean_snr_db < -2.0 {
            continue; // modems would not associate
        }
        let mut sim = LinkProbeSim::new(
            channel,
            PaperEnv::dir(a, b),
            EstimatorConfig::default(),
            seed ^ 0x50,
        );
        let steady = sim.warmup(now, 6);
        let ble = sim.ble_avg();
        let class = LinkClass::of_ble(ble);
        let plan = ProbePlan::recommended(ble, false);
        rows.push(SurveyRow {
            src: a,
            dst: b,
            cable_m: env.testbed.cable_distance_m(a, b).unwrap_or(f64::NAN),
            mean_snr_db: c.mean_snr_db,
            freq_selectivity_db: c.freq_selectivity_db,
            coherence_bw_mhz: c.coherence_bw_mhz,
            notches: c.notches,
            ble_mbps: ble,
            pberr: sim.pberr_cumulative().unwrap_or(0.0),
            throughput_mbps: sim.throughput_now(steady),
            class: format!("{class:?}"),
            probe_interval_s: plan.interval.as_secs_f64(),
        });
    }
    rows.sort_by(|x, y| x.ble_mbps.partial_cmp(&y.ble_mbps).expect("finite"));

    if json {
        for r in &rows {
            println!("{}", serde_json::to_string(r).expect("serializable"));
        }
        return;
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}->{}", r.src, r.dst),
                fmt(r.cable_m, 0),
                fmt(r.mean_snr_db, 1),
                fmt(r.freq_selectivity_db, 1),
                fmt(r.coherence_bw_mhz, 2),
                r.notches.to_string(),
                fmt(r.ble_mbps, 1),
                fmt(r.pberr, 3),
                fmt(r.throughput_mbps, 1),
                r.class.clone(),
                fmt(r.probe_interval_s, 0),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!("Floor survey (seed {seed}, weekday 10:00)"),
            &[
                "link", "m", "SNR", "sel", "Bc MHz", "notch", "BLE", "PBerr", "T", "class",
                "probe s"
            ],
            &table,
        )
    );
    println!("\n{} usable directed PLC links.", rows.len());
    run.finish();
}
