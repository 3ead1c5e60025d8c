//! Probing planner: apply the paper's Table 3 guidelines to a live
//! network — derive per-link probe plans from measured BLE (the
//! interval is the §7.3 quality class), and quantify the
//! accuracy/overhead tradeoff.
//!
//! ```sh
//! cargo run --release --example probing_planner
//! ```

use electrifi::experiments::temporal::cycle_trace;
use electrifi::experiments::PAPER_SEED;
use electrifi::guidelines::ProbePlan;
use electrifi::PaperEnv;
use hybrid1905::probing::{evaluate_policy, ProbingPolicy};
use plc_phy::estimation::EstimatorConfig;
use plc_phy::PlcTechnology;
use simnet::stats::Ecdf;
use simnet::time::Duration;

fn main() {
    let env = PaperEnv::new(PAPER_SEED);
    println!("Probing planner over network A (paper §7.3 method)\n");

    // Collect short cycle-scale traces and plan.
    let pairs: Vec<(u16, u16)> = vec![
        (1, 2),
        (1, 6),
        (5, 8),
        (9, 10),
        (0, 3),
        (4, 7),
        (2, 11),
        (3, 9),
    ];
    let mut traces = Vec::new();
    println!(
        "{:>7} {:>10} {:>10} {:>7} {:>6}",
        "link", "BLE Mb/s", "interval", "bytes", "burst"
    );
    for (a, b) in pairs {
        let trace = cycle_trace(
            &env,
            a,
            b,
            PlcTechnology::HpAv,
            EstimatorConfig::default(),
            Duration::from_secs(12),
        );
        let ble = trace.ble.stats().mean();
        let plan = ProbePlan::recommended(ble, false);
        println!(
            "{:>4}-{:<2} {ble:>10.1} {:>8.0} s {:>7} {:>6}",
            a,
            b,
            plan.interval.as_secs_f64(),
            plan.probe_bytes,
            plan.burst_len,
        );
        traces.push(trace.ble);
    }

    // Evaluate the tradeoff over the collected traces.
    let ours = evaluate_policy(ProbingPolicy::paper_adaptive(), &traces);
    let base = evaluate_policy(ProbingPolicy::Fixed(Duration::from_secs(5)), &traces);
    let slow = evaluate_policy(ProbingPolicy::Fixed(Duration::from_secs(80)), &traces);
    println!("\nAccuracy/overhead (paper Fig. 19):");
    for (name, eval) in [
        ("our method", &ours),
        ("every 5 s", &base),
        ("every 80 s", &slow),
    ] {
        let ecdf = Ecdf::new(eval.errors_mbps.clone());
        println!(
            "  {name:<11}: probes={:<5} median err={:.2} Mb/s  p90 err={:.2} Mb/s",
            eval.probes,
            ecdf.median(),
            ecdf.quantile(0.9),
        );
    }
    println!(
        "\nOverhead reduction vs 5 s probing: {:.0}% (paper: 32%).",
        100.0 * ours.overhead_reduction_vs(&base)
    );
}
