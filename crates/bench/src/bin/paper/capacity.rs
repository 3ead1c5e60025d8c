//! Figs. 15–19: capacity estimation and probing
//! (`electrifi::experiments::capacity`).

use electrifi::experiments::{capacity, Scale};
use electrifi::PaperEnv;
use electrifi_bench::{fmt, render_table};
use simnet::stats::Ecdf;

/// Reproduce Fig. 15: BLE is a linear predictor of UDP throughput
/// (paper fit: BLE = 1.7 T - 0.65, normal residuals).
pub fn fig15(env: &PaperEnv, scale: Scale) {
    let r = capacity::fig15(env, scale);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|x| {
            vec![
                format!("{}-{}", x.a, x.b),
                fmt(x.throughput, 1),
                fmt(x.ble, 1),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 15 — per-link (T, BLE)",
            &["link", "T Mb/s", "BLE Mb/s"],
            &rows
        )
    );
    match r.fit {
        Some(fit) => {
            println!(
                "\nfit: BLE = {:.2} T + {:.2}  (paper: BLE = 1.70 T - 0.65), R^2 = {:.3}, n = {}",
                fit.slope, fit.intercept, fit.r2, fit.n
            );
            if let Some(norm) = r.residual_normality {
                println!(
                    "residuals: skew {:.2}, excess kurtosis {:.2}, looks_normal = {} (paper: residuals normal)",
                    norm.skewness,
                    norm.excess_kurtosis,
                    norm.looks_normal()
                );
            }
        }
        None => println!("not enough points for a fit"),
    }
}

/// Reproduce Fig. 16: capacity-estimation convergence vs probing rate
/// after a device reset (1/10/50/200 packets per second).
pub fn fig16(env: &PaperEnv, scale: Scale) {
    let r = capacity::fig16(env, scale);
    for ((a, b), traces) in &r.links {
        println!("Fig. 16 — link {a}-{b}: estimated capacity after reset");
        for t in traces {
            let pts = t.estimate.points();
            let first = pts.first().map(|p| p.1).unwrap_or(0.0);
            let last = pts.last().map(|p| p.1).unwrap_or(0.0);
            // Time to reach 90% of the final value.
            let target = 0.9 * last;
            let t90 = pts
                .iter()
                .find(|(_, v)| *v >= target)
                .map(|(t, _)| t.as_secs_f64() - pts[0].0.as_secs_f64());
            println!(
                "  {:>3} pkt/s: start {first:>6.1} -> final {last:>6.1} Mb/s, t90 = {} s",
                t.pkts_per_sec,
                t90.map(|v| format!("{v:.0}")).unwrap_or_else(|| "-".into()),
            );
        }
        println!("  (paper: all rates converge to the same value; higher rates converge faster)\n");
    }
}

/// Reproduce Fig. 17: pausing the probing does not lose the estimate —
/// devices keep channel-estimation statistics.
pub fn fig17(env: &PaperEnv, scale: Scale) {
    let r = capacity::fig17(env, scale);
    println!(
        "Fig. 17 — probing 20 pkt/s, paused at {:.0}s, resumed at {:.0}s\n",
        r.pause_at.as_secs_f64(),
        r.resume_at.as_secs_f64()
    );
    for ((a, b), series) in &r.links {
        let before = series
            .points()
            .iter()
            .rfind(|(t, _)| *t < r.pause_at)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        let after = series
            .points()
            .iter()
            .find(|(t, _)| *t >= r.resume_at)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        println!(
            "link {a}-{b}: estimate before pause {before:>6.1} Mb/s, first estimate after resume {after:>6.1} Mb/s"
        );
    }
    println!("\n(paper: the estimation resumes from its pre-pause value)");
}

/// Reproduce Fig. 18: probing with packets not larger than one PB caps
/// the estimated capacity at R1sym ~ 89.4 Mb/s.
pub fn fig18(env: &PaperEnv, scale: Scale) {
    let r = capacity::fig18(env, scale);
    println!(
        "Fig. 18 — 1 probe/s of various sizes on a good link; R1sym = {:.1} Mb/s\n",
        r.r1sym
    );
    for (bytes, series) in &r.sizes {
        let last = series.points().last().map(|p| p.1).unwrap_or(0.0);
        let capped = last <= r.r1sym * 1.02;
        println!(
            "  {bytes:>5} B probes -> final estimate {last:>6.1} Mb/s {}",
            if capped {
                "(capped at R1sym)"
            } else {
                "(above R1sym)"
            }
        );
    }
    println!(
        "\n(paper: 200 B and 520 B converge to ~89 Mb/s and stay; 521 B and 1300 B go higher)"
    );
}

/// Reproduce Fig. 19: CDF of capacity-estimation error for the adaptive
/// probing method vs fixed 5 s / 80 s probing, plus the overhead
/// reduction.
pub fn fig19(env: &PaperEnv, scale: Scale) {
    let r = capacity::fig19(env, scale);
    println!("Fig. 19 — estimation-error CDFs\n");
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>8}",
        "method", "median", "p90", "p99", "probes"
    );
    for (name, eval) in [
        ("our method", &r.adaptive),
        ("every 5 s", &r.every_5s),
        ("every 80 s", &r.every_80s),
    ] {
        let e = Ecdf::new(eval.errors_mbps.clone());
        println!(
            "{:>12} {:>10.2} {:>10.2} {:>10.2} {:>8}",
            name,
            e.median(),
            e.quantile(0.9),
            e.quantile(0.99),
            eval.probes
        );
    }
    println!(
        "\noverhead reduction vs 5 s probing: {:.0}% (paper: 32%)",
        100.0 * r.overhead_reduction
    );
}
