//! Figs. 3, 6 and 7: the spatial study (`electrifi::experiments::spatial`).

use electrifi::experiments::{spatial, Scale};
use electrifi::PaperEnv;
use electrifi_bench::{fmt, render_table};

/// Reproduce Fig. 3: WiFi vs PLC throughput mean/std per station pair,
/// plus the §4.1 headline statistics.
pub fn fig03(env: &PaperEnv, scale: Scale) {
    let r = spatial::fig3(env, scale);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|m| {
            vec![
                format!("{}-{}", m.a, m.b),
                fmt(m.air_m, 1),
                fmt(m.t_plc, 1),
                fmt(m.s_plc, 1),
                fmt(m.t_wifi, 1),
                fmt(m.s_wifi, 1),
                fmt(
                    if m.t_plc > 0.0 {
                        m.t_wifi / m.t_plc
                    } else {
                        f64::NAN
                    },
                    2,
                ),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 3 — WiFi vs PLC per pair (working hours)",
            &["pair", "air m", "T_P", "s_P", "T_W", "s_W", "T_W/T_P"],
            &rows,
        )
    );
    println!();
    println!(
        "PLC covers {:.0}% of WiFi-connected pairs (paper: 100%)",
        100.0 * r.plc_covers_wifi
    );
    println!(
        "WiFi covers {:.0}% of PLC-connected pairs (paper: 81%)",
        100.0 * r.wifi_covers_plc
    );
    println!(
        "PLC outperforms WiFi on {:.0}% of pairs (paper: 52%)",
        100.0 * r.plc_wins
    );
    println!(
        "max PLC gain {:.1}x (paper: 18x), max WiFi gain {:.1}x (paper: 12x)",
        r.max_plc_gain, r.max_wifi_gain
    );
    println!(
        "max sigma: WiFi {:.1} Mb/s (paper: 19.2), PLC {:.1} Mb/s (paper: 3.8)",
        r.max_sigma_wifi, r.max_sigma_plc
    );
}

/// Reproduce Fig. 6: PLC throughput asymmetry across link directions.
pub fn fig06(env: &PaperEnv, scale: Scale) {
    let r = spatial::fig6(env, scale);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .take(15)
        .map(|a| {
            vec![
                format!("{}-{}", a.x, a.y),
                fmt(a.t_xy, 1),
                fmt(a.t_yx, 1),
                fmt(a.ratio(), 2),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 6 — most asymmetric PLC links",
            &["link x-y", "T x->y", "T y->x", "ratio"],
            &rows,
        )
    );
    println!();
    println!(
        "{:.0}% of connected pairs show >1.5x asymmetry (paper: ~30%)",
        100.0 * r.frac_above_1_5
    );
}

/// Reproduce Fig. 7: throughput vs cable distance (AV and AV500) and
/// PBerr vs throughput.
pub fn fig07(env: &PaperEnv, scale: Scale) {
    let r = spatial::fig7(env, scale);
    for (name, rows) in [("HomePlug AV", &r.av), ("HomePlug AV500", &r.av500)] {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|d| {
                vec![
                    format!("{}-{}", d.a, d.b),
                    fmt(d.cable_m, 1),
                    fmt(d.throughput, 1),
                    fmt(d.pberr, 3),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &format!("Fig. 7 — {name}: throughput vs cable distance"),
                &["link", "cable m", "T Mb/s", "PBerr"],
                &table,
            )
        );
        let pts: Vec<(f64, f64)> = rows.iter().map(|d| (d.cable_m, d.throughput)).collect();
        if let Some(rho) = simnet::stats::spearman(&pts) {
            println!("distance-throughput Spearman rho = {rho:.2} (paper: clear degradation with spread)\n");
        }
    }
    let pts: Vec<(f64, f64)> = r.av.iter().map(|d| (d.throughput, d.pberr)).collect();
    if let Some(rho) = simnet::stats::spearman(&pts) {
        println!("AV PBerr-vs-throughput Spearman rho = {rho:.2} (paper: PBerr decreases as throughput grows)");
    }
}
