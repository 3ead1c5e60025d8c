//! Figs. 21–24: retransmissions and link metrics
//! (`electrifi::experiments::retrans`).

use electrifi::experiments::{retrans, Scale};
use electrifi::PaperEnv;
use electrifi_bench::{fmt, render_table};

/// Reproduce Fig. 21: broadcast-probe loss rates vs unicast link quality
/// — why broadcast ETX is uninformative on PLC.
pub fn fig21(env: &PaperEnv, scale: Scale) {
    let r = retrans::fig21(env, scale);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|x| {
            vec![
                format!("{}-{}", x.src, x.dst),
                if x.day { "day" } else { "night" }.into(),
                format!("{:.1e}", x.loss_rate),
                fmt(x.throughput, 1),
                fmt(x.pberr, 3),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 21 — broadcast loss vs unicast quality",
            &["link", "when", "loss", "T Mb/s", "PBerr"],
            &rows,
        )
    );
    let low = r.rows.iter().filter(|x| x.loss_rate < 1e-2).count();
    println!(
        "\n{}/{} observations below 1e-2 loss across links of very different quality",
        low,
        r.rows.len()
    );
    println!("(paper: wide quality range at ~1e-4 loss; only a few bad links exceed 1e-1 — ETX learns nothing)");
}

/// Reproduce Fig. 22: unicast ETX (U-ETX) vs BLE and vs PBerr.
pub fn fig22(env: &PaperEnv, scale: Scale) {
    let r = retrans::fig22(env, scale);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|x| {
            vec![
                format!("{}-{}", x.a, x.b),
                fmt(x.ble, 1),
                fmt(x.pberr, 4),
                fmt(x.uetx.mean, 3),
                fmt(x.uetx.std, 3),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 22 — U-ETX per link (sorted by BLE)",
            &["link", "BLE", "PBerr", "U-ETX", "std"],
            &rows,
        )
    );
    println!(
        "\nPearson rho(PBerr, U-ETX) = {:?} (paper: almost linear relationship)",
        r.rho_pberr_uetx.map(|v| (v * 100.0).round() / 100.0)
    );
}

/// Reproduce Fig. 23: sensitivity of link metrics to saturated
/// background traffic (the capture effect) on one pair but not another.
pub fn fig23(env: &PaperEnv, scale: Scale) {
    let r = retrans::fig23(env, scale);
    for (name, t) in [("insensitive", &r.insensitive), ("sensitive", &r.sensitive)] {
        println!(
            "Fig. 23 [{name}] probe {}-{} vs background {}-{}: BLE retention after activation = {}",
            t.probe_link.0,
            t.probe_link.1,
            t.background_link.0,
            t.background_link.1,
            fmt(t.ble_retention(), 2),
        );
        let p = t.pberr.stats();
        println!(
            "  PBerr over the run: mean {} max {}",
            fmt(p.mean(), 3),
            fmt(p.max(), 3)
        );
    }
    println!("\n(paper: BLE of the sensitive pair collapses and its PBerr explodes; the other pair is unaffected)");
}

/// Reproduce Fig. 24: 20-packet probe bursts remove the background-
/// traffic sensitivity of the link metrics.
pub fn fig24(env: &PaperEnv, scale: Scale) {
    let r = retrans::fig24(env, scale);
    println!(
        "Fig. 24 — probe {}-{} against background {}-{}:",
        r.single.probe_link.0,
        r.single.probe_link.1,
        r.single.background_link.0,
        r.single.background_link.1
    );
    println!(
        "  single 150 kb/s probes : BLE retention {}",
        fmt(r.single.ble_retention(), 2)
    );
    println!(
        "  20-packet bursts       : BLE retention {}",
        fmt(r.bursts.ble_retention(), 2)
    );
    println!("\n(paper: with bursts, BLE is no longer affected by background traffic)");
}
