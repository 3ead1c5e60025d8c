//! Fig. 20: hybrid WiFi+PLC aggregation (`electrifi::experiments::hybrid`).

use electrifi::experiments::{hybrid, Scale};
use electrifi::PaperEnv;
use electrifi_bench::{fmt, render_table};

/// Reproduce Fig. 20: hybrid WiFi+PLC bandwidth aggregation — four-way
/// throughput comparison and file-download completion times.
pub fn fig20(env: &PaperEnv, scale: Scale) {
    let r = hybrid::fig20(env, scale);
    let d = &r.detail;
    println!("Fig. 20 (left) — link {}-{}:", d.link.0, d.link.1);
    println!("  WiFi only   : {:>6.1} Mb/s", d.wifi_only);
    println!("  PLC only    : {:>6.1} Mb/s", d.plc_only);
    println!(
        "  Round-robin : {:>6.1} Mb/s (2x slower medium = {:.1})",
        d.round_robin,
        2.0 * d.plc_only.min(d.wifi_only)
    );
    println!(
        "  Hybrid      : {:>6.1} Mb/s (sum of mediums = {:.1})",
        d.hybrid,
        d.plc_only + d.wifi_only
    );
    println!(
        "  jitter: hybrid {:.3} ms vs single {:.3} ms\n",
        d.hybrid_jitter_ms, d.single_jitter_ms
    );

    let rows: Vec<Vec<String>> = r
        .completions
        .iter()
        .map(|c| {
            vec![
                format!("{}-{}", c.link.0, c.link.1),
                fmt(c.wifi_s, 1),
                fmt(c.hybrid_s, 1),
                fmt(c.wifi_s / c.hybrid_s, 2),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!(
                "Fig. 20 (right) — {} MB download completion times",
                r.file_bytes / 1_000_000
            ),
            &["link", "WiFi s", "Hybrid s", "speedup"],
            &rows,
        )
    );
    println!("\n(paper: drastic decrease in completion times when using both mediums)");
}
