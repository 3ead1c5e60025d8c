//! Figs. 4 and 9–14: the temporal study (`electrifi::experiments::temporal`).

use electrifi::experiments::{temporal, Scale};
use electrifi::PaperEnv;
use electrifi_bench::{fmt, render_table};

/// Reproduce Fig. 4: concurrent temporal variation of WiFi and PLC
/// capacity for a good and an average link over hours.
pub fn fig04(env: &PaperEnv, scale: Scale) {
    let r = temporal::fig4(env, scale);
    for (name, link) in [("good", &r.good), ("average", &r.average)] {
        let p = link.plc.stats();
        let w = link.wifi.stats();
        println!(
            "Fig. 4 [{name} link {}-{}]: PLC capacity mean={} std={} cv={} | WiFi mean={} std={} cv={}",
            link.a, link.b,
            fmt(p.mean(), 1), fmt(p.std(), 1), fmt(p.cv(), 3),
            fmt(w.mean(), 1), fmt(w.std(), 1), fmt(w.cv(), 3),
        );
        // Print a decimated trace for plotting.
        let n = link.plc.len();
        let step = (n / 24).max(1);
        for (i, ((tp, vp), (_, vw))) in link.plc.points().iter().zip(link.wifi.points()).enumerate()
        {
            if i % step == 0 {
                println!(
                    "  t={:>8.0}s  PLC={:>6.1}  WiFi={:>6.1}",
                    tp.as_secs_f64(),
                    vp,
                    vw
                );
            }
        }
    }
    println!("(paper: good link varies much more on WiFi; both vary on the average link)");
}

/// Reproduce Fig. 9: invariance-scale variation of per-frame BLEs
/// captured from SoF delimiters (periodicity = half mains cycle, 10 ms).
pub fn fig09(env: &PaperEnv, scale: Scale) {
    let r = temporal::fig9(env, scale);
    println!(
        "Fig. 9 — per-frame BLEs under saturation (expected period {})\n",
        r.expected_period
    );
    for (a, b, recs) in &r.links {
        println!("link {a}-{b}: {} frames captured", recs.len());
        for (t, slot, ble) in recs.iter().take(40) {
            println!("  t={:>9.4}s slot={slot} BLEs={ble:>6.1}", t.as_secs_f64());
        }
        // Per-slot summary: the sawtooth the paper plots.
        let mut per_slot: Vec<Vec<f64>> = vec![Vec::new(); 6];
        for &(_, slot, ble) in recs {
            per_slot[slot as usize % 6].push(ble);
        }
        for (s, v) in per_slot.iter().enumerate() {
            if !v.is_empty() {
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                println!("  slot {s}: mean BLEs {mean:.1} over {} frames", v.len());
            }
        }
        println!();
    }
}

/// Reproduce Fig. 10: cycle-scale BLE traces for links of various
/// qualities, including the HPAV500 vendor-quirk panel.
pub fn fig10(env: &PaperEnv, scale: Scale) {
    let r = temporal::fig10(env, scale);
    println!("Fig. 10 — cycle-scale BLE variation (night, fixed electrical structure)\n");
    for t in &r.traces {
        let s = t.ble.stats();
        println!(
            "link {:>2}-{:<2} [{:?}]: mean BLE {} Mb/s, std {}, updates alpha {} ms over {} samples",
            t.a,
            t.b,
            t.technology,
            fmt(s.mean(), 1),
            fmt(s.std(), 2),
            fmt(t.mean_alpha_ms(), 0),
            t.ble.len(),
        );
    }
    println!("\n(paper: bad links update tone maps often with high std; good links hold maps for seconds)");
}

/// Reproduce Fig. 11: tone-map update inter-arrival (alpha) and BLE std
/// vs link quality across the testbed.
pub fn fig11(env: &PaperEnv, scale: Scale) {
    let r = temporal::fig11(env, scale);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|x| {
            vec![
                format!("{}-{}", x.a, x.b),
                fmt(x.avg_ble, 1),
                fmt(x.alpha_ms, 0),
                fmt(x.ble_std, 2),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 11 — links sorted by increasing average BLE",
            &["link", "BLE Mb/s", "alpha ms", "std BLE"],
            &rows,
        )
    );
    println!();
    println!(
        "Spearman rho(BLE, alpha) = {:?} (paper: positive — good links update less often)",
        r.rho_ble_alpha.map(|v| (v * 100.0).round() / 100.0)
    );
    println!(
        "Spearman rho(BLE, std)   = {:?} (paper: negative — good links vary less)",
        r.rho_ble_std.map(|v| (v * 100.0).round() / 100.0)
    );
}

/// Reproduce Fig. 12: random-scale variation over two days, with the
/// building-wide 9 pm lights-off step.
pub fn fig12(env: &PaperEnv, scale: Scale) {
    let r = temporal::fig12(env, scale);
    for (name, trace, main_series) in [
        (
            "15-16 (throughput)",
            &r.link_15_16,
            &r.link_15_16.throughput,
        ),
        ("0-1 (BLE)", &r.link_0_1, &r.link_0_1.ble),
    ] {
        println!("Fig. 12 — link {name}, 2 days at 1-minute averages");
        let n = main_series.len();
        let step = (n / 48).max(1);
        for (i, (t, v)) in main_series.points().iter().enumerate() {
            if i % step == 0 {
                let hour = t.hour_of_day();
                let p = trace
                    .pberr
                    .points()
                    .iter()
                    .find(|(tp, _)| tp >= t)
                    .map(|(_, v)| *v)
                    .unwrap_or(f64::NAN);
                println!(
                    "  day {} {:>5.1}h  metric={:>6.1}  PBerr={}",
                    t.day_index(),
                    hour,
                    v,
                    fmt(p, 3)
                );
            }
        }
        // Quantify the 9 pm step: mean in the hour before vs after 21:00.
        let mut before = simnet::stats::RunningStats::new();
        let mut after = simnet::stats::RunningStats::new();
        for (t, v) in main_series.points() {
            let h = t.hour_of_day();
            if (20.0..21.0).contains(&h) {
                before.push(*v);
            } else if (21.0..22.0).contains(&h) {
                after.push(*v);
            }
        }
        println!(
            "  21:00 lights-off step: {} -> {} (paper: visible channel change)\n",
            fmt(before.mean(), 1),
            fmt(after.mean(), 1)
        );
    }
}

/// Reproduce Fig. 13: two weeks of hourly BLE for a good link, weekday
/// vs weekend profiles with error bars.
pub fn fig13(env: &PaperEnv, scale: Scale) {
    let r = temporal::weekly(env, 1, 8, scale);
    let table = |rows: &[(u32, f64, f64)]| -> Vec<Vec<String>> {
        rows.iter()
            .map(|(h, m, s)| vec![format!("{h:02}:00"), fmt(*m, 1), fmt(*s, 2)])
            .collect()
    };
    print!(
        "{}",
        render_table(
            "Fig. 13 — good link 1-8, weekday hours (BLE mean / std)",
            &["hour", "BLE", "std"],
            &table(&r.weekday_by_hour),
        )
    );
    print!(
        "{}",
        render_table(
            "Fig. 13 — good link 1-8, weekend hours",
            &["hour", "BLE", "std"],
            &table(&r.weekend_by_hour),
        )
    );
    println!("(paper: good link swings only a few Mb/s with the working day; weekends flat)");
}

/// Reproduce Fig. 14: two weeks of BLE and throughput for a bad link —
/// larger, activity-driven swings than the good link of Fig. 13.
pub fn fig14(env: &PaperEnv, scale: Scale) {
    let r = temporal::weekly(env, 2, 11, scale);
    let rows: Vec<Vec<String>> = r
        .weekday_by_hour
        .iter()
        .map(|(h, m, s)| vec![format!("{h:02}:00"), fmt(*m, 1), fmt(*s, 2)])
        .collect();
    print!(
        "{}",
        render_table(
            "Fig. 14 — bad link 2-11, weekday hours (BLE mean / std)",
            &["hour", "BLE", "std"],
            &rows,
        )
    );
    let day_swing = {
        let means: Vec<f64> = r.weekday_by_hour.iter().map(|x| x.1).collect();
        let max = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        max - min
    };
    println!(
        "\nweekday diurnal swing: {} Mb/s (paper: bad links swing far more than good ones)",
        fmt(day_swing, 1)
    );
    let thr = r.trace.throughput.stats();
    println!(
        "throughput over the fortnight: mean {} Mb/s, std {}",
        fmt(thr.mean(), 1),
        fmt(thr.std(), 2)
    );
}
