//! `report` over an `out/` tree built by the code that writes each
//! artifact: `paper` run manifests (traced and untraced), a gated
//! campaign's `summary.json`, a serve `server.metrics.json` and BENCH
//! files of the committed baselines' shapes. Every section prints with
//! a known value, and damaged files print `unreadable` without a panic.

use electrifi_bench::gate::load_baseline;
use electrifi_bench::report::{self, BenchReport, ChannelBenchReport, SpanOverhead};
use electrifi_serve::server::{Bind, ServeConfig, Server};
use simnet::obs::RunManifest;
use std::fs;
use std::path::Path;
use std::process::Command;

fn run(bin: &str, args: &[&str], dir: &Path, envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(bin);
    cmd.args(args).current_dir(dir);
    for var in [
        "ELECTRIFI_TRACE",
        "ELECTRIFI_TRACE_SAMPLE",
        "ELECTRIFI_PROFILE",
    ] {
        cmd.env_remove(var);
    }
    let out = cmd.envs(envs.iter().copied()).output().expect("bin runs");
    assert!(
        out.status.code().is_some(),
        "{bin} died by a signal: {out:?}"
    );
    out
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) {
    fs::write(
        path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .expect("write");
}

/// Fill `root/out` with one artifact of every kind `report` reads.
fn build_fixture(root: &Path) {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = root.join("out");
    fs::create_dir_all(&out).expect("fixture dir");
    let paper = env!("CARGO_BIN_EXE_paper");
    assert!(run(paper, &["table3"], root, &[]).status.success());
    let traced = run(
        paper,
        &["fig09"],
        root,
        &[("ELECTRIFI_TRACE", "trace.json")],
    );
    assert!(traced.status.success());
    let gated = repo.join("scenarios/disturbance-campaign.json");
    let campaign = run(
        env!("CARGO_BIN_EXE_campaign"),
        &[gated.to_str().expect("utf-8 path"), "--out", "out/gated"],
        root,
        &[],
    );
    assert!(campaign.status.success());

    let mut config = ServeConfig::new(Bind::Unix(root.join("ctl.sock")), out.join("serve"));
    config.workers = 1;
    let server = Server::start(config).expect("server starts");
    server.shutdown(false);
    server.wait().expect("clean stop");

    // The baselines predate the span section; borrow the traced run's
    // profile for it.
    let fig09: RunManifest =
        serde_json::from_str(&fs::read_to_string(out.join("fig09.manifest.json")).expect("read"))
            .expect("fig09 manifest parses");
    let mut mac: BenchReport = load_baseline("mac").expect("mac baseline");
    mac.span_overhead = Some(SpanOverhead {
        window_sim_s: 16.0,
        disabled_steps_per_sec: 1e6,
        enabled_steps_per_sec: 9.9e5,
        ratio: 0.99,
        digest_match: true,
        spans: fig09.profile.expect("traced fig09 carries a profile"),
    });
    write_json(&out.join("BENCH_mac.json"), &mac);
    let channel: ChannelBenchReport = load_baseline("channel").expect("channel baseline");
    write_json(&out.join("BENCH_channel.json"), &channel);
    fs::copy(repo.join("out/fig18.txt"), out.join("fig18.txt")).expect("fig18 dump");
}

#[test]
fn report_prints_every_section_and_survives_damaged_files() {
    let root = std::env::temp_dir().join(format!("efi-report-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    build_fixture(&root);
    let out = root.join("out");

    let r = report::render(&out);
    assert_eq!(r.unreadable, 0, "{}", r.text);
    for needle in [
        "== manifests ==",
        "    table3  seed=0  scale=paper",
        "     fig09  seed=2015  scale=paper",
        "top spans by self-time",
        "== campaigns ==",
        "disturbance-gated: 1 run(s)",
        "disturbance-demo-s2015-disturbed stations= 19  plc_links= 174",
        "== disturbance verdicts ==",
        "1 gated run(s), 1 passed, 0 failed",
        "  recovery-within                    1      1",
        "== serve control plane ==",
        "workers: spawned=1  deaths=0",
        "== bench_mac ==",
        "mac_loop: 3.24x  (239,118 -> 775,141 steps/s)  allocs/window 162144 -> 0",
        "spans: enabled/disabled ratio 0.990",
        "== bench_channel ==",
        "speedup=137  cache_hit_rate=1  cold_rebuild_us=29.7  digest_match=true",
        "== fig18 ==",
        "1300 B probes -> final estimate",
    ] {
        assert!(
            r.text.contains(needle),
            "missing {needle:?} in:\n{}",
            r.text
        );
    }
    let bin = run(env!("CARGO_BIN_EXE_report"), &[], &root, &[]);
    assert!(bin.status.success());
    // The bin reads `out/` relative to where it runs.
    let relative = r.text.replace(&format!("{}/", out.display()), "out/");
    assert_eq!(String::from_utf8_lossy(&bin.stdout), relative);

    // A truncated manifest and a garbage summary are reported, and
    // everything else still is.
    let manifest = fs::read(out.join("table3.manifest.json")).expect("read");
    fs::write(
        out.join("cut.manifest.json"),
        &manifest[..manifest.len() / 2],
    )
    .expect("write");
    fs::create_dir_all(out.join("garbage")).expect("mkdir");
    fs::write(out.join("garbage/summary.json"), "{\"campaign\": 7, ").expect("write");
    let r = report::render(&out);
    assert_eq!(r.unreadable, 2, "{}", r.text);
    let cut = format!("{}: unreadable (", out.join("cut.manifest.json").display());
    let garbage = format!(
        "{}: unreadable (",
        out.join("garbage/summary.json").display()
    );
    for needle in [
        cut.as_str(),
        garbage.as_str(),
        "== bench_channel ==",
        "== fig18 ==",
    ] {
        assert!(
            r.text.contains(needle),
            "missing {needle:?} in:\n{}",
            r.text
        );
    }
    let bin = run(env!("CARGO_BIN_EXE_report"), &[], &root, &[]);
    assert_eq!(bin.status.code(), Some(1), "{bin:?}");
    assert!(String::from_utf8_lossy(&bin.stdout).contains("out/cut.manifest.json: unreadable ("));
    let _ = fs::remove_dir_all(&root);
}
