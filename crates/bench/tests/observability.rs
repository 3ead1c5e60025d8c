//! Workspace-level guarantees of the observability layer.
//!
//! The load-bearing invariant: **observation is inert**. Attaching a
//! sink, recording metrics, or snapshotting the registry must never
//! change what a simulation computes — the same seed must produce
//! bit-identical outputs with observability on and off, and two
//! same-seed runs must produce byte-identical metrics snapshots. A
//! traced `paper` run also records its span profile in its manifest.

use electrifi::experiments::{capacity, temporal, Scale, PAPER_SEED};
use electrifi::PaperEnv;
use simnet::obs::span::{self, SpanConfig};
use simnet::obs::{self, MetricsSnapshot, Obs, ObsEvent, ObsSink, RunManifest};
use std::cell::RefCell;
use std::rc::Rc;

/// Keeps every event, in emission order, so the Fig. 9 test can read
/// back the `plc.mac` events its MAC runs recorded.
#[derive(Default)]
struct VecSink(Vec<ObsEvent>);

impl ObsSink for VecSink {
    fn record(&mut self, ev: &ObsEvent) {
        self.0.push(ev.clone());
    }
}

/// Bit-exact estimated-BLE trajectories: per link, per probing rate, a
/// list of `(time_ns, ble_bits)` samples (`f64::to_bits` so comparisons
/// are exact).
type Trajectories = Vec<((u16, u16), Vec<Vec<(u64, u64)>>)>;

/// Run the Fig. 16 convergence experiment under `obs` and return the
/// estimated-BLE trajectories plus the final metrics snapshot.
fn fig16_run(obs: Obs) -> (Trajectories, MetricsSnapshot) {
    let trajectories = obs::with_default(obs.clone(), || {
        let env = PaperEnv::new(PAPER_SEED);
        let r = capacity::fig16(&env, Scale::Quick);
        r.links
            .iter()
            .map(|(link, traces)| {
                let per_rate: Vec<Vec<(u64, u64)>> = traces
                    .iter()
                    .map(|t| {
                        t.estimate
                            .points()
                            .iter()
                            .map(|&(time, ble)| (time.as_nanos(), ble.to_bits()))
                            .collect()
                    })
                    .collect();
                (*link, per_rate)
            })
            .collect()
    });
    (trajectories, obs.registry().snapshot())
}

/// Two same-seed Fig. 16 runs repeat their trajectories and metrics
/// snapshot byte for byte, although the second traces every span:
/// spans, the estimator's `estimator.replay` among them, are bit-inert.
/// That span opens once per replay, which follows a tone-map
/// regeneration or a full log (4096 frames), never per frame.
#[test]
fn same_seed_fig16_runs_repeat_trajectories_and_snapshots() {
    let (first, snap_first) = fig16_run(Obs::new());
    let ((second, snap_second), report) =
        span::scoped(SpanConfig::traced(1), || fig16_run(Obs::new()));
    assert_eq!(first, second, "same-seed BLE trajectories diverged");
    // The metrics snapshot must repeat byte for byte through JSON
    // serialization.
    let a = serde_json::to_string_pretty(&snap_first).expect("serialize");
    let b = serde_json::to_string_pretty(&snap_second).expect("serialize");
    assert_eq!(a, b, "same-seed metrics snapshots must be byte-identical");
    // The run did real work and the registry saw it.
    assert!(snap_first.counter("sim.events_fired") > 0);
    assert!(snap_first.counter("core.probe.resets") > 0);
    let replays = report.get("estimator.replay").expect("replay span").count;
    let regens = snap_second.counter("core.probe.tonemap_regens");
    let frames = snap_second.counter("core.probe.frames");
    assert!(replays > 0);
    assert!(
        replays <= regens + frames / 4096,
        "{replays} replays for {regens} regenerations and {frames} frames"
    );
}

/// Run Fig. 9 (a saturated `PlcSim` pair per link, on the calling
/// thread) under `obs` and return its serialized result.
fn fig9_run(obs: Obs) -> String {
    obs::with_default(obs, || {
        let env = PaperEnv::new(PAPER_SEED);
        let r = temporal::fig9(&env, Scale::Paper);
        serde_json::to_string(&r).expect("serialize")
    })
}

#[test]
fn recording_mac_events_leaves_fig9_unchanged() {
    let sink = Rc::new(RefCell::new(VecSink::default()));
    let with_sink = fig9_run(Obs::with_sink_handle(sink.clone()));
    let without = fig9_run(Obs::new());
    assert_eq!(
        with_sink, without,
        "recording MAC events changed the Fig. 9 output"
    );
    let events = &sink.borrow().0;
    assert!(
        events.iter().any(|ev| ev.component == "plc.mac"),
        "the sink recorded no plc.mac event ({} events in total)",
        events.len()
    );
}

/// Run `paper fig09` in `dir` (tracing to `dir/trace.json` when `traced`)
/// and read back the manifest it wrote.
fn fig9_manifest(dir: &std::path::Path, traced: bool) -> RunManifest {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("run dir");
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_paper"));
    cmd.arg("fig09").current_dir(dir);
    for var in [
        "ELECTRIFI_TRACE",
        "ELECTRIFI_TRACE_SAMPLE",
        "ELECTRIFI_PROFILE",
    ] {
        cmd.env_remove(var);
    }
    if traced {
        cmd.env("ELECTRIFI_TRACE", "trace.json");
    }
    let out = cmd.output().expect("paper runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("out/fig09.manifest.json")).expect("manifest");
    serde_json::from_str(&text).expect("manifest parses as RunManifest")
}

/// A traced run carries a span profile in its manifest (and writes the
/// trace); an untraced one carries none.
#[test]
fn traced_paper_run_fills_the_manifest_profile() {
    let root = std::env::temp_dir().join(format!("efi-obs-profile-{}", std::process::id()));
    let traced = fig9_manifest(&root.join("traced"), true);
    let profile = traced.profile.expect("a traced run carries a profile");
    assert!(!profile.spans.is_empty(), "the profile lists no spans");
    assert!(root.join("traced/trace.json").is_file());
    let untraced = fig9_manifest(&root.join("untraced"), false);
    assert!(untraced.profile.is_none());
    let _ = std::fs::remove_dir_all(&root);
}
