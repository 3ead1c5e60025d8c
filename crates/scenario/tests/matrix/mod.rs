//! The determinism matrix's shared harness: one 4-run campaign, its
//! reference artifacts, and one function per way of re-running it.
//!
//! Every row returns the campaign's artifacts (`summary.json` and each
//! `<run>.manifest.json`), and [`assert_reproduces`] requires them to
//! equal the reference byte-for-byte. `serve/tests/invariance.rs` walks
//! every row (plus the served ones) in one table; the per-row tests in
//! this crate and in `serve_e2e.rs` call single rows through the same
//! functions. Each test binary uses a subset of it.
#![allow(dead_code)]

use electrifi_scenario::checkpoint::{
    run_campaign_monitored_opts, CampaignOutcome, CheckpointOptions, CheckpointStats,
    CHECKPOINT_FILE,
};
use electrifi_scenario::{
    run_campaign, write_artifacts, CampaignSpec, CampaignSummary, ExecOptions, ScenarioError,
    TelemetryOptions,
};
use simnet::obs::span::{self, SpanConfig};
use simnet::threads::THREADS_ENV;
use std::fs;
use std::path::{Path, PathBuf};

/// 2 generated scenarios × 2 seeds: four 2 s probing runs.
pub const CAMPAIGN: &str = r#"{
    "name": "matrix",
    "scenarios": [
        {"name": "gen-a", "grid": {"generator": {
            "floors": 1, "boards_per_floor": 1,
            "offices_per_board": 3, "stations_per_board": 2}}},
        {"name": "gen-b", "grid": {"generator": {
            "floors": 1, "boards_per_floor": 2,
            "offices_per_board": 2, "stations_per_board": 2}}}
    ],
    "seeds": [1, 2],
    "workloads": [
        {"name": "w", "duration_s": 2.0, "sample_ms": 500, "max_pairs": 2}
    ],
    "experiments": ["probing"]
}"#;
pub const RUNS: usize = 4;

/// `(file name, bytes)` of every campaign artifact, sorted by name.
pub type Artifacts = Vec<(String, Vec<u8>)>;

pub fn spec() -> CampaignSpec {
    CampaignSpec::from_json_str(CAMPAIGN, Path::new(".")).expect("valid campaign")
}

/// A fresh, empty directory under the system temp dir.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("efi-matrix-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Write `summary`'s artifacts into `dir` and read them back.
pub fn written(summary: &CampaignSummary, dir: &Path) -> Artifacts {
    write_artifacts(summary, dir).expect("write artifacts");
    let mut out: Artifacts = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n == "summary.json" || n.ends_with(".manifest.json"))
        .map(|n| (n.clone(), fs::read(dir.join(&n)).expect("read artifact")))
        .collect();
    out.sort();
    out
}

/// The reference: `run_campaign` on 1 worker, untraced.
pub fn reference(dir: &Path) -> Artifacts {
    let summary = run_campaign(&spec(), 1, None).expect("reference runs");
    let want = written(&summary, dir);
    assert_eq!(want.len(), RUNS + 1, "manifests + summary.json");
    want
}

/// `got` must hold the reference's files, each with the same bytes.
pub fn assert_reproduces(row: &str, got: &Artifacts, want: &Artifacts) {
    let names = |a: &Artifacts| a.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(got), names(want), "{row}: different artifact set");
    for ((name, got), (_, want)) in got.iter().zip(want) {
        assert!(got == want, "{row}: {name} differs from the reference");
    }
}

/// The checkpointing driver, narrowed to the runs `filter` matches.
pub fn try_monitored(
    dir: &Path,
    workers: usize,
    filter: Option<&str>,
    ckpt: &CheckpointOptions,
    telemetry: &TelemetryOptions,
) -> Result<(CampaignOutcome, CheckpointStats), ScenarioError> {
    let exec = ExecOptions::default();
    run_campaign_monitored_opts(&spec(), workers, filter, dir, ckpt, telemetry, &exec)
}

/// The checkpointing driver over the whole work list.
pub fn monitored(
    dir: &Path,
    workers: usize,
    ckpt: CheckpointOptions,
    telemetry: &TelemetryOptions,
) -> (CampaignOutcome, CheckpointStats) {
    try_monitored(dir, workers, None, &ckpt, telemetry).expect("campaign runs")
}

/// Progress and follow telemetry written into `dir`.
pub fn telemetry_in(dir: &Path) -> TelemetryOptions {
    TelemetryOptions {
        progress: Some(dir.join("progress.json")),
        follow: Some(dir.join("follow.jsonl")),
    }
}

fn complete(outcome: CampaignOutcome) -> CampaignSummary {
    match outcome {
        CampaignOutcome::Complete(s) => *s,
        CampaignOutcome::Checkpointed { .. } => panic!("expected completion"),
    }
}

/// `run_campaign` sharded over `n` workers.
pub fn workers(n: usize, dir: &Path) -> Artifacts {
    written(&run_campaign(&spec(), n, None).expect("campaign runs"), dir)
}

/// `run_campaign` on 1 worker with `ELECTRIFI_THREADS` set to `n`. The
/// variable is process-global: only a test that has its binary to itself
/// may call this.
pub fn threads(n: &str, dir: &Path) -> Artifacts {
    std::env::set_var(THREADS_ENV, n);
    let summary = run_campaign(&spec(), 1, None);
    std::env::remove_var(THREADS_ENV);
    written(&summary.expect("campaign runs"), dir)
}

/// Stop after `cut` runs on 1 worker, then resume on 2.
pub fn stop_and_resume(cut: usize, dir: &Path) -> Artifacts {
    let stop = CheckpointOptions {
        stop_after: Some(cut),
        ..Default::default()
    };
    let (outcome, stats) = monitored(dir, 1, stop, &TelemetryOptions::default());
    assert!(matches!(
        outcome,
        CampaignOutcome::Checkpointed { completed, total: RUNS } if completed == cut
    ));
    assert_eq!((stats.writes, stats.resume_loads), (1, 0));
    assert!(stats.bytes > 0 && dir.join(CHECKPOINT_FILE).exists());
    let resume = CheckpointOptions {
        resume_from: Some(dir.to_path_buf()),
        ..Default::default()
    };
    let (outcome, stats) = monitored(dir, 2, resume, &TelemetryOptions::default());
    assert_eq!((stats.resume_loads, stats.resumed_runs), (1, cut as u64));
    // Completion removes the now-stale checkpoint.
    assert!(!dir.join(CHECKPOINT_FILE).exists());
    written(&complete(outcome), dir)
}

/// A checkpoint every sim-second on 1 worker.
pub fn periodic_checkpoints(dir: &Path) -> Artifacts {
    let every = CheckpointOptions {
        every_sim_secs: Some(1.0),
        ..Default::default()
    };
    let (outcome, stats) = monitored(dir, 1, every, &TelemetryOptions::default());
    // Each run is 2 sim-seconds: one checkpoint per non-final run.
    assert_eq!(stats.writes, RUNS as u64 - 1);
    written(&complete(outcome), dir)
}

/// Progress + follow telemetry on 2 workers, every span traced.
pub fn observed(dir: &Path) -> Artifacts {
    let telemetry = telemetry_in(dir);
    let ((outcome, _), report) = span::scoped(SpanConfig::traced(1), || {
        monitored(dir, 2, CheckpointOptions::default(), &telemetry)
    });
    // The per-run spans fold in from the workers.
    assert!(report.get("campaign.run_setup").is_some());
    let executed = report.get("campaign.run_execute").map(|s| s.count);
    assert_eq!(executed, Some(RUNS as u64));
    assert!(!report.events.is_empty(), "trace mode records events");
    written(&complete(outcome), dir)
}
