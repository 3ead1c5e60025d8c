//! Live-telemetry acceptance: the `progress.json` heartbeat ends
//! consistent (`runs_done == runs_total`, `finished`), the follow stream
//! carries one parseable line per run, accounting stays consistent
//! across a kill + resume, and — the PR-1 invariant — telemetry and span
//! tracing are **bit-inert**: artifacts are byte-identical with them on
//! or off.

use electrifi_scenario::checkpoint::{
    run_campaign_monitored_opts, CampaignOutcome, CheckpointOptions, CheckpointStats,
};
use electrifi_scenario::telemetry::{ProgressSnapshot, RunCompletion, TelemetryOptions};
use electrifi_scenario::{run_campaign, write_artifacts, CampaignSpec, ExecOptions, ScenarioError};
use simnet::obs::span::{self, SpanConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The checkpointing campaign driver over the whole work list.
fn run_monitored(
    spec: &CampaignSpec,
    workers: usize,
    dir: &Path,
    ckpt: &CheckpointOptions,
    telemetry: &TelemetryOptions,
) -> Result<(CampaignOutcome, CheckpointStats), ScenarioError> {
    run_campaign_monitored_opts(
        spec,
        workers,
        None,
        dir,
        ckpt,
        telemetry,
        &ExecOptions::default(),
    )
}

const CAMPAIGN: &str = r#"{
    "name": "telem",
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

fn spec() -> CampaignSpec {
    CampaignSpec::from_json_str(CAMPAIGN, Path::new(".")).expect("valid campaign")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("efi-telem-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Sorted (file name → contents) map of the JSON artifacts in a dir,
/// excluding the telemetry side-channel files themselves.
fn artifacts(dir: &Path) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                fs::read_to_string(&p).expect("read artifact"),
            )
        })
        .filter(|(name, _)| name != "progress.json")
        .collect();
    out.sort();
    out
}

fn read_progress(path: &Path) -> ProgressSnapshot {
    let text = fs::read_to_string(path).expect("read progress.json");
    serde_json::from_str(&text).expect("progress.json parses as ProgressSnapshot")
}

fn telemetry_opts(dir: &Path) -> TelemetryOptions {
    TelemetryOptions {
        progress: Some(dir.join("progress.json")),
        // Short interval so even a fast campaign gets mid-run beats.
        progress_every: Duration::from_millis(20),
        follow: Some(dir.join("follow.jsonl")),
    }
}

#[test]
fn progress_heartbeat_ends_consistent_and_follow_has_one_line_per_run() {
    let spec = spec();
    let total = spec.expand().len();
    assert_eq!(total, 4);
    let dir = scratch_dir("beat");
    let opts = telemetry_opts(&dir);

    let (outcome, _) =
        run_monitored(&spec, 2, &dir, &CheckpointOptions::default(), &opts).expect("campaign");
    assert!(matches!(outcome, CampaignOutcome::Complete(_)));

    // The final heartbeat is consistent and marked finished.
    let p = read_progress(&dir.join("progress.json"));
    assert_eq!(p.campaign, "telem");
    assert_eq!(p.runs_total, total as u64);
    assert_eq!(p.runs_done, total as u64);
    assert_eq!(p.runs_failed, 0);
    assert_eq!(p.resumed_runs, 0);
    assert!(p.finished, "final beat must set finished");
    assert!(p.heartbeats >= 2, "initial + final beat at minimum");
    assert_eq!(p.eta_s, Some(0.0));
    assert!(p.elapsed_s >= 0.0);
    assert!(p.ewma_runs_per_s > 0.0);
    let lane_total: u64 = p.worker_lanes.iter().map(|l| l.runs_done).sum();
    assert_eq!(
        lane_total, total as u64,
        "every run is attributed to a lane"
    );
    assert!(
        !p.counters.is_empty(),
        "absorbed counters surface in progress"
    );
    // No torn-write residue.
    assert!(!dir.join("progress.json.tmp").exists());

    // The follow stream: one parseable line per run, indices exhaustive,
    // and every line self-sufficient for rendering progress.
    let follow = fs::read_to_string(dir.join("follow.jsonl")).expect("follow.jsonl");
    let lines: Vec<RunCompletion> = follow
        .lines()
        .map(|l| serde_json::from_str(l).expect("follow line parses as RunCompletion"))
        .collect();
    assert_eq!(lines.len(), total);
    let mut indices: Vec<u64> = lines.iter().map(|c| c.index).collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..total as u64).collect::<Vec<_>>());
    for c in &lines {
        assert!(c.ok);
        assert_eq!(c.runs_total, total as u64);
        assert!(c.runs_done >= 1 && c.runs_done <= total as u64);
        assert!(c.wall_ms >= 0.0);
        assert!(!c.headline.is_empty(), "successful runs carry headlines");
        assert!(c.scenario == "gen-a" || c.scenario == "gen-b");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_and_tracing_are_bit_inert() {
    let spec = spec();

    // Reference: plain runner, no telemetry, no spans.
    let ref_dir = scratch_dir("inert-ref");
    let reference = run_campaign(&spec, 2, None).expect("reference run");
    write_artifacts(&reference, &ref_dir).expect("write reference");
    let want = artifacts(&ref_dir);

    // Same campaign with the full observability surface on: progress +
    // follow telemetry and trace-mode spans across the worker pool.
    let dir = scratch_dir("inert-obs");
    let opts = telemetry_opts(&dir);
    let ((outcome, _), report) = span::scoped(SpanConfig::traced(1), || {
        run_monitored(&spec, 2, &dir, &CheckpointOptions::default(), &opts)
            .expect("observed campaign")
    });
    let summary = match outcome {
        CampaignOutcome::Complete(s) => *s,
        CampaignOutcome::Checkpointed { .. } => panic!("expected completion"),
    };
    write_artifacts(&summary, &dir).expect("write observed artifacts");
    assert_eq!(
        artifacts(&dir),
        want,
        "telemetry + tracing must not change a single artifact byte"
    );

    // The spans actually fired (per-run spans fold in from the workers).
    assert!(report.get("campaign.run_execute").is_some());
    assert!(report.get("campaign.run_setup").is_some());
    assert_eq!(report.get("campaign.run_execute").map(|s| s.count), Some(4));
    assert!(!report.events.is_empty(), "trace mode records events");

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_keeps_progress_accounting_consistent() {
    let spec = spec();
    let total = spec.expand().len();
    let dir = scratch_dir("resume");
    let opts = telemetry_opts(&dir);

    // Phase 1: stop (with a checkpoint) after one run — the "kill".
    let ckpt = CheckpointOptions {
        every_sim_secs: None,
        resume_from: None,
        stop_after: Some(1),
    };
    let (outcome, _) = run_monitored(&spec, 1, &dir, &ckpt, &opts).expect("phase 1");
    assert!(matches!(
        outcome,
        CampaignOutcome::Checkpointed { completed: 1, .. }
    ));
    let p = read_progress(&dir.join("progress.json"));
    assert_eq!(p.runs_done, 1);
    assert_eq!(p.runs_total, total as u64);
    assert_eq!(p.resumed_runs, 0);
    assert!(!p.finished, "an interrupted campaign is not finished");

    // Phase 2: resume; the progress file starts over, seeded with the
    // resumed count, and must end fully accounted.
    let ckpt = CheckpointOptions {
        every_sim_secs: None,
        resume_from: Some(dir.clone()),
        stop_after: None,
    };
    let (outcome, stats) = run_monitored(&spec, 2, &dir, &ckpt, &opts).expect("phase 2");
    assert!(matches!(outcome, CampaignOutcome::Complete(_)));
    assert_eq!(stats.resumed_runs, 1);
    let p = read_progress(&dir.join("progress.json"));
    assert_eq!(p.runs_done, total as u64);
    assert_eq!(p.runs_total, total as u64);
    assert_eq!(p.resumed_runs, 1);
    assert!(p.finished);
    let lane_total: u64 = p.worker_lanes.iter().map(|l| l.runs_done).sum();
    assert_eq!(
        lane_total + p.resumed_runs,
        total as u64,
        "resumed runs are counted once, not re-attributed to lanes"
    );
    let _ = fs::remove_dir_all(&dir);
}
