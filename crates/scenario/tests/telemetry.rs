//! Live-telemetry acceptance: the `progress.json` heartbeat ends
//! consistent (`runs_done == runs_total`, `finished`), the follow stream
//! carries one parseable line per run, accounting stays consistent
//! across a kill + resume, and telemetry and span tracing are
//! **bit-inert**: artifacts are byte-identical with them on or off (a
//! row of the determinism matrix, see `matrix/mod.rs`).

mod matrix;

use electrifi_scenario::checkpoint::{CampaignOutcome, CheckpointOptions};
use electrifi_scenario::telemetry::{ProgressSnapshot, RunCompletion};
use matrix::{assert_reproduces, monitored, scratch_dir, spec, telemetry_in};
use std::fs;
use std::path::Path;

fn read_progress(path: &Path) -> ProgressSnapshot {
    let text = fs::read_to_string(path).expect("read progress.json");
    serde_json::from_str(&text).expect("progress.json parses as ProgressSnapshot")
}

#[test]
fn progress_heartbeat_ends_consistent_and_follow_has_one_line_per_run() {
    let total = spec().expand().len();
    assert_eq!(total, 4);
    let dir = scratch_dir("beat");
    let opts = telemetry_in(&dir);

    let (outcome, _) = monitored(&dir, 2, CheckpointOptions::default(), &opts);
    assert!(matches!(outcome, CampaignOutcome::Complete(_)));

    // The final heartbeat is consistent and marked finished.
    let p = read_progress(&dir.join("progress.json"));
    assert_eq!(p.campaign, "matrix");
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
    let ref_dir = scratch_dir("inert-ref");
    let dir = scratch_dir("inert-obs");
    let want = matrix::reference(&ref_dir);
    assert_reproduces("observed", &matrix::observed(&dir), &want);
    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_keeps_progress_accounting_consistent() {
    let total = spec().expand().len();
    let dir = scratch_dir("resume");
    let opts = telemetry_in(&dir);

    // Phase 1: stop (with a checkpoint) after one run — the "kill".
    let ckpt = CheckpointOptions {
        stop_after: Some(1),
        ..Default::default()
    };
    let (outcome, _) = monitored(&dir, 1, ckpt, &opts);
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
        resume_from: Some(dir.clone()),
        ..Default::default()
    };
    let (outcome, stats) = monitored(&dir, 2, ckpt, &opts);
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
