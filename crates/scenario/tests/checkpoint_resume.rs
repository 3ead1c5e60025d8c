//! Checkpoint/resume acceptance: a campaign interrupted at **any** cut
//! point and resumed must produce byte-identical `summary.json` and
//! per-run manifests versus an uninterrupted run, and checkpoints for a
//! different work list must be rejected with a typed error.

use electrifi_scenario::checkpoint::{
    load_checkpoint, run_campaign_monitored_opts, CampaignOutcome, CheckpointOptions,
    CheckpointStats, CHECKPOINT_FILE,
};
use electrifi_scenario::{
    run_campaign, write_artifacts, CampaignSpec, ExecOptions, ScenarioError, TelemetryOptions,
};
use std::fs;
use std::path::{Path, PathBuf};

/// The checkpointing campaign driver with telemetry off.
fn run_checkpointed(
    spec: &CampaignSpec,
    workers: usize,
    filter: Option<&str>,
    dir: &Path,
    opts: &CheckpointOptions,
) -> Result<(CampaignOutcome, CheckpointStats), ScenarioError> {
    run_campaign_monitored_opts(
        spec,
        workers,
        filter,
        dir,
        opts,
        &TelemetryOptions::default(),
        &ExecOptions::default(),
    )
}

const CAMPAIGN: &str = r#"{
    "name": "ckpt",
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
    let dir = std::env::temp_dir().join(format!("efi-ckpt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Sorted (file name → contents) map of the JSON artifacts in a dir.
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
        .collect();
    out.sort();
    out
}

#[test]
fn resumed_campaign_is_byte_identical_at_every_cut_point() {
    let spec = spec();
    let total = spec.expand().len();
    assert_eq!(total, 4);

    // Reference: straight through, no checkpointing.
    let ref_dir = scratch_dir("ref");
    let reference = run_campaign(&spec, 2, None).expect("reference run");
    write_artifacts(&reference, &ref_dir).expect("write reference");
    let want = artifacts(&ref_dir);
    assert_eq!(want.len(), total + 1, "manifests + summary.json");

    for cut in 1..total {
        let dir = scratch_dir(&format!("cut{cut}"));

        // Phase 1: run to the cut point, forcing a checkpoint there.
        let opts = CheckpointOptions {
            every_sim_secs: None,
            resume_from: None,
            stop_after: Some(cut),
        };
        let (outcome, stats) = run_checkpointed(&spec, 1, None, &dir, &opts).expect("phase 1");
        match outcome {
            CampaignOutcome::Checkpointed {
                completed,
                total: t,
            } => {
                assert_eq!(completed, cut);
                assert_eq!(t, total);
            }
            CampaignOutcome::Complete(_) => panic!("cut {cut}: expected early stop"),
        }
        assert_eq!(stats.writes, 1);
        assert!(stats.bytes > 0);
        assert_eq!(stats.resume_loads, 0);
        assert!(dir.join(CHECKPOINT_FILE).exists());

        // Phase 2: resume and finish.
        let opts = CheckpointOptions {
            every_sim_secs: None,
            resume_from: Some(dir.clone()),
            stop_after: None,
        };
        let (outcome, stats) = run_checkpointed(&spec, 2, None, &dir, &opts).expect("phase 2");
        let summary = match outcome {
            CampaignOutcome::Complete(s) => *s,
            CampaignOutcome::Checkpointed { .. } => panic!("cut {cut}: expected completion"),
        };
        assert_eq!(stats.resume_loads, 1);
        assert_eq!(stats.resumed_runs, cut as u64);

        // Completion removes the now-stale checkpoint from the out dir.
        assert!(!dir.join(CHECKPOINT_FILE).exists());
        write_artifacts(&summary, &dir).expect("write resumed artifacts");
        assert_eq!(
            artifacts(&dir),
            want,
            "cut {cut}: resumed artifacts differ from the uninterrupted run"
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn periodic_checkpoints_do_not_change_the_summary() {
    let spec = spec();
    let dir = scratch_dir("periodic");
    // Every run is 2 sim-seconds; a 1-second interval checkpoints after
    // every wave (workers=1 → 3 mid-campaign checkpoints for 4 runs).
    let opts = CheckpointOptions {
        every_sim_secs: Some(1.0),
        resume_from: None,
        stop_after: None,
    };
    let (outcome, stats) = run_checkpointed(&spec, 1, None, &dir, &opts).expect("periodic run");
    let summary = match outcome {
        CampaignOutcome::Complete(s) => *s,
        CampaignOutcome::Checkpointed { .. } => panic!("expected completion"),
    };
    assert_eq!(stats.writes, 3, "one checkpoint per non-final wave");
    let reference = run_campaign(&spec, 1, None).expect("reference");
    assert_eq!(
        serde_json::to_string_pretty(&summary).unwrap(),
        serde_json::to_string_pretty(&reference).unwrap()
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_for_a_different_work_list_is_rejected() {
    let spec = spec();
    let dir = scratch_dir("mismatch");
    let opts = CheckpointOptions {
        every_sim_secs: None,
        resume_from: None,
        stop_after: Some(1),
    };
    run_checkpointed(&spec, 1, None, &dir, &opts).expect("checkpoint");

    // Resuming with a narrower filter changes the work list digest.
    let opts = CheckpointOptions {
        every_sim_secs: None,
        resume_from: Some(dir.clone()),
        stop_after: None,
    };
    let err = run_checkpointed(&spec, 1, Some("gen-b"), &dir, &opts).unwrap_err();
    match err {
        ScenarioError::Invalid { field, message } => {
            assert_eq!(field, "checkpoint");
            assert!(message.contains("different work list"), "{message}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }

    // A truncated checkpoint surfaces the typed state error.
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = fs::read(&path).expect("read checkpoint");
    fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    let err = load_checkpoint(&dir, "whatever", 4).unwrap_err();
    match err {
        ScenarioError::Io { message, .. } => {
            assert!(
                message.contains("truncated") || message.contains("corrupt"),
                "unexpected message: {message}"
            );
        }
        other => panic!("expected Io, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}
