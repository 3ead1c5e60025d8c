//! Checkpoint/resume acceptance: a campaign interrupted at **any** run
//! boundary and resumed, or checkpointed periodically, produces the
//! uninterrupted run's bytes (rows of the determinism matrix, see
//! `matrix/mod.rs`), and a checkpoint for a different work list or a
//! truncated one is a typed error.

mod matrix;

use electrifi_scenario::checkpoint::{load_checkpoint, CheckpointOptions, CHECKPOINT_FILE};
use electrifi_scenario::{ScenarioError, TelemetryOptions};
use matrix::{assert_reproduces, scratch_dir, try_monitored, RUNS};
use std::fs;

#[test]
fn resumed_campaign_is_byte_identical_at_every_cut_point() {
    let ref_dir = scratch_dir("ref");
    let want = matrix::reference(&ref_dir);
    for cut in 1..RUNS {
        let dir = scratch_dir(&format!("cut{cut}"));
        let got = matrix::stop_and_resume(cut, &dir);
        assert_reproduces(&format!("cut {cut}"), &got, &want);
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn periodic_checkpoints_do_not_change_the_summary() {
    let ref_dir = scratch_dir("periodic-ref");
    let dir = scratch_dir("periodic");
    let want = matrix::reference(&ref_dir);
    assert_reproduces("periodic", &matrix::periodic_checkpoints(&dir), &want);
    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_for_a_different_work_list_is_rejected() {
    let dir = scratch_dir("mismatch");
    let off = TelemetryOptions::default();
    let opts = CheckpointOptions {
        stop_after: Some(1),
        ..Default::default()
    };
    try_monitored(&dir, 1, None, &opts, &off).expect("checkpoint");

    // Resuming with a narrower filter changes the work list digest.
    let opts = CheckpointOptions {
        resume_from: Some(dir.clone()),
        ..Default::default()
    };
    let err = try_monitored(&dir, 1, Some("gen-b"), &opts, &off).unwrap_err();
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
