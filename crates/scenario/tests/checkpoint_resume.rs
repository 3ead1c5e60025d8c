//! Checkpoint/resume acceptance: a campaign interrupted at **any** run
//! boundary and resumed, or checkpointed periodically, produces the
//! uninterrupted run's bytes (rows of the determinism matrix, see
//! `matrix/mod.rs`), and a checkpoint for a different work list or a
//! truncated one is a typed error. The recovery path `serve` uses tells a
//! missing or damaged checkpoint apart from an environmental failure.

mod matrix;

use electrifi_scenario::checkpoint::{
    load_checkpoint, load_checkpoint_classified, write_checkpoint, CheckpointOptions,
    CheckpointState, CHECKPOINT_FILE,
};
use electrifi_scenario::{ScenarioError, TelemetryOptions};
use electrifi_state::SnapshotWriter;
use matrix::{assert_reproduces, scratch_dir, try_monitored, RUNS};
use std::fs;
use std::path::Path;

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

    // A truncated checkpoint is invalid, like one for another work
    // list, and names the typed state error; it is not an I/O failure.
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = fs::read(&path).expect("read checkpoint");
    fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    let err = load_checkpoint(&dir, "whatever", 4).unwrap_err();
    match err {
        ScenarioError::Invalid { field, message } => {
            assert_eq!(field, "checkpoint");
            assert!(
                message.contains("truncated") || message.contains("corrupt"),
                "unexpected message: {message}"
            );
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

const DIGEST: &str = "work-list";
const TOTAL: usize = 2;

/// A frame-valid checkpoint for this work list whose meta section
/// claims `completed` runs and whose record section holds `records`.
fn raw_checkpoint(path: &Path, completed: u64, records: &[&str]) {
    let mut snap = SnapshotWriter::new();
    snap.section("campaign.meta", |w| {
        w.put_str(DIGEST);
        w.put_u64(TOTAL as u64);
        w.put_u64(completed);
    });
    snap.section("campaign.runs", |w| {
        w.put_u64(records.len() as u64);
        for rec in records {
            w.put_str(rec);
        }
    });
    snap.write_to_file(path).expect("write checkpoint");
}

/// What `load_checkpoint_classified` must return for one case.
enum Want {
    Absent,
    Loaded,
    /// `Damaged`, with a reason containing this text.
    Damaged(&'static str),
    Err,
}

/// A case name, how to set up the checkpoint path, and the outcome.
type Case = (&'static str, fn(&Path), Want);

#[test]
fn classified_load_separates_absent_damaged_and_io_failures() {
    let cases: [Case; 7] = [
        ("no file", |_| {}, Want::Absent),
        (
            "valid",
            |p| {
                write_checkpoint(p, DIGEST, TOTAL, &[]).expect("write");
            },
            Want::Loaded,
        ),
        (
            "truncated",
            |p| {
                write_checkpoint(p, DIGEST, TOTAL, &[]).expect("write");
                let bytes = fs::read(p).expect("read");
                fs::write(p, &bytes[..bytes.len() / 2]).expect("truncate");
            },
            Want::Damaged("truncated"),
        ),
        (
            "another digest",
            |p| {
                write_checkpoint(p, "another-work-list", TOTAL, &[]).expect("write");
            },
            Want::Damaged("different work list"),
        ),
        (
            "malformed record JSON",
            |p| raw_checkpoint(p, 1, &["{not a record"]),
            Want::Damaged("checkpoint record 0"),
        ),
        (
            "meta/runs count mismatch",
            |p| raw_checkpoint(p, 1, &[]),
            Want::Damaged("inconsistent"),
        ),
        (
            "directory in place of the file",
            |p| fs::create_dir_all(p).expect("mkdir"),
            Want::Err,
        ),
    ];
    for (i, (name, setup, want)) in cases.iter().enumerate() {
        let dir = scratch_dir(&format!("classified{i}"));
        setup(&dir.join(CHECKPOINT_FILE));
        let got = load_checkpoint_classified(&dir, DIGEST, TOTAL);
        match (want, &got) {
            (Want::Absent, Ok(CheckpointState::Absent)) => {}
            (Want::Loaded, Ok(CheckpointState::Loaded(records))) => {
                assert!(records.is_empty(), "{name}: {} records", records.len())
            }
            (Want::Damaged(text), Ok(CheckpointState::Damaged { reason })) => {
                assert!(reason.contains(text), "{name}: reason {reason:?}")
            }
            (Want::Err, Err(ScenarioError::Io { .. })) => {}
            _ => panic!("{name}: unexpected {got:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
