//! Checkpoint/resume for campaign sweeps.
//!
//! Long campaigns (weeks of sim-time × dozens of runs) checkpoint at
//! **run granularity**: completed [`RunRecord`]s are written into an
//! `electrifi-state` snapshot (magic, format version, CRC-framed
//! sections) after every wave whose accumulated sim-time crosses the
//! checkpoint interval. A resumed campaign loads the records, verifies
//! the work-list digest, skips the completed prefix and re-enters the
//! sharded runner — and because every run executes under its own fresh
//! `Obs` with nothing wall-clock-dependent recorded, the resumed
//! summary and per-run manifests are **byte-identical** to an
//! uninterrupted run.
//!
//! Records are stored as JSON inside the checkpoint sections (the same
//! serializer that writes the manifests, with `float_roundtrip`
//! parsing), so a record survives the save → load → save cycle
//! byte-for-byte.
//!
//! Checkpoint bookkeeping (`state.checkpoint.writes` / `.bytes` /
//! `.resume_loads`) is counted on the *ambient* coordinator registry,
//! never in the per-run snapshots — otherwise a resumed summary could
//! not be byte-identical to a straight-through one.

use crate::campaign::{
    execute_run, summarize, CampaignSpec, CampaignSummary, ExecOptions, RunRecord, RunSpec,
};
use crate::error::ScenarioError;
use crate::telemetry::{Telemetry, TelemetryOptions};
use electrifi_state::{SnapshotReader, SnapshotWriter, StateError};
use electrifi_testbed::sweep;
use simnet::obs::{self, config_digest};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File name of the campaign checkpoint inside the output directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.efistate";

/// Checkpoint/resume options for [`run_campaign_monitored_opts`].
#[derive(Debug, Clone, Default)]
pub struct CheckpointOptions {
    /// Write a checkpoint whenever at least this much accumulated
    /// sim-time (seconds, summed over completed runs' workload
    /// durations) has elapsed since the last write. `None` disables
    /// periodic checkpointing.
    pub every_sim_secs: Option<f64>,
    /// Resume from the checkpoint in this directory (reads
    /// [`CHECKPOINT_FILE`]).
    pub resume_from: Option<PathBuf>,
    /// Stop (with a checkpoint) once this many runs have completed —
    /// the hook the resume tests use to cut a campaign at an arbitrary
    /// point.
    pub stop_after: Option<usize>,
}

/// What checkpointing did during one invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints written.
    pub writes: u64,
    /// Bytes written across all checkpoints.
    pub bytes: u64,
    /// Checkpoints loaded (0 or 1).
    pub resume_loads: u64,
    /// Completed runs skipped thanks to the loaded checkpoint.
    pub resumed_runs: u64,
}

/// Result of a checkpointed campaign invocation.
#[derive(Debug)]
pub enum CampaignOutcome {
    /// Every run executed; the summary is ready to write.
    Complete(Box<CampaignSummary>),
    /// Stopped early (`stop_after`); a checkpoint holds the progress.
    Checkpointed {
        /// Runs completed so far (including resumed ones).
        completed: usize,
        /// Total runs in the work list.
        total: usize,
    },
}

/// Damaged bytes (truncation, CRC mismatch, bad magic, ...) are an
/// invalid checkpoint, the same class as one taken for a different work
/// list; only a failing filesystem is an I/O error.
fn state_to_scenario(path: &Path, e: StateError) -> ScenarioError {
    if e.is_data_damage() {
        ScenarioError::invalid(
            "checkpoint",
            format!("checkpoint {} is damaged: {e}", path.display()),
        )
    } else {
        ScenarioError::Io {
            path: path.to_string_lossy().into_owned(),
            message: e.to_string(),
        }
    }
}

/// Write a campaign checkpoint holding `records` (the completed prefix,
/// or any completed subset — the reader only checks the count) for the
/// work list identified by `digest`/`total`. Returns the bytes written.
/// Public so the serve control plane can checkpoint its jobs through
/// the exact same snapshot framing the CLI uses.
pub fn write_checkpoint(
    path: &Path,
    digest: &str,
    total: usize,
    records: &[RunRecord],
) -> Result<u64, ScenarioError> {
    // The state crate has no simnet dependency, so snapshot encode/decode
    // spans live here at the call sites.
    let _span = obs::span::enter("state.checkpoint_write");
    let mut snap = SnapshotWriter::new();
    snap.section("campaign.meta", |w| {
        w.put_str(digest);
        w.put_u64(total as u64);
        w.put_u64(records.len() as u64);
    });
    snap.section("campaign.runs", |w| {
        w.put_u64(records.len() as u64);
        for rec in records {
            let json = serde_json::to_string(rec).expect("serialization is infallible");
            w.put_str(&json);
        }
    });
    snap.write_to_file(path)
        .map_err(|e| state_to_scenario(path, e))
}

/// Load a checkpoint and return the completed records, after verifying
/// that it belongs to exactly this (filtered) work list.
pub fn load_checkpoint(
    dir: &Path,
    expected_digest: &str,
    total: usize,
) -> Result<Vec<RunRecord>, ScenarioError> {
    let _span = obs::span::enter("state.checkpoint_load");
    let path = dir.join(CHECKPOINT_FILE);
    let snap = SnapshotReader::read_from_file(&path).map_err(|e| state_to_scenario(&path, e))?;
    decode_checkpoint(&snap, &path, expected_digest, total)
}

fn decode_checkpoint(
    snap: &SnapshotReader,
    path: &Path,
    expected_digest: &str,
    total: usize,
) -> Result<Vec<RunRecord>, ScenarioError> {
    let to_err = |e: StateError| state_to_scenario(path, e);
    let mut meta = snap.section("campaign.meta").map_err(to_err)?;
    let digest = meta.get_str().map_err(to_err)?.to_string();
    let stored_total = meta.get_u64().map_err(to_err)? as usize;
    let completed = meta.get_u64().map_err(to_err)? as usize;
    meta.finish().map_err(to_err)?;
    if digest != expected_digest || stored_total != total {
        return Err(ScenarioError::invalid(
            "checkpoint",
            format!(
                "checkpoint {} was taken for a different work list \
                 (digest {digest}, {stored_total} runs) than the one being \
                 resumed (digest {expected_digest}, {total} runs)",
                path.display()
            ),
        ));
    }
    let mut runs = snap.section("campaign.runs").map_err(to_err)?;
    let n = runs.get_u64().map_err(to_err)? as usize;
    if n != completed || n > total {
        return Err(ScenarioError::invalid(
            "checkpoint",
            format!(
                "checkpoint {} is inconsistent: meta says {completed} \
                 completed runs, the record section holds {n} (of {total})",
                path.display()
            ),
        ));
    }
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let json = runs.get_str().map_err(to_err)?;
        let rec: RunRecord = serde_json::from_str(json).map_err(|e| ScenarioError::Parse {
            message: format!("checkpoint record {i}: {e}"),
        })?;
        records.push(rec);
    }
    runs.finish().map_err(to_err)?;
    Ok(records)
}

/// What a recovery path found when it went looking for a checkpoint.
#[derive(Debug)]
pub enum CheckpointState {
    /// No checkpoint file exists (nothing was ever written, or a
    /// completed campaign already removed it).
    Absent,
    /// A valid checkpoint for exactly this work list.
    Loaded(Vec<RunRecord>),
    /// A file exists but its **data** is unusable: damaged bytes
    /// ([`StateError::is_data_damage`]), undecodable records, or a
    /// digest/work-list mismatch. Recovery discards it and re-executes —
    /// deterministic runs make redoing work always safe.
    Damaged {
        /// Why the checkpoint was rejected.
        reason: String,
    },
}

/// [`load_checkpoint`] for recovery paths (serve worker-death
/// re-admission) that must distinguish "no checkpoint yet" and
/// "checkpoint damaged — redo the work" from environmental failures:
/// only genuine I/O errors surface as `Err`, everything else is a
/// [`CheckpointState`] the caller can act on without aborting.
pub fn load_checkpoint_classified(
    dir: &Path,
    expected_digest: &str,
    total: usize,
) -> Result<CheckpointState, ScenarioError> {
    let _span = obs::span::enter("state.checkpoint_load");
    let path = dir.join(CHECKPOINT_FILE);
    if !path.exists() {
        return Ok(CheckpointState::Absent);
    }
    let snap = match SnapshotReader::read_from_file(&path) {
        Ok(snap) => snap,
        Err(e) if e.is_data_damage() => {
            return Ok(CheckpointState::Damaged {
                reason: e.to_string(),
            })
        }
        Err(e) => return Err(state_to_scenario(&path, e)),
    };
    match decode_checkpoint(&snap, &path, expected_digest, total) {
        Ok(records) => Ok(CheckpointState::Loaded(records)),
        // Decode failures on a frame-valid snapshot are still data
        // problems (stale digest, malformed record JSON), never
        // environmental: the caller redoes the work.
        Err(e) => Ok(CheckpointState::Damaged {
            reason: e.to_string(),
        }),
    }
}

/// Run (a filtered subset of) a campaign with checkpoint/resume and
/// live telemetry.
///
/// Execution proceeds in waves of `workers` runs; after each wave the
/// accumulated sim-time decides whether a checkpoint is due. With no
/// checkpoint options set this degenerates to the plain sharded runner
/// and produces the identical summary. Telemetry (a `progress.json`
/// heartbeat and/or a JSONL follow stream, see [`TelemetryOptions`]) is
/// strictly observational: the summary and per-run manifests are
/// byte-identical with it on or off. `_exec` is the field-less
/// [`ExecOptions`] and changes nothing.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_monitored_opts(
    spec: &CampaignSpec,
    workers: usize,
    filter: Option<&str>,
    out_dir: &Path,
    opts: &CheckpointOptions,
    telemetry: &TelemetryOptions,
    _exec: &ExecOptions,
) -> Result<(CampaignOutcome, CheckpointStats), ScenarioError> {
    let runs: Vec<RunSpec> = spec.expand_filtered(filter);
    let digest = config_digest(&runs.as_slice());
    let ambient = obs::current();
    let reg = ambient.registry();
    let (c_writes, c_bytes, c_loads) = (
        reg.counter("state.checkpoint.writes"),
        reg.counter("state.checkpoint.bytes"),
        reg.counter("state.checkpoint.resume_loads"),
    );
    let mut stats = CheckpointStats::default();

    let mut records: Vec<RunRecord> = match &opts.resume_from {
        Some(dir) => {
            let recs = load_checkpoint(dir, &digest, runs.len())?;
            stats.resume_loads += 1;
            stats.resumed_runs = recs.len() as u64;
            c_loads.inc();
            recs
        }
        None => Vec::new(),
    };

    let ckpt_path = out_dir.join(CHECKPOINT_FILE);
    let workers = workers.max(1);
    let monitor = Telemetry::start(
        &spec.name,
        &digest,
        runs.len(),
        workers,
        stats.resumed_runs,
        telemetry,
    );
    let mut sim_secs_since_ckpt = 0.0f64;
    while records.len() < runs.len() {
        let done = records.len();
        let mut take = workers.min(runs.len() - done);
        if let Some(stop) = opts.stop_after {
            if done >= stop {
                return Ok((
                    CampaignOutcome::Checkpointed {
                        completed: done,
                        total: runs.len(),
                    },
                    stats,
                ));
            }
            take = take.min(stop - done);
        }
        let wave = &runs[done..done + take];
        // A wave never exceeds `workers`, so the sweep's chunk length is
        // 1 and the wave-local index doubles as the worker lane.
        let results = sweep::par_map_workers(wave, workers, |i, run| {
            let started = Instant::now();
            let result = execute_run(run, &spec.scenarios[run.scenario_index], obs::Obs::new());
            if let Some(m) = &monitor {
                m.run_done(
                    done + i,
                    i,
                    run,
                    &spec.scenarios[run.scenario_index].name,
                    &result,
                    started.elapsed(),
                );
            }
            result
        });
        for r in results {
            records.push(r?);
        }
        sim_secs_since_ckpt += wave.iter().map(|r| r.workload.duration_s).sum::<f64>();
        let finished = records.len() == runs.len();
        let due = opts
            .every_sim_secs
            .is_some_and(|every| sim_secs_since_ckpt >= every);
        let stopping = opts.stop_after.is_some_and(|stop| records.len() >= stop);
        if !finished && (due || stopping) {
            let n = write_checkpoint(&ckpt_path, &digest, runs.len(), &records)?;
            stats.writes += 1;
            stats.bytes += n;
            c_writes.inc();
            c_bytes.add(n);
            sim_secs_since_ckpt = 0.0;
        }
        if stopping && !finished {
            return Ok((
                CampaignOutcome::Checkpointed {
                    completed: records.len(),
                    total: runs.len(),
                },
                stats,
            ));
        }
    }
    // The campaign is complete: a checkpoint in the output directory is
    // stale now and would otherwise shadow the finished artifacts.
    let _ = std::fs::remove_file(&ckpt_path);
    Ok((
        CampaignOutcome::Complete(Box::new(summarize(spec, &runs, records))),
        stats,
    ))
}
