//! The work-stealing worker pool, metrics writer and finalizer.
//!
//! Workers pull **shards** (contiguous run ranges, the scheduler's unit
//! of lease) FIFO across jobs, execute each run with a fresh `Obs`, and
//! checkpoint the shard's accumulated records to
//! `<job dir>/shard-NNNN/checkpoint.efistate` after every run, in the
//! exact snapshot format the `campaign --checkpoint` CLI uses. That
//! makes worker death survivable by construction: a dead worker's
//! in-memory partials are lost, its shards are re-admitted, and the next
//! worker resumes from the last checkpoint — and because runs are
//! deterministic, redone work produces identical records, so the final
//! `summary.json` is byte-identical to an uninterrupted run.
//!
//! Workers are threads of this process, so one can only end by
//! returning or by panicking. A panicking worker reports its own death
//! on the way out (`catch_unwind`); nothing else declares a worker
//! dead, so a run may take as long as it takes.

use crate::events::EventHub;
use crate::queue::{CompleteOutcome, JobStatus, Lease, ShardDeath};
use crate::server::{lock, Core, JobData};
use electrifi_scenario::{
    execute_run, load_checkpoint_classified, summarize, write_artifacts, write_checkpoint,
    CheckpointState, RunRecord, CHECKPOINT_FILE,
};
use simnet::obs::{config_digest, ChannelSink, MetricsSnapshot, Obs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Capacity of the per-shard ObsEvent channel (`?obs=1` streaming).
const OBS_CHANNEL_CAP: usize = 1024;
/// How soon the metrics writer notices shutdown.
const METRICS_TICK: Duration = Duration::from_millis(100);
/// How often the metrics writer rewrites `server.metrics.json`.
const METRICS_EVERY: Duration = Duration::from_secs(1);

/// Panic payload marker for the `kill_run_marker` test hook; the quiet
/// panic hook in `server.rs` suppresses backtraces carrying it.
pub(crate) const INJECTED_DEATH_MARKER: &str = "injected worker death";

/// Spawn one worker thread and register its handle.
pub(crate) fn spawn_worker(core: &Arc<Core>) {
    let id = core.next_worker.fetch_add(1, Ordering::SeqCst);
    let handle = {
        let core = Arc::clone(core);
        std::thread::spawn(move || worker_loop(&core, id))
    };
    core.metrics.inc(&core.metrics.workers_spawned);
    lock(&core.workers).push(handle);
}

fn worker_loop(core: &Arc<Core>, id: u64) {
    while !core.draining.load(Ordering::SeqCst) {
        let lease = {
            let mut sched = lock(&core.sched);
            loop {
                if core.draining.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(lease) = sched.next_work(id) {
                    break Some(lease);
                }
                let (guard, _) = core
                    .work_cv
                    .wait_timeout(sched, Duration::from_millis(200))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                sched = guard;
            }
        };
        let Some(lease) = lease else { continue };
        match catch_unwind(AssertUnwindSafe(|| execute_shard(core, &lease))) {
            Err(_) => {
                // This worker just died mid-shard (for real or via the
                // injected kill). Report and let the thread end; a
                // replacement is spawned and the shard re-admitted.
                on_worker_death(core, id);
                return;
            }
            Ok(ShardOutcome::Completed(records)) => {
                let recorded = lock(&core.sched).complete(&lease, records);
                match recorded {
                    CompleteOutcome::Recorded { job_finished } => {
                        core.metrics.inc(&core.metrics.workers_shards_executed);
                        if let Some(job) = core.job(&lease.job) {
                            publish_line(
                                core,
                                &job.hub,
                                format!(
                                    "{{\"event\":\"shard_done\",\"id\":\"{}\",\"shard\":{},\
                                     \"runs\":{}}}",
                                    lease.job,
                                    lease.shard,
                                    lease.end - lease.start
                                ),
                            );
                        }
                        if job_finished {
                            finalize_job(core, &lease.job);
                        }
                    }
                    CompleteOutcome::Stale => {}
                }
            }
            Ok(ShardOutcome::Failed(error)) => {
                let recorded = lock(&core.sched).fail(&lease, error.clone());
                if matches!(recorded, CompleteOutcome::Recorded { .. }) {
                    on_job_failed(core, &lease.job, &error);
                }
            }
            Ok(ShardOutcome::Cancelled) => {}
            Ok(ShardOutcome::Draining) => {
                // Checkpoint already written; the shard goes back to
                // pending so a post-restart server can resume it.
                lock(&core.sched).release(&lease);
            }
        }
    }
}

enum ShardOutcome {
    Completed(Vec<RunRecord>),
    Failed(String),
    Cancelled,
    Draining,
}

fn shard_dir(job: &JobData, shard: usize) -> PathBuf {
    job.dir.join(format!("shard-{shard:04}"))
}

fn execute_shard(core: &Arc<Core>, lease: &Lease) -> ShardOutcome {
    let Some(job) = core.job(&lease.job) else {
        return ShardOutcome::Failed(format!("no job data for {}", lease.job));
    };
    // The job ended (cancelled, or failed by a sibling shard) after this
    // shard was leased; its completion would be stale anyway.
    let Some(inputs) = &job.inputs else {
        return ShardOutcome::Cancelled;
    };
    let shard_runs = &inputs.runs[lease.start..lease.end];
    let shard_digest = config_digest(&shard_runs);
    let dir = shard_dir(&job, lease.shard);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return ShardOutcome::Failed(format!("cannot create {}: {e}", dir.display()));
    }

    // Resume from a previous worker's checkpoint when one is present
    // and trustworthy; anything suspect is discarded and the shard is
    // redone (deterministic runs make redoing always safe).
    let mut records: Vec<RunRecord> = Vec::new();
    match load_checkpoint_classified(&dir, &shard_digest, shard_runs.len()) {
        Ok(CheckpointState::Absent) => {}
        Ok(CheckpointState::Loaded(loaded)) => {
            let names_match = loaded
                .iter()
                .zip(shard_runs)
                .all(|(rec, spec)| rec.run == spec.run_name);
            if names_match && loaded.len() <= shard_runs.len() {
                core.metrics
                    .add(&core.metrics.workers_runs_resumed, loaded.len() as u64);
                publish_line(
                    core,
                    &job.hub,
                    format!(
                        "{{\"event\":\"shard_resumed\",\"id\":\"{}\",\"shard\":{},\
                         \"resumed_runs\":{}}}",
                        lease.job,
                        lease.shard,
                        loaded.len()
                    ),
                );
                records = loaded;
            } else {
                publish_line(
                    core,
                    &job.hub,
                    format!(
                        "{{\"event\":\"checkpoint_discarded\",\"id\":\"{}\",\"shard\":{},\
                         \"reason\":\"records do not match the shard's run list\"}}",
                        lease.job, lease.shard
                    ),
                );
            }
        }
        Ok(CheckpointState::Damaged { reason }) => {
            publish_line(
                core,
                &job.hub,
                format!(
                    "{{\"event\":\"checkpoint_discarded\",\"id\":\"{}\",\"shard\":{},\
                     \"reason\":{}}}",
                    lease.job,
                    lease.shard,
                    json_string(&reason)
                ),
            );
        }
        Err(e) => {
            return ShardOutcome::Failed(format!(
                "shard {} checkpoint unreadable: {e}",
                lease.shard
            ));
        }
    }

    // Live ObsEvent forwarding is opt-in per job and attaches a
    // bounded, never-blocking sink per run; the records themselves are
    // identical with or without it.
    let obs_tx = if job.obs_wanted.load(Ordering::SeqCst) {
        let (tx, rx) = mpsc::sync_channel::<simnet::obs::ObsEvent>(OBS_CHANNEL_CAP);
        let fw_core = Arc::clone(core);
        let fw_hub = Arc::clone(&job.hub);
        std::thread::spawn(move || {
            for ev in rx {
                let data = serde_json::to_string(&ev).unwrap_or_else(|_| "{}".to_string());
                publish_line(
                    &fw_core,
                    &fw_hub,
                    format!("{{\"event\":\"obs\",\"data\":{data}}}"),
                );
            }
        });
        Some(tx)
    } else {
        None
    };

    for run in shard_runs.iter().skip(records.len()) {
        if job.cancel.load(Ordering::SeqCst) {
            return ShardOutcome::Cancelled;
        }
        if core.stop_now.load(Ordering::SeqCst) {
            // Every finished run is already checkpointed.
            return ShardOutcome::Draining;
        }
        if let Some(marker) = &core.config.kill_run_marker {
            if *marker == run.run_name && core.kill_armed.swap(false, Ordering::SeqCst) {
                // One-shot: the marker is consumed, so the worker that
                // picks the shard back up completes the run normally.
                panic!("{INJECTED_DEATH_MARKER}: {}", run.run_name);
            }
        }
        publish_line(
            core,
            &job.hub,
            format!(
                "{{\"event\":\"run_start\",\"id\":\"{}\",\"shard\":{},\"run\":\"{}\"}}",
                lease.job, lease.shard, run.run_name
            ),
        );
        let obs = match &obs_tx {
            Some(tx) => Obs::with_sink(ChannelSink::new(tx.clone())),
            None => Obs::new(),
        };
        let scenario = &inputs.spec.scenarios[run.scenario_index];
        match execute_run(run, scenario, obs) {
            Ok(record) => {
                core.metrics.inc(&core.metrics.workers_runs_executed);
                publish_line(
                    core,
                    &job.hub,
                    format!(
                        "{{\"event\":\"run_done\",\"id\":\"{}\",\"shard\":{},\"run\":\"{}\"}}",
                        lease.job, lease.shard, run.run_name
                    ),
                );
                records.push(record);
            }
            Err(e) => {
                return ShardOutcome::Failed(format!("run {} failed: {e}", run.run_name));
            }
        }
        if let Err(e) =
            write_shard_checkpoint(core, &dir, &shard_digest, shard_runs.len(), &records)
        {
            return ShardOutcome::Failed(e);
        }
    }
    ShardOutcome::Completed(records)
}

fn write_shard_checkpoint(
    core: &Arc<Core>,
    dir: &std::path::Path,
    digest: &str,
    total: usize,
    records: &[RunRecord],
) -> Result<(), String> {
    let path = dir.join(CHECKPOINT_FILE);
    match write_checkpoint(&path, digest, total, records) {
        Ok(_) => {
            core.metrics.inc(&core.metrics.workers_checkpoint_writes);
            Ok(())
        }
        Err(e) => Err(format!("checkpoint write {}: {e}", path.display())),
    }
}

/// Assemble and persist a finished job's artifacts. Runs on the worker
/// that completed the last shard; by the lease discipline exactly one
/// worker ever gets `job_finished == true` per job.
pub(crate) fn finalize_job(core: &Arc<Core>, id: &str) {
    let Some(job) = core.job(id) else { return };
    // Cancelled while its last shard completed: nothing left to write.
    let Some(inputs) = &job.inputs else { return };
    let shard_results = lock(&core.sched).take_results(id);
    // Shards are contiguous ascending ranges, so concatenating their
    // records in shard order reproduces expansion order exactly — the
    // same order `summarize` sees in the CLI path, which is what makes
    // the served summary byte-identical to `campaign`'s.
    let records: Vec<RunRecord> = shard_results.into_iter().flatten().collect();
    let summary = summarize(&inputs.spec, &inputs.runs, records);
    // Assertion-verdict rollup for the status endpoint: only set when
    // some run actually carried a verdict, so plain campaigns keep
    // reporting `verdict: null`.
    let with_verdict = summary.runs.iter().filter(|r| r.verdict.is_some()).count();
    if with_verdict > 0 {
        lock(&core.sched).set_assertion_failures(id, summary.failed_verdicts().len() as u64);
    }
    match write_artifacts(&summary, &job.dir) {
        Ok(()) => {
            lock(&core.sched).finalized(id, None);
            core.metrics.inc(&core.metrics.queue_completed);
            publish_status_event(core, &job, id, JobStatus::Done, None);
            core.end_job(id, &job);
            // Shard checkpoints have served their purpose; the summary
            // and manifests are the durable artifacts.
            for shard in 0..usize::MAX {
                let dir = shard_dir(&job, shard);
                if !dir.exists() {
                    break;
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        Err(e) => {
            let msg = e.to_string();
            lock(&core.sched).finalized(id, Some(msg.clone()));
            core.metrics.inc(&core.metrics.queue_failed);
            publish_status_event(core, &job, id, JobStatus::Failed, Some(&msg));
            core.end_job(id, &job);
        }
    }
}

/// A job the scheduler just failed: stop its in-flight shards, publish
/// the `failed` status event and close its stream.
fn on_job_failed(core: &Arc<Core>, id: &str, error: &str) {
    core.metrics.inc(&core.metrics.queue_failed);
    if let Some(job) = core.job(id) {
        job.cancel.store(true, Ordering::SeqCst);
        publish_status_event(core, &job, id, JobStatus::Failed, Some(error));
        core.end_job(id, &job);
    }
}

/// A worker panicked: re-admit its shards, or fail the job of a shard
/// that has now killed two workers; wake the pool, and spawn a
/// replacement unless we're draining.
pub(crate) fn on_worker_death(core: &Arc<Core>, worker: u64) {
    core.metrics.inc(&core.metrics.workers_deaths);
    let deaths = lock(&core.sched).worker_dead(worker);
    for death in &deaths {
        match death {
            ShardDeath::Requeued { job: job_id, shard } => {
                core.metrics.inc(&core.metrics.workers_shards_requeued);
                if let Some(job) = core.job(job_id) {
                    publish_line(
                        core,
                        &job.hub,
                        format!(
                            "{{\"event\":\"shard_requeued\",\"id\":\"{job_id}\",\"shard\":{shard},\
                             \"reason\":\"worker {worker} died\"}}"
                        ),
                    );
                }
            }
            ShardDeath::JobFailed { job, error, .. } => on_job_failed(core, job, error),
        }
    }
    core.work_cv.notify_all();
    if !core.draining.load(Ordering::SeqCst) {
        spawn_worker(core);
    }
}

/// Metrics writer: periodically writes `server.metrics.json` (atomic
/// tmp+rename) so the `report` bin can read serve counters without
/// talking HTTP, and once more on shutdown.
pub(crate) fn metrics_loop(core: &Arc<Core>) {
    let mut since_write = Duration::ZERO;
    loop {
        if core.metrics_stop.load(Ordering::SeqCst) {
            write_metrics_file(core);
            return;
        }
        std::thread::sleep(METRICS_TICK);
        since_write += METRICS_TICK;
        if since_write >= METRICS_EVERY {
            since_write = Duration::ZERO;
            write_metrics_file(core);
        }
    }
}

/// The current metrics in the workspace's standard snapshot shape.
pub(crate) fn metrics_snapshot(core: &Arc<Core>) -> MetricsSnapshot {
    let depth = lock(&core.sched).live_count() as u64;
    core.metrics.snapshot(depth, core.workers_alive() as u64)
}

fn write_metrics_file(core: &Arc<Core>) {
    let snap = metrics_snapshot(core);
    let Ok(json) = serde_json::to_string_pretty(&snap) else {
        return;
    };
    let path = core.config.out_root.join("server.metrics.json");
    let tmp = core.config.out_root.join("server.metrics.json.tmp");
    if std::fs::write(&tmp, json).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serialization is infallible")
}

/// Publish one event line with drop accounting (never blocks; a full
/// ring evicts the oldest line and the eviction is counted).
pub(crate) fn publish_line(core: &Arc<Core>, hub: &Arc<EventHub>, line: String) {
    let evicted = hub.publish(line);
    core.metrics.add(&core.metrics.stream_dropped, evicted);
    core.metrics.inc(&core.metrics.stream_events);
}

/// Publish a status-transition event line for a job.
pub(crate) fn publish_status_event(
    core: &Arc<Core>,
    job: &Arc<JobData>,
    id: &str,
    status: JobStatus,
    error: Option<&str>,
) {
    let line = match error {
        None => format!(
            "{{\"event\":\"status\",\"id\":\"{id}\",\"status\":\"{}\"}}",
            status.as_str()
        ),
        Some(msg) => format!(
            "{{\"event\":\"status\",\"id\":\"{id}\",\"status\":\"{}\",\"error\":{}}}",
            status.as_str(),
            json_string(msg)
        ),
    };
    publish_line(core, &job.hub, line);
}
