//! Live campaign telemetry: a `progress.json` heartbeat and a `--follow`
//! JSONL stream of per-run completions.
//!
//! Long campaigns were fire-and-forget: the only way to see how one was
//! doing was to count manifest files. This module gives the coordinator
//! a telemetry side-channel that is **strictly observational**:
//!
//! * workers report each completed run (name, outcome, wall time,
//!   counter totals) over an `mpsc` channel;
//! * a dedicated telemetry thread folds the reports into a
//!   [`ProgressSnapshot`] and writes it to the progress file on a
//!   configurable interval, **atomically** (tmp sibling + rename, the
//!   same pattern as `SnapshotWriter::write_to_file`) so a watcher never
//!   reads a torn JSON document;
//! * each completion is appended to the follow file as one JSON line, a
//!   local tail for CLI runs (`serve` streams its own per-job `/events`).
//!
//! Nothing here feeds back into the runs: wall-clock data lives only in
//! the progress/follow files, never in [`RunRecord`]s or the summary, so
//! a campaign with telemetry enabled produces byte-identical
//! `summary.json` and per-run manifests (a row of the determinism
//! matrix, `serve/tests/invariance.rs`).

use crate::campaign::{RunRecord, RunSpec};
use crate::error::ScenarioError;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration as StdDuration, Instant};

/// Smoothing factor of the EWMA completion rate: each heartbeat blends
/// 40% of the latest interval's rate with 60% of history.
const EWMA_ALPHA: f64 = 0.4;

/// Counters kept in the progress snapshot (top by absorbed total).
const PROGRESS_TOP_COUNTERS: usize = 12;

/// Heartbeat interval for the progress file.
const PROGRESS_EVERY: StdDuration = StdDuration::from_secs(1);

/// Telemetry configuration for a campaign invocation. Default: fully
/// disabled (no files written, no thread spawned).
#[derive(Debug, Clone, Default)]
pub struct TelemetryOptions {
    /// Write an atomically-replaced [`ProgressSnapshot`] here, every
    /// second and once more when the campaign ends.
    pub progress: Option<PathBuf>,
    /// Append one [`RunCompletion`] JSON line here per finished run.
    pub follow: Option<PathBuf>,
}

impl TelemetryOptions {
    fn enabled(&self) -> bool {
        self.progress.is_some() || self.follow.is_some()
    }
}

/// Per-worker-lane accounting in a [`ProgressSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerLane {
    /// Worker lane index (wave-local; lane *w* runs every wave's *w*-th
    /// run).
    pub worker: u64,
    /// Runs this lane completed.
    pub runs_done: u64,
    /// Wall-clock milliseconds the lane spent executing runs.
    pub busy_ms: f64,
    /// The lane's throughput so far, in runs per busy second.
    pub runs_per_s: f64,
}

/// The heartbeat document written to `--progress FILE`.
///
/// Every write replaces the file atomically, so a concurrent reader sees
/// either the previous or the current snapshot, never a torn one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// Campaign name.
    pub campaign: String,
    /// Digest of the expanded work list (matches `summary.json`).
    pub config_digest: String,
    /// Total runs in the work list.
    pub runs_total: u64,
    /// Runs completed (including resumed ones).
    pub runs_done: u64,
    /// Runs that returned an error.
    pub runs_failed: u64,
    /// Runs skipped thanks to a resumed checkpoint.
    pub resumed_runs: u64,
    /// Worker count of the sharded runner.
    pub workers: u64,
    /// Wall-clock seconds since telemetry started.
    pub elapsed_s: f64,
    /// EWMA completion rate, runs per second (0 until the first
    /// completion).
    pub ewma_runs_per_s: f64,
    /// Estimated seconds to completion at the EWMA rate (`null` until a
    /// rate exists, 0 when finished).
    pub eta_s: Option<f64>,
    /// True once every run has completed and the final snapshot is
    /// written.
    pub finished: bool,
    /// Heartbeats written so far (including this one).
    pub heartbeats: u64,
    /// Per-worker-lane throughput.
    pub worker_lanes: Vec<WorkerLane>,
    /// Top counter totals absorbed from completed runs, value-sorted.
    pub counters: Vec<(String, u64)>,
    /// Counter increments since the previous heartbeat (same ordering as
    /// `counters`; names absent here did not move).
    pub counters_delta: Vec<(String, u64)>,
}

/// One line of the `--follow` JSONL stream: a run completion record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunCompletion {
    /// Unique run name.
    pub run: String,
    /// Scenario name.
    pub scenario: String,
    /// Seed of the run.
    pub seed: u64,
    /// Workload name.
    pub workload: String,
    /// Index in the expanded work list.
    pub index: u64,
    /// Worker lane that executed the run.
    pub worker: u64,
    /// Whether the run succeeded.
    pub ok: bool,
    /// Wall-clock milliseconds the run took.
    pub wall_ms: f64,
    /// Runs completed after this one, and the total — a subscriber can
    /// render progress from any single line.
    pub runs_done: u64,
    /// Total runs in the work list.
    pub runs_total: u64,
    /// The run's headline values (`<experiment>.<name>`), empty on
    /// failure.
    pub headline: Vec<(String, f64)>,
}

/// Message from a worker to the telemetry thread.
struct RunDone {
    completion: RunCompletion,
    /// The run's counter totals, to absorb into the progress snapshot.
    counters: Vec<(String, u64)>,
}

/// Handle owned by the campaign coordinator. Workers call
/// [`Telemetry::run_done`] (the sender is `Sync`); the heartbeat thread
/// does all file I/O. Dropping the handle (or calling
/// [`Telemetry::finish`]) writes the final snapshot.
#[derive(Debug)]
pub struct Telemetry {
    tx: Option<mpsc::Sender<RunDone>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Telemetry {
    /// Spawn the telemetry thread, or return `None` when `opts` disables
    /// everything. `done_already` seeds the completed count (resumed
    /// runs).
    pub fn start(
        campaign: &str,
        config_digest: &str,
        runs_total: usize,
        workers: usize,
        done_already: u64,
        opts: &TelemetryOptions,
    ) -> Option<Telemetry> {
        if !opts.enabled() {
            return None;
        }
        let (tx, rx) = mpsc::channel::<RunDone>();
        let mut state = TelemetryState {
            snapshot: ProgressSnapshot {
                campaign: campaign.to_string(),
                config_digest: config_digest.to_string(),
                runs_total: runs_total as u64,
                runs_done: done_already,
                runs_failed: 0,
                resumed_runs: done_already,
                workers: workers as u64,
                elapsed_s: 0.0,
                ewma_runs_per_s: 0.0,
                eta_s: None,
                finished: false,
                heartbeats: 0,
                worker_lanes: Vec::new(),
                counters: Vec::new(),
                counters_delta: Vec::new(),
            },
            counters: Vec::new(),
            prev_counters: Vec::new(),
            started: Instant::now(),
            last_beat: Instant::now(),
            done_at_last_beat: done_already,
            have_rate: false,
            opts: opts.clone(),
            warned: false,
        };
        let thread = std::thread::Builder::new()
            .name("campaign-telemetry".to_string())
            .spawn(move || {
                // First heartbeat immediately: a watcher sees the file as
                // soon as the campaign starts, not one interval in.
                state.beat(false);
                loop {
                    match rx.recv_timeout(PROGRESS_EVERY) {
                        Ok(msg) => {
                            state.apply(msg);
                            if state.last_beat.elapsed() >= PROGRESS_EVERY {
                                state.beat(false);
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => state.beat(false),
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
                state.beat(true);
            })
            .expect("spawn telemetry thread");
        Some(Telemetry {
            tx: Some(tx),
            thread: Some(thread),
        })
    }

    /// Report one completed run. Called from worker threads; cheap (one
    /// channel send) and non-blocking.
    pub fn run_done(
        &self,
        index: usize,
        worker: usize,
        run: &RunSpec,
        scenario: &str,
        result: &Result<RunRecord, ScenarioError>,
        wall: StdDuration,
    ) {
        let (ok, headline, counters) = match result {
            Ok(rec) => (
                true,
                rec.experiments
                    .iter()
                    .flat_map(|e| {
                        e.headline
                            .iter()
                            .map(move |(k, v)| (format!("{}.{k}", e.kind), *v))
                    })
                    .collect(),
                rec.metrics.counters.clone(),
            ),
            Err(_) => (false, Vec::new(), Vec::new()),
        };
        let msg = RunDone {
            completion: RunCompletion {
                run: run.run_name.clone(),
                scenario: scenario.to_string(),
                seed: run.seed,
                workload: run.workload.name.clone(),
                index: index as u64,
                worker: worker as u64,
                ok,
                wall_ms: wall.as_secs_f64() * 1000.0,
                runs_done: 0, // stamped by the telemetry thread
                runs_total: 0,
                headline,
            },
            counters,
        };
        if let Some(tx) = &self.tx {
            // A dead telemetry thread must never fail a run.
            let _ = tx.send(msg);
        }
    }

    /// Flush and stop: drains the channel, writes the final snapshot and
    /// joins the thread. Idempotent; also runs on drop.
    pub fn finish(&mut self) {
        self.tx = None; // disconnect → thread drains and exits
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.finish();
    }
}

struct TelemetryState {
    snapshot: ProgressSnapshot,
    /// All absorbed counter totals (unsorted, unbounded — the snapshot
    /// keeps only the top few).
    counters: Vec<(String, u64)>,
    /// Totals as of the previous heartbeat, for deltas.
    prev_counters: Vec<(String, u64)>,
    started: Instant,
    last_beat: Instant,
    done_at_last_beat: u64,
    have_rate: bool,
    opts: TelemetryOptions,
    /// Only the first file error is reported (a broken disk should warn
    /// once, not once per heartbeat).
    warned: bool,
}

impl TelemetryState {
    fn apply(&mut self, mut msg: RunDone) {
        self.snapshot.runs_done += 1;
        if !msg.completion.ok {
            self.snapshot.runs_failed += 1;
        }
        msg.completion.runs_done = self.snapshot.runs_done;
        msg.completion.runs_total = self.snapshot.runs_total;
        for (name, v) in &msg.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, t)) => *t += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        let lane = msg.completion.worker;
        let lanes = &mut self.snapshot.worker_lanes;
        let entry = match lanes.iter_mut().find(|l| l.worker == lane) {
            Some(l) => l,
            None => {
                lanes.push(WorkerLane {
                    worker: lane,
                    runs_done: 0,
                    busy_ms: 0.0,
                    runs_per_s: 0.0,
                });
                lanes.sort_by_key(|l| l.worker);
                lanes.iter_mut().find(|l| l.worker == lane).expect("pushed")
            }
        };
        entry.runs_done += 1;
        entry.busy_ms += msg.completion.wall_ms;
        entry.runs_per_s = if entry.busy_ms > 0.0 {
            entry.runs_done as f64 / (entry.busy_ms / 1000.0)
        } else {
            0.0
        };
        if let Some(path) = self.opts.follow.clone() {
            if let Err(e) = append_jsonl(&path, &msg.completion) {
                self.warn(&path, &e);
            }
        }
    }

    /// Update rates and write the progress file. `final_beat` marks the
    /// campaign-over snapshot (`finished` when everything completed).
    fn beat(&mut self, final_beat: bool) {
        let now = Instant::now();
        let dt = now.duration_since(self.last_beat).as_secs_f64();
        let completed = self.snapshot.runs_done - self.done_at_last_beat;
        if dt > 0.0 && (completed > 0 || self.have_rate) {
            let inst = completed as f64 / dt;
            self.snapshot.ewma_runs_per_s = if self.have_rate {
                EWMA_ALPHA * inst + (1.0 - EWMA_ALPHA) * self.snapshot.ewma_runs_per_s
            } else {
                inst
            };
            self.have_rate = true;
        }
        self.last_beat = now;
        self.done_at_last_beat = self.snapshot.runs_done;
        let remaining = self.snapshot.runs_total - self.snapshot.runs_done;
        self.snapshot.eta_s = if remaining == 0 {
            Some(0.0)
        } else if self.have_rate && self.snapshot.ewma_runs_per_s > 0.0 {
            Some(remaining as f64 / self.snapshot.ewma_runs_per_s)
        } else {
            None
        };
        self.snapshot.elapsed_s = self.started.elapsed().as_secs_f64();
        self.snapshot.heartbeats += 1;
        self.snapshot.finished = final_beat && remaining == 0;
        let mut top = self.counters.clone();
        top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(PROGRESS_TOP_COUNTERS);
        self.snapshot.counters_delta = top
            .iter()
            .filter_map(|(name, v)| {
                let prev = self
                    .prev_counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, p)| *p)
                    .unwrap_or(0);
                (*v > prev).then(|| (name.clone(), v - prev))
            })
            .collect();
        self.snapshot.counters = top.clone();
        self.prev_counters = top;
        if let Some(path) = self.opts.progress.clone() {
            if let Err(e) = write_atomic_json(&path, &self.snapshot) {
                self.warn(&path, &e);
            }
        }
    }

    fn warn(&mut self, path: &Path, e: &str) {
        if !self.warned {
            eprintln!(
                "warning: campaign telemetry cannot write {}: {e} \
                 (telemetry continues; the campaign is unaffected)",
                path.display()
            );
            self.warned = true;
        }
    }
}

/// Serialize `value` and atomically replace `path` with it (write a tmp
/// sibling, then rename — readers never see a torn file).
fn write_atomic_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
    }
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, json + "\n").map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, path).map_err(|e| e.to_string())
}

/// Append one JSON line to `path` (created on first use).
fn append_jsonl<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
    }
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| e.to_string())?;
    writeln!(f, "{json}").map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_options_spawn_nothing() {
        assert!(Telemetry::start("c", "d", 4, 2, 0, &TelemetryOptions::default()).is_none());
    }

    #[test]
    fn atomic_write_replaces_not_appends() {
        let dir = std::env::temp_dir().join(format!("efi-telem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("progress.json");
        write_atomic_json(&path, &vec![1u64, 2]).expect("first write");
        write_atomic_json(&path, &vec![3u64]).expect("second write");
        let text = std::fs::read_to_string(&path).expect("read");
        let v: Vec<u64> = serde_json::from_str(&text).expect("parse");
        assert_eq!(v, vec![3]);
        // No tmp sibling left behind.
        assert!(!dir.join("progress.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_snapshot_roundtrips() {
        let snap = ProgressSnapshot {
            campaign: "c".into(),
            config_digest: "deadbeef".into(),
            runs_total: 10,
            runs_done: 3,
            runs_failed: 1,
            resumed_runs: 2,
            workers: 4,
            elapsed_s: 1.5,
            ewma_runs_per_s: 2.0,
            eta_s: Some(3.5),
            finished: false,
            heartbeats: 7,
            worker_lanes: vec![WorkerLane {
                worker: 0,
                runs_done: 3,
                busy_ms: 1200.0,
                runs_per_s: 2.5,
            }],
            counters: vec![("a".into(), 5)],
            counters_delta: vec![("a".into(), 2)],
        };
        let json = serde_json::to_string_pretty(&snap).expect("serialize");
        let back: ProgressSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
        // eta null round-trips too (vendored serde: Option → null).
        let mut none = snap.clone();
        none.eta_s = None;
        let json = serde_json::to_string_pretty(&none).expect("serialize");
        assert!(json.contains("\"eta_s\": null"));
        let back: ProgressSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.eta_s, None);
    }
}
