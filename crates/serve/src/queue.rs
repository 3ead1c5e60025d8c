//! The job queue and shard scheduler — a **pure data structure**.
//!
//! Everything concurrency-shaped about the control plane (leases, work
//! stealing, worker death, cancellation) lives here as plain methods on
//! [`Scheduler`], with no threads, no clocks and no I/O. The server
//! wraps one instance in a `Mutex` + `Condvar`; the property tests
//! drive the very same code through arbitrary interleavings of
//! submit/steal/complete/cancel/worker-death without ever spawning a
//! thread.
//!
//! ## Model
//!
//! A **job** is an admitted campaign: an ordered run list partitioned
//! into contiguous **shards** (the unit of lease and recovery). Workers
//! pull shards FIFO-across-jobs: [`Scheduler::next_work`] hands out the
//! first pending shard of the *oldest* admissible job, so an idle
//! worker "steals" the next shard of whatever job is in flight rather
//! than sitting behind a per-job assignment — jobs finish in roughly
//! admission order while every worker stays busy.
//!
//! ## Lease discipline
//!
//! Each handed-out shard carries a unique lease id. Completions and
//! failures must present the lease; if the shard has been re-leased in
//! the meantime (its worker died and the shard was re-admitted) the
//! stale result is **discarded**, never recorded twice. Whatever order
//! the pool reports deaths and completions in, a shard's records are
//! counted once.
//!
//! A shard is re-admitted after its worker's first death only: the
//! second death of the same shard fails the job (see
//! [`MAX_SHARD_DEATHS`]), so a run that panics on every attempt cannot
//! keep killing replacement workers.

/// Worker deaths a shard may cause before its job fails. One death is
/// recovered by resuming the shard from its checkpoint; a second means
/// the shard itself is what kills workers.
pub const MAX_SHARD_DEATHS: u32 = 2;

/// How a job moves through the control plane.
///
/// ```text
/// queued -> running -> finalizing -> done
///    |         |            |
///    |         +-> failed   +-> failed   (artifact write)
///    +--------------> cancelled  (from queued or running)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, no shard handed out yet.
    Queued,
    /// At least one shard has been leased (or completed).
    Running,
    /// All shards complete; the finalizer is assembling and writing
    /// `summary.json`. Results are not servable yet.
    Finalizing,
    /// Artifacts written; results servable.
    Done,
    /// A run failed or finalization failed; `error` says why.
    Failed,
    /// Cancelled by request before completion.
    Cancelled,
}

impl JobStatus {
    /// True for states no further transition leaves.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled
        )
    }

    /// The wire name used in status documents and event lines.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Finalizing => "finalizing",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardState {
    Pending,
    Leased { lease: u64, worker: u64 },
    Done,
}

/// A leased shard: which job, which contiguous slice of its run list,
/// and the lease id that must accompany the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Job id.
    pub job: String,
    /// Shard index within the job.
    pub shard: usize,
    /// First run index (into the job's expansion-order run list).
    pub start: usize,
    /// One past the last run index.
    pub end: usize,
    /// Unique lease id; stale ids are discarded on completion.
    pub lease: u64,
    /// Worker holding the lease.
    pub worker: u64,
}

/// One admitted job as the scheduler sees it.
#[derive(Debug)]
pub struct JobEntry<R> {
    /// Job id (unique across the scheduler's lifetime).
    pub id: String,
    /// Total runs in the job's work list.
    pub total_runs: usize,
    /// Current status.
    pub status: JobStatus,
    /// First failure message, if any.
    pub error: Option<String>,
    /// Assertion-verdict rollup, set at finalize: `Some(n)` = the job's
    /// runs carried verdicts and `n` of them failed; `None` = not yet
    /// finalized, or no run executed a disturbance experiment.
    pub assertion_failures: Option<u64>,
    /// `[start, end)` run ranges, one per shard.
    ranges: Vec<(usize, usize)>,
    shards: Vec<ShardState>,
    /// Worker deaths per shard.
    deaths: Vec<u32>,
    results: Vec<Option<R>>,
}

impl<R> JobEntry<R> {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// Shards whose results are recorded.
    pub fn shards_done(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s, ShardState::Done))
            .count()
    }

    /// Runs covered by recorded shards.
    pub fn completed_runs(&self) -> usize {
        self.shards
            .iter()
            .zip(&self.ranges)
            .filter(|(s, _)| matches!(s, ShardState::Done))
            .map(|(_, (a, b))| b - a)
            .sum()
    }

    fn all_done(&self) -> bool {
        self.shards.iter().all(|s| matches!(s, ShardState::Done))
    }
}

/// Why a submission was turned away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue already holds `cap` live (non-terminal) jobs.
    QueueFull {
        /// The configured cap.
        cap: usize,
    },
    /// A job with this id already exists.
    DuplicateId,
}

/// What [`Scheduler::complete`] / [`Scheduler::fail`] did with a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// Recorded. `job_finished` is true when this was the last shard —
    /// the caller owns finalization (the job is now `Finalizing`).
    Recorded {
        /// True when every shard of the job is now done.
        job_finished: bool,
    },
    /// The lease was stale (worker declared dead, job cancelled or
    /// failed meanwhile, or unknown job). The result must be discarded.
    Stale,
}

/// What [`Scheduler::worker_dead`] did with one of the dead worker's
/// shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardDeath {
    /// Back to pending, to be resumed from its checkpoint by a live
    /// worker.
    Requeued {
        /// Job id.
        job: String,
        /// Shard index within the job.
        shard: usize,
    },
    /// The shard's [`MAX_SHARD_DEATHS`]th death: the job is now
    /// `Failed` with `error`.
    JobFailed {
        /// Job id.
        job: String,
        /// Shard index within the job.
        shard: usize,
        /// The job's error, naming the shard and its runs.
        error: String,
    },
}

/// The scheduler. Generic over the per-shard result payload `R` so the
/// property tests can drive it with plain integers while the server
/// records `Vec<RunRecord>`s.
#[derive(Debug)]
pub struct Scheduler<R> {
    jobs: Vec<JobEntry<R>>,
    queue_cap: usize,
    next_lease: u64,
}

impl<R> Scheduler<R> {
    /// Scheduler admitting at most `queue_cap` live jobs at a time.
    pub fn new(queue_cap: usize) -> Self {
        Scheduler {
            jobs: Vec::new(),
            queue_cap: queue_cap.max(1),
            next_lease: 1,
        }
    }

    /// Jobs that are not yet terminal (queued, running or finalizing).
    pub fn live_count(&self) -> usize {
        self.jobs.iter().filter(|j| !j.status.is_terminal()).count()
    }

    /// All jobs in admission order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobEntry<R>> {
        self.jobs.iter()
    }

    /// Look up a job.
    pub fn get(&self, id: &str) -> Option<&JobEntry<R>> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Admit a job of `total_runs` runs, partitioned into shards of at
    /// most `shard_size` runs each.
    pub fn submit(
        &mut self,
        id: &str,
        total_runs: usize,
        shard_size: usize,
    ) -> Result<(), SubmitError> {
        debug_assert!(total_runs > 0, "empty jobs are rejected before admission");
        if self.get(id).is_some() {
            return Err(SubmitError::DuplicateId);
        }
        if self.live_count() >= self.queue_cap {
            return Err(SubmitError::QueueFull {
                cap: self.queue_cap,
            });
        }
        let size = shard_size.max(1);
        let mut ranges = Vec::new();
        let mut start = 0;
        while start < total_runs {
            let end = (start + size).min(total_runs);
            ranges.push((start, end));
            start = end;
        }
        let shards = vec![ShardState::Pending; ranges.len()];
        let deaths = vec![0; ranges.len()];
        let results = ranges.iter().map(|_| None).collect();
        self.jobs.push(JobEntry {
            id: id.to_string(),
            total_runs,
            status: JobStatus::Queued,
            error: None,
            assertion_failures: None,
            ranges,
            shards,
            deaths,
            results,
        });
        Ok(())
    }

    /// Hand `worker` the first pending shard of the oldest admissible
    /// job, or `None` when no work is available.
    pub fn next_work(&mut self, worker: u64) -> Option<Lease> {
        for job in &mut self.jobs {
            if !matches!(job.status, JobStatus::Queued | JobStatus::Running) {
                continue;
            }
            for (k, state) in job.shards.iter_mut().enumerate() {
                if *state == ShardState::Pending {
                    let lease = self.next_lease;
                    self.next_lease += 1;
                    *state = ShardState::Leased { lease, worker };
                    job.status = JobStatus::Running;
                    let (start, end) = job.ranges[k];
                    return Some(Lease {
                        job: job.id.clone(),
                        shard: k,
                        start,
                        end,
                        lease,
                        worker,
                    });
                }
            }
        }
        None
    }

    fn lease_matches(job: &JobEntry<R>, lease: &Lease) -> bool {
        matches!(
            job.shards.get(lease.shard),
            Some(ShardState::Leased { lease: l, worker: w })
                if *l == lease.lease && *w == lease.worker
        )
    }

    /// Record a completed shard's results under its lease.
    pub fn complete(&mut self, lease: &Lease, result: R) -> CompleteOutcome {
        let Some(job) = self.jobs.iter_mut().find(|j| j.id == lease.job) else {
            return CompleteOutcome::Stale;
        };
        if job.status != JobStatus::Running || !Self::lease_matches(job, lease) {
            return CompleteOutcome::Stale;
        }
        job.shards[lease.shard] = ShardState::Done;
        debug_assert!(
            job.results[lease.shard].is_none(),
            "a shard can only be recorded once"
        );
        job.results[lease.shard] = Some(result);
        let finished = job.all_done();
        if finished {
            job.status = JobStatus::Finalizing;
        }
        CompleteOutcome::Recorded {
            job_finished: finished,
        }
    }

    /// Report a shard failure under its lease: the whole job fails
    /// (remaining pending shards are never handed out; in-flight sibling
    /// shards become stale on completion).
    pub fn fail(&mut self, lease: &Lease, error: String) -> CompleteOutcome {
        let Some(job) = self.jobs.iter_mut().find(|j| j.id == lease.job) else {
            return CompleteOutcome::Stale;
        };
        if job.status != JobStatus::Running || !Self::lease_matches(job, lease) {
            return CompleteOutcome::Stale;
        }
        job.status = JobStatus::Failed;
        job.error = Some(error);
        CompleteOutcome::Recorded {
            job_finished: false,
        }
    }

    /// Return a leased shard to the pending pool **without** recording a
    /// result (drain path: the worker checkpointed and is exiting).
    /// Stale leases are ignored.
    pub fn release(&mut self, lease: &Lease) {
        if let Some(job) = self.jobs.iter_mut().find(|j| j.id == lease.job) {
            if job.status == JobStatus::Running && Self::lease_matches(job, lease) {
                job.shards[lease.shard] = ShardState::Pending;
            }
        }
    }

    /// Cancel a job. Returns the `(before, after)` status pair so the
    /// caller can tell "this call cancelled it" (`before` cancellable,
    /// `after == Cancelled`) from "already terminal or finalizing"
    /// (`before == after`), or `None` for an unknown id.
    pub fn cancel(&mut self, id: &str) -> Option<(JobStatus, JobStatus)> {
        let job = self.jobs.iter_mut().find(|j| j.id == id)?;
        let before = job.status;
        if matches!(job.status, JobStatus::Queued | JobStatus::Running) {
            job.status = JobStatus::Cancelled;
        }
        Some((before, job.status))
    }

    /// Declare `worker` dead. Each shard it holds goes back to pending
    /// (to be re-leased, and resumed from its checkpoint, by a live
    /// worker), unless this is the shard's [`MAX_SHARD_DEATHS`]th death:
    /// then its job fails through [`Scheduler::fail`]. Returns what
    /// happened to each shard of a live job.
    pub fn worker_dead(&mut self, worker: u64) -> Vec<ShardDeath> {
        let mut out = Vec::new();
        let mut exhausted = Vec::new();
        for job in &mut self.jobs {
            let live = matches!(job.status, JobStatus::Queued | JobStatus::Running);
            for (k, state) in job.shards.iter_mut().enumerate() {
                let ShardState::Leased { lease, worker: w } = *state else {
                    continue;
                };
                if w != worker {
                    continue;
                }
                job.deaths[k] += 1;
                if job.deaths[k] >= MAX_SHARD_DEATHS {
                    let (start, end) = job.ranges[k];
                    exhausted.push(Lease {
                        job: job.id.clone(),
                        shard: k,
                        start,
                        end,
                        lease,
                        worker,
                    });
                    continue;
                }
                *state = ShardState::Pending;
                if live {
                    out.push(ShardDeath::Requeued {
                        job: job.id.clone(),
                        shard: k,
                    });
                }
            }
        }
        for lease in exhausted {
            let error = format!(
                "shard {} (runs {}..{}) failed: its worker died {MAX_SHARD_DEATHS} times running it",
                lease.shard, lease.start, lease.end
            );
            if self.fail(&lease, error.clone()) != CompleteOutcome::Stale {
                out.push(ShardDeath::JobFailed {
                    job: lease.job,
                    shard: lease.shard,
                    error,
                });
            }
        }
        out
    }

    /// Record the finalized job's assertion-verdict rollup: how many of
    /// its runs failed their verdict (call only when at least one run
    /// carried a verdict).
    pub fn set_assertion_failures(&mut self, id: &str, failed: u64) {
        if let Some(job) = self.jobs.iter_mut().find(|j| j.id == id) {
            job.assertion_failures = Some(failed);
        }
    }

    /// Move a finalizing job to its terminal state. `error == None`
    /// marks it `Done`, otherwise `Failed` (artifact write failed).
    pub fn finalized(&mut self, id: &str, error: Option<String>) {
        if let Some(job) = self.jobs.iter_mut().find(|j| j.id == id) {
            if job.status == JobStatus::Finalizing {
                match error {
                    None => job.status = JobStatus::Done,
                    Some(e) => {
                        job.status = JobStatus::Failed;
                        job.error = Some(e);
                    }
                }
            }
        }
    }

    /// Take a finalizing job's per-shard results in shard order (= run
    /// expansion order, since shards are contiguous). Panics if any
    /// shard is unrecorded — callers only finalize after
    /// [`CompleteOutcome::Recorded`] with `job_finished`.
    pub fn take_results(&mut self, id: &str) -> Vec<R> {
        let job = self
            .jobs
            .iter_mut()
            .find(|j| j.id == id)
            .expect("finalizing job exists");
        job.results
            .iter_mut()
            .map(|slot| slot.take().expect("all shards recorded before finalize"))
            .collect()
    }

    /// Forget a finished job. Queued, running and finalizing jobs are
    /// never removed; returns whether `id` was.
    pub fn evict(&mut self, id: &str) -> bool {
        let before = self.jobs.len();
        self.jobs.retain(|j| j.id != id || !j.status.is_terminal());
        self.jobs.len() < before
    }

    /// True when any admissible job still has a pending shard.
    pub fn has_pending_work(&self) -> bool {
        self.jobs.iter().any(|j| {
            matches!(j.status, JobStatus::Queued | JobStatus::Running)
                && j.shards.contains(&ShardState::Pending)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_across_jobs_and_lifecycle() {
        let mut s: Scheduler<u32> = Scheduler::new(4);
        s.submit("a", 3, 2).unwrap();
        s.submit("b", 1, 2).unwrap();
        let l1 = s.next_work(0).unwrap();
        assert_eq!((l1.job.as_str(), l1.start, l1.end), ("a", 0, 2));
        let l2 = s.next_work(1).unwrap();
        assert_eq!((l2.job.as_str(), l2.start, l2.end), ("a", 2, 3));
        // Work stealing: with job a fully leased, the next worker pulls b.
        let l3 = s.next_work(0).unwrap();
        assert_eq!(l3.job, "b");
        assert_eq!(
            s.complete(&l1, 10),
            CompleteOutcome::Recorded {
                job_finished: false
            }
        );
        assert_eq!(
            s.complete(&l2, 20),
            CompleteOutcome::Recorded { job_finished: true }
        );
        assert_eq!(s.get("a").unwrap().status, JobStatus::Finalizing);
        assert_eq!(s.take_results("a"), vec![10, 20]);
        s.finalized("a", None);
        assert_eq!(s.get("a").unwrap().status, JobStatus::Done);
        assert_eq!(
            s.complete(&l3, 30),
            CompleteOutcome::Recorded { job_finished: true }
        );
    }

    #[test]
    fn queue_cap_counts_only_live_jobs() {
        let mut s: Scheduler<u32> = Scheduler::new(1);
        s.submit("a", 1, 1).unwrap();
        assert_eq!(s.submit("b", 1, 1), Err(SubmitError::QueueFull { cap: 1 }));
        assert_eq!(
            s.cancel("a"),
            Some((JobStatus::Queued, JobStatus::Cancelled))
        );
        // A second cancel reports the unchanged pair.
        assert_eq!(
            s.cancel("a"),
            Some((JobStatus::Cancelled, JobStatus::Cancelled))
        );
        s.submit("b", 1, 1).unwrap();
        assert_eq!(s.submit("b", 1, 1), Err(SubmitError::DuplicateId));
    }

    #[test]
    fn dead_worker_releases_and_stale_lease_is_discarded() {
        let mut s: Scheduler<u32> = Scheduler::new(4);
        s.submit("a", 2, 1).unwrap();
        let dead = s.next_work(7).unwrap();
        assert_eq!(
            s.worker_dead(7),
            vec![ShardDeath::Requeued {
                job: "a".to_string(),
                shard: 0
            }]
        );
        // Shard re-leased to a live worker; the zombie's completion is
        // discarded, the live one is recorded.
        let live = s.next_work(8).unwrap();
        assert_eq!(live.shard, dead.shard);
        assert_eq!(s.complete(&dead, 1), CompleteOutcome::Stale);
        assert_eq!(
            s.complete(&live, 2),
            CompleteOutcome::Recorded {
                job_finished: false
            }
        );
    }

    #[test]
    fn failure_poisons_the_job_and_siblings_go_stale() {
        let mut s: Scheduler<u32> = Scheduler::new(4);
        s.submit("a", 2, 1).unwrap();
        let l0 = s.next_work(0).unwrap();
        let l1 = s.next_work(1).unwrap();
        assert_eq!(
            s.fail(&l0, "boom".into()),
            CompleteOutcome::Recorded {
                job_finished: false
            }
        );
        assert_eq!(s.get("a").unwrap().status, JobStatus::Failed);
        assert_eq!(s.complete(&l1, 5), CompleteOutcome::Stale);
        assert!(s.next_work(2).is_none());
    }

    #[test]
    fn only_finished_jobs_are_evicted() {
        let mut s: Scheduler<u32> = Scheduler::new(4);
        s.submit("a", 1, 1).unwrap();
        s.submit("b", 1, 1).unwrap();
        s.next_work(0).unwrap();
        assert!(!s.evict("a"), "a running job stays");
        assert!(!s.evict("b"), "a queued job stays");
        s.cancel("b");
        assert!(s.evict("b"));
        assert!(s.get("b").is_none() && s.get("a").is_some());
        assert!(!s.evict("b"));
    }

    #[test]
    fn release_returns_shard_to_pending() {
        let mut s: Scheduler<u32> = Scheduler::new(4);
        s.submit("a", 1, 1).unwrap();
        let l = s.next_work(0).unwrap();
        s.release(&l);
        assert!(s.has_pending_work());
        let l2 = s.next_work(1).unwrap();
        assert_eq!(l2.shard, l.shard);
        assert_ne!(l2.lease, l.lease);
    }
}
