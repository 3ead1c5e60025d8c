//! Property tests for the shard scheduler: under arbitrary
//! interleavings of submit / steal / complete / fail / cancel /
//! worker-death, no job's work is ever lost or recorded twice.
//!
//! The scheduler is a pure data structure (no threads, no clocks), so
//! these tests drive the very same code the multithreaded server runs —
//! just deterministically, through op sequences drawn by proptest.

use electrifi_serve::queue::{
    CompleteOutcome, JobStatus, Lease, Scheduler, ShardDeath, SubmitError,
};
use proptest::prelude::*;

/// One decoded operation against the scheduler.
#[derive(Debug)]
enum Op {
    Submit { runs: usize, shard_size: usize },
    NextWork { worker: u64 },
    CompleteOldest,
    CompleteNewest,
    FailOldest,
    Cancel { job: usize },
    WorkerDead { worker: u64 },
}

/// Decode a raw `(kind, a, b)` tuple into an operation. Tuples keep the
/// strategy simple (the vendored shim has no enum strategies) while
/// still covering the whole op space.
fn decode(kind: u8, a: u8, b: u8) -> Op {
    match kind % 7 {
        0 => Op::Submit {
            runs: 1 + (a as usize % 9),
            shard_size: 1 + (b as usize % 4),
        },
        1 => Op::NextWork {
            worker: u64::from(a % 4),
        },
        2 => Op::CompleteOldest,
        3 => Op::CompleteNewest,
        4 => Op::FailOldest,
        5 => Op::Cancel {
            job: a as usize % 8,
        },
        _ => Op::WorkerDead {
            worker: u64::from(a % 4),
        },
    }
}

/// The harness: applies ops, tracking outstanding leases like the
/// worker pool would (each lease's result is eventually presented
/// exactly once), then drains to quiescence and checks the invariants.
struct Harness {
    sched: Scheduler<Vec<u64>>,
    outstanding: Vec<Lease>,
    next_job: usize,
    submitted: Vec<(String, usize)>,
    rejected_full: usize,
}

/// The payload a lease's worker would produce: one marker value per run
/// in the leased range, so lost or duplicated work is visible in the
/// final concatenation.
fn payload(lease: &Lease) -> Vec<u64> {
    (lease.start..lease.end).map(|i| i as u64).collect()
}

impl Harness {
    fn new(cap: usize) -> Self {
        Harness {
            sched: Scheduler::new(cap),
            outstanding: Vec::new(),
            next_job: 0,
            submitted: Vec::new(),
            rejected_full: 0,
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Submit { runs, shard_size } => {
                let id = format!("job{}", self.next_job);
                self.next_job += 1;
                match self.sched.submit(&id, runs, shard_size) {
                    Ok(()) => self.submitted.push((id, runs)),
                    Err(SubmitError::QueueFull { .. }) => self.rejected_full += 1,
                    Err(SubmitError::DuplicateId) => panic!("ids are unique by construction"),
                }
            }
            Op::NextWork { worker } => {
                if let Some(lease) = self.sched.next_work(worker) {
                    self.outstanding.push(lease);
                }
            }
            Op::CompleteOldest => {
                if !self.outstanding.is_empty() {
                    let lease = self.outstanding.remove(0);
                    let result = payload(&lease);
                    self.sched.complete(&lease, result);
                }
            }
            Op::CompleteNewest => {
                if let Some(lease) = self.outstanding.pop() {
                    let result = payload(&lease);
                    self.sched.complete(&lease, result);
                }
            }
            Op::FailOldest => {
                if !self.outstanding.is_empty() {
                    let lease = self.outstanding.remove(0);
                    self.sched.fail(&lease, "injected failure".to_string());
                }
            }
            Op::Cancel { job } => {
                self.sched.cancel(&format!("job{job}"));
            }
            Op::WorkerDead { worker } => {
                // The scheduler re-admits the dead worker's shards; the
                // harness keeps the zombie's leases outstanding (a real
                // slow worker would still present them later) to
                // exercise stale-lease discard.
                self.sched.worker_dead(worker);
            }
        }
    }

    /// Drive every remaining lease and pending shard to an end state,
    /// like the pool draining a quiet queue.
    fn run_to_quiescence(&mut self) {
        // Present every outstanding (possibly stale) lease.
        while !self.outstanding.is_empty() {
            let lease = self.outstanding.remove(0);
            let result = payload(&lease);
            self.sched.complete(&lease, result);
        }
        // Then work honestly until nothing is pending.
        while let Some(lease) = self.sched.next_work(99) {
            let result = payload(&lease);
            let outcome = self.sched.complete(&lease, result);
            assert!(
                matches!(outcome, CompleteOutcome::Recorded { .. }),
                "a fresh lease's completion must be recorded"
            );
        }
        // Finalize everything that finished.
        let finalizing: Vec<String> = self
            .sched
            .jobs()
            .filter(|j| j.status == JobStatus::Finalizing)
            .map(|j| j.id.clone())
            .collect();
        for id in finalizing {
            let shards = self.sched.take_results(&id);
            let flat: Vec<u64> = shards.into_iter().flatten().collect();
            let total = self
                .sched
                .get(&id)
                .map(|j| j.total_runs)
                .expect("job exists");
            // THE invariant: exactly one marker per run, in order —
            // nothing lost, nothing duplicated, regardless of the
            // interleaving that got us here.
            let expected: Vec<u64> = (0..total as u64).collect();
            assert_eq!(flat, expected, "job {id} lost or duplicated work");
            self.sched.finalized(&id, None);
        }
    }
}

/// A shard whose worker dies a second time fails its job instead of
/// going back to pending, so a run that panics on every attempt cannot
/// cycle the pool through worker deaths forever.
#[test]
fn second_death_of_a_shard_fails_its_job() {
    let mut s: Scheduler<Vec<u64>> = Scheduler::new(2);
    s.submit("j", 3, 1).unwrap();
    let first = s.next_work(1).expect("shard leases");
    assert_eq!(
        s.worker_dead(1),
        vec![ShardDeath::Requeued {
            job: "j".to_string(),
            shard: first.shard
        }]
    );
    let second = s.next_work(2).expect("shard re-admitted after one death");
    assert_eq!(second.shard, first.shard);
    let deaths = s.worker_dead(2);
    let [ShardDeath::JobFailed { job, shard, error }] = &deaths[..] else {
        panic!("second death must fail the job: {deaths:?}");
    };
    assert_eq!((job.as_str(), *shard), ("j", first.shard));
    assert!(error.contains("shard 0 (runs 0..1)"), "{error}");
    let entry = s.get("j").expect("job exists");
    assert_eq!(entry.status, JobStatus::Failed);
    assert_eq!(entry.error.as_deref(), Some(error.as_str()));
    assert!(!s.has_pending_work());
    assert!(s.next_work(3).is_none());
}

proptest! {
    /// Any op interleaving drains to a state where every submitted job
    /// is terminal and every `Done` job recorded each run exactly once.
    #[test]
    fn no_work_lost_or_duplicated(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 0..60),
        cap in 1usize..4,
    ) {
        let mut h = Harness::new(cap);
        for (kind, a, b) in ops {
            h.apply(decode(kind, a, b));
        }
        h.run_to_quiescence();
        for job in h.sched.jobs() {
            prop_assert!(
                job.status.is_terminal(),
                "job {} ended non-terminal: {:?}", job.id, job.status
            );
            if job.status == JobStatus::Done {
                prop_assert_eq!(job.completed_runs(), job.total_runs);
                prop_assert_eq!(job.shards_done(), job.shard_count());
            }
        }
        prop_assert!(!h.sched.has_pending_work());
    }

    /// The queue cap bounds live jobs at every point, and cancelling
    /// frees capacity.
    #[test]
    fn queue_cap_is_respected(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 0..60),
        cap in 1usize..4,
    ) {
        let mut h = Harness::new(cap);
        for (kind, a, b) in ops {
            h.apply(decode(kind, a, b));
            prop_assert!(h.sched.live_count() <= cap);
        }
    }

    /// A lease invalidated by worker death is discarded as stale, and
    /// the re-leased shard's honest completion is the one recorded.
    #[test]
    fn stale_leases_never_double_record(
        runs in 1usize..9,
        shard_size in 1usize..4,
    ) {
        let mut s: Scheduler<Vec<u64>> = Scheduler::new(2);
        s.submit("j", runs, shard_size).unwrap();
        let zombie = s.next_work(1).expect("first shard leases");
        prop_assert!(!s.worker_dead(1).is_empty());
        // The replacement takes the same shard under a fresh lease.
        let fresh = s.next_work(2).expect("shard re-admitted after death");
        prop_assert_eq!(fresh.shard, zombie.shard);
        // Zombie reports late: stale, discarded.
        let stale = s.complete(&zombie, payload(&zombie));
        prop_assert_eq!(stale, CompleteOutcome::Stale);
        // Honest completion records.
        let honest = s.complete(&fresh, payload(&fresh));
        prop_assert!(matches!(honest, CompleteOutcome::Recorded { .. }));
        let job = s.get("j").expect("job exists");
        prop_assert_eq!(job.shards_done(), 1);
    }
}
