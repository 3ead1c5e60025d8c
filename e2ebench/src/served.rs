//! `served-jobs`: an in-process `electrifi_serve::Server` on a unix
//! socket, driven by two closed-loop clients. Each client submits a
//! seed-generated campaign with `POST /campaigns`, follows
//! `GET /campaigns/:id/events` to the terminal status event, as the
//! program's own clients do, then fetches `GET …/results`; only then does
//! it submit its next job.
//!
//! Why: this is almost all control plane — HTTP parsing, queue
//! admission, shard leases, per-run shard checkpoints
//! (`checkpoint_every_runs = 1`) and the results cache — and it is the
//! only workload that covers `serve`. A refactor of the campaign runner
//! must show no cost here.

use crate::{gen, Ctx, Layer, Ops, Workload};
use electrifi_scenario::{run_campaign, write_artifacts, CampaignSpec};
use electrifi_serve::{Bind, HttpClient, ServeConfig, Server};
use simnet::obs::MetricsSnapshot;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Closed-loop clients (at most nproc on the benchmark host).
const CLIENTS: usize = 2;
/// A job still unfinished after this long counts as failed.
const JOB_DEADLINE_S: f64 = 30.0;
/// Jobs the server may lose to the submission race (see
/// [`JobResult::Lost`]) before the run fails its check: 1% of the jobs
/// run, and at least this many.
const LOST_FLOOR: u64 = 2;

/// Host-side timings of one job, in seconds.
#[derive(Default, Clone, Copy)]
struct JobTimes {
    submit: f64,
    queue_wait: f64,
    execute: f64,
    results: f64,
}

enum JobResult {
    Ok {
        latency: f64,
        times: JobTimes,
    },
    Failed(String),
    Rejected(u16),
    /// The server failed the job because a worker leased its shard
    /// before the job was registered (`no job data for …`): a race in
    /// submission that a client can only answer by resubmitting.
    Lost(String),
}

/// Marker of the submission race in a failed job's error.
const LOST_JOB: &str = "no job data for";

pub struct Served {
    server: Server,
    workers: usize,
    jobs: Vec<String>,
    /// `summary.json` of each job from an in-process `run_campaign`.
    expected: Vec<Vec<u8>>,
    times: Vec<JobTimes>,
    rejected: u64,
    /// Jobs run, resubmissions not counted.
    jobs_run: u64,
    /// Jobs resubmitted after the server lost them (see [`JobResult::Lost`]).
    resubmitted: u64,
    /// HTTP requests the clients made.
    requests: u64,
    passes: u64,
}

/// One job as a client saw it.
struct Job {
    result: JobResult,
    resubmitted: bool,
    /// HTTP requests made for it.
    requests: u64,
}

/// Run one job, resubmitting it once if the server lost it to the
/// submission race; latency counts from the first submission.
fn one_job(client: &HttpClient, body: &str, expected: &[u8]) -> Job {
    let t0 = Instant::now();
    let mut requests = 0;
    let (result, resubmitted) = match attempt(client, body, expected, t0, &mut requests) {
        JobResult::Lost(why) => {
            eprintln!("resubmitting: {why}");
            let second = match attempt(client, body, expected, t0, &mut requests) {
                JobResult::Lost(why) => JobResult::Failed(why),
                other => other,
            };
            (second, true)
        }
        first => (first, false),
    };
    Job {
        result,
        resubmitted,
        requests,
    }
}

/// A string field of a JSON object.
fn str_field<'a>(v: &'a serde::Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(serde::Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Submit `body`, follow the job to its end and fetch its results,
/// counting each HTTP request in `requests`.
fn attempt(
    client: &HttpClient,
    body: &str,
    expected: &[u8],
    t0: Instant,
    requests: &mut u64,
) -> JobResult {
    *requests += 1;
    let sub = match client.request("POST", "/campaigns", Some(body.as_bytes())) {
        Ok(r) => r,
        Err(e) => return JobResult::Failed(format!("submit: {e}")),
    };
    let submitted = t0.elapsed().as_secs_f64();
    if sub.status == 429 || sub.status == 503 {
        return JobResult::Rejected(sub.status);
    }
    if sub.status != 202 {
        return JobResult::Failed(format!("submit answered {}: {}", sub.text(), sub.status));
    }
    let doc: serde::Value = match serde_json::from_str(&sub.text()) {
        Ok(v) => v,
        Err(e) => return JobResult::Failed(format!("submit reply: {e}")),
    };
    let Some(serde::Value::Str(id)) = doc.get("id") else {
        return JobResult::Failed("submit reply has no id".into());
    };
    // Follow the job's event stream. Its first line is the status
    // document, so a job that ended before the stream opened is seen at
    // once; the first `run_start` ends the queue wait. The stream sends
    // nothing while a run computes, so a job that hangs silently is left
    // to the process deadline.
    let mut started: Option<f64> = None;
    let mut end: Option<(String, Option<String>, f64)> = None;
    *requests += 1;
    let streamed = client.stream_lines(&format!("/campaigns/{id}/events"), |line| {
        let now = t0.elapsed().as_secs_f64();
        let Ok(ev) = serde_json::from_str::<serde::Value>(line) else {
            return now < JOB_DEADLINE_S;
        };
        match str_field(&ev, "event") {
            Some("run_start") => {
                started.get_or_insert(now);
            }
            Some("status") => {
                let doc = ev.get("campaign").unwrap_or(&ev);
                let status = str_field(doc, "status").unwrap_or_default();
                if !matches!(status, "queued" | "running" | "finalizing") {
                    let error = str_field(doc, "error").map(str::to_string);
                    end = Some((status.to_string(), error, now));
                    return false;
                }
                if status != "queued" {
                    started.get_or_insert(now);
                }
            }
            _ => {}
        }
        now < JOB_DEADLINE_S
    });
    match streamed {
        Ok(200) => {}
        Ok(code) => return JobResult::Failed(format!("events of {id} answered {code}")),
        Err(e) => return JobResult::Failed(format!("events of {id}: {e}")),
    }
    let finished = match end {
        Some((status, _, now)) if status == "done" => now,
        Some((status, error, now)) => {
            let why = format!("job {id} is {status:?} after {now:.1} s (error: {error:?})");
            if error.is_some_and(|e| e.contains(LOST_JOB)) {
                return JobResult::Lost(why);
            }
            return JobResult::Failed(why);
        }
        None => {
            return JobResult::Failed(format!(
                "job {id} not finished after {:.1} s",
                t0.elapsed().as_secs_f64()
            ))
        }
    };
    *requests += 1;
    let res = match client.request("GET", &format!("/campaigns/{id}/results"), None) {
        Ok(r) => r,
        Err(e) => return JobResult::Failed(format!("results: {e}")),
    };
    let latency = t0.elapsed().as_secs_f64();
    if res.status != 200 {
        return JobResult::Failed(format!("results answered {}", res.status));
    }
    if res.body != expected {
        return JobResult::Failed(format!(
            "output check: job {id} results differ from the in-process run_campaign"
        ));
    }
    let started = started.unwrap_or(finished);
    JobResult::Ok {
        latency,
        times: JobTimes {
            submit: submitted,
            queue_wait: started - submitted,
            execute: finished - started,
            results: latency - finished,
        },
    }
}

impl Workload for Served {
    const NAME: &'static str = "served-jobs";
    const TAIL_CAP: u32 = 90;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        // Each server gets its own socket and artifact root: a server
        // finds its listener again through the socket path when it shuts
        // down, so two servers must never share one.
        static SERVERS: AtomicUsize = AtomicUsize::new(0);
        let n = SERVERS.fetch_add(1, Ordering::Relaxed);
        let mut config = ServeConfig::new(
            Bind::Unix(ctx.work.join(format!("serve-{n}.sock"))),
            ctx.work.join(format!("serve-{n}")),
        );
        config.workers = ctx.nproc;
        let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
        let health = server
            .client()
            .request("GET", "/healthz", None)
            .map_err(|e| format!("healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("healthz answered {}", health.status));
        }
        Ok(Served {
            server,
            workers: ctx.nproc,
            jobs: gen::served_jobs(ctx.seed),
            expected: Vec::new(),
            times: Vec::new(),
            rejected: 0,
            jobs_run: 0,
            resubmitted: 0,
            requests: 0,
            passes: 0,
        })
    }

    fn prepare(&mut self, ctx: &Ctx) -> Result<(), String> {
        for (i, job) in self.jobs.iter().enumerate() {
            let spec =
                CampaignSpec::from_json_str(job, Path::new(".")).map_err(|e| e.to_string())?;
            let summary = run_campaign(&spec, self.workers, None).map_err(|e| e.to_string())?;
            let dir = ctx.work.join(format!("reference-{i}"));
            write_artifacts(&summary, &dir).map_err(|e| e.to_string())?;
            let bytes = std::fs::read(dir.join("summary.json")).map_err(|e| e.to_string())?;
            self.expected.push(bytes);
        }
        Ok(())
    }

    fn pass(&mut self, ops: &mut Ops) -> Vec<f64> {
        let t0 = Instant::now();
        let results = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let client = self.server.client();
                let (jobs, expected, results) = (&self.jobs, &self.expected, &results);
                scope.spawn(move || {
                    // Each client walks the whole mix from its own offset.
                    for k in 0..jobs.len() {
                        let j = (k + c * jobs.len() / CLIENTS) % jobs.len();
                        let r = one_job(&client, &jobs[j], &expected[j]);
                        results.lock().expect("a client panicked").push(r);
                    }
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        self.passes += 1;
        let lost_before = self.resubmitted;
        for job in results.into_inner().expect("a client panicked") {
            self.jobs_run += 1;
            self.resubmitted += u64::from(job.resubmitted);
            self.requests += job.requests;
            match job.result {
                JobResult::Ok { latency, times } => {
                    ops.done(latency);
                    self.times.push(times);
                }
                JobResult::Failed(why) | JobResult::Lost(why) => ops.fail(&why),
                JobResult::Rejected(status) => {
                    self.rejected += 1;
                    ops.fail(&format!("submission refused with {status}"));
                }
            }
        }
        if self.resubmitted > lost_before {
            eprintln!(
                "lost to the submission race so far: {} of {} jobs",
                self.resubmitted, self.jobs_run
            );
            let budget = (self.jobs_run / 100).max(LOST_FLOOR);
            if lost_before <= budget && self.resubmitted > budget {
                ops.mismatch(&format!(
                    "the server lost {} of {} jobs, more than {budget}",
                    self.resubmitted, self.jobs_run
                ));
            }
        }
        vec![wall]
    }

    fn workers(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("host.workers.threads", self.workers),
            ("host.workers.serve", self.workers),
        ]
    }

    fn layers(&self) -> Vec<Layer> {
        let mean = |f: fn(&JobTimes) -> f64| {
            self.times.iter().map(f).sum::<f64>() / self.times.len().max(1) as f64
        };
        // Server-side counters, through the public /metrics endpoint.
        let snap: Option<MetricsSnapshot> = self
            .server
            .client()
            .request("GET", "/metrics", None)
            .ok()
            .and_then(|r| serde_json::from_str(&r.text()).ok());
        let writes = snap.map_or(0, |s| s.counter("serve.workers.checkpoint_writes"));
        vec![
            ("serve.submit_s", mean(|t| t.submit)),
            ("serve.queue_wait_s", mean(|t| t.queue_wait)),
            ("serve.execute_s", mean(|t| t.execute)),
            ("serve.results_s", mean(|t| t.results)),
            ("serve.rejected", self.rejected as f64),
            ("serve.resubmitted", self.resubmitted as f64),
            (
                "serve.requests_per_job",
                self.requests as f64 / self.jobs_run.max(1) as f64,
            ),
            (
                "state.checkpoint_writes",
                writes as f64 / self.passes.max(1) as f64,
            ),
        ]
    }

    fn teardown(self) {
        self.server.shutdown(true);
        if let Err(e) = self.server.wait() {
            eprintln!("server shutdown: {e}");
        }
    }
}
