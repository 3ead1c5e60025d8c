//! The control-plane server: listener, routes and shared state.
//!
//! One `Server` owns a listener (TCP or unix socket), a pool of
//! work-stealing shard workers (see [`crate::pool`]), a heartbeat
//! supervisor and the shared [`Core`] every thread hangs off. The wire
//! protocol is specified in DESIGN.md §12; this module is its reference
//! implementation.
//!
//! Degradation rules, all enforced here or one module down:
//!
//! * request head/body caps → 431/413 before buffering;
//! * bounded job queue → 429 with `Retry-After`;
//! * bounded per-job event rings → slow subscribers get gap notices,
//!   publishers never block;
//! * bounded results cache → eviction spills to the artifacts already
//!   on disk;
//! * connection cap → immediate 503;
//! * `POST /shutdown` → drain (finish + checkpoint in-flight shards,
//!   refuse new work) or `now` (checkpoint at the next run boundary).

use crate::cache::ResultsCache;
use crate::client::{Endpoint, HttpClient};
use crate::events::{Batch, EventHub};
use crate::http::{self, ChunkedWriter, HttpError, Request};
use crate::metrics::ServeMetrics;
use crate::pool;
use crate::queue::{JobStatus, Scheduler, SubmitError};
use electrifi_scenario::{validate_scenarios, CampaignSpec, RunRecord, RunSpec};
use serde::Serialize;
use simnet::obs::config_digest;
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Recover from mutex poisoning: all guarded state keeps its invariants
/// across panics (the worker-death path is *designed* around panics).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where the server should listen.
#[derive(Debug, Clone)]
pub enum Bind {
    /// TCP address (`127.0.0.1:0` picks a free port).
    Tcp(String),
    /// Unix domain socket path (any stale file is replaced).
    Unix(PathBuf),
}

/// Server configuration. `new` fills every knob with a sane default;
/// the fields are public so callers override what they need.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listener address.
    pub bind: Bind,
    /// Per-job artifact directories live under `out_root/<job id>`.
    pub out_root: PathBuf,
    /// Base directory anchoring relative scenario paths in submitted
    /// campaign documents.
    pub scenario_root: PathBuf,
    /// Shard worker threads.
    pub workers: usize,
    /// Maximum live (queued/running/finalizing) jobs; beyond it
    /// submissions get 429.
    pub queue_cap: usize,
    /// Runs per shard (the unit of lease, checkpoint and recovery).
    pub shard_size: usize,
    /// Request head cap in bytes (431 beyond it).
    pub max_head_bytes: usize,
    /// Request body cap in bytes (413 beyond it).
    pub max_body_bytes: usize,
    /// Results served from disk or cache are refused beyond this size.
    pub max_result_bytes: u64,
    /// In-memory results cache capacity in bytes.
    pub cache_bytes: usize,
    /// Per-job event ring capacity in lines.
    pub events_ring: usize,
    /// Capacity of the per-shard ObsEvent channel (`?obs=1` streaming).
    pub obs_channel_cap: usize,
    /// Concurrent connections beyond this get an immediate 503.
    pub max_connections: usize,
    /// A busy worker whose heartbeat is older than this is declared
    /// dead and its shards re-admitted.
    pub heartbeat_timeout: Duration,
    /// Supervisor scan interval.
    pub supervisor_interval: Duration,
    /// Write a shard checkpoint every N completed runs.
    pub checkpoint_every_runs: usize,
    /// Test hook: the first worker about to execute the run with this
    /// name panics instead, simulating worker death mid-campaign
    /// (`ELECTRIFI_SERVE_KILL_RUN` in the `serve` binary).
    pub kill_run_marker: Option<String>,
}

impl ServeConfig {
    /// Defaults for every knob except where to listen and write.
    pub fn new(bind: Bind, out_root: impl Into<PathBuf>) -> Self {
        ServeConfig {
            bind,
            out_root: out_root.into(),
            scenario_root: PathBuf::from("."),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_cap: 8,
            shard_size: 4,
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            max_result_bytes: 256 * 1024 * 1024,
            cache_bytes: 64 * 1024 * 1024,
            events_ring: 1024,
            obs_channel_cap: 1024,
            max_connections: 64,
            heartbeat_timeout: Duration::from_secs(30),
            supervisor_interval: Duration::from_millis(100),
            checkpoint_every_runs: 1,
            kill_run_marker: None,
        }
    }
}

/// Everything the server knows about one admitted campaign that the
/// scheduler doesn't: the parsed spec, the expanded work list, artifact
/// directory and live-stream plumbing.
pub(crate) struct JobData {
    pub spec: CampaignSpec,
    pub runs: Vec<RunSpec>,
    pub digest: String,
    pub dir: PathBuf,
    pub hub: Arc<EventHub>,
    /// Set on cancel/failure so in-flight shards stop at the next run.
    pub cancel: Arc<AtomicBool>,
    /// Sticky: once any subscriber asked for `?obs=1`, later shards of
    /// this job attach a `ChannelSink` (inert for the results either
    /// way — the observability invariant).
    pub obs_wanted: Arc<AtomicBool>,
}

pub(crate) struct WorkerSlot {
    pub id: u64,
    /// Milliseconds since `Core::epoch` of the last heartbeat.
    pub beat_ms: Arc<AtomicU64>,
    pub busy: Arc<AtomicBool>,
    /// Cleared by the supervisor on declared death (the zombie retires
    /// at its next loop iteration) or by the worker on exit.
    pub alive: Arc<AtomicBool>,
    pub handle: Option<std::thread::JoinHandle<()>>,
}

/// Shared state every thread of the server hangs off.
pub(crate) struct Core {
    pub config: ServeConfig,
    pub endpoint: Endpoint,
    pub sched: Mutex<Scheduler<Vec<RunRecord>>>,
    pub work_cv: Condvar,
    pub jobs: Mutex<HashMap<String, Arc<JobData>>>,
    pub workers: Mutex<Vec<WorkerSlot>>,
    pub cache: ResultsCache,
    pub metrics: ServeMetrics,
    /// No new submissions; workers exit after their current shard.
    pub draining: AtomicBool,
    /// Workers checkpoint and stop at the next run boundary.
    pub stop_now: AtomicBool,
    /// Supervisor exits (after a final metrics write).
    pub supervisor_stop: AtomicBool,
    pub next_job: AtomicU64,
    pub next_worker: AtomicU64,
    pub active_conns: AtomicUsize,
    /// One-shot arming of `kill_run_marker`.
    pub kill_armed: AtomicBool,
    epoch: Instant,
}

impl Core {
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    pub fn job(&self, id: &str) -> Option<Arc<JobData>> {
        lock(&self.jobs).get(id).cloned()
    }
}

enum ServerStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for ServerStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ServerStream::Tcp(s) => s.read(buf),
            ServerStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ServerStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ServerStream::Tcp(s) => s.write(buf),
            ServerStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ServerStream::Tcp(s) => s.flush(),
            ServerStream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<ServerStream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| ServerStream::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| ServerStream::Unix(s)),
        }
    }
}

/// A running control-plane server.
pub struct Server {
    core: Arc<Core>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    supervisor_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and supervisor, and start accepting.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        install_quiet_panic_hook();
        std::fs::create_dir_all(&config.out_root)?;
        let (listener, endpoint) = match &config.bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let resolved = l.local_addr()?.to_string();
                (Listener::Tcp(l), Endpoint::Tcp(resolved))
            }
            Bind::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                let l = UnixListener::bind(path)?;
                (Listener::Unix(l), Endpoint::Unix(path.clone()))
            }
        };
        let workers = config.workers.max(1);
        let core = Arc::new(Core {
            endpoint,
            sched: Mutex::new(Scheduler::new(config.queue_cap)),
            work_cv: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
            cache: ResultsCache::new(config.cache_bytes),
            metrics: ServeMetrics::new(),
            draining: AtomicBool::new(false),
            stop_now: AtomicBool::new(false),
            supervisor_stop: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
            next_worker: AtomicU64::new(1),
            active_conns: AtomicUsize::new(0),
            kill_armed: AtomicBool::new(config.kill_run_marker.is_some()),
            epoch: Instant::now(),
            config,
        });
        for _ in 0..workers {
            pool::spawn_worker(&core);
        }
        let supervisor_handle = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || pool::supervisor_loop(&core))
        };
        let accept_handle = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || accept_loop(&core, listener))
        };
        Ok(Server {
            core,
            accept_handle: Some(accept_handle),
            supervisor_handle: Some(supervisor_handle),
        })
    }

    /// Where the server actually listens (resolved port for `:0` binds).
    pub fn endpoint(&self) -> Endpoint {
        self.core.endpoint.clone()
    }

    /// A client talking to this server.
    pub fn client(&self) -> HttpClient {
        HttpClient::new(self.endpoint())
    }

    /// Trigger shutdown programmatically (same semantics as
    /// `POST /shutdown`): drain, or stop at the next run boundary.
    pub fn shutdown(&self, now: bool) {
        initiate_shutdown(&self.core, now);
    }

    /// Block until the server has fully drained: accept loop closed,
    /// workers exited (checkpointing in-flight shards), final
    /// `server.metrics.json` written.
    pub fn wait(mut self) -> std::io::Result<()> {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        self.core.work_cv.notify_all();
        loop {
            let slot = lock(&self.core.workers)
                .iter_mut()
                .find_map(|w| w.handle.take());
            match slot {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        self.core.supervisor_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.supervisor_handle.take() {
            let _ = h.join();
        }
        if let Endpoint::Unix(path) = &self.core.endpoint {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Silence the backtraces of *injected* worker deaths (the
/// `kill_run_marker` test hook) while leaving every other panic loud.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(pool::INJECTED_DEATH_MARKER));
            if !injected {
                default(info);
            }
        }));
    });
}

fn initiate_shutdown(core: &Arc<Core>, now: bool) {
    core.draining.store(true, Ordering::SeqCst);
    if now {
        core.stop_now.store(true, Ordering::SeqCst);
    }
    core.work_cv.notify_all();
    // Unblock the accept loop with a throwaway connection to self.
    let _ = match &core.endpoint {
        Endpoint::Tcp(addr) => TcpStream::connect(addr).map(|_| ()),
        Endpoint::Unix(path) => UnixStream::connect(path).map(|_| ()),
    };
}

fn accept_loop(core: &Arc<Core>, listener: Listener) {
    loop {
        if core.draining.load(Ordering::SeqCst) {
            break;
        }
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => continue,
        };
        if core.draining.load(Ordering::SeqCst) {
            break;
        }
        core.metrics.inc(&core.metrics.http_connections);
        if core.active_conns.load(Ordering::SeqCst) >= core.config.max_connections {
            core.metrics.inc(&core.metrics.http_rejected_busy);
            let mut stream = stream;
            let _ = http::respond_error(&mut stream, 503, "connection limit reached");
            continue;
        }
        core.active_conns.fetch_add(1, Ordering::SeqCst);
        let core = Arc::clone(core);
        std::thread::spawn(move || {
            handle_connection(&core, stream);
            core.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

fn handle_connection(core: &Arc<Core>, stream: ServerStream) {
    let mut reader = BufReader::new(stream);
    let req = match http::read_request(
        &mut reader,
        core.config.max_head_bytes,
        core.config.max_body_bytes,
    ) {
        Ok(Some(req)) => req,
        Ok(None) => return,
        Err(e) => {
            core.metrics.inc(&core.metrics.http_bad_requests);
            let out = reader.get_mut();
            let _ = match e {
                HttpError::BadRequest(msg) => http::respond_error(out, 400, &msg),
                HttpError::HeadTooLarge { limit } => http::respond_error(
                    out,
                    431,
                    &format!("request head exceeds the {limit}-byte cap"),
                ),
                HttpError::BodyTooLarge { limit } => http::respond_error(
                    out,
                    413,
                    &format!("request body exceeds the {limit}-byte cap"),
                ),
                HttpError::Io(_) => return,
            };
            return;
        }
    };
    core.metrics.inc(&core.metrics.http_requests);
    let _ = route(core, &req, reader.get_mut());
}

// ---------------------------------------------------------------------------
// Wire documents (serde-derived so escaping is never hand-rolled)
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct SubmittedDoc {
    id: String,
    status: String,
    total_runs: u64,
    shards: u64,
    config_digest: String,
}

#[derive(Serialize)]
struct StatusDoc {
    id: String,
    status: String,
    total_runs: u64,
    completed_runs: u64,
    shards_total: u64,
    shards_done: u64,
    error: Option<String>,
    events_dropped: u64,
    /// `"pass"` / `"fail"` once a job with disturbance runs finalizes;
    /// `null` while running or when no run carried a verdict.
    verdict: Option<String>,
    /// Runs whose assertion verdict failed (0 until finalized).
    verdict_failures: u64,
}

#[derive(Serialize)]
struct ListDoc {
    campaigns: Vec<StatusDoc>,
}

#[derive(Serialize)]
struct HealthDoc {
    status: &'static str,
    draining: bool,
    jobs_live: usize,
    workers_alive: usize,
}

fn to_json<T: Serialize>(doc: &T) -> String {
    serde_json::to_string(doc).expect("wire document serialization is infallible")
}

fn status_doc(entry: &crate::queue::JobEntry<Vec<RunRecord>>, dropped: u64) -> StatusDoc {
    StatusDoc {
        id: entry.id.clone(),
        status: entry.status.as_str().to_string(),
        total_runs: entry.total_runs as u64,
        completed_runs: entry.completed_runs() as u64,
        shards_total: entry.shard_count() as u64,
        shards_done: entry.shards_done() as u64,
        error: entry.error.clone(),
        events_dropped: dropped,
        verdict: entry
            .assertion_failures
            .map(|n| if n == 0 { "pass" } else { "fail" }.to_string()),
        verdict_failures: entry.assertion_failures.unwrap_or(0),
    }
}

fn status_doc_json(core: &Core, id: &str) -> Option<String> {
    let dropped = core.job(id).map_or(0, |j| j.hub.dropped());
    let sched = lock(&core.sched);
    let entry = sched.get(id)?;
    Some(to_json(&status_doc(entry, dropped)))
}

fn route(core: &Arc<Core>, req: &Request, out: &mut impl Write) -> std::io::Result<()> {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["campaigns"]) => handle_submit(core, req, out),
        ("GET", ["campaigns"]) => handle_list(core, out),
        ("GET", ["campaigns", id]) => handle_status(core, id, out),
        ("POST", ["campaigns", id, "cancel"]) => handle_cancel(core, id, out),
        ("GET", ["campaigns", id, "results"]) => handle_results(core, id, req, out),
        ("GET", ["campaigns", id, "events"]) => handle_events(core, id, req, out),
        ("GET", ["healthz"]) => {
            let workers_alive = lock(&core.workers)
                .iter()
                .filter(|w| w.alive.load(Ordering::SeqCst))
                .count();
            let doc = HealthDoc {
                status: "ok",
                draining: core.draining.load(Ordering::SeqCst),
                jobs_live: lock(&core.sched).live_count(),
                workers_alive,
            };
            http::respond_json(out, 200, &to_json(&doc))
        }
        ("GET", ["metrics"]) => {
            let snap = pool::metrics_snapshot(core);
            http::respond_json(out, 200, &to_json(&snap))
        }
        ("POST", ["shutdown"]) => handle_shutdown(core, req, out),
        // Known resources, wrong verb.
        (_, ["campaigns"])
        | (_, ["campaigns", _])
        | (_, ["campaigns", _, _])
        | (_, ["healthz"])
        | (_, ["metrics"])
        | (_, ["shutdown"]) => {
            core.metrics.inc(&core.metrics.http_bad_requests);
            http::respond_error(out, 405, &format!("{} not allowed here", req.method))
        }
        _ => {
            core.metrics.inc(&core.metrics.http_bad_requests);
            http::respond_error(out, 404, &format!("no such resource {}", req.path))
        }
    }
}

fn handle_submit(core: &Arc<Core>, req: &Request, out: &mut impl Write) -> std::io::Result<()> {
    if core.draining.load(Ordering::SeqCst) {
        return http::respond_error(out, 503, "server is draining; not accepting campaigns");
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            core.metrics.inc(&core.metrics.http_bad_requests);
            return http::respond_error(out, 400, "campaign document must be UTF-8 JSON");
        }
    };
    // Admission control: the same path-tracking validator the CLI runs
    // — a campaign that would fail mid-flight is rejected here with the
    // offending field named, before it can occupy a queue slot.
    let spec = match CampaignSpec::from_json_str(body, &core.config.scenario_root) {
        Ok(s) => s,
        Err(e) => {
            core.metrics.inc(&core.metrics.http_bad_requests);
            return http::respond_error(out, 400, &e.to_string());
        }
    };
    let runs = spec.expand();
    if runs.is_empty() {
        core.metrics.inc(&core.metrics.http_bad_requests);
        return http::respond_error(out, 400, "campaign expands to zero runs");
    }
    if let Err(e) = validate_scenarios(&spec, &runs) {
        core.metrics.inc(&core.metrics.http_bad_requests);
        return http::respond_error(out, 400, &e.to_string());
    }
    let digest = config_digest(&runs);
    let id = format!("c{}", core.next_job.fetch_add(1, Ordering::SeqCst));
    let dir = core.config.out_root.join(&id);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return http::respond_error(
            out,
            500,
            &format!("cannot create job directory {}: {e}", dir.display()),
        );
    }
    let hub = Arc::new(EventHub::new(core.config.events_ring));
    let job = Arc::new(JobData {
        spec,
        runs,
        digest,
        dir,
        hub,
        cancel: Arc::new(AtomicBool::new(false)),
        obs_wanted: Arc::new(AtomicBool::new(false)),
    });
    // Register the job's data before the scheduler can lease its shards:
    // a worker that woke in between would find no data and fail the job.
    // Ids come from `next_job`, so the entry is new.
    lock(&core.jobs).insert(id.clone(), Arc::clone(&job));
    let submitted = {
        let mut sched = lock(&core.sched);
        sched
            .submit(&id, job.runs.len(), core.config.shard_size)
            .map(|()| {
                // Published under the scheduler lock, so `queued` precedes
                // any worker's `running`.
                pool::publish_status_event(core, &job, &id, JobStatus::Queued, None);
                sched.get(&id).map_or(0, |j| j.shard_count())
            })
    };
    let shards = match submitted {
        Ok(shards) => shards,
        Err(e) => {
            lock(&core.jobs).remove(&id);
            return match e {
                SubmitError::QueueFull { cap } => {
                    core.metrics.inc(&core.metrics.queue_rejected_full);
                    let _ = std::fs::remove_dir(&job.dir);
                    http::respond(
                        out,
                        429,
                        "application/json",
                        &[("Retry-After", "1")],
                        format!(
                            "{{\"error\":\"queue full ({cap} live campaigns)\",\"status\":429}}"
                        )
                        .as_bytes(),
                    )
                }
                SubmitError::DuplicateId => http::respond_error(out, 500, "job id collision"),
            };
        }
    };
    let doc = to_json(&SubmittedDoc {
        id: id.clone(),
        status: JobStatus::Queued.as_str().to_string(),
        total_runs: job.runs.len() as u64,
        shards: shards as u64,
        config_digest: job.digest.clone(),
    });
    core.metrics.inc(&core.metrics.queue_submitted);
    core.work_cv.notify_all();
    http::respond_json(out, 202, &doc)
}

fn handle_list(core: &Arc<Core>, out: &mut impl Write) -> std::io::Result<()> {
    let sched = lock(&core.sched);
    let jobs = lock(&core.jobs);
    let campaigns: Vec<StatusDoc> = sched
        .jobs()
        .map(|entry| status_doc(entry, jobs.get(&entry.id).map_or(0, |j| j.hub.dropped())))
        .collect();
    let doc = to_json(&ListDoc { campaigns });
    drop(jobs);
    drop(sched);
    http::respond_json(out, 200, &doc)
}

fn handle_status(core: &Arc<Core>, id: &str, out: &mut impl Write) -> std::io::Result<()> {
    match status_doc_json(core, id) {
        Some(doc) => http::respond_json(out, 200, &doc),
        None => http::respond_error(out, 404, &format!("no campaign {id:?}")),
    }
}

fn handle_cancel(core: &Arc<Core>, id: &str, out: &mut impl Write) -> std::io::Result<()> {
    let outcome = lock(&core.sched).cancel(id);
    match outcome {
        None => http::respond_error(out, 404, &format!("no campaign {id:?}")),
        Some((before, after)) => {
            if after == JobStatus::Cancelled && before != JobStatus::Cancelled {
                core.metrics.inc(&core.metrics.queue_cancelled);
                if let Some(job) = core.job(id) {
                    job.cancel.store(true, Ordering::SeqCst);
                    pool::publish_status_event(core, &job, id, JobStatus::Cancelled, None);
                    job.hub.close();
                }
                let doc = status_doc_json(core, id).unwrap_or_default();
                http::respond_json(out, 200, &doc)
            } else {
                http::respond_error(
                    out,
                    409,
                    &format!("campaign {id} is already {}", after.as_str()),
                )
            }
        }
    }
}

fn handle_results(
    core: &Arc<Core>,
    id: &str,
    req: &Request,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let Some(job) = core.job(id) else {
        return http::respond_error(out, 404, &format!("no campaign {id:?}"));
    };
    let status = lock(&core.sched).get(id).map(|j| j.status);
    match status {
        Some(JobStatus::Done) => {}
        Some(other) => {
            return http::respond_error(
                out,
                409,
                &format!(
                    "campaign {id} is {}; results are not servable",
                    other.as_str()
                ),
            )
        }
        None => return http::respond_error(out, 404, &format!("no campaign {id:?}")),
    }
    match req.query_param("manifest") {
        None => {
            if let Some(bytes) = core.cache.get(id) {
                core.metrics.inc(&core.metrics.cache_hits);
                return http::respond(out, 200, "application/json", &[], &bytes);
            }
            core.metrics.inc(&core.metrics.cache_misses);
            let path = job.dir.join("summary.json");
            match read_capped(&path, core.config.max_result_bytes) {
                Ok(bytes) => {
                    let bytes = Arc::new(bytes);
                    let evicted = core.cache.insert(id, Arc::clone(&bytes));
                    core.metrics.add(&core.metrics.cache_evictions, evicted);
                    http::respond(out, 200, "application/json", &[], &bytes)
                }
                Err(ReadError::TooLarge { limit }) => http::respond_error(
                    out,
                    413,
                    &format!("summary exceeds the {limit}-byte response cap"),
                ),
                Err(ReadError::Io(e)) => {
                    http::respond_error(out, 500, &format!("cannot read summary: {e}"))
                }
            }
        }
        Some(run) => {
            if run.is_empty()
                || !run
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
                || run.contains("..")
            {
                core.metrics.inc(&core.metrics.http_bad_requests);
                return http::respond_error(out, 400, &format!("bad run name {run:?}"));
            }
            let path = job.dir.join(format!("{run}.manifest.json"));
            match read_capped(&path, core.config.max_result_bytes) {
                Ok(bytes) => http::respond(out, 200, "application/json", &[], &bytes),
                Err(ReadError::TooLarge { limit }) => http::respond_error(
                    out,
                    413,
                    &format!("manifest exceeds the {limit}-byte response cap"),
                ),
                Err(ReadError::Io(_)) => {
                    http::respond_error(out, 404, &format!("no manifest for run {run:?}"))
                }
            }
        }
    }
}

enum ReadError {
    TooLarge { limit: u64 },
    Io(std::io::Error),
}

fn read_capped(path: &std::path::Path, limit: u64) -> Result<Vec<u8>, ReadError> {
    let meta = std::fs::metadata(path).map_err(ReadError::Io)?;
    if meta.len() > limit {
        return Err(ReadError::TooLarge { limit });
    }
    std::fs::read(path).map_err(ReadError::Io)
}

fn handle_events(
    core: &Arc<Core>,
    id: &str,
    req: &Request,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let Some(job) = core.job(id) else {
        return http::respond_error(out, 404, &format!("no campaign {id:?}"));
    };
    if req.query_param("obs") == Some("1") {
        job.obs_wanted.store(true, Ordering::SeqCst);
    }
    let limit: Option<usize> = req.query_param("limit").and_then(|v| v.parse().ok());
    core.metrics.inc(&core.metrics.stream_subscribers);
    let mut sub = job.hub.subscribe();
    let mut writer = ChunkedWriter::begin(out, 200, "application/x-ndjson")?;
    if let Some(doc) = status_doc_json(core, id) {
        writer.write_chunk(format!("{{\"event\":\"status\",\"campaign\":{doc}}}\n").as_bytes())?;
    }
    let mut sent = 0usize;
    'stream: loop {
        if limit.is_some_and(|l| sent >= l) {
            break;
        }
        match sub.next_batch(64, Duration::from_millis(500)) {
            Batch::Lines { lines, gap } => {
                if gap > 0 {
                    writer.write_chunk(
                        format!(
                            "{{\"event\":\"dropped\",\"count\":{gap},\
                             \"reason\":\"subscriber behind ring capacity\"}}\n"
                        )
                        .as_bytes(),
                    )?;
                }
                for line in lines {
                    writer.write_chunk(format!("{line}\n").as_bytes())?;
                    sent += 1;
                    if limit.is_some_and(|l| sent >= l) {
                        break 'stream;
                    }
                }
            }
            Batch::TimedOut => {
                if core.draining.load(Ordering::SeqCst) {
                    writer.write_chunk(b"{\"event\":\"draining\"}\n")?;
                    break;
                }
            }
            Batch::Closed => break,
        }
    }
    writer.finish()
}

fn handle_shutdown(core: &Arc<Core>, req: &Request, out: &mut impl Write) -> std::io::Result<()> {
    let mode = if req.body.is_empty() {
        "drain".to_string()
    } else {
        let parsed: Result<serde::Value, _> =
            serde_json::from_str(std::str::from_utf8(&req.body).unwrap_or("{}"));
        match parsed.ok().as_ref().and_then(|v| v.get("mode")) {
            Some(serde::Value::Str(s)) => s.clone(),
            _ => "drain".to_string(),
        }
    };
    let now = match mode.as_str() {
        "drain" => false,
        "now" => true,
        other => {
            return http::respond_error(
                out,
                400,
                &format!("unknown shutdown mode {other:?}; use \"drain\" or \"now\""),
            )
        }
    };
    http::respond_json(
        out,
        202,
        &format!("{{\"shutting_down\":true,\"mode\":\"{mode}\"}}"),
    )?;
    initiate_shutdown(core, now);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-run campaign over a small generated building.
    const ONE_RUN_JSON: &str = r#"{
      "name": "admit",
      "scenarios": [
        {
          "name": "gen",
          "grid": {
            "generator": {
              "floors": 1,
              "boards_per_floor": 1,
              "offices_per_board": 3,
              "stations_per_board": 2
            }
          }
        }
      ],
      "seeds": [1],
      "workloads": [
        { "name": "tiny", "start_hour": 10, "duration_s": 2, "sample_ms": 500, "max_pairs": 2 }
      ],
      "experiments": ["probing"]
    }"#;

    /// Admission registers a job's data before the scheduler can lease
    /// its shards: a spy reading the scheduler as often as it can take
    /// the lock never finds a job without data.
    #[test]
    fn scheduled_jobs_always_have_their_data() {
        let root = std::env::temp_dir().join(format!("efi-serve-admit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("temp root");
        let mut config = ServeConfig::new(Bind::Unix(root.join("ctl.sock")), root.join("out"));
        config.workers = 1;
        config.queue_cap = 1_000;
        let server = Server::start(config).expect("server starts");
        let core = Arc::clone(&server.core);
        let done = AtomicBool::new(false);
        let orphans = std::thread::scope(|scope| {
            let spy = scope.spawn(|| {
                let mut orphans = 0usize;
                while !done.load(Ordering::SeqCst) {
                    let sched = lock(&core.sched);
                    let jobs = lock(&core.jobs);
                    orphans += sched.jobs().filter(|j| !jobs.contains_key(&j.id)).count();
                }
                orphans
            });
            let client = server.client();
            for _ in 0..32 {
                let resp = client
                    .request("POST", "/campaigns", Some(ONE_RUN_JSON.as_bytes()))
                    .expect("submit");
                assert_eq!(resp.status, 202, "{}", resp.text());
            }
            done.store(true, Ordering::SeqCst);
            spy.join().expect("spy thread")
        });
        assert_eq!(orphans, 0, "jobs were schedulable before their data");
        server.shutdown(true);
        server.wait().expect("clean stop");
        let _ = std::fs::remove_dir_all(&root);
    }
}
