//! End-to-end benchmark of the electrifi workspace.
//!
//! ```text
//! electrifi-e2ebench --workload <paper-quick|campaign-sweep|served-jobs>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload repeats passes over a fixed, seed-generated set of
//! operations until `--seconds` have elapsed; set-ups are timed before
//! and between the passes (their median is `setup_s`). With `--trace 0` tracing stays off and the
//! end-to-end metrics are printed; with `--trace 1` the time is split
//! between an untraced and a traced half, and the per-layer metrics are
//! printed. Every pass checks the program's outputs; the last stdout line
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! See `README.md` next to this crate for the workloads and metrics.

mod campaign;
mod gen;
mod layers;
mod measure;
mod paper;
mod pins;
mod served;

use simnet::obs::span::{self, SpanConfig, SpanReport};
use simnet::obs::{self, MetricsSnapshot, Obs};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups timed before the passes; the last one is kept for them.
const FIRST_SETUPS: usize = 5;
/// Host seconds of extra, discarded set-ups after each untraced pass (at
/// least one, at most `MAX_BATCH`). Spreading set-ups over the whole run
/// lets their median see the same host as the passes, not just its
/// state in the first moments of the process.
const SETUP_BATCH_S: f64 = 0.1;
const MAX_BATCH: usize = 200;

/// A per-layer reading a workload contributes beyond the shared spans
/// and counters: `(metric name, value)`.
pub type Layer = (&'static str, f64);

/// What every workload is given.
pub struct Ctx {
    /// The harness seed all inputs derive from.
    pub seed: u64,
    /// Available parallelism; every worker count of the program is set
    /// to it.
    pub nproc: usize,
    /// Scratch directory for artifacts, inside the checkout.
    pub work: PathBuf,
}

/// Operation accounting for one run: an operation is a figure runner
/// call, a campaign run or a served job.
#[derive(Default)]
pub struct Ops {
    /// Host seconds of each successful operation.
    pub latencies: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, or whose output check failed.
    pub failed: u64,
}

impl Ops {
    /// One operation succeeded in `secs`.
    pub fn done(&mut self, secs: f64) {
        self.attempted += 1;
        self.latencies.push(secs);
    }

    /// One operation failed outright.
    pub fn fail(&mut self, why: &str) {
        eprintln!("operation failed: {why}");
        self.attempted += 1;
        self.failed += 1;
    }

    /// An operation already counted produced the wrong output.
    pub fn mismatch(&mut self, why: &str) {
        eprintln!("output check failed: {why}");
        self.failed += 1;
    }
}

/// One benchmark workload. The loop in this file owns all timing
/// policy; a workload only knows how to set itself up and run one pass.
pub trait Workload: Sized {
    /// Name as given to `--workload`.
    const NAME: &'static str;
    /// Highest percentile (in %) `job_tail_s` may report for this workload (see
    /// [`measure::tail`]).
    const TAIL_CAP: u32;

    /// Parse inputs and bring the program up to the point where passes
    /// can run; timed as `setup_s`.
    fn setup(ctx: &Ctx) -> Result<Self, String>;
    /// Untimed work after the last setup: reference outputs for the
    /// checks.
    fn prepare(&mut self, _ctx: &Ctx) -> Result<(), String> {
        Ok(())
    }
    /// Run one pass, checking its outputs into `ops`; returns the host
    /// seconds spent in the program (checks excluded), in parts that
    /// every pass of the run times in the same order (see [`wall_of`]).
    fn pass(&mut self, ops: &mut Ops) -> Vec<f64>;
    /// Extra calls, traced on their own after the traced passes, that
    /// give per-layer readings.
    fn probe(&mut self) {}
    /// Worker counts the workload runs the program with, as
    /// `host.workers.*` metrics.
    fn workers(&self) -> Vec<(&'static str, usize)>;
    /// Workload-specific per-layer readings.
    fn layers(&self) -> Vec<Layer>;
    /// Stop whatever the workload started.
    fn teardown(self) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: electrifi-e2ebench --workload <paper-quick|campaign-sweep|served-jobs> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2015u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Passes until `seconds` have elapsed (at least one), calling
/// `between` after each; returns each pass's timed parts and the
/// segment's host seconds.
fn passes<W: Workload>(
    w: &mut W,
    ops: &mut Ops,
    seconds: f64,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<Vec<f64>>, f64), String> {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        walls.push(w.pass(ops));
        between()?;
    }
    Ok((walls, t0.elapsed().as_secs_f64()))
}

/// Program seconds of one pass over a segment of `passes`: the sum, over
/// the parts a pass is timed in, of each part's median across the
/// passes. A pass of `paper-quick` is timed per runner, so one runner
/// slowed by the host in one pass does not move the figure; a workload
/// timed as one part gets its median pass.
fn wall_of(passes: &[Vec<f64>]) -> f64 {
    let parts = passes.first().map_or(0, Vec::len);
    (0..parts)
        .map(|i| measure::median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum()
}

/// Time throwaway set-ups for [`SETUP_BATCH_S`] into `setups`.
fn setup_batch<W: Workload>(ctx: &Ctx, setups: &mut Vec<f64>) -> Result<(), String> {
    let t0 = Instant::now();
    for _ in 0..MAX_BATCH {
        let t = Instant::now();
        let spare = W::setup(ctx)?;
        setups.push(t.elapsed().as_secs_f64());
        spare.teardown();
        if t0.elapsed().as_secs_f64() >= SETUP_BATCH_S {
            break;
        }
    }
    Ok(())
}

/// Run `f` with span collection and a fresh ambient metrics registry.
fn traced<T>(f: impl FnOnce() -> T) -> (T, SpanReport, MetricsSnapshot) {
    let o = Obs::new();
    let (out, report) = span::scoped(SpanConfig::stats(), || obs::with_default(o.clone(), f));
    (out, report, o.registry().snapshot())
}

/// Every end-to-end metric, in output order: `(name, unit)`. The names
/// match `BENCHMARK.json` (checked by a test in `layers`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The result line's metrics: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

struct Outcome {
    ops: Ops,
    metrics: Metrics,
}

fn run<W: Workload>(ctx: &Ctx, args: &Args) -> Result<Outcome, String> {
    let calib = measure::calibrate();
    let mut setups = Vec::new();
    let mut w: Option<W> = None;
    for _ in 0..FIRST_SETUPS {
        let t0 = Instant::now();
        let fresh = W::setup(ctx)?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(old) = w.replace(fresh) {
            old.teardown();
        }
    }
    let mut w = w.expect("at least one setup");
    w.prepare(ctx)?;
    let workers = w.workers();
    eprintln!(
        "{}: seed {} nproc {} host.calib_s {calib:.4} workers {workers:?}",
        W::NAME,
        ctx.seed,
        ctx.nproc
    );

    let mut ops = Ops::default();
    let metrics = if !args.trace {
        let (walls, _) = passes(&mut w, &mut ops, args.seconds, || {
            setup_batch::<W>(ctx, &mut setups)
        })?;
        let wall = wall_of(&walls);
        let ops_per_pass = ops.latencies.len() as f64 / walls.len() as f64;
        let (tail, pct, n) = measure::tail(&ops.latencies, W::TAIL_CAP);
        eprintln!(
            "{}: {} passes, job_tail_s is p{pct} of {n} operations",
            W::NAME,
            walls.len()
        );
        let values = [
            measure::median(&setups),
            wall,
            ops_per_pass / wall,
            measure::median(&ops.latencies),
            tail,
            measure::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    } else {
        let half = args.seconds / 2.0;
        let cpu0 = measure::cpu_seconds();
        let (plain, plain_host) = passes(&mut w, &mut ops, half, || Ok(()))?;
        let cpu_util = (measure::cpu_seconds() - cpu0) / (plain_host * ctx.nproc as f64);
        let (traced_passes, report, snap) = traced(|| passes(&mut w, &mut ops, half, || Ok(())));
        let (walls, _) = traced_passes?;
        let n = walls.len() as f64;
        // The probe runs once, so it is traced apart from the passes and
        // read as totals.
        let ((), probe_report, _) = traced(|| w.probe());
        let mut own = w.layers();
        // One more setup under tracing, for the set-up-phase layers.
        let (extra, setup_report, _) = traced(|| W::setup(ctx));
        extra?.teardown();
        own.extend([
            ("testbed.cpu_util", cpu_util),
            ("bench.trace_overhead", wall_of(&walls) / wall_of(&plain)),
            (
                "bench.error_rate",
                ops.failed as f64 / ops.attempted.max(1) as f64,
            ),
            ("bench.job_samples", ops.latencies.len() as f64),
            (
                "bench.job_tail_pct",
                f64::from(measure::tail(&ops.latencies, W::TAIL_CAP).1),
            ),
            ("host.calib_s", calib),
            ("host.nproc", ctx.nproc as f64),
        ]);
        own.extend(workers.iter().map(|&(name, v)| (name, v as f64)));
        let wall_ns = walls.iter().flatten().sum::<f64>() * 1e9;
        let reports = layers::Reports {
            passes: &report,
            probe: &probe_report,
            setup: &setup_report,
        };
        layers::per_layer(&reports, &snap, n, wall_ns, &own)
    };
    w.teardown();
    Ok(Outcome { ops, metrics })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Every worker count the program reads is pinned to nproc; set
    // before any thread exists.
    std::env::set_var("ELECTRIFI_THREADS", nproc.to_string());
    // A hung run must not hold its caller forever: give up well after a
    // healthy run would have finished.
    let deadline = std::time::Duration::from_secs_f64(2.0 * args.seconds + 100.0);
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("benchmark still running after {deadline:?}; giving up");
        std::process::exit(3);
    });
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        nproc,
        work: work.clone(),
    };
    let outcome = match args.workload.as_str() {
        paper::Paper::NAME => run::<paper::Paper>(&ctx, &args),
        campaign::Sweep::NAME => run::<campaign::Sweep>(&ctx, &args),
        served::Served::NAME => run::<served::Served>(&ctx, &args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = outcome.ops.failed == 0 && outcome.ops.attempted > 0;
    let body: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            println!("{name} = {v} {unit}");
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.ops.attempted,
        outcome.ops.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
