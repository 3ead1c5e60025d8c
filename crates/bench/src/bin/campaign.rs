//! Campaign runner: expand a campaign file (scenarios × seeds ×
//! workloads) into a work list, shard it deterministically across
//! workers, and write per-run manifests plus a campaign summary.
//!
//! ```text
//! campaign <campaign.json> [--list] [--dry-run] [--filter SUBSTR]
//!          [--workers N] [--out DIR] [--checkpoint-every SECS]
//!          [--resume DIR] [--stop-after N]
//! ```
//!
//! * `--list` prints the expanded run names and exits;
//! * `--dry-run` validates the campaign and every **distinct** scenario
//!   it references (materialising each grid once, `O(scenarios)` not
//!   `O(runs)`) without measuring anything;
//! * `--filter` keeps only runs whose name contains the substring;
//! * `--workers` overrides the shard count (default: `ELECTRIFI_THREADS`
//!   or all cores). The summary is byte-identical for any worker count;
//! * `--checkpoint-every SECS` writes `checkpoint.efistate` into the
//!   output directory whenever that much sim-time has completed;
//! * `--resume DIR` picks up the checkpoint in DIR, skipping finished
//!   runs. Resumed output is byte-identical to an uninterrupted run;
//! * `--stop-after N` checkpoints and exits after N runs (testing aid);
//! * `--progress FILE` writes an atomically-replaced progress.json
//!   heartbeat (runs done/total/failed, per-worker throughput, EWMA
//!   rate, ETA) every `--progress-every SECS` (default 1);
//! * `--follow FILE` appends one JSON line per completed run;
//! * `--trace FILE` records wall-clock spans across the campaign and
//!   writes a Chrome `trace_event` JSON (Perfetto-viewable), sampling
//!   every `--trace-sample N`-th root span (default 1 = all).
//!
//! Telemetry and tracing are strictly observational: `summary.json` and
//! the per-run manifests are byte-identical with them on or off.
//!
//! Exit codes: 0 success, 2 bad usage / invalid campaign or scenario
//! document, 3 filesystem I/O failure, 4 a run failed during execution,
//! 5 every run executed but some run's assertion verdict failed.

use electrifi_scenario::campaign::{
    validate_scenarios, write_artifacts, CampaignSpec, ExecOptions,
};
use electrifi_scenario::checkpoint::{
    run_campaign_monitored_opts, CampaignOutcome, CheckpointOptions,
};
use electrifi_scenario::telemetry::TelemetryOptions;
use electrifi_scenario::ScenarioError;
use electrifi_testbed::sweep;
use simnet::obs::span::{self, SpanConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

// Distinct exit codes so scripts can branch on *why* a campaign failed
// (documented in README.md): 2 = bad usage or an invalid campaign /
// scenario document, 3 = filesystem I/O, 4 = a run failed during
// execution, 5 = all runs executed but an assertion verdict failed.
// 0 stays success, 1 is left to panics. 4 and 5 are deliberately
// distinct: 4 means the campaign could not produce its output, 5 means
// the output exists and says the system under test broke an invariant.
const EXIT_USAGE: u8 = 2;
const EXIT_IO: u8 = 3;
const EXIT_RUN: u8 = 4;
const EXIT_ASSERT: u8 = 5;

/// Map a scenario-layer error to the exit code taxonomy. `exec` says
/// whether the error escaped from run execution (4) rather than from
/// loading/validating documents (2); I/O is 3 in either phase.
fn exit_for(e: &ScenarioError, exec: bool) -> ExitCode {
    match e {
        ScenarioError::Io { .. } => ExitCode::from(EXIT_IO),
        _ if exec => ExitCode::from(EXIT_RUN),
        _ => ExitCode::from(EXIT_USAGE),
    }
}

struct Args {
    campaign: String,
    list: bool,
    dry_run: bool,
    filter: Option<String>,
    workers: Option<usize>,
    out: PathBuf,
    checkpoint_every: Option<f64>,
    resume: Option<PathBuf>,
    stop_after: Option<usize>,
    progress: Option<PathBuf>,
    progress_every: f64,
    follow: Option<PathBuf>,
    trace: Option<PathBuf>,
    trace_sample: u64,
}

const USAGE: &str = "usage: campaign <campaign.json> [--list] [--dry-run] \
                     [--filter SUBSTR] [--workers N] [--out DIR] \
                     [--checkpoint-every SECS] [--resume DIR] [--stop-after N] \
                     [--progress FILE] [--progress-every SECS] [--follow FILE] \
                     [--trace FILE] [--trace-sample N]";

enum ArgsOutcome {
    Run(Box<Args>),
    Help,
}

fn parse_args() -> Result<ArgsOutcome, String> {
    let mut campaign = None;
    let mut list = false;
    let mut dry_run = false;
    let mut filter = None;
    let mut workers = None;
    let mut out = PathBuf::from("out/campaign");
    let mut checkpoint_every = None;
    let mut resume = None;
    let mut stop_after = None;
    let mut progress = None;
    let mut progress_every = 1.0f64;
    let mut follow = None;
    let mut trace = None;
    let mut trace_sample = 1u64;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--dry-run" => dry_run = true,
            "--filter" => {
                filter = Some(it.next().ok_or("--filter needs a substring")?);
            }
            "--workers" => {
                let raw = it.next().ok_or("--workers needs a positive integer")?;
                workers = Some(
                    simnet::threads::parse_worker_count("--workers", &raw)
                        .map_err(|e| e.to_string())?,
                );
            }
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a directory")?),
            "--checkpoint-every" => {
                let raw = it.next().ok_or("--checkpoint-every needs seconds")?;
                let secs: f64 = raw
                    .parse()
                    .map_err(|_| format!("--checkpoint-every: not a number: {raw:?}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--checkpoint-every: must be positive, got {raw:?}"));
                }
                checkpoint_every = Some(secs);
            }
            "--resume" => {
                resume = Some(PathBuf::from(
                    it.next().ok_or("--resume needs a directory")?,
                ));
            }
            "--stop-after" => {
                let raw = it.next().ok_or("--stop-after needs a positive integer")?;
                let n: usize = raw
                    .parse()
                    .map_err(|_| format!("--stop-after: not an integer: {raw:?}"))?;
                if n == 0 {
                    return Err("--stop-after: must be at least 1".to_string());
                }
                stop_after = Some(n);
            }
            "--progress" => {
                progress = Some(PathBuf::from(it.next().ok_or("--progress needs a file")?));
            }
            "--progress-every" => {
                let raw = it.next().ok_or("--progress-every needs seconds")?;
                let secs: f64 = raw
                    .parse()
                    .map_err(|_| format!("--progress-every: not a number: {raw:?}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--progress-every: must be positive, got {raw:?}"));
                }
                progress_every = secs;
            }
            "--follow" => {
                follow = Some(PathBuf::from(it.next().ok_or("--follow needs a file")?));
            }
            "--trace" => {
                trace = Some(PathBuf::from(it.next().ok_or("--trace needs a file")?));
            }
            "--trace-sample" => {
                let raw = it.next().ok_or("--trace-sample needs a positive integer")?;
                let n: u64 = raw
                    .parse()
                    .map_err(|_| format!("--trace-sample: not an integer: {raw:?}"))?;
                if n == 0 {
                    return Err("--trace-sample: must be at least 1".to_string());
                }
                trace_sample = n;
            }
            "--help" | "-h" => return Ok(ArgsOutcome::Help),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}\n{USAGE}"));
            }
            other => {
                if campaign.replace(other.to_string()).is_some() {
                    return Err(format!("more than one campaign file given\n{USAGE}"));
                }
            }
        }
    }
    Ok(ArgsOutcome::Run(Box::new(Args {
        campaign: campaign.ok_or_else(|| format!("no campaign file given\n{USAGE}"))?,
        list,
        dry_run,
        filter,
        workers,
        out,
        checkpoint_every,
        resume,
        stop_after,
        progress,
        progress_every,
        follow,
        trace,
        trace_sample,
    })))
}

fn write_trace(path: &PathBuf, report: &span::SpanReport) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
    }
    let mut buf = Vec::new();
    span::write_chrome_trace(&report.events, &mut buf).map_err(|e| e.to_string())?;
    std::fs::write(path, buf).map_err(|e| e.to_string())
}

fn print_top_spans(report: &span::SpanReport) {
    let profile = report.profile(8);
    if profile.spans.is_empty() {
        return;
    }
    eprintln!(
        "{:>24} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "span", "count", "self_ms", "total_ms", "p50_us", "p90_us", "p99_us"
    );
    for s in &profile.spans {
        eprintln!(
            "{:>24} {:>10} {:>10.1} {:>10.1} {:>9.1} {:>9.1} {:>9.1}",
            s.name,
            s.count,
            s.self_ns as f64 / 1e6,
            s.total_ns as f64 / 1e6,
            s.p50_ns / 1e3,
            s.p90_ns / 1e3,
            s.p99_ns / 1e3
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(ArgsOutcome::Run(a)) => a,
        Ok(ArgsOutcome::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let spec = match CampaignSpec::from_file(&args.campaign) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("campaign: {e}");
            return exit_for(&e, false);
        }
    };
    let runs: Vec<_> = spec
        .expand()
        .into_iter()
        .filter(|r| {
            args.filter
                .as_deref()
                .is_none_or(|f| r.run_name.contains(f))
        })
        .collect();
    if runs.is_empty() {
        eprintln!(
            "campaign {:?}: no runs match{}",
            spec.name,
            args.filter
                .as_deref()
                .map(|f| format!(" filter {f:?}"))
                .unwrap_or_default()
        );
        return ExitCode::from(EXIT_USAGE);
    }

    if args.list {
        for r in &runs {
            println!("{}", r.run_name);
        }
        return ExitCode::SUCCESS;
    }

    if args.dry_run {
        // Validate each distinct scenario once — O(scenarios), not
        // O(expanded runs), so huge seed x workload sweeps list fast.
        match validate_scenarios(&spec, &runs) {
            Ok(n) => {
                println!(
                    "campaign {:?}: {} run(s) over {} scenario(s) validated, nothing executed",
                    spec.name,
                    runs.len(),
                    n
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("campaign: {e}");
                return exit_for(&e, false);
            }
        }
    }

    let workers = args
        .workers
        .unwrap_or_else(|| sweep::thread_count(runs.len()));
    eprintln!(
        "campaign {:?}: {} run(s) across {} worker(s)",
        spec.name,
        runs.len(),
        workers
    );
    let opts = CheckpointOptions {
        every_sim_secs: args.checkpoint_every,
        resume_from: args.resume.clone(),
        stop_after: args.stop_after,
    };
    let telemetry = TelemetryOptions {
        progress: args.progress.clone(),
        progress_every: Duration::from_secs_f64(args.progress_every),
        follow: args.follow.clone(),
    };
    // Tracing covers the whole campaign: the sharded sweep re-enables
    // the coordinator's span configuration inside every worker and
    // absorbs the reports in chunk order, so one Chrome trace shows all
    // lanes on their own tid rows.
    if args.trace.is_some() {
        span::enable(SpanConfig::traced(args.trace_sample));
    }
    let result = run_campaign_monitored_opts(
        &spec,
        workers,
        args.filter.as_deref(),
        &args.out,
        &opts,
        &telemetry,
        &ExecOptions::default(),
    );
    if let Some(trace_path) = &args.trace {
        let report = span::disable();
        if let Err(e) = write_trace(trace_path, &report) {
            eprintln!(
                "campaign: could not write trace {}: {e}",
                trace_path.display()
            );
        } else {
            eprintln!(
                "trace: {} event(s) -> {}{}",
                report.events.len(),
                trace_path.display(),
                if report.dropped_events > 0 {
                    format!(" ({} dropped at the buffer cap)", report.dropped_events)
                } else {
                    String::new()
                }
            );
            print_top_spans(&report);
        }
    }
    let (outcome, stats) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign: {e}");
            return exit_for(&e, true);
        }
    };
    if stats.resume_loads > 0 {
        eprintln!(
            "campaign {:?}: resumed {} completed run(s) from {}",
            spec.name,
            stats.resumed_runs,
            args.resume
                .as_deref()
                .unwrap_or(&args.out)
                .join(electrifi_scenario::checkpoint::CHECKPOINT_FILE)
                .display()
        );
    }
    let summary = match outcome {
        CampaignOutcome::Complete(s) => *s,
        CampaignOutcome::Checkpointed { completed, total } => {
            println!(
                "campaign {:?}: stopped after {completed}/{total} run(s); resume with \
                 --resume {}",
                spec.name,
                args.out.display()
            );
            return ExitCode::SUCCESS;
        }
    };
    if let Err(e) = write_artifacts(&summary, &args.out) {
        eprintln!("campaign: {e}");
        return exit_for(&e, true);
    }
    if stats.writes > 0 || stats.resume_loads > 0 {
        eprintln!(
            "checkpointing: {} write(s) totalling {} B, {} resume load(s)",
            stats.writes, stats.bytes, stats.resume_loads
        );
    }
    for run in &summary.runs {
        let heads: Vec<String> = run
            .experiments
            .iter()
            .flat_map(|e| {
                e.headline
                    .iter()
                    .map(move |(k, v)| format!("{}.{k}={v:.3}", e.kind))
            })
            .collect();
        println!("{:32} {}", run.run, heads.join("  "));
    }
    println!(
        "wrote {} manifest(s) + summary.json to {} (digest {})",
        summary.runs.len(),
        args.out.display(),
        summary.config_digest
    );
    let failed = summary.failed_verdicts();
    if !failed.is_empty() {
        for run in &failed {
            let v = run
                .verdict
                .as_ref()
                .expect("failed verdicts carry a verdict");
            for a in v.assertions.iter().filter(|a| !a.pass) {
                eprintln!("verdict FAIL {}: {} — {}", run.run, a.kind, a.detail);
            }
        }
        eprintln!(
            "campaign {:?}: {} run(s) failed their assertion verdict",
            spec.name,
            failed.len()
        );
        return ExitCode::from(EXIT_ASSERT);
    }
    ExitCode::SUCCESS
}
