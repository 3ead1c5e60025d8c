//! `serve`: the long-lived campaign control plane.
//!
//! ```text
//! serve (--unix PATH | --tcp ADDR) [--out DIR] [--scenario-root DIR]
//!       [--workers N] [--queue-cap N] [--shard-size N]
//! ```
//!
//! Campaigns are submitted as JSON over HTTP (`POST /campaigns`),
//! validated with the same path-tracking validator the `campaign` CLI
//! uses, executed by a pool of work-stealing shard workers with
//! per-shard checkpoints (a killed worker's shard resumes, and the
//! final `summary.json` stays byte-identical to a CLI run), and
//! streamed live over `GET /campaigns/:id/events`. See DESIGN.md §12
//! for the wire protocol and `servectl` for a ready-made client.
//!
//! * `--workers` defaults to `ELECTRIFI_THREADS` or all cores;
//! * `ELECTRIFI_SERVE_KILL_RUN=<run name>` arms the one-shot injected
//!   worker death used by the recovery smoke test.

use electrifi_serve::server::{Bind, ServeConfig, Server};
use simnet::threads;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: serve (--unix PATH | --tcp ADDR) [--out DIR] \
                     [--scenario-root DIR] [--workers N] \
                     [--queue-cap N] [--shard-size N]";

fn parse_positive(flag: &str, raw: &str) -> Result<usize, String> {
    let n: usize = raw
        .parse()
        .map_err(|_| format!("{flag}: not an integer: {raw:?}"))?;
    if n == 0 {
        return Err(format!("{flag}: must be at least 1"));
    }
    Ok(n)
}

fn parse_config() -> Result<Option<ServeConfig>, String> {
    let mut bind = None;
    let mut out = PathBuf::from("out/serve");
    let mut scenario_root = PathBuf::from(".");
    let mut workers = None;
    let mut queue_cap = None;
    let mut shard_size = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--unix" => {
                let path = it.next().ok_or("--unix needs a socket path")?;
                bind = Some(Bind::Unix(PathBuf::from(path)));
            }
            "--tcp" => {
                let addr = it.next().ok_or("--tcp needs host:port")?;
                bind = Some(Bind::Tcp(addr));
            }
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a directory")?),
            "--scenario-root" => {
                scenario_root =
                    PathBuf::from(it.next().ok_or("--scenario-root needs a directory")?);
            }
            "--workers" => {
                let raw = it.next().ok_or("--workers needs a positive integer")?;
                workers = Some(
                    threads::parse_worker_count("--workers", &raw).map_err(|e| e.to_string())?,
                );
            }
            "--queue-cap" => {
                let raw = it.next().ok_or("--queue-cap needs a positive integer")?;
                queue_cap = Some(parse_positive("--queue-cap", &raw)?);
            }
            "--shard-size" => {
                let raw = it.next().ok_or("--shard-size needs a positive integer")?;
                shard_size = Some(parse_positive("--shard-size", &raw)?);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let bind = bind.ok_or_else(|| format!("one of --unix or --tcp is required\n{USAGE}"))?;
    let mut config = ServeConfig::new(bind, out);
    config.scenario_root = scenario_root;
    if let Some(n) = workers {
        config.workers = n;
    } else if let Some(n) = threads::worker_count_from_env().map_err(|e| e.to_string())? {
        config.workers = n;
    }
    if let Some(n) = queue_cap {
        config.queue_cap = n;
    }
    if let Some(n) = shard_size {
        config.shard_size = n;
    }
    if let Ok(marker) = std::env::var("ELECTRIFI_SERVE_KILL_RUN") {
        if !marker.is_empty() {
            config.kill_run_marker = Some(marker);
        }
    }
    Ok(Some(config))
}

fn main() -> ExitCode {
    let config = match parse_config() {
        Ok(Some(c)) => c,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let workers = config.workers;
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot start: {e}");
            return ExitCode::from(3);
        }
    };
    match server.endpoint() {
        electrifi_serve::Endpoint::Tcp(addr) => {
            eprintln!("serve: listening on tcp {addr} with {workers} worker(s)");
        }
        electrifi_serve::Endpoint::Unix(path) => {
            eprintln!(
                "serve: listening on unix socket {} with {workers} worker(s)",
                path.display()
            );
        }
    }
    eprintln!("serve: stop with POST /shutdown (mode drain|now)");
    if let Err(e) = server.wait() {
        eprintln!("serve: shutdown error: {e}");
        return ExitCode::from(3);
    }
    eprintln!("serve: drained and stopped");
    ExitCode::SUCCESS
}
