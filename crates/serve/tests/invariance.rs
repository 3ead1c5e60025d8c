//! The determinism matrix: every way of running a campaign must write
//! the same bytes.
//!
//! One reference run (`run_campaign`, 1 worker, untraced) writes
//! `summary.json` and every `<run>.manifest.json` once. Each [`Row`]
//! then runs the same campaign another way and must reproduce every one
//! of those files byte-for-byte. A row also checks what only it can
//! see: checkpoint counts, spans, worker deaths. The rows live in the
//! shared harness (`scenario/tests/matrix`, plus `common::served`);
//! this is the one table that walks all of them. Everything is one
//! `#[test]` because `ELECTRIFI_THREADS` is process-global.
//!
//! Left outside the matrix:
//! * `core/tests/runner_thread_identity.rs` — figs 17–21 are not
//!   campaign experiments, so they have no campaign artifacts;
//! * the proptest of `scenario/tests/disturbance_identity.rs` — its
//!   cuts fall inside a run, not at run boundaries;
//! * `bench/tests/observability.rs` — it checks that a sink is inert
//!   at the runner level, below any campaign.

#[path = "../../scenario/tests/matrix/mod.rs"]
mod matrix;

mod common;

use matrix::{assert_reproduces, Artifacts, RUNS};
use std::fs;
use std::path::Path;

#[derive(Debug)]
enum Row {
    /// `run_campaign` sharded over this many workers.
    Workers(usize),
    /// `run_campaign` on 1 worker with `ELECTRIFI_THREADS` set.
    Threads(&'static str),
    /// Stop after this many runs on 1 worker, resume on 2.
    StopAndResume(usize),
    /// A checkpoint every sim-second.
    PeriodicCheckpoints,
    /// Progress + follow telemetry on 2 workers, every span traced.
    Observed,
    /// Served on 2 workers with one-run shards; the worker that picks
    /// up the named run dies once.
    Served(Option<&'static str>),
}

fn run_row(row: &Row, dir: &Path) -> Artifacts {
    match *row {
        Row::Workers(n) => matrix::workers(n, dir),
        Row::Threads(n) => matrix::threads(n, dir),
        Row::StopAndResume(cut) => matrix::stop_and_resume(cut, dir),
        Row::PeriodicCheckpoints => matrix::periodic_checkpoints(dir),
        Row::Observed => matrix::observed(dir),
        Row::Served(kill) => common::served(dir, kill),
    }
}

#[test]
fn every_row_reproduces_the_reference_bytes() {
    let root = common::temp_root("invariance");
    let want = matrix::reference(&root.join("reference"));

    let mut rows = vec![Row::Workers(4), Row::Threads("1"), Row::Threads("2")];
    rows.extend((1..RUNS).map(Row::StopAndResume));
    rows.extend([
        Row::PeriodicCheckpoints,
        Row::Observed,
        Row::Served(None),
        Row::Served(Some("gen-a-s2-w")),
    ]);
    for (i, row) in rows.iter().enumerate() {
        let dir = root.join(format!("row{i}"));
        fs::create_dir_all(&dir).expect("row dir");
        assert_reproduces(&format!("{row:?}"), &run_row(row, &dir), &want);
    }
    let _ = fs::remove_dir_all(&root);
}
