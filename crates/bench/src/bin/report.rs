//! `report` — print what every artifact under `out/` says: run
//! manifests, campaign summaries and their disturbance verdicts, the
//! serve control plane's metrics, the bench reports and the figures'
//! headline lines (see [`electrifi_bench::report`]). Takes no arguments.
//! Exits 1 when any artifact is unreadable, after printing the rest.

use std::process::ExitCode;

fn main() -> ExitCode {
    let report = electrifi_bench::report::render(std::path::Path::new("out"));
    print!("{}", report.text);
    if report.unreadable == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
