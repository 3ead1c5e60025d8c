//! # electrifi-bench — reproduction and benchmark harness
//!
//! One binary per paper figure/table (`src/bin/fig03.rs` …) plus the
//! bench bins (`bench_mac`, `bench_channel`, `bench_state`) that time the
//! hot paths; `bench_mac` and `bench_channel` gate their own reports (see
//! [`gate`]). This library holds the shared output helpers: plain-text
//! tables and series dumps that print the same rows the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use electrifi::experiments::Scale;
use simnet::obs::span::{self, SpanConfig};
use simnet::obs::{self, Obs, RunManifest};
use simnet::time::Time;

/// Environment variable naming a Chrome `trace_event` JSON output path.
/// When set, the run collects spans (with trace events) and writes the
/// trace there on [`RunGuard::finish`].
pub const TRACE_ENV: &str = "ELECTRIFI_TRACE";
/// Trace every Nth root span (default 1 = all); see [`TRACE_ENV`].
pub const TRACE_SAMPLE_ENV: &str = "ELECTRIFI_TRACE_SAMPLE";
/// When set to `1`, collect span statistics (no trace events) and embed
/// a profile in the manifest even without [`TRACE_ENV`].
pub const PROFILE_ENV: &str = "ELECTRIFI_PROFILE";

/// Spans kept in a manifest's profile section.
const PROFILE_TOP_SPANS: usize = 12;

/// Environment variable selecting the [`Scale`] of the reproduction
/// binaries.
const SCALE_ENV: &str = "ELECTRIFI_SCALE";

/// Parse the value of [`SCALE_ENV`]: `quick` or `paper`, in any case.
fn parse_scale(raw: &str) -> Result<Scale, String> {
    let raw = raw.trim();
    match raw.to_ascii_lowercase().as_str() {
        "quick" => Ok(Scale::Quick),
        "paper" => Ok(Scale::Paper),
        _ => Err(format!("{SCALE_ENV} must be quick or paper, got {raw:?}")),
    }
}

/// Scale selection for the reproduction binaries from `ELECTRIFI_SCALE`:
/// `quick` or `paper` in any case, `Paper` when unset. Any other value
/// exits 2: a typo would otherwise run a smoke pass at full length.
pub fn scale_from_env() -> Scale {
    match std::env::var_os(SCALE_ENV) {
        None => Scale::Paper,
        Some(raw) => parse_scale(&raw.to_string_lossy()).unwrap_or_else(|e| gate::usage_exit(e)),
    }
}

/// Observability scaffolding for one reproduction run: installs a fresh
/// metrics registry as the ambient [`simnet::obs`] handle (so every
/// simulation constructed inside the run reports into it) and, on
/// [`RunGuard::finish`], writes a [`RunManifest`] — seed, config digest,
/// scale, sim horizon, wall-clock time, events fired and the final
/// metrics snapshot — to `out/<name>.manifest.json`.
///
/// ```no_run
/// let mut run = electrifi_bench::RunGuard::begin("fig16", 2015, electrifi::experiments::Scale::Quick);
/// // ... run the experiment ...
/// run.finish();
/// ```
pub struct RunGuard {
    name: String,
    seed: u64,
    scale: Scale,
    config_digest: String,
    sim_horizon_s: f64,
    obs: Obs,
    prev: Obs,
    start: std::time::Instant,
    /// Where to write the Chrome trace on finish (from `ELECTRIFI_TRACE`).
    trace_path: Option<String>,
    /// Whether *this guard* enabled span collection (and must disable it).
    spans_enabled: bool,
}

impl RunGuard {
    /// Start a run: install a fresh enabled [`Obs`] as the ambient handle
    /// and start the wall clock. The config digest defaults to a hash of
    /// `(name, seed, scale)`; override with [`RunGuard::set_config`] when
    /// the run has a richer configuration.
    pub fn begin(name: &str, seed: u64, scale: Scale) -> Self {
        let obs = Obs::new();
        let prev = obs::set_default(obs.clone());
        let trace_path = std::env::var(TRACE_ENV).ok().filter(|p| !p.is_empty());
        let profile_only = std::env::var(PROFILE_ENV).is_ok_and(|v| v == "1");
        // Respect an already-active collector (e.g. a campaign harness
        // tracing across runs): the guard then neither enables nor
        // disables, and the harness owns the report.
        let spans_enabled = if span::is_enabled() {
            false
        } else if trace_path.is_some() {
            let sample = std::env::var(TRACE_SAMPLE_ENV)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(1);
            span::enable(SpanConfig::traced(sample));
            true
        } else if profile_only {
            span::enable(SpanConfig::stats());
            true
        } else {
            false
        };
        RunGuard {
            name: name.to_string(),
            seed,
            scale,
            config_digest: obs::config_digest(&(name, seed, scale)),
            sim_horizon_s: 0.0,
            obs,
            prev,
            start: std::time::Instant::now(),
            trace_path: if spans_enabled { trace_path } else { None },
            spans_enabled,
        }
    }

    /// The run's observability handle (e.g. to attach a sink).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Digest the run's full configuration instead of the default
    /// `(name, seed, scale)` triple.
    pub fn set_config<C: std::fmt::Debug>(&mut self, config: &C) {
        self.config_digest = obs::config_digest(config);
    }

    /// Record the simulated horizon covered by the run.
    pub fn set_sim_horizon(&mut self, end: Time) {
        self.sim_horizon_s = self.sim_horizon_s.max(end.as_secs_f64());
    }

    /// Stop the wall clock, restore the previous ambient handle, build the
    /// manifest and write it to `out/<name>.manifest.json` (best-effort:
    /// an unwritable `out/` prints a warning instead of failing the run).
    pub fn finish(self) -> RunManifest {
        let wall_clock_s = self.start.elapsed().as_secs_f64();
        obs::set_default(self.prev);
        let profile = if self.spans_enabled {
            let report = span::disable();
            if let Some(path) = &self.trace_path {
                if let Err(e) = write_trace_file(path, &report) {
                    eprintln!("warning: could not write trace {path}: {e}");
                } else if report.dropped_events > 0 {
                    eprintln!(
                        "warning: trace {path} dropped {} event(s) at the buffer cap \
                         (raise {TRACE_SAMPLE_ENV} to sample)",
                        report.dropped_events
                    );
                }
            }
            Some(report.profile(PROFILE_TOP_SPANS))
        } else {
            None
        };
        let flush_errors = self.obs.flush();
        if flush_errors > 0 {
            eprintln!("warning: event sink lost {flush_errors} event(s) to write errors");
        }
        let metrics = self.obs.registry().snapshot();
        let manifest = RunManifest {
            name: self.name,
            seed: self.seed,
            config_digest: self.config_digest,
            scale: format!("{:?}", self.scale).to_lowercase(),
            sim_horizon_s: self.sim_horizon_s,
            wall_clock_s,
            events_fired: metrics.counter("sim.events_fired"),
            metrics,
            profile,
        };
        let path = format!("out/{}.manifest.json", manifest.name);
        let json = serde_json::to_string_pretty(&manifest)
            .map(|s| s + "\n")
            .map_err(|e| format!("{e:?}"));
        if let Err(e) = json
            .and_then(|body| {
                std::fs::create_dir_all("out")
                    .map_err(|e| e.to_string())
                    .map(|()| body)
            })
            .and_then(|body| std::fs::write(&path, body).map_err(|e| e.to_string()))
        {
            eprintln!("warning: could not write {path}: {e}");
        }
        manifest
    }
}

/// Write a span report's events as Chrome trace JSON at `path`, creating
/// parent directories as needed.
fn write_trace_file(path: &str, report: &span::SpanReport) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
    }
    let mut buf = Vec::new();
    span::write_chrome_trace(&report.events, &mut buf).map_err(|e| e.to_string())?;
    std::fs::write(path, buf).map_err(|e| e.to_string())
}

/// Render a plain-text table: a header row and aligned columns.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let head: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    out.push_str(&head.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(head.join("  ").len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// Format a float with a fixed number of decimals, rendering NaN as "-".
pub fn fmt(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_accepts_quick_and_paper_in_any_case() {
        for raw in ["quick", "Quick", "QUICK", " qUiCk "] {
            assert_eq!(parse_scale(raw), Ok(Scale::Quick), "{raw:?}");
        }
        for raw in ["paper", "Paper", "PAPER"] {
            assert_eq!(parse_scale(raw), Ok(Scale::Paper), "{raw:?}");
        }
    }

    #[test]
    fn scale_typos_are_rejected_with_the_variable_name() {
        for bad in ["quik", "", "1", "fast", "quick!"] {
            let err = parse_scale(bad).unwrap_err();
            assert!(err.starts_with("ELECTRIFI_SCALE must be"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            "demo",
            &["link", "T (Mbps)"],
            &[
                vec!["0-1".into(), "42.0".into()],
                vec!["10-2".into(), "7.5".into()],
            ],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("link"));
        let lines: Vec<&str> = t.lines().collect();
        // All data lines have equal length (alignment).
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn fmt_handles_nan() {
        assert_eq!(fmt(f64::NAN, 2), "-");
        assert_eq!(fmt(1.234, 2), "1.23");
    }
}
