//! Shared plumbing for the bench bins' regression gates.
//!
//! Each bench bin (`bench_mac`, `bench_channel`) judges the report it
//! just wrote with pure functions over its own typed report structs: the
//! correctness invariants (digest matches, zero-allocation windows) in
//! both modes, plus the timing gates against the committed baseline in
//! full mode. The mode is the report's own `smoke` flag. This module
//! holds what the bins share: the [`Gate`] verdict, the baseline loader
//! and the numeric bench knobs read from the environment.

use std::str::FromStr;

/// Fail on a >20% regression against the committed baseline.
pub const TOL: f64 = 0.8;

/// Environment variable selecting a bench bin's smoke mode: `1` runs
/// tiny windows and gates the invariants only, `0` or unset runs the
/// full-mode windows and adds the timing gates.
const SMOKE_ENV: &str = "ELECTRIFI_BENCH_SMOKE";

/// The verdict of one bench bin's gate over its report.
#[derive(Debug, Default)]
pub struct Gate {
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Findings that are reported but do not fail the gate.
    pub warnings: Vec<String>,
    /// Summary lines: the gated and reported numbers.
    pub notes: Vec<String>,
}

impl Gate {
    /// Record `msg` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(msg());
        }
    }

    /// Record a summary line, `section: text`, with the section
    /// right-aligned to 12 columns.
    pub fn note(&mut self, line: String) {
        let (section, text) = line.split_once(':').unwrap_or(("", &line));
        self.notes.push(format!("{section:>12}:{text}"));
    }

    /// Fail if the baseline named `name` is a smoke run: its timings come
    /// from a window too short for any ratio gate to mean anything.
    pub fn refuse_smoke_baseline(&mut self, name: &str, smoke: bool) {
        self.check(!smoke, || {
            format!("baseline BENCH_{name} is a smoke run; full-mode timing gates need a full one")
        });
    }

    /// Print the summary, `WARN` and `FAIL` lines to stderr and exit 1
    /// if any check failed.
    pub fn finish(self, bin: &str, smoke: bool) {
        for line in &self.notes {
            eprintln!("{line}");
        }
        for msg in &self.warnings {
            eprintln!("  WARN {msg}");
        }
        for msg in &self.failures {
            eprintln!("  FAIL {msg}");
        }
        if self.failures.is_empty() {
            eprintln!("{bin} gate (smoke: {smoke}): OK");
        } else {
            eprintln!(
                "{bin} gate (smoke: {smoke}): {} failure(s)",
                self.failures.len()
            );
            std::process::exit(1);
        }
    }
}

/// Read the committed baseline `scripts/baselines/BENCH_<name>.baseline.json`
/// into `T`.
pub fn load_baseline<T: serde::Deserialize>(name: &str) -> Result<T, String> {
    let path = format!(
        "{}/../../scripts/baselines/BENCH_{name}.baseline.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).map_err(|e| format!("baseline {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("baseline {path}: {e}"))
}

/// A numeric bench knob: a positive count or a positive finite number.
pub trait Knob: FromStr + Copy {
    /// What a valid value is, for the error message.
    const EXPECTED: &'static str;
    /// Whether the parsed value is usable.
    fn valid(self) -> bool;
}

impl Knob for u64 {
    const EXPECTED: &'static str = "a positive integer";
    fn valid(self) -> bool {
        self > 0
    }
}

impl Knob for usize {
    const EXPECTED: &'static str = "a positive integer";
    fn valid(self) -> bool {
        self > 0
    }
}

impl Knob for f64 {
    const EXPECTED: &'static str = "a positive finite number";
    fn valid(self) -> bool {
        self.is_finite() && self > 0.0
    }
}

/// Parse the value `raw` of the knob `var`. Rejects malformed, zero,
/// negative and non-finite values with a message naming `var`.
pub fn parse_knob<T: Knob>(var: &str, raw: &str) -> Result<T, String> {
    let raw = raw.trim();
    match raw.parse::<T>() {
        Ok(v) if v.valid() => Ok(v),
        _ => Err(format!("{var} must be {}, got {raw:?}", T::EXPECTED)),
    }
}

/// The knob `var` from the environment, or `default` when it is unset.
/// A set but invalid value exits 2: running the default instead would
/// silently gate the wrong window.
pub fn knob<T: Knob>(var: &str, default: T) -> T {
    match std::env::var_os(var) {
        None => default,
        Some(raw) => parse_knob(var, &raw.to_string_lossy()).unwrap_or_else(|e| usage_exit(e)),
    }
}

/// Parse the value of [`SMOKE_ENV`]: `1` or `0`.
pub fn parse_smoke(raw: &str) -> Result<bool, String> {
    match raw.trim() {
        "1" => Ok(true),
        "0" => Ok(false),
        other => Err(format!("{SMOKE_ENV} must be 1 or 0, got {other:?}")),
    }
}

/// Smoke mode from [`SMOKE_ENV`] (unset means full mode); a value other
/// than `1` or `0` exits 2.
pub fn smoke_from_env() -> bool {
    match std::env::var_os(SMOKE_ENV) {
        None => false,
        Some(raw) => parse_smoke(&raw.to_string_lossy()).unwrap_or_else(|e| usage_exit(e)),
    }
}

/// Print `msg` as a usage error and exit 2.
pub fn usage_exit(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_accept_positive_values() {
        assert_eq!(parse_knob::<f64>("ELECTRIFI_BENCH_SECS", " 16 "), Ok(16.0));
        assert_eq!(parse_knob::<f64>("ELECTRIFI_BENCH_SECS", "0.5"), Ok(0.5));
        assert_eq!(parse_knob::<usize>("ELECTRIFI_BENCH_REPS", "3"), Ok(3));
        assert_eq!(parse_knob::<u64>("ELECTRIFI_BENCH_ITERS", "2000"), Ok(2000));
    }

    #[test]
    fn knobs_reject_malformed_zero_negative_and_non_finite_values() {
        for bad in ["16s", "", "0", "-1", "inf", "NaN", "1e400"] {
            let err = parse_knob::<f64>("ELECTRIFI_BENCH_SECS", bad).unwrap_err();
            assert!(
                err.starts_with("ELECTRIFI_BENCH_SECS must be"),
                "{bad:?}: {err}"
            );
        }
        for bad in ["0", "-2", "3.5", "lots"] {
            let err = parse_knob::<u64>("ELECTRIFI_BENCH_ITERS", bad).unwrap_err();
            assert!(err.contains("ELECTRIFI_BENCH_ITERS"), "{bad:?}: {err}");
            assert!(err.contains("positive integer"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn smoke_flag_is_one_or_zero() {
        assert_eq!(parse_smoke("1"), Ok(true));
        assert_eq!(parse_smoke("0"), Ok(false));
        let err = parse_smoke("yes").unwrap_err();
        assert!(err.starts_with(SMOKE_ENV), "{err}");
    }
}
