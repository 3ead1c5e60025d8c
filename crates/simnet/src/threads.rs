//! Validated worker-count parsing, shared by every surface that accepts
//! one.
//!
//! Three places accept a worker count — the `ELECTRIFI_THREADS`
//! environment variable, `campaign --workers`, and `serve --workers` —
//! and all of them must agree on what a valid count is: a positive
//! integer. `0` and garbage are rejected with a typed
//! [`WorkerCountError`] naming the **source** of the bad value, so the
//! message tells the user which knob to fix ("--workers must be..."
//! vs "ELECTRIFI_THREADS must be..."). Silently serializing on a typo
//! is exactly the misconfiguration this module exists to prevent.

use std::fmt;

/// Environment variable overriding the sweep/campaign worker count.
pub const THREADS_ENV: &str = "ELECTRIFI_THREADS";

/// What was wrong with a worker-count value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerCountErrorKind {
    /// The value parsed as `0`, which would silently serialize.
    Zero,
    /// The value is not a base-10 positive integer at all.
    NotANumber,
}

/// A rejected worker-count value: which source supplied it, what it
/// was, and why it was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCountError {
    /// Where the value came from (`ELECTRIFI_THREADS`, `--workers`, ...).
    pub source: String,
    /// The raw value as supplied (trimmed).
    pub raw: String,
    /// Why it was rejected.
    pub kind: WorkerCountErrorKind,
}

impl fmt::Display for WorkerCountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            WorkerCountErrorKind::Zero => {
                write!(
                    f,
                    "{} must be a positive worker count, got \"0\"",
                    self.source
                )?;
                if self.source == THREADS_ENV {
                    write!(
                        f,
                        " (unset the variable to use all cores, or set 1 to \
                         force sequential sweeps)"
                    )?;
                } else {
                    write!(f, " (use 1 to force sequential execution)")?;
                }
                Ok(())
            }
            WorkerCountErrorKind::NotANumber => write!(
                f,
                "{} must be a positive integer worker count, got {:?}",
                self.source, self.raw
            ),
        }
    }
}

impl std::error::Error for WorkerCountError {}

/// Parse a worker count supplied by `source` (an env-var or flag name,
/// used verbatim in the error message). Accepts positive integers;
/// rejects `0`, empty strings and garbage.
pub fn parse_worker_count(source: &str, raw: &str) -> Result<usize, WorkerCountError> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(WorkerCountError {
            source: source.to_string(),
            raw: trimmed.to_string(),
            kind: WorkerCountErrorKind::Zero,
        }),
        Ok(n) => Ok(n),
        Err(_) => Err(WorkerCountError {
            source: source.to_string(),
            raw: trimmed.to_string(),
            kind: WorkerCountErrorKind::NotANumber,
        }),
    }
}

/// Read and validate a positive count from the environment variable
/// `var`: `Ok(None)` when unset, `Ok(Some(n))` for a valid value,
/// `Err` for a set-but-invalid one, including a value that is not
/// Unicode.
fn count_from_env(var: &str) -> Result<Option<usize>, WorkerCountError> {
    let Some(raw) = std::env::var_os(var) else {
        return Ok(None);
    };
    match raw.to_str() {
        Some(v) => parse_worker_count(var, v).map(Some),
        None => Err(WorkerCountError {
            source: var.to_string(),
            raw: raw.to_string_lossy().into_owned(),
            kind: WorkerCountErrorKind::NotANumber,
        }),
    }
}

/// The worker count configured via [`THREADS_ENV`]: `Ok(None)` when the
/// variable is unset, `Ok(Some(n))` for a valid value, `Err` for a
/// set-but-invalid one.
pub fn worker_count_from_env() -> Result<Option<usize>, WorkerCountError> {
    count_from_env(THREADS_ENV)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_positive_integers() {
        for source in [THREADS_ENV, "--workers"] {
            assert_eq!(parse_worker_count(source, "1"), Ok(1));
            assert_eq!(parse_worker_count(source, " 8 "), Ok(8));
            assert_eq!(parse_worker_count(source, "64"), Ok(64));
        }
    }

    #[test]
    fn zero_is_rejected_and_names_the_source() {
        let env = parse_worker_count(THREADS_ENV, "0").unwrap_err();
        assert_eq!(env.kind, WorkerCountErrorKind::Zero);
        let msg = env.to_string();
        assert!(msg.contains(THREADS_ENV), "{msg}");
        assert!(msg.contains("positive"), "{msg}");
        assert!(msg.contains("unset the variable"), "{msg}");

        let flag = parse_worker_count("--workers", "0").unwrap_err();
        let msg = flag.to_string();
        assert!(msg.starts_with("--workers"), "{msg}");
        assert!(msg.contains("positive"), "{msg}");
        assert!(!msg.contains(THREADS_ENV), "{msg}");
    }

    #[test]
    fn garbage_is_rejected_with_the_raw_value() {
        for source in [THREADS_ENV, "--workers"] {
            for bad in ["", "  ", "four", "-2", "3.5", "8x"] {
                let err = parse_worker_count(source, bad).unwrap_err();
                assert_eq!(err.kind, WorkerCountErrorKind::NotANumber, "{bad:?}");
                let msg = err.to_string();
                assert!(msg.starts_with(source), "{bad:?}: {msg}");
                assert!(msg.contains("positive integer"), "{bad:?}: {msg}");
            }
        }
    }

    #[cfg(unix)]
    #[test]
    fn non_unicode_env_value_is_rejected_not_ignored() {
        use std::ffi::OsStr;
        use std::os::unix::ffi::OsStrExt;
        // A name no other test reads, so setting it cannot race them.
        const VAR: &str = "ELECTRIFI_THREADS_NON_UNICODE_PROBE";
        std::env::set_var(VAR, OsStr::from_bytes(b"4\xff"));
        let err = count_from_env(VAR).unwrap_err();
        std::env::remove_var(VAR);
        assert_eq!(err.kind, WorkerCountErrorKind::NotANumber);
        assert_eq!(err.source, VAR);
        assert!(err.to_string().contains("positive integer"), "{err}");
        assert_eq!(count_from_env(VAR), Ok(None));
    }
}
