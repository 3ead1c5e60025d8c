//! Deterministic parallel sweeps over independent link measurements.
//!
//! The experiments iterate over station pairs (or per-pair cells) and
//! measure each with a **pure, per-pair-seeded** function — no state is
//! carried from one item to the next. Every such loop runs through
//! [`par_map`]:
//!
//! * spatial: Figs. 3, 6 and 7, per pair;
//! * temporal: Fig. 10's panels, Fig. 11's link grid and the
//!   long-trace/weekly windows behind Figs. 12–14;
//! * capacity: Fig. 15's links, Fig. 16's (link, rate) cells, Fig. 17's
//!   links, Fig. 18's probe sizes and Fig. 19's cycle traces;
//! * hybrid: Fig. 20's per-link delivery timelines (the detailed link
//!   and the 13 completion links in one sweep);
//! * retransmission: Fig. 21's broadcast runs and then its night
//!   references (one per unique link), Fig. 22's links, and the
//!   sensitivity runs of Figs. 23–24;
//! * campaigns: the probing experiment's per-pair measurements, and the
//!   campaign runners shard whole runs with [`par_map_workers`].
//!
//! That makes the loops embarrassingly parallel, *provided* the parallel
//! schedule cannot leak into the results:
//!
//! * items are split into contiguous chunks and results are collected in
//!   item-index order, so the output `Vec` is byte-identical to a
//!   sequential run;
//! * each worker thread runs under its own fresh [`Obs`](simnet::obs::Obs)
//!   (the `Rc`-based instruments are intentionally `!Send`) and returns a
//!   [`MetricsSnapshot`]; the coordinator folds the snapshots into the
//!   ambient registry in chunk order, so same-seed metric totals are
//!   reproducible too. Structured *events* raised inside workers are
//!   dropped — sweeps record metrics, not event streams.
//!
//! Thread count comes from `ELECTRIFI_THREADS` (a positive integer; `1`
//! forces the sequential path) or `std::thread::available_parallelism()`.
//! A set-but-invalid value (`0`, garbage) is rejected with a clear
//! message rather than silently falling back — a sweep silently running
//! sequential because of a typo is exactly the misconfiguration the
//! variable exists to prevent.

use simnet::obs::span::{self, SpanReport};
use simnet::obs::{self, MetricsSnapshot, Obs};

/// Environment variable overriding the sweep worker count (re-exported
/// from [`simnet::threads`], the one validated parser every worker-count
/// surface shares).
pub const THREADS_ENV: &str = simnet::threads::THREADS_ENV;

/// Parse an `ELECTRIFI_THREADS` value: a positive integer worker count.
/// `0`, empty strings and garbage are rejected with an actionable
/// message. Thin `String`-error wrapper over
/// [`simnet::threads::parse_worker_count`] for existing callers; new
/// code should use the typed helper directly.
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    simnet::threads::parse_worker_count(THREADS_ENV, raw).map_err(|e| e.to_string())
}

/// The worker count configured via `ELECTRIFI_THREADS`: `Ok(None)` when
/// the variable is unset, `Ok(Some(n))` for a valid value, `Err` with a
/// clear message for an invalid one.
pub fn threads_from_env() -> Result<Option<usize>, String> {
    simnet::threads::worker_count_from_env().map_err(|e| e.to_string())
}

/// Number of workers a sweep over `n_items` items would use.
///
/// # Panics
/// Panics with the [`parse_threads`] message when `ELECTRIFI_THREADS` is
/// set to an invalid value: a misconfigured worker count should stop the
/// run at the first sweep, not silently change its parallelism.
pub fn thread_count(n_items: usize) -> usize {
    let hw = threads_from_env()
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    hw.clamp(1, n_items.max(1))
}

/// Map `f` over `items` in parallel, returning results in item order.
///
/// `f(i, &items[i])` must be pure with respect to sweep order (derive any
/// randomness from the item itself, e.g. a per-link seed): the output is
/// then byte-identical to `items.iter().enumerate().map(...)`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_workers(items, thread_count(items.len()), f)
}

/// [`par_map`] with an explicit worker count (exposed for tests).
pub fn par_map_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        // Sequential fast path: runs under the ambient Obs directly
        // (including the ambient span collector, if any).
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Span collection propagates like metrics do: workers re-enable the
    // coordinator's configuration on their own thread, return the (Send)
    // report, and the coordinator absorbs the reports in chunk order.
    let span_cfg = span::active_config();
    let chunk_len = items.len().div_ceil(workers);
    let f = &f;
    // Each worker returns (results, metrics, spans) for one contiguous
    // chunk; chunks are then concatenated and absorbed in index order, so
    // the thread schedule cannot influence anything observable.
    let per_chunk: Vec<(Vec<R>, MetricsSnapshot, SpanReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(k, chunk)| {
                scope.spawn(move || {
                    let obs = Obs::new();
                    let work = || {
                        obs::with_default(obs.clone(), || {
                            chunk
                                .iter()
                                .enumerate()
                                .map(|(j, t)| f(k * chunk_len + j, t))
                                .collect::<Vec<R>>()
                        })
                    };
                    let (results, spans) = match span_cfg {
                        Some(cfg) => span::scoped(cfg, work),
                        None => (work(), SpanReport::default()),
                    };
                    (results, obs.registry().snapshot(), spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let ambient = obs::current();
    let mut out = Vec::with_capacity(items.len());
    for (results, snap, spans) in per_chunk {
        ambient.registry().absorb(&snap);
        span::absorb(&spans);
        out.extend(results);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..23).collect();
        let seq = par_map_workers(&items, 1, |i, &x| (i as u64) * 1000 + x * x);
        for workers in [2, 3, 5, 8, 64] {
            let par = par_map_workers(&items, workers, |i, &x| (i as u64) * 1000 + x * x);
            assert_eq!(seq, par, "workers={workers}");
        }
    }

    #[test]
    fn worker_metrics_fold_into_ambient_registry() {
        let obs = Obs::new();
        let items: Vec<u64> = (0..10).collect();
        obs::with_default(obs.clone(), || {
            par_map_workers(&items, 4, |_, &x| {
                obs::current().registry().counter("sweep.work").add(x);
                x
            });
        });
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("sweep.work"), (0..10).sum::<u64>());
    }

    #[test]
    fn worker_spans_fold_into_ambient_collector() {
        let ((), rep) = span::scoped(span::SpanConfig::stats(), || {
            let items: Vec<u64> = (0..10).collect();
            par_map_workers(&items, 4, |_, _| {
                let _g = span::enter("sweep.item");
            });
        });
        let stats = rep.get("sweep.item").expect("worker spans absorbed");
        assert_eq!(stats.count, 10);
    }

    #[test]
    fn sweeps_without_spans_collect_none() {
        let items: Vec<u64> = (0..4).collect();
        par_map_workers(&items, 2, |_, _| {
            let _g = span::enter("sweep.ignored");
        });
        assert!(!span::is_enabled());
        assert!(span::disable().stats.is_empty());
    }

    #[test]
    fn empty_and_single_item_sweeps_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn thread_count_is_clamped_to_items() {
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(1_000_000) >= 1);
    }

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        assert_eq!(parse_threads("64"), Ok(64));
    }

    #[test]
    fn parse_threads_rejects_zero_and_garbage_with_clear_messages() {
        let zero = parse_threads("0").unwrap_err();
        assert!(zero.contains("ELECTRIFI_THREADS"), "{zero}");
        assert!(zero.contains("positive"), "{zero}");
        for bad in ["", "  ", "four", "-2", "3.5", "8x"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(err.contains("ELECTRIFI_THREADS"), "{bad:?}: {err}");
            assert!(err.contains("positive integer"), "{bad:?}: {err}");
        }
    }
}
