//! `bench_channel` — perf-regression harness for the PLC spectrum
//! pipeline.
//!
//! Exercises the most-tapped link of the paper floor (the worst case
//! for the per-carrier kernels) and reports to `out/BENCH_channel.json`:
//!
//! * **cold_eval** — the uncached reference evaluator, per-eval µs;
//! * **warm** — the cached hot path on an epoch-stable window: per-call
//!   µs, the epoch-hit and analytic key-skip rates, and **heap
//!   allocations per call** measured by the [`allocprobe`] counting
//!   global allocator (the gate requires exactly zero);
//! * **cold_rebuild_us** — the gated number: wall µs per full epoch
//!   rebuild, measured by alternating between two appliance epochs so
//!   *every* call rebuilds (best-of reps);
//! * a **digest match** between cached and reference spectra over a
//!   tour of times, phases and directions — a perf win can never
//!   silently change results.
//!
//! After writing the report the bin gates it (see [`gate`]) and exits 1
//! on any failure: the digest match and both zero-allocation paths in
//! every mode, and in full mode the 100 µs rebuild ceiling plus no >20%
//! regression against `scripts/baselines/BENCH_channel.baseline.json`.
//!
//! Environment:
//! * `ELECTRIFI_BENCH_ITERS` — warm-loop iterations (default 2000).
//! * `ELECTRIFI_BENCH_SMOKE=1` — tiny loops, for CI smoke runs
//!   (timings meaningless; only the invariants are gated).

use electrifi::experiments::PAPER_SEED;
use electrifi::PaperEnv;
use electrifi_bench::gate::{self as knobs, Gate, TOL};
use electrifi_bench::report::{ChannelBenchReport, ColdEval, ColdRebuild, Warm};
use plc_phy::channel::{LinkDir, PlcChannel};
use plc_phy::SnrSpectrum;
use simnet::obs::{self, Obs};
use simnet::time::{Duration, Time};

#[global_allocator]
static ALLOC: allocprobe::CountingAlloc = allocprobe::CountingAlloc::new();

/// FNV-1a fold over 64-bit words.
fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

fn timed(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = std::time::Instant::now();
    for k in 0..iters {
        f(k);
    }
    t0.elapsed().as_secs_f64()
}

/// Two instants in different appliance epochs of `ch`, found by probing
/// the rebuild counter over candidate hour pairs (weekday work hours vs
/// late evening flips office schedules and building lights).
fn epoch_flip_pair(env: &PaperEnv, a: u16, b: u16, dir: LinkDir) -> (Time, Time) {
    let candidates = [
        (3 * 24 + 10, 3 * 24 + 23),
        (3 * 24 + 14, 3 * 24 + 2),
        (24 + 9, 24 + 22),
        (10, 5 * 24 + 10),
    ];
    for (h1, h2) in candidates {
        let (t1, t2) = (Time::from_hours(h1), Time::from_hours(h2));
        let obs = Obs::new();
        let rebuilds = obs::with_default(obs.clone(), || {
            let ch: PlcChannel = env.plc_channel(a, b);
            let mut buf = SnrSpectrum::empty();
            for k in 0..4u64 {
                let t = if k % 2 == 0 { t1 } else { t2 };
                ch.spectrum_at_phase_into(dir, t, 0.25, &mut buf);
            }
            obs.registry()
                .snapshot()
                .counter("plc.phy.spectrum.epoch_rebuilds")
        });
        if rebuilds == 4 {
            return (t1, t2);
        }
    }
    panic!("no candidate hour pair flips the epoch of link ({a},{b})");
}

fn main() {
    let smoke = knobs::smoke_from_env();
    let warm_iters: u64 = knobs::knob("ELECTRIFI_BENCH_ITERS", if smoke { 200 } else { 2000 });
    let cold_iters: u64 = if smoke { 10 } else { 300 };
    let rebuild_iters: u64 = if smoke { 40 } else { 400 };
    let rebuild_reps: u64 = if smoke { 2 } else { 5 };

    let env = PaperEnv::new(PAPER_SEED);
    // The most-tapped same-network link: the worst case for the spectrum
    // pipeline (cost grows with carriers × echo groups).
    let (a, b, ch) = env
        .plc_pairs()
        .into_iter()
        .filter(|(a, b)| a < b)
        .map(|(a, b)| (a, b, env.plc_channel(a, b)))
        .max_by_key(|(_, _, ch)| ch.tap_count())
        .expect("paper floor has PLC pairs");
    let dir = PaperEnv::dir(a, b);
    // Millisecond-spaced refreshes around a fixed hour, the regime the
    // sims run in: the epoch key stays stable, so the warm path measures
    // cache composition, not rebuilds.
    let base = Time::from_hours(10);
    let at = |k: u64| base + Duration::from_millis(k % 1000);

    // --- Cold arm: the uncached reference evaluator.
    let cold_total_s = timed(cold_iters, |k| {
        std::hint::black_box(ch.spectrum_at_phase_reference(dir, at(k), 0.25));
    });
    let cold_eval = ColdEval {
        iters: cold_iters,
        total_s: cold_total_s,
        per_eval_us: cold_total_s / cold_iters as f64 * 1e6,
    };

    // --- Warm arm: fresh channel (cold cache) under a fresh registry so
    // the counters cover exactly the timed loop; allocprobe brackets it
    // to prove the steady state never touches the heap.
    let obs_warm = Obs::new();
    let (warm_total_s, carriers, alloc_delta) = obs::with_default(obs_warm.clone(), || {
        let ch2: PlcChannel = env.plc_channel(a, b);
        let mut buf = SnrSpectrum::empty();
        // One warmup call sizes every scratch buffer and registers the
        // metrics; the timed window must then be allocation-free.
        ch2.spectrum_at_phase_into(dir, at(0), 0.25, &mut buf);
        let before = ALLOC.snapshot();
        let warm_total_s = timed(warm_iters, |k| {
            ch2.spectrum_at_phase_into(dir, at(k), 0.25, &mut buf);
            std::hint::black_box(buf.snr_db[0]);
        });
        let delta = before.delta(&ALLOC.snapshot());
        (warm_total_s, buf.snr_db.len(), delta)
    });
    let snap = obs_warm.registry().snapshot();
    let epoch_hits = snap.counter("plc.phy.spectrum.epoch_hits");
    let epoch_rebuilds = snap.counter("plc.phy.spectrum.epoch_rebuilds");
    let key_skips = snap.counter("plc.phy.spectrum.key_skips");
    let key_rescans = snap.counter("plc.phy.spectrum.key_rescans");
    let allocs_per_call = alloc_delta.events() as f64 / warm_iters as f64;
    let warm = Warm {
        iters: warm_iters,
        total_s: warm_total_s,
        per_call_us: warm_total_s / warm_iters as f64 * 1e6,
        allocs_per_call,
        epoch_hits,
        epoch_rebuilds,
        key_skips,
        key_rescans,
        cache_hit_rate: epoch_hits as f64 / (epoch_hits + epoch_rebuilds).max(1) as f64,
        key_skip_rate: key_skips as f64 / (key_skips + key_rescans).max(1) as f64,
    };

    // --- Rebuild arm: alternate between two appliance epochs so every
    // call takes the full rebuild path. Best-of reps tames scheduler
    // noise; the counter check proves the regime is what it claims.
    let (t1, t2) = epoch_flip_pair(&env, a, b, dir);
    let obs_rb = Obs::new();
    let (best_total_s, rebuild_allocs) = obs::with_default(obs_rb.clone(), || {
        let ch3: PlcChannel = env.plc_channel(a, b);
        let mut buf = SnrSpectrum::empty();
        // Warm both epochs' scratch sizes once.
        ch3.spectrum_at_phase_into(dir, t1, 0.25, &mut buf);
        ch3.spectrum_at_phase_into(dir, t2, 0.25, &mut buf);
        let before = ALLOC.snapshot();
        let mut best = f64::INFINITY;
        for _ in 0..rebuild_reps {
            let total = timed(rebuild_iters, |k| {
                let t = if k % 2 == 0 { t1 } else { t2 };
                ch3.spectrum_at_phase_into(dir, t, 0.25, &mut buf);
                std::hint::black_box(buf.snr_db[0]);
            });
            best = best.min(total);
        }
        (best, before.delta(&ALLOC.snapshot()))
    });
    let rebuilds = obs_rb
        .registry()
        .snapshot()
        .counter("plc.phy.spectrum.epoch_rebuilds")
        // The two scratch-warming calls rebuild too.
        .saturating_sub(2);
    let cold_rebuild = ColdRebuild {
        iters: rebuild_iters,
        reps: rebuild_reps,
        best_total_s,
        cold_rebuild_us: best_total_s / rebuild_iters as f64 * 1e6,
        rebuilds,
        allocs_per_rebuild: rebuild_allocs.events() as f64 / (rebuild_iters * rebuild_reps) as f64,
    };

    // --- Digest tour: cached vs reference over times, phases and both
    // directions, on a fresh channel each so the cache starts cold.
    let hours: &[u64] = if smoke {
        &[2, 11, 23]
    } else {
        &[2, 7, 11, 14, 19, 23, 30, 38, 47]
    };
    let mut digest_cached = 0xcbf2_9ce4_8422_2325u64;
    let mut digest_ref = 0xcbf2_9ce4_8422_2325u64;
    let ch4: PlcChannel = env.plc_channel(a, b);
    let mut buf = SnrSpectrum::empty();
    for d in [dir, dir.reverse()] {
        for &h in hours {
            for phase in [0.25, 0.75] {
                let t = Time::from_hours(h);
                ch4.spectrum_at_phase_into(d, t, phase, &mut buf);
                for v in &buf.snr_db {
                    mix(&mut digest_cached, v.to_bits());
                }
                let reference = ch4.spectrum_at_phase_reference(d, t, phase);
                for v in &reference.snr_db {
                    mix(&mut digest_ref, v.to_bits());
                }
            }
        }
    }
    let digest_match = digest_cached == digest_ref;

    let report = ChannelBenchReport {
        seed: PAPER_SEED,
        link: (a, b),
        taps: ch.tap_count(),
        carriers,
        smoke,
        speedup: cold_eval.per_eval_us / warm.per_call_us.max(1e-9),
        cache_hit_rate: warm.cache_hit_rate,
        cold_rebuild_us: cold_rebuild.cold_rebuild_us,
        cold_eval,
        warm,
        cold_rebuild,
        digest_match,
        digest: format!("{digest_cached:016x}"),
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    let _ = std::fs::create_dir_all("out");
    std::fs::write("out/BENCH_channel.json", &json).expect("write out/BENCH_channel.json");
    println!("{json}");
    gate(&report, || knobs::load_baseline("channel")).finish("bench_channel", smoke);
}

/// Judge a channel report: the invariants in both modes, and in full
/// mode (the report's own `smoke` flag off) the timing gates against the
/// baseline, which is read only then.
fn gate(
    ch: &ChannelBenchReport,
    baseline: impl FnOnce() -> Result<ChannelBenchReport, String>,
) -> Gate {
    let mut g = Gate::default();
    // The cached evaluator runs the chunked kernels, the reference the
    // scalar twins: the digest tour proves they still agree bitwise.
    g.check(ch.digest_match, || {
        "channel: digest mismatch — cached spectrum diverged from the reference evaluator".into()
    });
    let (warm, rb) = (ch.warm.allocs_per_call, &ch.cold_rebuild);
    g.check(warm == 0.0, || {
        format!("channel: warm spectrum_at_phase_into performed {warm} heap allocation(s)/call; expected zero")
    });
    g.check(rb.allocs_per_rebuild == 0.0, || {
        let n = rb.allocs_per_rebuild;
        format!("channel: epoch rebuild performed {n} heap allocation(s)/rebuild; expected zero")
    });
    g.check(rb.rebuilds == rb.iters * rb.reps, || {
        "channel: rebuild arm did not rebuild on every call — cold_rebuild_us is not measuring the rebuild path".into()
    });
    if ch.smoke {
        return g;
    }
    let Ok(base) = baseline().map_err(|e| g.failures.push(e)) else {
        return g;
    };
    g.refuse_smoke_baseline("channel", base.smoke);

    // The rebuild ceiling is absolute by design ("tens of µs per
    // 917-carrier rebuild"), on top of the baseline ratio.
    const CEILING_US: f64 = 100.0;
    let (cur, refv) = (ch.cold_rebuild_us, base.cold_rebuild_us);
    g.check(cur <= CEILING_US, || {
        format!("channel: cold_rebuild_us {cur:.1} exceeds the {CEILING_US:.0} µs ceiling")
    });
    g.check(cur <= refv / TOL, || {
        format!("channel: cold_rebuild_us {cur:.1} regressed >20% vs baseline {refv:.1}")
    });
    g.note(format!(
        "channel: cold rebuild {cur:.1} µs (baseline {refv:.1} µs, ceiling {CEILING_US:.0} µs)"
    ));
    let (cur, refv) = (ch.warm.per_call_us, base.warm.per_call_us);
    g.check(cur <= refv / TOL, || {
        format!("channel: warm per-call {cur:.2} µs regressed >20% vs baseline {refv:.2} µs")
    });
    g.note(format!(
        "channel: warm per-call {cur:.2} µs (baseline {refv:.2} µs)"
    ));
    let (cur, refv) = (ch.speedup, base.speedup);
    g.check(cur >= TOL * refv, || {
        format!("channel: speedup {cur:.1}x regressed >20% vs baseline {refv:.1}x")
    });
    g.note(format!(
        "channel: cached/reference speedup {cur:.1}x (baseline {refv:.1}x)"
    ));
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> ChannelBenchReport {
        knobs::load_baseline("channel").expect("committed channel baseline parses")
    }

    /// The gate's verdict on `ch` against the committed baseline.
    fn judge(ch: &ChannelBenchReport) -> Gate {
        gate(ch, || Ok(baseline()))
    }

    /// Exactly one failure, and it names `needle`.
    fn assert_fails(g: &Gate, needle: &str) {
        assert_eq!(g.failures.len(), 1, "{:?}", g.failures);
        assert!(g.failures[0].contains(needle), "{:?}", g.failures);
    }

    #[test]
    fn committed_baseline_parses_and_is_full_mode() {
        let base = baseline();
        assert!(!base.smoke);
        assert!(base.digest_match);
    }

    #[test]
    fn report_equal_to_its_baseline_passes_full_mode() {
        let g = judge(&baseline());
        assert!(g.failures.is_empty() && g.warnings.is_empty(), "{g:?}");
        assert_eq!(g.notes.len(), 3);
    }

    #[test]
    fn smoke_mode_skips_every_timing_gate() {
        let mut ch = baseline();
        ch.smoke = true;
        ch.cold_rebuild_us = 1e6;
        ch.warm.per_call_us = 1e6;
        ch.speedup = 0.0;
        let g = gate(&ch, || panic!("smoke mode must not read the baseline"));
        assert!(g.failures.is_empty() && g.notes.is_empty(), "{g:?}");
    }

    #[test]
    fn smoke_baseline_is_refused() {
        let mut base = baseline();
        base.smoke = true;
        assert_fails(
            &gate(&baseline(), || Ok(base)),
            "BENCH_channel is a smoke run",
        );
    }

    #[test]
    fn digest_mismatch_fails() {
        let mut ch = baseline();
        ch.digest_match = false;
        assert_fails(&judge(&ch), "channel: digest mismatch");
    }

    #[test]
    fn warm_allocation_fails() {
        let mut ch = baseline();
        ch.smoke = true;
        ch.warm.allocs_per_call = 0.5;
        assert_fails(
            &judge(&ch),
            "warm spectrum_at_phase_into performed 0.5 heap",
        );
    }

    #[test]
    fn rebuild_allocation_fails() {
        let mut ch = baseline();
        ch.cold_rebuild.allocs_per_rebuild = 1.0;
        assert_fails(&judge(&ch), "epoch rebuild performed 1 heap");
    }

    #[test]
    fn missed_rebuild_fails() {
        let mut ch = baseline();
        ch.cold_rebuild.rebuilds -= 1;
        assert_fails(&judge(&ch), "rebuild arm did not rebuild on every call");
    }

    #[test]
    fn rebuild_over_the_ceiling_fails() {
        let mut ch = baseline();
        let mut base = baseline();
        ch.cold_rebuild_us = 101.0;
        base.cold_rebuild_us = 100.0;
        assert_fails(&gate(&ch, || Ok(base)), "exceeds the 100 µs ceiling");
    }

    #[test]
    fn rebuild_regression_fails() {
        let mut ch = baseline();
        ch.cold_rebuild_us = ch.cold_rebuild_us / TOL + 1.0;
        let g = judge(&ch);
        assert_fails(&g, "channel: cold_rebuild_us");
        assert!(g.failures[0].contains("regressed >20% vs baseline"));
    }

    #[test]
    fn warm_regression_fails() {
        let mut ch = baseline();
        ch.warm.per_call_us = ch.warm.per_call_us / TOL * 1.01;
        assert_fails(&judge(&ch), "channel: warm per-call");
    }

    #[test]
    fn speedup_regression_fails() {
        let mut ch = baseline();
        ch.speedup *= TOL * 0.99;
        assert_fails(&judge(&ch), "channel: speedup");
    }
}
