//! `bench_mac` — perf-regression harness for the MAC hot loop.
//!
//! Runs the same workloads through the retained reference stepper
//! ([`PlcSim::run_until_reference`]) and the optimized hot loop
//! ([`PlcSim::run_until`]) and reports to `out/BENCH_mac.json`:
//!
//! * **steps/sec** for both arms on the 10-station Fig. 16 probing
//!   workload (the gated number) and on the saturated Table-3-shaped
//!   mesh, and the resulting speedups;
//! * **heap allocations per step** in the optimized steady state,
//!   measured by the [`allocprobe`] counting global allocator (the gate
//!   requires exactly zero);
//! * a **digest match** between the two arms (same seed ⇒ byte-identical
//!   observables), so a perf win can never silently change results;
//! * the **idle-skip hit rate** on a mostly-idle probing workload, read
//!   from the `plc.mac.idle_skips` / `plc.mac.idle_rescans` counters;
//! * the **span-tracing overhead** on the gated workload.
//!
//! After writing the report the bin gates it (see [`gate`]) and exits 1
//! on any failure. Every mode gates the invariants: digest matches and
//! allocation-free optimized windows. Full mode adds the timing gates:
//! the 3× `mac_loop` floor, the 0.95 span budget, and no >20%
//! regression against `scripts/baselines/BENCH_mac.baseline.json`.
//! Absolute steps/sec is host-dependent, so it only warns unless
//! `PERF_GATE_ABSOLUTE=1`.
//!
//! Environment:
//! * `ELECTRIFI_BENCH_SECS` — simulated seconds in the timed window
//!   (default 16).
//! * `ELECTRIFI_BENCH_REPS` — best-of repetitions per arm (default 3).
//! * `ELECTRIFI_BENCH_SMOKE=1` — 2-second window, one rep, for CI smoke
//!   runs; only the invariants are gated.

use electrifi_bench::gate::{self as knobs, Gate, TOL};
use electrifi_bench::report::{grouped, Arm, BenchReport, Comparison, IdleReport, SpanOverhead};
use plc_mac::pb::CompletedPacket;
use plc_mac::sim::{Flow, PlcSim, SimConfig, StationId};
use simnet::appliance::ApplianceKind;
use simnet::grid::Grid;
use simnet::obs::span::{self, SpanConfig};
use simnet::obs::{self, Obs};
use simnet::schedule::Schedule;
use simnet::time::{Duration, Time};
use simnet::traffic::{TrafficPattern, TrafficSource};

#[global_allocator]
static ALLOC: allocprobe::CountingAlloc = allocprobe::CountingAlloc::new();

const SEED: u64 = 0xBE9C;
const WARMUP_SECS: u64 = 3;
/// Quiesce value: pushes the next estimator observation past any window.
const QUIESCE_GAP: Duration = Duration::from_secs(1_000_000);

/// Bus-topology grid mirroring the figure experiments' procedural grids.
fn bus_grid(n: u16) -> (Grid, Vec<(StationId, simnet::grid::NodeId)>) {
    let mut g = Grid::new();
    let mut junctions = Vec::new();
    let n_j = (n as usize).div_ceil(2).max(2);
    for j in 0..n_j {
        junctions.push(g.add_junction(format!("j{j}")));
        if j > 0 {
            g.connect(junctions[j - 1], junctions[j], 9.0 + j as f64);
        }
    }
    let mut outlets = Vec::new();
    for i in 0..n {
        let o = g.add_outlet(format!("s{i}"));
        g.connect(junctions[i as usize % n_j], o, 2.0 + i as f64);
        outlets.push((i, o));
    }
    let oa = g.add_outlet("pc");
    g.connect(junctions[0], oa, 2.0);
    g.attach(oa, ApplianceKind::DesktopPc, Schedule::AlwaysOn);
    let ob = g.add_outlet("printer");
    g.connect(junctions[n_j - 1], ob, 2.5);
    g.attach(ob, ApplianceKind::LaserPrinter, Schedule::AlwaysOn);
    (g, outlets)
}

/// The 10-station Fig. 16 probing workload: every station probes its
/// ring neighbour at 200 packets/s with 1300-byte probes (the paper's
/// fastest probing rate). Contention spikes when probes align; between
/// arrivals the medium is idle, so the analytic idle-skip carries the
/// schedule.
fn build_fig16() -> (PlcSim, Vec<usize>) {
    let (g, outlets) = bus_grid(10);
    let cfg = SimConfig {
        seed: SEED,
        ..SimConfig::default()
    };
    let mut sim = PlcSim::new(cfg, &g, &outlets);
    let mut handles = Vec::new();
    for i in 0..10u16 {
        handles.push(sim.add_flow(Flow::unicast(
            i,
            (i + 1) % 10,
            TrafficSource::new(
                TrafficPattern::Cbr {
                    rate_bps: 200.0 * 1300.0 * 8.0, // 200 pkt/s of 1300 B
                    pkt_bytes: 1300,
                },
                Time::from_millis(i as u64),
            ),
        )));
    }
    (sim, handles)
}

/// The saturated 10-station mesh: every station sends saturated unicast
/// to its ring neighbour (the Table 3 contention shape). Dominated by
/// shared frame/PB work both steppers must do, so the speedup here is
/// structurally smaller than on the probing workload.
fn build_saturated() -> (PlcSim, Vec<usize>) {
    let (g, outlets) = bus_grid(10);
    let cfg = SimConfig {
        seed: SEED,
        ..SimConfig::default()
    };
    let mut sim = PlcSim::new(cfg, &g, &outlets);
    let mut handles = Vec::new();
    for i in 0..10u16 {
        handles.push(sim.add_flow(Flow::unicast(
            i,
            (i + 1) % 10,
            TrafficSource::new(TrafficPattern::Saturated { pkt_bytes: 1500 }, Time::ZERO),
        )));
    }
    (sim, handles)
}

/// The mostly-idle workload: two slow CBR probes on a 4-station grid.
/// Nearly every step lands on an empty queue, so the analytic idle-skip
/// cache carries the run.
fn build_idle() -> (PlcSim, Vec<usize>) {
    let (g, outlets) = bus_grid(4);
    let cfg = SimConfig {
        seed: SEED ^ 0x1D7E,
        ..SimConfig::default()
    };
    let mut sim = PlcSim::new(cfg, &g, &outlets);
    let probe = |rate_bps: f64| TrafficPattern::Cbr {
        rate_bps,
        pkt_bytes: 150,
    };
    let handles = vec![
        sim.add_flow(Flow::unicast(
            0,
            2,
            TrafficSource::new(probe(12_000.0), Time::ZERO),
        )),
        sim.add_flow(Flow::unicast(
            3,
            1,
            TrafficSource::new(probe(9_600.0), Time::from_millis(7)),
        )),
    ];
    (sim, handles)
}

fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Digest every observable: delivered packets, per-packet frame counts,
/// drops, link BLE bits, PB counters and the clock.
fn digest(
    sim: &PlcSim,
    flows: &[(StationId, StationId)],
    handles: &[usize],
    delivered: &[CompletedPacket],
    tx_counts: &[u32],
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    mix(&mut h, sim.now().as_nanos());
    for p in delivered {
        mix(&mut h, p.seq);
        mix(&mut h, p.created.as_nanos());
        mix(&mut h, p.delivered.as_nanos());
    }
    for &c in tx_counts {
        mix(&mut h, c as u64);
    }
    for (&(a, b), &f) in flows.iter().zip(handles) {
        mix(&mut h, sim.dropped(f));
        mix(&mut h, sim.int6krate(a, b).to_bits());
        let (total, err) = sim.pb_counters(a, b);
        mix(&mut h, total);
        mix(&mut h, err);
    }
    h
}

/// Run one arm: warmup, optional estimator quiesce, then a timed window
/// stepped in chunks with delivered-packet drains into preallocated
/// buffers (so the optimized arm's steady state stays allocation-free
/// even while we collect its outputs).
#[allow(clippy::too_many_arguments)]
fn run_arm(
    build: fn() -> (PlcSim, Vec<usize>),
    flows: &[(StationId, StationId)],
    reference: bool,
    quiesce: bool,
    window: Duration,
    chunk: Duration,
) -> (Arm, simnet::obs::MetricsSnapshot) {
    let obs = Obs::new();
    let arm = obs::with_default(obs.clone(), || {
        let (mut sim, handles) = build();
        let warm_end = Time::ZERO + Duration::from_secs(WARMUP_SECS);
        let run = |sim: &mut PlcSim, end: Time| {
            if reference {
                sim.run_until_reference(end);
            } else {
                sim.run_until(end);
            }
        };
        run(&mut sim, warm_end);
        if quiesce {
            // Isolate the MAC scheduling loop: stop estimator observations
            // and freeze spectrum refreshes. Both costs are shared by the
            // two steppers and benchmarked on their own (`BENCH_channel`),
            // so leaving them running only dilutes the MAC comparison.
            sim.set_observe_min_gap(QUIESCE_GAP);
            sim.set_spectrum_refresh(QUIESCE_GAP);
        }
        // Materialize every (link, slot) spectrum-cache entry: the
        // first-ever collision between a pair would otherwise take the
        // cold entry-allocation path mid-window. Identical in both arms.
        sim.prewarm_spectra();
        // Reserve per-flow queues/buffers past their high-water marks so
        // delivery bursts cannot trigger regrowth inside the window.
        sim.reserve_flow_buffers(1 << 12);
        // Pre-size the collection buffers and flush warmup output so the
        // timed window starts clean.
        let mut delivered: Vec<CompletedPacket> = Vec::with_capacity(1 << 19);
        let mut tx_counts: Vec<u32> = Vec::with_capacity(1 << 19);
        for &f in &handles {
            sim.drain_delivered_into(f, &mut delivered);
            sim.drain_tx_counts_into(f, &mut tx_counts);
        }
        delivered.clear();
        tx_counts.clear();

        let m0 = obs.registry().snapshot();
        let end = warm_end + window;
        let a0 = ALLOC.snapshot();
        let t0 = std::time::Instant::now();
        let mut t = warm_end;
        while t < end {
            t = (t + chunk).min(end);
            run(&mut sim, t);
            for &f in &handles {
                sim.drain_delivered_into(f, &mut delivered);
                sim.drain_tx_counts_into(f, &mut tx_counts);
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let a1 = ALLOC.snapshot();
        let m1 = obs.registry().snapshot();

        let steps = m1.counter("plc.mac.steps") - m0.counter("plc.mac.steps");
        let allocs = a0.delta(&a1).events();
        let d = digest(&sim, flows, &handles, &delivered, &tx_counts);
        Arm {
            steps,
            wall_s,
            steps_per_sec: steps as f64 / wall_s.max(1e-9),
            digest: format!("{d:016x}"),
            allocs_in_window: allocs,
            allocs_per_step: allocs as f64 / (steps as f64).max(1.0),
            scratch_reuses: m1.counter("plc.mac.scratch_reuses")
                - m0.counter("plc.mac.scratch_reuses"),
            allocs_saved: m1.counter("plc.mac.allocs_saved") - m0.counter("plc.mac.allocs_saved"),
        }
    });
    (arm, obs.registry().snapshot())
}

/// Run one arm `reps` times and keep the fastest (the usual best-of-N
/// noise filter — the sim is deterministic, so every rep must produce the
/// same digest, which is asserted).
fn best_of(
    reps: usize,
    build: fn() -> (PlcSim, Vec<usize>),
    flows: &[(StationId, StationId)],
    reference: bool,
    quiesce: bool,
    window: Duration,
    chunk: Duration,
) -> (Arm, simnet::obs::MetricsSnapshot) {
    let mut best: Option<(Arm, simnet::obs::MetricsSnapshot)> = None;
    for _ in 0..reps.max(1) {
        let (arm, metrics) = run_arm(build, flows, reference, quiesce, window, chunk);
        if let Some((b, _)) = &best {
            assert_eq!(b.digest, arm.digest, "nondeterministic arm across reps");
            if arm.steps_per_sec <= b.steps_per_sec {
                continue;
            }
        }
        best = Some((arm, metrics));
    }
    best.expect("reps >= 1")
}

fn compare(
    build: fn() -> (PlcSim, Vec<usize>),
    flows: &[(StationId, StationId)],
    quiesce: bool,
    window: Duration,
    chunk: Duration,
    reps: usize,
) -> (Comparison, simnet::obs::MetricsSnapshot) {
    let (reference, _) = best_of(reps, build, flows, true, quiesce, window, chunk);
    let (optimized, metrics) = best_of(reps, build, flows, false, quiesce, window, chunk);
    let speedup = optimized.steps_per_sec / reference.steps_per_sec.max(1e-9);
    let digest_match = reference.digest == optimized.digest;
    (
        Comparison {
            window_sim_s: window.as_secs_f64(),
            estimator_quiesced: quiesce,
            reference,
            optimized,
            speedup,
            digest_match,
        },
        metrics,
    )
}

/// Measure the span hot-path cost: best-of-`reps` optimized quiesced
/// Fig. 16 arms, once with span collection off and once under a
/// stats-mode collector ([`span::scoped`]). Both arms must produce the
/// same digest — spans observe the simulation, they never steer it.
fn measure_span_overhead(
    flows: &[(StationId, StationId)],
    window: Duration,
    chunk: Duration,
    reps: usize,
) -> SpanOverhead {
    const TOP_SPANS: usize = 12;
    let (disabled, _) = best_of(reps, build_fig16, flows, false, true, window, chunk);
    let mut enabled: Option<(Arm, span::SpanReport)> = None;
    for _ in 0..reps.max(1) {
        let ((arm, _), report) = span::scoped(SpanConfig::stats(), || {
            run_arm(build_fig16, flows, false, true, window, chunk)
        });
        if let Some((b, _)) = &enabled {
            assert_eq!(b.digest, arm.digest, "nondeterministic arm across reps");
            if arm.steps_per_sec <= b.steps_per_sec {
                continue;
            }
        }
        enabled = Some((arm, report));
    }
    let (enabled, report) = enabled.expect("reps >= 1");
    SpanOverhead {
        window_sim_s: window.as_secs_f64(),
        disabled_steps_per_sec: disabled.steps_per_sec,
        enabled_steps_per_sec: enabled.steps_per_sec,
        ratio: enabled.steps_per_sec / disabled.steps_per_sec.max(1e-9),
        digest_match: disabled.digest == enabled.digest,
        spans: report.profile(TOP_SPANS),
    }
}

fn main() {
    let smoke = knobs::smoke_from_env();
    let secs: f64 = knobs::knob("ELECTRIFI_BENCH_SECS", if smoke { 2.0 } else { 16.0 });
    let reps: usize = knobs::knob("ELECTRIFI_BENCH_REPS", if smoke { 1 } else { 3 });
    let window = Duration::from_secs_f64(secs);

    let ring_flows: Vec<(StationId, StationId)> = (0..10u16).map(|i| (i, (i + 1) % 10)).collect();
    let idle_flows: Vec<(StationId, StationId)> = vec![(0, 2), (3, 1)];
    // Experiments step their sims in sample-sized increments; 10 ms
    // chunks reproduce that access pattern, so idle steps at chunk
    // boundaries exercise the arrival cache the way real callers do.
    let chunk = Duration::from_millis(10);

    eprintln!("bench_mac: fig16 probing workload (10 stations, 200 pkt/s), {secs} sim-s window (quiesced)...");
    let (mac_loop, _) = compare(build_fig16, &ring_flows, true, window, chunk, reps);
    eprintln!(
        "  reference {:>12.0} steps/s | optimized {:>12.0} steps/s | {:.2}x | {} allocs/window | digest match: {}",
        mac_loop.reference.steps_per_sec,
        mac_loop.optimized.steps_per_sec,
        mac_loop.speedup,
        mac_loop.optimized.allocs_in_window,
        mac_loop.digest_match,
    );

    eprintln!("bench_mac: saturated 10-station mesh (quiesced)...");
    let (saturated, _) = compare(build_saturated, &ring_flows, true, window, chunk, reps);
    eprintln!(
        "  reference {:>12.0} steps/s | optimized {:>12.0} steps/s | {:.2}x | {} allocs/window | digest match: {}",
        saturated.reference.steps_per_sec,
        saturated.optimized.steps_per_sec,
        saturated.speedup,
        saturated.optimized.allocs_in_window,
        saturated.digest_match,
    );

    eprintln!("bench_mac: fig16 workload, estimation on (full profile)...");
    let (full_profile, _) = compare(build_fig16, &ring_flows, false, window, chunk, reps);
    eprintln!(
        "  reference {:>12.0} steps/s | optimized {:>12.0} steps/s | {:.2}x | digest match: {}",
        full_profile.reference.steps_per_sec,
        full_profile.optimized.steps_per_sec,
        full_profile.speedup,
        full_profile.digest_match,
    );

    let idle_window = Duration::from_secs_f64(secs * 4.0);
    eprintln!(
        "bench_mac: mostly-idle probing workload, {} sim-s...",
        idle_window.as_secs_f64()
    );
    let (idle_cmp, idle_metrics) =
        compare(build_idle, &idle_flows, false, idle_window, chunk, reps);
    let idle_skips = idle_metrics.counter("plc.mac.idle_skips");
    let idle_rescans = idle_metrics.counter("plc.mac.idle_rescans");
    let idle = IdleReport {
        sim_s: idle_window.as_secs_f64(),
        idle_skips,
        idle_rescans,
        hit_rate: idle_skips as f64 / ((idle_skips + idle_rescans) as f64).max(1.0),
        speedup: idle_cmp.speedup,
        digest_match: idle_cmp.digest_match,
    };
    eprintln!(
        "  idle-skip hit rate {:.3} ({} skips / {} rescans) | {:.2}x | digest match: {}",
        idle.hit_rate, idle.idle_skips, idle.idle_rescans, idle.speedup, idle.digest_match,
    );

    eprintln!("bench_mac: span overhead on the fig16 quiesced workload...");
    let span_overhead = measure_span_overhead(&ring_flows, window, chunk, reps);
    eprintln!(
        "  disabled {:>12.0} steps/s | enabled {:>12.0} steps/s | ratio {:.3} | digest match: {}",
        span_overhead.disabled_steps_per_sec,
        span_overhead.enabled_steps_per_sec,
        span_overhead.ratio,
        span_overhead.digest_match,
    );

    let report = BenchReport {
        name: "bench_mac".to_string(),
        seed: SEED,
        smoke,
        reps,
        mac_loop,
        saturated,
        full_profile,
        idle,
        span_overhead: Some(span_overhead),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize") + "\n";
    std::fs::create_dir_all("out").expect("create out/");
    std::fs::write("out/BENCH_mac.json", &json).expect("write out/BENCH_mac.json");
    println!("{json}");
    eprintln!("wrote out/BENCH_mac.json");
    let absolute = std::env::var("PERF_GATE_ABSOLUTE").is_ok_and(|v| v == "1");
    gate(&report, load_baseline, absolute).finish("bench_mac", smoke);
}

/// The committed `BENCH_mac` baseline. It predates `span_overhead`, and
/// no gate reads a baseline span ratio.
fn load_baseline() -> Result<BenchReport, String> {
    knobs::load_baseline("mac")
}

/// Judge the report: the invariants in both modes, and in full mode
/// (the report's own `smoke` flag off) the timing gates against the
/// baseline, which is read only then. `absolute` turns the
/// absolute-throughput warning into a failure.
fn gate(
    rep: &BenchReport,
    baseline: impl FnOnce() -> Result<BenchReport, String>,
    absolute: bool,
) -> Gate {
    let mut g = Gate::default();
    let quiesced = [("mac_loop", &rep.mac_loop), ("saturated", &rep.saturated)];
    for (name, c) in quiesced
        .into_iter()
        .chain([("full_profile", &rep.full_profile)])
    {
        g.check(c.digest_match, || {
            format!("{name}: digest mismatch — optimized stepper diverged from the reference")
        });
    }
    g.check(rep.idle.digest_match, || {
        "idle: digest mismatch — idle-skip changed simulation outputs".into()
    });
    // The quiesced arms are the steady-state MAC loop: zero heap
    // allocations there. full_profile keeps the estimator running, whose
    // observation path may touch the heap, so it is not gated.
    for (name, c) in quiesced {
        let n = c.optimized.allocs_in_window;
        g.check(n == 0, || {
            format!("{name}: optimized window performed {n} heap allocation(s); expected zero")
        });
    }
    // Spans observe the simulation, they never steer it.
    let spans = rep.span_overhead.as_ref();
    g.check(spans.is_some(), || {
        "span_overhead: missing from the report".into()
    });
    g.check(spans.is_none_or(|s| s.digest_match), || {
        "span_overhead: digest mismatch — span tracing perturbed the simulation".into()
    });
    if rep.smoke {
        return g;
    }
    let Ok(base) = baseline().map_err(|e| g.failures.push(e)) else {
        return g;
    };
    g.refuse_smoke_baseline("mac", base.smoke);

    // Ratios of two same-host arms are self-normalizing; absolute
    // throughput is not, so it only warns (below).
    const FLOOR: f64 = 3.0;
    let sp = rep.mac_loop.speedup;
    g.check(sp >= FLOOR, || {
        format!("mac_loop: speedup {sp:.2}x below the {FLOOR:.1}x floor")
    });
    for ((name, c), b) in quiesced.into_iter().zip([&base.mac_loop, &base.saturated]) {
        let (cur, refv) = (c.speedup, b.speedup);
        g.check(cur >= TOL * refv, || {
            format!("{name}: speedup {cur:.2}x regressed >20% vs baseline {refv:.2}x")
        });
        g.note(format!("{name}: speedup {cur:.2}x (baseline {refv:.2}x)"));
    }
    let (cur, refv) = (rep.idle.hit_rate, base.idle.hit_rate);
    g.check(cur >= TOL * refv, || {
        format!("idle: skip hit rate {cur:.2} regressed >20% vs baseline {refv:.2}")
    });
    g.note(format!("idle: hit rate {cur:.2} (baseline {refv:.2})"));
    let fp = rep.full_profile.speedup;
    g.note(format!(
        "full_profile: speedup {fp:.2}x (reported, not gated)"
    ));

    // Stats-mode spans may cost at most 5% of the gated workload.
    const SPAN_BUDGET: f64 = 0.95;
    if let Some(ratio) = spans.map(|s| s.ratio) {
        g.check(ratio >= SPAN_BUDGET, || {
            format!("span_overhead: enabled/disabled ratio {ratio:.3} below the {SPAN_BUDGET:.2} budget (spans cost more than 5%)")
        });
        g.note(format!(
            "spans: enabled/disabled ratio {ratio:.3} (budget {SPAN_BUDGET:.2})"
        ));
    }

    let cur = rep.mac_loop.optimized.steps_per_sec;
    let refv = base.mac_loop.optimized.steps_per_sec;
    if cur < TOL * refv {
        let (cur, refv) = (grouped(cur), grouped(refv));
        let msg = format!("mac_loop: absolute {cur} steps/s is >20% below baseline {refv} steps/s");
        if absolute {
            g.failures.push(msg);
        } else {
            g.warnings
                .push(msg + " (warn-only; set PERF_GATE_ABSOLUTE=1 to gate)");
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::obs::span::RunProfile;

    /// A report equal to the committed baseline (the span section, which
    /// the baseline lacks, is a free span tracer) and the baseline.
    fn passing() -> (BenchReport, BenchReport) {
        let base = load_baseline().expect("committed baseline parses");
        let report = BenchReport {
            span_overhead: Some(SpanOverhead {
                window_sim_s: 16.0,
                disabled_steps_per_sec: 1e6,
                enabled_steps_per_sec: 1e6,
                ratio: 1.0,
                digest_match: true,
                spans: RunProfile { spans: Vec::new() },
            }),
            ..base.clone()
        };
        (report, base)
    }

    /// The span section of a report built by [`passing`].
    fn spans(r: &mut BenchReport) -> &mut SpanOverhead {
        r.span_overhead
            .as_mut()
            .expect("passing reports carry spans")
    }

    fn judge(rep: &BenchReport, base: BenchReport, absolute: bool) -> Gate {
        gate(rep, || Ok(base), absolute)
    }

    /// Exactly one failure, and it names `needle`.
    fn assert_fails(g: &Gate, needle: &str) {
        assert_eq!(g.failures.len(), 1, "{:?}", g.failures);
        assert!(g.failures[0].contains(needle), "{:?}", g.failures);
    }

    /// One test per gate check: mutate a passing report (or baseline)
    /// and expect exactly the named failure.
    macro_rules! gate_fails {
        ($($test:ident: |$r:ident, $base:ident| $mutate:block => $needle:literal;)*) => {$(
            #[test]
            fn $test() {
                let (mut $r, mut $base) = passing();
                $mutate
                assert_fails(&judge(&$r, $base, false), $needle);
            }
        )*};
    }

    gate_fails! {
        stepper_digest_mismatch_fails: |r, _base| { r.full_profile.digest_match = false; }
            => "full_profile: digest mismatch";
        idle_digest_mismatch_fails: |r, _base| { r.idle.digest_match = false; }
            => "idle: digest mismatch";
        optimized_window_allocation_fails: |r, _base| { r.saturated.optimized.allocs_in_window = 3; }
            => "saturated: optimized window performed 3 heap allocation(s)";
        span_digest_mismatch_fails: |r, _base| { spans(&mut r).digest_match = false; }
            => "span_overhead: digest mismatch";
        mac_loop_below_floor_fails: |r, _base| { r.mac_loop.speedup = 2.9; }
            => "mac_loop: speedup 2.90x below the 3.0x floor";
        speedup_regression_fails: |_r, base| { base.saturated.speedup *= 2.0; }
            => "saturated: speedup 2.61x regressed >20% vs baseline 5.22x";
        idle_hit_rate_regression_fails: |r, _base| { r.idle.hit_rate *= 0.7; }
            => "idle: skip hit rate";
        span_budget_fails: |r, _base| { spans(&mut r).ratio = 0.94; }
            => "span_overhead: enabled/disabled ratio 0.940 below the 0.95 budget";
        missing_spans_fail: |r, _base| { r.span_overhead = None; }
            => "span_overhead: missing from the report";
        smoke_mac_baseline_is_refused: |_r, base| { base.smoke = true; }
            => "BENCH_mac is a smoke run";
    }

    #[test]
    fn committed_baselines_parse() {
        // The baseline predates span_overhead; the gate never reads it.
        let base = load_baseline().expect("committed baseline parses");
        assert!(!base.smoke);
    }

    #[test]
    fn report_equal_to_its_baseline_passes_full_mode() {
        let (r, base) = passing();
        let g = judge(&r, base, false);
        assert!(g.failures.is_empty() && g.warnings.is_empty(), "{g:?}");
        assert_eq!(g.notes.len(), 5);
    }

    #[test]
    fn smoke_mode_skips_every_timing_gate() {
        let (mut r, _) = passing();
        r.smoke = true;
        for c in [&mut r.mac_loop, &mut r.saturated, &mut r.full_profile] {
            c.speedup = 0.0;
            c.optimized.steps_per_sec = 0.0;
        }
        r.idle.hit_rate = 0.0;
        spans(&mut r).ratio = 0.0;
        let g = gate(&r, || panic!("smoke mode must not read the baseline"), true);
        assert!(g.failures.is_empty() && g.notes.is_empty(), "{g:?}");
    }

    #[test]
    fn invariants_are_gated_in_smoke_mode() {
        let (mut r, _) = passing();
        r.smoke = true;
        r.mac_loop.digest_match = false;
        let g = gate(
            &r,
            || panic!("smoke mode must not read the baseline"),
            false,
        );
        assert_fails(&g, "mac_loop: digest mismatch");
    }

    #[test]
    fn absolute_throughput_warns_unless_opted_in() {
        let (mut r, base) = passing();
        r.mac_loop.optimized.steps_per_sec *= 0.7;
        let g = judge(&r, base.clone(), false);
        assert!(g.failures.is_empty(), "{g:?}");
        assert_eq!(g.warnings.len(), 1);
        assert!(g.warnings[0].contains("warn-only; set PERF_GATE_ABSOLUTE=1"));
        let g = judge(&r, base, true);
        assert!(g.warnings.is_empty());
        assert_fails(
            &g,
            "mac_loop: absolute 542,599 steps/s is >20% below baseline 775,141",
        );
    }
}
