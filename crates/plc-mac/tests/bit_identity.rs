//! Differential bit-identity suite: the optimized hot loop
//! ([`PlcSim::run_until`]) must produce **byte-identical** observables to
//! the retained reference stepper
//! ([`PlcSim::run_until_reference`](plc_mac::sim::PlcSim)) on every
//! workload shape the paper's figures use — same seed, same RNG draw
//! sequence, same `f64` bit patterns.
//!
//! The golden tests pin the figure-shaped workloads (Fig. 9 sniffer
//! captures, Fig. 16 / Table 3 saturated meshes, Fig. 21 broadcast,
//! Fig. 22 retransmission counts, finite-source and ablation variants); the
//! proptest sweeps topology size, traffic mix, seed, queue capacity and
//! ablation flags. Everything funnels into one FNV-style digest over the
//! raw bits of every observable, so any divergence — a reordered RNG
//! draw, an off-by-one symbol count, a drifted estimate — flips the hash.

use plc_mac::sim::{Flow, PlcSim, SimConfig, StationId};
use proptest::prelude::*;
use simnet::appliance::ApplianceKind;
use simnet::grid::Grid;
use simnet::schedule::Schedule;
use simnet::time::{Duration, Time};
use simnet::traffic::{TrafficPattern, TrafficSource};

/// One flow of a scenario, kept around so the digest can query the
/// link-level estimator state for exactly this (src, dst) pair.
#[derive(Clone, Debug)]
struct FlowSpec {
    src: StationId,
    /// `None` = broadcast.
    dst: Option<StationId>,
    pattern: TrafficPattern,
    start_ms: u64,
}

#[derive(Clone, Debug)]
struct Scenario {
    n_stations: u16,
    flows: Vec<FlowSpec>,
    cfg: SimConfig,
    run_ms: u64,
}

/// Bus-topology grid: stations hang off a junction chain, with a couple
/// of appliances for channel texture (mirrors the sim's unit fixture and
/// the procedural grids the figure experiments use).
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

fn build(scn: &Scenario) -> (PlcSim, Vec<usize>) {
    let (g, outlets) = bus_grid(scn.n_stations);
    let mut sim = PlcSim::new(scn.cfg.clone(), &g, &outlets);
    let mut handles = Vec::new();
    for fs in &scn.flows {
        let source = TrafficSource::new(fs.pattern, Time::from_millis(fs.start_ms));
        let flow = match fs.dst {
            Some(d) => Flow::unicast(fs.src, d, source),
            None => Flow::broadcast(fs.src, source),
        };
        handles.push(sim.add_flow(flow));
    }
    (sim, handles)
}

fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Fold every observable of a finished simulation into one digest:
/// delivered packet identities and timestamps, per-packet frame counts,
/// queue drops, broadcast per-receiver counters, cumulative PB counters,
/// the bit patterns of the advertised BLE on every flow's link, every
/// sniffer capture, and the simulation clock itself.
fn digest(sim: &mut PlcSim, scn: &Scenario, handles: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    mix(&mut h, sim.now().as_nanos());
    for (fs, &f) in scn.flows.iter().zip(handles) {
        for p in sim.take_delivered(f) {
            mix(&mut h, p.seq);
            mix(&mut h, p.created.as_nanos());
            mix(&mut h, p.delivered.as_nanos());
        }
        for c in sim.take_tx_counts(f) {
            mix(&mut h, c as u64);
        }
        mix(&mut h, sim.dropped(f));
        match fs.dst {
            Some(d) => {
                mix(&mut h, sim.int6krate(fs.src, d).to_bits());
                let (total, err) = sim.pb_counters(fs.src, d);
                mix(&mut h, total);
                mix(&mut h, err);
            }
            None => {
                let mut rows: Vec<(StationId, u64, u64)> = sim
                    .broadcast_stats(f)
                    .iter()
                    .map(|(&r, &(ok, lost))| (r, ok, lost))
                    .collect();
                rows.sort_unstable();
                for (r, ok, lost) in rows {
                    mix(&mut h, r as u64);
                    mix(&mut h, ok);
                    mix(&mut h, lost);
                }
            }
        }
    }
    for rec in sim.sniffer_records() {
        mix(&mut h, rec.t.as_nanos());
        mix(&mut h, rec.sof.src as u64);
        mix(&mut h, rec.sof.dst as u64);
        mix(&mut h, rec.sof.ble_mbps.to_bits());
        mix(&mut h, rec.sof.tonemap_id as u64);
        mix(&mut h, rec.sof.slot as u64);
        mix(&mut h, rec.sof.n_symbols);
    }
    h
}

/// Run a scenario through both steppers and assert digest equality.
fn assert_bit_identical(scn: Scenario) {
    let end = Time::from_millis(scn.run_ms);
    let (mut opt, h1) = build(&scn);
    opt.run_until(end);
    let d_opt = digest(&mut opt, &scn, &h1);

    let (mut refr, h2) = build(&scn);
    refr.run_until_reference(end);
    let d_ref = digest(&mut refr, &scn, &h2);

    assert_eq!(
        d_opt, d_ref,
        "optimized and reference steppers diverged on {scn:?}"
    );
}

/// A fine-grained-stepping variant: both sims are advanced in small
/// `run_until` chunks — the pattern the temporal experiments use, and
/// the one that exercises the idle-skip cache hardest, since every
/// chunk boundary on an idle medium re-consults the cached minimum
/// next-arrival without an intervening enqueue.
fn assert_bit_identical_chunked(scn: Scenario, chunk_us: u64) {
    let end = Time::from_millis(scn.run_ms);
    let (mut opt, h1) = build(&scn);
    let mut t = Time::ZERO;
    while t < end {
        t = (t + Duration::from_micros(chunk_us)).min(end);
        opt.run_until(t);
    }
    let d_opt = digest(&mut opt, &scn, &h1);

    let (mut refr, h2) = build(&scn);
    let mut t = Time::ZERO;
    while t < end {
        t = (t + Duration::from_micros(chunk_us)).min(end);
        refr.run_until_reference(t);
    }
    let d_ref = digest(&mut refr, &scn, &h2);

    assert_eq!(d_opt, d_ref, "chunked stepping diverged on {scn:?}");
}

fn saturated() -> TrafficPattern {
    TrafficPattern::Saturated { pkt_bytes: 1500 }
}

fn probe() -> TrafficPattern {
    TrafficPattern::Cbr {
        rate_bps: 150_000.0,
        pkt_bytes: 1500,
    }
}

// ----- Golden figure-shaped workloads -----

/// Fig. 9: one saturated pair, sniffer on — SoF captures must match to
/// the bit (timestamps, BLE floats, symbol counts).
#[test]
fn golden_fig9_sniffed_saturated_pair() {
    assert_bit_identical(Scenario {
        n_stations: 4,
        flows: vec![FlowSpec {
            src: 0,
            dst: Some(2),
            pattern: saturated(),
            start_ms: 0,
        }],
        cfg: SimConfig {
            sniffer: true,
            ..SimConfig::default()
        },
        run_ms: 800,
    });
}

/// Fig. 16 / Table 3: a saturated many-station mesh — the workload the
/// perf gate benchmarks, so its bit-identity matters most.
#[test]
fn golden_fig16_saturated_mesh() {
    let flows = (0..10u16)
        .map(|i| FlowSpec {
            src: i,
            dst: Some((i + 1) % 10),
            pattern: saturated(),
            start_ms: 0,
        })
        .collect();
    assert_bit_identical(Scenario {
        n_stations: 10,
        flows,
        cfg: SimConfig::default(),
        run_ms: 400,
    });
}

/// Fig. 22-style: slow probes (retransmission counting) with a
/// saturated interferer, chunk-stepped to hammer the idle-skip cache.
#[test]
fn golden_fig22_probes_with_background() {
    let scn = Scenario {
        n_stations: 5,
        flows: vec![
            FlowSpec {
                src: 0,
                dst: Some(4),
                pattern: probe(),
                start_ms: 0,
            },
            FlowSpec {
                src: 1,
                dst: Some(3),
                pattern: TrafficPattern::Bursts {
                    rate_bps: 2_000_000.0,
                    pkt_bytes: 1500,
                    burst_len: 8,
                },
                start_ms: 20,
            },
        ],
        cfg: SimConfig::default(),
        run_ms: 1_500,
    };
    assert_bit_identical_chunked(scn, 700);
}

/// Fig. 21-style: broadcast probes to all stations.
#[test]
fn golden_fig21_broadcast_probes() {
    assert_bit_identical(Scenario {
        n_stations: 6,
        flows: vec![FlowSpec {
            src: 2,
            dst: None,
            pattern: TrafficPattern::Cbr {
                rate_bps: 120_000.0,
                pkt_bytes: 1500,
            },
            start_ms: 0,
        }],
        cfg: SimConfig::default(),
        run_ms: 2_000,
    });
}

/// File transfer (finite source) + a probe from another station:
/// exercises the source-exhaustion path of the arrival cache and flow
/// completion.
#[test]
fn golden_file_transfer_with_probe() {
    assert_bit_identical(Scenario {
        n_stations: 4,
        flows: vec![
            FlowSpec {
                src: 0,
                dst: Some(3),
                pattern: TrafficPattern::FileTransfer {
                    total_bytes: 2_000_000,
                    pkt_bytes: 1500,
                },
                start_ms: 0,
            },
            FlowSpec {
                src: 1,
                dst: Some(2),
                pattern: probe(),
                start_ms: 5,
            },
        ],
        cfg: SimConfig::default(),
        run_ms: 1_000,
    });
}

/// Pathological queue cap: a saturated source that can never enqueue a
/// whole packet. The arrival cache must stay disabled (now-dependent
/// source with an empty queue) without behavioural drift.
#[test]
fn golden_tiny_queue_cap() {
    assert_bit_identical_chunked(
        Scenario {
            n_stations: 4,
            flows: vec![FlowSpec {
                src: 0,
                dst: Some(2),
                pattern: saturated(),
                start_ms: 0,
            }],
            cfg: SimConfig {
                queue_cap_pbs: 1,
                ..SimConfig::default()
            },
            run_ms: 200,
        },
        500,
    );
}

/// The 802.11-style ablation (no deferral counter) with collisions and
/// capture: stresses the pooled-frame collision path.
#[test]
fn golden_deferral_ablation_collisions() {
    let flows = (0..4u16)
        .map(|i| FlowSpec {
            src: i,
            dst: Some((i + 2) % 4),
            pattern: saturated(),
            start_ms: 0,
        })
        .collect();
    assert_bit_identical(Scenario {
        n_stations: 4,
        flows,
        cfg: SimConfig {
            disable_deferral: true,
            sniffer: true,
            ..SimConfig::default()
        },
        run_ms: 500,
    });
}

// ----- Property-based sweep -----

/// Raw per-flow draw: ((src, dst), (pattern kind, pattern parameter),
/// is-broadcast, start ms). Decoded by [`decode_flow`].
type RawFlow = ((u16, u16), (u8, u64), bool, u64);

fn decode_flow(n_stations: u16, raw: RawFlow) -> FlowSpec {
    let ((src_raw, dst_raw), (kind, param), bcast, start_ms) = raw;
    let src = src_raw % n_stations;
    let dst_candidate = dst_raw % n_stations;
    let dst = if bcast {
        None
    } else if dst_candidate == src {
        Some((src + 1) % n_stations)
    } else {
        Some(dst_candidate)
    };
    let pattern = match kind % 4 {
        0 => TrafficPattern::Saturated { pkt_bytes: 1500 },
        1 => TrafficPattern::Cbr {
            rate_bps: 50_000.0 + (param % 1000) as f64 * 2_000.0,
            pkt_bytes: 1500,
        },
        2 => TrafficPattern::Bursts {
            rate_bps: 100_000.0 + (param % 1000) as f64 * 3_000.0,
            pkt_bytes: 1500,
            burst_len: 2 + (param % 8) as u32,
        },
        _ => TrafficPattern::FileTransfer {
            total_bytes: 100_000 + param % 3_000_000,
            pkt_bytes: 1500,
        },
    };
    FlowSpec {
        src,
        dst,
        pattern,
        start_ms,
    }
}

#[allow(clippy::too_many_arguments)]
fn decode_scenario(
    n_stations: u16,
    raw_flows: Vec<RawFlow>,
    seed: u64,
    sniffer: bool,
    disable_deferral: bool,
    cap_sel: u8,
    run_ms: u64,
) -> Scenario {
    let flows = raw_flows
        .into_iter()
        .map(|r| decode_flow(n_stations, r))
        .collect();
    Scenario {
        n_stations,
        flows,
        cfg: SimConfig {
            seed,
            sniffer,
            disable_deferral,
            queue_cap_pbs: [2usize, 64, 512][cap_sel as usize % 3],
            ..SimConfig::default()
        },
        run_ms,
    }
}

proptest! {
    /// Any topology/traffic/seed/ablation combination produces identical
    /// digests from the optimized and reference steppers.
    #[test]
    fn prop_optimized_matches_reference(
        n_stations in 3u16..7,
        raw_flows in collection::vec(
            ((0u16..6, 0u16..6), (0u8..4, any::<u64>()), any::<bool>(), 0u64..50),
            1..4,
        ),
        (seed, sniffer, disable_deferral) in (any::<u64>(), any::<bool>(), any::<bool>()),
        (cap_sel, run_ms) in (0u8..3, 60u64..200),
    ) {
        assert_bit_identical(decode_scenario(
            n_stations, raw_flows, seed, sniffer, disable_deferral, cap_sel, run_ms,
        ));
    }

    /// Chunked fine-grained stepping (idle-skip heavy) matches too: the
    /// optimized path consults the arrival cache at every chunk boundary.
    #[test]
    fn prop_chunked_stepping_matches(
        n_stations in 3u16..7,
        raw_flows in collection::vec(
            ((0u16..6, 0u16..6), (0u8..4, any::<u64>()), any::<bool>(), 0u64..50),
            1..3,
        ),
        (seed, sniffer, disable_deferral) in (any::<u64>(), any::<bool>(), any::<bool>()),
        (cap_sel, run_ms, chunk_us) in (0u8..3, 60u64..150, 200u64..2_000),
    ) {
        let scn = decode_scenario(
            n_stations, raw_flows, seed, sniffer, disable_deferral, cap_sel, run_ms,
        );
        assert_bit_identical_chunked(scn, chunk_us);
    }
}
