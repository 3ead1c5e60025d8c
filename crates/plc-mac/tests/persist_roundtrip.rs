//! Property suite for the `electrifi-state` persistence layer.
//!
//! Three families, all over randomized MAC scenarios (the same
//! topology/traffic/seed space as `bit_identity.rs`):
//!
//! * **canonical encoding** — encode → decode → encode is byte-identical
//!   for [`PlcSim`], [`EventQueue`] and raw RNG streams, so a snapshot
//!   of a snapshot can never drift;
//! * **bit-identical resume** — a sim snapshotted mid-run, loaded into a
//!   freshly built sim and run to the end produces exactly the digest
//!   and the structured event stream of the uninterrupted run (same RNG
//!   draws, same `f64` bit patterns, same events in the same order);
//! * **malformed-input fuzz** — any single-byte flip or truncation of a
//!   valid snapshot either fails with a typed [`StateError`] (never a
//!   panic) or — for the one benign flip, a version downgrade in the
//!   header — still decodes to a state that re-encodes identically.

use electrifi_state::{PersistValue, SectionReader, SectionWriter, SnapshotReader, SnapshotWriter};
use plc_mac::sim::{Flow, PlcSim, SimConfig, StationId};
use proptest::collection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simnet::appliance::ApplianceKind;
use simnet::event::EventQueue;
use simnet::grid::{Grid, NodeId};
use simnet::obs::{Obs, ObsEvent, ObsSink};
use simnet::schedule::Schedule;
use simnet::time::Time;
use simnet::traffic::{TrafficPattern, TrafficSource};
use std::cell::RefCell;
use std::rc::Rc;

type Topology = (Grid, Vec<(StationId, NodeId)>);

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
    /// Snapshot point, as a fraction of `run_ms` in (0, 1).
    cut_frac: f64,
    /// Wiring for `n_stations` stations.
    grid: fn(u16) -> Topology,
}

fn bus_grid(n: u16) -> Topology {
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
    (g, outlets)
}

/// Two junctions 12 m apart, stations alternating between them.
fn two_junction_grid(n: u16) -> Topology {
    let mut g = Grid::new();
    let j = [g.add_junction("j0"), g.add_junction("j1")];
    g.connect(j[0], j[1], 12.0);
    let mut outlets = Vec::new();
    for i in 0..n {
        let o = g.add_outlet(format!("s{i}"));
        g.connect(j[i as usize % 2], o, 2.0 + i as f64);
        outlets.push((i, o));
    }
    let oa = g.add_outlet("pc");
    g.connect(j[0], oa, 2.0);
    g.attach(oa, ApplianceKind::DesktopPc, Schedule::AlwaysOn);
    (g, outlets)
}

/// The sim, its flow handles and a sink collecting every event.
fn build(scn: &Scenario) -> (PlcSim, Vec<usize>, Rc<RefCell<VecSink>>) {
    let (g, outlets) = (scn.grid)(scn.n_stations);
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
    let sink = Rc::new(RefCell::new(VecSink::default()));
    sim.attach_obs(Obs::with_sink_handle(sink.clone()));
    (sim, handles, sink)
}

fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Observable digest, mirroring `bit_identity.rs`: delivered packets,
/// retransmission counts, drops, link estimates, PB counters, broadcast
/// stats, sniffer captures and the clock.
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

/// Keeps every event, in emission order.
#[derive(Default)]
struct VecSink(Vec<ObsEvent>);

impl ObsSink for VecSink {
    fn record(&mut self, ev: &ObsEvent) {
        self.0.push(ev.clone());
    }
}

/// Run `scn` straight to its end, and again to its cut, through a
/// snapshot into a freshly built sim and on to the end. Returns the
/// straight and the resumed digest, and the straight event stream and
/// the first leg's events followed by the resumed sim's.
fn straight_and_resumed(scn: &Scenario) -> ([u64; 2], [Vec<ObsEvent>; 2]) {
    let end = Time::from_millis(scn.run_ms);
    let cut = Time::from_millis((scn.run_ms as f64 * scn.cut_frac) as u64);

    let (mut straight, h1, straight_events) = build(scn);
    straight.run_until(end);
    let want = digest(&mut straight, scn, &h1);

    let (mut first_leg, _h, events) = build(scn);
    first_leg.run_until(cut);
    let bytes = encode(&first_leg);
    drop(first_leg);

    let (mut resumed, h2, resumed_events) = build(scn);
    load_into(&bytes, &mut resumed).expect("snapshot loads");
    resumed.run_until(end);
    let got = digest(&mut resumed, scn, &h2);
    let mut events = events.take().0;
    events.append(&mut resumed_events.take().0);
    ([want, got], [straight_events.take().0, events])
}

fn encode(sim: &PlcSim) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.save("mac.sim", sim);
    w.to_bytes()
}

fn load_into(bytes: &[u8], sim: &mut PlcSim) -> Result<(), electrifi_state::StateError> {
    SnapshotReader::from_bytes(bytes)?.load("mac.sim", sim)
}

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

fn decode_scenario(
    n_stations: u16,
    raw_flows: Vec<RawFlow>,
    seed: u64,
    sniffer: bool,
    run_ms: u64,
    cut_frac: f64,
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
            ..SimConfig::default()
        },
        run_ms,
        cut_frac,
        grid: bus_grid,
    }
}

const SCN_FLOWS: std::ops::Range<usize> = 1..3;

proptest! {
    /// encode → decode → encode is byte-identical for mid-run MAC state.
    #[test]
    fn prop_plcsim_reencode_is_byte_identical(
        n_stations in 3u16..6,
        raw_flows in collection::vec(
            ((0u16..6, 0u16..6), (0u8..4, any::<u64>()), any::<bool>(), 0u64..40),
            SCN_FLOWS,
        ),
        (seed, sniffer) in (any::<u64>(), any::<bool>()),
        (run_ms, cut_frac) in (60u64..140, 0.15f64..0.85),
    ) {
        let scn = decode_scenario(n_stations, raw_flows, seed, sniffer, run_ms, cut_frac);
        let (mut sim, _h, _) = build(&scn);
        sim.run_until(Time::from_millis((scn.run_ms as f64 * scn.cut_frac) as u64));
        let first = encode(&sim);

        let (mut loaded, _h2, _) = build(&scn);
        load_into(&first, &mut loaded).expect("own snapshot loads");
        prop_assert_eq!(encode(&loaded), first);
    }

    /// A resumed sim finishes with exactly the uninterrupted digest and
    /// event stream.
    #[test]
    fn prop_resumed_sim_is_bit_identical(
        n_stations in 3u16..6,
        raw_flows in collection::vec(
            ((0u16..6, 0u16..6), (0u8..4, any::<u64>()), any::<bool>(), 0u64..40),
            SCN_FLOWS,
        ),
        (seed, sniffer) in (any::<u64>(), any::<bool>()),
        (run_ms, cut_frac) in (60u64..140, 0.15f64..0.85),
    ) {
        let scn = decode_scenario(n_stations, raw_flows, seed, sniffer, run_ms, cut_frac);
        let ([want, got], [straight, resumed]) = straight_and_resumed(&scn);
        prop_assert_eq!(got, want);
        prop_assert!(resumed == straight, "the resumed event stream diverges");
    }
}

proptest! {
    /// Single-byte corruption of a snapshot never panics: it either
    /// yields a typed `StateError`, or — when the flip lands on the
    /// format-version header byte as a downgrade — decodes to a state
    /// that re-encodes byte-identically.
    #[test]
    fn prop_flipped_byte_never_panics(
        seed in any::<u64>(),
        pos_raw in any::<u64>(),
        bit in 0u8..8,
    ) {
        let scn = tiny_scenario(seed);
        let (mut sim, _h, _) = build(&scn);
        sim.run_until(Time::from_millis(40));
        let mut bytes = encode(&sim);
        let pos = (pos_raw % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;

        let (mut target, _h2, _) = build(&scn);
        if load_into(&bytes, &mut target).is_ok() {
            bytes[pos] ^= 1 << bit; // restore: only benign header flips land here
            prop_assert_eq!(encode(&target), bytes);
        }
    }

    /// Truncation at any strict prefix is a typed error, never a panic.
    #[test]
    fn prop_truncation_never_panics(
        seed in any::<u64>(),
        len_raw in any::<u64>(),
    ) {
        let scn = tiny_scenario(seed);
        let (mut sim, _h, _) = build(&scn);
        sim.run_until(Time::from_millis(40));
        let bytes = encode(&sim);
        let keep = (len_raw % bytes.len() as u64) as usize;

        let (mut target, _h2, _) = build(&scn);
        prop_assert!(load_into(&bytes[..keep], &mut target).is_err());
    }

    /// RNG streams are canonical: state() → encode → decode → resume
    /// draws the same sequence as the original generator.
    #[test]
    fn prop_rng_roundtrip_resumes_the_stream(seed in any::<u64>(), draws in 0usize..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..draws {
            let _: u64 = rng.random();
        }
        let mut w = SectionWriter::new();
        rng.encode(&mut w);
        let first = w.bytes().to_vec();

        let mut r = SectionReader::new("rng", w.bytes());
        let mut restored = StdRng::decode(&mut r).expect("rng decodes");
        r.finish().expect("nothing trails");

        let mut w2 = SectionWriter::new();
        restored.encode(&mut w2);
        prop_assert_eq!(w2.bytes(), &first[..]);
        let a: [u64; 4] = core::array::from_fn(|_| rng.random());
        let b: [u64; 4] = core::array::from_fn(|_| restored.random());
        prop_assert_eq!(a, b);
    }

    /// Event queues round-trip canonically, preserving FIFO tie-break
    /// order among same-timestamp events.
    #[test]
    fn prop_event_queue_roundtrip_is_canonical(
        events in collection::vec((0u64..2_000, any::<u64>()), 0..48),
        pops in 0usize..16,
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        for &(at_us, payload) in &events {
            q.schedule(Time::from_micros(at_us), payload);
        }
        for _ in 0..pops.min(events.len()) {
            q.pop();
        }

        let mut snap = SnapshotWriter::new();
        snap.save("queue", &q);
        let first = snap.to_bytes();

        let mut restored: EventQueue<u64> = EventQueue::new();
        SnapshotReader::from_bytes(&first)
            .expect("valid snapshot")
            .load("queue", &mut restored)
            .expect("queue loads");
        let mut snap2 = SnapshotWriter::new();
        snap2.save("queue", &restored);
        prop_assert_eq!(snap2.to_bytes(), first);

        // Drain both: identical (time, payload) sequences.
        while let (Some(a), Some(b)) = (q.pop(), restored.pop()) {
            prop_assert_eq!((a.at, a.event), (b.at, b.event));
        }
        prop_assert!(q.is_empty() && restored.is_empty());
    }
}

/// Small fixed-shape scenario for the fuzz properties (the corruption
/// space, not the workload space, is what varies).
fn tiny_scenario(seed: u64) -> Scenario {
    Scenario {
        n_stations: 4,
        flows: vec![
            FlowSpec {
                src: 0,
                dst: Some(2),
                pattern: TrafficPattern::Saturated { pkt_bytes: 1500 },
                start_ms: 0,
            },
            FlowSpec {
                src: 1,
                dst: None,
                pattern: TrafficPattern::Cbr {
                    rate_bps: 150_000.0,
                    pkt_bytes: 1500,
                },
                start_ms: 3,
            },
        ],
        cfg: SimConfig {
            seed,
            sniffer: true,
            ..SimConfig::default()
        },
        run_ms: 40,
        cut_frac: 0.5,
        grid: bus_grid,
    }
}

/// A 6-station ring of 200 pkt/s CBR flows on two junctions, cut at
/// 2 s of 4 s: contended enough that the resumed window holds
/// collisions, so the event check compares a real stream.
#[test]
fn resumed_ring_emits_the_uninterrupted_event_stream() {
    let flows = (0..6)
        .map(|i| FlowSpec {
            src: i,
            dst: Some((i + 1) % 6),
            pattern: TrafficPattern::Cbr {
                rate_bps: 200.0 * 1300.0 * 8.0,
                pkt_bytes: 1300,
            },
            start_ms: i as u64,
        })
        .collect();
    let scn = Scenario {
        n_stations: 6,
        flows,
        cfg: SimConfig {
            seed: 0xEF1,
            ..SimConfig::default()
        },
        run_ms: 4000,
        cut_frac: 0.5,
        grid: two_junction_grid,
    };
    let ([want, got], [straight, resumed]) = straight_and_resumed(&scn);
    assert_eq!(got, want);
    assert!(resumed == straight, "the resumed event stream diverges");
    let collisions = resumed
        .iter()
        .filter(|e| e.t > Time::from_secs(2) && e.kind == "collision")
        .count();
    assert!(collisions > 0, "no collision after the cut");
}
