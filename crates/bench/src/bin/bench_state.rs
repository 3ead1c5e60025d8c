//! Snapshot performance smoke bench.
//!
//! Sizes and times the `electrifi-state` persistence layer on the
//! Fig. 16-shaped probing workload (10-station ring, 200 pkt/s CBR
//! probes) after a multi-second warmup, and writes
//! `out/BENCH_state.json`: encoded snapshot size, save and load
//! throughput, and a re-encode identity check — so checkpointing
//! overhead is tracked alongside the figure manifests.
//!
//! Environment:
//! * `ELECTRIFI_BENCH_ITERS` — save/load repetitions (default 50).

use electrifi_state::{SnapshotReader, SnapshotWriter};
use plc_mac::sim::{Flow, PlcSim, SimConfig, StationId};
use serde::Serialize;
use simnet::appliance::ApplianceKind;
use simnet::grid::Grid;
use simnet::schedule::Schedule;
use simnet::time::Time;
use simnet::traffic::{TrafficPattern, TrafficSource};

const SEED: u64 = 0xBE9C;
const WARMUP_SECS: u64 = 4;

/// What `out/BENCH_state.json` records.
#[derive(Debug, Serialize)]
struct StateBenchReport {
    seed: u64,
    stations: usize,
    flows: usize,
    warmup_sim_s: u64,
    iters: u64,
    /// Encoded snapshot size after warmup, bytes.
    snapshot_bytes: u64,
    /// Full save (encode + frame + checksum) throughput.
    saves_per_sec: f64,
    save_mb_per_sec: f64,
    /// Full load (parse + verify + rebuild caches) throughput.
    loads_per_sec: f64,
    load_mb_per_sec: f64,
    /// decode(encode(sim)) re-encodes to the identical bytes.
    reencode_identical: bool,
}

/// The Fig. 16 probing workload from the MAC perf harness.
fn build_fig16() -> PlcSim {
    let mut g = Grid::new();
    let mut junctions = Vec::new();
    for j in 0..5usize {
        junctions.push(g.add_junction(format!("j{j}")));
        if j > 0 {
            g.connect(junctions[j - 1], junctions[j], 9.0 + j as f64);
        }
    }
    let mut outlets: Vec<(StationId, simnet::grid::NodeId)> = Vec::new();
    for i in 0..10u16 {
        let o = g.add_outlet(format!("s{i}"));
        g.connect(junctions[i as usize % 5], o, 2.0 + i as f64);
        outlets.push((i, o));
    }
    let oa = g.add_outlet("pc");
    g.connect(junctions[0], oa, 2.0);
    g.attach(oa, ApplianceKind::DesktopPc, Schedule::AlwaysOn);

    let cfg = SimConfig {
        seed: SEED,
        ..SimConfig::default()
    };
    let mut sim = PlcSim::new(cfg, &g, &outlets);
    for i in 0..10u16 {
        sim.add_flow(Flow::unicast(
            i,
            (i + 1) % 10,
            TrafficSource::new(
                TrafficPattern::Cbr {
                    rate_bps: 200.0 * 1300.0 * 8.0,
                    pkt_bytes: 1300,
                },
                Time::from_millis(i as u64),
            ),
        ));
    }
    sim
}

fn encode(sim: &PlcSim) -> Vec<u8> {
    let mut snap = SnapshotWriter::new();
    snap.save("mac.sim", sim);
    snap.to_bytes()
}

fn main() {
    let iters: u64 = electrifi_bench::gate::knob("ELECTRIFI_BENCH_ITERS", 50);

    let mut sim = build_fig16();
    sim.run_until(Time::from_secs(WARMUP_SECS));
    let bytes = encode(&sim);
    let mb = bytes.len() as f64 / 1e6;

    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(encode(&sim));
    }
    let save_s = t0.elapsed().as_secs_f64();

    let mut target = build_fig16();
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        SnapshotReader::from_bytes(&bytes)
            .expect("valid snapshot")
            .load("mac.sim", &mut target)
            .expect("loadable snapshot");
        std::hint::black_box(&target);
    }
    let load_s = t0.elapsed().as_secs_f64();

    let reencode_identical = encode(&target) == bytes;

    let report = StateBenchReport {
        seed: SEED,
        stations: 10,
        flows: 10,
        warmup_sim_s: WARMUP_SECS,
        iters,
        snapshot_bytes: bytes.len() as u64,
        saves_per_sec: iters as f64 / save_s.max(1e-12),
        save_mb_per_sec: iters as f64 * mb / save_s.max(1e-12),
        loads_per_sec: iters as f64 / load_s.max(1e-12),
        load_mb_per_sec: iters as f64 * mb / load_s.max(1e-12),
        reencode_identical,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    let _ = std::fs::create_dir_all("out");
    std::fs::write("out/BENCH_state.json", &json).expect("write out/BENCH_state.json");
    println!("{json}");
    assert!(
        report.reencode_identical,
        "loaded snapshot re-encoded to different bytes"
    );
}
