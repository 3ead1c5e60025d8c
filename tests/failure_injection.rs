//! Failure-injection scenarios: the system must degrade and recover the
//! way the measured devices do.

use electrifi::experiments::PAPER_SEED;
use electrifi::{LinkProbeSim, PaperEnv};
use plc_mac::sim::{Flow, PlcSim, SimConfig};
use plc_phy::channel::PlcChannel;
use plc_phy::estimation::EstimatorConfig;
use plc_phy::PlcTechnology;
use simnet::appliance::ApplianceKind;
use simnet::grid::Grid;
use simnet::schedule::Schedule;
use simnet::time::{Duration, Time};
use simnet::traffic::TrafficSource;

/// A device reset in the middle of saturated traffic: throughput
/// collapses to ROBO and re-converges, exactly like the paper's Fig. 16
/// reset experiments.
#[test]
fn device_reset_mid_traffic_recovers() {
    let env = PaperEnv::new(PAPER_SEED);
    let outlets = [
        (1u16, env.testbed.station(1).outlet),
        (2u16, env.testbed.station(2).outlet),
    ];
    let mut sim = PlcSim::new(SimConfig::default(), &env.testbed.grid, &outlets);
    let _f = sim.add_flow(Flow::unicast(1, 2, TrafficSource::iperf_saturated()));
    sim.run_until(Time::from_secs(5));
    let before = sim.int6krate(1, 2);
    assert!(before > 30.0, "pre-reset BLE={before}");
    sim.reset_device(2);
    let dropped = sim.int6krate(1, 2);
    assert!(dropped < 10.0, "reset must drop to ROBO: {dropped}");
    // Traffic keeps flowing; the estimator re-converges.
    sim.run_until(Time::from_secs(12));
    let after = sim.int6krate(1, 2);
    assert!(
        after > 0.7 * before,
        "post-reset BLE={after} vs pre-reset {before}"
    );
}

/// An "appliance storm": a microwave next to the receiver switches on
/// mid-run. The tone maps must degrade (lower BLE) rather than keep
/// reporting stale capacity.
#[test]
fn appliance_storm_degrades_tone_maps() {
    // Custom grid: A --70m-- B with a microwave 2 m from B on a
    // 60 s on / 60 s off duty cycle. The length puts the link's SNR near
    // the top modulation boundaries, where an 11 dB noise hit must cost
    // real bit loading (a short link would absorb it inside its margin).
    let mut g = Grid::new();
    let a = g.add_outlet("A");
    let b = g.add_outlet("B");
    g.connect(a, b, 70.0);
    let hb = g.add_outlet("microwave");
    g.connect(b, hb, 2.0);
    g.attach(
        hb,
        ApplianceKind::Microwave,
        Schedule::DutyCycle {
            on_s: 60,
            off_s: 60,
            seed: 0,
        },
    );
    // Find an off->on edge that is preceded by a full OFF minute.
    let app = &g.appliances()[0];
    let mut edge = None;
    for s in 61..400u64 {
        let now_on = app.schedule.is_on(Time::from_secs(s));
        let next_on = app.schedule.is_on(Time::from_secs(s + 1));
        if !now_on && next_on {
            edge = Some(s + 1);
            break;
        }
    }
    let edge = edge.expect("duty cycle has an on edge");
    let channel = PlcChannel::from_grid(&g, a, b, PlcTechnology::HpAv, 7).expect("wired");
    let mut sim = LinkProbeSim::new(
        channel,
        plc_phy::channel::LinkDir::AtoB,
        EstimatorConfig::default(),
        3,
    );
    // Long pre-phase so the bootstrap margin has fully decayed (the
    // estimate is no longer drifting upward on its own).
    let t0 = Time::from_secs(edge.saturating_sub(55));
    sim.warmup(t0, 8);
    sim.saturate_interval(
        t0 + Duration::from_secs(8),
        Time::from_secs(edge) - Duration::from_secs(1),
        Duration::from_millis(20),
    );
    let before = sim.ble_avg();
    // Drive through the switch-on and give the estimator time to react.
    sim.saturate_interval(
        Time::from_secs(edge + 1),
        Time::from_secs(edge + 45),
        Duration::from_millis(20),
    );
    let after = sim.ble_avg();
    assert!(
        after < before * 0.97,
        "microwave ON must degrade BLE: before={before} after={after}"
    );
}

/// WiFi rate adaptation recovers after a deep fade: the whole-band MCS
/// drops hard and climbs back, unlike PLC's graceful per-carrier
/// adjustment.
#[test]
fn wifi_rate_adaptation_survives_deep_fade() {
    use rand::SeedableRng;
    use wifi80211::rate::RateAdapter;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut adapter = RateAdapter::new();
    for _ in 0..60 {
        adapter.observe(&mut rng, 28.0);
    }
    let healthy = adapter.capacity_mbps();
    assert!(healthy >= 104.0);
    // Deep fade: 15 dB down for a while, with loss bursts.
    for _ in 0..30 {
        adapter.observe(&mut rng, 13.0);
        adapter.on_loss_burst();
    }
    let faded = adapter.capacity_mbps();
    assert!(faded < healthy * 0.5, "fade must bite: {faded}");
    // Recovery.
    for _ in 0..60 {
        adapter.observe(&mut rng, 28.0);
    }
    assert!(adapter.capacity_mbps() >= healthy * 0.9);
}

/// Cutting the only cable between two stations makes channel
/// construction fail cleanly (no panics, no NaNs).
#[test]
fn severed_wiring_is_reported_not_panicked() {
    let mut g = Grid::new();
    let a = g.add_outlet("a");
    let b = g.add_outlet("b");
    // No connection at all.
    assert!(PlcChannel::from_grid(&g, a, b, PlcTechnology::HpAv, 1).is_none());
}

/// Saturating a hopeless (cross-board) link produces (near-)zero
/// delivery but must not wedge the simulation: the estimator keeps the
/// link in ROBO and time advances normally.
#[test]
fn hopeless_link_does_not_wedge_the_mac() {
    let env = PaperEnv::new(PAPER_SEED);
    // Stations 0 (board B1) and 15 (board B2): two boards apart.
    let outlets = [
        (0u16, env.testbed.station(0).outlet),
        (15u16, env.testbed.station(15).outlet),
    ];
    let mut sim = PlcSim::new(SimConfig::default(), &env.testbed.grid, &outlets);
    let f = sim.add_flow(Flow::unicast(0, 15, TrafficSource::iperf_saturated()));
    sim.run_until(Time::from_secs(2));
    assert!(sim.now() >= Time::from_secs(2), "time must advance");
    let delivered = sim.take_delivered(f);
    // Deliveries, if any, are a trickle (ROBO across 240+ m of cable and
    // two boards).
    assert!(
        delivered.len() < 200,
        "cross-board link should be hopeless: {} pkts",
        delivered.len()
    );
}
