//! The disturbance-track experiment: drive one hybrid PLC+WiFi link
//! through a scripted fault timeline and sample the series the assertion
//! engine judges.
//!
//! The sampled mediums are **pure functions of time** — the PLC side is
//! the instantaneous BLE of an ideal tone map over the (overlaid)
//! spectrum, the WiFi side the expected saturation goodput under the
//! (jammed) channel. The only mutable state is the fault-engine cursor,
//! the gated estimator and the accumulating series.

use crate::env::PaperEnv;
use electrifi_faults::{CompiledFaults, FaultEngine, OutageProfile, SeriesSet};
use electrifi_testbed::{PlcNetwork, StationId, Testbed};
use hybrid1905::GatedEstimator;
use plc_phy::channel::{LinkDir, PlcChannel};
use plc_phy::estimation::{EstimatorConfig, TARGET_PBERR};
use plc_phy::modulation::FecRate;
use plc_phy::tonemap::ToneMap;
use simnet::obs;
use simnet::time::{Duration, Time};
use wifi80211::throughput::expected_goodput_mbps;
use wifi80211::WifiChannel;

/// Saturation MAC efficiency applied on top of the PLC BLE (framing,
/// inter-frame spaces, SACKs — the reproduction's calibrated ~60%).
const PLC_MAC_EFFICIENCY: f64 = 0.6;

/// Settle-in seconds between the workload start and the fault anchor
/// `t0`; matches the warm-up the probing runners give the estimator.
pub const WARMUP_SECS: u64 = 8;

/// Map a logical PLC network to the distribution-board index the fault
/// track targets: the paper floor's board B1 is `0`, B2 is `1`, and
/// generated/explicit grids use their per-board network index directly.
pub fn network_index(net: PlcNetwork) -> u16 {
    match net {
        PlcNetwork::A => 0,
        PlcNetwork::B => 1,
        PlcNetwork::Net(i) => i,
    }
}

/// Sampling geometry of a disturbance run.
#[derive(Debug, Clone, Copy)]
pub struct DisturbanceConfig {
    /// Measurement start — the instant the fault timeline is anchored at.
    pub start: Time,
    /// Measurement duration.
    pub duration: Duration,
    /// Sampling period of the series.
    pub sample: Duration,
    /// Probe period feeding the gated capacity estimator.
    pub probe: Duration,
}

/// Everything one disturbance run produces.
#[derive(Debug, Clone)]
pub struct DisturbanceOutcome {
    /// The sampled series (parallel vectors, seconds since `start`).
    pub series: SeriesSet,
    /// Fault-timeline boundary events consumed during the run.
    pub edges_fired: u64,
    /// Probes discarded by dropout windows.
    pub probe_holds: u64,
    /// The monitored station pair.
    pub pair: (StationId, StationId),
}

/// One disturbed hybrid link being sampled. Construction wires the fault
/// profiles into the channel models; [`DisturbanceSim::run_to_end`]
/// drives the loop.
struct DisturbanceSim {
    // Configuration.
    plc: PlcChannel,
    dir: LinkDir,
    wifi: WifiChannel,
    outage: Option<OutageProfile>,
    faults: CompiledFaults,
    cfg: DisturbanceConfig,
    pair: (StationId, StationId),
    // Dynamic state.
    engine: FaultEngine,
    estimator: GatedEstimator,
    series: SeriesSet,
    now: Time,
    next_probe: Time,
    edges_fired: u64,
}

impl DisturbanceSim {
    /// Wire the fault track into the first same-network pair's channels.
    /// Panics if the testbed has no same-network PLC pair (the scenario
    /// loader guarantees at least one).
    fn new(env: &PaperEnv, faults: &CompiledFaults, cfg: DisturbanceConfig) -> Self {
        let (a, b) = *env
            .plc_pairs()
            .iter()
            .find(|(a, b)| a < b)
            .expect("disturbance experiment needs a same-network PLC pair");
        let board = network_index(env.testbed.stations[a as usize].network);
        let mut plc = env.plc_channel(a, b);
        plc.set_fault_overlay(faults.link_overlay(board).cloned());
        let mut wifi = env.wifi_channel(a, b);
        wifi.set_jam_profile(faults.jam_profile().cloned());
        DisturbanceSim {
            plc,
            dir: Testbed::link_dir(a, b),
            wifi,
            outage: faults.outage_profile(board).cloned(),
            faults: faults.clone(),
            pair: (a, b),
            engine: FaultEngine::new(),
            estimator: GatedEstimator::new(faults.dropout_profile().cloned()),
            series: SeriesSet::default(),
            now: cfg.start,
            next_probe: cfg.start,
            edges_fired: 0,
            cfg,
        }
    }

    /// Instantaneous PLC delivered throughput (Mb/s) — the ideal-tone-map
    /// BLE under the (possibly overlaid) spectrum, scaled by MAC
    /// efficiency; exactly zero while the board's breaker is open.
    fn plc_mbps(&self, t: Time) -> f64 {
        if let Some(out) = &self.outage {
            if out.blackout_until(t).is_some() {
                return 0.0;
            }
        }
        let spec = self.plc.spectrum(self.dir, t);
        let map = ToneMap::from_snr(
            &spec.snr_db,
            EstimatorConfig::default().margin_db,
            FecRate::SixteenTwentyFirsts,
            TARGET_PBERR,
            0,
        );
        map.ble() * PLC_MAC_EFFICIENCY
    }

    /// Take the sample due at the current instant, then advance the
    /// clock. Returns `false` once the measurement window is exhausted.
    fn step(&mut self) -> bool {
        let end = self.cfg.start + self.cfg.duration;
        if self.now >= end {
            return false;
        }
        let t = self.now;
        // Consume fault-timeline boundary events up to this sample.
        let fired = self.engine.advance_to(&self.faults, t);
        if fired > 0 {
            self.edges_fired += fired as u64;
            obs::current()
                .registry()
                .counter("faults.edges")
                .add(fired as u64);
        }
        let plc = self.plc_mbps(t);
        let wifi = expected_goodput_mbps(&self.wifi, t, 1);
        // The §7 aggregation result: the hybrid layer schedules over both
        // mediums, so the aggregate is their sum, and delivered == hybrid.
        let hybrid = plc + wifi;
        if t >= self.next_probe {
            self.estimator.observe(t, hybrid);
            while self.next_probe <= t {
                self.next_probe += self.cfg.probe;
            }
        }
        let estimate = self.estimator.estimate_mbps().unwrap_or(0.0);
        self.series
            .t_s
            .push(t.saturating_since(self.cfg.start).as_secs_f64());
        self.series.plc.push(plc);
        self.series.wifi.push(wifi);
        self.series.hybrid.push(hybrid);
        self.series.estimate.push(estimate);
        self.series.delivered.push(hybrid);
        self.now = t + self.cfg.sample;
        true
    }

    /// Drive the sampling loop to the end of the measurement window.
    fn run_to_end(mut self) -> DisturbanceOutcome {
        while self.step() {}
        DisturbanceOutcome {
            series: self.series,
            edges_fired: self.edges_fired,
            probe_holds: self.estimator.holds(),
            pair: self.pair,
        }
    }
}

/// Run the disturbance experiment over the environment's first
/// same-network pair.
pub fn run_disturbance(
    env: &PaperEnv,
    faults: &CompiledFaults,
    cfg: DisturbanceConfig,
) -> DisturbanceOutcome {
    DisturbanceSim::new(env, faults, cfg).run_to_end()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::PAPER_SEED;
    use electrifi_faults::{CouplingSpec, DisturbanceKind, DisturbanceSpec};

    fn cfg(t0: Time) -> DisturbanceConfig {
        DisturbanceConfig {
            start: t0,
            duration: Duration::from_secs(30),
            sample: Duration::from_millis(500),
            probe: Duration::from_secs(1),
        }
    }

    fn track(t0: Time) -> CompiledFaults {
        let disturbances = vec![
            DisturbanceSpec {
                name: "surge".to_string(),
                at_s: 5.0,
                duration_s: 4.0,
                ramp_s: 1.0,
                kind: DisturbanceKind::ApplianceSurge {
                    board: 0,
                    noise_db: 15.0,
                },
            },
            DisturbanceSpec {
                name: "trip".to_string(),
                at_s: 12.0,
                duration_s: 5.0,
                ramp_s: 0.0,
                kind: DisturbanceKind::BreakerTrip { board: 0 },
            },
        ];
        let couplings = vec![CouplingSpec {
            source: "trip".to_string(),
            after_ms: 250,
            duration_s: 2.0,
            effect: DisturbanceKind::WifiJam { penalty_db: 20.0 },
        }];
        CompiledFaults::compile(&disturbances, &couplings, t0).unwrap()
    }

    #[test]
    fn breaker_trip_zeroes_plc_and_the_hybrid_rides_wifi() {
        let env = PaperEnv::new(PAPER_SEED);
        let t0 = Time::from_hours(10);
        let out = run_disturbance(&env, &track(t0), cfg(t0));
        assert_eq!(out.series.t_s.len(), 60);
        // Mid-trip sample (t = 14s): PLC is dead, WiFi carries on (the
        // coupled jam window [12.25, 14.25) may still bite, so look at
        // t = 15s, after the jam lifted but inside the trip).
        let i = out
            .series
            .t_s
            .iter()
            .position(|&t| (t - 15.0).abs() < 1e-9)
            .unwrap();
        assert_eq!(out.series.plc[i], 0.0);
        assert!(out.series.wifi[i] > 0.0);
        assert_eq!(out.series.hybrid[i], out.series.wifi[i]);
        // Before the first disturbance both mediums deliver.
        assert!(out.series.plc[0] > 0.0);
        assert!(out.series.wifi[0] > 0.0);
        // Every edge of the timeline fired within the window.
        assert_eq!(out.edges_fired as usize, track(t0).edges().len());
    }

    #[test]
    fn undisturbed_run_matches_a_disturbed_run_outside_the_windows() {
        let env = PaperEnv::new(PAPER_SEED);
        let t0 = Time::from_hours(10);
        let clean = run_disturbance(&env, &CompiledFaults::default(), cfg(t0));
        let faulty = run_disturbance(&env, &track(t0), cfg(t0));
        // Before the first onset (t < 5s) the series are bit-identical.
        for i in 0..out_of_window_prefix(&clean.series.t_s, 5.0) {
            assert_eq!(clean.series.plc[i], faulty.series.plc[i], "sample {i}");
            assert_eq!(clean.series.wifi[i], faulty.series.wifi[i], "sample {i}");
        }
    }

    fn out_of_window_prefix(t_s: &[f64], bound: f64) -> usize {
        t_s.iter().take_while(|&&t| t < bound).count()
    }
}
