//! Determinism properties of disturbed runs: the sampled series — and
//! therefore the verdict block — must be bit-identical whether the run
//! executes straight through or across a checkpoint/resume cut anywhere
//! in the timeline, including cuts landing mid-disturbance.

use electrifi::env::PaperEnv;
use electrifi::experiments::disturbance::{DisturbanceConfig, DisturbanceSim};
use electrifi_faults::{CompiledFaults, CouplingSpec, DisturbanceKind, DisturbanceSpec};
use electrifi_scenario::campaign::{execute_run, RunSpec};
use electrifi_scenario::spec::ScenarioSpec;
use electrifi_state::{Persist, SectionReader, SectionWriter};
use proptest::prelude::*;
use simnet::obs::Obs;
use simnet::time::{Duration, Time};

fn track(t0: Time, surge_at: f64, trip_at: f64, jam_delay_ms: u64) -> CompiledFaults {
    let disturbances = vec![
        DisturbanceSpec {
            name: "surge".to_string(),
            at_s: surge_at,
            duration_s: 3.0,
            ramp_s: 1.0,
            kind: DisturbanceKind::ApplianceSurge {
                board: 0,
                noise_db: 12.0,
            },
        },
        DisturbanceSpec {
            name: "trip".to_string(),
            at_s: trip_at,
            duration_s: 4.0,
            ramp_s: 0.0,
            kind: DisturbanceKind::BreakerTrip { board: 0 },
        },
    ];
    let couplings = vec![CouplingSpec {
        source: "trip".to_string(),
        after_ms: jam_delay_ms,
        duration_s: 1.5,
        effect: DisturbanceKind::WifiJam { penalty_db: 18.0 },
    }];
    CompiledFaults::compile(&disturbances, &couplings, t0).unwrap()
}

fn cfg(t0: Time) -> DisturbanceConfig {
    DisturbanceConfig {
        start: t0,
        duration: Duration::from_secs(25),
        sample: Duration::from_millis(500),
        probe: Duration::from_secs(1),
    }
}

proptest! {
    /// Checkpointing a disturbed run at ANY sample boundary — including
    /// mid-surge, mid-trip and mid-jam — and resuming into a freshly
    /// constructed sim reproduces the straight-through series bit for
    /// bit, for arbitrary fault timings.
    #[test]
    fn checkpoint_resume_is_bit_identical_for_any_cut_and_timing(
        surge_at in 1.0f64..8.0,
        trip_gap in 2.0f64..8.0,
        jam_delay_ms in 0u64..2000,
        cut in 1usize..49,
    ) {
        let env = PaperEnv::new(2015);
        let t0 = Time::from_hours(10);
        let faults = track(t0, surge_at, surge_at + trip_gap, jam_delay_ms);
        let straight = DisturbanceSim::new(&env, &faults, cfg(t0)).run_to_end();

        let mut sim = DisturbanceSim::new(&env, &faults, cfg(t0));
        for _ in 0..cut {
            prop_assert!(sim.step());
        }
        let mut w = SectionWriter::new();
        sim.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut resumed = DisturbanceSim::new(&env, &faults, cfg(t0));
        let mut r = SectionReader::new("disturbance", &bytes);
        resumed.load_state(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(resumed.run_to_end(), straight);
    }
}

const DISTURBED_SCENARIO: &str = r#"{
  "name": "identity-probe",
  "seed": 2015,
  "grid": { "builtin": "builtin://imc2015-floor" },
  "workload": { "name": "w", "start_hour": 10, "duration_s": 12,
                "sample_ms": 500, "max_pairs": 4 },
  "experiments": ["disturbance"],
  "disturbances": [
    { "name": "surge", "at_s": 2.0, "duration_s": 3.0, "ramp_s": 0.5,
      "kind": { "appliance-surge": { "board": 0, "noise_db": 12.0 } } },
    { "name": "trip", "at_s": 7.0, "duration_s": 2.0,
      "kind": { "breaker-trip": { "board": 0 } } }
  ],
  "couplings": [
    { "source": "trip", "after_ms": 250, "duration_s": 1.0,
      "effect": { "wifi-jam": { "penalty_db": 20.0 } } }
  ],
  "assertions": [
    { "hybrid-at-least-best-medium": { "within_s": 2.0 } },
    { "recovery-within": { "within_s": 2.0, "frac": 0.8 } },
    { "counter-at-least": { "counter": "faults.edges", "min": 2 } }
  ]
}"#;

/// The demo fault track on the paper floor yields a run record whose
/// typed verdict passes.
#[test]
fn disturbed_demo_run_passes_its_assertions() {
    let spec = ScenarioSpec::from_json_str(DISTURBED_SCENARIO).unwrap();
    let run = RunSpec {
        run_name: "identity-probe-s2015-w".to_string(),
        scenario_index: 0,
        seed: spec.seed,
        workload: spec.workload.clone(),
        experiments: spec.experiments.clone(),
    };
    let record = execute_run(&run, &spec, Obs::new()).unwrap();
    let verdict = record
        .verdict
        .as_ref()
        .expect("disturbance run carries a verdict");
    assert!(verdict.pass, "demo assertions hold on the paper floor");
}
