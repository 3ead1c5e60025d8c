//! A disturbed run through the campaign executor: the demo fault track
//! on the paper floor yields a run record whose typed verdict passes.

use electrifi_scenario::campaign::{execute_run, RunSpec};
use electrifi_scenario::spec::ScenarioSpec;
use simnet::obs::Obs;

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
