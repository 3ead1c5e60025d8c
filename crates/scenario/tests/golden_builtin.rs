//! Golden test: `builtin://imc2015-floor` reproduces the hard-coded
//! paper floor **bit-for-bit** — same grid, same stations, same floor,
//! and bit-identical experiment numbers.

use electrifi::experiments::spatial::{fig3_with, measure_plc, PlcMemo, SpatialConfig};
use electrifi::experiments::PAPER_SEED;
use electrifi::PaperEnv;
use electrifi_scenario::{Scenario, ScenarioSpec};
use electrifi_testbed::Testbed;
use plc_phy::PlcTechnology;
use simnet::time::{Duration, Time};

fn scenario_floor() -> Testbed {
    let spec = ScenarioSpec::from_json_str(
        r#"{"name": "golden", "seed": 2015,
            "grid": {"builtin": "builtin://imc2015-floor"}}"#,
    )
    .expect("valid scenario");
    Scenario::load(spec).expect("builtin materialises").testbed
}

#[test]
fn builtin_census_matches_the_hardcoded_floor() {
    let scenario = scenario_floor();
    let hardcoded = Testbed::paper_floor(PAPER_SEED);

    // Grid: byte-identical serialization (nodes, cables, appliances,
    // schedules — everything).
    assert_eq!(
        serde_json::to_string(&scenario.grid).unwrap(),
        serde_json::to_string(&hardcoded.grid).unwrap()
    );
    assert_eq!(scenario.stations, hardcoded.stations);
    assert_eq!(
        scenario.floor.width_m.to_bits(),
        hardcoded.floor.width_m.to_bits()
    );
    assert_eq!(
        scenario.floor.depth_m.to_bits(),
        hardcoded.floor.depth_m.to_bits()
    );
    assert_eq!(scenario.seed, hardcoded.seed);
    assert_eq!(scenario.plc_pairs().len(), 174);
    assert_eq!(scenario.all_pairs().len(), 342);
}

#[test]
fn builtin_fig3_class_metric_is_bit_identical() {
    let env_scenario = PaperEnv::from_testbed(scenario_floor());
    let env_hardcoded = PaperEnv::new(PAPER_SEED);

    // One full measured link (the Fig. 3 / Fig. 7 primitive): the mean
    // and std must be the same f64 bits, not merely close.
    let start = Time::from_hours(10);
    let duration = Duration::from_secs(5);
    let sample = Duration::from_millis(100);
    let (t_a, s_a) = measure_plc(
        &env_scenario,
        1,
        6,
        PlcTechnology::HpAv,
        start,
        duration,
        sample,
    );
    let (t_b, s_b) = measure_plc(
        &env_hardcoded,
        1,
        6,
        PlcTechnology::HpAv,
        start,
        duration,
        sample,
    );
    assert!(t_a > 0.0, "link 1-6 must connect");
    assert_eq!(t_a.to_bits(), t_b.to_bits());
    assert_eq!(s_a.to_bits(), s_b.to_bits());

    // And a whole (tiny) fig03 sweep serializes identically.
    let cfg = SpatialConfig {
        start,
        duration: Duration::from_secs(2),
        sample: Duration::from_millis(500),
        max_pairs: Some(4),
    };
    let r_a = fig3_with(&env_scenario, cfg, &PlcMemo::new(&env_scenario));
    let r_b = fig3_with(&env_hardcoded, cfg, &PlcMemo::new(&env_hardcoded));
    assert_eq!(
        serde_json::to_string(&r_a).unwrap(),
        serde_json::to_string(&r_b).unwrap()
    );
}
