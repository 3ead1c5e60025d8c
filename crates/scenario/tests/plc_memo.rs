//! A run measures each PLC link once: fig03 and probing share the run's
//! link measurements, and the shared measurements leave every output as
//! if each experiment had measured on its own. The headlines do not
//! depend on which experiment measures a link first, and the run's
//! counters are the sum of the two experiments run apart.

use electrifi_scenario::campaign::{run_campaign, CampaignSpec, RunRecord};
use std::collections::BTreeMap;
use std::path::Path;

/// One generated single-network floor, so that probing's first pairs are
/// also fig03's first pairs, under two seeds.
fn run(experiments: &str) -> Vec<RunRecord> {
    let json = format!(
        r#"{{
        "name": "memo",
        "scenarios": [
            {{"name": "floor", "grid": {{"generator": {{
                "floors": 1, "boards_per_floor": 1,
                "offices_per_board": 4, "stations_per_board": 4}}}}}}
        ],
        "seeds": [1, 2],
        "workloads": [
            {{"name": "w", "duration_s": 2.0, "sample_ms": 500, "max_pairs": 3}}
        ],
        "experiments": {experiments}
    }}"#
    );
    let spec = CampaignSpec::from_json_str(&json, Path::new(".")).expect("valid campaign");
    run_campaign(&spec, 2, None).expect("runs").runs
}

/// Headlines keyed by experiment kind, as exact bits.
fn headlines(rec: &RunRecord) -> BTreeMap<String, Vec<(String, u64)>> {
    rec.experiments
        .iter()
        .map(|e| {
            let values = e.headline.iter().map(|(k, v)| (k.clone(), v.to_bits()));
            (e.kind.clone(), values.collect())
        })
        .collect()
}

fn counters(rec: &RunRecord) -> BTreeMap<String, u64> {
    rec.metrics.counters.iter().cloned().collect()
}

#[test]
fn experiment_order_does_not_change_the_headlines() {
    let forward = run(r#"["fig03", "probing"]"#);
    let backward = run(r#"["probing", "fig03"]"#);
    assert_eq!(forward.len(), 2);
    for (f, b) in forward.iter().zip(&backward) {
        assert_eq!(headlines(f), headlines(b), "{}", f.run);
        assert_eq!(counters(f), counters(b), "{}", f.run);
        let probing = &headlines(f)["probing"];
        assert!(probing[0].0 == "links" && f64::from_bits(probing[0].1) > 0.0);
    }
}

#[test]
fn a_shared_run_counts_what_the_experiments_count_apart() {
    let both = run(r#"["fig03", "probing"]"#);
    let fig03 = run(r#"["fig03"]"#);
    let probing = run(r#"["probing"]"#);
    for ((b, f), p) in both.iter().zip(&fig03).zip(&probing) {
        let mut expected = counters(f);
        for (name, n) in counters(p) {
            *expected.entry(name).or_default() += n;
        }
        *expected.get_mut("campaign.runs_started").unwrap() -= 1;
        assert_eq!(counters(b), expected, "{}", b.run);
        assert!(expected["core.probe.frames"] > counters(f)["core.probe.frames"]);
    }
}
