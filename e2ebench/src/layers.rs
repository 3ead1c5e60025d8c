//! The traced run's per-layer split.
//!
//! Layers are the workspace's crates. Readings come from three places,
//! all through public APIs: the spans the crates already emit (self
//! times from `simnet::obs::span`), the counters they register in the
//! ambient `simnet::obs::Registry`, and the harness's own spans and
//! timings around each call it makes into a crate. Times and counts are
//! per traced pass unless the metric table says otherwise; a layer a
//! workload never reaches reads 0.

use crate::paper::RUNNERS;
use simnet::obs::span::SpanReport;
use simnet::obs::MetricsSnapshot;

/// Every per-layer metric, in output order: `(name, unit)`. The names
/// match `BENCHMARK.json` (checked by a test).
pub const METRICS: &[(&str, &str)] = &[
    ("core.fig03_s", "s"),
    ("core.fig04_s", "s"),
    ("core.fig06_s", "s"),
    ("core.fig07_s", "s"),
    ("core.fig09_s", "s"),
    ("core.fig10_s", "s"),
    ("core.fig11_s", "s"),
    ("core.fig12_s", "s"),
    ("core.fig13_s", "s"),
    ("core.fig14_s", "s"),
    ("core.fig15_s", "s"),
    ("core.fig16_s", "s"),
    ("core.fig17_s", "s"),
    ("core.fig18_s", "s"),
    ("core.fig19_s", "s"),
    ("core.fig20_s", "s"),
    ("core.fig21_s", "s"),
    ("core.fig22_s", "s"),
    ("core.fig23_s", "s"),
    ("core.fig24_s", "s"),
    ("core.table3_s", "s"),
    ("core.measure_plc_s", "s"),
    ("core.measure_wifi_s", "s"),
    ("core.probe_saturate_s", "s"),
    ("core.probe_warmup_s", "s"),
    ("core.probe_frames", "count"),
    ("core.probe_tonemap_regens", "count"),
    ("core.probe_pberr_ratio", "ratio"),
    ("plc-phy.static_build_s", "s"),
    ("plc-phy.epoch_rebuild_s", "s"),
    ("plc-phy.epoch_rebuilds", "count"),
    ("plc-phy.spectrum_hit_ratio", "ratio"),
    ("plc-phy.key_skip_ratio", "ratio"),
    ("plc-mac.run_until_s", "s"),
    ("plc-mac.beacon_region_s", "s"),
    ("plc-mac.steps", "count"),
    ("plc-mac.idle_skip_ratio", "ratio"),
    ("plc-mac.collision_ratio", "ratio"),
    ("plc-mac.retrans_pbs", "count"),
    ("wifi80211.mac_steps", "count"),
    ("wifi80211.mcs_transitions", "count"),
    ("hybrid1905.split_s", "s"),
    ("hybrid1905.probe_eval_s", "s"),
    ("hybrid1905.balancer_packets", "count"),
    ("hybrid1905.undelivered_ratio", "ratio"),
    ("simnet.events_fired", "count"),
    ("simnet.host_ns_per_event", "ns"),
    ("testbed.env_build_s", "s"),
    ("testbed.cpu_util", "ratio"),
    ("scenario.parse_s", "s"),
    ("scenario.run_setup_s", "s"),
    ("scenario.run_execute_s", "s"),
    ("scenario.run_p50_s", "s"),
    ("scenario.emit_s", "s"),
    ("faults.compile_s", "s"),
    ("faults.edges", "count"),
    ("state.checkpoint_write_s", "s"),
    ("state.checkpoint_load_s", "s"),
    ("state.checkpoint_writes", "count"),
    ("state.checkpoint_bytes", "B"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.execute_s", "s"),
    ("serve.results_s", "s"),
    ("serve.rejected", "count"),
    ("serve.resubmitted", "count"),
    ("serve.requests_per_job", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.error_rate", "ratio"),
    ("bench.job_samples", "count"),
    ("bench.job_tail_pct", "%"),
    ("host.calib_s", "s"),
    ("host.nproc", "count"),
    ("host.workers.threads", "count"),
    ("host.workers.campaign", "count"),
    ("host.workers.serve", "count"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The span reports of a traced run.
pub struct Reports<'a> {
    /// The traced passes.
    pub passes: &'a SpanReport,
    /// The workload's probe, traced once after the passes.
    pub probe: &'a SpanReport,
    /// One more set-up, traced after the probe.
    pub setup: &'a SpanReport,
}

/// Assemble every metric of [`METRICS`] from the traced run (`reports`,
/// and `snap` and `n` passes taking `wall_ns` in all for the passes), and
/// the workload's own readings (`own`, which take precedence).
pub fn per_layer(
    reports: &Reports,
    snap: &MetricsSnapshot,
    n: f64,
    wall_ns: f64,
    own: &[(&'static str, f64)],
) -> Vec<(String, f64, &'static str)> {
    let (report, probe, setup) = (reports.passes, reports.probe, reports.setup);
    let self_s = |span: &str| report.get(span).map_or(0.0, |s| s.self_ns as f64 * 1e-9) / n;
    let total_s =
        |r: &SpanReport, span: &str| r.get(span).map_or(0.0, |s| s.total_ns as f64 * 1e-9);
    let count = |name: &str| snap.counter(name) as f64;
    let per_pass = |name: &str| count(name) / n;

    let mut derived: Vec<(String, f64)> = RUNNERS
        .iter()
        .map(|r| {
            let span = format!("bench.{r}");
            (format!("core.{r}_s"), total_s(report, &span) / n)
        })
        .collect();
    let rebuilds = count("plc.phy.spectrum.epoch_rebuilds");
    let skips = count("plc.phy.spectrum.key_skips");
    let idle = count("plc.mac.idle_skips");
    let packets = count("hybrid.balancer.packets");
    let events = count("sim.events_fired");
    derived.extend(
        [
            // The probe, run once per traced run.
            ("core.measure_plc_s", total_s(probe, "bench.measure_plc")),
            ("core.measure_wifi_s", total_s(probe, "bench.measure_wifi")),
            ("core.probe_saturate_s", self_s("probe.saturate")),
            ("core.probe_warmup_s", self_s("probe.warmup")),
            ("core.probe_frames", per_pass("core.probe.frames")),
            (
                "core.probe_tonemap_regens",
                per_pass("core.probe.tonemap_regens"),
            ),
            (
                "core.probe_pberr_ratio",
                ratio(count("core.probe.pb_errors"), count("core.probe.pbs")),
            ),
            (
                "plc-phy.static_build_s",
                total_s(probe, "bench.static_build"),
            ),
            ("plc-phy.epoch_rebuild_s", self_s("phy.epoch_rebuild")),
            ("plc-phy.epoch_rebuilds", rebuilds / n),
            (
                "plc-phy.spectrum_hit_ratio",
                ratio(
                    count("plc.phy.spectrum.epoch_hits"),
                    count("plc.phy.spectrum.epoch_hits") + rebuilds,
                ),
            ),
            (
                "plc-phy.key_skip_ratio",
                ratio(skips, skips + count("plc.phy.spectrum.key_rescans")),
            ),
            ("plc-mac.run_until_s", self_s("mac.run_until")),
            ("plc-mac.beacon_region_s", self_s("mac.beacon_region")),
            ("plc-mac.steps", per_pass("plc.mac.steps")),
            (
                "plc-mac.idle_skip_ratio",
                ratio(idle, idle + count("plc.mac.idle_rescans")),
            ),
            (
                "plc-mac.collision_ratio",
                ratio(
                    count("plc.mac.csma.collisions"),
                    count("plc.mac.csma.attempts"),
                ),
            ),
            ("plc-mac.retrans_pbs", per_pass("plc.mac.sack.retrans_pbs")),
            ("wifi80211.mac_steps", per_pass("wifi.mac.steps")),
            (
                "wifi80211.mcs_transitions",
                per_pass("wifi.rate.mcs_transitions"),
            ),
            ("hybrid1905.split_s", self_s("hybrid.split")),
            ("hybrid1905.probe_eval_s", self_s("hybrid.probe_eval")),
            ("hybrid1905.balancer_packets", packets / n),
            (
                "hybrid1905.undelivered_ratio",
                ratio(count("hybrid.balancer.undelivered"), packets),
            ),
            ("simnet.events_fired", events / n),
            ("simnet.host_ns_per_event", ratio(wall_ns, events)),
            (
                // Environment building in the traced extra setup plus, per
                // pass, in campaign runs.
                "testbed.env_build_s",
                total_s(setup, "bench.env_build") + self_s("campaign.run_setup"),
            ),
            ("scenario.parse_s", total_s(setup, "bench.parse")),
            ("scenario.run_setup_s", self_s("campaign.run_setup")),
            ("scenario.run_execute_s", self_s("campaign.run_execute")),
            ("scenario.emit_s", self_s("campaign.emit")),
            ("faults.edges", per_pass("faults.edges")),
            ("state.checkpoint_write_s", self_s("state.checkpoint_write")),
            ("state.checkpoint_load_s", self_s("state.checkpoint_load")),
            (
                "state.checkpoint_writes",
                per_pass("state.checkpoint.writes"),
            ),
            ("state.checkpoint_bytes", per_pass("state.checkpoint.bytes")),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = own
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .or_else(|| derived.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                .unwrap_or(0.0);
            (name.to_string(), value, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in `BENCHMARK.json`, with their units.
    fn listed(key: &str) -> Vec<(String, String)> {
        let doc: serde::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let Some(serde::Value::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| match m.get(f) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    _ => panic!("{key} entry without {f}"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(listed("per_layer"), owned(METRICS));
        assert_eq!(listed("end_to_end"), owned(&crate::END_TO_END));
    }

    #[test]
    fn every_metric_is_reported_once() {
        let empty = SpanReport::default();
        let reports = Reports {
            passes: &empty,
            probe: &empty,
            setup: &empty,
        };
        let rows = per_layer(
            &reports,
            &MetricsSnapshot::empty(),
            1.0,
            1.0,
            &[("host.nproc", 2.0)],
        );
        assert_eq!(rows.len(), METRICS.len());
        assert!(rows.iter().any(|(n, v, _)| n == "host.nproc" && *v == 2.0));
    }
}
