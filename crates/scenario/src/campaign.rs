//! Campaign files: scenario × seed × workload sweeps.
//!
//! A campaign file declares a grid of runs:
//!
//! ```json
//! {
//!   "name": "smoke",
//!   "scenarios": ["scenarios/small-office.json", "builtin://imc2015-floor"],
//!   "seeds": [1, 2],
//!   "workloads": [
//!     {"name": "short", "duration_s": 10, "sample_ms": 500, "max_pairs": 4}
//!   ],
//!   "experiments": ["fig03", "probing"]
//! }
//! ```
//!
//! [`CampaignSpec::expand`] turns it into a deterministic work list (one
//! [`RunSpec`] per scenario × seed × workload) and [`run_campaign`]
//! shards the list over `testbed::sweep::par_map_workers`. Each run
//! executes under its own fresh [`Obs`](simnet::obs::Obs), so per-run
//! metric snapshots — and therefore the campaign summary — are
//! **byte-identical for any worker count**: nothing wall-clock-dependent
//! is recorded anywhere in the output.

use crate::de::At;
use crate::error::ScenarioError;
use crate::loader::{spec_from_path, Scenario};
use crate::spec::{parse_experiments, parse_workload, ExperimentKind, ScenarioSpec, WorkloadSpec};
use electrifi::env::PaperEnv;
use electrifi::experiments::disturbance::{self, DisturbanceConfig};
use electrifi::experiments::spatial::{self, SpatialConfig};
use electrifi_faults::{evaluate, CompiledFaults, Verdict};
use electrifi_testbed::sweep;
use hybrid1905::probing::{ProbingPolicy, PROBE_BYTES};
use plc_phy::PlcTechnology;
use serde::{Deserialize, Serialize};
use simnet::obs::{self, config_digest, MetricsSnapshot, Obs};
use simnet::time::Duration;
use std::path::Path;

/// A parsed campaign file.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (becomes the summary's `campaign` field).
    pub name: String,
    /// The scenarios swept (paths and inline objects are resolved to
    /// parsed specs at load time).
    pub scenarios: Vec<ScenarioSpec>,
    /// Seeds each scenario runs under.
    pub seeds: Vec<u64>,
    /// Workload overrides; `None` uses each scenario's own workload.
    pub workloads: Option<Vec<WorkloadSpec>>,
    /// Experiment override; `None` uses each scenario's own list.
    pub experiments: Option<Vec<ExperimentKind>>,
}

/// One expanded unit of campaign work.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Unique run name `<scenario>-s<seed>-<workload>`.
    pub run_name: String,
    /// Index into [`CampaignSpec::scenarios`].
    pub scenario_index: usize,
    /// Seed of this run.
    pub seed: u64,
    /// Workload of this run.
    pub workload: WorkloadSpec,
    /// Experiments of this run.
    pub experiments: Vec<ExperimentKind>,
}

/// One experiment's headline numbers within a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Experiment name (`fig03`, `fig07`, `probing`).
    pub kind: String,
    /// Named headline values, in a fixed per-experiment order.
    pub headline: Vec<(String, f64)>,
}

/// Everything one run produced. Deliberately contains **no wall-clock
/// data** so campaign output is byte-identical across reruns and worker
/// counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Unique run name.
    pub run: String,
    /// Scenario name.
    pub scenario: String,
    /// Seed of this run.
    pub seed: u64,
    /// Workload name.
    pub workload: String,
    /// Stations in the materialised testbed.
    pub stations: u64,
    /// Directed same-network PLC pair count.
    pub plc_links: u64,
    /// Per-experiment headline numbers.
    pub experiments: Vec<ExperimentReport>,
    /// The run's full metrics snapshot (fresh per-run registry).
    pub metrics: MetricsSnapshot,
    /// The assertion engine's typed pass/fail block — present iff the
    /// run executed the `disturbance` experiment.
    pub verdict: Option<Verdict>,
}

/// The campaign-level output written as `summary.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Campaign name.
    pub campaign: String,
    /// FNV-1a digest of the expanded work list (same campaign file →
    /// same digest).
    pub config_digest: String,
    /// Per-run records in expansion order.
    pub runs: Vec<RunRecord>,
    /// Headline values summed across runs, keyed `<experiment>.<name>`,
    /// name-sorted.
    pub totals: Vec<(String, f64)>,
}

impl CampaignSummary {
    /// Runs whose assertion verdict failed, in expansion order. Empty
    /// when no run executed the `disturbance` experiment (or all
    /// verdicts passed) — the campaign CLI exits 5 iff this is
    /// non-empty.
    pub fn failed_verdicts(&self) -> Vec<&RunRecord> {
        self.runs
            .iter()
            .filter(|r| r.verdict.as_ref().is_some_and(|v| !v.pass))
            .collect()
    }
}

impl CampaignSpec {
    /// Parse a campaign document; `base_dir` anchors relative scenario
    /// paths.
    pub fn from_json_str(json: &str, base_dir: &Path) -> Result<Self, ScenarioError> {
        let value: serde::Value = serde_json::from_str(json).map_err(|e| ScenarioError::Parse {
            message: e.to_string(),
        })?;
        let root = At::root(&value);
        root.obj().map_err(|_| {
            ScenarioError::invalid("<root>", "a campaign document must be a JSON object")
        })?;
        root.no_unknown_keys(&["name", "scenarios", "seeds", "workloads", "experiments"])?;
        let name = root.req("name")?.str()?.to_string();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
            return Err(root.req("name")?.invalid(
                "campaign names are non-empty and use only ASCII letters, digits and '-'",
            ));
        }

        let mut scenarios = Vec::new();
        let list = root.req("scenarios")?;
        for entry in list.items()? {
            let spec = if let Ok(s) = entry.str() {
                let resolved = if s.starts_with("builtin://") || Path::new(s).is_absolute() {
                    s.to_string()
                } else {
                    base_dir.join(s).to_string_lossy().into_owned()
                };
                spec_from_path(&resolved)?
            } else {
                ScenarioSpec::parse(&entry)?
            };
            if scenarios.iter().any(|s: &ScenarioSpec| s.name == spec.name) {
                return Err(entry.invalid(format!(
                    "duplicate scenario name {:?} — run names would collide",
                    spec.name
                )));
            }
            scenarios.push(spec);
        }
        if scenarios.is_empty() {
            return Err(list.invalid("a campaign needs at least one scenario"));
        }

        let seeds = match root.opt("seeds") {
            Some(s) => {
                let mut seeds = Vec::new();
                for item in s.items()? {
                    let seed = item.u64()?;
                    if seeds.contains(&seed) {
                        return Err(item.invalid(format!("duplicate seed {seed}")));
                    }
                    seeds.push(seed);
                }
                if seeds.is_empty() {
                    return Err(s.invalid("the seed list must not be empty"));
                }
                seeds
            }
            None => vec![2015],
        };

        let workloads = match root.opt("workloads") {
            Some(w) => {
                let mut out: Vec<WorkloadSpec> = Vec::new();
                for item in w.items()? {
                    let wl = parse_workload(&item)?;
                    if out.iter().any(|x| x.name == wl.name) {
                        return Err(item.invalid(format!(
                            "duplicate workload name {:?} — run names would collide",
                            wl.name
                        )));
                    }
                    out.push(wl);
                }
                if out.is_empty() {
                    return Err(w.invalid("the workload list must not be empty"));
                }
                Some(out)
            }
            None => None,
        };

        let experiments = match root.opt("experiments") {
            Some(e) => Some(parse_experiments(&e)?),
            None => None,
        };

        Ok(CampaignSpec {
            name,
            scenarios,
            seeds,
            workloads,
            experiments,
        })
    }

    /// Parse a campaign file; relative scenario paths resolve against
    /// the file's directory.
    pub fn from_file(path: &str) -> Result<Self, ScenarioError> {
        let json = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })?;
        let base = Path::new(path).parent().unwrap_or(Path::new("."));
        Self::from_json_str(&json, base)
    }

    /// Expand into the deterministic work list: scenario-major, then
    /// seed, then workload.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut runs = Vec::new();
        for (scenario_index, scenario) in self.scenarios.iter().enumerate() {
            let workloads: Vec<WorkloadSpec> = match &self.workloads {
                Some(w) => w.clone(),
                None => vec![scenario.workload.clone()],
            };
            let experiments = self
                .experiments
                .clone()
                .unwrap_or_else(|| scenario.experiments.clone());
            for &seed in &self.seeds {
                for workload in &workloads {
                    runs.push(RunSpec {
                        run_name: format!("{}-s{seed}-{}", scenario.name, workload.name),
                        scenario_index,
                        seed,
                        workload: workload.clone(),
                        experiments: experiments.clone(),
                    });
                }
            }
        }
        runs
    }

    /// [`CampaignSpec::expand`] narrowed to runs whose name contains
    /// `filter` (all runs when `None`). The CLI runner, the
    /// checkpoint/resume runner and the serve control plane all build
    /// their work lists through this one helper, so a job's digest-bound
    /// work list is the same everywhere.
    pub fn expand_filtered(&self, filter: Option<&str>) -> Vec<RunSpec> {
        self.expand()
            .into_iter()
            .filter(|r| filter.is_none_or(|f| r.run_name.contains(f)))
            .collect()
    }
}

fn headline(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

fn spatial_config(wl: &WorkloadSpec) -> SpatialConfig {
    SpatialConfig {
        start: wl.start(),
        duration: wl.duration(),
        sample: wl.sample(),
        max_pairs: wl.max_pairs,
    }
}

fn run_fig03(env: &PaperEnv, wl: &WorkloadSpec) -> ExperimentReport {
    let r = spatial::fig3_with(env, spatial_config(wl));
    ExperimentReport {
        kind: ExperimentKind::Fig03.name().to_string(),
        headline: headline(&[
            ("rows", r.rows.len() as f64),
            ("plc_covers_wifi", r.plc_covers_wifi),
            ("wifi_covers_plc", r.wifi_covers_plc),
            ("plc_wins", r.plc_wins),
            ("max_plc_gain", r.max_plc_gain),
        ]),
    }
}

fn run_fig07(env: &PaperEnv, wl: &WorkloadSpec) -> ExperimentReport {
    let r = spatial::fig7_with(env, spatial_config(wl));
    let mean_av = if r.av.is_empty() {
        0.0
    } else {
        r.av.iter().map(|x| x.throughput).sum::<f64>() / r.av.len() as f64
    };
    ExperimentReport {
        kind: ExperimentKind::Fig07.name().to_string(),
        headline: headline(&[
            ("av_links", r.av.len() as f64),
            ("av500_links", r.av500.len() as f64),
            ("mean_av_mbps", mean_av),
        ]),
    }
}

fn run_probing(env: &PaperEnv, policy: ProbingPolicy, wl: &WorkloadSpec) -> ExperimentReport {
    // Undirected same-network pairs: the 1905.1 probing population.
    let mut pairs: Vec<_> = env.plc_pairs().into_iter().filter(|(a, b)| a < b).collect();
    if let Some(keep) = wl.max_pairs {
        pairs.truncate(keep);
    }
    // Per-link throughput, in pair order: the links are independent, so
    // each pair runs its own sim loop on whichever sweep worker takes it.
    let per_link: Vec<(f64, f64)> = sweep::par_map(&pairs, |_, &(a, b)| {
        spatial::measure_plc(
            env,
            a,
            b,
            PlcTechnology::HpAv,
            wl.start(),
            wl.duration(),
            wl.sample(),
        )
    });
    let intervals: Vec<f64> = per_link
        .into_iter()
        .filter(|&(t, _)| t > 0.0)
        .map(|(t, _)| policy.interval_for(t).as_secs_f64())
        .collect();
    let links = intervals.len() as f64;
    let probes_per_s: f64 = intervals.iter().map(|i| 1.0 / i).sum();
    let mean_interval = if intervals.is_empty() {
        0.0
    } else {
        intervals.iter().sum::<f64>() / links
    };
    ExperimentReport {
        kind: ExperimentKind::Probing.name().to_string(),
        headline: headline(&[
            ("links", links),
            ("mean_interval_s", mean_interval),
            ("probes_per_s", probes_per_s),
            (
                "overhead_kbps",
                probes_per_s * PROBE_BYTES as f64 * 8.0 / 1000.0,
            ),
        ]),
    }
}

/// Run the disturbance experiment: compile the scenario's fault track
/// anchored at `workload start + warm-up`, sample the disturbed hybrid
/// link, and evaluate the scenario's assertions into a [`Verdict`].
///
/// Fault compilation, the sampling loop and the assertion engine are all
/// pure functions of the scenario and the timeline, so the report *and*
/// the verdict are byte-identical across reruns, worker counts and
/// checkpoint/resume — the same discipline as every other experiment
/// arm.
fn run_disturbance(
    env: &PaperEnv,
    scenario: &ScenarioSpec,
    wl: &WorkloadSpec,
) -> (ExperimentReport, Verdict) {
    let t0 = wl.start() + Duration::from_secs(disturbance::WARMUP_SECS);
    // The scenario validator already rejected unknown coupling sources,
    // so compilation cannot fail here.
    let faults = CompiledFaults::compile(&scenario.disturbances, &scenario.couplings, t0)
        .expect("validated disturbance track compiles");
    let cfg = DisturbanceConfig {
        start: t0,
        duration: wl.duration(),
        sample: wl.sample(),
        probe: Duration::from_secs(1),
    };
    let out = disturbance::run_disturbance(env, &faults, cfg);
    let counters: Vec<(String, f64)> = obs::current()
        .registry()
        .snapshot()
        .counters
        .into_iter()
        .map(|(n, v)| (n, v as f64))
        .collect();
    let verdict = evaluate(&scenario.assertions, &faults, &out.series, &counters, t0);
    let passed = verdict.assertions.iter().filter(|a| a.pass).count();
    let report = ExperimentReport {
        kind: ExperimentKind::Disturbance.name().to_string(),
        headline: headline(&[
            ("samples", out.series.t_s.len() as f64),
            ("disturbances", faults.disturbance_windows().len() as f64),
            ("edges_fired", out.edges_fired as f64),
            ("probe_holds", out.probe_holds as f64),
            ("assertions", verdict.assertions.len() as f64),
            ("assertions_passed", passed as f64),
            ("verdict_pass", if verdict.pass { 1.0 } else { 0.0 }),
            ("max_recovery_s", verdict.max_recovery_s.unwrap_or(0.0)),
        ]),
    };
    (report, verdict)
}

/// A field-less placeholder, kept only because the end-to-end benchmark
/// passes it to [`run_campaign_monitored_opts`]; no run option changes
/// how a run executes.
///
/// [`run_campaign_monitored_opts`]: crate::checkpoint::run_campaign_monitored_opts
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {}

/// Execute one run; the returned record carries the run's own metric
/// snapshot. This is the unit of work every campaign surface shares —
/// the CLI runner, checkpoint/resume and the serve control plane's
/// worker pool all call it, which is what makes their outputs
/// byte-identical.
///
/// `obs` must be **fresh** (its registry becomes the record's metric
/// snapshot), but it may carry an event sink (e.g. a
/// [`ChannelSink`](simnet::obs::ChannelSink) feeding live subscribers).
/// Sinks are inert by the observability invariant, so the returned
/// record is byte-identical with or without one.
pub fn execute_run(
    run: &RunSpec,
    scenario: &ScenarioSpec,
    obs: Obs,
) -> Result<RunRecord, ScenarioError> {
    let setup_span = obs::span::enter("campaign.run_setup");
    let sc = Scenario::load_with_seed(scenario.clone(), run.seed)?;
    let env = PaperEnv::from_testbed(sc.testbed);
    drop(setup_span);
    let _span = obs::span::enter("campaign.run_execute");
    let mut verdict: Option<Verdict> = None;
    let experiments = obs::with_default(obs.clone(), || {
        obs::current()
            .registry()
            .counter("campaign.runs_started")
            .inc();
        run.experiments
            .iter()
            .map(|kind| match kind {
                ExperimentKind::Fig03 => run_fig03(&env, &run.workload),
                ExperimentKind::Fig07 => run_fig07(&env, &run.workload),
                ExperimentKind::Probing => run_probing(&env, sc.spec.probing, &run.workload),
                ExperimentKind::Disturbance => {
                    let (report, v) = run_disturbance(&env, &sc.spec, &run.workload);
                    verdict = Some(v);
                    report
                }
            })
            .collect::<Vec<_>>()
    });
    Ok(RunRecord {
        run: run.run_name.clone(),
        scenario: scenario.name.clone(),
        seed: run.seed,
        workload: run.workload.name.clone(),
        stations: env.testbed.stations.len() as u64,
        plc_links: env.plc_pairs().len() as u64,
        experiments,
        metrics: obs.registry().snapshot(),
        verdict,
    })
}

/// Run (a filtered subset of) a campaign with an explicit worker count.
///
/// Runs are sharded with [`sweep::par_map_workers`]; results come back
/// in expansion order and every run's metrics live in its own snapshot,
/// so the summary is byte-identical for any `workers`.
pub fn run_campaign(
    spec: &CampaignSpec,
    workers: usize,
    filter: Option<&str>,
) -> Result<CampaignSummary, ScenarioError> {
    let runs: Vec<RunSpec> = spec.expand_filtered(filter);
    let results: Vec<Result<RunRecord, ScenarioError>> =
        sweep::par_map_workers(&runs, workers, |_, run| {
            execute_run(run, &spec.scenarios[run.scenario_index], Obs::new())
        });
    let mut records = Vec::with_capacity(results.len());
    for r in results {
        records.push(r?);
    }
    Ok(summarize(spec, &runs, records))
}

/// Assemble the campaign summary from per-run records in expansion
/// order. Shared by the straight-through runner, the checkpoint/resume
/// runner and the serve control plane so all of them produce
/// byte-identical output.
pub fn summarize(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    records: Vec<RunRecord>,
) -> CampaignSummary {
    let mut totals: Vec<(String, f64)> = Vec::new();
    for rec in &records {
        for exp in &rec.experiments {
            for (k, v) in &exp.headline {
                let key = format!("{}.{k}", exp.kind);
                match totals.iter_mut().find(|(n, _)| *n == key) {
                    Some((_, t)) => *t += v,
                    None => totals.push((key, *v)),
                }
            }
        }
    }
    totals.sort_by(|a, b| a.0.cmp(&b.0));
    CampaignSummary {
        campaign: spec.name.clone(),
        config_digest: config_digest(&runs),
        runs: records,
        totals,
    }
}

/// Validate the scenarios a (filtered) work list references without
/// executing anything: each **distinct** scenario is materialised once,
/// under the first seed the work list uses for it. The cost is
/// `O(distinct scenarios)`, not `O(expanded runs)` — a campaign of
/// 3 scenarios × 50 seeds × 4 workloads validates 3 grids, not 600.
/// Returns the number of scenarios materialised.
pub fn validate_scenarios(spec: &CampaignSpec, runs: &[RunSpec]) -> Result<usize, ScenarioError> {
    let mut seen: Vec<usize> = Vec::new();
    for r in runs {
        if seen.contains(&r.scenario_index) {
            continue;
        }
        seen.push(r.scenario_index);
        let scenario = spec.scenarios[r.scenario_index].clone();
        Scenario::load_with_seed(scenario, r.seed).map_err(|e| {
            ScenarioError::invalid(
                format!("scenarios[{}]", r.scenario_index),
                format!("run {}: {e}", r.run_name),
            )
        })?;
    }
    Ok(seen.len())
}

/// Write per-run manifests plus `summary.json` under `out_dir`.
/// All files are written by the coordinator, never by workers.
pub fn write_artifacts(summary: &CampaignSummary, out_dir: &Path) -> Result<(), ScenarioError> {
    let _span = obs::span::enter("campaign.emit");
    let io_err = |path: &Path, e: std::io::Error| ScenarioError::Io {
        path: path.to_string_lossy().into_owned(),
        message: e.to_string(),
    };
    std::fs::create_dir_all(out_dir).map_err(|e| io_err(out_dir, e))?;
    for run in &summary.runs {
        let path = out_dir.join(format!("{}.manifest.json", run.run));
        let json = serde_json::to_string_pretty(run).expect("serialization is infallible");
        std::fs::write(&path, json).map_err(|e| io_err(&path, e))?;
    }
    let path = out_dir.join("summary.json");
    let json = serde_json::to_string_pretty(summary).expect("serialization is infallible");
    std::fs::write(&path, json).map_err(|e| io_err(&path, e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_CAMPAIGN: &str = r#"{
        "name": "unit",
        "scenarios": [
            {"name": "gen-a", "grid": {"generator": {
                "floors": 1, "boards_per_floor": 1,
                "offices_per_board": 3, "stations_per_board": 2}}},
            {"name": "gen-b", "grid": {"generator": {
                "floors": 1, "boards_per_floor": 2,
                "offices_per_board": 2, "stations_per_board": 2}}}
        ],
        "seeds": [1, 2],
        "workloads": [
            {"name": "w", "duration_s": 2.0, "sample_ms": 500, "max_pairs": 2}
        ],
        "experiments": ["probing"]
    }"#;

    fn tiny() -> CampaignSpec {
        CampaignSpec::from_json_str(TINY_CAMPAIGN, Path::new(".")).expect("valid campaign")
    }

    #[test]
    fn expansion_is_scenario_major_and_names_are_unique() {
        let runs = tiny().expand();
        assert_eq!(runs.len(), 4);
        let names: Vec<&str> = runs.iter().map(|r| r.run_name.as_str()).collect();
        assert_eq!(
            names,
            ["gen-a-s1-w", "gen-a-s2-w", "gen-b-s1-w", "gen-b-s2-w"]
        );
    }

    #[test]
    fn filter_narrows_the_work_list() {
        let spec = tiny();
        let summary = run_campaign(&spec, 1, Some("gen-b")).expect("runs");
        assert_eq!(summary.runs.len(), 2);
        assert!(summary.runs.iter().all(|r| r.scenario == "gen-b"));
    }

    #[test]
    fn summary_is_byte_identical_across_worker_counts() {
        let spec = tiny();
        let s1 = run_campaign(&spec, 1, None).expect("runs");
        let s4 = run_campaign(&spec, 4, None).expect("runs");
        assert_eq!(
            serde_json::to_string_pretty(&s1),
            serde_json::to_string_pretty(&s4)
        );
        assert_eq!(s1.runs.len(), 4);
        // Each run carries its own metrics, not a shared registry.
        for r in &s1.runs {
            assert_eq!(r.metrics.counter("campaign.runs_started"), 1);
        }
    }

    #[test]
    fn dry_run_validation_is_per_scenario_not_per_run() {
        // 2 scenarios × 2 seeds × 1 workload expands to 4 runs, but a
        // dry run must materialise each distinct scenario exactly once.
        let spec = tiny();
        let runs = spec.expand();
        assert_eq!(runs.len(), 4);
        let validated = validate_scenarios(&spec, &runs).expect("valid scenarios");
        assert_eq!(validated, 2);

        // A filter that keeps a single scenario validates just that one.
        let filtered: Vec<RunSpec> = spec
            .expand()
            .into_iter()
            .filter(|r| r.run_name.contains("gen-b"))
            .collect();
        assert_eq!(validate_scenarios(&spec, &filtered).expect("valid"), 1);
    }

    #[test]
    fn campaign_errors_name_offending_fields() {
        let err = CampaignSpec::from_json_str(r#"{"scenarios": []}"#, Path::new(".")).unwrap_err();
        assert_eq!(err.field(), Some("name"));

        let dup = TINY_CAMPAIGN.replace("gen-b", "gen-a");
        let err = CampaignSpec::from_json_str(&dup, Path::new(".")).unwrap_err();
        assert_eq!(err.field(), Some("scenarios[1]"));
        assert!(err.to_string().contains("duplicate scenario name"));

        let err = CampaignSpec::from_json_str(
            r#"{"name": "x", "scenarios": ["builtin://imc2015-floor"], "seeds": [3, 3]}"#,
            Path::new("."),
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("seeds[1]"));
    }
}
