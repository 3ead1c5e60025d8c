//! `campaign-sweep`: a seed-generated campaign through the public
//! checkpointing runner `run_campaign_monitored_opts`, cut by
//! `stop_after` and resumed, then `write_artifacts`.
//!
//! Why: enterprise PLC planning sweeps many generated floors, not just
//! the paper's. Most of the time goes to scenario materialisation (grid
//! build, `PaperEnv::from_testbed`, static spectrum builds), short
//! estimator windows, the fault engine and checkpoint writes and reads.
//! It never runs the PLC MAC simulator, so a MAC change should leave it
//! flat.

use crate::measure::{self, digest};
use crate::{gen, paper, pins};
use crate::{Ctx, Layer, Ops, Workload};
use electrifi::PaperEnv;
use electrifi_faults::CompiledFaults;
use electrifi_scenario::{
    run_campaign_monitored_opts, validate_scenarios, write_artifacts, CampaignOutcome,
    CampaignSpec, CheckpointOptions, ExecOptions, RunCompletion, Scenario, TelemetryOptions,
};
use simnet::obs::{self, span};
use simnet::time::Time;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sim-seconds of completed runs between periodic checkpoints.
const CHECKPOINT_EVERY_SIM_S: f64 = 10.0;
/// Fault-track compilations timed per traced run for `faults.compile_s`.
const COMPILES: u32 = 200;

pub struct Sweep {
    seed: u64,
    workers: usize,
    spec: CampaignSpec,
    out: PathBuf,
    follow: PathBuf,
    /// Digest of the first pass's `summary.json`; later passes must
    /// repeat it.
    first: Option<u64>,
    run_secs: Vec<f64>,
    compile_s: f64,
}

impl Workload for Sweep {
    const NAME: &'static str = "campaign-sweep";
    const TAIL_CAP: u32 = 75;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let json = gen::sweep_campaign(ctx.seed);
        let spec = {
            let _span = span::enter("bench.parse");
            CampaignSpec::from_json_str(&json, Path::new(".")).map_err(|e| e.to_string())?
        };
        {
            // Validation materialises every distinct scenario's grid.
            let _span = span::enter("bench.env_build");
            validate_scenarios(&spec, &spec.expand()).map_err(|e| e.to_string())?;
        }
        Ok(Sweep {
            seed: ctx.seed,
            workers: ctx.nproc,
            spec,
            out: ctx.work.join("campaign"),
            follow: ctx.work.join("follow.jsonl"),
            first: None,
            run_secs: Vec::new(),
            compile_s: 0.0,
        })
    }

    fn pass(&mut self, ops: &mut Ops) -> Vec<f64> {
        let _ = std::fs::remove_dir_all(&self.out);
        let _ = std::fs::remove_file(&self.follow);
        let total = self.spec.expand().len();
        let telemetry = TelemetryOptions {
            follow: Some(self.follow.clone()),
            ..TelemetryOptions::default()
        };
        let exec = ExecOptions::default();
        let t0 = Instant::now();
        let cut = CheckpointOptions {
            every_sim_secs: Some(CHECKPOINT_EVERY_SIM_S),
            stop_after: Some(total / 2),
            ..CheckpointOptions::default()
        };
        let first = {
            let _span = span::enter("bench.campaign");
            run_campaign_monitored_opts(
                &self.spec,
                self.workers,
                None,
                &self.out,
                &cut,
                &telemetry,
                &exec,
            )
        };
        let resume = CheckpointOptions {
            every_sim_secs: Some(CHECKPOINT_EVERY_SIM_S),
            resume_from: Some(self.out.clone()),
            ..CheckpointOptions::default()
        };
        let result = match first {
            Ok((CampaignOutcome::Checkpointed { .. }, _)) => {
                let _span = span::enter("bench.resume");
                run_campaign_monitored_opts(
                    &self.spec,
                    self.workers,
                    None,
                    &self.out,
                    &resume,
                    &telemetry,
                    &exec,
                )
            }
            Ok((CampaignOutcome::Complete(_), _)) => {
                Err(electrifi_scenario::ScenarioError::invalid(
                    "stop_after",
                    "the first leg was expected to stop at its checkpoint",
                ))
            }
            Err(e) => Err(e),
        };
        let summary = match result {
            Ok((CampaignOutcome::Complete(summary), _)) => summary,
            Ok((CampaignOutcome::Checkpointed { completed, .. }, _)) => {
                for _ in 0..total {
                    ops.fail(&format!("resumed campaign stopped after {completed} runs"));
                }
                return vec![t0.elapsed().as_secs_f64()];
            }
            Err(e) => {
                for _ in 0..total {
                    ops.fail(&format!("campaign: {e}"));
                }
                return vec![t0.elapsed().as_secs_f64()];
            }
        };
        let written = write_artifacts(&summary, &self.out);
        let wall = t0.elapsed().as_secs_f64();
        if obs::span::is_enabled() {
            // Run records carry their own counters; fold them into the
            // traced registry so the layer split sees the runs' work.
            for rec in &summary.runs {
                obs::current().registry().absorb(&rec.metrics);
            }
        }

        // Checks: every run finished (from the follow stream, which also
        // gives each run's latency), every disturbance verdict passed,
        // and summary.json matches the pinned or first-pass digest.
        let lines = std::fs::read_to_string(&self.follow).unwrap_or_default();
        let done: Vec<RunCompletion> = lines
            .lines()
            .filter_map(|l| serde_json::from_str(l).ok())
            .collect();
        for run in &done {
            if run.ok {
                ops.done(run.wall_ms / 1000.0);
                self.run_secs.push(run.wall_ms / 1000.0);
            } else {
                ops.fail(&format!("run {} failed", run.run));
            }
        }
        if done.len() != total {
            ops.mismatch(&format!("{} of {total} runs reported", done.len()));
        }
        for rec in &summary.runs {
            if let Some(v) = &rec.verdict {
                if !v.pass {
                    ops.mismatch(&format!("run {} verdict failed, pinned pass", rec.run));
                }
            } else if rec.scenario == "disturbance-demo" {
                ops.mismatch(&format!("run {} has no verdict", rec.run));
            }
        }
        let read = written
            .map_err(|e| e.to_string())
            .and_then(|()| std::fs::read(self.out.join("summary.json")).map_err(|e| e.to_string()));
        let bytes = match read {
            Ok(b) => b,
            Err(e) => {
                ops.mismatch(&format!("artifacts: {e}"));
                return vec![wall];
            }
        };
        let d = digest(&bytes);
        match self.first.or_else(|| pins::sweep(self.seed)) {
            Some(want) if want != d => ops.mismatch(&format!(
                "summary.json digest {d:#018x}, expected {want:#018x}"
            )),
            Some(_) => {}
            None => eprintln!(
                "note: seed {} has no pinned summary digest; pass 1 gave {d:#018x}",
                self.seed
            ),
        }
        self.first.get_or_insert(d);
        vec![wall]
    }

    fn probe(&mut self) {
        // Channel construction over the Fig. 3 pair set of every
        // scenario under every seed: the channels each run builds again
        // for its fig03 experiment.
        for sc in &self.spec.scenarios {
            for &seed in &self.spec.seeds {
                if let Ok(scenario) = Scenario::load_with_seed(sc.clone(), seed) {
                    paper::static_build(&PaperEnv::from_testbed(scenario.testbed));
                }
            }
        }
        // The fault engine's compile step, timed on the disturbance
        // scenario's own track through the public faults API.
        let Some(sc) = self
            .spec
            .scenarios
            .iter()
            .find(|s| !s.disturbances.is_empty())
        else {
            return;
        };
        let t0 = Instant::now();
        for _ in 0..COMPILES {
            let compiled =
                CompiledFaults::compile(&sc.disturbances, &sc.couplings, Time::from_hours(10));
            std::hint::black_box(compiled.is_ok());
        }
        self.compile_s = t0.elapsed().as_secs_f64() / f64::from(COMPILES);
    }

    fn workers(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("host.workers.threads", self.workers),
            ("host.workers.campaign", self.workers),
        ]
    }

    fn layers(&self) -> Vec<Layer> {
        vec![
            ("scenario.run_p50_s", measure::median(&self.run_secs)),
            ("faults.compile_s", self.compile_s),
        ]
    }
}
