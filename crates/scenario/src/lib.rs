//! # electrifi-scenario — declarative scenarios and campaign sweeps
//!
//! The hard-coded experiments in `electrifi` always run over the paper's
//! 19-station floor. This crate makes the whole stack
//! **scenario-parameterised**: a JSON document declares the electrical
//! grid (a named builtin, a procedural office-building generator, or an
//! explicit node/cable/appliance list), station placement, the traffic
//! workload, the probing policy and the experiment selection — and a
//! campaign file sweeps scenarios × seeds × workloads over the
//! deterministic sharded sweep machinery in `electrifi-testbed`.
//!
//! Layers:
//!
//! * [`spec`] — the schema ([`ScenarioSpec`] and friends) with
//!   hand-rolled, path-tracking JSON decoding ([`de`]): every malformed
//!   document produces a [`ScenarioError`] naming the offending field.
//! * [`loader`] — materialises specs into validated
//!   [`Testbed`](electrifi_testbed::Testbed)s through the fallible
//!   `Grid::try_*` API; `builtin://imc2015-floor` reproduces the paper
//!   floor bit-for-bit.
//! * [`generate`] — the procedural generator: floors × boards ×
//!   offices, cable-length distributions, appliance mix; fully
//!   deterministic per seed.
//! * [`campaign`] — campaign expansion, [`execute_run`] (the one unit
//!   of work every surface shares) and the sharded runner whose summary
//!   JSON is byte-identical across reruns **and** worker counts.
//! * [`checkpoint`] — [`run_campaign_monitored_opts`], the same runner
//!   with checkpoint/resume and live telemetry; its output is
//!   byte-identical to [`run_campaign`]'s.
//!
//! The `electrifi-bench` crate ships the `campaign` binary driving all
//! of this from the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
pub mod campaign;
pub mod checkpoint;
pub mod de;
pub mod disturbance;
pub mod error;
pub mod generate;
pub mod loader;
pub mod spec;
pub mod telemetry;

pub use campaign::{
    execute_run, run_campaign, summarize, validate_scenarios, write_artifacts, CampaignSpec,
    CampaignSummary, ExecOptions, RunRecord, RunSpec,
};
pub use checkpoint::{
    load_checkpoint_classified, run_campaign_monitored_opts, write_checkpoint, CampaignOutcome,
    CheckpointOptions, CheckpointState, CheckpointStats, CHECKPOINT_FILE,
};
pub use error::ScenarioError;
pub use loader::Scenario;
pub use spec::{ExperimentKind, GridSpec, ScenarioSpec, WorkloadSpec};
pub use telemetry::{ProgressSnapshot, RunCompletion, Telemetry, TelemetryOptions};
