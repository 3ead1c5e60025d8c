//! `electrifi-faults` — disturbance scripting and the in-sim assertion
//! engine.
//!
//! The paper's §7 claim is that the hybrid WiFi+PLC layer *adapts* to
//! medium dynamics; a static scenario never exercises that machinery.
//! This crate supplies the missing dynamics as a typed subsystem with
//! three layers:
//!
//! 1. **Specs** ([`DisturbanceSpec`], [`CouplingSpec`],
//!    [`AssertionSpec`]) — the vocabulary the scenario schema's
//!    `disturbances` / `couplings` / `assertions` arrays parse into:
//!    appliance surges, breaker trips isolating a distribution board,
//!    cable-degradation ramps, WiFi jamming bursts and probe dropouts,
//!    plus delayed couplings (event A triggers effect B after d ms).
//! 2. **Profiles** ([`LinkOverlay`], [`JamProfile`], [`DropoutProfile`],
//!    [`OutageProfile`]) — compiled, *pure functions of simulation time*
//!    that the medium models evaluate inline. Purity is the determinism
//!    story: an overlay cannot observe execution shape, so sharded,
//!    chunked and serial runs see bit-identical channels.
//! 3. **Verdicts** ([`Verdict`], [`evaluate`]) — declarative invariants
//!    evaluated against the measured series of a disturbed run, emitted
//!    as a typed pass/fail block that gates campaigns (exit code 5).
//!
//! [`CompiledFaults::compile`] turns specs into profiles anchored at a
//! measurement start time; [`FaultEngine`] is the run-time cursor over
//! the boundary-event timeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod profile;
mod spec;
mod verdict;

pub use engine::{CompiledFaults, FaultEngine, ResolvedWindow};
pub use profile::{
    DropoutProfile, JamProfile, JamWindow, LinkOverlay, OutageProfile, OverlayWindow,
};
pub use spec::{AssertionSpec, CouplingSpec, DisturbanceKind, DisturbanceSpec, ISOLATION_DB};
pub use verdict::{evaluate, AssertionResult, SeriesSet, Verdict, VerdictWindow};
