//! # simnet — simulation substrate for the Electri-Fi reproduction
//!
//! This crate provides everything below the PHY layers of the reproduced
//! system:
//!
//! * [`time`] — nanosecond-resolution simulation time with mains-cycle
//!   helpers (the PLC PHY is locked to the AC line cycle).
//! * [`rng`] — reproducible, independently-seeded random-number streams and
//!   the distributions the channel models need (normal, exponential,
//!   Bernoulli), implemented locally so the only external
//!   randomness dependency is the `rand` core.
//! * [`grid`] — the electrical network: distribution boards, cables,
//!   outlets, junctions, and the appliances plugged into them. PLC signals
//!   propagate over this graph; cable distance and impedance mismatches are
//!   derived from it.
//! * [`appliance`] — a library of electrical appliances with impedance,
//!   noise profiles (including mains-synchronous noise) and time-of-day
//!   schedules.
//! * [`geometry`] — 2-D floor geometry for the WiFi path-loss model.
//! * [`traffic`] — traffic generators (saturated UDP, CBR probes, probe
//!   bursts, file transfers) mirroring the paper's `iperf` workloads.
//! * [`stats`] — running statistics, ECDFs, linear fits and correlations
//!   used throughout the measurement analysis.
//! * [`trace`] — time-series capture utilities for experiment outputs.
//! * [`obs`] — sim-time observability: a metrics registry, a structured
//!   event log, and run manifests, guaranteed never to perturb a run.
//! * [`threads`] — validated worker-count parsing (`ELECTRIFI_THREADS`,
//!   `--workers`) with typed errors naming the misconfigured source.
//!
//! The design follows the smoltcp idiom: synchronous, event-driven,
//! allocation-conscious, with no async runtime — the whole system is a
//! deterministic simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appliance;
pub mod geometry;
pub mod grid;
pub mod noise;
pub mod obs;
pub mod rng;
pub mod schedule;
pub mod stats;
pub mod threads;
pub mod time;
pub mod trace;
pub mod traffic;

pub use obs::{MetricsSnapshot, Obs, ObsEvent, ObsSink, Registry, RunManifest};
pub use rng::{Distributions, RngPool};
pub use time::{Duration, Time};
