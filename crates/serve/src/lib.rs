//! `electrifi-serve`: a long-lived campaign control plane.
//!
//! The `campaign` binary runs one campaign and exits; this crate turns
//! the same machinery into a **service**: a dependency-free HTTP/1.1
//! control plane (TCP or unix socket) in front of a bounded job queue,
//! a pool of work-stealing shard workers, and live result streaming.
//!
//! Layering, bottom-up:
//!
//! * [`queue`] — the scheduler as a pure data structure (leases, work
//!   stealing, cancellation, worker death); property-tested without
//!   threads.
//! * [`events`] — bounded per-job broadcast rings with drop-counted
//!   backpressure for `/events` subscribers.
//! * [`metrics`] — atomic serve counters snapshotted into the
//!   workspace's standard `MetricsSnapshot` shape.
//! * [`http`] / [`client`] — the minimal HTTP/1.1 subset both sides of
//!   the wire protocol (DESIGN.md §12) speak.
//! * [`pool`] — workers executing leased shards through the scenario
//!   crate's `execute_run` (the same single run path the `campaign` CLI
//!   takes), checkpointing in the CLI's snapshot format so a dead
//!   worker's shard resumes instead of restarting.
//! * [`server`] — the listener, routes and lifecycle tying it together.
//!
//! The headline invariant: a campaign's `summary.json` served over
//! `/campaigns/:id/results` is **byte-identical** to what the
//! `campaign` CLI writes for the same spec — across worker counts,
//! cancellation of unrelated jobs, and even a worker killed mid-shard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod events;
pub mod http;
pub mod metrics;
pub(crate) mod pool;
pub mod queue;
pub mod server;

pub use client::{ClientResponse, Endpoint, HttpClient};
pub use server::{Bind, ServeConfig, Server};
