//! # hybrid1905 — the hybrid-network abstraction layer
//!
//! IEEE 1905 defines abstraction layers for topology, link metrics and
//! forwarding across heterogeneous home-network technologies, but is
//! deliberately technology-agnostic: "it does not provide any forwarding
//! nor metric-estimation methods" (paper §1). The two metrics it
//! requires, capacity (BLE) and loss (PBerr), are measured where the
//! paper reads them: in `plc_phy::estimation` and the `electrifi` crate's
//! `LinkProbeSim`. This crate supplies what the paper builds on top:
//!
//! * [`probing`] — probing policies: fixed-interval baselines and the
//!   paper's quality-adaptive policy (§7.3: bad links probed every 5 s,
//!   average links 8× slower, good links 16× slower), plus the
//!   estimation-error evaluation behind Fig. 19.
//! * [`etx`] — expected transmission count: broadcast-probe ETX (which
//!   the paper shows is uninformative on PLC, §8.1) and unicast U-ETX.
//! * [`gated`] — probe-fed capacity estimation gated by the fault
//!   track's probe-dropout windows: during a sensing outage the last
//!   estimate is held stale, the failure mode the assertion engine's
//!   `estimate-within` invariant quantifies.
//! * [`balancer`] — the §7.4 load-balancing algorithm: capacity-weighted
//!   probabilistic packet splitting across mediums, a round-robin
//!   baseline, destination-side in-order release (the paper's IP-id
//!   reordering), throughput/jitter accounting, and file-completion
//!   times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balancer;
pub mod etx;
pub mod gated;
pub mod probing;

pub use balancer::{combine_streams, CombinedDelivery, SplitStrategy};
pub use gated::GatedEstimator;
pub use probing::ProbingPolicy;
