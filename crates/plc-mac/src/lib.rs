//! # plc-mac — the IEEE 1901 (HomePlug AV) MAC layer
//!
//! Implements the MAC machinery the paper's measurements go through
//! (paper §2.2, Fig. 1):
//!
//! * [`timing`] — slot, inter-frame-space and frame-duration constants.
//! * [`csma`] — the 1901 CSMA/CA backoff engine, including the **deferral
//!   counter**: unlike 802.11, stations escalate their contention window
//!   not only on collisions but also after sensing the medium busy.
//! * [`pb`] — two-level frame aggregation: Ethernet packets are segmented
//!   into 512-byte **physical blocks** (PBs), PBs are merged into PLC
//!   frames, and a **selective acknowledgment** (SACK) retransmits only
//!   the corrupted PBs.
//! * [`frame`] — the **start-of-frame (SoF) delimiter** carrying the BLE
//!   that the paper's capacity estimation reads, and sniffer records.
//! * [`sim`] — an event-driven contention-domain simulation: stations,
//!   default-class traffic flows, channel estimation, tone-map exchange,
//!   SACKs, collisions with the capture effect, beacons, broadcast (ROBO)
//!   frames and a sniffer. Its `int6krate`, `ampstat`, `ble_slot` and
//!   `reset_device` methods answer the Open Powerline Toolkit queries the
//!   paper issues (§3.2); CCos are pinned statically, as in the paper's
//!   testbed, so no election is modelled.
//! * [`throughput`] — an analytic saturation-throughput model (BLE and
//!   PBerr in, UDP goodput out) used by long-horizon experiments where
//!   frame-level simulation would be wasteful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csma;
pub mod frame;
pub mod pb;
pub mod reference;
mod scratch;
pub mod sim;
pub mod throughput;
pub mod timing;

pub use csma::BackoffState;
pub use frame::{SofDelimiter, SofRecord};
pub use sim::{Flow, PlcSim, SimConfig, StationId};
pub use throughput::saturation_throughput_mbps;
