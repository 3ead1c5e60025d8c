//! # electrifi — "Electri-Fi Your Data" (IMC 2015) in Rust
//!
//! A full reproduction of *Vlachou, Henri, Thiran: "Electri-Fi Your Data:
//! Measuring and Combining Power-Line Communications with WiFi"* (IMC
//! 2015) on a simulated substrate (see `DESIGN.md` at the repository root
//! for the hardware→simulation substitution table).
//!
//! The paper's contribution — PLC link metrics (BLE, PBerr), their
//! spatio-temporal variation, a BLE-based capacity-estimation technique,
//! probing guidelines, and a hybrid WiFi+PLC load balancer — lives here,
//! built on the substrate crates:
//!
//! | crate | role |
//! |---|---|
//! | [`simnet`] | discrete-event core, electrical grid, traffic, stats |
//! | [`plc_phy`] | HomePlug AV PHY: carriers, tone maps, BLE, channel, estimation |
//! | [`plc_mac`] | IEEE 1901 MAC: PBs, SACK, CSMA/CA + deferral counters |
//! | [`wifi80211`] | 802.11n: MCS, channel, rate adaptation, DCF |
//! | [`hybrid1905`] | IEEE 1905-style metrics, probing policies, balancer |
//! | [`electrifi_testbed`] | the 19-station office floor of Fig. 2 |
//!
//! This crate adds:
//!
//! * [`env`](mod@crate::env) — one-stop experiment environment (testbed + calibrated
//!   model parameters).
//! * [`probesim`] — a channel-in-the-loop estimator driver: the minimal
//!   machinery to measure BLE/PBerr on one link over arbitrary horizons
//!   without a full MAC simulation.
//! * [`analysis`] — link classification (good/average/bad, §7.3) and the
//!   three-timescale decomposition of §6 (Eq. 2).
//! * [`guidelines`] — Table 3's link-metric estimation guidelines as
//!   typed, testable policy data.
//! * [`experiments`] — one runner per figure/table of the evaluation;
//!   the `electrifi-bench` binaries print their outputs.

#![warn(missing_docs)]

pub mod analysis;
pub mod env;
pub mod experiments;
pub mod guidelines;
pub mod probesim;

pub use env::PaperEnv;
pub use probesim::LinkProbeSim;
