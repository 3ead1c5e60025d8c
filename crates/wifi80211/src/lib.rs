//! # wifi80211 — the 802.11n side of the hybrid network
//!
//! The paper contrasts PLC against 802.11n (2 spatial streams, 20 MHz,
//! 130 Mb/s max PHY rate — §4.1 footnote 5). The decisive architectural
//! difference it highlights: **all WiFi carriers share one modulation**
//! (the MCS index), so any fade forces the whole band down a rate step,
//! whereas PLC adapts each carrier independently (paper §2.1, §4.1:
//! "PLC reacts more efficiently to bursty errors than WiFi, which has to
//! lower the rate at all carriers"). That asymmetry produces WiFi's much
//! higher throughput variance (σ_W up to 19.2 Mb/s vs σ_P ≤ 3.8 Mb/s).
//!
//! * [`mcs`] — the 802.11n MCS table (index, PHY rate, SNR requirement).
//! * [`channel`] — indoor channel: log-distance path loss, wall
//!   attenuation, static shadowing, and temporal fading dominated by
//!   human activity and co-channel interference bursts.
//! * [`rate`] — SNR-driven rate adaptation with hysteresis (whole-band,
//!   MCS-indexed — the contrast to PLC tone maps).
//! * [`sim`] — packet-level DCF simulation with A-MPDU aggregation and
//!   block acknowledgments.
//! * [`throughput`] — analytic saturation goodput for long-horizon
//!   experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod mcs;
pub mod rate;
pub mod sim;
pub mod throughput;

pub use channel::WifiChannel;
pub use mcs::Mcs;
pub use rate::RateAdapter;
pub use sim::{WifiFlow, WifiSim};
