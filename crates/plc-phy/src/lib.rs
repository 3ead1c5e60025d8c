//! # plc-phy — HomePlug AV / IEEE 1901 physical layer
//!
//! This crate implements the PLC PHY that the paper measures through its
//! link metrics:
//!
//! * [`carrier`] — the OFDM carrier plans of HomePlug AV (917 carriers,
//!   1.8–30 MHz) and HomePlug AV500 (extended to 68 MHz), with symbol
//!   timing.
//! * [`modulation`] — per-carrier modulations (BPSK … 1024-QAM), SNR
//!   thresholds and symbol-error probabilities. Unlike 802.11n, **each
//!   carrier can use a different modulation** — the root of PLC's low
//!   temporal variance (paper §4.1).
//! * [`tonemap`] — tone maps (the per-carrier modulation tables exchanged
//!   between stations), the six tone-map slots over the half mains cycle,
//!   and the **Bit Loading Estimate** of IEEE 1901 Eq. (1): the paper's
//!   central capacity metric.
//! * [`channel`] — the physical channel between two outlets of a
//!   [`simnet::grid::Grid`]: multipath transfer function from impedance
//!   discontinuities, receiver-local noise with the paper's three
//!   timescales (invariance / cycle / random), and the direction
//!   asymmetry of §5.
//! * [`estimation`] — the (vendor-specific in real devices) channel
//!   estimation algorithm: sound-frame bootstrap, convergence over
//!   samples, tone-map refresh on PB-error thresholds and 30 s expiry,
//!   statistics persistence, and the sub-PB probe pathology of §7.2.
//! * [`error`] — the PB (physical block) error model linking tone-map
//!   aggressiveness and instantaneous channel state to `PBerr`, the
//!   paper's loss-rate metric.
//! * [`kernels`] — the structure-of-arrays per-carrier kernels behind
//!   the spectrum cache: lane-chunked loops LLVM autovectorizes, with
//!   scalar twins the reference evaluator uses so cached and reference
//!   spectra stay bit-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod carrier;
pub mod channel;
pub mod error;
pub mod estimation;
pub mod kernels;
pub mod modulation;
pub mod tonemap;

pub use carrier::{CarrierPlan, PlcTechnology};
pub use channel::{PlcChannel, SnrSpectrum};
pub use estimation::{ChannelEstimator, EstimatorStats};
pub use modulation::Modulation;
pub use tonemap::{Ble, ToneMap, ToneMapSet, TONEMAP_SLOTS};
