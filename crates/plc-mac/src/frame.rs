//! Start-of-frame delimiters and sniffer records.
//!
//! Every PLC frame is preceded by a frame-control symbol — the
//! **start-of-frame (SoF) delimiter** — decodable by every station on the
//! medium regardless of tone maps. It carries, among PHY/MAC parameters,
//! the **BLE** of the tone map in use (paper §2.2). The paper's sniffer
//! mode captures SoF delimiters of all received frames (Table 2: arrival
//! timestamp `t` and `BLE` are "measured with: SoF delimiter").

use serde::{Deserialize, Serialize};
use simnet::time::Time;

/// The start-of-frame delimiter contents relevant to the measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SofDelimiter {
    /// Transmitting station.
    pub src: u16,
    /// Destination station (or `u16::MAX` for broadcast).
    pub dst: u16,
    /// Bit loading estimate of the tone map in use, Mb/s.
    pub ble_mbps: f64,
    /// Tone-map identification (MCS-index analogue).
    pub tonemap_id: u32,
    /// Tone-map slot the frame is transmitted in.
    pub slot: u8,
    /// Frame payload length in OFDM symbols.
    pub n_symbols: u64,
}

/// One sniffer capture: a SoF delimiter with its arrival timestamp, which
/// is exactly what the paper's measurement tooling records.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SofRecord {
    /// Arrival (capture) time.
    pub t: Time,
    /// The captured delimiter.
    pub sof: SofDelimiter,
}
