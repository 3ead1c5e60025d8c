//! Expected transmission count (ETX) metrics.
//!
//! Classic mesh routing estimates ETX from **broadcast** probe loss rates
//! (De Couto et al.; paper references \[7\], \[8\]): `ETX = 1/(df·dr)`. The
//! paper shows this is nearly useless on PLC (§8.1): broadcast frames use
//! the most robust (ROBO) modulation and are acknowledged by a proxy, so
//! loss rates sit around 10⁻⁴ for links of wildly different quality —
//! "nothing can be conjectured for link quality from low loss rates".
//!
//! The honest alternative, and the one metric this module computes, is
//! the **unicast ETX (U-ETX)**: count the frames each unicast packet
//! actually needed (retransmissions included). U-ETX correlates with BLE
//! and almost linearly with PBerr (Fig. 22).

use serde::{Deserialize, Serialize};
use simnet::stats::RunningStats;

/// U-ETX summary over the per-packet transmission counts of a unicast
/// flow (paper §8.1: "U-ETX is measured by averaging the number of PLC
/// retransmissions for all packets transmitted during the experiment",
/// with error bars showing the standard deviation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UEtx {
    /// Mean transmissions per packet (≥ 1).
    pub mean: f64,
    /// Standard deviation of the transmission count.
    pub std: f64,
    /// Packets measured.
    pub packets: u64,
}

impl UEtx {
    /// Compute from per-packet frame counts.
    pub fn from_tx_counts(counts: &[u32]) -> Option<UEtx> {
        if counts.is_empty() {
            return None;
        }
        let mut stats = RunningStats::new();
        for &c in counts {
            stats.push(c as f64);
        }
        Some(UEtx {
            mean: stats.mean(),
            std: stats.std(),
            packets: stats.count(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uetx_from_counts() {
        let u = UEtx::from_tx_counts(&[1, 1, 2, 1, 3]).unwrap();
        assert!((u.mean - 1.6).abs() < 1e-12);
        assert!(u.std > 0.0);
        assert_eq!(u.packets, 5);
        assert!(UEtx::from_tx_counts(&[]).is_none());
    }
}
