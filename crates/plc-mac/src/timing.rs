//! IEEE 1901 / HomePlug AV MAC timing constants.
//!
//! Values follow the 1901 CSMA/CA parameterization used in the paper's
//! companion MAC studies (Vlachou et al., ICNP 2014 — reference \[19\] of
//! the paper).

use simnet::time::Duration;

/// Duration of one contention (backoff) slot.
pub const SLOT: Duration = Duration::from_nanos(35_840);

/// Number of priority-resolution slots preceding contention (PRS0, PRS1).
pub const PRS_SLOTS: u64 = 2;

/// Contention inter-frame space: gap after a SACK before the next
/// priority-resolution period.
pub const CIFS: Duration = Duration::from_micros(100);

/// Response inter-frame space: gap between the end of a frame and its
/// SACK.
pub const RIFS: Duration = Duration::from_micros(140);

/// Duration of the PHY preamble plus frame-control symbol that precedes
/// every frame's payload (also the duration of a SACK delimiter, which is
/// frame-control only).
pub const PREAMBLE: Duration = Duration::from_nanos(110_480);

/// Maximum duration of a PLC frame's payload (IEEE 1901).
pub const MAX_FRAME: Duration = Duration::from_nanos(2_501_120);

/// Portion of each beacon period reserved for the central beacon and
/// associated management region: the medium is unavailable to CSMA data.
pub const BEACON_REGION: Duration = Duration::from_micros(3_200);

/// Fraction of a frame's airtime carrying useful payload bits after PB
/// padding, partial last symbols and tone-map-slot truncation. Calibrated
/// together with [`EXCHANGE_EXTRA`] so saturation goodput matches the
/// paper's Fig. 15 fit, BLE = 1.7 T − 0.65; the event simulation and the
/// analytic model in `throughput` both read it.
pub(crate) const FRAME_EFFICIENCY: f64 = 0.82;

/// Extra per-exchange dead time beyond the standard IFSs (management
/// traffic, tone-map exchange, aggregation slack).
pub(crate) const EXCHANGE_EXTRA: Duration = Duration::from_micros(150);

/// The fixed overhead of one successful frame exchange, excluding backoff
/// slots and the frame payload itself:
/// PRS0 + PRS1 + preamble + RIFS + SACK + CIFS.
pub fn frame_exchange_overhead() -> Duration {
    SLOT * PRS_SLOTS + PREAMBLE + RIFS + PREAMBLE + CIFS
}

/// Fraction of the beacon period left for CSMA data.
pub fn csma_region_fraction() -> f64 {
    let bp = simnet::time::BEACON_PERIOD.as_secs_f64();
    1.0 - BEACON_REGION.as_secs_f64() / bp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_adds_up() {
        let oh = frame_exchange_overhead();
        // 71.68 + 110.48 + 140 + 110.48 + 100 = 532.64 µs
        assert!((oh.as_micros_f64() - 532.64).abs() < 0.01, "{oh}");
    }

    #[test]
    fn csma_fraction_is_most_of_the_beacon_period() {
        let f = csma_region_fraction();
        assert!((0.9..0.95).contains(&f), "f={f}");
    }

    #[test]
    fn max_frame_holds_many_symbols() {
        let syms = MAX_FRAME.as_micros_f64() / plc_phy::carrier::SYMBOL_US;
        assert!(syms > 50.0 && syms < 60.0, "syms={syms}");
    }
}
