//! Analytic saturation-throughput model.
//!
//! Long-horizon experiments (days or weeks of simulated time, Figs. 12-14)
//! cannot afford frame-level simulation; they need the expected UDP
//! goodput given the link's current BLE and PBerr. The model accounts for
//! the same mechanics the event simulation implements:
//!
//! * per-exchange fixed overhead (PRS, mean backoff, preamble, RIFS,
//!   SACK, CIFS),
//! * the maximum frame duration,
//! * the beacon region,
//! * padding/segmentation waste (PB headers, partial last symbols,
//!   tone-map slot truncation),
//! * retransmission of errored PBs,
//! * contention sharing when several saturated stations compete.
//!
//! Calibration target: the paper's Fig. 15 fit `BLE = 1.7·T − 0.65`
//! (i.e. MAC efficiency ≈ 0.59 at saturation).

use crate::csma::CW_TABLE;
use crate::timing;

/// Collision-induced efficiency per additional contender.
const CONTENTION_FACTOR: f64 = 0.94;

/// Expected saturation UDP goodput (Mb/s) of a link whose current average
/// BLE is `ble_mbps` and PB error rate is `pberr`, with `n_contenders`
/// saturated stations sharing the medium (including this one).
pub fn saturation_throughput_mbps(ble_mbps: f64, pberr: f64, n_contenders: usize) -> f64 {
    if ble_mbps <= 0.0 {
        return 0.0;
    }
    let frame_us = timing::MAX_FRAME.as_micros_f64();
    // Mean stage-0 backoff: (CW0 − 1)/2 slots.
    let backoff_us = (CW_TABLE[0] as f64 - 1.0) / 2.0 * timing::SLOT.as_micros_f64();
    let overhead_us = timing::frame_exchange_overhead().as_micros_f64()
        + backoff_us
        + timing::EXCHANGE_EXTRA.as_micros_f64();
    let cycle_us = frame_us + overhead_us;
    let payload_mbps = ble_mbps * (frame_us / cycle_us) * timing::FRAME_EFFICIENCY;
    // Errored PBs are retransmitted: goodput scales by (1 − pberr).
    let after_errors = payload_mbps * (1.0 - pberr.clamp(0.0, 1.0));
    // Beacon region steals a fixed share of the medium.
    let after_beacons = after_errors * timing::csma_region_fraction();
    // Contention: share the medium and pay a small collision tax.
    let n = n_contenders.max(1) as f64;
    after_beacons / n * CONTENTION_FACTOR.powf(n - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_or_negative_ble_gives_zero() {
        assert_eq!(saturation_throughput_mbps(0.0, 0.0, 1), 0.0);
        assert_eq!(saturation_throughput_mbps(-5.0, 0.0, 1), 0.0);
    }

    #[test]
    fn slope_matches_fig15_calibration() {
        // BLE = 1.7 T − 0.65  ⇒  T ≈ 0.588 · BLE for large BLE.
        for ble in [30.0, 60.0, 100.0, 140.0] {
            let t = saturation_throughput_mbps(ble, 0.02, 1);
            let slope = ble / t;
            assert!(
                (1.5..1.9).contains(&slope),
                "ble={ble}: T={t}, implied slope={slope}"
            );
        }
    }

    #[test]
    fn matches_paper_extremes() {
        // Best testbed links: BLE ≈ 140 → throughput ≈ 80 Mb/s.
        let t = saturation_throughput_mbps(140.0, 0.02, 1);
        assert!((70.0..95.0).contains(&t), "t={t}");
        // A bad link: BLE ≈ 20 → around 10 Mb/s.
        let t = saturation_throughput_mbps(20.0, 0.05, 1);
        assert!((8.0..14.0).contains(&t), "t={t}");
    }

    #[test]
    fn pberr_reduces_goodput_proportionally() {
        let clean = saturation_throughput_mbps(100.0, 0.0, 1);
        let lossy = saturation_throughput_mbps(100.0, 0.3, 1);
        assert!((lossy / clean - 0.7).abs() < 1e-9);
    }

    #[test]
    fn contention_divides_throughput() {
        let alone = saturation_throughput_mbps(100.0, 0.02, 1);
        let two = saturation_throughput_mbps(100.0, 0.02, 2);
        let four = saturation_throughput_mbps(100.0, 0.02, 4);
        assert!(two < alone * 0.55 && two > alone * 0.40, "two={two}");
        assert!(four < two, "four={four} two={two}");
    }

    #[test]
    fn model_consistent_with_event_sim_range() {
        // The event simulation's good-link throughput (30-100 Mb/s at BLE
        // ~147) must bracket the analytic prediction.
        let t = saturation_throughput_mbps(147.0, 0.02, 1);
        assert!((70.0..100.0).contains(&t), "t={t}");
    }
}
