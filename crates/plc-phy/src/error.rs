//! The PB error model: from tone-map aggressiveness and instantaneous
//! channel state to `PBerr`.
//!
//! `PBerr` — the probability that a 512-byte physical block arrives
//! corrupted — is the paper's loss-rate metric (Table 2, measured with the
//! `ampstat` management message). Together with BLE it fully describes
//! the MAC/PHY behaviour: "the full retransmission and aggregation
//! process ... can be modeled using only two metrics: PBerr and BLEs"
//! (paper §2.2).

use crate::modulation::{FecRate, Modulation};
use crate::tonemap::ToneMap;
use crate::SnrSpectrum;

/// Mean pre-FEC symbol error rate over the carriers a tone map uses,
/// weighted by the bits each carrier carries, including the effective SNR
/// gain of ROBO repetition.
pub fn mean_symbol_error(map: &ToneMap, spectrum: &SnrSpectrum) -> f64 {
    debug_assert_eq!(map.carriers.len(), spectrum.snr_db.len());
    // Repetition buys both its raw combining gain and frequency diversity
    // (copies land on different carriers), ~1.5x the dB of plain
    // repetition coding.
    let rep_gain_db = 15.0 * (map.repetition as f64).log10();
    let mut weighted = 0.0;
    let mut bits = 0.0;
    for (m, &snr) in map.carriers.iter().zip(&spectrum.snr_db) {
        if *m == Modulation::Off {
            continue;
        }
        let b = m.bits() as f64;
        weighted += b * m.symbol_error_prob(snr + rep_gain_db);
        bits += b;
    }
    if bits == 0.0 {
        1.0
    } else {
        weighted / bits
    }
}

/// Pre-FEC symbol error rate at which the rate-16/21 turbo decoder breaks
/// down and half the PBs fail.
const SER_KNEE_1621: f64 = 3e-2;
/// The rate-1/2 code (ROBO, sound frames) tolerates a much higher raw
/// symbol error rate before its waterfall.
const SER_KNEE_HALF: f64 = 8e-2;
/// Steepness of the FEC waterfall.
const FEC_STEEPNESS: f64 = 3.0;

/// Probability that one PB is received in error, given the tone map in
/// use and the instantaneous SNR spectrum.
///
/// The turbo code has a waterfall: below its knee almost every PB decodes,
/// above it almost none does. The smooth model
/// `PBerr = 1 / (1 + (knee / SER)^k)` reproduces that shape. On the
/// spectrum it was built from, a tone map with the standard margin loads
/// every carrier at SER ≤ 1.8×10⁻³, so PBerr ≲ (1.8×10⁻³ / 3×10⁻²)³ ≈
/// 2×10⁻⁴: errors appear only once the channel falls below the estimate
/// by more than the margin. That is far below the paper's PBerr range of
/// 0–0.4 across live links (Fig. 7); ROADMAP item 2 tracks the gap.
pub fn pb_error_prob(map: &ToneMap, spectrum: &SnrSpectrum) -> f64 {
    let ser = mean_symbol_error(map, spectrum);
    if ser <= 0.0 {
        return 0.0;
    }
    let knee = match map.fec {
        FecRate::Half => SER_KNEE_HALF,
        FecRate::SixteenTwentyFirsts => SER_KNEE_1621,
    };
    1.0 / (1.0 + (knee / ser).powf(FEC_STEEPNESS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::FecRate;

    fn map_and_spectrum(chosen_snr: f64, actual_snr: f64, n: usize) -> (ToneMap, SnrSpectrum) {
        let snr_design = vec![chosen_snr; n];
        let map = ToneMap::from_snr(&snr_design, 2.0, FecRate::SixteenTwentyFirsts, 0.02, 1);
        let spectrum = SnrSpectrum::from_db(vec![actual_snr; n]);
        (map, spectrum)
    }

    #[test]
    fn matched_channel_has_small_pberr() {
        let (map, spec) = map_and_spectrum(25.0, 25.0, 200);
        let p = pb_error_prob(&map, &spec);
        assert!(p < 0.1, "pberr={p}");
        assert!(p > 0.0);
    }

    #[test]
    fn degraded_channel_explodes_pberr() {
        // Channel dropped 6 dB since the map was built.
        let (map, spec) = map_and_spectrum(25.0, 19.0, 200);
        let p = pb_error_prob(&map, &spec);
        assert!(p > 0.4, "pberr={p}");
    }

    #[test]
    fn improved_channel_shrinks_pberr() {
        let (map, base) = map_and_spectrum(25.0, 25.0, 200);
        let better = SnrSpectrum::from_db(vec![31.0; 200]);
        assert!(pb_error_prob(&map, &better) < pb_error_prob(&map, &base));
    }

    #[test]
    fn pberr_monotone_in_channel_degradation() {
        let mut last = 0.0;
        for degrade in 0..12 {
            let (map, spec) = map_and_spectrum(25.0, 25.0 - degrade as f64, 100);
            let p = pb_error_prob(&map, &spec);
            assert!(p >= last, "non-monotone at degrade={degrade}");
            last = p;
        }
        assert!(last > 0.9);
    }

    #[test]
    fn robo_repetition_makes_errors_negligible() {
        // ROBO at modest SNR: repetition gain keeps PBerr tiny. This is
        // why broadcast loss rates are ~1e-4 regardless of link quality
        // (paper §8.1).
        let robo = ToneMap::robo(100);
        let spec = SnrSpectrum::from_db(vec![8.0; 100]);
        let p = pb_error_prob(&robo, &spec);
        assert!(p < 0.05, "robo pberr={p}");
    }

    #[test]
    fn all_off_map_always_fails() {
        let map = ToneMap::from_snr(&vec![-20.0; 50], 0.0, FecRate::Half, 0.02, 1);
        let spec = SnrSpectrum::from_db(vec![-20.0; 50]);
        assert_eq!(map.bits_per_symbol(), 0);
        assert!(pb_error_prob(&map, &spec) > 0.9);
    }
}
