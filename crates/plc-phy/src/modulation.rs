//! Per-carrier modulations.
//!
//! HomePlug AV loads each OFDM carrier independently with one of BPSK,
//! QPSK, 8/16/64/256/1024-QAM — or turns the carrier off (paper §2.1).
//! This module provides the bit loadings, the SNR each modulation needs,
//! and a symbol-error-rate model used by the PB error model.

use serde::{Deserialize, Serialize};

/// Modulation assigned to a single OFDM carrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Modulation {
    /// Carrier not used (SNR too low).
    Off,
    /// 1 bit/symbol.
    Bpsk,
    /// 2 bits/symbol. Also the ROBO broadcast modulation.
    Qpsk,
    /// 3 bits/symbol.
    Qam8,
    /// 4 bits/symbol.
    Qam16,
    /// 6 bits/symbol.
    Qam64,
    /// 8 bits/symbol.
    Qam256,
    /// 10 bits/symbol.
    Qam1024,
}

impl Modulation {
    /// All modulations in increasing bit-loading order.
    pub const LADDER: [Modulation; 8] = [
        Modulation::Off,
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam8,
        Modulation::Qam16,
        Modulation::Qam64,
        Modulation::Qam256,
        Modulation::Qam1024,
    ];

    /// Bits carried per OFDM symbol on one carrier.
    pub fn bits(self) -> u32 {
        match self {
            Modulation::Off => 0,
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam8 => 3,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
            Modulation::Qam256 => 8,
            Modulation::Qam1024 => 10,
        }
    }

    /// Minimum SNR (dB) at which the channel-estimation algorithm selects
    /// this modulation: the SNR giving a pre-FEC symbol-error rate around
    /// 10⁻², which the rate-16/21 turbo code cleans up to the target PB
    /// error rate. Values follow the standard AWGN ladder with ~3 dB
    /// steps per bit pair.
    pub fn required_snr_db(self) -> f64 {
        match self {
            Modulation::Off => f64::NEG_INFINITY,
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 4.0,
            Modulation::Qam8 => 7.5,
            Modulation::Qam16 => 10.5,
            Modulation::Qam64 => 16.5,
            Modulation::Qam256 => 22.5,
            Modulation::Qam1024 => 28.5,
        }
    }

    /// Pick the most aggressive modulation whose requirement is met by
    /// `snr_db` after subtracting an implementation `margin_db`.
    pub fn select(snr_db: f64, margin_db: f64) -> Modulation {
        let effective = snr_db - margin_db;
        let mut chosen = Modulation::Off;
        for m in Modulation::LADDER {
            if m != Modulation::Off && effective >= m.required_snr_db() {
                chosen = m;
            }
        }
        chosen
    }

    /// Approximate pre-FEC symbol error probability at the given SNR.
    ///
    /// Uses the standard M-QAM union-bound shape
    /// `SER ≈ a · exp(-b · snr_linear / (M - 1))`
    /// collapsed to an exponential in the dB *deficit* against the
    /// requirement: at the selection threshold the SER is ~10⁻², and each
    /// dB of deficit multiplies it by ~2.3 (each dB of surplus divides it).
    pub fn symbol_error_prob(self, snr_db: f64) -> f64 {
        match self {
            Modulation::Off => 0.0,
            _ => {
                let deficit = self.required_snr_db() - snr_db;
                (1e-2 * (deficit * 0.85).exp()).clamp(0.0, 0.75)
            }
        }
    }
}

/// Forward-error-correction code rates of HomePlug AV data frames.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FecRate {
    /// Turbo code rate 1/2 (robust).
    Half,
    /// Turbo code rate 16/21 (standard data rate; with all carriers at
    /// 1024-QAM this yields HPAV's ≈150 Mb/s BLE ceiling, matching the
    /// paper's "highest PLC data-rate is 150 Mbps").
    SixteenTwentyFirsts,
}

impl FecRate {
    /// The code rate as a fraction.
    pub fn as_f64(self) -> f64 {
        match self {
            FecRate::Half => 0.5,
            FecRate::SixteenTwentyFirsts => 16.0 / 21.0,
        }
    }
}

/// ROBO (robust OFDM) repetition factor used by sound frames, broadcast
/// and multicast: QPSK on all carriers, rate-1/2 code, 4× repetition
/// (paper §2.1: "a default, robust modulation scheme that employs QPSK
/// for all carriers").
pub const ROBO_REPETITION: u32 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone_in_bits_and_snr() {
        for pair in Modulation::LADDER.windows(2) {
            assert!(pair[1].bits() > pair[0].bits());
            assert!(pair[1].required_snr_db() > pair[0].required_snr_db());
        }
    }

    #[test]
    fn select_respects_thresholds() {
        assert_eq!(Modulation::select(-10.0, 0.0), Modulation::Off);
        assert_eq!(Modulation::select(1.0, 0.0), Modulation::Bpsk);
        assert_eq!(Modulation::select(5.0, 0.0), Modulation::Qpsk);
        assert_eq!(Modulation::select(50.0, 0.0), Modulation::Qam1024);
        // Margin lowers the selection.
        assert_eq!(Modulation::select(30.0, 0.0), Modulation::Qam1024);
        assert_eq!(Modulation::select(30.0, 3.0), Modulation::Qam256);
    }

    #[test]
    fn select_is_monotone_in_snr() {
        let mut last = 0;
        for snr10 in -50..500 {
            let snr = snr10 as f64 / 10.0;
            let bits = Modulation::select(snr, 2.0).bits();
            assert!(bits >= last, "non-monotone at snr={snr}");
            last = bits;
        }
    }

    #[test]
    fn ser_at_threshold_is_one_percent() {
        for m in Modulation::LADDER.into_iter().skip(1) {
            let ser = m.symbol_error_prob(m.required_snr_db());
            assert!((ser - 1e-2).abs() < 1e-9, "{m:?}");
        }
    }

    #[test]
    fn ser_decreases_with_snr_and_saturates() {
        let m = Modulation::Qam64;
        assert!(m.symbol_error_prob(10.0) > m.symbol_error_prob(20.0));
        assert!(m.symbol_error_prob(-30.0) <= 0.75);
        assert!(m.symbol_error_prob(60.0) < 1e-12);
        assert_eq!(Modulation::Off.symbol_error_prob(-100.0), 0.0);
    }

    #[test]
    fn fec_rates() {
        assert_eq!(FecRate::Half.as_f64(), 0.5);
        assert!((FecRate::SixteenTwentyFirsts.as_f64() - 0.7619).abs() < 1e-3);
    }
}
