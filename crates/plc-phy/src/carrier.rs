//! OFDM carrier plans and symbol timing.
//!
//! HomePlug AV uses 917 usable OFDM carriers in the 1.8–30 MHz band (paper
//! §2.1). HomePlug AV500 extends the band to 68 MHz (paper footnote 3),
//! which is how AV500 devices reach links that AV cannot (paper Fig. 7).
//!
//! Symbol timing: the paper's §7.2 computation `R1sym = (520 × 8)/Tsym ≈
//! 89.4 Mb/s` pins the effective symbol duration (including guard
//! interval) at 46.52 µs = 40.96 µs FFT period + 5.56 µs guard interval.

use serde::{Deserialize, Serialize};

/// FFT period of a HomePlug AV OFDM symbol, microseconds.
pub const SYMBOL_FFT_US: f64 = 40.96;
/// Guard interval used for data symbols, microseconds.
pub const GUARD_INTERVAL_US: f64 = 5.56;
/// Effective OFDM symbol duration including guard interval, microseconds.
/// This is the `Tsym` of IEEE 1901 Eq. (1) as used in the paper.
pub const SYMBOL_US: f64 = SYMBOL_FFT_US + GUARD_INTERVAL_US;

/// PLC generations measured in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlcTechnology {
    /// HomePlug AV (IEEE 1901 baseline): 1.8–30 MHz, 917 carriers, up to
    /// 1024-QAM. The paper's main testbed (Intellon INT6300).
    HpAv,
    /// HomePlug AV500 (wideband AV as in the Netgear XAVB5101 / QCA7400):
    /// 1.8–68 MHz. Validation devices in the paper.
    HpAv500,
}

impl PlcTechnology {
    /// Lower band edge in MHz.
    pub fn band_start_mhz(self) -> f64 {
        1.8
    }

    /// Upper band edge in MHz.
    pub fn band_end_mhz(self) -> f64 {
        match self {
            PlcTechnology::HpAv => 30.0,
            PlcTechnology::HpAv500 => 68.0,
        }
    }

    /// Number of usable carriers. HPAV's 917 is from the standard; AV500
    /// scales the same usable-carrier density over its wider band.
    pub fn carrier_count(self) -> usize {
        match self {
            PlcTechnology::HpAv => 917,
            // (68 - 1.8) / (30 - 1.8) * 917 ≈ 2153 usable carriers.
            PlcTechnology::HpAv500 => 2153,
        }
    }

    /// Build the carrier plan for this technology.
    pub fn carrier_plan(self) -> CarrierPlan {
        CarrierPlan::new(self)
    }
}

/// The set of usable OFDM carriers for a PLC technology.
#[derive(Debug, Clone, PartialEq)]
pub struct CarrierPlan {
    technology: PlcTechnology,
    freqs_mhz: Vec<f64>,
}

impl CarrierPlan {
    /// Build the plan: carriers evenly spread over the usable band.
    pub fn new(technology: PlcTechnology) -> Self {
        let n = technology.carrier_count();
        let lo = technology.band_start_mhz();
        let hi = technology.band_end_mhz();
        let freqs_mhz = (0..n)
            .map(|i| lo + (hi - lo) * (i as f64 + 0.5) / n as f64)
            .collect();
        CarrierPlan {
            technology,
            freqs_mhz,
        }
    }

    /// The technology this plan belongs to.
    pub fn technology(&self) -> PlcTechnology {
        self.technology
    }

    /// Number of usable carriers.
    pub fn len(&self) -> usize {
        self.freqs_mhz.len()
    }

    /// True when the plan has no carriers (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.freqs_mhz.is_empty()
    }

    /// Center frequency of carrier `i`, in MHz.
    pub fn freq_mhz(&self, i: usize) -> f64 {
        self.freqs_mhz[i]
    }

    /// All carrier frequencies, MHz.
    pub fn freqs_mhz(&self) -> &[f64] {
        &self.freqs_mhz
    }

    /// Carrier pitch in MHz. The plan is built on a uniform grid
    /// (`new` spreads carriers evenly over the band), so the pitch is
    /// derived from the end points instead of being stored; callers use
    /// it to drive phase recurrences `θ_i = θ_0 + i·dθ` over the grid.
    pub fn spacing_mhz(&self) -> f64 {
        let n = self.freqs_mhz.len();
        if n < 2 {
            return 0.0;
        }
        (self.freqs_mhz[n - 1] - self.freqs_mhz[0]) / (n - 1) as f64
    }

    /// `√f` of carrier `i` (frequency in MHz). The cable attenuation
    /// model is `alpha · √f · length`, so channel-side caches build their
    /// per-carrier attenuation prefixes from this.
    pub fn freq_sqrt_mhz(&self, i: usize) -> f64 {
        self.freqs_mhz[i].sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_timing_matches_the_papers_r1sym() {
        // §7.2: one 520-byte PB per symbol caps the rate at ~89.4 Mb/s.
        let r1sym = 520.0 * 8.0 / SYMBOL_US;
        assert!((r1sym - 89.4).abs() < 0.1, "r1sym={r1sym}");
    }

    #[test]
    fn hpav_plan_has_917_carriers_in_band() {
        let plan = PlcTechnology::HpAv.carrier_plan();
        assert_eq!(plan.len(), 917);
        assert!(plan.freq_mhz(0) > 1.8);
        assert!(plan.freq_mhz(916) < 30.0);
        // Monotone increasing.
        for i in 1..plan.len() {
            assert!(plan.freq_mhz(i) > plan.freq_mhz(i - 1));
        }
    }

    #[test]
    fn av500_extends_the_band() {
        let plan = PlcTechnology::HpAv500.carrier_plan();
        assert!(plan.len() > 2000);
        assert!(plan.freq_mhz(plan.len() - 1) > 60.0);
        assert!(plan.freq_mhz(plan.len() - 1) < 68.0);
        // Same band start.
        assert!((plan.freq_mhz(0) - PlcTechnology::HpAv.carrier_plan().freq_mhz(0)).abs() < 0.2);
    }

    #[test]
    fn spacing_matches_the_band_partition() {
        for tech in [PlcTechnology::HpAv, PlcTechnology::HpAv500] {
            let plan = tech.carrier_plan();
            let expect = (tech.band_end_mhz() - tech.band_start_mhz()) / plan.len() as f64;
            let got = plan.spacing_mhz();
            assert!((got - expect).abs() < 1e-9, "{tech:?}: {got} vs {expect}");
            // The grid really is uniform to FP noise: every adjacent gap
            // agrees with the derived pitch.
            for i in 1..plan.len() {
                let gap = plan.freq_mhz(i) - plan.freq_mhz(i - 1);
                assert!((gap - got).abs() < 1e-9);
            }
        }
    }
}
