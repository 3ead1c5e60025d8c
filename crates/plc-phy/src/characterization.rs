//! Channel characterization: frequency-domain statistics of a link.
//!
//! The paper's §5 explains PLC attenuation through multipath reflections
//! (Fig. 5) and cites the channel-modeling literature ([9], [15]) for
//! noise and transfer-function structure. This module computes the
//! standard characterization statistics from an [`SnrSpectrum`], so the
//! simulated channels can be inspected the way channel-sounding papers
//! inspect real ones:
//!
//! * mean/min/max SNR and its frequency-selectivity (std across carriers),
//! * **notch count** — deep multipath fades below a threshold,
//! * **coherence bandwidth** — the lag at which the frequency
//!   autocorrelation of the SNR drops below 0.5 (more multipath → shorter
//!   coherence → more independent fading across the band, which is
//!   exactly why per-carrier loading beats whole-band MCS),
//! * an **RMS delay-spread estimate** from the coherence bandwidth
//!   (`τ_rms ≈ 1/(2π·B_c)`).

use crate::carrier::CarrierPlan;
use crate::SnrSpectrum;
use serde::{Deserialize, Serialize};

/// Frequency-domain characterization of one link direction at one
/// instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelCharacterization {
    /// Mean SNR over carriers, dB.
    pub mean_snr_db: f64,
    /// Std of SNR across carriers (frequency selectivity), dB.
    pub freq_selectivity_db: f64,
    /// Lowest carrier SNR, dB.
    pub min_snr_db: f64,
    /// Highest carrier SNR, dB.
    pub max_snr_db: f64,
    /// Number of notches: contiguous runs of carriers more than 10 dB
    /// below the mean.
    pub notches: usize,
    /// Coherence bandwidth (50% correlation), MHz.
    pub coherence_bw_mhz: f64,
    /// RMS delay spread estimated from the coherence bandwidth, µs.
    pub delay_spread_us: f64,
}

/// Depth below the mean that counts as a notch, dB.
const NOTCH_DEPTH_DB: f64 = 10.0;

/// Characterize a spectrum over its carrier plan.
pub fn characterize(plan: &CarrierPlan, spectrum: &SnrSpectrum) -> ChannelCharacterization {
    let snr = &spectrum.snr_db;
    assert_eq!(snr.len(), plan.len(), "spectrum must match the plan");
    assert!(!snr.is_empty());
    let n = snr.len();
    let mean = snr.iter().sum::<f64>() / n as f64;
    let var = snr.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
    let min = snr.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = snr.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    // Notches: falling edges into the "deep fade" region.
    let mut notches = 0usize;
    let mut in_notch = false;
    for &s in snr {
        let deep = s < mean - NOTCH_DEPTH_DB;
        if deep && !in_notch {
            notches += 1;
        }
        in_notch = deep;
    }
    // Frequency autocorrelation of the de-meaned SNR.
    let coherence_bw_mhz = if var <= 1e-12 {
        // Flat channel: coherent over the whole band.
        plan.freq_mhz(n - 1) - plan.freq_mhz(0)
    } else {
        let spacing = if n > 1 {
            (plan.freq_mhz(n - 1) - plan.freq_mhz(0)) / (n - 1) as f64
        } else {
            0.0
        };
        let centered: Vec<f64> = snr.iter().map(|s| s - mean).collect();
        let mut bw = plan.freq_mhz(n - 1) - plan.freq_mhz(0);
        for lag in 1..n {
            let m = n - lag;
            let corr: f64 =
                (0..m).map(|i| centered[i] * centered[i + lag]).sum::<f64>() / (m as f64 * var);
            if corr < 0.5 {
                bw = lag as f64 * spacing;
                break;
            }
        }
        bw
    };
    let delay_spread_us = if coherence_bw_mhz > 0.0 {
        1.0 / (2.0 * std::f64::consts::PI * coherence_bw_mhz)
    } else {
        f64::INFINITY
    };
    ChannelCharacterization {
        mean_snr_db: mean,
        freq_selectivity_db: var.sqrt(),
        min_snr_db: min,
        max_snr_db: max,
        notches,
        coherence_bw_mhz,
        delay_spread_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carrier::PlcTechnology;

    fn plan_n(n: usize) -> CarrierPlan {
        // Use the HPAV plan truncated conceptually: for controlled tests,
        // build a spectrum over the full plan.
        assert_eq!(n, PlcTechnology::HpAv.carrier_count());
        PlcTechnology::HpAv.carrier_plan()
    }

    #[test]
    fn flat_channel_is_coherent_everywhere() {
        let plan = plan_n(917);
        let spec = SnrSpectrum::from_db(vec![30.0; 917]);
        let c = characterize(&plan, &spec);
        assert_eq!(c.mean_snr_db, 30.0);
        assert_eq!(c.freq_selectivity_db, 0.0);
        assert_eq!(c.notches, 0);
        assert!(c.coherence_bw_mhz > 25.0, "bw={}", c.coherence_bw_mhz);
        assert!(c.delay_spread_us < 0.01);
    }

    #[test]
    fn sinusoidal_ripple_sets_coherence_scale() {
        // SNR ripple with a 2 MHz period: coherence bandwidth must be a
        // fraction of that period.
        let plan = plan_n(917);
        let snr: Vec<f64> = (0..917)
            .map(|i| {
                let f = plan.freq_mhz(i);
                30.0 + 6.0 * (2.0 * std::f64::consts::PI * f / 2.0).sin()
            })
            .collect();
        let c = characterize(&plan, &SnrSpectrum::from_db(snr));
        assert!(c.coherence_bw_mhz < 1.0, "bw={}", c.coherence_bw_mhz);
        assert!(c.coherence_bw_mhz > 0.05, "bw={}", c.coherence_bw_mhz);
        assert!(c.freq_selectivity_db > 3.0);
    }

    #[test]
    fn notches_are_counted_per_run() {
        let plan = plan_n(917);
        let mut snr = vec![30.0; 917];
        // Two separate notch regions.
        snr[100..110].fill(10.0);
        snr[500..520].fill(12.0);
        let c = characterize(&plan, &SnrSpectrum::from_db(snr));
        assert_eq!(c.notches, 2);
        assert_eq!(c.min_snr_db, 10.0);
    }

    #[test]
    fn real_channel_shows_multipath_structure() {
        // A loaded link from a small grid must show frequency selectivity
        // and finite coherence bandwidth.
        use crate::channel::{LinkDir, PlcChannel};
        use simnet::appliance::ApplianceKind;
        use simnet::grid::Grid;
        use simnet::schedule::Schedule;
        use simnet::time::Time;
        let mut g = Grid::new();
        let a = g.add_outlet("a");
        let j = g.add_junction("j");
        let b = g.add_outlet("b");
        g.connect(a, j, 25.0);
        g.connect(j, b, 25.0);
        let o = g.add_outlet("pc");
        g.connect(j, o, 4.0);
        g.attach(o, ApplianceKind::DesktopPc, Schedule::AlwaysOn);
        let ch = PlcChannel::from_grid(&g, a, b, PlcTechnology::HpAv, 5).unwrap();
        let spec = ch.spectrum(LinkDir::AtoB, Time::from_hours(12));
        let c = characterize(ch.plan(), &spec);
        assert!(
            c.freq_selectivity_db > 0.5,
            "selectivity={}",
            c.freq_selectivity_db
        );
        assert!(
            c.coherence_bw_mhz < 28.2,
            "a loaded line cannot be coherent across the whole band: {}",
            c.coherence_bw_mhz
        );
        assert!(c.delay_spread_us.is_finite());
    }

    #[test]
    #[should_panic(expected = "spectrum must match the plan")]
    fn plan_mismatch_panics() {
        let plan = plan_n(917);
        characterize(&plan, &SnrSpectrum::from_db(vec![1.0; 10]));
    }
}
