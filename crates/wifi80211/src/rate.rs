//! Whole-band rate adaptation.
//!
//! The station estimates the link SNR from received frames/ACK feedback
//! and picks **one MCS for the entire band** with a safety margin and
//! hysteresis. When the channel dips — a fade, a passer-by, an
//! interference burst — the *whole link* steps down, which is the paper's
//! explanation for WiFi's high throughput variance compared to PLC's
//! per-carrier loading (§4.1).

use crate::mcs::Mcs;
use rand::Rng;
use serde::{Deserialize, Serialize};
use simnet::rng::Distributions;

/// Rate-adaptation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateAdapterConfig {
    /// Safety margin (dB) below the measured SNR.
    pub margin_db: f64,
    /// EWMA weight of a new SNR measurement.
    pub alpha: f64,
    /// Measurement noise std (dB) of a single feedback sample.
    pub meas_noise_db: f64,
    /// Immediate extra step-down (dB applied to the estimate) after a
    /// frame loss burst — the aggressive reaction real minstrel-like
    /// algorithms exhibit.
    pub loss_penalty_db: f64,
}

impl Default for RateAdapterConfig {
    fn default() -> Self {
        RateAdapterConfig {
            margin_db: 1.5,
            alpha: 0.25,
            meas_noise_db: 1.5,
            loss_penalty_db: 4.0,
        }
    }
}

/// Per-link rate adapter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateAdapter {
    cfg: RateAdapterConfig,
    snr_est_db: f64,
    initialized: bool,
}

impl RateAdapter {
    /// Fresh adapter (starts pessimistic until the first feedback).
    pub fn new(cfg: RateAdapterConfig) -> Self {
        RateAdapter {
            cfg,
            snr_est_db: 0.0,
            initialized: false,
        }
    }

    /// Feed one SNR observation (from an ACKed frame).
    pub fn observe<R: Rng + ?Sized>(&mut self, rng: &mut R, true_snr_db: f64) {
        let meas = true_snr_db + Distributions::normal(rng, 0.0, self.cfg.meas_noise_db);
        if self.initialized {
            self.snr_est_db += self.cfg.alpha * (meas - self.snr_est_db);
        } else {
            self.snr_est_db = meas;
            self.initialized = true;
        }
    }

    /// Most of an A-MPDU was lost: step the estimate down hard.
    pub fn on_loss_burst(&mut self) {
        self.snr_est_db -= self.cfg.loss_penalty_db;
    }

    /// The MCS to use now. `None` before any feedback or when the link is
    /// below MCS 0 (use the lowest rate as a probe in that case).
    pub fn current_mcs(&self) -> Option<Mcs> {
        if !self.initialized {
            return Some(Mcs(0));
        }
        Mcs::select(self.snr_est_db, self.cfg.margin_db)
    }

    /// Capacity estimate from the current MCS, as the paper's hybrid
    /// implementation reads it (§7.4: "for WiFi MCS capacity is averaged
    /// over the transmissions during every second").
    pub fn capacity_mbps(&self) -> f64 {
        self.current_mcs().map(|m| m.phy_rate_mbps()).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn starts_at_probe_rate() {
        let a = RateAdapter::new(RateAdapterConfig::default());
        assert_eq!(a.current_mcs(), Some(Mcs(0)));
        assert_eq!(a.capacity_mbps(), 6.5);
    }

    #[test]
    fn converges_to_channel_quality() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = RateAdapter::new(RateAdapterConfig::default());
        for _ in 0..100 {
            a.observe(&mut rng, 30.0);
        }
        // 30 dB − 1.5 margin clears MCS 15 (26 dB): full 130 Mb/s.
        assert_eq!(a.current_mcs(), Some(Mcs(15)));
    }

    #[test]
    fn whole_band_steps_down_on_loss() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = RateAdapter::new(RateAdapterConfig::default());
        for _ in 0..100 {
            a.observe(&mut rng, 28.5);
        }
        let before = a.capacity_mbps();
        a.on_loss_burst();
        let after = a.capacity_mbps();
        assert!(
            after < before,
            "loss must drop the whole-band rate: {before} -> {after}"
        );
        // The drop is a whole MCS step, i.e. tens of percent — the WiFi
        // variance mechanism.
        assert!(after / before < 0.95);
    }

    #[test]
    fn tracks_a_dropping_channel() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = RateAdapter::new(RateAdapterConfig::default());
        for _ in 0..50 {
            a.observe(&mut rng, 30.0);
        }
        for _ in 0..50 {
            a.observe(&mut rng, 12.0);
        }
        assert!(a.capacity_mbps() < 60.0);
    }

    #[test]
    fn dead_channel_yields_none() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut a = RateAdapter::new(RateAdapterConfig::default());
        for _ in 0..50 {
            a.observe(&mut rng, -10.0);
        }
        assert_eq!(a.current_mcs(), None);
        assert_eq!(a.capacity_mbps(), 0.0);
    }
}
