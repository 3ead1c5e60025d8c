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
use simnet::rng::Distributions;

/// Safety margin (dB) below the measured SNR.
const MARGIN_DB: f64 = 1.5;
/// EWMA weight of a new SNR measurement.
const ALPHA: f64 = 0.25;
/// Measurement noise std (dB) of a single feedback sample.
const MEAS_NOISE_DB: f64 = 1.5;
/// Immediate extra step-down (dB applied to the estimate) after a
/// frame loss burst — the aggressive reaction real minstrel-like
/// algorithms exhibit.
const LOSS_PENALTY_DB: f64 = 4.0;

/// Per-link rate adapter.
#[derive(Debug, Clone, Default)]
pub struct RateAdapter {
    snr_est_db: f64,
    initialized: bool,
}

impl RateAdapter {
    /// Fresh adapter (starts pessimistic until the first feedback).
    pub fn new() -> Self {
        RateAdapter::default()
    }

    /// Feed one SNR observation (from an ACKed frame).
    pub fn observe<R: Rng + ?Sized>(&mut self, rng: &mut R, true_snr_db: f64) {
        let meas = true_snr_db + Distributions::normal(rng, 0.0, MEAS_NOISE_DB);
        if self.initialized {
            self.snr_est_db += ALPHA * (meas - self.snr_est_db);
        } else {
            self.snr_est_db = meas;
            self.initialized = true;
        }
    }

    /// Most of an A-MPDU was lost: step the estimate down hard.
    pub fn on_loss_burst(&mut self) {
        self.snr_est_db -= LOSS_PENALTY_DB;
    }

    /// The MCS to use now. `None` before any feedback or when the link is
    /// below MCS 0 (use the lowest rate as a probe in that case).
    pub fn current_mcs(&self) -> Option<Mcs> {
        if !self.initialized {
            return Some(Mcs(0));
        }
        Mcs::select(self.snr_est_db, MARGIN_DB)
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
        let a = RateAdapter::new();
        assert_eq!(a.current_mcs(), Some(Mcs(0)));
        assert_eq!(a.capacity_mbps(), 6.5);
    }

    #[test]
    fn converges_to_channel_quality() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = RateAdapter::new();
        for _ in 0..100 {
            a.observe(&mut rng, 30.0);
        }
        // 30 dB − 1.5 margin clears MCS 15 (26 dB): full 130 Mb/s.
        assert_eq!(a.current_mcs(), Some(Mcs(15)));
    }

    #[test]
    fn whole_band_steps_down_on_loss() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = RateAdapter::new();
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
        let mut a = RateAdapter::new();
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
        let mut a = RateAdapter::new();
        for _ in 0..50 {
            a.observe(&mut rng, -10.0);
        }
        assert_eq!(a.current_mcs(), None);
        assert_eq!(a.capacity_mbps(), 0.0);
    }
}
