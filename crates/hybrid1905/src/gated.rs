//! Probe-fed capacity estimation gated by the fault track's
//! probe-dropout windows.
//!
//! The abstraction layer only knows what its probes tell it (paper §4.3);
//! when a disturbance knocks the probing/sensing path out, the last
//! estimate goes **stale** rather than blank — exactly the failure mode
//! the `estimate-within` assertion quantifies. [`GatedEstimator`] models
//! that: probe observations arriving inside a dropout window are
//! discarded (and counted), so the held estimate diverges from delivered
//! throughput until probing resumes.

use electrifi_faults::DropoutProfile;
use simnet::time::Time;

/// A capacity estimate fed by periodic probes and gated by an optional
/// probe-dropout profile.
#[derive(Debug, Clone, Default)]
pub struct GatedEstimator {
    /// The dropout windows; `None` means every probe lands.
    dropout: Option<DropoutProfile>,
    /// Last accepted probe value, Mb/s.
    estimate_mbps: Option<f64>,
    /// Probes discarded because they arrived inside a dropout window.
    holds: u64,
}

impl GatedEstimator {
    /// An estimator gated by `dropout` (`None` = never gated).
    pub fn new(dropout: Option<DropoutProfile>) -> GatedEstimator {
        GatedEstimator {
            dropout,
            estimate_mbps: None,
            holds: 0,
        }
    }

    /// Feed one probe observation taken at `t`. Returns `true` if the
    /// probe landed (estimate updated), `false` if it fell inside a
    /// dropout window (estimate held stale).
    pub fn observe(&mut self, t: Time, measured_mbps: f64) -> bool {
        if let Some(d) = &self.dropout {
            if d.is_dropped(t) {
                self.holds += 1;
                return false;
            }
        }
        self.estimate_mbps = Some(measured_mbps);
        true
    }

    /// The current estimate, `None` until the first probe lands.
    pub fn estimate_mbps(&self) -> Option<f64> {
        self.estimate_mbps
    }

    /// How many probes were discarded by dropout windows so far.
    pub fn holds(&self) -> u64 {
        self.holds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_tracks_probes_then_holds_through_dropout() {
        let dropout = DropoutProfile {
            windows: vec![(
                Time::from_secs(10).as_nanos(),
                Time::from_secs(20).as_nanos(),
            )],
        };
        let mut e = GatedEstimator::new(Some(dropout));
        assert_eq!(e.estimate_mbps(), None);
        assert!(e.observe(Time::from_secs(5), 80.0));
        assert_eq!(e.estimate_mbps(), Some(80.0));
        // Inside the dropout the probe is lost and the estimate is stale.
        assert!(!e.observe(Time::from_secs(15), 20.0));
        assert_eq!(e.estimate_mbps(), Some(80.0));
        assert_eq!(e.holds(), 1);
        // After the window, probing resumes.
        assert!(e.observe(Time::from_secs(25), 60.0));
        assert_eq!(e.estimate_mbps(), Some(60.0));
    }

    #[test]
    fn ungated_estimator_accepts_everything() {
        let mut e = GatedEstimator::new(None);
        assert!(e.observe(Time::from_secs(1), 10.0));
        assert!(e.observe(Time::from_secs(2), 20.0));
        assert_eq!(e.holds(), 0);
    }
}
