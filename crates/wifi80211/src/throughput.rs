//! Analytic 802.11n saturation goodput.
//!
//! For long-horizon experiments the expected UDP goodput is computed
//! directly from the channel state: pick the MCS rate adaptation would
//! settle on, apply DCF/A-MPDU efficiency and contention sharing.
//! Calibrated against the packet-level simulation (130 Mb/s PHY →
//! ≈90 Mb/s UDP, matching the paper's best WiFi links).

use crate::channel::WifiChannel;
use crate::mcs::Mcs;
use simnet::time::Time;

/// Net MAC efficiency at saturation with A-MPDU aggregation (preamble,
/// DIFS/SIFS, block ACK, MPDU framing).
const MAC_EFFICIENCY: f64 = 0.72;

/// Safety margin of rate adaptation (dB below instantaneous SNR).
const RATE_MARGIN_DB: f64 = 1.5;

/// Collision efficiency per extra contender.
const CONTENTION_FACTOR: f64 = 0.92;

/// Expected saturation UDP goodput (Mb/s) on `channel` at instant `t`
/// with `n_contenders` saturated stations (including this one).
pub fn expected_goodput_mbps(channel: &WifiChannel, t: Time, n_contenders: usize) -> f64 {
    let snr = channel.snr_db(t);
    let Some(mcs) = Mcs::select(snr, RATE_MARGIN_DB) else {
        return 0.0;
    };
    let loss = mcs.mpdu_error_prob(snr);
    let n = n_contenders.max(1) as f64;
    mcs.phy_rate_mbps() * MAC_EFFICIENCY * (1.0 - loss) / n * CONTENTION_FACTOR.powf(n - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::geometry::{Floor, Point};

    fn chan(d: f64) -> WifiChannel {
        WifiChannel::new(
            &Floor::new(70.0, 40.0),
            Point::new(0.0, 0.0),
            Point::new(d, 0.0),
            5,
        )
    }

    #[test]
    fn good_link_goodput_matches_paper_ceiling() {
        let c = chan(4.0);
        let t = Time::from_hours(3); // quiet night: clean channel
        let g = expected_goodput_mbps(&c, t, 1);
        assert!((75.0..100.0).contains(&g), "goodput={g}");
    }

    #[test]
    fn dead_link_gives_zero() {
        let c = chan(60.0);
        assert_eq!(expected_goodput_mbps(&c, Time::from_hours(3), 1), 0.0);
    }

    #[test]
    fn goodput_decreases_with_distance() {
        let t = Time::from_hours(3);
        let g5 = expected_goodput_mbps(&chan(5.0), t, 1);
        let g25 = expected_goodput_mbps(&chan(25.0), t, 1);
        assert!(g5 > g25, "g5={g5} g25={g25}");
    }

    #[test]
    fn contention_divides() {
        let c = chan(6.0);
        let t = Time::from_hours(3);
        let one = expected_goodput_mbps(&c, t, 1);
        let two = expected_goodput_mbps(&c, t, 2);
        assert!(two < 0.55 * one && two > 0.35 * one, "one={one} two={two}");
    }

    #[test]
    fn matches_event_simulation_scale() {
        // The packet-level sim's short-link test yields 60-115 Mb/s; the
        // analytic model must land inside.
        let c = chan(8.0);
        let g = expected_goodput_mbps(&c, Time::from_hours(3), 1);
        assert!((60.0..115.0).contains(&g), "g={g}");
    }
}
