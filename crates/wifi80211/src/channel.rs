//! The indoor WiFi channel.
//!
//! A scalar (whole-band) SNR process per link — which is precisely the
//! point: 802.11n rate adaptation sees one number for the whole band, so
//! any dip drags the entire link down (paper §4.1).
//!
//! Components:
//! * log-distance path loss with wall attenuation from the floor plan —
//!   beyond ~35 m indoors there is no connectivity, matching the paper's
//!   blind-spot observation ("At long distance (more than 35 m), there is
//!   no wireless connectivity");
//! * static lognormal shadowing (per link);
//! * fast fading (hundreds of ms correlation);
//! * slow human-shadowing fades (tens of seconds);
//! * **interference/activity bursts** scaled by the building's
//!   `working_activity`: during
//!   working hours people and co-channel traffic knock the SNR down for
//!   sub-second periods, which the whole-band rate adaptation converts
//!   into the large throughput variance of Fig. 3/4.

use crate::mcs::Mcs;
use electrifi_faults::JamProfile;
use simnet::geometry::{Floor, Point};
use simnet::noise::{impulse_at, ValueNoise};
use simnet::schedule::working_activity;
use simnet::time::Time;

// Channel-model constants.

/// Transmit power (dBm), EIRP.
const TX_POWER_DBM: f64 = 15.0;
/// Receiver noise floor over the 20 MHz channel (dBm), thermal noise
/// plus noise figure.
const NOISE_FLOOR_DBM: f64 = -95.0;
/// Path loss at 1 m (dB).
const PL0_DB: f64 = 40.0;
/// Path-loss exponent (indoor office ≈ 3.3).
const PATH_LOSS_EXP: f64 = 3.3;
/// Std of the static lognormal shadowing (dB).
const SHADOWING_STD_DB: f64 = 3.0;
/// Implicit clutter/wall attenuation per metre (dB/m): an office
/// floor has partitions roughly every few metres, so attenuation
/// beyond free-space grows with distance even when no explicit walls
/// are modelled. This is what kills WiFi beyond ~35 m indoors
/// (paper §4.1) while PLC still delivers.
const CLUTTER_DB_PER_M: f64 = 0.7;
/// Std of the fast-fading fluctuation (dB).
const FAST_FADE_DB: f64 = 2.2;
/// Correlation time of fast fading (s).
const FAST_FADE_CORR_S: f64 = 0.25;
/// Std of slow human-shadowing fades (dB).
const SLOW_FADE_DB: f64 = 2.0;
/// Correlation time of slow fades (s).
const SLOW_FADE_CORR_S: f64 = 25.0;
/// Peak rate of interference bursts at full working activity (Hz).
const INTERFERENCE_RATE_HZ: f64 = 0.8;
/// Duration of an interference burst (s).
const INTERFERENCE_DUR_S: f64 = 0.25;
/// SNR penalty while a burst is active (dB).
const INTERFERENCE_DB: f64 = 14.0;

/// The WiFi channel between two stations on a floor.
#[derive(Debug, Clone)]
pub struct WifiChannel {
    distance_m: f64,
    wall_db: f64,
    shadow_db: f64,
    fast: ValueNoise,
    slow: ValueNoise,
    interference_seed: u64,
    /// Scripted jamming profile (fault track): an SNR penalty as a pure
    /// function of time. `None` when no jamming burst is scripted.
    jam: Option<JamProfile>,
}

impl WifiChannel {
    /// Build the channel between positions `a` and `b` on `floor`.
    /// `link_seed` individualizes shadowing and fading.
    pub fn new(floor: &Floor, a: Point, b: Point, link_seed: u64) -> Self {
        let distance_m = a.distance(&b).max(1.0);
        let wall_db = floor.wall_attenuation_db(a, b);
        // Static shadowing drawn deterministically from the seed.
        let shadow_noise = ValueNoise::new(link_seed ^ 0x5AAD);
        let shadow_db = shadow_noise.eval(0.5) * SHADOWING_STD_DB * 1.7;
        WifiChannel {
            distance_m,
            wall_db,
            shadow_db,
            fast: ValueNoise::new(link_seed ^ 0xFA57),
            slow: ValueNoise::new(link_seed ^ 0x510E),
            interference_seed: link_seed ^ 0x1F7E,
            jam: None,
        }
    }

    /// Attach (or clear) the scripted jamming profile. Jamming subtracts
    /// a time-windowed SNR penalty, so a jammed channel remains a pure
    /// function of time; with `None` (the default) `snr_db` is
    /// bit-identical to an unjammed channel.
    pub fn set_jam_profile(&mut self, jam: Option<JamProfile>) {
        self.jam = jam;
    }

    /// The scripted jamming profile, if one is attached.
    pub fn jam_profile(&self) -> Option<&JamProfile> {
        self.jam.as_ref()
    }

    /// Straight-line distance between the endpoints, metres.
    pub fn distance_m(&self) -> f64 {
        self.distance_m
    }

    /// Mean SNR without temporal effects (dB) — the link budget.
    pub fn mean_snr_db(&self) -> f64 {
        let pl = PL0_DB + 10.0 * PATH_LOSS_EXP * self.distance_m.log10();
        let clutter = CLUTTER_DB_PER_M * self.distance_m;
        TX_POWER_DBM - pl - self.wall_db - clutter - self.shadow_db - NOISE_FLOOR_DBM
    }

    /// Instantaneous whole-band SNR (dB) at time `t`. Pure function of
    /// time: long-horizon experiments can sample anywhere.
    pub fn snr_db(&self, t: Time) -> f64 {
        let t_s = t.as_secs_f64();
        let fast = self.fast.fbm(t_s / FAST_FADE_CORR_S, 2) * 2.0 * FAST_FADE_DB;
        let slow = self.slow.eval(t_s / SLOW_FADE_CORR_S) * SLOW_FADE_DB * 1.7;
        let activity = working_activity(t);
        let mut snr = self.mean_snr_db() + fast + slow;
        if activity > 0.0
            && impulse_at(
                self.interference_seed,
                t_s,
                INTERFERENCE_RATE_HZ * activity,
                INTERFERENCE_DUR_S,
            )
        {
            snr -= INTERFERENCE_DB;
        }
        if let Some(jam) = &self.jam {
            let penalty = jam.penalty_db(t);
            if penalty != 0.0 {
                snr -= penalty;
            }
        }
        snr
    }

    /// Is the link usable at all (mean budget reaches MCS 0)?
    pub fn connected(&self) -> bool {
        Mcs::select(self.mean_snr_db(), 0.0).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(d: f64, seed: u64) -> WifiChannel {
        let floor = Floor::new(70.0, 40.0);
        WifiChannel::new(&floor, Point::new(0.0, 0.0), Point::new(d, 0.0), seed)
    }

    #[test]
    fn short_links_are_fast_long_links_are_dead() {
        let near = chan(5.0, 1);
        assert!(near.mean_snr_db() > 25.0, "snr={}", near.mean_snr_db());
        assert!(near.connected());
        let far = chan(60.0, 1);
        assert!(!far.connected(), "snr={}", far.mean_snr_db());
    }

    #[test]
    fn connectivity_dies_around_35m() {
        // The paper: no wireless connectivity beyond ~35 m (with interior
        // walls). Check with a few walls in the way.
        let mut floor = Floor::new(70.0, 40.0);
        for x in [8.0, 16.0, 24.0, 32.0] {
            floor.add_wall(simnet::geometry::Wall::drywall(
                Point::new(x, -5.0),
                Point::new(x, 5.0),
            ));
        }
        let mk = |d: f64| WifiChannel::new(&floor, Point::new(0.0, 0.0), Point::new(d, 0.0), 3);
        assert!(mk(12.0).connected());
        assert!(!mk(42.0).connected());
    }

    #[test]
    fn walls_attenuate() {
        let floor_open = Floor::new(70.0, 40.0);
        let mut floor_walled = Floor::new(70.0, 40.0);
        floor_walled.add_wall(simnet::geometry::Wall::concrete(
            Point::new(5.0, -5.0),
            Point::new(5.0, 5.0),
        ));
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let open = WifiChannel::new(&floor_open, a, b, 7).mean_snr_db();
        let walled = WifiChannel::new(&floor_walled, a, b, 7).mean_snr_db();
        assert!((open - walled - 12.0).abs() < 1e-9);
    }

    #[test]
    fn snr_is_deterministic_and_time_varying() {
        let c = chan(10.0, 9);
        let t = Time::from_secs(100);
        assert_eq!(c.snr_db(t), c.snr_db(t));
        // Over a working-hours window the SNR must actually move.
        let base = Time::from_hours(10); // weekday 10:00
        let samples: Vec<f64> = (0..200)
            .map(|i| c.snr_db(base + simnet::time::Duration::from_millis(i * 50)))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let std =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        assert!(std > 0.5, "std={std}");
    }

    #[test]
    fn working_hours_are_noisier_than_night() {
        let c = chan(12.0, 11);
        let sample_std = |start: Time| {
            let samples: Vec<f64> = (0..2000)
                .map(|i| c.snr_db(start + simnet::time::Duration::from_millis(i * 100)))
                .collect();
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
        };
        let day = sample_std(Time::from_hours(10));
        let night = sample_std(Time::from_hours(26)); // 2 am next day
        assert!(day > night, "day={day} night={night}");
    }

    #[test]
    fn jam_profile_cuts_snr_only_inside_its_window() {
        use electrifi_faults::JamWindow;
        let mut c = chan(10.0, 9);
        let clean_early = c.snr_db(Time::from_secs(5));
        let clean_mid = c.snr_db(Time::from_secs(15));
        c.set_jam_profile(Some(JamProfile {
            windows: vec![JamWindow {
                start_ns: Time::from_secs(10).as_nanos(),
                end_ns: Time::from_secs(20).as_nanos(),
                penalty_db: 30.0,
            }],
        }));
        assert_eq!(c.snr_db(Time::from_secs(5)), clean_early);
        assert_eq!(c.snr_db(Time::from_secs(15)), clean_mid - 30.0);
        assert_eq!(c.snr_db(Time::from_secs(25)), {
            let mut u = chan(10.0, 9);
            u.set_jam_profile(None);
            u.snr_db(Time::from_secs(25))
        });
    }

    #[test]
    fn different_seeds_shadow_differently() {
        let a = chan(15.0, 1).mean_snr_db();
        let b = chan(15.0, 2).mean_snr_db();
        assert_ne!(a, b);
    }
}
