//! Compiled actuation profiles: pure functions of simulation time.
//!
//! Each profile is a sorted set of absolute-time windows baked at
//! compile time ([`crate::CompiledFaults::compile`]). Medium models call
//! the accessors inline from their hot paths; because the answer depends
//! only on the queried [`Time`], sharded, chunked and serial executions
//! of the same scenario observe bit-identical channels.
//!
//! Window bounds are stored as nanoseconds since the sim epoch (`u64`).

use simnet::Time;

/// One additive window on a PLC board: noise and/or attenuation, with an
/// optional linear ramp-in.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayWindow {
    /// Window start, ns since sim epoch.
    pub start_ns: u64,
    /// Window end (exclusive), ns since sim epoch.
    pub end_ns: u64,
    /// Ramp-in length, ns (0 = step). The contribution scales linearly
    /// from 0 at `start_ns` to full at `start_ns + ramp_ns`.
    pub ramp_ns: u64,
    /// Noise-floor rise at full strength, dB.
    pub noise_db: f64,
    /// Extra attenuation at full strength, dB.
    pub atten_db: f64,
}

impl OverlayWindow {
    /// Ramp factor in [0, 1] at time `t_ns`, 0 outside the window.
    fn strength(&self, t_ns: u64) -> f64 {
        if t_ns < self.start_ns || t_ns >= self.end_ns {
            return 0.0;
        }
        if self.ramp_ns == 0 {
            return 1.0;
        }
        let into = t_ns - self.start_ns;
        if into >= self.ramp_ns {
            1.0
        } else {
            into as f64 / self.ramp_ns as f64
        }
    }
}

/// The additive channel overlay for one distribution board: what an
/// appliance surge, breaker trip or cable-degradation ramp does to every
/// PLC link on that board.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkOverlay {
    /// Windows, sorted by `start_ns` (may overlap; contributions add).
    pub windows: Vec<OverlayWindow>,
}

impl LinkOverlay {
    /// `(noise_db, atten_db)` to add to the board's links at `t`.
    ///
    /// Returns exact `(0.0, 0.0)` outside all windows, so callers can
    /// branch on activity without floating-point hazards.
    pub fn at(&self, t: Time) -> (f64, f64) {
        let t_ns = t.as_nanos();
        let mut noise = 0.0;
        let mut atten = 0.0;
        for w in &self.windows {
            if t_ns >= w.end_ns {
                continue;
            }
            if t_ns < w.start_ns {
                break; // sorted by start: nothing later is active yet
            }
            let s = w.strength(t_ns);
            if s > 0.0 {
                noise += s * w.noise_db;
                atten += s * w.atten_db;
            }
        }
        (noise, atten)
    }
}

/// One WiFi jamming window.
#[derive(Debug, Clone, PartialEq)]
pub struct JamWindow {
    /// Window start, ns since sim epoch.
    pub start_ns: u64,
    /// Window end (exclusive), ns since sim epoch.
    pub end_ns: u64,
    /// SNR penalty while jammed, dB.
    pub penalty_db: f64,
}

/// Floor-wide WiFi jamming profile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JamProfile {
    /// Windows, sorted by `start_ns` (overlaps add).
    pub windows: Vec<JamWindow>,
}

impl JamProfile {
    /// SNR penalty (dB) at `t`; exact `0.0` outside all windows.
    pub fn penalty_db(&self, t: Time) -> f64 {
        let t_ns = t.as_nanos();
        let mut penalty = 0.0;
        for w in &self.windows {
            if t_ns >= w.end_ns {
                continue;
            }
            if t_ns < w.start_ns {
                break;
            }
            penalty += w.penalty_db;
        }
        penalty
    }
}

/// Probe/sensor dropout profile: while active, the hybrid layer's probes
/// are lost and its capacity estimate goes stale.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DropoutProfile {
    /// `(start_ns, end_ns)` windows, sorted, non-normalised (overlaps
    /// simply both report active).
    pub windows: Vec<(u64, u64)>,
}

impl DropoutProfile {
    /// True while probes are dropped at `t`.
    pub fn is_dropped(&self, t: Time) -> bool {
        let t_ns = t.as_nanos();
        self.windows.iter().any(|&(s, e)| t_ns >= s && t_ns < e)
    }
}

/// MAC-visible outage profile: windows during which a board's stations
/// cannot win the medium at all (breaker trip, seen from the MAC).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutageProfile {
    /// `(start_ns, end_ns)` windows, sorted by start.
    pub windows: Vec<(u64, u64)>,
}

impl OutageProfile {
    /// If `t` falls inside an outage window, the window's end time —
    /// i.e. the earliest instant the MAC may transmit again.
    pub fn blackout_until(&self, t: Time) -> Option<Time> {
        let t_ns = t.as_nanos();
        for &(s, e) in &self.windows {
            if t_ns >= s && t_ns < e {
                return Some(Time(e));
            }
            if t_ns < s {
                break;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> Time {
        Time((s * 1e9) as u64)
    }

    #[test]
    fn overlay_is_zero_outside_and_ramps_inside() {
        let ov = LinkOverlay {
            windows: vec![OverlayWindow {
                start_ns: 10_000_000_000,
                end_ns: 20_000_000_000,
                ramp_ns: 4_000_000_000,
                noise_db: 8.0,
                atten_db: 2.0,
            }],
        };
        assert_eq!(ov.at(t(9.999)), (0.0, 0.0));
        assert_eq!(ov.at(t(20.0)), (0.0, 0.0));
        let (n, a) = ov.at(t(12.0)); // halfway up the ramp
        assert!((n - 4.0).abs() < 1e-9, "noise {n}");
        assert!((a - 1.0).abs() < 1e-9, "atten {a}");
        assert_eq!(ov.at(t(15.0)), (8.0, 2.0));
    }

    #[test]
    fn overlapping_overlay_windows_add() {
        let ov = LinkOverlay {
            windows: vec![
                OverlayWindow {
                    start_ns: 0,
                    end_ns: 10,
                    ramp_ns: 0,
                    noise_db: 3.0,
                    atten_db: 0.0,
                },
                OverlayWindow {
                    start_ns: 5,
                    end_ns: 15,
                    ramp_ns: 0,
                    noise_db: 4.0,
                    atten_db: 1.0,
                },
            ],
        };
        assert_eq!(ov.at(Time(7)), (7.0, 1.0));
    }

    #[test]
    fn jam_penalty_windows() {
        let jam = JamProfile {
            windows: vec![JamWindow {
                start_ns: 1_000,
                end_ns: 2_000,
                penalty_db: 25.0,
            }],
        };
        assert_eq!(jam.penalty_db(Time(999)), 0.0);
        assert_eq!(jam.penalty_db(Time(1_500)), 25.0);
        assert_eq!(jam.penalty_db(Time(2_000)), 0.0);
    }

    #[test]
    fn outage_reports_blackout_end() {
        let out = OutageProfile {
            windows: vec![(100, 200), (400, 500)],
        };
        assert_eq!(out.blackout_until(Time(50)), None);
        assert_eq!(out.blackout_until(Time(150)), Some(Time(200)));
        assert_eq!(out.blackout_until(Time(450)), Some(Time(500)));
        assert_eq!(out.blackout_until(Time(600)), None);
    }

    #[test]
    fn dropout_windows() {
        let d = DropoutProfile {
            windows: vec![(10, 20)],
        };
        assert!(d.is_dropped(Time(10)));
        assert!(!d.is_dropped(Time(20)));
    }
}
