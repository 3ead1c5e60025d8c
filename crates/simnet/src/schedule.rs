//! Appliance schedules: when is each appliance switched on?
//!
//! Random-scale channel variation (paper §6.3) is driven by human activity:
//! appliances switch with the working day, lights go off building-wide at
//! 9 pm ("Every day at 9pm, all lights are turned off in our building,
//! leading to a channel change for PLC", Fig. 12), and weekends are quiet
//! (Figs. 13-14).
//!
//! Schedules are **pure functions of time** (plus a per-appliance seed for
//! randomized schedules), so any component can query `is_on(t)` at any
//! instant without shared mutable state, and long-horizon experiments can
//! sample the channel at arbitrary times.

use crate::time::Time;
use serde::{Deserialize, Serialize};

/// Nanoseconds per hour.
const HOUR_NS: u64 = 3_600_000_000_000;
/// Nanoseconds per day.
const DAY_NS: u64 = 24 * HOUR_NS;
/// Safety margin (ns) around schedule boundaries that are derived from
/// floating-point hour arithmetic (office arrivals, sporadic ramp
/// crossings). [`Schedule::next_transition`] may under-report by up to
/// this margin — callers rescan a few nanoseconds of sim time early —
/// but must never over-report past a real transition.
const BOUNDARY_MARGIN_NS: u64 = 16;

/// Deterministic per-slot hash used for randomized schedules: maps
/// (seed, slot) to a uniform value in [0, 1).
fn slot_hash(seed: u64, slot: u64) -> f64 {
    let mut z = seed ^ slot.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// When an appliance is powered.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Schedule {
    /// Always on (IT equipment, fridges' plug connection).
    AlwaysOn,
    /// Building lighting: on 07:00–21:00 on weekdays, off all weekend.
    /// The 21:00 cut is sharp — it produces the visible channel step in
    /// the paper's Fig. 12.
    BuildingLights,
    /// Office-hours usage (PCs, monitors): on roughly 08:00–19:00 weekdays
    /// with per-appliance randomized arrival/departure of ±1 h, off on
    /// weekends except occasional visits.
    OfficeHours {
        /// Per-appliance seed randomizing arrival/departure.
        seed: u64,
    },
    /// Duty-cycled appliance (fridge compressor): `on_s` seconds on,
    /// `off_s` seconds off, phase-shifted by seed.
    DutyCycle {
        /// Seconds per ON period.
        on_s: u64,
        /// Seconds per OFF period.
        off_s: u64,
        /// Per-appliance seed shifting the cycle phase.
        seed: u64,
    },
    /// Sporadic usage bursts (printer, microwave, coffee machine): during
    /// active hours each 10-minute slot is on with probability `p_active`
    /// (scaled by working-hours activity), off otherwise.
    Sporadic {
        /// Probability that a 10-minute slot during working hours is on.
        p_active: f64,
        /// Per-appliance seed.
        seed: u64,
    },
}

impl Schedule {
    /// Is the appliance drawing power at instant `t`?
    pub fn is_on(&self, t: Time) -> bool {
        match *self {
            Schedule::AlwaysOn => true,
            Schedule::BuildingLights => {
                let h = t.hour_of_day();
                !t.is_weekend() && (7.0..21.0).contains(&h)
            }
            Schedule::OfficeHours { seed } => {
                if t.is_weekend() {
                    // Rare weekend visits: ~5% of weekend hours.
                    let slot = t.as_secs() / 3600;
                    return slot_hash(seed ^ 0xDEAD, slot) < 0.05;
                }
                let day = t.day_index();
                let arrive = 8.0 + 2.0 * (slot_hash(seed, day) - 0.5); // 7..9
                let leave = 18.5 + 2.0 * (slot_hash(seed ^ 1, day) - 0.5); // 17.5..19.5
                let h = t.hour_of_day();
                (arrive..leave).contains(&h)
            }
            Schedule::DutyCycle { on_s, off_s, seed } => {
                let period = on_s + off_s;
                debug_assert!(period > 0);
                let phase = (slot_hash(seed, 0) * period as f64) as u64;
                ((t.as_secs() + phase) % period) < on_s
            }
            Schedule::Sporadic { p_active, seed } => {
                let slot = t.as_secs() / 600; // 10-minute slots
                let p = p_active * working_activity(t);
                slot_hash(seed, slot) < p
            }
        }
    }

    /// Earliest instant after `t` at which [`Schedule::is_on`] may change.
    ///
    /// Contract: `Some(u)` guarantees `is_on` is **constant on `[t, u)`**;
    /// `None` guarantees it is constant on `[t, ∞)`. The bound is
    /// conservative — the state may in fact stay put at `u` (a rescan
    /// simply finds the same answer) — but it never skips past a real
    /// flip. Boundaries derived from float hour arithmetic are pulled in
    /// by [`BOUNDARY_MARGIN_NS`]; inside that uncertainty window the
    /// function degrades to `t + 1 ns` (rescan every call for a few
    /// nanoseconds of sim time rather than risk missing the edge).
    ///
    /// This is what lets epoch-keyed caches (the PLC spectrum cache)
    /// skip re-scanning every schedule per evaluation: the earliest
    /// transition across all relevant schedules bounds how long the
    /// packed on/off key stays valid.
    pub fn next_transition(&self, t: Time) -> Option<Time> {
        let now = t.as_nanos();
        let day_start = now - now % DAY_NS;
        let in_day = now - day_start;
        match *self {
            Schedule::AlwaysOn => None,
            Schedule::BuildingLights => {
                // Flips at 07:00 and 21:00 (weekdays); the weekday/weekend
                // state itself can only change at midnight. All three
                // boundaries are exact in nanoseconds.
                let cand = [7 * HOUR_NS, 21 * HOUR_NS, DAY_NS]
                    .into_iter()
                    .filter(|&c| c > in_day)
                    .min()
                    .expect("DAY_NS > in_day always");
                Some(Time(day_start + cand))
            }
            Schedule::OfficeHours { seed } => {
                if t.is_weekend() {
                    // Weekend visits re-draw per whole hour; hour
                    // boundaries (and midnight, a multiple) are exact.
                    return Some(Time::from_secs((t.as_secs() / 3600 + 1) * 3600));
                }
                let day = t.day_index();
                let arrive = 8.0 + 2.0 * (slot_hash(seed, day) - 0.5);
                let leave = 18.5 + 2.0 * (slot_hash(seed ^ 1, day) - 0.5);
                let mut best = DAY_NS;
                for hours in [arrive, leave] {
                    if let Some(c) = float_boundary_after(in_day, hours * HOUR_NS as f64) {
                        best = best.min(c);
                    }
                }
                Some(Time(day_start + best))
            }
            Schedule::DutyCycle { on_s, off_s, seed } => {
                let period = on_s + off_s;
                if period == 0 || on_s == 0 || off_s == 0 {
                    // Degenerate cycles never change state.
                    return None;
                }
                // `is_on` depends on whole seconds only, so the flip
                // lands exactly on a second boundary.
                let phase = (slot_hash(seed, 0) * period as f64) as u64;
                let s = t.as_secs();
                let r = (s + phase) % period;
                let delta = if r < on_s { on_s - r } else { period - r };
                Some(Time::from_secs(s + delta))
            }
            Schedule::Sporadic { p_active, seed } => {
                // The per-slot draw re-rolls every 600 s (slot boundaries
                // divide midnight exactly); within a slot the state can
                // still flip where `p_active · working_activity(t)`
                // crosses the slot's hash, which only moves inside the
                // two weekday activity ramps.
                let slot = t.as_secs() / 600;
                let slot_end = Time::from_secs((slot + 1) * 600).as_nanos();
                if t.is_weekend() {
                    return Some(Time(slot_end));
                }
                // Weekday piecewise-activity edges, all exact in ns
                // (17.5 h = 63e12 ns).
                const EDGES_H: [f64; 7] = [7.0, 9.0, 12.0, 13.0, 17.5, 21.0, 24.0];
                let region_end = EDGES_H
                    .into_iter()
                    .map(|h| (h * HOUR_NS as f64) as u64)
                    .find(|&c| c > in_day)
                    .expect("24 h edge bounds the day");
                let mut best = slot_end.min(day_start + region_end);
                let h = t.hour_of_day();
                let hash = slot_hash(seed, slot);
                let crossing_h = if (7.0..9.0).contains(&h) {
                    // activity = (h − 7)/2, rising: p crosses the hash at
                    // h* = 7 + 2·hash/p_active.
                    Some(7.0 + 2.0 * hash / p_active)
                } else if (17.5..21.0).contains(&h) {
                    // activity = (21 − h)/3.5·0.8, falling.
                    Some(21.0 - 3.5 * hash / (0.8 * p_active))
                } else {
                    None
                };
                if let Some(hx) = crossing_h {
                    if let Some(c) = float_boundary_after(in_day, hx * HOUR_NS as f64) {
                        best = best.min(day_start + c);
                    }
                }
                Some(Time(best))
            }
        }
    }
}

/// Conservative "next boundary" filter for float-derived candidates.
/// `now` and the candidate are both offsets within the current day, ns.
///
/// * candidate safely ahead → report it [`BOUNDARY_MARGIN_NS`] early;
/// * `now` inside the ±margin uncertainty window → report `now + 1`
///   (degrade to rescan-per-call until the window passes);
/// * candidate safely behind (or not finite) → no candidate.
fn float_boundary_after(now: u64, cand_ns: f64) -> Option<u64> {
    if !cand_ns.is_finite() || cand_ns < 0.0 {
        return None;
    }
    let c = cand_ns as u64;
    if now + BOUNDARY_MARGIN_NS < c {
        Some(c - BOUNDARY_MARGIN_NS)
    } else if now < c.saturating_add(BOUNDARY_MARGIN_NS) {
        Some(now + 1)
    } else {
        None
    }
}

/// Building-wide human-activity level in `[0, 1]`: ~1 during weekday
/// working hours, low at night, very low on weekends. Used to scale both
/// sporadic appliance usage and ambient WiFi interference.
pub fn working_activity(t: Time) -> f64 {
    if t.is_weekend() {
        return 0.08;
    }
    let h = t.hour_of_day();
    if (9.0..12.0).contains(&h) || (13.0..17.5).contains(&h) {
        1.0
    } else if (12.0..13.0).contains(&h) {
        0.7 // lunch dip
    } else if (7.0..9.0).contains(&h) {
        (h - 7.0) / 2.0
    } else if (17.5..21.0).contains(&h) {
        (21.0 - h) / 3.5 * 0.8
    } else {
        0.05
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(day: u64, hour: f64) -> Time {
        Time((day * 24 * 3_600_000_000_000) + (hour * 3_600_000_000_000.0) as u64)
    }

    #[test]
    fn always_on_is_always_on() {
        assert!(Schedule::AlwaysOn.is_on(Time::ZERO));
        assert!(Schedule::AlwaysOn.is_on(at(6, 3.0)));
    }

    #[test]
    fn lights_cut_at_9pm_weekdays() {
        let lights = Schedule::BuildingLights;
        assert!(lights.is_on(at(0, 12.0)));
        assert!(lights.is_on(at(0, 20.9)));
        assert!(!lights.is_on(at(0, 21.01)));
        assert!(!lights.is_on(at(0, 3.0)));
        // Weekend: off even at noon (day 5 = Saturday).
        assert!(!lights.is_on(at(5, 12.0)));
    }

    #[test]
    fn office_hours_bracket_the_working_day() {
        let s = Schedule::OfficeHours { seed: 99 };
        // Midday weekday is always within any arrival/departure jitter.
        assert!(s.is_on(at(1, 12.0)));
        // 4 am never is.
        assert!(!s.is_on(at(1, 4.0)));
        // Determinism.
        assert_eq!(s.is_on(at(2, 8.2)), s.is_on(at(2, 8.2)));
    }

    #[test]
    fn duty_cycle_fraction_matches() {
        let s = Schedule::DutyCycle {
            on_s: 600,
            off_s: 1800,
            seed: 3,
        };
        let mut on = 0usize;
        let total = 24 * 60;
        for m in 0..total {
            if s.is_on(Time::from_secs(m * 60)) {
                on += 1;
            }
        }
        let frac = on as f64 / total as f64;
        assert!((frac - 0.25).abs() < 0.03, "frac={frac}");
    }

    #[test]
    fn sporadic_respects_activity() {
        let s = Schedule::Sporadic {
            p_active: 0.5,
            seed: 7,
        };
        let mut day_on = 0;
        let mut night_on = 0;
        for d in 0..5u64 {
            for ten_min in 0..18 {
                // 09:00..12:00 in 10-minute steps
                let t = at(d, 9.0 + ten_min as f64 / 6.0);
                if s.is_on(t) {
                    day_on += 1;
                }
                let tn = at(d, 1.0 + ten_min as f64 / 6.0);
                if s.is_on(tn) {
                    night_on += 1;
                }
            }
        }
        assert!(day_on > night_on, "day={day_on} night={night_on}");
    }

    #[test]
    fn activity_profile_shape() {
        assert!(working_activity(at(0, 10.0)) > 0.9);
        assert!(working_activity(at(0, 12.5)) < working_activity(at(0, 10.0)));
        assert!(working_activity(at(0, 2.0)) < 0.1);
        assert!(working_activity(at(5, 12.0)) < 0.1); // Saturday
    }

    /// Every schedule family worth exercising for transition bounds.
    fn transition_schedules() -> Vec<Schedule> {
        vec![
            Schedule::AlwaysOn,
            Schedule::BuildingLights,
            Schedule::OfficeHours { seed: 11 },
            Schedule::OfficeHours { seed: 0xFEED },
            Schedule::DutyCycle {
                on_s: 120,
                off_s: 300,
                seed: 5,
            },
            Schedule::DutyCycle {
                on_s: 7,
                off_s: 13,
                seed: 9,
            },
            Schedule::Sporadic {
                p_active: 0.4,
                seed: 21,
            },
            Schedule::Sporadic {
                p_active: 0.9,
                seed: 3,
            },
        ]
    }

    /// Cheap deterministic u64 stream for sampling instants.
    fn scramble(x: u64) -> u64 {
        let mut z = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    }

    #[test]
    fn next_transition_is_strictly_ahead() {
        for s in transition_schedules() {
            for k in 0..500u64 {
                let t = Time(scramble(k) % (14 * 24 * HOUR_NS));
                if let Some(u) = s.next_transition(t) {
                    assert!(u > t, "{s:?}: next_transition({t:?}) = {u:?} not ahead");
                }
            }
        }
    }

    #[test]
    fn state_is_constant_until_next_transition() {
        // The contract the PHY epoch-key skip relies on: is_on may not
        // change anywhere in [t, next_transition(t)). Sample the window
        // densely, including both ends.
        for s in transition_schedules() {
            for k in 0..400u64 {
                let t = Time(scramble(k ^ 0xABCD) % (14 * 24 * HOUR_NS));
                let state = s.is_on(t);
                let Some(u) = s.next_transition(t) else {
                    // Constant forever: spot-check far ahead.
                    for d in [1u64, HOUR_NS, 30 * DAY_NS] {
                        assert_eq!(s.is_on(Time(t.0 + d)), state, "{s:?} changed");
                    }
                    continue;
                };
                let span = u.0 - t.0;
                for i in 0..32u64 {
                    let off = (scramble(k * 37 + i) % span).max(if i == 0 { 0 } else { 1 });
                    let probe = Time(t.0 + off);
                    assert!(probe < u);
                    assert_eq!(
                        s.is_on(probe),
                        state,
                        "{s:?}: flipped inside [{t:?}, {u:?}) at {probe:?}"
                    );
                }
                // The last representable instant of the window too.
                assert_eq!(s.is_on(Time(u.0 - 1)), state, "{s:?} flipped at window end");
            }
        }
    }

    #[test]
    fn next_transition_makes_progress() {
        // Chained windows must cross a full week in a bounded number of
        // steps — the skip cache would otherwise thrash. The uncertainty
        // fallback (t+1 ns) is allowed, but only near boundaries, so the
        // step count stays small.
        for s in transition_schedules() {
            let mut t = Time(3 * HOUR_NS + 123_456);
            let goal = Time(t.0 + 7 * DAY_NS);
            let mut steps = 0u32;
            while t < goal {
                match s.next_transition(t) {
                    Some(u) => t = u,
                    None => break,
                }
                steps += 1;
                // A 20 s duty cycle legitimately flips ~60k times per week;
                // the failure mode guarded here is 1-ns uncertainty-fallback
                // thrash, which would need billions of steps.
                assert!(steps < 200_000, "{s:?}: transition chain too dense");
            }
        }
    }

    #[test]
    fn degenerate_cycles_never_transition() {
        let t = Time::from_secs(1234);
        assert_eq!(Schedule::AlwaysOn.next_transition(t), None);
        assert_eq!(
            Schedule::DutyCycle {
                on_s: 0,
                off_s: 60,
                seed: 1
            }
            .next_transition(t),
            None
        );
        assert_eq!(
            Schedule::DutyCycle {
                on_s: 60,
                off_s: 0,
                seed: 1
            }
            .next_transition(t),
            None
        );
    }

    #[test]
    fn lights_transition_lands_on_the_9pm_cut() {
        // Weekday noon: the very next flip is the 21:00 lights-out step
        // of Fig. 12, exactly on the boundary.
        let u = Schedule::BuildingLights
            .next_transition(at(0, 12.0))
            .unwrap();
        assert_eq!(u, at(0, 21.0));
        // 22:00: nothing more today; next candidate is midnight.
        let u = Schedule::BuildingLights
            .next_transition(at(0, 22.0))
            .unwrap();
        assert_eq!(u, Time(DAY_NS));
    }

    #[test]
    fn schedules_are_pure_functions() {
        let schedules = [
            Schedule::AlwaysOn,
            Schedule::BuildingLights,
            Schedule::OfficeHours { seed: 1 },
            Schedule::DutyCycle {
                on_s: 100,
                off_s: 50,
                seed: 2,
            },
            Schedule::Sporadic {
                p_active: 0.3,
                seed: 3,
            },
        ];
        for s in schedules {
            for hour in [0.0, 8.5, 13.0, 21.5] {
                let t = at(3, hour);
                assert_eq!(s.is_on(t), s.is_on(t), "{s:?}");
            }
        }
    }
}
