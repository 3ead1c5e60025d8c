//! Compilation of disturbance specs into anchored profiles, and the
//! run-time cursor that walks the boundary-event timeline.

use crate::profile::{
    DropoutProfile, JamProfile, JamWindow, LinkOverlay, OutageProfile, OverlayWindow,
};
use crate::spec::{CouplingSpec, DisturbanceKind, DisturbanceSpec, ISOLATION_DB};
use simnet::{Duration, Time};

/// One resolved disturbance window on the absolute timeline (used by the
/// verdict evaluator for grace/recovery bookkeeping and reported in the
/// verdict block).
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedWindow {
    /// Window start, ns since sim epoch.
    pub start_ns: u64,
    /// Window end (exclusive), ns since sim epoch.
    pub end_ns: u64,
    /// Stable kind name (`appliance-surge`, `breaker-trip`, ...).
    pub kind: &'static str,
    /// Disturbance label (empty for anonymous or coupling-triggered).
    pub name: String,
}

/// The full fault timeline of one run, anchored at an absolute
/// measurement-start time and compiled into per-medium profiles.
///
/// Everything here is immutable after [`compile`](Self::compile): the
/// medium models only ever *read* it, through pure functions of time, so
/// sharing one `Arc<CompiledFaults>` across threads is sound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompiledFaults {
    overlays: Vec<(u16, LinkOverlay)>,
    outages: Vec<(u16, OutageProfile)>,
    jam: JamProfile,
    dropout: DropoutProfile,
    windows: Vec<ResolvedWindow>,
    edges: Vec<Time>,
}

impl CompiledFaults {
    /// Anchor `disturbances` (+ resolved `couplings`) at measurement
    /// start `t0` and bake the per-medium profiles.
    ///
    /// Fails only if a coupling names an unknown source disturbance —
    /// the scenario validator rejects that earlier, so hitting it here
    /// means the caller bypassed validation.
    pub fn compile(
        disturbances: &[DisturbanceSpec],
        couplings: &[CouplingSpec],
        t0: Time,
    ) -> Result<CompiledFaults, String> {
        let mut cf = CompiledFaults::default();
        for d in disturbances {
            let start = t0 + Duration::from_secs_f64(d.at_s);
            cf.add_window(
                start,
                Duration::from_secs_f64(d.duration_s),
                Duration::from_secs_f64(d.ramp_s),
                &d.kind,
                &d.name,
            );
        }
        for c in couplings {
            let src = disturbances
                .iter()
                .find(|d| !d.name.is_empty() && d.name == c.source)
                .ok_or_else(|| format!("coupling source `{}` names no disturbance", c.source))?;
            let start = t0 + Duration::from_secs_f64(src.at_s) + Duration::from_millis(c.after_ms);
            cf.add_window(
                start,
                Duration::from_secs_f64(c.duration_s),
                Duration::ZERO,
                &c.effect,
                "",
            );
        }
        cf.seal();
        Ok(cf)
    }

    fn add_window(
        &mut self,
        start: Time,
        duration: Duration,
        ramp: Duration,
        kind: &DisturbanceKind,
        name: &str,
    ) {
        let start_ns = start.as_nanos();
        let end_ns = start_ns + duration.as_nanos();
        match *kind {
            DisturbanceKind::ApplianceSurge { board, noise_db } => {
                self.overlay_mut(board).windows.push(OverlayWindow {
                    start_ns,
                    end_ns,
                    ramp_ns: ramp.as_nanos(),
                    noise_db,
                    atten_db: 0.0,
                });
            }
            DisturbanceKind::BreakerTrip { board } => {
                // A trip is a step, never a ramp: the board is either on
                // the grid or it is not.
                self.overlay_mut(board).windows.push(OverlayWindow {
                    start_ns,
                    end_ns,
                    ramp_ns: 0,
                    noise_db: 0.0,
                    atten_db: ISOLATION_DB,
                });
                self.outage_mut(board).windows.push((start_ns, end_ns));
            }
            DisturbanceKind::CableDegrade { board, atten_db } => {
                self.overlay_mut(board).windows.push(OverlayWindow {
                    start_ns,
                    end_ns,
                    ramp_ns: ramp.as_nanos(),
                    noise_db: 0.0,
                    atten_db,
                });
            }
            DisturbanceKind::WifiJam { penalty_db } => {
                self.jam.windows.push(JamWindow {
                    start_ns,
                    end_ns,
                    penalty_db,
                });
            }
            DisturbanceKind::ProbeDropout => {
                self.dropout.windows.push((start_ns, end_ns));
            }
        }
        self.windows.push(ResolvedWindow {
            start_ns,
            end_ns,
            kind: kind.name(),
            name: name.to_string(),
        });
    }

    fn overlay_mut(&mut self, board: u16) -> &mut LinkOverlay {
        if let Some(i) = self.overlays.iter().position(|(b, _)| *b == board) {
            return &mut self.overlays[i].1;
        }
        self.overlays.push((board, LinkOverlay::default()));
        &mut self.overlays.last_mut().unwrap().1
    }

    fn outage_mut(&mut self, board: u16) -> &mut OutageProfile {
        if let Some(i) = self.outages.iter().position(|(b, _)| *b == board) {
            return &mut self.outages[i].1;
        }
        self.outages.push((board, OutageProfile::default()));
        &mut self.outages.last_mut().unwrap().1
    }

    /// Sort every profile's windows and derive the deduplicated edge
    /// timeline (every window start and end, in order).
    fn seal(&mut self) {
        self.overlays.sort_by_key(|(b, _)| *b);
        self.outages.sort_by_key(|(b, _)| *b);
        for (_, ov) in &mut self.overlays {
            ov.windows.sort_by_key(|w| (w.start_ns, w.end_ns));
        }
        for (_, out) in &mut self.outages {
            out.windows.sort_unstable();
        }
        self.jam.windows.sort_by_key(|w| (w.start_ns, w.end_ns));
        self.dropout.windows.sort_unstable();
        self.windows
            .sort_by(|a, b| (a.start_ns, a.end_ns, a.kind).cmp(&(b.start_ns, b.end_ns, b.kind)));
        let mut edges: Vec<u64> = self
            .windows
            .iter()
            .flat_map(|w| [w.start_ns, w.end_ns])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        self.edges = edges.into_iter().map(Time).collect();
    }

    /// True when the timeline is empty (no disturbance ever fires).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The channel overlay for one distribution board (logical PLC
    /// network index), if any disturbance targets it.
    pub fn link_overlay(&self, board: u16) -> Option<&LinkOverlay> {
        self.overlays
            .iter()
            .find(|(b, _)| *b == board)
            .map(|(_, ov)| ov)
    }

    /// The MAC outage profile for one board, if a breaker trip targets it.
    pub fn outage_profile(&self, board: u16) -> Option<&OutageProfile> {
        self.outages
            .iter()
            .find(|(b, _)| *b == board)
            .map(|(_, out)| out)
    }

    /// The floor-wide WiFi jamming profile, if any jam burst is scripted.
    pub fn jam_profile(&self) -> Option<&JamProfile> {
        if self.jam.windows.is_empty() {
            None
        } else {
            Some(&self.jam)
        }
    }

    /// The probe-dropout profile, if any dropout is scripted.
    pub fn dropout_profile(&self) -> Option<&DropoutProfile> {
        if self.dropout.windows.is_empty() {
            None
        } else {
            Some(&self.dropout)
        }
    }

    /// All resolved disturbance windows, sorted by start time.
    pub fn disturbance_windows(&self) -> &[ResolvedWindow] {
        &self.windows
    }

    /// The deduplicated boundary-event timeline: every instant at which
    /// some disturbance starts or stops, in ascending order.
    pub fn edges(&self) -> &[Time] {
        &self.edges
    }
}

/// Run-time cursor over a [`CompiledFaults`] edge timeline.
///
/// The profiles themselves are stateless; the engine only tracks which
/// boundary events have already been consumed, so a simulation can
/// count fired edges into `obs`. That cursor is the only mutable state.
#[derive(Debug, Clone, Default)]
pub struct FaultEngine {
    cursor: usize,
}

impl FaultEngine {
    /// A fresh cursor at the start of the timeline.
    pub fn new() -> FaultEngine {
        FaultEngine::default()
    }

    /// Consume every edge at or before `now`; returns how many fired.
    pub fn advance_to(&mut self, faults: &CompiledFaults, now: Time) -> usize {
        let edges = faults.edges();
        let before = self.cursor;
        while self.cursor < edges.len() && edges[self.cursor] <= now {
            self.cursor += 1;
        }
        self.cursor - before
    }

    /// Number of edges already consumed.
    pub fn fired(&self) -> usize {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn surge(name: &str, at_s: f64, dur_s: f64, board: u16, noise_db: f64) -> DisturbanceSpec {
        DisturbanceSpec {
            name: name.to_string(),
            at_s,
            duration_s: dur_s,
            ramp_s: 0.0,
            kind: DisturbanceKind::ApplianceSurge { board, noise_db },
        }
    }

    #[test]
    fn compile_anchors_windows_at_t0() {
        let t0 = Time::from_secs(100);
        let cf = CompiledFaults::compile(&[surge("s", 5.0, 2.0, 0, 10.0)], &[], t0).unwrap();
        let ov = cf.link_overlay(0).unwrap();
        assert_eq!(ov.at(Time::from_secs(104)), (0.0, 0.0));
        assert_eq!(ov.at(Time::from_secs(106)), (10.0, 0.0));
        assert_eq!(ov.at(Time::from_secs(107)), (0.0, 0.0));
        assert!(cf.link_overlay(1).is_none());
        assert_eq!(cf.edges(), &[Time::from_secs(105), Time::from_secs(107)]);
    }

    #[test]
    fn breaker_trip_isolates_and_blacks_out() {
        let spec = DisturbanceSpec {
            name: String::new(),
            at_s: 1.0,
            duration_s: 3.0,
            ramp_s: 0.5, // ignored: trips are steps
            kind: DisturbanceKind::BreakerTrip { board: 1 },
        };
        let cf = CompiledFaults::compile(&[spec], &[], Time::ZERO).unwrap();
        let ov = cf.link_overlay(1).unwrap();
        assert_eq!(ov.at(Time::from_millis(1_001)), (0.0, ISOLATION_DB));
        let out = cf.outage_profile(1).unwrap();
        assert_eq!(
            out.blackout_until(Time::from_secs(2)),
            Some(Time::from_secs(4))
        );
        assert!(cf.outage_profile(0).is_none());
    }

    #[test]
    fn coupling_resolves_to_delayed_window() {
        let trip = DisturbanceSpec {
            name: "trip".to_string(),
            at_s: 10.0,
            duration_s: 5.0,
            ramp_s: 0.0,
            kind: DisturbanceKind::BreakerTrip { board: 0 },
        };
        let coupling = CouplingSpec {
            source: "trip".to_string(),
            after_ms: 250,
            duration_s: 2.0,
            effect: DisturbanceKind::WifiJam { penalty_db: 20.0 },
        };
        let cf = CompiledFaults::compile(&[trip], &[coupling], Time::ZERO).unwrap();
        let jam = cf.jam_profile().unwrap();
        assert_eq!(jam.penalty_db(Time::from_millis(10_249)), 0.0);
        assert_eq!(jam.penalty_db(Time::from_millis(10_250)), 20.0);
        assert_eq!(jam.penalty_db(Time::from_millis(12_250)), 0.0);
        // Windows: trip [10,15), jam [10.25,12.25) -> 4 distinct edges.
        assert_eq!(cf.edges().len(), 4);
    }

    #[test]
    fn coupling_with_unknown_source_is_rejected() {
        let c = CouplingSpec {
            source: "ghost".to_string(),
            after_ms: 0,
            duration_s: 1.0,
            effect: DisturbanceKind::ProbeDropout,
        };
        let err = CompiledFaults::compile(&[], &[c], Time::ZERO).unwrap_err();
        assert!(err.contains("ghost"), "{err}");
    }

    #[test]
    fn engine_cursor_advances() {
        let cf = CompiledFaults::compile(
            &[surge("a", 1.0, 1.0, 0, 5.0), surge("b", 4.0, 1.0, 0, 5.0)],
            &[],
            Time::ZERO,
        )
        .unwrap();
        assert_eq!(cf.edges().len(), 4);
        let mut eng = FaultEngine::new();
        assert_eq!(eng.fired(), 0);
        assert_eq!(eng.advance_to(&cf, Time::from_secs(2)), 2);
        assert_eq!(cf.edges()[eng.fired()], Time::from_secs(4));
        assert_eq!(eng.advance_to(&cf, Time::from_secs(2)), 0);
        assert_eq!(eng.advance_to(&cf, Time::from_secs(10)), 2);
        assert_eq!(eng.fired(), 4);
    }
}
