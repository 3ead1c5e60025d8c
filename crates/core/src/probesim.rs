//! Channel-in-the-loop link measurement without a full MAC.
//!
//! Most of the paper's experiments measure *one link at a time*: send
//! traffic (saturated or probes), read BLE from management messages or
//! frame headers, read PBerr from `ampstat`. The MAC contention machinery
//! is irrelevant when a single flow owns the medium, so this driver runs
//! just the measurement loop — channel → frames → estimator → tone maps —
//! at any cadence, over horizons from milliseconds (Fig. 9) to weeks
//! (Figs. 13-14).

use plc_phy::carrier::SYMBOL_US;
use plc_phy::channel::{LinkDir, PlcChannel};
use plc_phy::error::pb_error_prob;
use plc_phy::estimation::{ChannelEstimator, EstimatorConfig, PB_BITS};
use plc_phy::tonemap::{ToneMap, TONEMAP_SLOTS};
use plc_phy::SnrSpectrum;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use simnet::obs::{self, Counter, Registry};
use simnet::rng::Distributions;
use simnet::time::{Duration, Time};

/// Registry handles for the measurement loop's hot path. Incrementing is
/// a cheap shared-cell add; nothing here feeds back into the measurement
/// (observation is inert — see `simnet::obs`).
struct ProbeMetrics {
    frames: Counter,
    events_fired: Counter,
    pbs: Counter,
    pb_errors: Counter,
    regens: Counter,
    resets: Counter,
    spec_hits: Counter,
    spec_refreshes: Counter,
}

impl ProbeMetrics {
    fn register(reg: &Registry) -> Self {
        ProbeMetrics {
            frames: reg.counter("core.probe.frames"),
            events_fired: reg.counter("sim.events_fired"),
            pbs: reg.counter("core.probe.pbs"),
            pb_errors: reg.counter("core.probe.pb_errors"),
            regens: reg.counter("core.probe.tonemap_regens"),
            resets: reg.counter("core.probe.resets"),
            spec_hits: reg.counter("core.probe.spectrum_hits"),
            spec_refreshes: reg.counter("core.probe.spectrum_refreshes"),
        }
    }
}

/// Outcome of pushing one frame through the link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameOutcome {
    /// Tone-map slot the frame flew in.
    pub slot: usize,
    /// BLE of the tone map used (what the SoF would carry), Mb/s.
    pub ble_mbps: f64,
    /// PB error probability the frame experienced.
    pub pberr: f64,
    /// PBs carried.
    pub pbs: u32,
    /// PBs received in error (drawn).
    pub pb_errors: u32,
    /// Frame length in OFDM symbols.
    pub n_symbols: u64,
    /// Whether the receiver regenerated the tone maps after this frame.
    pub regenerated: bool,
}

/// One directed link under measurement: channel, estimator, error
/// window.
pub struct LinkProbeSim {
    channel: PlcChannel,
    dir: LinkDir,
    est: ChannelEstimator,
    rng: StdRng,
    /// PBs (total, errored) since the last tone-map regeneration.
    window: (u64, u64),
    /// Cumulative PB counters.
    cumulative: (u64, u64),
    /// Per-slot spectrum cache (refreshed every `SPECTRUM_TTL`): frame
    /// rates of hundreds per second re-evaluate a channel that only
    /// moves on the cycle scale (~1 s), so caching is lossless in
    /// practice and makes week-long traces affordable.
    spec_cache: Vec<Option<(Time, SnrSpectrum)>>,
    /// Per-slot PBerr memoized for (tone-map id) against the slot's cached
    /// spectrum; invalidated with the spectrum (same shape as the MAC's
    /// `PlcSim::pberr_for`). Frames outpace both the spectrum TTL and
    /// tone-map regenerations, so most frames reuse the 917-carrier sum.
    pberr_memo: [Option<(u32, f64)>; TONEMAP_SLOTS],
    /// Prebuilt ROBO map for this carrier count, so pre-regen sends don't
    /// rebuild one per frame.
    robo: ToneMap,
    metrics: ProbeMetrics,
}

/// Spectrum cache lifetime.
const SPECTRUM_TTL: Duration = Duration::from_millis(100);

impl LinkProbeSim {
    /// Attach a measurement loop to one direction of a channel.
    pub fn new(channel: PlcChannel, dir: LinkDir, cfg: EstimatorConfig, seed: u64) -> Self {
        let n = channel.plan().len();
        LinkProbeSim {
            channel,
            dir,
            est: ChannelEstimator::new(cfg, n),
            rng: StdRng::seed_from_u64(seed),
            window: (0, 0),
            cumulative: (0, 0),
            spec_cache: vec![None; TONEMAP_SLOTS],
            pberr_memo: [None; TONEMAP_SLOTS],
            robo: ToneMap::robo(n),
            metrics: ProbeMetrics::register(simnet::obs::current().registry()),
        }
    }

    /// Refresh the per-slot cached spectrum at time `t` if stale,
    /// rewriting the slot's buffer in place (no per-refresh allocation).
    fn ensure_spectrum(&mut self, slot: usize, t: Time) {
        let stale = match &self.spec_cache[slot] {
            Some((at, _)) => t.saturating_since(*at) >= SPECTRUM_TTL,
            None => true,
        };
        if stale {
            self.metrics.spec_refreshes.inc();
            self.pberr_memo[slot] = None;
            let phase = (slot as f64 + 0.5) / TONEMAP_SLOTS as f64;
            let (at, spec) = self.spec_cache[slot].get_or_insert_with(|| (t, SnrSpectrum::empty()));
            *at = t;
            self.channel
                .spectrum_at_phase_into(self.dir, t, phase, spec);
        } else {
            self.metrics.spec_hits.inc();
        }
    }

    /// The underlying channel.
    pub fn channel(&self) -> &PlcChannel {
        &self.channel
    }

    /// The estimator state (receiver side).
    pub fn estimator(&self) -> &ChannelEstimator {
        &self.est
    }

    /// Factory-reset the devices on this link (paper §7.1 resets before
    /// convergence runs).
    pub fn reset(&mut self) {
        self.metrics.resets.inc();
        self.est.reset();
        self.window = (0, 0);
        for entry in &mut self.spec_cache {
            *entry = None;
        }
        // Tone-map ids restart at 1 after a reset: never let a memo entry
        // meet a fresh map's id (the cleared spectra would drop it on
        // refresh too).
        self.pberr_memo = [None; TONEMAP_SLOTS];
    }

    /// Average BLE over the six slots — the `int6krate` reading.
    pub fn ble_avg(&self) -> f64 {
        self.est.ble_avg()
    }

    /// Per-slot BLE — the `BLEs` in a SoF delimiter.
    pub fn ble_slot(&self, slot: usize) -> f64 {
        self.est.ble_slot(slot)
    }

    /// Cumulative PBerr — the `ampstat` reading (None before any PBs).
    pub fn pberr_cumulative(&self) -> Option<f64> {
        if self.cumulative.0 == 0 {
            None
        } else {
            Some(self.cumulative.1 as f64 / self.cumulative.0 as f64)
        }
    }

    /// The tone map the *sender* would use right now for a frame in
    /// `slot` (ROBO until the first tone maps exist).
    fn sender_map(&self, slot: usize) -> &ToneMap {
        if self.est.last_regen().is_some() {
            &self.est.tonemaps().slots[slot % TONEMAP_SLOTS]
        } else {
            &self.robo
        }
    }

    /// PBerr of the sender's map in `slot` against the slot's cached
    /// spectrum (which must be fresh), memoized per tone-map id:
    /// bit-identical to recomputing `pb_error_prob` every call.
    fn slot_pberr(&mut self, slot: usize) -> f64 {
        let map = self.sender_map(slot);
        if let Some((id, p)) = self.pberr_memo[slot] {
            if id == map.id {
                return p;
            }
        }
        let spec = &self.spec_cache[slot].as_ref().expect("fresh spectrum").1;
        let p = pb_error_prob(map, spec);
        self.pberr_memo[slot] = Some((map.id, p));
        p
    }

    /// Push one data/probe frame of `payload_bytes` through the link at
    /// time `t`. Frames always carry at least one PB; the frame length in
    /// symbols follows the tone map in use (padding to one symbol
    /// minimum) — which is exactly what makes sub-PB probes pathological
    /// (§7.2).
    pub fn frame(&mut self, t: Time, payload_bytes: u32) -> FrameOutcome {
        let slot = t.tonemap_slot(TONEMAP_SLOTS);
        self.ensure_spectrum(slot, t);
        let pbs = plc_mac::pb::pbs_for_packet(payload_bytes);
        let bits = pbs as u64 * PB_BITS;
        let pberr = self.slot_pberr(slot);
        // Shared borrows of the slot cache and the tone map end before the
        // estimator/rng mutations below (disjoint fields), so the frame
        // runs clone-free.
        let spec = &self.spec_cache[slot].as_ref().expect("just refreshed").1;
        let map = self.sender_map(slot);
        let ble_mbps = map.ble();
        let n_symbols = map.symbols_for_bits(bits).clamp(1, 1_000);
        let mut pb_errors = 0u32;
        for _ in 0..pbs {
            if Distributions::bernoulli(&mut self.rng, pberr) {
                pb_errors += 1;
            }
        }
        self.window.0 += pbs as u64;
        self.window.1 += pb_errors as u64;
        self.cumulative.0 += pbs as u64;
        self.cumulative.1 += pb_errors as u64;
        self.est.observe(&mut self.rng, slot, spec, n_symbols, pbs);
        let recent = if self.window.0 >= 20 {
            self.window.1 as f64 / self.window.0 as f64
        } else {
            0.0
        };
        let regenerated = self.est.maybe_regenerate(t, recent);
        if regenerated {
            self.window = (0, 0);
            self.metrics.regens.inc();
        }
        self.metrics.frames.inc();
        self.metrics.events_fired.inc();
        self.metrics.pbs.add(pbs as u64);
        self.metrics.pb_errors.add(pb_errors as u64);
        FrameOutcome {
            slot,
            ble_mbps,
            pberr,
            pbs,
            pb_errors,
            n_symbols,
            regenerated,
        }
    }

    /// Bring a link to steady state the way a freshly associated device
    /// pair does: saturate for `secs` seconds so the rapid initial
    /// tone-map refinements run their course. Returns the time at which
    /// steady-state measurement can start.
    pub fn warmup(&mut self, start: Time, secs: u64) -> Time {
        let _span = obs::span::enter_at("probe.warmup", start);
        let end = start + Duration::from_secs(secs);
        self.saturate_interval(start, end, Duration::from_millis(20));
        end
    }

    /// Push a saturated-traffic burst covering the interval `[t, t+dt)` at
    /// full-length frames (max aggregation), approximated as one
    /// max-length frame per `frame_interval`. Returns the last outcome.
    pub fn saturate_interval(
        &mut self,
        start: Time,
        end: Time,
        frame_interval: Duration,
    ) -> Option<FrameOutcome> {
        // One span per burst, not per frame — a frame is the innermost
        // hot call and would dominate any trace it appears in.
        let _span = obs::span::enter_at("probe.saturate", start);
        let mut t = start;
        let mut last = None;
        // A max-duration frame carries ~53 symbols worth of PBs; payload
        // size is irrelevant beyond "many PBs", use 24 kB.
        while t < end {
            last = Some(self.frame(t, 24_000));
            t += frame_interval;
        }
        last
    }

    /// Instantaneous expected UDP saturation throughput from the current
    /// estimator state (analytic MAC model, single flow).
    pub fn throughput_now(&mut self, t: Time) -> f64 {
        let slot = t.tonemap_slot(TONEMAP_SLOTS);
        self.ensure_spectrum(slot, t);
        let pberr = self.slot_pberr(slot);
        plc_mac::saturation_throughput_mbps(self.est.ble_avg(), pberr, 1)
    }

    /// Expected throughput and PBerr sampled for long-horizon traces:
    /// drives a short saturated burst (to keep the estimator live, as the
    /// paper's long experiments do) and returns `(ble_avg, pberr_window,
    /// throughput)`.
    pub fn sample_saturated(&mut self, t: Time) -> (f64, f64, f64) {
        // A handful of frames keeps tone maps fresh at this instant.
        let mut errs = 0u64;
        let mut tot = 0u64;
        for k in 0..6 {
            let o = self.frame(t + Duration::from_micros(k * 3_000), 24_000);
            errs += o.pb_errors as u64;
            tot += o.pbs as u64;
        }
        let pberr = errs as f64 / tot.max(1) as f64;
        let ble = self.est.ble_avg();
        (
            ble,
            pberr,
            plc_mac::saturation_throughput_mbps(ble, pberr, 1),
        )
    }

    /// Frame length (symbols) a payload would need under the current maps
    /// (diagnostic for probe-size studies).
    pub fn symbols_for_payload(&self, t: Time, payload_bytes: u32) -> u64 {
        let slot = t.tonemap_slot(TONEMAP_SLOTS);
        let map = self.sender_map(slot);
        map.symbols_for_bits(plc_mac::pb::pbs_for_packet(payload_bytes) as u64 * PB_BITS)
    }

    /// The ceiling rate of one PB per symbol, `R1sym ≈ 89.4` Mb/s (§7.2).
    pub fn r1sym_mbps() -> f64 {
        PB_BITS as f64 / SYMBOL_US
    }
}

/// Checkpointing: the channel, direction and estimator configuration are
/// construction inputs. Persisted are the estimator's sufficient
/// statistics, the RNG position, the PB windows and the *timestamps* of
/// the per-slot spectrum cache; the spectrum buffers themselves are pure
/// in (channel, time, slot phase) and recomputed on load.
impl electrifi_state::Persist for LinkProbeSim {
    fn save_state(&self, w: &mut electrifi_state::SectionWriter) {
        self.est.save_state(w);
        w.put(&self.rng);
        w.put(&self.window);
        w.put(&self.cumulative);
        for entry in &self.spec_cache {
            w.put(&entry.as_ref().map(|(at, _)| *at));
        }
    }

    fn load_state(
        &mut self,
        r: &mut electrifi_state::SectionReader<'_>,
    ) -> Result<(), electrifi_state::StateError> {
        // The restored estimator's tone-map ids need not match the memo's.
        self.pberr_memo = [None; TONEMAP_SLOTS];
        self.est.load_state(r)?;
        self.rng = r.get()?;
        self.window = r.get()?;
        self.cumulative = r.get()?;
        for (label, (total, err)) in [("window", self.window), ("cumulative", self.cumulative)] {
            if err > total {
                return Err(r.malformed(format!(
                    "probe {label} counter has {err} errors of {total} PBs"
                )));
            }
        }
        for slot in 0..TONEMAP_SLOTS {
            let at: Option<Time> = r.get()?;
            self.spec_cache[slot] = at.map(|t| {
                let phase = (slot as f64 + 0.5) / TONEMAP_SLOTS as f64;
                let mut spec = SnrSpectrum::empty();
                self.channel
                    .spectrum_at_phase_into(self.dir, t, phase, &mut spec);
                (t, spec)
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::PaperEnv;

    fn link(a: u16, b: u16) -> LinkProbeSim {
        let env = PaperEnv::new(2015);
        LinkProbeSim::new(
            env.plc_channel(a, b),
            PaperEnv::dir(a, b),
            env.estimator,
            42,
        )
    }

    #[test]
    fn persist_resumes_the_measurement_loop_bit_identically() {
        use electrifi_state::{SnapshotReader, SnapshotWriter};
        let mut straight = link(5, 8);
        let mut resumed = link(5, 8);
        let start = Time::from_hours(2);
        let cut = straight.warmup(start, 4);
        let mut snap = SnapshotWriter::new();
        snap.save("probe", &straight);
        SnapshotReader::from_bytes(&snap.to_bytes())
            .unwrap()
            .load("probe", &mut resumed)
            .unwrap();
        for k in 0..200u64 {
            let t = cut + Duration::from_millis(k * 7);
            let a = straight.frame(t, 1500);
            let b = resumed.frame(t, 1500);
            assert_eq!(a.pb_errors, b.pb_errors, "error draws diverged at {k}");
            assert_eq!(
                a.ble_mbps.to_bits(),
                b.ble_mbps.to_bits(),
                "BLE diverged at {k}"
            );
        }
        assert_eq!(straight.ble_avg().to_bits(), resumed.ble_avg().to_bits());
        assert_eq!(straight.cumulative, resumed.cumulative);
    }

    /// Push a frame at `t` and check its PBerr (and, every tenth frame,
    /// `throughput_now`) against a recomputation from the same sender map
    /// and spectrum. Returns whether the memo served the frame.
    fn frame_matches_recomputation(l: &mut LinkProbeSim, t: Time, k: u64) -> bool {
        let slot = t.tonemap_slot(TONEMAP_SLOTS);
        l.ensure_spectrum(slot, t);
        let map = l.sender_map(slot);
        let hit = matches!(l.pberr_memo[slot], Some((id, _)) if id == map.id);
        let spec = &l.spec_cache[slot].as_ref().unwrap().1;
        let expected = pb_error_prob(map, spec);
        let o = l.frame(t, 24_000);
        assert_eq!(
            o.pberr.to_bits(),
            expected.to_bits(),
            "frame PBerr at {t:?}"
        );
        if k.is_multiple_of(10) {
            l.ensure_spectrum(slot, t);
            let spec = &l.spec_cache[slot].as_ref().unwrap().1;
            let pberr = pb_error_prob(l.sender_map(slot), spec);
            let expected = plc_mac::saturation_throughput_mbps(l.ble_avg(), pberr, 1);
            assert_eq!(
                l.throughput_now(t).to_bits(),
                expected.to_bits(),
                "throughput_now at {t:?}"
            );
        }
        hit
    }

    #[test]
    fn pberr_memo_matches_recomputation_across_reset_and_restore() {
        use electrifi_state::{SnapshotReader, SnapshotWriter};
        let mut l = link(5, 8);
        let mut hits = 0usize;
        let mut t = Time::from_hours(2);
        let mut run = |l: &mut LinkProbeSim, t: &mut Time, n: u64, step_ms: u64| {
            for k in 0..n {
                hits += frame_matches_recomputation(l, *t, k) as usize;
                *t += Duration::from_millis(step_ms);
            }
        };
        // Warmup cadence: 20 ms frames against a 100 ms spectrum TTL.
        run(&mut l, &mut t, 200, 20);
        // A reset restarts tone-map ids at 1 while the memo is warm.
        l.reset();
        run(&mut l, &mut t, 150, 7);
        // Another link at another time of day: same tone-map ids, other
        // maps, so its memo would serve a wrong PBerr after the restore.
        let mut resumed = link(5, 8);
        let mut other = Time::from_hours(14);
        run(&mut resumed, &mut other, 100, 7);
        let slot = t.tonemap_slot(TONEMAP_SLOTS);
        let fresh_at = l.spec_cache[slot].as_ref().unwrap().0;
        assert!(
            t.saturating_since(fresh_at) < SPECTRUM_TTL,
            "spectrum must be live"
        );
        let (id, p) = resumed.pberr_memo[slot].expect("warm memo");
        assert_eq!(
            id,
            l.sender_map(slot).id,
            "the restore must meet a colliding id"
        );
        assert_ne!(p.to_bits(), l.pberr_memo[slot].unwrap().1.to_bits());
        let mut snap = SnapshotWriter::new();
        snap.save("probe", &l);
        SnapshotReader::from_bytes(&snap.to_bytes())
            .unwrap()
            .load("probe", &mut resumed)
            .unwrap();
        run(&mut resumed, &mut t, 200, 7);
        assert!(hits > 300, "memo served only {hits} of 650 frames");
    }

    #[test]
    fn saturation_converges_to_a_live_tone_map() {
        let mut l = link(5, 8); // short, clean link
        let start = Time::from_hours(2);
        l.warmup(start, 8);
        assert!(l.ble_avg() > 30.0, "ble={}", l.ble_avg());
        assert!(l.pberr_cumulative().is_some());
    }

    #[test]
    fn frames_report_slots_and_symbols() {
        let mut l = link(1, 2);
        let o = l.frame(Time::from_millis(3), 1500);
        assert!(o.slot < TONEMAP_SLOTS);
        assert_eq!(o.pbs, 3);
        assert!(o.n_symbols >= 1);
        assert!(o.ble_mbps > 0.0);
    }

    #[test]
    fn reset_restores_robo() {
        let mut l = link(5, 8);
        let start = Time::from_hours(2);
        l.warmup(start, 8);
        let live = l.ble_avg();
        l.reset();
        assert!(l.ble_avg() < live / 2.0);
    }

    #[test]
    fn r1sym_matches_the_paper() {
        assert!((LinkProbeSim::r1sym_mbps() - 89.4).abs() < 0.1);
    }

    #[test]
    fn throughput_now_is_consistent_with_fig15_scale() {
        let mut l = link(5, 8);
        let start = Time::from_hours(2);
        let steady = l.warmup(start, 8);
        let t = l.throughput_now(steady);
        let ble = l.ble_avg();
        let slope = ble / t;
        assert!((1.4..2.1).contains(&slope), "ble={ble} T={t} slope={slope}");
    }
}
