//! The channel-estimation algorithm.
//!
//! IEEE 1901 leaves channel estimation vendor-specific (paper §2.2); this
//! module implements a realistic estimator exhibiting every behaviour the
//! paper measures:
//!
//! * **bootstrap from sound frames** in ROBO mode (§2.1);
//! * **convergence over samples** — per-carrier SNR estimates sharpen as
//!   frames (more precisely, OFDM symbols) are observed; while confidence
//!   is low the estimator keeps an extra safety margin, so the estimated
//!   capacity converges to the true value *from below*, faster at higher
//!   probing rates (Fig. 16);
//! * **statistics persistence** — pausing probing does not decay the
//!   estimate; it resumes where it stopped (Fig. 17);
//! * **tone-map refresh** on PB-error threshold or 30 s expiry (§2.1),
//!   which produces the quality-dependent update inter-arrival α of
//!   Fig. 11;
//! * **the sub-PB probe pathology** (§7.2): when every observed frame
//!   fits in a single OFDM symbol, raising the per-symbol bit loading
//!   cannot shorten the frame but does raise the error rate, so the
//!   algorithm converges to exactly one PB per symbol — capping the
//!   estimate at `R1sym = 520·8/Tsym ≈ 89.4 Mb/s` and staying there;
//! * optionally, the **AV500 vendor quirk** seen in Fig. 10: a burst of
//!   errors makes the estimator return a very low BLE until the next
//!   regeneration.

use crate::channel::SpectrumSource;
use crate::modulation::{FecRate, Modulation};
use crate::tonemap::{ToneMap, ToneMapSet, TONEMAP_SLOTS};
use crate::SnrSpectrum;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use simnet::obs;
use simnet::rng::{advance, Distributions};
use simnet::time::{Duration, Time};

/// Bits of one physical block (512 B payload + 8 B header).
pub const PB_BITS: u64 = 520 * 8;

/// FEC code rate of HomePlug AV / AV500 data tone maps.
const DATA_FEC: FecRate = FecRate::SixteenTwentyFirsts;

/// The PB error rate tone maps are designed for (enters the BLE via
/// Eq. 1).
pub const TARGET_PBERR: f64 = 0.02;
/// Tone-map lifetime before forced regeneration (paper §2.1).
const EXPIRY: Duration = Duration::from_secs(30);
/// Std (dB) of a single-symbol SNR measurement.
const MEAS_NOISE_DB: f64 = 5.0;
/// Sliding-window cap on tracking weight (how fast old channel state
/// is forgotten).
const TRACKING_CAP: f64 = 240.0;

/// Configuration of the estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimatorConfig {
    /// Base SNR margin (dB) subtracted before selecting modulations.
    pub margin_db: f64,
    /// Measured PBerr above which the tone map is regenerated early.
    pub pberr_threshold: f64,
    /// Extra conservative margin (dB) at zero confidence; decays as
    /// samples accumulate.
    pub bootstrap_margin_db: f64,
    /// Sample weight at which the bootstrap margin has halved.
    pub confidence_halflife: f64,
    /// Enable the AV500-style "very low BLE after bursty errors" quirk.
    pub av500_quirk: bool,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            margin_db: 2.0,
            pberr_threshold: 0.08,
            bootstrap_margin_db: 9.0,
            confidence_halflife: 450.0,
            av500_quirk: false,
        }
    }
}

impl EstimatorConfig {
    /// An Intellon/INT6300-flavoured configuration (the paper's main
    /// testbed): the defaults.
    pub fn vendor_intellon() -> Self {
        EstimatorConfig::default()
    }

    /// A QCA7400/AV500-flavoured configuration (the paper's validation
    /// devices): more aggressive margins, but the Fig. 10 quirk — bursty
    /// errors collapse the next tone map.
    pub fn vendor_qca() -> Self {
        EstimatorConfig {
            margin_db: 1.5,
            pberr_threshold: 0.06,
            av500_quirk: true,
            ..EstimatorConfig::default()
        }
    }

    /// A conservative third vendor: bigger margins and slower bootstrap,
    /// trading capacity for stability. Used by the vendor-comparison
    /// bench (the paper's §6.2 future work: "comparing link-metric
    /// estimations for different vendors and technologies").
    pub fn vendor_conservative() -> Self {
        EstimatorConfig {
            margin_db: 4.0,
            bootstrap_margin_db: 12.0,
            confidence_halflife: 900.0,
            pberr_threshold: 0.15,
            ..EstimatorConfig::default()
        }
    }
}

/// Lifetime counters of a [`ChannelEstimator`]: how often it was reset,
/// how many frames it measured, and how many tone-map regenerations it
/// performed (split out by error-triggered ones). Pure bookkeeping — the
/// counters never influence estimation, so observation stays inert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EstimatorStats {
    /// Factory resets ([`ChannelEstimator::reset`]); survives the reset.
    pub resets: u64,
    /// Frames ingested via [`ChannelEstimator::observe`].
    pub observations: u64,
    /// Tone-map regenerations (the convergence iterations of Fig. 16).
    pub regenerations: u64,
    /// Regenerations triggered by the PB-error threshold rather than
    /// expiry or bootstrap.
    pub error_regenerations: u64,
}

/// Entries the pending-observation log holds before it is applied
/// anyway. It bounds the memory of an estimator that observes for long
/// without regenerating; applying early changes no result. Unit tests
/// use a small cap so that their short runs cross it.
#[cfg(not(test))]
const LOG_CAP: usize = 4096;
#[cfg(test)]
const LOG_CAP: usize = 24;

/// One deferred observation: everything the eager per-carrier update
/// needs to run later with the same draws.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Shared-generator state right before the observation's draws.
    rng: [u64; 4],
    /// Index into [`PendingLog::sources`] of the truth spectrum.
    source: u32,
    slot: u8,
    /// Frame length in symbols, already clamped to `1..=64`.
    n_symbols: u8,
}

/// Observations whose per-carrier updates have not been applied yet, in
/// order. The buffers are reused across flushes and resets.
#[derive(Debug, Clone, Default)]
struct PendingLog {
    entries: Vec<Pending>,
    /// Distinct truth spectra of `entries`.
    sources: Vec<SpectrumSource>,
    /// Per tone-map slot, the index of the last source logged for it:
    /// consecutive frames in a slot mostly reuse one cached spectrum.
    last_source: [Option<u32>; TONEMAP_SLOTS],
    /// Scratch the replay recomposes each truth spectrum into.
    truth: Vec<f64>,
}

impl PendingLog {
    fn push(&mut self, rng: [u64; 4], slot: usize, n_symbols: u8, src: &SpectrumSource) {
        let source = match self.last_source[slot] {
            Some(i) if self.sources[i as usize].same_as(src) => i,
            _ => {
                let i = self.sources.len() as u32;
                self.sources.push(src.clone());
                self.last_source[slot] = Some(i);
                i
            }
        };
        self.entries.push(Pending {
            rng,
            source,
            slot: slot as u8,
            n_symbols,
        });
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.sources.clear();
        self.last_source = [None; TONEMAP_SLOTS];
    }
}

/// Per-link-direction channel estimator, owned by the *destination*
/// station, which measures sound/data frames and returns tone maps to the
/// source (paper §2.1).
///
/// Only a regeneration reads the per-carrier estimates, so
/// [`ChannelEstimator::observe`] defers their update: it keeps every
/// scalar the regeneration triggers read current, advances the shared
/// generator past the draws the update will make, and logs the
/// observation. [`ChannelEstimator::regenerate`] replays the log first,
/// with the same draws and the same float expressions, so every estimate
/// and tone map is bit-identical to updating eagerly; a reset drops the
/// log, and with it the work no regeneration would ever have read.
#[derive(Debug, Clone)]
pub struct ChannelEstimator {
    cfg: EstimatorConfig,
    stats: EstimatorStats,
    n_carriers: usize,
    /// Per-slot, per-carrier SNR estimates (dB), up to the last applied
    /// observation.
    snr_est: Vec<Vec<f64>>,
    /// Per-slot tracking weight (bounded by `TRACKING_CAP`), up to the
    /// last observation.
    weight: [f64; TONEMAP_SLOTS],
    /// `weight` as of the last applied observation: the replay's own
    /// copy, equal to `weight` whenever the log is empty.
    applied_weight: [f64; TONEMAP_SLOTS],
    /// Total accumulated sample weight since the last reset; drives the
    /// bootstrap-margin decay and never shrinks while probing pauses.
    total_weight: f64,
    /// Largest frame payload (in PBs) observed since reset — the trigger
    /// of the sub-PB probe pathology (§7.2): while every frame carries a
    /// single PB, loading more than one PB per symbol cannot shorten any
    /// frame, so the algorithm refuses to exceed one PB per symbol.
    max_pbs_seen: u32,
    tonemaps: ToneMapSet,
    last_regen: Option<Time>,
    next_id: u32,
    log: PendingLog,
}

impl ChannelEstimator {
    /// Fresh estimator: everything at the ROBO default.
    pub fn new(cfg: EstimatorConfig, n_carriers: usize) -> Self {
        ChannelEstimator {
            cfg,
            stats: EstimatorStats::default(),
            n_carriers,
            snr_est: vec![vec![0.0; n_carriers]; TONEMAP_SLOTS],
            weight: [0.0; TONEMAP_SLOTS],
            applied_weight: [0.0; TONEMAP_SLOTS],
            total_weight: 0.0,
            max_pbs_seen: 0,
            tonemaps: ToneMapSet::all_robo(n_carriers),
            last_regen: None,
            next_id: 1,
            log: PendingLog::default(),
        }
    }

    /// Factory reset (the paper resets devices before the Fig. 16/18
    /// convergence experiments). Lifetime counters survive the reset —
    /// and record it. Pending observations are dropped unapplied.
    pub fn reset(&mut self) {
        let mut stats = self.stats;
        stats.resets += 1;
        let mut log = std::mem::take(&mut self.log);
        log.clear();
        *self = ChannelEstimator::new(self.cfg, self.n_carriers);
        self.stats = stats;
        self.log = log;
    }

    /// Lifetime counters (resets, observations, regenerations).
    pub fn stats(&self) -> EstimatorStats {
        self.stats
    }

    /// Current tone maps.
    pub fn tonemaps(&self) -> &ToneMapSet {
        &self.tonemaps
    }

    /// Average BLE over all slots — what the `int6krate` management
    /// message reports (paper Table 2).
    pub fn ble_avg(&self) -> f64 {
        self.tonemaps.ble_avg()
    }

    /// BLE of one slot (the `BLEs` carried in the SoF of frames sent in
    /// that slot).
    pub fn ble_slot(&self, slot: usize) -> f64 {
        self.tonemaps.ble_slot(slot)
    }

    /// Accumulated sample weight (diagnostic).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Ingest one received frame (data or sound): the destination measures
    /// per-carrier SNR from it. `slot` is the tone-map slot the frame flew
    /// in, `true_spectrum` the channel's actual per-carrier SNR at that
    /// moment, `n_symbols` the frame length in OFDM symbols — longer
    /// frames provide more measurement samples ("it needs many samples
    /// from many PBs to estimate the error for every frequency", §7.1) —
    /// and `n_pbs` the number of physical blocks the frame carried.
    ///
    /// A spectrum the channel composed (one with a `SpectrumSource`) is
    /// logged and its per-carrier update deferred to the next
    /// regeneration; `rng` is still advanced exactly as the update will
    /// draw, in one [`advance`] jump. A spectrum of raw values is
    /// applied at once.
    pub fn observe(
        &mut self,
        rng: &mut StdRng,
        slot: usize,
        true_spectrum: &SnrSpectrum,
        n_symbols: u64,
        n_pbs: u32,
    ) {
        debug_assert_eq!(true_spectrum.snr_db.len(), self.n_carriers);
        let slot = slot % TONEMAP_SLOTS;
        let n_symbols = n_symbols.clamp(1, 64) as u8;
        match true_spectrum.source() {
            Some(src) => {
                debug_assert!(
                    {
                        let mut truth = Vec::new();
                        src.compose_into(&mut truth);
                        truth
                            .iter()
                            .map(|x| x.to_bits())
                            .eq(true_spectrum.snr_db.iter().map(|x| x.to_bits()))
                    },
                    "spectrum values no longer match their source"
                );
                let state = rng.state();
                let n = true_spectrum.snr_db.len().min(self.n_carriers) as u64;
                let mut slots = 0;
                update_slots(&mut self.weight, slot, n_symbols, |_, _, _, _, _| {
                    slots += 1
                });
                // One two-word normal draw per carrier of every updated slot.
                advance(rng, 2 * slots * n);
                self.log.push(state, slot, n_symbols, src);
                if self.log.entries.len() >= LOG_CAP {
                    self.apply_pending();
                }
            }
            None => {
                self.apply_pending();
                apply_observation(
                    &mut self.snr_est,
                    &mut self.applied_weight,
                    rng,
                    slot,
                    &true_spectrum.snr_db,
                    n_symbols,
                );
                self.weight = self.applied_weight;
            }
        }
        self.total_weight += (n_symbols as f64).sqrt();
        self.max_pbs_seen = self.max_pbs_seen.max(n_pbs);
        self.stats.observations += 1;
    }

    /// Apply every pending observation, in order, with the draws and
    /// float expressions the eager update would have used.
    fn apply_pending(&mut self) {
        if self.log.entries.is_empty() {
            return;
        }
        // A span per replay, not per frame: a replay follows a
        // regeneration, a full log or a raw-valued spectrum.
        let _span = obs::span::enter("estimator.replay");
        let ChannelEstimator {
            snr_est,
            applied_weight,
            log,
            ..
        } = self;
        let mut composed = None;
        for e in &log.entries {
            if composed != Some(e.source) {
                log.sources[e.source as usize].compose_into(&mut log.truth);
                composed = Some(e.source);
            }
            apply_observation(
                snr_est,
                applied_weight,
                &mut StdRng::from_state(e.rng),
                e.slot as usize,
                &log.truth,
                e.n_symbols,
            );
        }
        log.clear();
        debug_assert_eq!(
            self.applied_weight.map(f64::to_bits),
            self.weight.map(f64::to_bits)
        );
    }

    /// Effective margin: base margin plus the bootstrap margin scaled down
    /// as confidence accumulates.
    fn effective_margin(&self) -> f64 {
        let conf = self.total_weight / self.cfg.confidence_halflife;
        self.cfg.margin_db + self.cfg.bootstrap_margin_db / (1.0 + conf)
    }

    /// Should the tone maps be regenerated now? Right after association
    /// (or a reset) devices refine tone maps rapidly — the first few
    /// regenerations use a tenth of `EXPIRY`, after which the
    /// standard 30 s lifetime applies.
    pub fn needs_regen(&self, now: Time, recent_pberr: f64) -> bool {
        match self.last_regen {
            None => self.total_weight > 0.0,
            Some(t0) => {
                let expiry = if self.next_id <= 4 {
                    Duration(EXPIRY.as_nanos() / 10)
                } else {
                    EXPIRY
                };
                now.saturating_since(t0) >= expiry || recent_pberr > self.cfg.pberr_threshold
            }
        }
    }

    /// Regenerate the tone maps if a trigger fires (expiry or PB-error
    /// threshold, paper §2.1). Returns `true` when new maps were produced.
    /// `recent_pberr` is the PB error rate measured since the last
    /// regeneration.
    pub fn maybe_regenerate(&mut self, now: Time, recent_pberr: f64) -> bool {
        if !self.needs_regen(now, recent_pberr) {
            return false;
        }
        let error_triggered = self
            .last_regen
            .is_some_and(|_| recent_pberr > self.cfg.pberr_threshold);
        self.regenerate(now, error_triggered);
        true
    }

    /// Unconditionally regenerate the tone maps from the current SNR
    /// estimates.
    pub fn regenerate(&mut self, now: Time, error_triggered: bool) {
        self.apply_pending();
        self.stats.regenerations += 1;
        if error_triggered {
            self.stats.error_regenerations += 1;
        }
        let mut margin = self.effective_margin();
        if error_triggered {
            // React to errors: step the margin up a little...
            margin += 1.0;
            // ...or, with the AV500 vendor quirk, collapse to a very
            // conservative map (Fig. 10's deep oscillation); the next
            // clean regeneration recovers.
            if self.cfg.av500_quirk {
                margin += 8.0;
            }
        }
        for s in 0..TONEMAP_SLOTS {
            // Rewrite the slot's map in place: `clear` + `extend` reuses
            // the carrier buffer (always `n_carriers` long), so a
            // regeneration is heap-free — this runs inside the MAC hot
            // loop every expiry/error trigger. Field order mirrors the
            // original `from_snr` → repetition → cap pipeline so
            // the resulting maps are bit-identical.
            let map = &mut self.tonemaps.slots[s];
            map.carriers.clear();
            map.carriers.extend(
                self.snr_est[s]
                    .iter()
                    .map(|&snr| Modulation::select(snr, margin)),
            );
            map.fec = DATA_FEC;
            map.design_pberr = TARGET_PBERR;
            map.id = self.next_id;
            map.repetition = 1;
            // Sub-PB pathology: if no observed frame ever carried more
            // than one PB, there is no benefit in loading more than one PB
            // per symbol — higher rates cannot shorten a one-symbol frame,
            // they only add errors — so the algorithm settles at one PB
            // per symbol (paper §7.2).
            if self.max_pbs_seen <= 1 {
                Self::cap_info_bits(map, PB_BITS);
            }
            self.next_id = self.next_id.wrapping_add(1);
        }
        self.last_regen = Some(now);
    }

    /// Downgrade carriers one rung at a time, always the highest-loaded
    /// one (the highest index among equals), until the map's information
    /// bits per symbol do not exceed `cap_bits`.
    ///
    /// That order walks the ladder top down and, on each rung, the
    /// carriers on it from the highest index down, so one pass per rung
    /// finds every downgrade; a running bit sum replaces the per-step
    /// recount. Both give the comparisons
    /// [`ToneMap::info_bits_per_symbol`] would.
    fn cap_info_bits(map: &mut ToneMap, cap_bits: u64) {
        let (fec, repetition) = (map.fec.as_f64(), map.repetition as f64);
        let over = |bits: u64| bits as f64 * fec / repetition > cap_bits as f64;
        let mut bits = map.bits_per_symbol();
        for rung in (1..Modulation::LADDER.len()).rev() {
            let (from, to) = (Modulation::LADDER[rung], Modulation::LADDER[rung - 1]);
            for m in map.carriers.iter_mut().rev() {
                if *m != from {
                    continue;
                }
                if !over(bits) {
                    return;
                }
                *m = to;
                bits -= (from.bits() - to.bits()) as u64;
            }
        }
    }

    /// Time of the last tone-map regeneration.
    pub fn last_regen(&self) -> Option<Time> {
        self.last_regen
    }
}

/// Run `per_slot(s, weight, uw, us, total)` for every slot one
/// observation updates, then advance that slot's tracking weight: the
/// observed slot at full weight, the others weakly (the standard derives
/// maps for all slots from any traffic, paper §7.1). Cross-slot updates
/// stop once a slot has built up its own history — they only serve the
/// bootstrap.
fn update_slots(
    weight: &mut [f64; TONEMAP_SLOTS],
    slot: usize,
    n_symbols: u8,
    mut per_slot: impl FnMut(usize, f64, f64, f64, f64),
) {
    let w = (n_symbols as f64).sqrt();
    let sigma = MEAS_NOISE_DB / w;
    for (s, ws) in weight.iter_mut().enumerate() {
        if s != slot && *ws >= 0.3 * TRACKING_CAP {
            continue;
        }
        let (uw, us) = if s == slot {
            (w, sigma)
        } else {
            (0.25 * w, sigma * 2.0)
        };
        let total = *ws + uw;
        per_slot(s, *ws, uw, us, total);
        *ws = total.min(TRACKING_CAP);
    }
}

/// The per-carrier update of one observation: one noisy measurement per
/// carrier, folded into the slot's running estimate.
fn apply_observation(
    snr_est: &mut [Vec<f64>],
    weight: &mut [f64; TONEMAP_SLOTS],
    rng: &mut StdRng,
    slot: usize,
    truth: &[f64],
    n_symbols: u8,
) {
    update_slots(weight, slot, n_symbols, |s, old, uw, us, total| {
        for (est, &truth) in snr_est[s].iter_mut().zip(truth) {
            let meas = truth + Distributions::normal(rng, 0.0, us);
            *est = (*est * old + meas * uw) / total;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carrier::SYMBOL_US;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    const N: usize = 200;

    fn flat_spectrum(snr: f64) -> SnrSpectrum {
        SnrSpectrum::from_db(vec![snr; N])
    }

    fn estimator() -> ChannelEstimator {
        ChannelEstimator::new(EstimatorConfig::default(), N)
    }

    #[test]
    fn starts_in_robo() {
        let e = estimator();
        let robo_ble = ToneMap::robo(N).ble();
        assert!((e.ble_avg() - robo_ble).abs() < 1e-9);
        assert_eq!(e.total_weight(), 0.0);
    }

    #[test]
    fn converges_upward_to_true_capacity() {
        let mut e = estimator();
        let mut rng = StdRng::seed_from_u64(7);
        let spec = flat_spectrum(30.0);
        let mut last_ble = 0.0;
        let mut bles = Vec::new();
        for step in 0..200 {
            for _ in 0..10 {
                e.observe(&mut rng, step % TONEMAP_SLOTS, &spec, 20, 8);
            }
            let t = Time::from_secs(step as u64 * 31);
            e.maybe_regenerate(t, 0.0);
            bles.push(e.ble_avg());
            last_ble = e.ble_avg();
        }
        // Converged near the ideal map for SNR 30 with the base margin.
        let ideal = ToneMap::from_snr(
            &vec![30.0; N],
            EstimatorConfig::default().margin_db,
            FecRate::SixteenTwentyFirsts,
            0.02,
            0,
        )
        .ble();
        assert!(
            (last_ble - ideal).abs() / ideal < 0.1,
            "last={last_ble} ideal={ideal}"
        );
        // Convergence from below: early estimates are lower.
        assert!(
            bles[0] < last_ble * 0.9,
            "first={} last={last_ble}",
            bles[0]
        );
    }

    #[test]
    fn more_observations_converge_faster() {
        let run = |obs_per_step: usize| -> usize {
            let mut e = estimator();
            let mut rng = StdRng::seed_from_u64(3);
            let spec = flat_spectrum(28.0);
            let target = {
                let m = ToneMap::from_snr(
                    &vec![28.0; N],
                    EstimatorConfig::default().margin_db,
                    FecRate::SixteenTwentyFirsts,
                    0.02,
                    0,
                );
                m.ble() * 0.95
            };
            for step in 0..400 {
                for _ in 0..obs_per_step {
                    e.observe(&mut rng, step % TONEMAP_SLOTS, &spec, 3, 8);
                }
                e.regenerate(Time::from_secs(step as u64), false);
                if e.ble_avg() >= target {
                    return step;
                }
            }
            400
        };
        let slow = run(1);
        let fast = run(20);
        assert!(fast < slow, "fast={fast} slow={slow}");
    }

    #[test]
    fn statistics_persist_across_pauses() {
        // Fig. 17: pausing probing must not reset the estimate.
        let mut e = estimator();
        let mut rng = StdRng::seed_from_u64(11);
        let spec = flat_spectrum(26.0);
        for step in 0..300 {
            e.observe(&mut rng, step % TONEMAP_SLOTS, &spec, 10, 8);
        }
        e.regenerate(Time::from_secs(10), false);
        let before_pause = e.ble_avg();
        // 7 minutes of silence, then one more observation and regen.
        let resume = Time::from_secs(10 + 420);
        e.observe(&mut rng, 0, &spec, 10, 8);
        e.regenerate(resume, false);
        let after_pause = e.ble_avg();
        assert!(
            (after_pause - before_pause).abs() / before_pause < 0.05,
            "before={before_pause} after={after_pause}"
        );
    }

    #[test]
    fn reset_returns_to_robo() {
        let mut e = estimator();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            e.observe(&mut rng, 0, &flat_spectrum(30.0), 10, 8);
        }
        e.regenerate(Time::from_secs(1), false);
        assert!(e.ble_avg() > 15.0);
        e.reset();
        assert!((e.ble_avg() - ToneMap::robo(N).ble()).abs() < 1e-9);
        assert_eq!(e.total_weight(), 0.0);
    }

    #[test]
    fn sub_pb_frames_cap_the_estimate_at_r1sym() {
        // Fig. 18: probing with packets smaller than one PB caps the
        // capacity estimate at ~89.4 Mb/s on a channel that could do more.
        let cfg = EstimatorConfig::default();
        let mut e = ChannelEstimator::new(cfg, 917);
        let mut rng = StdRng::seed_from_u64(2);
        let spec = SnrSpectrum::from_db(vec![40.0; 917]);
        for step in 0..3000 {
            e.observe(&mut rng, step % TONEMAP_SLOTS, &spec, 1, 1); // 1-symbol frames
        }
        e.regenerate(Time::from_secs(100), false);
        let r1sym = PB_BITS as f64 / SYMBOL_US;
        let ble = e.ble_avg();
        assert!(
            ble <= r1sym * 1.01,
            "ble={ble} must not exceed R1sym={r1sym}"
        );
        assert!(ble > r1sym * 0.80, "ble={ble} should sit near the cap");
        // Larger frames lift the cap.
        e.observe(&mut rng, 0, &spec, 4, 8);
        e.regenerate(Time::from_secs(131), false);
        assert!(
            e.ble_avg() > r1sym * 1.05,
            "cap should lift: {}",
            e.ble_avg()
        );
    }

    #[test]
    fn regen_triggers_expiry_and_pberr() {
        let mut e = estimator();
        let mut rng = StdRng::seed_from_u64(9);
        e.observe(&mut rng, 0, &flat_spectrum(25.0), 10, 8);
        // First regen: bootstrap.
        assert!(e.maybe_regenerate(Time::from_secs(1), 0.0));
        // No trigger: within expiry, low pberr.
        assert!(!e.maybe_regenerate(Time::from_secs(2), 0.01));
        // PB-error trigger.
        assert!(e.maybe_regenerate(Time::from_secs(3), 0.5));
        // Expiry trigger.
        assert!(!e.maybe_regenerate(Time::from_secs(10), 0.0));
        assert!(e.maybe_regenerate(Time::from_secs(3 + 31), 0.0));
    }

    #[test]
    fn av500_quirk_dips_after_error_burst() {
        let cfg = EstimatorConfig {
            av500_quirk: true,
            ..EstimatorConfig::default()
        };
        let mut e = ChannelEstimator::new(cfg, N);
        let mut rng = StdRng::seed_from_u64(13);
        let spec = flat_spectrum(30.0);
        for step in 0..500 {
            e.observe(&mut rng, step % TONEMAP_SLOTS, &spec, 20, 8);
        }
        e.regenerate(Time::from_secs(1), false);
        let steady = e.ble_avg();
        // Bursty errors trigger an error regen: the quirk collapses BLE.
        assert!(e.maybe_regenerate(Time::from_secs(2), 0.6));
        let dipped = e.ble_avg();
        assert!(
            dipped < steady * 0.8,
            "steady={steady} dipped={dipped}: expected a deep dip"
        );
        // A clean regeneration recovers.
        for step in 0..200 {
            e.observe(&mut rng, step % TONEMAP_SLOTS, &spec, 20, 8);
        }
        e.regenerate(Time::from_secs(40), false);
        assert!(e.ble_avg() > dipped, "should recover");
    }

    #[test]
    fn vendor_presets_differ_meaningfully() {
        let a = EstimatorConfig::vendor_intellon();
        let b = EstimatorConfig::vendor_qca();
        let c = EstimatorConfig::vendor_conservative();
        assert!(b.margin_db < a.margin_db && a.margin_db < c.margin_db);
        assert!(b.av500_quirk && !a.av500_quirk && !c.av500_quirk);
        // On the same channel, the aggressive vendor advertises more BLE
        // than the conservative one.
        let mut rng = StdRng::seed_from_u64(8);
        let spec = flat_spectrum(28.0);
        let run = |cfg: EstimatorConfig, rng: &mut StdRng| {
            let mut e = ChannelEstimator::new(cfg, N);
            for step in 0..800 {
                e.observe(rng, step % TONEMAP_SLOTS, &spec, 20, 8);
            }
            e.regenerate(Time::from_secs(60), false);
            e.ble_avg()
        };
        let aggressive = run(b, &mut rng);
        let conservative = run(c, &mut rng);
        assert!(
            aggressive > conservative,
            "aggressive={aggressive} conservative={conservative}"
        );
    }

    #[test]
    fn stats_count_lifecycle_and_survive_reset() {
        let mut e = estimator();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..5 {
            e.observe(&mut rng, 0, &flat_spectrum(25.0), 10, 8);
        }
        e.regenerate(Time::from_secs(1), false);
        e.regenerate(Time::from_secs(2), true);
        e.reset();
        let s = e.stats();
        assert_eq!(s.observations, 5);
        assert_eq!(s.regenerations, 2);
        assert_eq!(s.error_regenerations, 1);
        assert_eq!(s.resets, 1);
        // The estimate itself did reset.
        assert_eq!(e.total_weight(), 0.0);
    }

    /// Today's eager update, kept verbatim as the oracle the deferred
    /// estimator must match: every carrier drawn and folded in at
    /// observation time. Regeneration and reset go through the
    /// production paths, which find nothing pending.
    fn eager_observe(
        e: &mut ChannelEstimator,
        rng: &mut StdRng,
        slot: usize,
        true_spectrum: &SnrSpectrum,
        n_symbols: u64,
        n_pbs: u32,
    ) {
        let slot = slot % TONEMAP_SLOTS;
        let w = (n_symbols.clamp(1, 64) as f64).sqrt();
        let sigma = MEAS_NOISE_DB / w;
        for s in 0..TONEMAP_SLOTS {
            if s != slot && e.weight[s] >= 0.3 * TRACKING_CAP {
                continue;
            }
            let (uw, us) = if s == slot {
                (w, sigma)
            } else {
                (0.25 * w, sigma * 2.0)
            };
            let total = e.weight[s] + uw;
            for (est, &truth) in e.snr_est[s].iter_mut().zip(&true_spectrum.snr_db) {
                let meas = truth + Distributions::normal(rng, 0.0, us);
                *est = (*est * e.weight[s] + meas * uw) / total;
            }
            e.weight[s] = total.min(TRACKING_CAP);
        }
        e.applied_weight = e.weight;
        e.total_weight += w;
        e.max_pbs_seen = e.max_pbs_seen.max(n_pbs);
        e.stats.observations += 1;
    }

    /// The estimates `e` would hold with its log applied, leaving `e`
    /// itself untouched.
    fn flushed_estimates(e: &ChannelEstimator) -> Vec<Vec<u64>> {
        let mut copy = e.clone();
        copy.apply_pending();
        copy.snr_est
            .iter()
            .map(|slot| slot.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// A link whose tap carries a one-second duty cycle, so spectra
    /// sampled a second apart fall in different appliance epochs.
    fn switching_channel() -> crate::channel::PlcChannel {
        use crate::channel::PlcChannel;
        use crate::PlcTechnology;
        use simnet::appliance::ApplianceKind;
        use simnet::grid::Grid;
        use simnet::schedule::Schedule;
        let mut g = Grid::new();
        let a = g.add_outlet("A");
        let j = g.add_junction("J");
        let b = g.add_outlet("B");
        g.connect(a, j, 20.0);
        g.connect(j, b, 25.0);
        let o = g.add_outlet("F");
        g.connect(j, o, 3.0);
        let duty = Schedule::DutyCycle {
            on_s: 1,
            off_s: 1,
            seed: 3,
        };
        g.attach(o, ApplianceKind::Fridge, duty);
        PlcChannel::from_grid(&g, a, b, PlcTechnology::HpAv, 77).expect("connected")
    }

    proptest::proptest! {
        #[test]
        fn deferred_estimator_matches_the_eager_oracle(
            seed in proptest::any::<u64>(),
            regen_pct in 0u64..12,
            ops in proptest::collection::vec(
                (0u64..100, 0usize..2 * TONEMAP_SLOTS, 1u64..65, proptest::any::<u64>()),
                1..70,
            ),
        ) {
            use crate::channel::LinkDir;
            let ch = switching_channel();
            let n = ch.plan().len();
            let cfg = if seed.is_multiple_of(3) {
                EstimatorConfig::vendor_qca()
            } else {
                EstimatorConfig::default()
            };
            let mut deferred = ChannelEstimator::new(cfg, n);
            let mut oracle = ChannelEstimator::new(cfg, n);
            let mut rng_d = StdRng::seed_from_u64(seed);
            let mut rng_o = rng_d.clone();
            // One cached spectrum per tone-map slot, rewritten in place
            // like the MAC's and the probe loop's caches.
            let mut cache = vec![SnrSpectrum::empty(); TONEMAP_SLOTS];
            let mut capped = SnrSpectrum::empty();
            let mut now = Time::from_hours(10);
            for (kind, slot, n_symbols, param) in ops {
                now += Duration::from_millis(1 + param % 1500);
                if kind < regen_pct {
                    let pberr = (param >> 20) as f64 % 100.0 / 400.0;
                    prop_assert_eq!(
                        deferred.maybe_regenerate(now, pberr),
                        oracle.maybe_regenerate(now, pberr)
                    );
                    if param.is_multiple_of(5) {
                        deferred.regenerate(now, param.is_multiple_of(2));
                        oracle.regenerate(now, param.is_multiple_of(2));
                    }
                } else if kind < regen_pct + regen_pct / 4 {
                    deferred.reset();
                    oracle.reset();
                } else if kind >= 92 {
                    // Another consumer of the shared generator.
                    prop_assert_eq!(rng_d.next_u64(), rng_o.next_u64());
                } else {
                    let s = slot % TONEMAP_SLOTS;
                    if !param.is_multiple_of(3) || cache[s].snr_db.is_empty() {
                        let phase = (s as f64 + 0.5) / TONEMAP_SLOTS as f64;
                        ch.spectrum_at_phase_into(LinkDir::AtoB, now, phase, &mut cache[s]);
                    }
                    let raw;
                    let spec = match param % 10 {
                        0 => {
                            raw = SnrSpectrum::from_db(cache[s].snr_db.clone());
                            &raw
                        }
                        1 | 2 => {
                            let cap = 5.0 + (param >> 8) as f64 % 30.0;
                            cache[s].capped_into(cap, &mut capped);
                            &capped
                        }
                        _ => &cache[s],
                    };
                    let n_pbs = 1 + (param >> 32) as u32 % 3;
                    deferred.observe(&mut rng_d, slot, spec, n_symbols, n_pbs);
                    eager_observe(&mut oracle, &mut rng_o, slot, spec, n_symbols, n_pbs);
                }
                prop_assert_eq!(rng_d.state(), rng_o.state());
                prop_assert!(deferred.log.entries.len() < LOG_CAP);
                prop_assert_eq!(deferred.tonemaps(), oracle.tonemaps());
                prop_assert_eq!(deferred.stats(), oracle.stats());
                prop_assert_eq!(
                    deferred.total_weight().to_bits(),
                    oracle.total_weight().to_bits()
                );
                prop_assert!(flushed_estimates(&deferred) == flushed_estimates(&oracle));
            }
        }

        #[test]
        fn linear_cap_matches_the_quadratic_oracle(
            rungs in proptest::collection::vec(0usize..Modulation::LADDER.len(), 0..300),
            cap_frac in 0.0f64..1.2,
            half_rate in proptest::any::<bool>(),
            repetition in 1u32..4,
        ) {
            let mut map = ToneMap::robo(rungs.len());
            map.carriers = rungs.iter().map(|&r| Modulation::LADDER[r]).collect();
            map.fec = if half_rate { FecRate::Half } else { DATA_FEC };
            map.repetition = repetition;
            let cap = (map.info_bits_per_symbol() * cap_frac) as u64;
            let mut oracle = map.clone();
            cap_info_bits_quadratic(&mut oracle, cap);
            ChannelEstimator::cap_info_bits(&mut map, cap);
            prop_assert_eq!(map, oracle);
        }
    }

    /// The capping loop as it was before it went linear: one downgrade
    /// per pass, each pass recounting the bits and rescanning for the
    /// last highest-loaded carrier.
    fn cap_info_bits_quadratic(map: &mut ToneMap, cap_bits: u64) {
        let ladder_down = |m: Modulation| -> Modulation {
            let idx = Modulation::LADDER.iter().position(|x| *x == m).unwrap();
            Modulation::LADDER[idx.saturating_sub(1)]
        };
        let mut guard = 0;
        while map.info_bits_per_symbol() > cap_bits as f64 && guard < 20 * map.carriers.len() {
            if let Some((i, _)) = map
                .carriers
                .iter()
                .enumerate()
                .max_by_key(|(_, m)| m.bits())
            {
                if map.carriers[i] == Modulation::Off {
                    break;
                }
                map.carriers[i] = ladder_down(map.carriers[i]);
            }
            guard += 1;
        }
    }

    #[test]
    fn reset_drops_pending_observations_without_drawing() {
        use crate::channel::LinkDir;
        let ch = switching_channel();
        let spec = ch.spectrum(LinkDir::AtoB, Time::from_hours(10));
        let mut e = ChannelEstimator::new(EstimatorConfig::default(), spec.snr_db.len());
        let mut rng = StdRng::seed_from_u64(4);
        for k in 0..5 {
            e.observe(&mut rng, k, &spec, 8, 4);
        }
        assert_eq!(e.log.entries.len(), 5);
        // Consecutive frames in a slot share one logged source.
        e.observe(&mut rng, 0, &spec, 8, 4);
        assert_eq!(e.log.sources.len(), 5);
        let after_observing = rng.state();
        e.reset();
        assert!(e.log.entries.is_empty() && e.log.sources.is_empty());
        assert_eq!(rng.state(), after_observing);
        assert_eq!(flushed_estimates(&e), flushed_estimates(&estimator_of(&e)));
    }

    fn estimator_of(e: &ChannelEstimator) -> ChannelEstimator {
        ChannelEstimator::new(e.cfg, e.n_carriers)
    }

    #[test]
    fn per_slot_estimates_differ_when_channel_does() {
        let mut e = estimator();
        let mut rng = StdRng::seed_from_u64(21);
        // Slot 0 sees a much noisier channel than slot 3.
        for _ in 0..600 {
            e.observe(&mut rng, 0, &flat_spectrum(15.0), 10, 8);
            e.observe(&mut rng, 3, &flat_spectrum(30.0), 10, 8);
        }
        e.regenerate(Time::from_secs(5), false);
        assert!(
            e.ble_slot(3) > e.ble_slot(0) * 1.2,
            "slot3={} slot0={}",
            e.ble_slot(3),
            e.ble_slot(0)
        );
    }
}
