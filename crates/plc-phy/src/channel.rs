//! The PLC channel between two outlets of an electrical grid.
//!
//! The model follows the paper's own explanation of PLC channel physics
//! (§5, Fig. 5): the mains cable is a transmission line with
//! characteristic impedance Z₀ ≈ 85 Ω; every appliance and branch junction
//! presents an impedance mismatch that partially reflects the signal,
//! creating a **multipath** channel; appliances also inject **noise** at
//! the receiver — broadband, mains-synchronous, and impulsive.
//!
//! The paper's three timescales (§6) are built in:
//!
//! * **invariance scale** — the mains-synchronous noise component depends
//!   on the phase within the half mains cycle, so the per-slot SNR (and
//!   hence per-slot tone maps / BLEs) differ and repeat every 10 ms;
//! * **cycle scale** — a temporally correlated noise fluctuation whose
//!   standard deviation grows with the ambient appliance noise: noisy
//!   (bad) links fluctuate more, quiet (good) links barely move;
//! * **random scale** — appliance schedules switch impedances and noise
//!   sources over minutes/hours, shifting both the multipath pattern and
//!   the noise floor (the 9 pm lights-off step of Fig. 12 comes from
//!   here).
//!
//! **Asymmetry** (§5) arises from two direction-dependent terms: the noise
//! is evaluated at the *receiving* outlet, and the coupling loss caused by
//! low-impedance appliances near an outlet penalizes *injection* (transmit
//! side) more than extraction — "a high electrical-load existing close to
//! one of the two stations" (paper §5).

use crate::carrier::{CarrierPlan, PlcTechnology};
use crate::kernels;
use electrifi_faults::LinkOverlay;
use serde::{Deserialize, Serialize};
use simnet::appliance::{ApplianceProfile, CABLE_Z0_OHMS};
use simnet::grid::{Grid, NodeId, NodeKind};
use simnet::noise::{impulse_at, ValueNoise};
use simnet::obs::{self, Counter};
use simnet::schedule::Schedule;
use simnet::time::Time;
use std::cell::RefCell;
use std::sync::Arc;

/// Direction of a (bidirectional) physical link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkDir {
    /// From endpoint A (first constructor argument) to endpoint B.
    AtoB,
    /// From endpoint B to endpoint A.
    BtoA,
}

impl LinkDir {
    /// The opposite direction.
    pub fn reverse(self) -> LinkDir {
        match self {
            LinkDir::AtoB => LinkDir::BtoA,
            LinkDir::BtoA => LinkDir::AtoB,
        }
    }
}

// Calibrated physical constants of the channel model. They are set so
// that the testbed reproduces the paper's ranges (BLE up to ~147 Mb/s on
// HPAV, bare-cable links losing almost nothing over 70 m, multi-tap
// links degrading steeply).

/// Transmit power spectral density (dBm/Hz), flat over the band.
const TX_PSD_DBM_HZ: f64 = -55.0;
/// Cable attenuation in dB per metre per √MHz. Deliberately small:
/// the paper measured that 70 m of bare cable costs at most ~2 Mb/s;
/// almost all attenuation comes from taps.
const CABLE_ALPHA: f64 = 0.04;
/// Extra attenuation for crossing a distribution board (fuses and
/// breakers are poor HF conductors). The two boards of the testbed
/// make inter-board links hard (paper §3.1).
const BOARD_TRANSIT_DB: f64 = 19.0;
/// Scale of the static frequency-selective "clutter" attenuation that
/// models unrepresented wiring details; gives same-distance links
/// different fates (paper Fig. 7's vertical spread).
const CLUTTER_DB: f64 = 9.0;
/// Series impedance added per metre of branch stub between a junction
/// and an appliance (tempers the reflection of remote appliances).
const STUB_OHMS_PER_M: f64 = 20.0;
/// Scale applied to per-tap transit losses. Raw transmission-line
/// arithmetic over-counts because real taps are frequency-selective
/// and partially matched; calibrated so a fully populated office
/// corridor costs tens of dB end-to-end, not hundreds (paper Fig. 7's
/// links survive 100 m with a dozen offices in between).
const TAP_TRANSIT_SCALE: f64 = 0.35;
/// Relative amplitude scale of echo paths against the direct path.
const ECHO_GAIN: f64 = 0.6;
/// Receiver noise floor at high frequency (dBm/Hz).
const NOISE_FLOOR_DBM_HZ: f64 = -118.0;
/// Additional low-frequency noise (dB above the floor at f → 0).
const NOISE_LOWFREQ_DB: f64 = 25.0;
/// Exponential knee of the low-frequency noise component (MHz).
const NOISE_KNEE_MHZ: f64 = 8.0;
/// Cable radius (m) within which appliances contribute noise at the
/// receiver (contributions decay as exp(−d/range)).
const APPLIANCE_NOISE_RANGE_M: f64 = 12.0;
/// Cable radius (m) within which low-impedance appliances load a
/// modem's coupling.
const COUPLING_RANGE_M: f64 = 8.0;
/// Weight of the coupling loss on the transmit (injection) side.
const INJECTION_WEIGHT: f64 = 1.0;
/// Weight of the coupling loss on the receive (extraction) side.
/// Smaller than injection: this difference is an asymmetry source.
const EXTRACTION_WEIGHT: f64 = 0.25;
/// Baseline cycle-scale noise std (dB) on a perfectly quiet line.
const CYCLE_SIGMA_BASE_DB: f64 = 0.35;
/// Extra cycle-scale noise std per dB of ambient appliance noise.
const CYCLE_SIGMA_PER_NOISE_DB: f64 = 0.12;
/// Correlation time of the cycle-scale fluctuation (seconds).
const CYCLE_CORR_S: f64 = 0.8;
/// Noise boost while an impulsive event is active (dB).
const IMPULSE_BOOST_DB: f64 = 12.0;
/// Duration of an impulsive noise event (seconds).
const IMPULSE_DUR_S: f64 = 0.02;
/// Width of the mains-synchronous noise bump, as a fraction of the
/// half mains cycle.
const SYNC_BUMP_WIDTH: f64 = 0.12;
/// Maximum static receiver-side noise (dB above the floor) from
/// unmodelled sources — neighbouring floors, building infrastructure,
/// devices outside the modelled radius. Drawn per link endpoint from
/// the link seed with a strong (quartic) skew: most outlets are
/// quiet, a few are very noisy. It keeps bad links bad even at night
/// (the §6.2 night-time measurements still show churn on bad links)
/// and, because the two endpoints draw independently, it is a major
/// source of the §5 link asymmetry.
const STATIC_NOISE_MAX_DB: f64 = 20.0;

/// An appliance load hanging off the transmission path at a tap point.
#[derive(Debug, Clone)]
struct TapLoad {
    profile: ApplianceProfile,
    schedule: Schedule,
    /// Stub length from the junction to the appliance, metres.
    stub_m: f64,
}

/// A reflection point along the path.
#[derive(Debug, Clone)]
struct Tap {
    /// Appliance loads reachable behind this tap.
    loads: Vec<TapLoad>,
    /// Branch cables without modelled appliances (present a Z₀ stub).
    bare_branches: usize,
}

/// An appliance near one endpoint (noise source / coupling load).
#[derive(Debug, Clone)]
struct LocalAppliance {
    profile: ApplianceProfile,
    schedule: Schedule,
    dist_m: f64,
    seed: u64,
}

/// Per-carrier SNR snapshot of one link direction at one instant.
///
/// A spectrum written by the cached evaluator also carries its
/// `SpectrumSource`, which lets a consumer recompose the same values
/// later without keeping a copy of them. Equality compares the values
/// only.
#[derive(Debug, Clone, Default)]
pub struct SnrSpectrum {
    /// SNR per carrier, dB.
    pub snr_db: Vec<f64>,
    /// How `snr_db` was composed; `None` for spectra built from raw
    /// values.
    source: Option<SpectrumSource>,
}

impl PartialEq for SnrSpectrum {
    fn eq(&self, other: &Self) -> bool {
        self.snr_db == other.snr_db
    }
}

impl SnrSpectrum {
    /// An empty spectrum buffer, for reuse with
    /// [`PlcChannel::spectrum_at_phase_into`].
    pub fn empty() -> Self {
        SnrSpectrum::from_db(Vec::new())
    }

    /// A spectrum of raw per-carrier values, with no source.
    pub fn from_db(snr_db: Vec<f64>) -> Self {
        SnrSpectrum {
            snr_db,
            source: None,
        }
    }

    /// The provenance of `snr_db`, when the channel composed it.
    pub(crate) fn source(&self) -> Option<&SpectrumSource> {
        self.source.as_ref()
    }

    /// Overwrite `out` with this spectrum capped at `cap_db` on every
    /// carrier: what a receiver measures under capture, where it cannot
    /// tell collision noise from channel noise (paper §8.2). The source,
    /// if any, is carried over with the cap, so the copy stays
    /// recomposable. Reuses `out`'s buffer.
    pub fn capped_into(&self, cap_db: f64, out: &mut SnrSpectrum) {
        out.snr_db.clear();
        out.snr_db.extend(self.snr_db.iter().map(|s| s.min(cap_db)));
        out.source = self.source.as_ref().map(|src| SpectrumSource {
            cap_db: Some(src.cap_db.map_or(cap_db, |c| c.min(cap_db))),
            ..src.clone()
        });
    }

    /// Mean SNR over carriers, dB.
    pub fn mean_db(&self) -> f64 {
        if self.snr_db.is_empty() {
            return f64::NAN;
        }
        self.snr_db.iter().sum::<f64>() / self.snr_db.len() as f64
    }
}

/// Everything [`PlcChannel::spectrum_at_phase_into`] composed one
/// spectrum from: the channel's static planes and the epoch's multipath
/// plane (both shared, never copied), the frequency-flat scalars of that
/// call, and an optional capture cap. Holding a source keeps its epoch
/// plane alive: the channel rebuilds a plane in place only when no
/// source still refers to it, and allocates a fresh one otherwise.
#[derive(Debug, Clone)]
pub(crate) struct SpectrumSource {
    stat: Arc<StaticTerms>,
    mp_db: Arc<Vec<f64>>,
    flat: kernels::FlatTerms,
    /// Per-carrier ceiling applied after composition, dB.
    cap_db: Option<f64>,
}

impl SpectrumSource {
    /// Recompose the spectrum into `out`, bit-identical to the
    /// `snr_db` it came with. Pure arithmetic on the held planes: the
    /// channel is not consulted and no counter moves.
    pub(crate) fn compose_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.mp_db.len(), 0.0);
        kernels::compose_snr_chunked(
            out,
            &self.stat.cable_db,
            &self.stat.clutter_db,
            &self.stat.lowfreq_db,
            &self.mp_db,
            &self.flat,
        );
        if let Some(cap) = self.cap_db {
            for s in out.iter_mut() {
                *s = s.min(cap);
            }
        }
    }

    /// Whether `other` composes to the same bits: the same planes (by
    /// identity) and bitwise-equal scalars and cap.
    pub(crate) fn same_as(&self, other: &SpectrumSource) -> bool {
        Arc::ptr_eq(&self.stat, &other.stat)
            && Arc::ptr_eq(&self.mp_db, &other.mp_db)
            && self.flat.to_bits() == other.flat.to_bits()
            && self.cap_db.map(f64::to_bits) == other.cap_db.map(f64::to_bits)
    }
}

/// Per-carrier planes for one **echo geometry group**: every echo whose
/// stub adds the same `extra_len_m` of cable shares a decay plane and a
/// phase-rotation plane, because both depend only on the stub length and
/// the carrier grid — never on which appliances are switched on. The
/// planes are built once per channel; an epoch rebuild only recomputes
/// the scalar reflection coefficient each group is scaled by.
#[derive(Debug, Clone, Default)]
struct GeomGroup {
    /// Extra path length of every echo in this group, metres.
    extra_len_m: f64,
    /// `10^(-(alpha_root_f·len)/20)` per carrier.
    decay: Vec<f64>,
    /// `cos θᵢ` per carrier, `θᵢ = 2π fᵢ τ` for the group's delay `τ`.
    cos: Vec<f64>,
    /// `sin θᵢ` per carrier.
    sin: Vec<f64>,
}

/// Per-carrier vectors that never change over the life of a channel:
/// cable attenuation, frequency-selective clutter, the low-frequency
/// noise-floor shape, and the echo geometry planes (the taps' stub
/// lengths are fixed; only their on/off reflection strengths move
/// between epochs). Built once, in [`PlcChannel::from_grid`], through
/// the kernels in [`crate::kernels`], so cached and reference spectra
/// share every floating-point expression bit-for-bit.
#[derive(Debug, Clone, Default)]
struct StaticTerms {
    /// `cable_alpha · √f` per carrier — the attenuation slope shared by
    /// the direct path (`· length_m`) and every echo stub
    /// (`· extra_len_m`).
    alpha_root_f: Vec<f64>,
    /// Direct-path cable attenuation, dB.
    cable_db: Vec<f64>,
    /// Static frequency-selective clutter, dB.
    clutter_db: Vec<f64>,
    /// Low-frequency excess of the noise floor, dB.
    lowfreq_db: Vec<f64>,
    /// Geometry group of each echo, in tap-then-load enumeration order
    /// (loads first, then bare branches, per tap).
    echo_group: Vec<u32>,
    /// The shared per-carrier planes, one entry per distinct stub
    /// length, in first-occurrence order.
    groups: Vec<GeomGroup>,
}

/// Multipath terms for one **appliance epoch** — one on/off configuration
/// of the tap loads. Appliance schedules flip on minutes timescales while
/// spectra are sampled every ~200 ms of sim time, so these survive
/// thousands of evaluations between rebuilds.
#[derive(Debug, Clone, Default)]
struct EpochTerms {
    valid: bool,
    /// The epoch key: every tap load's `schedule.is_on(t)` bit, packed
    /// into 64-bit words in tap-then-load iteration order. Bare branches
    /// contribute no bits (their state never changes).
    key: Vec<u64>,
    /// Scratch for the candidate key of the current call, kept to avoid
    /// reallocating per evaluation.
    key_scratch: Vec<u64>,
    /// Analytic validity window of the current key, nanoseconds: for
    /// `valid_from_ns <= t < valid_until_ns` no tap-load schedule can
    /// have flipped (earliest `Schedule::next_transition` across taps),
    /// so the key — and the whole epoch — is reused without even
    /// re-scanning the schedules.
    valid_from_ns: u64,
    valid_until_ns: u64,
    /// Summed transit loss past all loaded taps, dB.
    transit_db_total: f64,
    /// Per-carrier multipath interference term, dB. Shared with the
    /// [`SpectrumSource`]s composed from this epoch; see
    /// [`PlcChannel::rebuild_epoch`].
    mp_db: Arc<Vec<f64>>,
    /// Per-group reflection coefficients (summed `echo_gain·γ`), scratch
    /// reused across rebuilds.
    coeffs: Vec<f64>,
    /// Interference accumulator planes, scratch reused across rebuilds.
    re: Vec<f64>,
    im: Vec<f64>,
}

/// Cache-effectiveness counters, registered lazily against the ambient
/// `simnet::obs` registry at first use. Observation is inert: counting
/// never feeds back into the spectra.
#[derive(Debug, Clone)]
struct CacheMetrics {
    epoch_hits: Counter,
    epoch_rebuilds: Counter,
    /// Calls served inside the analytic validity window — no schedule
    /// was even scanned.
    key_skips: Counter,
    /// Calls that fell outside the window and re-derived the epoch key.
    key_rescans: Counter,
}

impl CacheMetrics {
    fn register() -> Self {
        let obs = simnet::obs::current();
        let reg = obs.registry();
        CacheMetrics {
            epoch_hits: reg.counter("plc.phy.spectrum.epoch_hits"),
            epoch_rebuilds: reg.counter("plc.phy.spectrum.epoch_rebuilds"),
            key_skips: reg.counter("plc.phy.spectrum.key_skips"),
            key_rescans: reg.counter("plc.phy.spectrum.key_rescans"),
        }
    }
}

#[derive(Debug, Clone, Default)]
struct CacheState {
    epoch: EpochTerms,
    metrics: Option<CacheMetrics>,
}

/// Interior-mutable spectrum cache of derived state: a channel rebuilds
/// bit-identical values from its inputs whenever the epoch changes.
#[derive(Debug, Clone, Default)]
struct SpectrumCache {
    state: RefCell<CacheState>,
}

/// The physical channel between two outlets, both directions.
#[derive(Debug, Clone)]
pub struct PlcChannel {
    plan: CarrierPlan,
    length_m: f64,
    boards_crossed: usize,
    taps: Vec<Tap>,
    local_a: Vec<LocalAppliance>,
    local_b: Vec<LocalAppliance>,
    clutter: ValueNoise,
    cycle_ab: ValueNoise,
    cycle_ba: ValueNoise,
    /// Static unmodelled noise at each endpoint's receiver, dB above the
    /// floor.
    static_noise_a_db: f64,
    static_noise_b_db: f64,
    /// Scripted fault overlay (appliance surges, breaker trips, cable
    /// degradation): additive noise/attenuation windows as a pure
    /// function of time. `None` for undisturbed links.
    overlay: Option<LinkOverlay>,
    /// The static per-carrier vectors, shared with every
    /// [`SpectrumSource`] composed from them.
    stat: Arc<StaticTerms>,
    /// Derived-state cache: the multipath terms of the current appliance
    /// epoch.
    cache: SpectrumCache,
}

/// Minimum effective stub length: even an appliance "at" an outlet sits
/// behind a couple of metres of in-wall wiring.
const MIN_STUB_M: f64 = 1.5;
/// Assumed stub length of an unmodelled bare branch.
const BARE_BRANCH_STUB_M: f64 = 5.0;
/// Signal propagation speed in mains cable, m/s.
const PROPAGATION_M_PER_S: f64 = 1.5e8;
/// Deepest multipath null allowed, dB (receivers clip below this anyway).
const MAX_NULL_DB: f64 = -25.0;

/// Reflection magnitude seen by a wave passing a junction loaded with
/// impedance `z_load` in parallel with the continuing line:
/// `|Γ| = Z₀ / (Z₀ + 2 z_load)` (0 for an unloaded line, →1 for a short).
fn tap_reflection(z_load: f64, z0: f64) -> f64 {
    z0 / (z0 + 2.0 * z_load.max(1e-3))
}

/// Power loss (dB) for the wave continuing past a tap with reflection
/// magnitude `gamma`: voltage transmission `1 − |Γ|`.
fn tap_transit_db(gamma: f64) -> f64 {
    -20.0 * (1.0 - gamma).max(1e-3).log10()
}

impl PlcChannel {
    /// Build the channel between outlets `a` and `b` of `grid`. Returns
    /// `None` when the outlets are not electrically connected.
    ///
    /// `link_seed` individualizes the link's static clutter and dynamic
    /// noise streams; derive it from the station pair so every link is
    /// distinct but reproducible.
    pub fn from_grid(
        grid: &Grid,
        a: NodeId,
        b: NodeId,
        technology: PlcTechnology,
        link_seed: u64,
    ) -> Option<PlcChannel> {
        let path = grid.shortest_path(a, b)?;
        let boards_crossed = path
            .nodes
            .iter()
            .filter(|n| grid.node(**n).kind == NodeKind::Board)
            .count();
        let discs = grid.discontinuities(&path, 30.0);
        let taps = discs
            .iter()
            .filter(|d| d.node != a && d.node != b)
            .map(|d| {
                let loads = d
                    .appliances
                    .iter()
                    .map(|&(id, extra_m)| {
                        let app = grid.appliance(id);
                        TapLoad {
                            profile: app.profile(),
                            schedule: app.schedule,
                            stub_m: extra_m.max(MIN_STUB_M),
                        }
                    })
                    .collect::<Vec<_>>();
                let bare = d.off_path_branches.saturating_sub(loads.len().min(1));
                Tap {
                    loads,
                    bare_branches: bare,
                }
            })
            .collect();
        let locals = |node: NodeId, tag: u64| -> Vec<LocalAppliance> {
            grid.appliances_within(node, APPLIANCE_NOISE_RANGE_M)
                .into_iter()
                .map(|(id, dist_m)| {
                    let app = grid.appliance(id);
                    LocalAppliance {
                        profile: app.profile(),
                        schedule: app.schedule,
                        dist_m,
                        seed: link_seed
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add(id.0 as u64)
                            ^ tag,
                    }
                })
                .collect()
        };
        // Heavily skewed static noise draw per endpoint.
        let static_draw = |tag: u64| -> f64 {
            let u = (ValueNoise::new(link_seed ^ tag).eval(0.5) + 1.0) / 2.0;
            STATIC_NOISE_MAX_DB * u.powi(4)
        };
        let mut ch = PlcChannel {
            plan: technology.carrier_plan(),
            length_m: path.length_m,
            boards_crossed,
            taps,
            local_a: locals(a, 0x0A),
            local_b: locals(b, 0x0B),
            clutter: ValueNoise::new(link_seed ^ 0xC1u64),
            cycle_ab: ValueNoise::new(link_seed ^ 0xAB),
            cycle_ba: ValueNoise::new(link_seed ^ 0xBA),
            static_noise_a_db: static_draw(0x57A7_000A),
            static_noise_b_db: static_draw(0x57A7_000B),
            overlay: None,
            stat: Arc::default(),
            cache: SpectrumCache::default(),
        };
        // Every spectrum of this link needs the static per-carrier
        // vectors and they never change, so they are built here, once.
        let _span = obs::span::enter("phy.static_build");
        ch.stat = Arc::new(ch.build_static_terms(true));
        Some(ch)
    }

    /// Attach (or clear) the scripted fault overlay for this link. The
    /// overlay adds noise and attenuation as a pure function of time, so
    /// a disturbed channel stays deterministic across execution shapes;
    /// with `None` (the default) the spectrum paths perform no extra
    /// floating-point work and stay bit-identical to an undisturbed
    /// channel.
    pub fn set_fault_overlay(&mut self, overlay: Option<LinkOverlay>) {
        self.overlay = overlay;
    }

    /// The carrier plan in use.
    pub fn plan(&self) -> &CarrierPlan {
        &self.plan
    }

    /// Cable distance between the endpoints, metres.
    pub fn cable_distance_m(&self) -> f64 {
        self.length_m
    }

    /// Number of distribution boards on the path.
    pub fn boards_crossed(&self) -> usize {
        self.boards_crossed
    }

    /// Number of modelled reflection points.
    pub fn tap_count(&self) -> usize {
        self.taps.len()
    }

    /// Coupling loss (dB) caused by low-impedance appliances near an
    /// endpoint's outlet at instant `t`.
    fn coupling_loss_db(&self, locals: &[LocalAppliance], t: Time) -> f64 {
        let mut shunt_admittance = 0.0;
        for l in locals {
            if l.dist_m > COUPLING_RANGE_M {
                continue;
            }
            let z = if l.schedule.is_on(t) {
                l.profile.impedance_on_ohms
            } else {
                l.profile.impedance_off_ohms
            } + l.dist_m * STUB_OHMS_PER_M;
            // Distance-weighted admittance of the shunt.
            shunt_admittance += (-l.dist_m / 4.0).exp() / z;
        }
        // Loss of a shunt with impedance 1/Y across a Z₀ line.
        let y = shunt_admittance;
        10.0 * (1.0 + CABLE_Z0_OHMS * y / 2.0).log10() * 2.0
    }

    /// Ambient noise (dB above the floor, power-summed) at the receiver
    /// described by `locals`, at instant `t` and mains phase `phase`
    /// (fraction of the half cycle in `[0,1)`). `static_db` is the
    /// endpoint's unmodelled persistent noise.
    fn appliance_noise_db(
        &self,
        locals: &[LocalAppliance],
        t: Time,
        phase: f64,
        static_db: f64,
    ) -> f64 {
        // Persistent unmodelled sources, then scheduled appliances.
        let mut power = (10f64.powf(static_db / 10.0) - 1.0).max(0.0);
        let t_s = t.as_secs_f64();
        for l in locals {
            if !l.schedule.is_on(t) {
                continue;
            }
            let reach = (-l.dist_m / APPLIANCE_NOISE_RANGE_M).exp();
            let mut level_db = l.profile.noise_db;
            // Mains-synchronous bump.
            let mut d = (phase - l.profile.sync_phase).abs();
            if d > 0.5 {
                d = 1.0 - d;
            }
            let bump = (-(d / SYNC_BUMP_WIDTH).powi(2)).exp();
            level_db += l.profile.sync_noise_db * bump;
            // Impulsive events.
            if l.profile.impulse_rate_hz > 0.0
                && impulse_at(l.seed, t_s, l.profile.impulse_rate_hz, IMPULSE_DUR_S)
            {
                level_db += IMPULSE_BOOST_DB;
            }
            // `level_db` is how far the appliance raises the noise above
            // the floor *at its own outlet*; its excess power (relative to
            // the floor) decays with cable distance.
            power += reach * (10f64.powf(level_db / 10.0) - 1.0);
        }
        if power <= 0.0 {
            0.0
        } else {
            // Power sum of floor (1.0) and appliance contributions.
            10.0 * (1.0 + power).log10()
        }
    }

    /// Per-carrier SNR for one direction at instant `t`, with the
    /// mains-synchronous noise evaluated at the *actual* phase of `t`.
    pub fn spectrum(&self, dir: LinkDir, t: Time) -> SnrSpectrum {
        self.spectrum_at_phase(dir, t, t.half_cycle_phase())
    }

    /// Per-carrier SNR for one direction at instant `t`, with the
    /// mains-synchronous noise evaluated at an explicit `phase` of the
    /// half mains cycle. Use this to study tone-map slots without
    /// waiting for the right instant.
    pub fn spectrum_at_phase(&self, dir: LinkDir, t: Time, phase: f64) -> SnrSpectrum {
        let mut out = SnrSpectrum::from_db(Vec::with_capacity(self.plan.len()));
        self.spectrum_at_phase_into(dir, t, phase, &mut out);
        out
    }

    /// [`PlcChannel::spectrum_at_phase`] into a caller-owned buffer.
    ///
    /// This is the cached hot path. The spectrum decomposes into
    ///
    /// * **static per-carrier vectors** (cable, clutter, low-frequency
    ///   noise shape) — computed once per channel;
    /// * **epoch per-carrier terms** (multipath interference, tap transit
    ///   loss) — functions of the tap on/off bitmask only, rebuilt when a
    ///   schedule transition changes that key;
    /// * **frequency-flat scalars** (coupling, ambient noise, cycle
    ///   fluctuation, board loss) — cheap, recomputed every call.
    ///
    /// The composition performs the same floating-point operations in the
    /// same association order as [`PlcChannel::spectrum_at_phase_reference`],
    /// so results are **bit-identical** to the uncached evaluator
    /// (property-tested in `tests/spectrum_cache.rs`). `out` also gets
    /// the call's `SpectrumSource`.
    pub fn spectrum_at_phase_into(&self, dir: LinkDir, t: Time, phase: f64, out: &mut SnrSpectrum) {
        // Release `out`'s hold on the previous epoch plane first, so a
        // rebuild below can reuse it in place.
        out.source = None;
        let (src_local, dst_local, cycle, dst_static_db) = match dir {
            LinkDir::AtoB => (
                &self.local_a,
                &self.local_b,
                &self.cycle_ab,
                self.static_noise_b_db,
            ),
            LinkDir::BtoA => (
                &self.local_b,
                &self.local_a,
                &self.cycle_ba,
                self.static_noise_a_db,
            ),
        };
        // --- Frequency-flat, direction-dependent scalars (cheap).
        let coupling_db = INJECTION_WEIGHT * self.coupling_loss_db(src_local, t)
            + EXTRACTION_WEIGHT * self.coupling_loss_db(dst_local, t);
        let mut ambient_db = self.appliance_noise_db(dst_local, t, phase, dst_static_db);
        let mut board_db = self.boards_crossed as f64 * BOARD_TRANSIT_DB;
        // Fault overlay folds into the flat terms *before* the cycle
        // sigma, so scripted noise also widens the cycle-scale
        // fluctuation like real appliance noise would. Both additions
        // are guarded: an inactive overlay performs zero extra
        // floating-point operations.
        if let Some(ov) = &self.overlay {
            let (noise_db, atten_db) = ov.at(t);
            if noise_db != 0.0 {
                ambient_db += noise_db;
            }
            if atten_db != 0.0 {
                board_db += atten_db;
            }
        }
        let sigma = CYCLE_SIGMA_BASE_DB + CYCLE_SIGMA_PER_NOISE_DB * ambient_db;
        let cycle_db = cycle.fbm(t.as_secs_f64() / CYCLE_CORR_S, 2) * 2.0 * sigma;
        // --- Cached per-carrier vectors.
        let mut guard = self.cache.state.borrow_mut();
        let state = &mut *guard;
        let st = &self.stat;
        let metrics = state.metrics.get_or_insert_with(CacheMetrics::register);
        let ep = &mut state.epoch;
        let now = t.as_nanos();
        if ep.valid && now >= ep.valid_from_ns && now < ep.valid_until_ns {
            // Analytic skip: no tap-load schedule can transition inside
            // the cached window, so the key — hence the epoch — is
            // still current without scanning a single schedule.
            metrics.key_skips.inc();
            metrics.epoch_hits.inc();
        } else {
            metrics.key_rescans.inc();
            self.epoch_key_into(t, &mut ep.key_scratch);
            ep.valid_from_ns = now;
            ep.valid_until_ns = self.epoch_window_until(t);
            if ep.valid && ep.key == ep.key_scratch {
                metrics.epoch_hits.inc();
            } else {
                // Cache-miss path only: the hit path is far too hot for a
                // span (its cost shows up in callers' self time; its rate
                // is already the epoch_hits counter).
                let _span = obs::span::enter_at("phy.epoch_rebuild", t);
                metrics.epoch_rebuilds.inc();
                std::mem::swap(&mut ep.key, &mut ep.key_scratch);
                self.rebuild_epoch(t, st, ep);
                ep.valid = true;
            }
        }
        // --- Compose. Exact association order of the reference evaluator
        // (the flat scalars broadcast inside the kernel).
        let n = self.plan.len();
        out.snr_db.clear();
        out.snr_db.resize(n, 0.0);
        let flat = kernels::FlatTerms {
            tx_psd_dbm_hz: TX_PSD_DBM_HZ,
            transit_db_total: ep.transit_db_total,
            board_db,
            coupling_db,
            noise_floor_dbm_hz: NOISE_FLOOR_DBM_HZ,
            ambient_db,
            cycle_db,
        };
        kernels::compose_snr_chunked(
            &mut out.snr_db,
            &st.cable_db,
            &st.clutter_db,
            &st.lowfreq_db,
            &ep.mp_db,
            &flat,
        );
        out.source = Some(SpectrumSource {
            stat: Arc::clone(st),
            mp_db: Arc::clone(&ep.mp_db),
            flat,
            cap_db: None,
        });
    }

    /// End of the analytic epoch-key validity window starting at `t`:
    /// the earliest [`Schedule::next_transition`] over every tap load,
    /// in nanoseconds (`u64::MAX` when no load ever transitions). Local
    /// appliances don't participate: they shape the frequency-flat
    /// terms, which are recomputed every call anyway.
    fn epoch_window_until(&self, t: Time) -> u64 {
        let mut until = u64::MAX;
        for tap in &self.taps {
            for load in &tap.loads {
                if let Some(u) = load.schedule.next_transition(t) {
                    until = until.min(u.as_nanos());
                }
            }
        }
        until
    }

    /// Static per-carrier terms. The scalar planes (cable, clutter,
    /// low-frequency noise) keep the exact expressions and association
    /// order the model has always used; the echo geometry planes are
    /// built through the `crate::kernels` pair selected by `chunked` —
    /// the cached evaluator builds with the chunked variants, the
    /// reference evaluator rebuilds from scratch with the scalar twins,
    /// and the two agree bit-for-bit (property-tested in
    /// `tests/kernels.rs`).
    fn build_static_terms(&self, chunked: bool) -> StaticTerms {
        let n = self.plan.len();
        let clutter_scale = (self.length_m / 25.0).powf(0.7).min(1.3);
        let mut st = StaticTerms {
            alpha_root_f: Vec::with_capacity(n),
            cable_db: Vec::with_capacity(n),
            clutter_db: Vec::with_capacity(n),
            lowfreq_db: Vec::with_capacity(n),
            echo_group: Vec::new(),
            groups: Vec::new(),
        };
        for i in 0..n {
            let f_mhz = self.plan.freq_mhz(i);
            // `cable_alpha * f.sqrt() * len` associates left-to-right, so
            // caching the `cable_alpha * √f` prefix preserves every bit of
            // both the direct-path term and the echo stub term.
            let alpha_root_f = CABLE_ALPHA * self.plan.freq_sqrt_mhz(i);
            st.alpha_root_f.push(alpha_root_f);
            st.cable_db.push(alpha_root_f * self.length_m);
            st.clutter_db
                .push(CLUTTER_DB * (1.0 + self.clutter.fbm(f_mhz / 2.0, 2)) * clutter_scale);
            st.lowfreq_db
                .push(NOISE_LOWFREQ_DB * (-f_mhz / NOISE_KNEE_MHZ).exp());
        }
        // Echo geometry: one plane set per distinct stub length. The
        // enumeration order must match `echo_setup` exactly — per tap,
        // loads first, then bare branches.
        for tap in &self.taps {
            for load in &tap.loads {
                self.push_echo_geometry(&mut st, 2.0 * load.stub_m, chunked);
            }
            for _ in 0..tap.bare_branches {
                self.push_echo_geometry(&mut st, 2.0 * BARE_BRANCH_STUB_M, chunked);
            }
        }
        st
    }

    /// Record one echo of `extra_len_m` in `st`, building the shared
    /// decay/rotation planes the first time the length is seen.
    /// Lengths are matched bitwise: echoes merge only when their decay
    /// and phase planes would be identical anyway.
    fn push_echo_geometry(&self, st: &mut StaticTerms, extra_len_m: f64, chunked: bool) {
        if let Some(g) = st
            .groups
            .iter()
            .position(|g| g.extra_len_m.to_bits() == extra_len_m.to_bits())
        {
            st.echo_group.push(g as u32);
            return;
        }
        let n = self.plan.len();
        let mut group = GeomGroup {
            extra_len_m,
            decay: vec![0.0; n],
            cos: vec![0.0; n],
            sin: vec![0.0; n],
        };
        let tau_s = extra_len_m / PROPAGATION_M_PER_S;
        // θᵢ = 2π fᵢ τ over the uniform grid, as a recurrence seed:
        // θ₀ at the first carrier, dθ per carrier-pitch step.
        let theta0 = 2.0 * std::f64::consts::PI * self.plan.freq_mhz(0) * 1e6 * tau_s;
        let dtheta = 2.0 * std::f64::consts::PI * self.plan.spacing_mhz() * 1e6 * tau_s;
        if chunked {
            kernels::decay_plane_chunked(&mut group.decay, &st.alpha_root_f, extra_len_m);
            kernels::rotation_planes_chunked(&mut group.cos, &mut group.sin, theta0, dtheta);
        } else {
            kernels::decay_plane_scalar(&mut group.decay, &st.alpha_root_f, extra_len_m);
            kernels::rotation_planes_scalar(&mut group.cos, &mut group.sin, theta0, dtheta);
        }
        st.echo_group.push(st.groups.len() as u32);
        st.groups.push(group);
    }

    /// Shared epoch setup: walk the taps at `t`, accumulate each
    /// geometry group's reflection coefficient (`Σ echo_gain·γ` over its
    /// echoes, in enumeration order) into `coeffs`, and return the
    /// summed tap transit loss. Called by both the cached rebuild and
    /// the reference evaluator, so the coefficient association order is
    /// part of the shared ground truth.
    fn echo_setup(&self, t: Time, st: &StaticTerms, coeffs: &mut Vec<f64>) -> f64 {
        coeffs.clear();
        coeffs.resize(st.groups.len(), 0.0);
        let mut transit_db_total = 0.0;
        let mut echo = 0usize;
        for tap in &self.taps {
            // Combine loads in parallel (admittances add).
            let mut y = 0.0f64;
            for load in &tap.loads {
                let z = if load.schedule.is_on(t) {
                    load.profile.impedance_on_ohms
                } else {
                    load.profile.impedance_off_ohms
                } + load.stub_m * STUB_OHMS_PER_M;
                y += 1.0 / z;
                let gamma = tap_reflection(z, CABLE_Z0_OHMS);
                coeffs[st.echo_group[echo] as usize] += ECHO_GAIN * gamma;
                echo += 1;
            }
            for _ in 0..tap.bare_branches {
                y += 1.0 / (CABLE_Z0_OHMS + BARE_BRANCH_STUB_M * STUB_OHMS_PER_M);
                coeffs[st.echo_group[echo] as usize] +=
                    ECHO_GAIN * tap_reflection(CABLE_Z0_OHMS, CABLE_Z0_OHMS);
                echo += 1;
            }
            if y > 0.0 {
                let gamma_tap = tap_reflection(1.0 / y, CABLE_Z0_OHMS);
                transit_db_total += TAP_TRANSIT_SCALE * tap_transit_db(gamma_tap);
            }
        }
        transit_db_total
    }

    /// Pack every tap load's on/off state at `t` into `key` (64 states
    /// per word, tap-then-load order). Bare branches are static and
    /// contribute no bits.
    fn epoch_key_into(&self, t: Time, key: &mut Vec<u64>) {
        key.clear();
        let mut word = 0u64;
        let mut bits = 0u32;
        for tap in &self.taps {
            for load in &tap.loads {
                if load.schedule.is_on(t) {
                    word |= 1u64 << bits;
                }
                bits += 1;
                if bits == 64 {
                    key.push(word);
                    word = 0;
                    bits = 0;
                }
            }
        }
        if bits > 0 {
            key.push(word);
        }
    }

    /// Rebuild the epoch-dependent terms (per-group reflection
    /// coefficients, tap transit loss, per-carrier multipath) for the
    /// load configuration at `t`. All transcendentals live in the
    /// static geometry planes, so the rebuild is a handful of chunked
    /// multiply-accumulate passes plus the dB finisher — tens of
    /// microseconds for a 917-carrier plan.
    ///
    /// The multipath plane is rewritten in place unless a
    /// [`SpectrumSource`] (say, in an estimator's pending log) still
    /// holds it; then the old plane stays with its holders and the epoch
    /// gets a fresh one.
    fn rebuild_epoch(&self, t: Time, st: &StaticTerms, ep: &mut EpochTerms) {
        {
            let _span = obs::span::enter_at("phy.echo_setup", t);
            ep.transit_db_total = self.echo_setup(t, st, &mut ep.coeffs);
        }
        let _span = obs::span::enter_at("phy.mp_kernel", t);
        let n = self.plan.len();
        ep.re.resize(n, 0.0);
        ep.im.resize(n, 0.0);
        kernels::reset_planes(&mut ep.re, &mut ep.im);
        for (g, group) in st.groups.iter().enumerate() {
            kernels::echo_mac_chunked(
                &mut ep.re,
                &mut ep.im,
                ep.coeffs[g],
                &group.decay,
                &group.cos,
                &group.sin,
            );
        }
        if Arc::get_mut(&mut ep.mp_db).is_none() {
            ep.mp_db = Arc::new(Vec::with_capacity(n));
        }
        let mp_db = Arc::get_mut(&mut ep.mp_db).expect("epoch plane is unshared");
        mp_db.clear();
        mp_db.resize(n, 0.0);
        kernels::mp_db_chunked(mp_db, &ep.re, &ep.im, MAX_NULL_DB);
    }

    /// The uncached evaluator, kept as the ground truth the cache must
    /// reproduce bit-for-bit: `tests/spectrum_cache.rs` property-tests
    /// [`PlcChannel::spectrum_at_phase`] against this, and the benches
    /// use it as the cold baseline. It recomputes everything from
    /// scratch each call — static planes, echo geometry, epoch
    /// coefficients — through the **scalar** twins of the kernels the
    /// cache runs chunked, per the PR discipline: where vectorized math
    /// cannot be bit-identical to a naive carrier-major loop, both arms
    /// share one kernel definition instead, and `tests/kernels.rs` pins
    /// the chunked/scalar pair together.
    pub fn spectrum_at_phase_reference(&self, dir: LinkDir, t: Time, phase: f64) -> SnrSpectrum {
        let (src_local, dst_local, cycle, dst_static_db) = match dir {
            LinkDir::AtoB => (
                &self.local_a,
                &self.local_b,
                &self.cycle_ab,
                self.static_noise_b_db,
            ),
            LinkDir::BtoA => (
                &self.local_b,
                &self.local_a,
                &self.cycle_ba,
                self.static_noise_a_db,
            ),
        };
        // --- Static planes and echo geometry, rebuilt from scratch with
        // the scalar kernels.
        let st = self.build_static_terms(false);
        // --- Direction-independent tap states at time t.
        let mut coeffs = Vec::new();
        let transit_db_total = self.echo_setup(t, &st, &mut coeffs);
        // --- Direction-dependent coupling losses.
        let coupling_db = INJECTION_WEIGHT * self.coupling_loss_db(src_local, t)
            + EXTRACTION_WEIGHT * self.coupling_loss_db(dst_local, t);
        // --- Receiver noise, frequency-independent parts. The fault
        // overlay folds in exactly as in the cached path: same guards,
        // same association order, bit-identical composition.
        let mut ambient_db = self.appliance_noise_db(dst_local, t, phase, dst_static_db);
        let mut board_db = self.boards_crossed as f64 * BOARD_TRANSIT_DB;
        if let Some(ov) = &self.overlay {
            let (noise_db, atten_db) = ov.at(t);
            if noise_db != 0.0 {
                ambient_db += noise_db;
            }
            if atten_db != 0.0 {
                board_db += atten_db;
            }
        }
        let sigma = CYCLE_SIGMA_BASE_DB + CYCLE_SIGMA_PER_NOISE_DB * ambient_db;
        let cycle_db = cycle.fbm(t.as_secs_f64() / CYCLE_CORR_S, 2) * 2.0 * sigma;

        // --- Multipath interference relative to the direct ray.
        let n = self.plan.len();
        let mut re = vec![0.0; n];
        let mut im = vec![0.0; n];
        kernels::reset_planes(&mut re, &mut im);
        for (g, group) in st.groups.iter().enumerate() {
            kernels::echo_mac_scalar(
                &mut re,
                &mut im,
                coeffs[g],
                &group.decay,
                &group.cos,
                &group.sin,
            );
        }
        let mut mp_db = vec![0.0; n];
        kernels::mp_db_scalar(&mut mp_db, &re, &im, MAX_NULL_DB);
        // --- Compose.
        let flat = kernels::FlatTerms {
            tx_psd_dbm_hz: TX_PSD_DBM_HZ,
            transit_db_total,
            board_db,
            coupling_db,
            noise_floor_dbm_hz: NOISE_FLOOR_DBM_HZ,
            ambient_db,
            cycle_db,
        };
        let mut snr_db = vec![0.0; n];
        kernels::compose_snr_scalar(
            &mut snr_db,
            &st.cable_db,
            &st.clutter_db,
            &st.lowfreq_db,
            &mp_db,
            &flat,
        );
        SnrSpectrum::from_db(snr_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::appliance::ApplianceKind;
    use simnet::grid::Grid;

    /// A straight run: A -- 20 m -- J -- 20 m -- B, with optional loads
    /// at J's side branch.
    fn straight_link(with_heater: bool, near: char) -> (Grid, NodeId, NodeId) {
        let mut g = Grid::new();
        let a = g.add_outlet("A");
        let j = g.add_junction("J");
        let b = g.add_outlet("B");
        g.connect(a, j, 20.0);
        g.connect(j, b, 20.0);
        if with_heater {
            let o = g.add_outlet("H");
            match near {
                'a' => g.connect(a, o, 2.0),
                'b' => g.connect(b, o, 2.0),
                _ => g.connect(j, o, 3.0),
            }
            g.attach(o, ApplianceKind::SpaceHeater, Schedule::AlwaysOn);
        }
        (g, a, b)
    }

    fn chan(g: &Grid, a: NodeId, b: NodeId) -> PlcChannel {
        PlcChannel::from_grid(g, a, b, PlcTechnology::HpAv, 1234).expect("connected")
    }

    #[test]
    fn disconnected_outlets_have_no_channel() {
        let mut g = Grid::new();
        let a = g.add_outlet("a");
        let b = g.add_outlet("b");
        assert!(PlcChannel::from_grid(&g, a, b, PlcTechnology::HpAv, 1).is_none());
    }

    #[test]
    fn clean_short_link_has_high_snr() {
        let (g, a, b) = straight_link(false, ' ');
        let c = chan(&g, a, b);
        let spec = c.spectrum(LinkDir::AtoB, Time::from_secs(1));
        assert_eq!(spec.snr_db.len(), 917);
        // With the calibrated static noise/clutter terms a clean 40 m run
        // still supports the top modulations on most carriers.
        assert!(spec.mean_db() > 30.0, "mean snr={}", spec.mean_db());
    }

    #[test]
    fn bare_cable_distance_costs_little() {
        // The paper: up to 70 m of bare cable costs at most ~2 Mb/s.
        let mut g = Grid::new();
        let a = g.add_outlet("a");
        let b = g.add_outlet("b");
        g.connect(a, b, 70.0);
        let c = chan(&g, a, b);
        let spec = c.spectrum(LinkDir::AtoB, Time::from_secs(1));
        assert!(spec.mean_db() > 30.0, "mean snr={}", spec.mean_db());
    }

    #[test]
    fn heater_on_path_degrades_link() {
        let (g0, a0, b0) = straight_link(false, ' ');
        let (g1, a1, b1) = straight_link(true, 'j');
        let clean = chan(&g0, a0, b0)
            .spectrum(LinkDir::AtoB, Time::from_secs(1))
            .mean_db();
        let loaded = chan(&g1, a1, b1)
            .spectrum(LinkDir::AtoB, Time::from_secs(1))
            .mean_db();
        assert!(
            loaded < clean - 1.0,
            "loaded={loaded} clean={clean}: tap must attenuate"
        );
    }

    #[test]
    fn heater_near_one_endpoint_creates_asymmetry() {
        let (g, a, b) = straight_link(true, 'a');
        let c = chan(&g, a, b);
        let t = Time::from_secs(5);
        let ab = c.spectrum(LinkDir::AtoB, t).mean_db();
        let ba = c.spectrum(LinkDir::BtoA, t).mean_db();
        // Heater shunts A's outlet: injection from A suffers most.
        assert!(
            ab < ba - 1.0,
            "ab={ab} ba={ba}: expected A→B to be the weaker direction"
        );
    }

    #[test]
    fn fault_overlay_degrades_snr_only_inside_its_window() {
        use electrifi_faults::OverlayWindow;
        let (g, a, b) = straight_link(false, ' ');
        let mut c = chan(&g, a, b);
        let before = c.spectrum(LinkDir::AtoB, Time::from_secs(5)).mean_db();
        c.set_fault_overlay(Some(LinkOverlay {
            windows: vec![OverlayWindow {
                start_ns: Time::from_secs(10).as_nanos(),
                end_ns: Time::from_secs(20).as_nanos(),
                ramp_ns: 0,
                noise_db: 15.0,
                atten_db: 5.0,
            }],
        }));
        // Outside the window the overlaid channel is bit-identical.
        let outside = c.spectrum(LinkDir::AtoB, Time::from_secs(5));
        assert_eq!(outside.mean_db(), before);
        // Inside, both the surge noise and the attenuation bite.
        let inside = c.spectrum(LinkDir::AtoB, Time::from_secs(15)).mean_db();
        assert!(
            inside < before - 15.0,
            "inside={inside} before={before}: overlay must degrade SNR"
        );
    }

    #[test]
    fn fault_overlay_keeps_cache_and_reference_bit_identical() {
        use electrifi_faults::OverlayWindow;
        let (g, a, b) = straight_link(true, 'j');
        let mut c = chan(&g, a, b);
        c.set_fault_overlay(Some(LinkOverlay {
            windows: vec![OverlayWindow {
                start_ns: Time::from_secs(2).as_nanos(),
                end_ns: Time::from_secs(30).as_nanos(),
                ramp_ns: Time::from_secs(4).as_nanos(),
                noise_db: 12.0,
                atten_db: 8.0,
            }],
        }));
        // Sample before, on the ramp, at full strength and after; cached
        // and reference evaluators must agree bit-for-bit throughout.
        for secs in [1u64, 3, 4, 10, 29, 31] {
            let t = Time::from_secs(secs);
            for dir in [LinkDir::AtoB, LinkDir::BtoA] {
                let cached = c.spectrum_at_phase(dir, t, 0.3);
                let reference = c.spectrum_at_phase_reference(dir, t, 0.3);
                assert_eq!(cached.snr_db, reference.snr_db, "t={secs}s {dir:?}");
            }
        }
    }

    #[test]
    fn boards_add_attenuation() {
        let mut g = Grid::new();
        let a = g.add_outlet("a");
        let board = g.add_board("B1");
        let b = g.add_outlet("b");
        g.connect(a, board, 20.0);
        g.connect(board, b, 20.0);
        let with_board = chan(&g, a, b)
            .spectrum(LinkDir::AtoB, Time::from_secs(1))
            .mean_db();
        let (g2, a2, b2) = straight_link(false, ' ');
        let no_board = chan(&g2, a2, b2)
            .spectrum(LinkDir::AtoB, Time::from_secs(1))
            .mean_db();
        assert!(
            with_board < no_board - 10.0,
            "board={with_board} junction={no_board}"
        );
    }

    #[test]
    fn noisy_appliance_near_receiver_lowers_snr_by_direction() {
        // Microwave near B: A→B (receiver at B) suffers more noise than
        // B→A when the microwave runs.
        let mut g = Grid::new();
        let a = g.add_outlet("A");
        let j = g.add_junction("J");
        let b = g.add_outlet("B");
        g.connect(a, j, 25.0);
        g.connect(j, b, 25.0);
        let o = g.add_outlet("M");
        g.connect(b, o, 2.0);
        g.attach(o, ApplianceKind::Microwave, Schedule::AlwaysOn);
        let c = chan(&g, a, b);
        let t = Time::from_secs(3);
        let ab = c.spectrum(LinkDir::AtoB, t).mean_db();
        let ba = c.spectrum(LinkDir::BtoA, t).mean_db();
        assert!(ab < ba, "ab={ab} ba={ba}");
    }

    #[test]
    fn sync_noise_varies_with_mains_phase() {
        // Lighting has a strong synchronous component near phase 0.05.
        let mut g = Grid::new();
        let a = g.add_outlet("A");
        let b = g.add_outlet("B");
        g.connect(a, b, 30.0);
        let o = g.add_outlet("L");
        g.connect(b, o, 2.0);
        g.attach(o, ApplianceKind::Lighting, Schedule::AlwaysOn);
        let c = chan(&g, a, b);
        let t = Time::from_hours(12); // lights on (weekday noon)
        let at_peak = c.spectrum_at_phase(LinkDir::AtoB, t, 0.05).mean_db();
        let off_peak = c.spectrum_at_phase(LinkDir::AtoB, t, 0.55).mean_db();
        assert!(
            at_peak < off_peak - 1.0,
            "peak={at_peak} off={off_peak}: synchronous noise must bite"
        );
    }

    #[test]
    fn appliance_switching_shifts_the_channel() {
        // Random-scale variation: lighting near B switches off at night.
        let mut g = Grid::new();
        let a = g.add_outlet("A");
        let b = g.add_outlet("B");
        g.connect(a, b, 30.0);
        let o = g.add_outlet("L");
        g.connect(b, o, 2.0);
        g.attach(o, ApplianceKind::Lighting, Schedule::BuildingLights);
        let c = chan(&g, a, b);
        let day = c
            .spectrum_at_phase(LinkDir::AtoB, Time::from_hours(12), 0.05)
            .mean_db();
        let night = c
            .spectrum_at_phase(LinkDir::AtoB, Time::from_hours(23), 0.05)
            .mean_db();
        assert!(night > day + 0.5, "day={day} night={night}");
    }

    #[test]
    fn spectrum_is_deterministic() {
        let (g, a, b) = straight_link(true, 'j');
        let c = chan(&g, a, b);
        let t = Time::from_millis(12_345);
        assert_eq!(c.spectrum(LinkDir::AtoB, t), c.spectrum(LinkDir::AtoB, t));
    }

    #[test]
    fn different_link_seeds_differ() {
        let (g, a, b) = straight_link(false, ' ');
        let c1 = PlcChannel::from_grid(&g, a, b, PlcTechnology::HpAv, 1).unwrap();
        let c2 = PlcChannel::from_grid(&g, a, b, PlcTechnology::HpAv, 2).unwrap();
        let t = Time::from_secs(1);
        let s1 = c1.spectrum(LinkDir::AtoB, t);
        let s2 = c2.spectrum(LinkDir::AtoB, t);
        assert_ne!(s1, s2);
    }

    #[test]
    fn av500_has_more_carriers() {
        let (g, a, b) = straight_link(false, ' ');
        let c = PlcChannel::from_grid(&g, a, b, PlcTechnology::HpAv500, 7).unwrap();
        let spec = c.spectrum(LinkDir::AtoB, Time::from_secs(1));
        assert!(spec.snr_db.len() > 2000);
    }

    #[test]
    fn tap_reflection_limits() {
        assert!(tap_reflection(1e9, CABLE_Z0_OHMS) < 1e-6);
        assert!(tap_reflection(1e-6, CABLE_Z0_OHMS) > 0.999);
        let mid = tap_reflection(CABLE_Z0_OHMS, CABLE_Z0_OHMS);
        assert!((mid - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tap_transit_loss_is_positive_and_monotone() {
        assert!(tap_transit_db(0.0) < 1e-9);
        assert!(tap_transit_db(0.3) > 0.0);
        assert!(tap_transit_db(0.6) > tap_transit_db(0.3));
    }

    #[test]
    fn cached_spectrum_is_bit_identical_to_reference() {
        let (g, a, b) = straight_link(true, 'j');
        let c = chan(&g, a, b);
        for (k, &dir) in [LinkDir::AtoB, LinkDir::BtoA].iter().enumerate() {
            for step in 0..24u64 {
                let t = Time::from_millis(step * 3_600_000 / 3 + k as u64);
                let phase = (step as f64 + 0.5) / 24.0;
                let reference = c.spectrum_at_phase_reference(dir, t, phase);
                let cached = c.spectrum_at_phase(dir, t, phase);
                assert_eq!(reference.snr_db.len(), cached.snr_db.len());
                for (i, (r, w)) in reference.snr_db.iter().zip(&cached.snr_db).enumerate() {
                    assert_eq!(
                        r.to_bits(),
                        w.to_bits(),
                        "carrier {i} diverged at t={t:?} dir={dir:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn spectrum_into_reuses_buffer_and_matches() {
        let (g, a, b) = straight_link(true, 'j');
        let c = chan(&g, a, b);
        let mut buf = SnrSpectrum::empty();
        for step in 0..4u64 {
            let t = Time::from_secs(step * 600);
            c.spectrum_at_phase_into(LinkDir::AtoB, t, t.half_cycle_phase(), &mut buf);
            let fresh = c.spectrum(LinkDir::AtoB, t);
            assert_eq!(buf.snr_db, fresh.snr_db);
        }
    }

    #[test]
    fn schedule_transition_invalidates_epoch() {
        // A load on BuildingLights flips its on/off state between noon
        // and 23:00; the epoch key must change and force a rebuild, while
        // repeated samples in the same state must hit the cache.
        let mut g = Grid::new();
        let a = g.add_outlet("A");
        let j = g.add_junction("J");
        let b = g.add_outlet("B");
        g.connect(a, j, 20.0);
        g.connect(j, b, 20.0);
        let o = g.add_outlet("L");
        g.connect(j, o, 3.0);
        g.attach(o, ApplianceKind::Lighting, Schedule::BuildingLights);
        let obs = simnet::obs::Obs::new();
        simnet::obs::with_default(obs.clone(), || {
            let c = chan(&g, a, b);
            let noon = Time::from_hours(12);
            let night = Time::from_hours(23);
            c.spectrum(LinkDir::AtoB, noon); // rebuild (cold)
            c.spectrum(LinkDir::AtoB, noon + simnet::time::Duration::from_millis(5)); // hit
            c.spectrum(LinkDir::AtoB, night); // rebuild (schedule flipped)
            c.spectrum(LinkDir::AtoB, night + simnet::time::Duration::from_secs(1));
            // hit
        });
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("plc.phy.spectrum.epoch_rebuilds"), 2);
        assert_eq!(snap.counter("plc.phy.spectrum.epoch_hits"), 2);
        // The analytic window makes both hits free: noon+5ms sits inside
        // [noon, 21:00) and night+1s inside [23:00, midnight), so neither
        // re-scanned a schedule. The two cold/flipped calls rescanned.
        assert_eq!(snap.counter("plc.phy.spectrum.key_skips"), 2);
        assert_eq!(snap.counter("plc.phy.spectrum.key_rescans"), 2);
    }

    #[test]
    fn rebuild_never_overwrites_a_held_epoch_plane() {
        // BuildingLights on a tap: noon and 23:00 are different epochs.
        let mut g = Grid::new();
        let a = g.add_outlet("A");
        let j = g.add_junction("J");
        let b = g.add_outlet("B");
        g.connect(a, j, 20.0);
        g.connect(j, b, 20.0);
        let o = g.add_outlet("L");
        g.connect(j, o, 3.0);
        g.attach(o, ApplianceKind::Lighting, Schedule::BuildingLights);
        let c = chan(&g, a, b);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut buf = SnrSpectrum::empty();
        c.spectrum_at_phase_into(LinkDir::AtoB, Time::from_hours(12), 0.3, &mut buf);
        let noon = buf.snr_db.clone();
        // A log holds the noon source while the channel moves on.
        let held = buf.source().expect("cached spectra carry a source").clone();
        c.spectrum_at_phase_into(LinkDir::AtoB, Time::from_hours(23), 0.3, &mut buf);
        assert_ne!(bits(&buf.snr_db), bits(&noon));
        assert!(!Arc::ptr_eq(&held.mp_db, &buf.source().unwrap().mp_db));
        let mut recomposed = Vec::new();
        held.compose_into(&mut recomposed);
        assert_eq!(bits(&recomposed), bits(&noon));
        // Once nothing else holds it, a rebuild reuses the plane in place.
        drop(held);
        let plane = Arc::as_ptr(&buf.source().unwrap().mp_db);
        c.spectrum_at_phase_into(LinkDir::AtoB, Time::from_hours(12), 0.3, &mut buf);
        assert_eq!(Arc::as_ptr(&buf.source().unwrap().mp_db), plane);
        assert_eq!(bits(&buf.snr_db), bits(&noon));
        // A capped copy recomposes to its capped values.
        let mut capped = SnrSpectrum::empty();
        buf.capped_into(20.0, &mut capped);
        capped.source().unwrap().compose_into(&mut recomposed);
        assert_eq!(bits(&recomposed), bits(&capped.snr_db));
        assert!(capped.snr_db.iter().all(|&s| s <= 20.0));
    }

    #[test]
    fn analytic_window_never_serves_a_stale_epoch() {
        // Sweep across the 21:00 BuildingLights boundary in coarse steps:
        // every sample must agree bitwise with the reference evaluator
        // even though most calls are served from the analytic window.
        let mut g = Grid::new();
        let a = g.add_outlet("A");
        let j = g.add_junction("J");
        let b = g.add_outlet("B");
        g.connect(a, j, 20.0);
        g.connect(j, b, 20.0);
        let o = g.add_outlet("L");
        g.connect(j, o, 3.0);
        g.attach(o, ApplianceKind::Lighting, Schedule::BuildingLights);
        let c = chan(&g, a, b);
        for step in 0..200u64 {
            let t = Time::from_hours(20) + simnet::time::Duration::from_secs(step * 36);
            let cached = c.spectrum_at_phase(LinkDir::AtoB, t, 0.3);
            let reference = c.spectrum_at_phase_reference(LinkDir::AtoB, t, 0.3);
            for (i, (w, r)) in cached.snr_db.iter().zip(&reference.snr_db).enumerate() {
                assert_eq!(w.to_bits(), r.to_bits(), "carrier {i} stale at step {step}");
            }
        }
    }
}
