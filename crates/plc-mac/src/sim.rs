//! Event-driven simulation of one PLC contention domain.
//!
//! A [`PlcSim`] hosts a set of stations plugged into outlets of an
//! electrical [`Grid`], the physical channels between every connected
//! pair, traffic flows, and the full 1901 MAC: CSMA/CA with deferral
//! counters, priority-resolution slots (default-class traffic only),
//! frame aggregation against the current tone map, selective
//! acknowledgments, tone-map estimation/exchange, beacons, ROBO
//! broadcast, collisions with the capture effect, and a SoF sniffer.
//!
//! Everything the paper measures at the MAC level comes out of this
//! simulation: per-frame SoF captures (Fig. 9), saturation throughput
//! (Figs. 3/6/7/15), estimated-capacity convergence (Figs. 16-18), U-ETX
//! retransmission counts (Fig. 22), broadcast loss rates (Fig. 21), and
//! the background-traffic sensitivity of link metrics (Figs. 23-24).

use crate::csma::BackoffState;
use crate::frame::{SofDelimiter, SofRecord};
use crate::pb::{pbs_for_packet, CompletedPacket, QueuedPb, Reassembler, PB_WIRE_BITS};
use crate::scratch::{BuiltFrame, SimScratch};
use crate::timing;
use plc_phy::carrier::SYMBOL_US;
use plc_phy::channel::LinkDir;
use plc_phy::error::pb_error_prob;
use plc_phy::estimation::EstimatorConfig;
use plc_phy::tonemap::{ToneMap, TONEMAP_SLOTS};
use plc_phy::{ChannelEstimator, PlcChannel, PlcTechnology, SnrSpectrum};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::grid::{Grid, NodeId};
use simnet::obs::{self, Counter, Obs, Registry};
use simnet::rng::Distributions;
use simnet::time::{Duration, Time, BEACON_PERIOD};
use simnet::traffic::TrafficSource;
use std::collections::HashMap;

/// Shared handles into the metrics registry for the MAC's hot paths.
/// Registered once per simulation; incrementing is a cheap shared-cell
/// add, and none of it feeds back into simulation state (observation is
/// inert — see `simnet::obs`).
pub(crate) struct MacMetrics {
    pub(crate) steps: Counter,
    pub(crate) events_fired: Counter,
    pub(crate) csma_attempts: Counter,
    pub(crate) csma_collisions: Counter,
    pub(crate) csma_deferrals: Counter,
    pub(crate) sack_retrans_pbs: Counter,
    pub(crate) tonemap_updates: Counter,
    pub(crate) sound_frames: Counter,
    pub(crate) spec_hits: Counter,
    pub(crate) spec_refreshes: Counter,
    /// Idle steps answered from the cached min next-arrival.
    pub(crate) idle_skips: Counter,
    /// Idle steps that had to re-scan the flows (cache dirty or a
    /// now-dependent source present).
    pub(crate) idle_rescans: Counter,
    /// Steps served by warm scratch buffers (no fresh allocations).
    pub(crate) scratch_reuses: Counter,
    /// Heap allocations the pre-optimization stepper would have made that
    /// the scratch/pooled path avoided (an accounting estimate, counted at
    /// each reuse site).
    pub(crate) allocs_saved: Counter,
}

impl MacMetrics {
    fn register(reg: &Registry) -> Self {
        MacMetrics {
            steps: reg.counter("plc.mac.steps"),
            events_fired: reg.counter("sim.events_fired"),
            csma_attempts: reg.counter("plc.mac.csma.attempts"),
            csma_collisions: reg.counter("plc.mac.csma.collisions"),
            csma_deferrals: reg.counter("plc.mac.csma.deferrals"),
            sack_retrans_pbs: reg.counter("plc.mac.sack.retrans_pbs"),
            tonemap_updates: reg.counter("plc.mac.tonemap.updates"),
            sound_frames: reg.counter("plc.mac.sound_frames"),
            spec_hits: reg.counter("plc.mac.spectrum_hits"),
            spec_refreshes: reg.counter("plc.mac.spectrum_refreshes"),
            idle_skips: reg.counter("plc.mac.idle_skips"),
            idle_rescans: reg.counter("plc.mac.idle_rescans"),
            scratch_reuses: reg.counter("plc.mac.scratch_reuses"),
            allocs_saved: reg.counter("plc.mac.allocs_saved"),
        }
    }
}

/// Station identifier within a simulation (the paper numbers its stations
/// 0–18).
pub type StationId = u16;

/// Destination marker for broadcast flows.
pub const BROADCAST: StationId = StationId::MAX;

/// Collision capture effect (paper §8.2): during a collision a frame is
/// still (partially) decoded when its signal-to-interference ratio at
/// the receiver exceeds this many dB…
pub(crate) const CAPTURE_SINR_DB: f64 = 12.0;
/// …and the interfering frame is at least this many times longer than
/// the captured one (short probes inside long saturated frames).
pub(crate) const CAPTURE_DURATION_RATIO: f64 = 2.0;
/// PB error rate applied to a captured frame's blocks.
pub(crate) const CAPTURE_PBERR: f64 = 0.75;

/// How often cached per-slot SNR spectra are refreshed.
const SPECTRUM_REFRESH: Duration = Duration::from_millis(200);
/// Minimum gap between two estimator observations on one link
/// direction (subsampling keeps long saturated runs cheap without
/// changing convergence behaviour at probe rates).
const OBSERVE_MIN_GAP: Duration = Duration::from_millis(10);

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master RNG seed.
    pub seed: u64,
    /// PLC generation (HPAV or HPAV500).
    pub technology: PlcTechnology,
    /// ABLATION: disable the 1901 deferral counter, making the backoff
    /// 802.11-style (stations escalate only on collisions, never on
    /// sensing the medium busy). Used to demonstrate the deferral
    /// counter's short-term unfairness/jitter effect (paper §2.2,
    /// \[19\], \[21\]).
    pub disable_deferral: bool,
    /// Record SoF delimiters of all successfully transmitted frames.
    pub sniffer: bool,
    /// Transmit-queue capacity in PBs (device buffer; PLC queues are
    /// non-blocking and drop on overflow, paper footnote 11).
    pub queue_cap_pbs: usize,
    /// Scripted medium outage (breaker trip seen from the MAC): windows
    /// during which no station of this contention domain can transmit.
    /// Pure function of time, so outaged runs stay deterministic across
    /// execution shapes. `None` (the default) costs nothing per step.
    pub outage: Option<electrifi_faults::OutageProfile>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            technology: PlcTechnology::HpAv,
            disable_deferral: false,
            sniffer: false,
            queue_cap_pbs: 600,
            outage: None,
        }
    }
}

/// A traffic flow between two stations (or a broadcast source).
#[derive(Debug, Clone)]
pub struct Flow {
    /// Source station.
    pub src: StationId,
    /// Destination station; [`BROADCAST`] for broadcast probing.
    pub dst: StationId,
    /// The traffic shape.
    pub source: TrafficSource,
}

impl Flow {
    /// Unicast flow.
    pub fn unicast(src: StationId, dst: StationId, source: TrafficSource) -> Self {
        Flow { src, dst, source }
    }

    /// Broadcast flow (ROBO-modulated, unacknowledged — paper §8.1).
    pub fn broadcast(src: StationId, source: TrafficSource) -> Self {
        Flow {
            src,
            dst: BROADCAST,
            source,
        }
    }

    pub(crate) fn is_broadcast(&self) -> bool {
        self.dst == BROADCAST
    }
}

/// Receiver-side state for one directed link.
pub(crate) struct RxState {
    pub(crate) estimator: ChannelEstimator,
    /// PBs (total, errored) since the last tone-map regeneration — the
    /// estimator's own error window.
    pub(crate) window: (u64, u64),
    /// PBs (total, errored) since the last `ampstat` drain — the
    /// measurement tool's window.
    pub(crate) ampstat: (u64, u64),
    /// Cumulative PB counters (never reset).
    pub(crate) cumulative: (u64, u64),
    pub(crate) last_observe: Option<Time>,
    /// Per-slot memo of `info_bits_per_symbol()` keyed by tone-map id —
    /// the O(carriers) sum only reruns after a regeneration changes the
    /// id. The reference stepper ignores this and recomputes per frame.
    pub(crate) bits_memo: [Option<(u32, f64)>; TONEMAP_SLOTS],
}

/// Per-flow simulation state.
pub(crate) struct FlowState {
    pub(crate) flow: Flow,
    pub(crate) queue: std::collections::VecDeque<QueuedPb>,
    /// Frames each packet participated in (sender side, for U-ETX).
    pub(crate) tx_counts: HashMap<u64, u32>,
    /// Completed tx counts of delivered packets.
    pub(crate) delivered_tx_counts: Vec<u32>,
    pub(crate) reassembler: Reassembler,
    pub(crate) delivered: Vec<CompletedPacket>,
    /// Broadcast accounting per receiver: (received packets, lost packets).
    pub(crate) broadcast_rx: HashMap<StationId, (u64, u64)>,
    /// Packets dropped at the full transmit queue.
    pub(crate) dropped: u64,
}

pub(crate) struct Station {
    pub(crate) outlet: NodeId,
    pub(crate) backoff: Option<BackoffState>,
    /// Flow indices sourced at this station.
    pub(crate) flows: Vec<usize>,
    /// Round-robin pointer over `flows`.
    pub(crate) rr: usize,
}

pub(crate) struct CachedSpectrum {
    pub(crate) at: Time,
    pub(crate) spec: SnrSpectrum,
    /// PBerr memoized for (tonemap id); invalidated with the spectrum.
    pub(crate) pberr_for: Option<(u32, f64)>,
    /// `spec.mean_db()` memoized; invalidated with the spectrum. The
    /// capture path takes the wideband mean of every interferer spectrum
    /// on each collision, so recomputing the 917-carrier mean per query
    /// dominates collision handling without this.
    pub(crate) mean_db: Option<f64>,
}

/// Memoized strongest-interferer scan for one (receiver, tone-map slot):
/// the two largest wideband mean spectra among stations with a channel to
/// the receiver, so a capture check is O(1) instead of
/// O(stations × carriers).
#[derive(Clone, Copy)]
pub(crate) struct CaptureEntry {
    /// `spectra_gen` at build time; any refresh anywhere invalidates.
    pub(crate) gen: u64,
    /// Oldest `at` among the group's spectra at build time. The entry is
    /// only valid while `now - min_at < spectrum_refresh`, i.e. while a
    /// rescan would refresh nothing and read identical spectra.
    pub(crate) min_at: Time,
    /// Largest mean (dB) and the transmitter it belongs to.
    pub(crate) top1: f64,
    pub(crate) top1_src: usize,
    /// Second-largest mean (dB), for when `top1_src` is the sender itself.
    pub(crate) top2: f64,
    pub(crate) valid: bool,
}

impl Default for CaptureEntry {
    fn default() -> Self {
        CaptureEntry {
            gen: 0,
            min_at: Time::ZERO,
            top1: f64::NEG_INFINITY,
            top1_src: usize::MAX,
            top2: f64::NEG_INFINITY,
            valid: false,
        }
    }
}

/// One PLC contention domain.
pub struct PlcSim {
    pub(crate) cfg: SimConfig,
    /// Staleness interval of cached spectra: [`SPECTRUM_REFRESH`] unless
    /// [`PlcSim::set_spectrum_refresh`] overrides it.
    pub(crate) spectrum_refresh: Duration,
    /// Minimum estimator-observation gap: [`OBSERVE_MIN_GAP`] unless
    /// [`PlcSim::set_observe_min_gap`] overrides it.
    pub(crate) observe_min_gap: Duration,
    pub(crate) now: Time,
    pub(crate) rng: StdRng,
    pub(crate) ids: Vec<StationId>,
    pub(crate) index: HashMap<StationId, usize>,
    pub(crate) stations: Vec<Station>,
    /// Undirected physical channels, keyed by (min idx, max idx).
    pub(crate) channels: HashMap<(usize, usize), PlcChannel>,
    /// Directed receiver state keyed by (src idx, dst idx).
    pub(crate) rx: HashMap<(usize, usize), RxState>,
    pub(crate) flows: Vec<FlowState>,
    pub(crate) sniffer: Vec<SofRecord>,
    pub(crate) spectra: HashMap<(usize, usize, u8), CachedSpectrum>,
    /// Bumped whenever any cached spectrum is actually refreshed;
    /// version-stamps the capture cache.
    pub(crate) spectra_gen: u64,
    /// Per-(receiver, slot) strongest-interferer memo for capture checks.
    pub(crate) capture_cache: Vec<[CaptureEntry; TONEMAP_SLOTS]>,
    pub(crate) n_carriers: usize,
    /// Prebuilt ROBO map for this carrier count (broadcasts, sounding,
    /// dead-map fallback) — avoids rebuilding the carrier vector per frame.
    pub(crate) robo: ToneMap,
    /// `info_bits_per_symbol()` of `robo`, computed once.
    pub(crate) robo_bits: f64,
    pub(crate) obs: Obs,
    pub(crate) metrics: MacMetrics,
    /// Reusable hot-loop buffers (`mem::take`n per step).
    pub(crate) scratch: SimScratch,
    /// Cached `next_arrival` over all (empty-queue) flows. `None` = dirty;
    /// `Some(v)` is the memoized scan result, valid until a source hands
    /// out a packet (`refill_queues` take) or a flow is added. Only set
    /// when every contributing source's arrival is time-independent
    /// ([`TrafficSource::arrival_is_static`]).
    pub(crate) arrival_cache: Option<Option<Time>>,
}

impl PlcSim {
    /// Build a simulation for stations plugged into `outlets` of `grid`.
    /// Channels are derived for every electrically connected pair.
    pub fn new(cfg: SimConfig, grid: &Grid, outlets: &[(StationId, NodeId)]) -> Self {
        let ids: Vec<StationId> = outlets.iter().map(|(id, _)| *id).collect();
        let index: HashMap<StationId, usize> =
            ids.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        assert_eq!(index.len(), ids.len(), "duplicate station ids");
        let stations: Vec<Station> = outlets
            .iter()
            .map(|&(_, outlet)| Station {
                outlet,
                backoff: None,
                flows: Vec::new(),
                rr: 0,
            })
            .collect();
        let mut channels = HashMap::new();
        for i in 0..stations.len() {
            for j in (i + 1)..stations.len() {
                let seed = cfg
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((ids[i] as u64) << 16 | ids[j] as u64);
                if let Some(ch) = PlcChannel::from_grid(
                    grid,
                    stations[i].outlet,
                    stations[j].outlet,
                    cfg.technology,
                    seed,
                ) {
                    channels.insert((i, j), ch);
                }
            }
        }
        let n_carriers = cfg.technology.carrier_count();
        let rng = StdRng::seed_from_u64(cfg.seed);
        let obs = simnet::obs::current();
        let metrics = MacMetrics::register(obs.registry());
        let robo = ToneMap::robo(n_carriers);
        let robo_bits = robo.info_bits_per_symbol();
        let n_stations = stations.len();
        PlcSim {
            cfg,
            spectrum_refresh: SPECTRUM_REFRESH,
            observe_min_gap: OBSERVE_MIN_GAP,
            now: Time::ZERO,
            rng,
            ids,
            index,
            stations,
            channels,
            rx: HashMap::new(),
            flows: Vec::new(),
            sniffer: Vec::new(),
            spectra: HashMap::new(),
            spectra_gen: 0,
            capture_cache: vec![[CaptureEntry::default(); TONEMAP_SLOTS]; n_stations],
            n_carriers,
            robo,
            robo_bits,
            obs,
            metrics,
            scratch: SimScratch::default(),
            arrival_cache: None,
        }
    }

    /// Route this simulation's metrics and events to `obs` instead of the
    /// ambient handle captured at construction.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.metrics = MacMetrics::register(obs.registry());
        self.obs = obs;
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Add a traffic flow; returns its handle.
    pub fn add_flow(&mut self, flow: Flow) -> usize {
        let src_idx = self.idx(flow.src);
        if !flow.is_broadcast() {
            let dst_idx = self.idx(flow.dst);
            let key = Self::pair(src_idx, dst_idx);
            assert!(
                self.channels.contains_key(&key),
                "no electrical path between stations {} and {}",
                flow.src,
                flow.dst
            );
        }
        let id = self.flows.len();
        self.flows.push(FlowState {
            flow,
            queue: Default::default(),
            tx_counts: HashMap::new(),
            delivered_tx_counts: Vec::new(),
            reassembler: Reassembler::new(),
            delivered: Vec::new(),
            broadcast_rx: HashMap::new(),
            dropped: 0,
        });
        self.stations[src_idx].flows.push(id);
        // A new source can move the minimum next-arrival.
        self.arrival_cache = None;
        id
    }

    /// Override the minimum estimator-observation gap mid-run. Used by
    /// `bench_mac` to quiesce the estimation pipeline after convergence so
    /// the timed window isolates the MAC stepping cost; experiments keep
    /// `OBSERVE_MIN_GAP` (10 ms).
    pub fn set_observe_min_gap(&mut self, gap: Duration) {
        self.observe_min_gap = gap;
    }

    /// Override the spectrum staleness interval mid-run (the bench hook
    /// companion of [`set_observe_min_gap`](Self::set_observe_min_gap)).
    /// `bench_mac` freezes refreshes after warmup so its gated comparison
    /// isolates the MAC scheduling loop from the PHY recompute cost that
    /// `BENCH_channel.json` measures on its own; experiments keep
    /// `SPECTRUM_REFRESH` (200 ms).
    pub fn set_spectrum_refresh(&mut self, interval: Duration) {
        self.spectrum_refresh = interval;
    }

    /// Materialize the per-(link, slot) spectrum-cache entry for every
    /// connected station pair in both directions.
    ///
    /// The hot loop creates these entries lazily, so the first-ever
    /// collision between a given pair allocates a spectrum buffer deep
    /// into a run. `bench_mac` prewarms before its timed window so the
    /// steady state is measurably allocation-free; entries still refresh
    /// on their normal staleness schedule afterwards. Deterministic: no
    /// RNG draws, identical across steppers at the same simulation time.
    pub fn prewarm_spectra(&mut self) {
        for src in 0..self.stations.len() {
            for dst in 0..self.stations.len() {
                if src == dst || !self.channels.contains_key(&Self::pair(src, dst)) {
                    continue;
                }
                for slot in 0..TONEMAP_SLOTS {
                    self.refresh_spectrum(src, dst, slot);
                }
            }
        }
    }

    pub(crate) fn idx(&self, id: StationId) -> usize {
        *self
            .index
            .get(&id)
            .unwrap_or_else(|| panic!("unknown station id {id}"))
    }

    pub(crate) fn pair(a: usize, b: usize) -> (usize, usize) {
        (a.min(b), a.max(b))
    }

    pub(crate) fn dir(a: usize, b: usize) -> LinkDir {
        if a < b {
            LinkDir::AtoB
        } else {
            LinkDir::BtoA
        }
    }

    /// Does a physical channel exist between two stations?
    pub fn connected(&self, a: StationId, b: StationId) -> bool {
        self.channels
            .contains_key(&Self::pair(self.idx(a), self.idx(b)))
    }

    /// Cable distance between two stations, metres.
    pub fn cable_distance_m(&self, a: StationId, b: StationId) -> Option<f64> {
        self.channels
            .get(&Self::pair(self.idx(a), self.idx(b)))
            .map(|c| c.cable_distance_m())
    }

    pub(crate) fn rx_state(&mut self, src: usize, dst: usize) -> &mut RxState {
        let n = self.n_carriers;
        self.rx.entry((src, dst)).or_insert_with(|| RxState {
            estimator: ChannelEstimator::new(EstimatorConfig::default(), n),
            window: (0, 0),
            ampstat: (0, 0),
            cumulative: (0, 0),
            last_observe: None,
            bits_memo: [None; TONEMAP_SLOTS],
        })
    }

    /// Refresh the cached per-slot spectrum for a directed link if older
    /// than `spectrum_refresh`, rewriting the entry's buffer in place.
    pub(crate) fn refresh_spectrum(&mut self, src: usize, dst: usize, slot: usize) {
        let key = (src, dst, slot as u8);
        let refresh = self.spectrum_refresh;
        let now = self.now;
        let needs = match self.spectra.get(&key) {
            Some(c) => now.saturating_since(c.at) >= refresh,
            None => true,
        };
        if needs {
            let _span = obs::span::enter_at("mac.spectrum_refresh", now);
            self.metrics.spec_refreshes.inc();
            self.spectra_gen += 1;
            let ch = self
                .channels
                .get(&Self::pair(src, dst))
                .expect("channel exists for active link");
            let phase = (slot as f64 + 0.5) / TONEMAP_SLOTS as f64;
            let entry = self.spectra.entry(key).or_insert_with(|| CachedSpectrum {
                at: now,
                spec: SnrSpectrum::empty(),
                pberr_for: None,
                mean_db: None,
            });
            entry.at = now;
            entry.pberr_for = None;
            entry.mean_db = None;
            ch.spectrum_at_phase_into(Self::dir(src, dst), now, phase, &mut entry.spec);
        } else {
            self.metrics.spec_hits.inc();
        }
    }

    /// Cached per-slot spectrum for a directed link (refreshed every
    /// `spectrum_refresh`).
    pub(crate) fn spectrum(&mut self, src: usize, dst: usize, slot: usize) -> &SnrSpectrum {
        self.refresh_spectrum(src, dst, slot);
        &self
            .spectra
            .get(&(src, dst, slot as u8))
            .expect("just refreshed")
            .spec
    }

    /// Wideband mean (dB) of the cached spectrum for a directed link,
    /// memoized until the next refresh. `SnrSpectrum::mean_db` is a pure
    /// function of the buffer, so caching it is bit-identical to
    /// recomputing.
    pub(crate) fn spectrum_mean(&mut self, src: usize, dst: usize, slot: usize) -> f64 {
        self.refresh_spectrum(src, dst, slot);
        let cached = self
            .spectra
            .get_mut(&(src, dst, slot as u8))
            .expect("just refreshed");
        if let Some(m) = cached.mean_db {
            return m;
        }
        let m = cached.spec.mean_db();
        cached.mean_db = Some(m);
        m
    }

    /// PBerr of `map` against the cached spectrum, memoized per tone-map
    /// id.
    pub(crate) fn pberr_for(&mut self, src: usize, dst: usize, slot: usize, map: &ToneMap) -> f64 {
        self.spectrum(src, dst, slot); // ensure fresh
        let key = (src, dst, slot as u8);
        let cached = self.spectra.get_mut(&key).expect("cached");
        if let Some((id, p)) = cached.pberr_for {
            if id == map.id {
                return p;
            }
        }
        let p = pb_error_prob(map, &cached.spec);
        cached.pberr_for = Some((map.id, p));
        p
    }

    // ----- Measurement interface (management messages & sniffer) -----

    /// `int6krate`-style query: the average BLE the destination's
    /// estimator currently advertises for `src → dst`, Mb/s.
    pub fn int6krate(&self, src: StationId, dst: StationId) -> f64 {
        let (s, d) = (self.idx(src), self.idx(dst));
        self.rx
            .get(&(s, d))
            .map(|r| r.estimator.ble_avg())
            .unwrap_or_else(|| self.robo.ble())
    }

    /// BLE of one tone-map slot for `src → dst`, Mb/s.
    pub fn ble_slot(&self, src: StationId, dst: StationId, slot: usize) -> f64 {
        let (s, d) = (self.idx(src), self.idx(dst));
        self.rx
            .get(&(s, d))
            .map(|r| r.estimator.ble_slot(slot))
            .unwrap_or_else(|| self.robo.ble())
    }

    /// `ampstat`-style query: PB error rate on `src → dst` since the last
    /// call (drains the tool window). `None` when no PBs flowed.
    pub fn ampstat(&mut self, src: StationId, dst: StationId) -> Option<f64> {
        let (s, d) = (self.idx(src), self.idx(dst));
        let rx = self.rx.get_mut(&(s, d))?;
        let (total, err) = rx.ampstat;
        rx.ampstat = (0, 0);
        if total == 0 {
            None
        } else {
            Some(err as f64 / total as f64)
        }
    }

    /// Cumulative PB counters (total, errored) for `src → dst`.
    pub fn pb_counters(&self, src: StationId, dst: StationId) -> (u64, u64) {
        let (s, d) = (self.idx(src), self.idx(dst));
        self.rx.get(&(s, d)).map(|r| r.cumulative).unwrap_or((0, 0))
    }

    /// Factory-reset a station: clears every channel estimate it holds as
    /// a receiver and every estimate other stations hold about links *to*
    /// it (tone maps are per-link state shared by both ends).
    pub fn reset_device(&mut self, station: StationId) {
        let idx = self.idx(station);
        for ((s, d), rx) in self.rx.iter_mut() {
            if *s == idx || *d == idx {
                rx.estimator.reset();
                rx.window = (0, 0);
                // Reset re-seeds tone-map ids from 1, so a stale memo
                // entry could collide with a fresh id.
                rx.bits_memo = [None; TONEMAP_SLOTS];
            }
        }
        // The spectrum cache memoizes PBerr by tone-map id too, for as
        // long as the spectrum lives, so drop it on every touched link.
        for ((s, d, _), cached) in self.spectra.iter_mut() {
            if *s == idx || *d == idx {
                cached.pberr_for = None;
            }
        }
    }

    /// Drain packets delivered on a unicast flow.
    pub fn take_delivered(&mut self, flow: usize) -> Vec<CompletedPacket> {
        std::mem::take(&mut self.flows[flow].delivered)
    }

    /// Drain delivered packets into a caller-owned buffer (appended),
    /// keeping the internal buffer's capacity: the heap-free counterpart
    /// of [`take_delivered`](Self::take_delivered) for long sampled runs.
    pub fn drain_delivered_into(&mut self, flow: usize, out: &mut Vec<CompletedPacket>) {
        out.append(&mut self.flows[flow].delivered);
    }

    /// Drain the per-packet transmission counts (frames each delivered
    /// packet needed — the U-ETX samples of §8.1).
    pub fn take_tx_counts(&mut self, flow: usize) -> Vec<u32> {
        std::mem::take(&mut self.flows[flow].delivered_tx_counts)
    }

    /// Drain per-packet transmission counts into a caller-owned buffer
    /// (appended), keeping the internal buffer's capacity.
    pub fn drain_tx_counts_into(&mut self, flow: usize, out: &mut Vec<u32>) {
        out.append(&mut self.flows[flow].delivered_tx_counts);
    }

    /// Pre-reserve every flow's transmit queue and delivery buffers.
    ///
    /// The `drain_*_into` methods keep buffer capacity across drains, so
    /// one generous reservation up front keeps the steady-state loop free
    /// of the occasional high-water-mark regrowth a delivery burst would
    /// otherwise trigger. `pkts` sizes the per-flow delivery buffers; the
    /// transmit queue is reserved to its hard cap (`queue_cap_pbs`).
    pub fn reserve_flow_buffers(&mut self, pkts: usize) {
        let cap = self.cfg.queue_cap_pbs;
        for f in &mut self.flows {
            f.queue.reserve(cap);
            f.delivered.reserve(pkts);
            f.delivered_tx_counts.reserve(pkts);
            // Keep the hash tables compact: in-flight packets number in
            // the tens; an oversized sparse table would cost a cache miss
            // on every per-PB lookup.
            f.tx_counts.reserve(pkts.min(256));
            f.reassembler.reserve(pkts.min(256));
        }
        let (n_stations, n_carriers) = (self.stations.len(), self.n_carriers);
        self.scratch.reserve(n_stations, cap, n_carriers);
    }

    /// Broadcast reception counters per receiving station:
    /// (received, lost).
    pub fn broadcast_stats(&self, flow: usize) -> &HashMap<StationId, (u64, u64)> {
        &self.flows[flow].broadcast_rx
    }

    /// Packets dropped at the source queue of a flow.
    pub fn dropped(&self, flow: usize) -> u64 {
        self.flows[flow].dropped
    }

    /// Captured SoF delimiters (requires `cfg.sniffer`).
    pub fn sniffer_records(&self) -> &[SofRecord] {
        &self.sniffer
    }

    // ----- Simulation engine -----

    /// Run the simulation until `end`.
    pub fn run_until(&mut self, end: Time) {
        // One span per call, not per step: callers advance in chunks, so
        // this stays far off the per-step hot path while still
        // attributing the MAC loop's wall clock.
        let _span = obs::span::enter_at("mac.run_until", self.now);
        while self.now < end {
            self.step(end);
        }
    }

    /// If `t` falls inside a beacon region, the end of that region;
    /// otherwise `t`.
    pub(crate) fn skip_beacon_region(t: Time) -> Time {
        let offset = Duration(t.as_nanos() % BEACON_PERIOD.as_nanos());
        if offset < timing::BEACON_REGION {
            t + (timing::BEACON_REGION - offset)
        } else {
            t
        }
    }

    /// Time remaining until the next beacon region starts (from `t`, which
    /// must not be inside a region).
    pub(crate) fn time_to_beacon(t: Time) -> Duration {
        let offset = Duration(t.as_nanos() % BEACON_PERIOD.as_nanos());
        BEACON_PERIOD - offset
    }

    /// Pull packets from traffic sources into per-flow PB queues.
    fn refill_queues(&mut self) {
        let cap = self.cfg.queue_cap_pbs;
        let now = self.now;
        let mut took = false;
        for fs in &mut self.flows {
            loop {
                // Peek the next packet's size from the pattern so a packet
                // is only pulled when its PBs fit (backpressure, not loss:
                // the file-transfer source must deliver every byte).
                let pkt_bytes = fs.flow.source.pkt_bytes();
                if fs.queue.len() + pbs_for_packet(pkt_bytes) as usize > cap {
                    break;
                }
                match fs.flow.source.take(now) {
                    Some(pkt) => {
                        took = true;
                        for pb in QueuedPb::segments(pkt.seq, pkt.bytes, pkt.created) {
                            fs.queue.push_back(pb);
                        }
                    }
                    None => break,
                }
            }
        }
        if took {
            // A source's release clock advanced: the cached minimum
            // next-arrival is stale.
            self.arrival_cache = None;
        }
    }

    /// The earliest future packet arrival over all flows (full scan).
    pub(crate) fn next_arrival(&self) -> Option<Time> {
        self.flows
            .iter()
            .filter(|fs| fs.queue.is_empty())
            .filter_map(|fs| fs.flow.source.next_arrival(self.now))
            .min()
    }

    /// [`next_arrival`](Self::next_arrival) behind the idle-skip cache.
    /// Only called when every queue is empty (the idle-medium branch of
    /// `step`), so the scan covers all flows; the result is memoized when
    /// every source's arrival is time-independent and stays valid until a
    /// source hands out a packet. Saturated (and unfinished file-transfer)
    /// sources are `now`-dependent and never reach this path with an empty
    /// queue except under a pathologically small `queue_cap_pbs` — in that
    /// case the scan simply reruns each step, preserving behaviour.
    fn next_arrival_cached(&mut self) -> Option<Time> {
        if let Some(cached) = self.arrival_cache {
            self.metrics.idle_skips.inc();
            return cached;
        }
        // Only the (rare) rescan gets a span; the skip path above is the
        // analytic fast path the idle-skip optimisation exists for.
        let _span = obs::span::enter_at("mac.idle_rescan", self.now);
        self.metrics.idle_rescans.inc();
        let cacheable = self
            .flows
            .iter()
            .all(|fs| !fs.queue.is_empty() || fs.flow.source.arrival_is_static());
        let next = self.next_arrival();
        if cacheable {
            self.arrival_cache = Some(next);
        }
        next
    }

    /// One event step toward `end`. `step(end)` depends only on the
    /// sim's state and the *final* horizon, so any slicing of the
    /// `while now < end` loop replays the exact same step sequence: a
    /// chunked `run_until` is bit-identical to one straight run.
    fn step(&mut self, end: Time) {
        self.metrics.steps.inc();
        self.metrics.events_fired.inc();
        self.now = Self::skip_beacon_region(self.now);
        if self.now >= end {
            self.now = end;
            return;
        }
        // Scripted outage (breaker trip): the medium is dead, so no
        // contention can resolve — fast-forward to the blackout's end
        // (or the horizon, whichever is first). Like the idle-advance
        // below, the jump depends only on sim state and the final
        // horizon, preserving the step-slicing bit-identity of chunked
        // `run_until` calls. Arrivals queue up meanwhile and drain on
        // the first post-outage step, modelling device buffers riding
        // through the trip.
        if let Some(outage) = &self.cfg.outage {
            if let Some(until) = outage.blackout_until(self.now) {
                self.obs.registry().counter("plc.mac.outage_skips").inc();
                self.now = until.min(end);
                return;
            }
        }
        self.refill_queues();
        // Detach the scratch from `self` so the pipeline can borrow both
        // mutably; restored below. `SimScratch::default()` is allocation
        // free, so the take itself never touches the heap.
        let mut scratch = std::mem::take(&mut self.scratch);
        self.step_contention(end, &mut scratch);
        self.scratch = scratch;
    }

    fn step_contention(&mut self, end: Time, scratch: &mut SimScratch) {
        if scratch.warm {
            self.metrics.scratch_reuses.inc();
        } else {
            scratch.warm = true;
        }
        // The unoptimized stepper allocated three per-step Vecs here (its
        // ready/contender/winner lists); the estimate keeps that count.
        self.metrics.allocs_saved.add(3);
        // Stations with queued PBs contend. Every flow carries
        // default-class (CA1) traffic, so the PRS0/PRS1 slots resolve no
        // priority and only cost their airtime.
        scratch.contenders.clear();
        scratch
            .contenders
            .extend((0..self.stations.len()).filter(|&i| {
                self.stations[i]
                    .flows
                    .iter()
                    .any(|&f| !self.flows[f].queue.is_empty())
            }));
        if scratch.contenders.is_empty() {
            // Idle medium: advance to the next arrival (or end). Any
            // beacon regions in between are empty and jumped over in one
            // `skip_beacon_region` of the target instant.
            let next = self.next_arrival_cached().unwrap_or(end).min(end);
            self.now = Self::skip_beacon_region(next.max(self.now + Duration::from_micros(1)));
            return;
        }
        self.metrics
            .csma_attempts
            .add(scratch.contenders.len() as u64);
        // Ensure backoff state.
        for &i in &scratch.contenders {
            if self.stations[i].backoff.is_none() {
                self.stations[i].backoff = Some(BackoffState::new(&mut self.rng));
            }
        }
        let m = scratch
            .contenders
            .iter()
            .map(|&i| {
                self.stations[i]
                    .backoff
                    .as_ref()
                    .expect("set above")
                    .backoff_slots()
            })
            .min()
            .expect("non-empty");
        let contention = timing::SLOT * (timing::PRS_SLOTS + m as u64);
        // Make sure the whole exchange fits before the next beacon region.
        let budget = Self::time_to_beacon(self.now);
        // `frame_exchange_overhead` already counts the PRS slots once;
        // adding `contention` (PRS + backoff) double-counts them, which is
        // deliberately conservative: a one-symbol frame must comfortably
        // fit before the beacon region.
        let min_needed =
            contention + timing::frame_exchange_overhead() + Duration::from_micros_f64(SYMBOL_US);
        if budget < min_needed {
            let _span = obs::span::enter_at("mac.beacon_region", self.now);
            self.now = Self::skip_beacon_region(self.now + budget);
            return;
        }
        self.now += contention;
        scratch.winners.clear();
        for &i in &scratch.contenders {
            if self.stations[i]
                .backoff
                .as_ref()
                .expect("set")
                .backoff_slots()
                == m
            {
                scratch.winners.push(i);
            }
        }
        for &i in &scratch.contenders {
            if !scratch.winners.contains(&i) {
                let st = self.stations[i].backoff.as_mut().expect("set");
                st.elapse_idle(m);
            }
        }
        // Frame-duration budget until the beacon region.
        let frame_budget = (Self::time_to_beacon(self.now)
            .saturating_sub(timing::frame_exchange_overhead()))
        .min(timing::MAX_FRAME);
        if scratch.winners.len() == 1 {
            let w = scratch.winners[0];
            self.transmit(w, frame_budget, None, scratch);
        } else {
            self.collide(frame_budget, scratch);
        }
        // Non-winning contenders sensed the medium busy: 1901 deferral
        // (skipped under the 802.11-style ablation).
        if !self.cfg.disable_deferral {
            for ci in 0..scratch.contenders.len() {
                let i = scratch.contenders[ci];
                if !scratch.winners.contains(&i) {
                    let st = self.stations[i].backoff.as_mut().expect("set");
                    st.on_busy(&mut self.rng);
                    self.metrics.csma_deferrals.inc();
                }
            }
        }
    }

    /// Pick the next flow of a station: round robin over its non-empty
    /// queues.
    pub(crate) fn pick_flow(&mut self, station: usize) -> Option<usize> {
        let n = self.stations[station].flows.len();
        for k in 0..n {
            let at = (self.stations[station].rr + k) % n;
            let f = self.stations[station].flows[at];
            if !self.flows[f].queue.is_empty() {
                self.stations[station].rr = (at + 1) % n;
                return Some(f);
            }
        }
        None
    }

    /// Build the frame a station would transmit now: drains PBs from the
    /// chosen flow into `scratch.tx_pbs` and copies the tone map into
    /// `scratch.tx_map`. Returns (flow, info bits/symbol, n_symbols,
    /// duration).
    fn build_frame(
        &mut self,
        station: usize,
        budget: Duration,
        scratch: &mut SimScratch,
    ) -> Option<(usize, f64, u64, Duration)> {
        let f = self.pick_flow(station)?;
        let is_broadcast = self.flows[f].flow.is_broadcast();
        let slot = self.now.tonemap_slot(TONEMAP_SLOTS);
        let mut use_robo = is_broadcast;
        let mut bits = self.robo_bits;
        if !is_broadcast {
            let src = self.idx(self.flows[f].flow.src);
            let dst = self.idx(self.flows[f].flow.dst);
            // The sender uses the tone map the destination last sent it;
            // before any estimation it falls back to ROBO (sound frames).
            let rx = self.rx_state(src, dst);
            if rx.estimator.last_regen().is_some() {
                let RxState {
                    estimator,
                    bits_memo,
                    ..
                } = rx;
                let map = &estimator.tonemaps().slots[slot];
                bits = match bits_memo[slot] {
                    Some((id, b)) if id == map.id => b,
                    _ => {
                        let b = map.info_bits_per_symbol();
                        bits_memo[slot] = Some((map.id, b));
                        b
                    }
                };
                scratch.tx_map.copy_from(map);
            } else {
                // No estimate yet: the link sounds with ROBO frames.
                self.metrics.sound_frames.inc();
                use_robo = true;
            }
        }
        if use_robo {
            scratch.tx_map.copy_from(&self.robo);
            bits = self.robo_bits;
        }
        if bits <= 0.0 {
            // Dead tone map: fall back to ROBO so the link can re-sound.
            self.metrics.sound_frames.inc();
            scratch.tx_map.copy_from(&self.robo);
            bits = self.robo_bits;
        }
        // The reference path clones a tone map per frame; this path copies
        // carriers into the reused scratch map instead.
        self.metrics.allocs_saved.inc();
        self.drain_pbs(f, bits, budget, scratch)
    }

    fn drain_pbs(
        &mut self,
        f: usize,
        info_bits: f64,
        budget: Duration,
        scratch: &mut SimScratch,
    ) -> Option<(usize, f64, u64, Duration)> {
        // Effective payload rate of the frame body: PB padding, partial
        // last symbols and slot truncation shave off a calibrated factor.
        let bits_per_sym = info_bits * timing::FRAME_EFFICIENCY;
        let max_syms = (budget.as_micros_f64() / SYMBOL_US).floor() as u64;
        if max_syms == 0 || bits_per_sym <= 0.0 {
            return None;
        }
        let max_pbs = ((max_syms as f64 * bits_per_sym) / PB_WIRE_BITS as f64).floor() as usize;
        let take = self.flows[f].queue.len().min(max_pbs.max(1));
        scratch.tx_pbs.clear();
        scratch.tx_pbs.extend(self.flows[f].queue.drain(..take));
        // The reference path collects the drained PBs into a fresh Vec.
        self.metrics.allocs_saved.inc();
        let n_sym = ((scratch.tx_pbs.len() as u64 * PB_WIRE_BITS) as f64 / bits_per_sym)
            .ceil()
            .max(1.0)
            .min(max_syms as f64) as u64;
        let duration = Duration::from_micros_f64(n_sym as f64 * SYMBOL_US);
        Some((f, info_bits, n_sym, duration))
    }

    /// Successful (uncollided) transmission of one frame.
    /// `degraded_to` carries the capture-effect SINR when this frame is
    /// being decoded under interference.
    fn transmit(
        &mut self,
        station: usize,
        budget: Duration,
        degraded_to: Option<f64>,
        scratch: &mut SimScratch,
    ) {
        let Some((f, bits, n_sym, duration)) = self.build_frame(station, budget, scratch) else {
            // Nothing to send after all: burn a slot.
            self.now += timing::SLOT;
            return;
        };
        let slot = self.now.tonemap_slot(TONEMAP_SLOTS);
        let src = self.idx(self.flows[f].flow.src);
        let is_broadcast = self.flows[f].flow.is_broadcast();
        // Record per-packet participation (U-ETX numerator). A frame
        // carries a handful of distinct packets at most, so a linear scan
        // of the reused `seen` list replaces the per-frame HashSet.
        scratch.seen.clear();
        for i in 0..scratch.tx_pbs.len() {
            let seq = scratch.tx_pbs[i].packet_seq;
            if !scratch.seen.contains(&seq) {
                scratch.seen.push(seq);
                *self.flows[f].tx_counts.entry(seq).or_insert(0) += 1;
            }
        }
        self.metrics.allocs_saved.inc();
        if self.cfg.sniffer {
            self.sniffer.push(SofRecord {
                t: self.now,
                sof: SofDelimiter {
                    src: self.ids[src],
                    dst: self.flows[f].flow.dst,
                    // Exactly `ToneMap::ble()` with the memoized
                    // info-bits/symbol substituted for the recomputation.
                    ble_mbps: bits * (1.0 - scratch.tx_map.design_pberr) / SYMBOL_US,
                    tonemap_id: scratch.tx_map.id,
                    slot: slot as u8,
                    n_symbols: n_sym,
                },
            });
        }
        // Detach the frame buffers so `scratch` can be passed down into
        // the receive paths; restored (capacity intact) after delivery.
        let pbs = std::mem::take(&mut scratch.tx_pbs);
        let map = std::mem::take(&mut scratch.tx_map);
        if is_broadcast {
            self.receive_broadcast(f, src, &pbs, &map, slot, scratch);
        } else {
            let dst = self.idx(self.flows[f].flow.dst);
            self.receive_unicast(f, src, dst, &pbs, &map, slot, n_sym, degraded_to, scratch);
        }
        scratch.tx_pbs = pbs;
        scratch.tx_map = map;
        // Advance the medium: PRS and backoff already elapsed in step().
        self.now += timing::PREAMBLE
            + duration
            + timing::RIFS
            + timing::PREAMBLE
            + timing::CIFS
            + timing::EXCHANGE_EXTRA;
        if let Some(b) = self.stations[station].backoff.as_mut() {
            b.on_success(&mut self.rng);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn receive_unicast(
        &mut self,
        f: usize,
        src: usize,
        dst: usize,
        pbs: &[QueuedPb],
        map: &ToneMap,
        slot: usize,
        n_sym: u64,
        degraded_to: Option<f64>,
        scratch: &mut SimScratch,
    ) {
        let pbs_len = pbs.len();
        let mut pberr = self.pberr_for(src, dst, slot, map);
        if degraded_to.is_some() {
            pberr = pberr.max(CAPTURE_PBERR);
        }
        // Draw errors, SACK, selective retransmission.
        let now = self.now;
        scratch.failed.clear();
        let mut n_err = 0u64;
        {
            // Split borrow: the RNG and the flow state are disjoint
            // fields of `self`.
            let PlcSim {
                ref mut rng,
                ref mut flows,
                ..
            } = *self;
            let fs = &mut flows[f];
            // Accepted PBs of one packet are accumulated into a bitmask
            // and handed to the reassembler per run: one map probe per
            // packet instead of one per PB. The Bernoulli draws stay
            // per-PB and in frame order, so the RNG stream and the
            // completion order are identical to the reference path.
            let mut run: Option<(u64, u32, Time, u64)> = None;
            for pb in pbs {
                if Distributions::bernoulli(rng, pberr) {
                    scratch.failed.push(*pb);
                    n_err += 1;
                    continue;
                }
                if pb.of > 64 {
                    // Oversized packets (no workload produces them) use
                    // the per-PB path.
                    if let Some((seq, of, created, mask)) = run.take() {
                        fs.reassembler.accept_run(seq, of, created, mask, now);
                    }
                    fs.reassembler.accept(*pb, now);
                    continue;
                }
                let bit = 1u64 << pb.index.min(63);
                match run {
                    Some((seq, _, _, ref mut mask)) if seq == pb.packet_seq => {
                        *mask |= bit;
                    }
                    _ => {
                        if let Some((seq, of, created, mask)) = run.take() {
                            fs.reassembler.accept_run(seq, of, created, mask, now);
                        }
                        run = Some((pb.packet_seq, pb.of, pb.created, bit));
                    }
                }
            }
            if let Some((seq, of, created, mask)) = run.take() {
                fs.reassembler.accept_run(seq, of, created, mask, now);
            }
        }
        let n_total = pbs_len as u64;
        // Corrupted PBs go back to the head of the queue, in order. Their
        // selective retransmission is what the SACK counter measures.
        self.metrics.sack_retrans_pbs.add(n_err);
        for i in (0..scratch.failed.len()).rev() {
            self.flows[f].queue.push_front(scratch.failed[i]);
        }
        // The reference path allocates a fresh failed-PB Vec per frame.
        self.metrics.allocs_saved.inc();
        // Completed packets (drained in completion order, no Vec churn).
        {
            let FlowState {
                reassembler,
                tx_counts,
                delivered,
                delivered_tx_counts,
                ..
            } = &mut self.flows[f];
            reassembler.drain_completed_with(|done| {
                if let Some(txc) = tx_counts.remove(&done.seq) {
                    delivered_tx_counts.push(txc);
                }
                delivered.push(done);
            });
        }
        // Estimation pipeline at the receiver.
        let gap = self.observe_min_gap;
        let refresh_needed = {
            let rx = self.rx_state(src, dst);
            rx.window.0 += n_total;
            rx.window.1 += n_err;
            rx.ampstat.0 += n_total;
            rx.ampstat.1 += n_err;
            rx.cumulative.0 += n_total;
            rx.cumulative.1 += n_err;
            rx.last_observe
                .is_none_or(|t| now.saturating_since(t) >= gap)
        };
        if refresh_needed {
            self.refresh_spectrum(src, dst, slot);
            let cached = &self
                .spectra
                .get(&(src, dst, slot as u8))
                .expect("just refreshed")
                .spec;
            // Degraded under capture: the receiver cannot tell collision
            // noise from channel noise — §8.2. Only that path copies, and
            // it copies into the reused scratch spectrum.
            let spec = match degraded_to {
                Some(sinr) => {
                    cached.capped_into(sinr, &mut scratch.degraded);
                    self.metrics.allocs_saved.inc();
                    &scratch.degraded
                }
                None => cached,
            };
            let rx = self.rx.get_mut(&(src, dst)).expect("created above");
            rx.estimator
                .observe(&mut self.rng, slot, spec, n_sym, pbs_len as u32);
            rx.last_observe = Some(now);
        }
        // Tone-map maintenance.
        let rx = self.rx.get_mut(&(src, dst)).expect("created above");
        let recent = if rx.window.0 >= 20 {
            rx.window.1 as f64 / rx.window.0 as f64
        } else {
            0.0
        };
        if rx.estimator.maybe_regenerate(now, recent) {
            rx.window = (0, 0);
            self.metrics.tonemap_updates.inc();
            let (src_id, dst_id) = (self.ids[src], self.ids[dst]);
            let ble = self.rx[&(src, dst)].estimator.ble_avg();
            self.obs.emit(now, "plc.mac", "tonemap_update", || {
                vec![
                    ("src".to_string(), src_id.into()),
                    ("dst".to_string(), dst_id.into()),
                    ("recent_pberr".to_string(), recent.into()),
                    ("ble_mbps".to_string(), ble.into()),
                ]
            });
        }
    }

    fn receive_broadcast(
        &mut self,
        f: usize,
        src: usize,
        pbs: &[QueuedPb],
        map: &ToneMap,
        slot: usize,
        scratch: &mut SimScratch,
    ) {
        // Every other connected station attempts reception; a packet is
        // lost for a receiver when any of its PBs fails. No SACK, no
        // retransmission (paper §8.1).
        scratch.receivers.clear();
        scratch.receivers.extend(
            (0..self.stations.len())
                .filter(|&r| r != src && self.channels.contains_key(&Self::pair(src, r))),
        );
        // Broadcast frames here carry whole packets (probes are single
        // packets). A packet's PBs are queued contiguously, so grouping
        // by packet is a run-length scan over the frame — and, unlike the
        // HashMap grouping it replaces, the group order is deterministic.
        scratch.bcast_runs.clear();
        let mut last_seq = None;
        for pb in pbs {
            match last_seq {
                Some(seq) if seq == pb.packet_seq => {
                    *scratch.bcast_runs.last_mut().expect("pushed below") += 1;
                }
                _ => {
                    last_seq = Some(pb.packet_seq);
                    scratch.bcast_runs.push(1u32);
                }
            }
        }
        // Receiver list + packet-group map of the reference path.
        self.metrics.allocs_saved.add(2);
        for ri in 0..scratch.receivers.len() {
            let r = scratch.receivers[ri];
            // Memoized per (link, slot, tone-map id): broadcast frames all
            // use the ROBO map, so this is one pb_error_prob per refresh.
            let pberr = self.pberr_for(src, r, slot, map);
            let mut lost_pkts = 0u64;
            let mut ok_pkts = 0u64;
            for gi in 0..scratch.bcast_runs.len() {
                let n_pbs = scratch.bcast_runs[gi];
                let mut ok = true;
                for _ in 0..n_pbs {
                    if Distributions::bernoulli(&mut self.rng, pberr) {
                        ok = false;
                    }
                }
                if ok {
                    ok_pkts += 1;
                } else {
                    lost_pkts += 1;
                }
            }
            let entry = self.flows[f]
                .broadcast_rx
                .entry(self.ids[r])
                .or_insert((0, 0));
            entry.0 += ok_pkts;
            entry.1 += lost_pkts;
        }
    }

    /// Two or more stations transmitted in the same slot. The winner set
    /// is read from `scratch.winners`.
    fn collide(&mut self, budget: Duration, scratch: &mut SimScratch) {
        self.metrics.csma_collisions.inc();
        let t = self.now;
        let n = scratch.winners.len();
        self.obs.emit(t, "plc.mac", "collision", || {
            vec![("stations".to_string(), n.into())]
        });
        // Build all frames first (drains queues) into the pooled frame
        // list: each slot's PB Vec and tone map are recycled via swap.
        scratch.n_built = 0;
        for wi in 0..scratch.winners.len() {
            let w = scratch.winners[wi];
            if let Some((f, bits, n_sym, dur)) = self.build_frame(w, budget, scratch) {
                if scratch.built.len() == scratch.n_built {
                    scratch.built.push(BuiltFrame::default());
                } else {
                    // PB list + tone map reused from the pool.
                    self.metrics.allocs_saved.add(2);
                }
                let entry = &mut scratch.built[scratch.n_built];
                std::mem::swap(&mut entry.pbs, &mut scratch.tx_pbs);
                std::mem::swap(&mut entry.map, &mut scratch.tx_map);
                entry.station = w;
                entry.flow = f;
                entry.bits = bits;
                entry.n_sym = n_sym;
                entry.dur = dur;
                scratch.n_built += 1;
            }
        }
        if scratch.n_built == 0 {
            self.now += timing::SLOT;
            return;
        }
        // Detach the pool so `scratch` can flow into the receive paths.
        let built = std::mem::take(&mut scratch.built);
        let n_built = scratch.n_built;
        let max_dur = built[..n_built]
            .iter()
            .map(|b| b.dur)
            .max()
            .expect("non-empty");
        let longest = built[..n_built]
            .iter()
            .map(|b| b.dur.as_nanos())
            .max()
            .expect("non-empty");
        let now = self.now;
        for b in &built[..n_built] {
            let (w, f) = (b.station, b.flow);
            // U-ETX accounting: this was a (failed or captured) attempt.
            scratch.seen.clear();
            for pb in &b.pbs {
                if !scratch.seen.contains(&pb.packet_seq) {
                    scratch.seen.push(pb.packet_seq);
                    *self.flows[f].tx_counts.entry(pb.packet_seq).or_insert(0) += 1;
                }
            }
            self.metrics.allocs_saved.inc();
            let is_broadcast = self.flows[f].flow.is_broadcast();
            let captured = !is_broadcast && {
                let src = self.idx(self.flows[f].flow.src);
                let dst = self.idx(self.flows[f].flow.dst);
                // Interferer must dwarf this frame in duration, and the
                // signal must dominate the interference at the receiver.
                let dominated = longest as f64 >= CAPTURE_DURATION_RATIO * b.dur.as_nanos() as f64;
                dominated && self.capture_sinr(src, dst, w) > CAPTURE_SINR_DB
            };
            if captured {
                let src = self.idx(self.flows[f].flow.src);
                let dst = self.idx(self.flows[f].flow.dst);
                let sinr = self.capture_sinr(src, dst, w);
                let slot = now.tonemap_slot(TONEMAP_SLOTS);
                if self.cfg.sniffer {
                    self.sniffer.push(SofRecord {
                        t: now,
                        sof: SofDelimiter {
                            src: self.ids[src],
                            dst: self.flows[f].flow.dst,
                            ble_mbps: b.bits * (1.0 - b.map.design_pberr) / SYMBOL_US,
                            tonemap_id: b.map.id,
                            slot: slot as u8,
                            n_symbols: b.n_sym,
                        },
                    });
                }
                self.receive_unicast(
                    f,
                    src,
                    dst,
                    &b.pbs,
                    &b.map,
                    slot,
                    b.n_sym,
                    Some(sinr),
                    scratch,
                );
            } else {
                // Frame lost entirely: PBs return to the queue head.
                for pb in b.pbs.iter().rev() {
                    self.flows[f].queue.push_front(*pb);
                }
            }
            if let Some(bo) = self.stations[w].backoff.as_mut() {
                bo.on_collision(&mut self.rng);
            }
        }
        scratch.built = built;
        self.now += timing::PREAMBLE
            + max_dur
            + timing::RIFS
            + timing::PREAMBLE
            + timing::CIFS
            + timing::EXCHANGE_EXTRA;
    }

    /// Signal-to-interference ratio (dB) at the receiver `dst` of the link
    /// `src → dst`, under interference from station `interferer != src`'s
    /// co-channel transmission. Uses mean spectra as a wideband proxy.
    ///
    /// The strongest-interferer scan is memoized per (receiver, slot) in
    /// [`CaptureEntry`]: the reference path recomputes every co-channel
    /// mean on every collision; here a rebuild queries the exact same
    /// spectra at the exact same instant (so refresh timing — and thus
    /// every downstream bit — is unchanged) and then answers from the
    /// top-two means until a refresh anywhere, or a due refresh within the
    /// group, invalidates it.
    pub(crate) fn capture_sinr(&mut self, src: usize, dst: usize, _this_winner: usize) -> f64 {
        let now = self.now;
        let slot = now.tonemap_slot(TONEMAP_SLOTS);
        let signal = self.spectrum_mean(src, dst, slot);
        let entry = self.capture_cache[dst][slot];
        let fresh = entry.valid
            && entry.gen == self.spectra_gen
            && now.saturating_since(entry.min_at) < self.spectrum_refresh;
        let entry = if fresh {
            entry
        } else {
            // Rebuild: visit every station with a channel to `dst`, in
            // ascending order, exactly as the unmemoized scan does. Any
            // stale spectrum refreshes here — at the same time it would
            // have refreshed in the reference scan.
            let mut e = CaptureEntry {
                gen: 0,
                min_at: now,
                ..CaptureEntry::default()
            };
            for o in 0..self.stations.len() {
                if o == dst || !self.channels.contains_key(&Self::pair(o, dst)) {
                    continue;
                }
                let m = self.spectrum_mean(o, dst, slot);
                if m > e.top1 {
                    e.top2 = e.top1;
                    e.top1 = m;
                    e.top1_src = o;
                } else if m > e.top2 {
                    e.top2 = m;
                }
                let at = self.spectra[&(o, dst, slot as u8)].at;
                e.min_at = e.min_at.min(at);
            }
            // Stamp with the post-rebuild generation: the rebuild's own
            // refreshes must not invalidate it.
            e.gen = self.spectra_gen;
            e.valid = true;
            self.capture_cache[dst][slot] = e;
            e
        };
        let interference = if entry.top1_src == src {
            entry.top2
        } else {
            entry.top1
        };
        if interference.is_finite() {
            signal - interference
        } else {
            // No modelled interference path: effectively clean capture.
            40.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::appliance::ApplianceKind;
    use simnet::schedule::Schedule;
    use simnet::traffic::TrafficPattern;

    /// Small test grid: a bus with four outlets and mild loads.
    fn grid4() -> (Grid, Vec<(StationId, NodeId)>) {
        let mut g = Grid::new();
        let j0 = g.add_junction("j0");
        let j1 = g.add_junction("j1");
        let j2 = g.add_junction("j2");
        g.connect(j0, j1, 12.0);
        g.connect(j1, j2, 12.0);
        let mut outlets = Vec::new();
        for (i, j) in [(0u16, j0), (1, j0), (2, j1), (3, j2)] {
            let o = g.add_outlet(format!("s{i}"));
            g.connect(j, o, 3.0 + i as f64);
            outlets.push((i, o));
        }
        // Two appliances to give the channels texture.
        let oa = g.add_outlet("pc");
        g.connect(j1, oa, 2.0);
        g.attach(oa, ApplianceKind::DesktopPc, Schedule::AlwaysOn);
        let ob = g.add_outlet("printer");
        g.connect(j2, ob, 2.0);
        g.attach(ob, ApplianceKind::LaserPrinter, Schedule::AlwaysOn);
        (g, outlets)
    }

    fn sim(cfg: SimConfig) -> PlcSim {
        let (g, outlets) = grid4();
        PlcSim::new(cfg, &g, &outlets)
    }

    #[test]
    fn saturated_flow_delivers_packets() {
        let mut s = sim(SimConfig::default());
        let f = s.add_flow(Flow::unicast(0, 2, TrafficSource::iperf_saturated()));
        s.run_until(Time::from_secs(2));
        let delivered = s.take_delivered(f);
        assert!(
            delivered.len() > 1000,
            "only {} packets in 2 s",
            delivered.len()
        );
        // Sequence numbers are delivered (mostly) in order and unique.
        let mut seqs: Vec<u64> = delivered.iter().map(|p| p.seq).collect();
        let len_before = seqs.len();
        seqs.dedup();
        assert_eq!(seqs.len(), len_before, "duplicate deliveries");
    }

    #[test]
    fn throughput_is_in_a_sane_hpav_range() {
        let mut s = sim(SimConfig::default());
        let f = s.add_flow(Flow::unicast(0, 1, TrafficSource::iperf_saturated()));
        s.run_until(Time::from_secs(3));
        let delivered = s.take_delivered(f);
        let bytes: u64 = delivered.len() as u64 * 1500;
        let mbps = bytes as f64 * 8.0 / 3.0 / 1e6;
        // Station 0 and 1 share an outlet junction: a very good link.
        // HPAV UDP tops out around 80-90 Mb/s in the paper.
        assert!((30.0..100.0).contains(&mbps), "throughput={mbps} Mb/s");
    }

    #[test]
    fn ble_rises_from_robo_with_traffic() {
        let mut s = sim(SimConfig::default());
        let robo = s.int6krate(0, 2);
        let _f = s.add_flow(Flow::unicast(0, 2, TrafficSource::iperf_saturated()));
        s.run_until(Time::from_secs(2));
        let after = s.int6krate(0, 2);
        assert!(robo < 7.0, "initial BLE should be ROBO: {robo}");
        assert!(after > 3.0 * robo, "BLE should grow: {after} vs {robo}");
    }

    #[test]
    fn outage_blacks_out_the_medium_then_recovers() {
        use electrifi_faults::OutageProfile;
        // Outage covering [1s, 2s): deliveries must stall inside the
        // window and resume after it.
        let cfg = SimConfig {
            outage: Some(OutageProfile {
                windows: vec![(Time::from_secs(1).as_nanos(), Time::from_secs(2).as_nanos())],
            }),
            ..SimConfig::default()
        };
        let mut s = sim(cfg);
        let f = s.add_flow(Flow::unicast(0, 2, TrafficSource::iperf_saturated()));
        s.run_until(Time::from_secs(1));
        let before = s.take_delivered(f).len();
        s.run_until(Time::from_secs(2));
        let during = s.take_delivered(f).len();
        s.run_until(Time::from_secs(3));
        let after = s.take_delivered(f).len();
        assert!(before > 500, "pre-outage deliveries: {before}");
        assert_eq!(during, 0, "medium must be dead during the outage");
        assert!(after > 500, "post-outage deliveries: {after}");
    }

    #[test]
    fn outage_fast_forward_is_horizon_independent() {
        use electrifi_faults::OutageProfile;
        // Slicing run_until across an outage window must land on the
        // same state as running straight through (the chunked
        // `run_until` bit-identity discipline).
        let mk = || {
            let cfg = SimConfig {
                outage: Some(OutageProfile {
                    windows: vec![(
                        Time::from_millis(500).as_nanos(),
                        Time::from_millis(1500).as_nanos(),
                    )],
                }),
                ..SimConfig::default()
            };
            let mut s = sim(cfg);
            s.add_flow(Flow::unicast(0, 2, TrafficSource::iperf_saturated()));
            s
        };
        let mut straight = mk();
        straight.run_until(Time::from_secs(3));
        let mut sliced = mk();
        for ms in [400u64, 700, 900, 1499, 1501, 2200, 3000] {
            sliced.run_until(Time::from_millis(ms));
        }
        assert_eq!(straight.now(), sliced.now());
        assert_eq!(
            straight.take_delivered(0).len(),
            sliced.take_delivered(0).len()
        );
    }

    #[test]
    fn two_saturated_flows_share_the_medium() {
        let mut s = sim(SimConfig::default());
        let f1 = s.add_flow(Flow::unicast(0, 2, TrafficSource::iperf_saturated()));
        let f2 = s.add_flow(Flow::unicast(1, 3, TrafficSource::iperf_saturated()));
        s.run_until(Time::from_secs(3));
        let d1 = s.take_delivered(f1).len() as f64;
        let d2 = s.take_delivered(f2).len() as f64;
        assert!(d1 > 100.0 && d2 > 100.0, "d1={d1} d2={d2}");
        // Long-run shares are within a factor ~3 (1901 is short-term
        // unfair but long-term roughly fair for equal-quality links).
        let ratio = d1.max(d2) / d1.min(d2);
        assert!(ratio < 3.0, "ratio={ratio}");
    }

    #[test]
    fn cbr_flow_respects_its_rate() {
        let mut s = sim(SimConfig::default());
        let f = s.add_flow(Flow::unicast(0, 3, TrafficSource::probe_150kbps()));
        s.run_until(Time::from_secs(10));
        let delivered = s.take_delivered(f);
        let rate = delivered.len() as f64 * 1500.0 * 8.0 / 10.0;
        assert!(
            (rate - 150_000.0).abs() / 150_000.0 < 0.1,
            "rate={rate} b/s"
        );
    }

    #[test]
    fn sniffer_captures_sof_with_slot_periodicity() {
        let cfg = SimConfig {
            sniffer: true,
            ..SimConfig::default()
        };
        let mut s = sim(cfg);
        let _f = s.add_flow(Flow::unicast(0, 2, TrafficSource::iperf_saturated()));
        s.run_until(Time::from_secs(1));
        let recs = s.sniffer_records();
        assert!(recs.len() > 100, "{} records", recs.len());
        // Slots must cycle 0..6 and match the capture timestamp.
        for r in recs {
            assert_eq!(r.sof.slot as usize, r.t.tonemap_slot(TONEMAP_SLOTS));
            assert!(r.sof.ble_mbps > 0.0);
        }
    }

    #[test]
    fn tx_counts_track_retransmissions() {
        let mut s = sim(SimConfig::default());
        let f = s.add_flow(Flow::unicast(0, 3, TrafficSource::probe_150kbps()));
        s.run_until(Time::from_secs(20));
        let counts = s.take_tx_counts(f);
        assert!(!counts.is_empty());
        // Every delivered packet needed at least one frame.
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn broadcast_reaches_all_stations_with_low_loss() {
        let mut s = sim(SimConfig::default());
        let f = s.add_flow(Flow::broadcast(
            0,
            TrafficSource::new(
                TrafficPattern::Cbr {
                    rate_bps: 120_000.0,
                    pkt_bytes: 1500,
                },
                Time::ZERO,
            ),
        ));
        s.run_until(Time::from_secs(10));
        let stats = s.broadcast_stats(f);
        assert_eq!(stats.len(), 3, "three receivers");
        for (recv, (ok, lost)) in stats {
            assert!(*ok > 50, "receiver {recv}: ok={ok}");
            let loss = *lost as f64 / (*ok + *lost) as f64;
            // ROBO modulation: losses should be small on this testbed.
            assert!(loss < 0.2, "receiver {recv}: loss={loss}");
        }
    }

    #[test]
    fn ampstat_window_drains() {
        let mut s = sim(SimConfig::default());
        let _f = s.add_flow(Flow::unicast(0, 2, TrafficSource::iperf_saturated()));
        s.run_until(Time::from_secs(1));
        let first = s.ampstat(0, 2);
        assert!(first.is_some());
        // Immediately after draining, no new PBs: None.
        let second = s.ampstat(0, 2);
        assert!(second.is_none());
        let (total, err) = s.pb_counters(0, 2);
        assert!(total > 0);
        assert!(err <= total);
    }

    #[test]
    fn reset_device_drops_estimates_to_robo() {
        let mut s = sim(SimConfig::default());
        let _f = s.add_flow(Flow::unicast(0, 2, TrafficSource::iperf_saturated()));
        s.run_until(Time::from_secs(2));
        assert!(s.int6krate(0, 2) > 20.0);
        s.reset_device(2);
        let robo = ToneMap::robo(PlcTechnology::HpAv.carrier_count()).ble();
        assert!((s.int6krate(0, 2) - robo).abs() < 1e-9);
    }

    #[test]
    fn reset_device_invalidates_the_pberr_memo() {
        use rand::SeedableRng;
        let mut s = sim(SimConfig::default());
        let (src, dst, slot) = (s.idx(0), s.idx(2), 0);
        let now = s.now;
        let spec = s.spectrum(src, dst, slot).clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let map_after = |s: &mut PlcSim, observations: u32, pbs: u32, rng: &mut _| {
            let est = &mut s.rx_state(src, dst).estimator;
            for _ in 0..observations {
                est.observe(rng, slot, &spec, 64, pbs);
            }
            est.regenerate(now, false);
            est.tonemaps().slots[slot].clone()
        };
        // One regeneration from a well-observed channel, memoized.
        let before = map_after(&mut s, 64, 8, &mut rng);
        let p_before = s.pberr_for(src, dst, slot, &before);
        s.reset_device(2);
        // A regeneration inside the spectrum lifetime reuses the id for a
        // one-PB-per-symbol map.
        let after = map_after(&mut s, 1, 1, &mut rng);
        assert_eq!(after.id, before.id, "the test must build an id collision");
        let fresh = pb_error_prob(&after, s.spectrum(src, dst, slot));
        assert_ne!(fresh.to_bits(), p_before.to_bits(), "maps must differ");
        assert_eq!(
            s.pberr_for(src, dst, slot, &after).to_bits(),
            fresh.to_bits()
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let mut s = sim(SimConfig::default());
            let f = s.add_flow(Flow::unicast(0, 3, TrafficSource::iperf_saturated()));
            s.run_until(Time::from_millis(500));
            (s.take_delivered(f).len(), s.int6krate(0, 3))
        };
        let (a1, b1) = run();
        let (a2, b2) = run();
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn arrival_cache_serves_idle_steps_and_invalidates_on_take() {
        // Two slow CBR probes: the medium is idle almost always, so
        // fine-grained stepping re-consults the min next-arrival between
        // every chunk boundary. Static (CBR) sources make it cacheable.
        let mut s = sim(SimConfig::default());
        let f = s.add_flow(Flow::unicast(0, 3, TrafficSource::probe_150kbps()));
        let _g = s.add_flow(Flow::unicast(1, 2, TrafficSource::probe_150kbps()));
        let mut t = Time::ZERO;
        while t < Time::from_secs(2) {
            t += Duration::from_micros(500);
            s.run_until(t);
        }
        let skips = s.metrics.idle_skips.get();
        let rescans = s.metrics.idle_rescans.get();
        assert!(skips > 0, "cache never hit (skips={skips})");
        // Every packet release dirties the cache, so there must be at
        // least one rescan per delivered packet — but far fewer rescans
        // than skips on a mostly-idle medium probed at 500 µs.
        let delivered = s.take_delivered(f).len() as u64;
        assert!(rescans >= delivered, "rescans={rescans} < pkts={delivered}");
        assert!(
            skips > 5 * rescans,
            "idle-skip hit rate too low: {skips} skips vs {rescans} rescans"
        );
    }

    #[test]
    fn arrival_cache_invalidated_by_add_flow() {
        let mut s = sim(SimConfig::default());
        let _f = s.add_flow(Flow::unicast(
            0,
            3,
            TrafficSource::new(
                TrafficPattern::Cbr {
                    rate_bps: 1_000.0,
                    pkt_bytes: 150,
                },
                Time::from_secs(5),
            ),
        ));
        // Prime the cache: nothing due before 5 s, so idle steps memoize.
        s.run_until(Time::from_millis(100));
        assert!(s.arrival_cache.is_some(), "cache should be primed");
        // A new flow with an earlier start must dirty the cache, or the
        // sim would sleep through its arrivals.
        let g = s.add_flow(Flow::unicast(1, 2, TrafficSource::probe_150kbps()));
        assert!(s.arrival_cache.is_none(), "add_flow must invalidate");
        s.run_until(Time::from_secs(2));
        assert!(
            !s.take_delivered(g).is_empty(),
            "the late-added flow must be served long before the first \
             flow's start time"
        );
    }

    #[test]
    fn saturated_sources_are_never_cached() {
        // A saturated source's next arrival is `now`-dependent; the cache
        // must refuse to memoize it even when its queue drains (forced
        // here by a tiny queue cap that cannot hold one packet's PBs).
        let cfg = SimConfig {
            queue_cap_pbs: 1,
            ..SimConfig::default()
        };
        let mut s = sim(cfg);
        let _f = s.add_flow(Flow::unicast(0, 2, TrafficSource::iperf_saturated()));
        s.run_until(Time::from_millis(50));
        assert!(
            s.arrival_cache.is_none(),
            "now-dependent arrivals must not be memoized"
        );
    }

    #[test]
    fn optimized_and_reference_steppers_agree_exactly() {
        // The in-crate smoke version of the differential suite in
        // tests/bit_identity.rs: same seed, same topology, saturated +
        // CBR mix, byte-compared outputs.
        let build = || {
            let mut s = sim(SimConfig {
                sniffer: true,
                ..SimConfig::default()
            });
            let f = s.add_flow(Flow::unicast(0, 2, TrafficSource::iperf_saturated()));
            let g = s.add_flow(Flow::unicast(1, 3, TrafficSource::probe_150kbps()));
            (s, f, g)
        };
        let (mut opt, f1, g1) = build();
        let (mut refr, f2, g2) = build();
        opt.run_until(Time::from_millis(700));
        refr.run_until_reference(Time::from_millis(700));
        assert_eq!(opt.now(), refr.now(), "clocks diverged");
        let (d1, d2) = (opt.take_delivered(f1), refr.take_delivered(f2));
        assert_eq!(d1.len(), d2.len());
        for (a, b) in d1.iter().zip(&d2) {
            assert_eq!(
                (a.seq, a.created, a.delivered),
                (b.seq, b.created, b.delivered)
            );
        }
        assert_eq!(opt.take_tx_counts(g1), refr.take_tx_counts(g2));
        assert_eq!(
            opt.int6krate(0, 2).to_bits(),
            refr.int6krate(0, 2).to_bits(),
            "BLE estimate diverged"
        );
        assert_eq!(opt.pb_counters(0, 2), refr.pb_counters(0, 2));
        let (r1, r2) = (opt.sniffer_records(), refr.sniffer_records());
        assert_eq!(r1.len(), r2.len(), "sniffer capture count diverged");
        for (a, b) in r1.iter().zip(r2) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.sof.ble_mbps.to_bits(), b.sof.ble_mbps.to_bits());
            assert_eq!(a.sof.n_symbols, b.sof.n_symbols);
            assert_eq!(a.sof.tonemap_id, b.sof.tonemap_id);
        }
    }

    #[test]
    fn beacon_regions_are_skipped() {
        // The helper must push any time inside [k*40ms, k*40ms+3.2ms) out.
        let inside = Time::from_millis(40) + Duration::from_micros(100);
        let out = PlcSim::skip_beacon_region(inside);
        assert_eq!(out, Time::from_millis(40) + timing::BEACON_REGION);
        let clean = Time::from_millis(40) + Duration::from_millis(10);
        assert_eq!(PlcSim::skip_beacon_region(clean), clean);
    }

    #[test]
    fn file_transfer_completes_and_stops() {
        let mut s = sim(SimConfig::default());
        let f = s.add_flow(Flow::unicast(
            0,
            2,
            TrafficSource::new(
                TrafficPattern::FileTransfer {
                    total_bytes: 1_500_000,
                    pkt_bytes: 1500,
                },
                Time::ZERO,
            ),
        ));
        s.run_until(Time::from_secs(30));
        let delivered = s.take_delivered(f);
        assert_eq!(delivered.len(), 1000, "whole file must arrive");
        let completion = delivered.iter().map(|p| p.delivered).max().unwrap();
        assert!(completion < Time::from_secs(10), "completion={completion}");
    }
}
