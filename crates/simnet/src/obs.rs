//! Sim-time observability: metrics registry, structured event log, and
//! run manifests.
//!
//! The paper is a measurement study — its contribution is reading link
//! metrics out of a running network — and this module gives the simulator
//! of that network the same property: counters, gauges and histograms
//! registered by every layer ([`Registry`]), a structured sim-time event
//! log behind the [`ObsSink`] trait, and a [`RunManifest`] record that
//! experiment runners serialize next to their outputs.
//!
//! Everything here is hand-rolled (like [`crate::rng`]) because the build
//! environment has no crates-io access: no `tracing`, `metrics` or `log`.
//!
//! ## The inertness invariant
//!
//! Observation must never perturb a run. Nothing in this module draws
//! randomness, reorders events, or feeds back into simulation state: the
//! same seed with a sink attached or detached produces bit-identical
//! experiment outputs, and two same-seed runs produce identical
//! [`MetricsSnapshot`]s and event logs. Workspace integration tests
//! enforce this.
//!
//! ## Wiring
//!
//! Components pick up the ambient [`Obs`] handle ([`current`]) when they
//! are constructed, register their instruments, and hold cheap shared
//! handles ([`Counter`], [`Gauge`], [`Histo`]). Runners that want
//! observability install a handle with [`with_default`] (or attach one
//! explicitly via a sim's `attach_obs` method) and snapshot the registry
//! when the run completes. The default ambient handle is disabled: no
//! sink, and a throwaway registry.

use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::fmt::Debug;
use std::io;
use std::rc::Rc;

pub mod span;

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// A monotonically increasing counter (events, frames, retransmissions).
///
/// Cloning shares the underlying value; increments through any clone are
/// visible in the registry snapshot.
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A gauge holding the latest value of some level (queue depth, split
/// ratio, heap high-water mark).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<f64>>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i` holds
/// values in `[2^(i-1), 2^i)`, so 64 powers of two cover all of `u64`.
const HISTO_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistoInner {
    buckets: RefCell<[u64; HISTO_BUCKETS]>,
    count: Cell<u64>,
    sum: Cell<u64>,
}

/// A histogram over `u64` samples with fixed log-spaced (power-of-two)
/// buckets — A-MPDU sizes, burst lengths, buffer occupancies.
#[derive(Debug, Clone)]
pub struct Histo(Rc<HistoInner>);

impl Default for Histo {
    fn default() -> Self {
        Histo(Rc::new(HistoInner {
            buckets: RefCell::new([0; HISTO_BUCKETS]),
            count: Cell::new(0),
            sum: Cell::new(0),
        }))
    }
}

impl Histo {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.0.buckets.borrow_mut()[idx] += 1;
        self.0.count.set(self.0.count.get() + 1);
        self.0.sum.set(self.0.sum.get().wrapping_add(v));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.get()
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.get()
    }

    /// Merge a snapshot's buckets back into this histogram (used when a
    /// worker thread's registry is folded into the parent's).
    fn absorb(&self, snap: &HistoSnapshot) {
        let mut buckets = self.0.buckets.borrow_mut();
        for &(le, c) in &snap.buckets {
            // Invert the snapshot encoding: le 0 → bucket 0, otherwise
            // le = 2^i - 1 → bucket i (u64::MAX lands in the last one).
            let idx = if le == 0 {
                0
            } else {
                64 - le.leading_zeros() as usize
            };
            buckets[idx] += c;
        }
        self.0.count.set(self.0.count.get() + snap.count);
        self.0.sum.set(self.0.sum.get().wrapping_add(snap.sum));
    }

    fn snapshot(&self) -> HistoSnapshot {
        let buckets = self.0.buckets.borrow();
        let filled = buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                // Inclusive upper bound of bucket i: 0 for the zero
                // bucket, 2^i - 1 otherwise (saturating at u64::MAX).
                let le = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                (le, c)
            })
            .collect();
        HistoSnapshot {
            count: self.0.count.get(),
            sum: self.0.sum.get(),
            buckets: filled,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry and snapshots
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histos: Vec<(String, Histo)>,
}

/// A registry of named instruments.
///
/// Cloning shares the registry. Registering the same name twice returns a
/// handle to the same underlying instrument, so independent components
/// can contribute to one series (e.g. `sim.events_fired`).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.borrow_mut();
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::default();
        inner.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.borrow_mut();
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::default();
        inner.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Get or create the histogram `name`.
    pub fn histo(&self, name: &str) -> Histo {
        let mut inner = self.inner.borrow_mut();
        if let Some((_, h)) = inner.histos.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histo::default();
        inner.histos.push((name.to_string(), h.clone()));
        h
    }

    /// Fold a [`MetricsSnapshot`] into this registry: counters and histo
    /// samples add, gauges take the absorbed value (last absorb wins).
    ///
    /// This is how parallel sweeps stay observable without sharing `Rc`
    /// instruments across threads: each worker runs under its own fresh
    /// [`Obs`], returns the (Send) snapshot, and the coordinator absorbs
    /// the snapshots in deterministic (chunk) order.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        for (name, v) in &snap.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(name).set(*v);
        }
        for (name, h) in &snap.histos {
            self.histo(name).absorb(h);
        }
    }

    /// Deterministic snapshot of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        let mut counters: Vec<(String, u64)> = inner
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, f64)> = inner
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histos: Vec<(String, HistoSnapshot)> = inner
            .histos
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        histos.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histos,
        }
    }
}

/// Point-in-time state of a [`Histo`]: only non-empty buckets, as
/// `(inclusive upper bound, count)` pairs in ascending bound order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping).
    pub sum: u64,
    /// `(le, count)` pairs for non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl HistoSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the log2 buckets by
    /// linear interpolation inside the bucket holding the target rank.
    ///
    /// Power-of-two buckets bound the relative error by 2x, which is
    /// plenty for profiling-style "is p99 a microsecond or a
    /// millisecond?" questions. Returns `None` for an empty histogram or
    /// an out-of-range `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Rank of the target sample, 1-based; q=0 maps to the first.
        let target = (q * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for &(le, c) in &self.buckets {
            let below = seen as f64;
            seen += c;
            if (seen as f64) >= target {
                // Bucket bounds: le 0 → [0,0]; otherwise [le/2+1, le]
                // (the first value bucket, le 1, holds exactly {1}).
                let (lo, hi) = if le == 0 {
                    (0.0, 0.0)
                } else {
                    (((le >> 1) + 1) as f64, le as f64)
                };
                let frac = (target - below) / c as f64;
                return Some(lo + (hi - lo) * frac);
            }
        }
        // Unreachable for a consistent snapshot (buckets sum to count),
        // but degrade gracefully for hand-built ones.
        self.buckets.last().map(|&(le, _)| le as f64)
    }
}

/// A deterministic, name-sorted snapshot of a [`Registry`].
///
/// Two same-seed runs of the same experiment produce byte-identical
/// serialized snapshots — enforced by workspace integration tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states by name.
    pub histos: Vec<(String, HistoSnapshot)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        MetricsSnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histos: Vec::new(),
        }
    }

    /// Value of the counter `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Structured event log
// ---------------------------------------------------------------------------

/// A field value in a structured event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u16> for FieldValue {
    fn from(v: u16) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One sim-time-stamped structured record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsEvent {
    /// Simulation time of the event.
    pub t: Time,
    /// Emitting component (`"plc.mac"`, `"wifi.rate"`, ...).
    pub component: String,
    /// Event kind within the component (`"collision"`, `"tonemap"`, ...).
    pub kind: String,
    /// Named payload fields.
    pub fields: Vec<(String, FieldValue)>,
}

/// Consumer of structured events.
pub trait ObsSink {
    /// Handle one event.
    fn record(&mut self, ev: &ObsEvent);

    /// Flush any buffered output (no-op by default).
    fn flush(&mut self) {}

    /// Number of events lost to I/O errors so far (0 for in-memory
    /// sinks). Sinks never propagate write failures mid-run — a failing
    /// log must not perturb a simulation — but runners should surface
    /// this count at flush time instead of dropping telemetry invisibly.
    fn error_count(&self) -> u64 {
        0
    }
}

/// A sink that writes one JSON object per line to any [`io::Write`].
#[derive(Debug)]
pub struct JsonlSink<W: io::Write> {
    out: W,
    /// Write errors are counted, not propagated: a failing log must not
    /// abort (or otherwise perturb) a simulation.
    errors: u64,
}

impl<W: io::Write> JsonlSink<W> {
    /// Sink writing JSONL to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink { out, errors: 0 }
    }

    /// Number of failed writes.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Consume the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: io::Write> ObsSink for JsonlSink<W> {
    fn record(&mut self, ev: &ObsEvent) {
        let line = serde_json::to_string(ev).unwrap_or_default();
        if writeln!(self.out, "{line}").is_err() {
            self.errors += 1;
        }
    }

    fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.errors += 1;
        }
    }

    fn error_count(&self) -> u64 {
        self.errors
    }
}

/// A sink that forwards events into a bounded [`std::sync::mpsc`]
/// channel, letting another thread subscribe to a simulation's event
/// stream **live** — the subscription hook a serving layer streams to
/// its clients.
///
/// The send is [`try_send`](std::sync::mpsc::SyncSender::try_send):
/// when the subscriber falls behind and the channel fills, events are
/// **dropped and counted**, never blocking the simulation — the
/// inertness invariant extends to back-pressure. Read the loss via
/// [`ChannelSink::dropped`] (or [`ObsSink::error_count`], which runners
/// already surface at flush time).
#[derive(Debug)]
pub struct ChannelSink {
    tx: std::sync::mpsc::SyncSender<ObsEvent>,
    forwarded: u64,
    dropped: u64,
}

impl ChannelSink {
    /// Sink forwarding into `tx`. Create the channel with
    /// [`std::sync::mpsc::sync_channel`] sized to the burst the
    /// subscriber can absorb.
    pub fn new(tx: std::sync::mpsc::SyncSender<ObsEvent>) -> Self {
        ChannelSink {
            tx,
            forwarded: 0,
            dropped: 0,
        }
    }

    /// Bounded channel of capacity `cap` plus a sink feeding it.
    pub fn bounded(cap: usize) -> (Self, std::sync::mpsc::Receiver<ObsEvent>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(cap);
        (Self::new(tx), rx)
    }

    /// Events successfully handed to the channel.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Events dropped because the channel was full (or the subscriber
    /// hung up).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl ObsSink for ChannelSink {
    fn record(&mut self, ev: &ObsEvent) {
        match self.tx.try_send(ev.clone()) {
            Ok(()) => self.forwarded += 1,
            Err(_) => self.dropped += 1,
        }
    }

    fn error_count(&self) -> u64 {
        self.dropped
    }
}

// ---------------------------------------------------------------------------
// The Obs handle
// ---------------------------------------------------------------------------

/// Shared observability handle: a metrics [`Registry`] plus an optional
/// event sink. Cloning shares both.
#[derive(Clone, Default)]
pub struct Obs {
    registry: Registry,
    sink: Option<Rc<RefCell<dyn ObsSink>>>,
}

impl Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("registry", &self.registry)
            .field("sink", &self.sink.as_ref().map(|_| "dyn ObsSink"))
            .finish()
    }
}

impl Obs {
    /// Metrics-only handle (no event sink; [`Obs::emit`] is a no-op that
    /// never constructs its fields).
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle with an owned event sink.
    pub fn with_sink<S: ObsSink + 'static>(sink: S) -> Self {
        Obs {
            registry: Registry::new(),
            sink: Some(Rc::new(RefCell::new(sink))),
        }
    }

    /// Handle sharing an existing sink, letting the caller keep a typed
    /// reference (e.g. to read collected events back after the run).
    pub fn with_sink_handle<S: ObsSink + 'static>(sink: Rc<RefCell<S>>) -> Self {
        Obs {
            registry: Registry::new(),
            sink: Some(sink),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// True when an event sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit a structured event. `fields` is only invoked when a sink is
    /// attached, so instrumentation points pay nothing when disabled.
    pub fn emit<F>(&self, t: Time, component: &str, kind: &str, fields: F)
    where
        F: FnOnce() -> Vec<(String, FieldValue)>,
    {
        if let Some(sink) = &self.sink {
            let ev = ObsEvent {
                t,
                component: component.to_string(),
                kind: kind.to_string(),
                fields: fields(),
            };
            sink.borrow_mut().record(&ev);
        }
    }

    /// Flush the sink, if any, and report how many events it has lost to
    /// write errors so far (0 with no sink). Runners warn on a non-zero
    /// count — silently vanishing telemetry is worse than a noisy run.
    pub fn flush(&self) -> u64 {
        if let Some(sink) = &self.sink {
            let mut sink = sink.borrow_mut();
            sink.flush();
            sink.error_count()
        } else {
            0
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Obs> = RefCell::new(Obs::new());
}

/// The ambient observability handle components pick up at construction.
pub fn current() -> Obs {
    CURRENT.with(|c| c.borrow().clone())
}

/// Replace the ambient handle (returns the previous one).
pub fn set_default(obs: Obs) -> Obs {
    CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), obs))
}

/// Run `f` with `obs` as the ambient handle, restoring the previous
/// handle afterwards.
pub fn with_default<T>(obs: Obs, f: impl FnOnce() -> T) -> T {
    let prev = set_default(obs);
    let out = f();
    set_default(prev);
    out
}

// ---------------------------------------------------------------------------
// Run manifests
// ---------------------------------------------------------------------------

/// What one experiment run did: written as `out/<name>.manifest.json` by
/// the reproduction binary (see `bench::RunGuard`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Run name (usually the figure, e.g. `"fig16"`).
    pub name: String,
    /// Top-level seed of the run.
    pub seed: u64,
    /// FNV-1a digest of the run configuration's `Debug` form.
    pub config_digest: String,
    /// Scale label (`"quick"` / `"paper"`).
    pub scale: String,
    /// Wall-clock duration of the run in seconds.
    pub wall_clock_s: f64,
    /// Simulation events fired (the registry's `sim.events_fired`).
    pub events_fired: u64,
    /// Final metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Wall-clock span profile (top spans by self time), when the run was
    /// traced (`null` otherwise — and by design: the profile is the one
    /// manifest section allowed to differ between traced and untraced
    /// runs of the same seed).
    pub profile: Option<span::RunProfile>,
}

/// FNV-1a digest of a configuration's `Debug` rendering, as fixed-width
/// hex. Cheap, dependency-free, and stable for the deterministic configs
/// used here — sufficient to tell two runs' configurations apart.
pub fn config_digest<C: Debug>(config: &C) -> String {
    let text = format!("{config:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shared_and_snapshotted_sorted() {
        let reg = Registry::new();
        let a = reg.counter("z.last");
        let b = reg.counter("a.first");
        let a2 = reg.counter("z.last");
        a.inc();
        a2.add(2);
        b.inc();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_string(), 1), ("z.last".to_string(), 3)]
        );
        assert_eq!(snap.counter("z.last"), 3);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn histo_buckets_are_log_spaced() {
        let reg = Registry::new();
        let h = reg.histo("sizes");
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = &snap.histos[0].1;
        assert_eq!(hs.count, 7);
        // 0 -> le 0; 1 -> le 1; 2,3 -> le 3; 4 -> le 7; 1024 -> le 2047;
        // u64::MAX -> le u64::MAX.
        assert_eq!(
            hs.buckets,
            vec![(0, 1), (1, 1), (3, 2), (7, 1), (2047, 1), (u64::MAX, 1)]
        );
    }

    #[test]
    fn absorb_merges_snapshots_into_registry() {
        // A "worker" registry records in isolation…
        let worker = Registry::new();
        worker.counter("hits").add(3);
        worker.gauge("depth").set(2.5);
        for v in [0, 1, 1024, u64::MAX] {
            worker.histo("sizes").record(v);
        }
        let snap = worker.snapshot();
        // …and folds into a parent that already has overlapping series.
        let parent = Registry::new();
        parent.counter("hits").add(4);
        parent.histo("sizes").record(1024);
        parent.absorb(&snap);
        let merged = parent.snapshot();
        assert_eq!(merged.counter("hits"), 7);
        assert_eq!(merged.gauges, vec![("depth".to_string(), 2.5)]);
        let hs = &merged.histos[0].1;
        assert_eq!(hs.count, 5);
        assert_eq!(
            hs.sum,
            1u64.wrapping_add(1024)
                .wrapping_add(1024)
                .wrapping_add(u64::MAX)
        );
        assert_eq!(hs.buckets, vec![(0, 1), (1, 1), (2047, 2), (u64::MAX, 1)]);
        // Absorbing twice keeps adding counters (idempotence is the
        // caller's job — each worker snapshot is absorbed exactly once).
        parent.absorb(&snap);
        assert_eq!(parent.snapshot().counter("hits"), 10);
    }

    #[test]
    fn disabled_obs_never_builds_fields() {
        let obs = Obs::new();
        let mut called = false;
        obs.emit(Time(5), "c", "k", || {
            called = true;
            Vec::new()
        });
        assert!(!called);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf: Vec<u8> = Vec::new();
        let sink = Rc::new(RefCell::new(JsonlSink::new(buf)));
        let obs = Obs::with_sink_handle(sink.clone());
        obs.emit(Time(7), "plc.mac", "collision", || {
            vec![("contenders".to_string(), FieldValue::U64(3))]
        });
        obs.emit(Time(9), "plc.mac", "sack", Vec::new);
        obs.flush();
        drop(obs);
        let sink = Rc::try_unwrap(sink).expect("no other handles after drop");
        let text = String::from_utf8(sink.into_inner().into_inner()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"collision\""));
        assert!(lines[0].contains("\"t\":7"));
    }

    #[test]
    fn with_default_scopes_the_ambient_handle() {
        let obs = Obs::new();
        let c = obs.registry().counter("scoped");
        with_default(obs.clone(), || {
            current().registry().counter("scoped").inc();
        });
        assert_eq!(c.get(), 1);
        // Outside the scope, the ambient handle is the disabled default
        // again — increments land in a different registry.
        current().registry().counter("scoped").inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn snapshot_serialization_is_deterministic() {
        let mk = || {
            let reg = Registry::new();
            reg.counter("b").add(2);
            reg.counter("a").inc();
            reg.gauge("g").set(0.5);
            reg.histo("h").record(10);
            serde_json::to_string(&reg.snapshot()).expect("serialize")
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn quantiles_interpolate_within_log2_buckets() {
        let h = Histo::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        // Exact median of 1..=100 is 50.5; the log2 estimate must land in
        // the right bucket ([33, 64]) and be a sane interpolation.
        let p50 = snap.quantile(0.50).expect("non-empty");
        assert!((33.0..=64.0).contains(&p50), "p50 = {p50}");
        let p99 = snap.quantile(0.99).expect("non-empty");
        assert!((65.0..=128.0).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        // Extremes: q=0 is the smallest sample's bucket, q=1 the largest.
        assert!(snap.quantile(0.0).expect("q0") >= 1.0);
        assert!(snap.quantile(1.0).expect("q1") <= 128.0);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram and out-of-range q → None.
        let empty = Histo::default().snapshot();
        assert_eq!(empty.quantile(0.5), None);
        let h = Histo::default();
        h.record(7);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(-0.1), None);
        assert_eq!(snap.quantile(1.1), None);
        // A single sample: every quantile lands in its bucket [5, 7].
        let p50 = snap.quantile(0.5).expect("one sample");
        assert!((5.0..=7.0).contains(&p50), "p50 = {p50}");
        // All-zero samples sit in the zero bucket.
        let z = Histo::default();
        z.record(0);
        z.record(0);
        assert_eq!(z.snapshot().quantile(0.9), Some(0.0));
    }

    /// An `io::Write` that always fails, for exercising error surfacing.
    struct FailingWriter;
    impl io::Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk gone"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("disk gone"))
        }
    }

    #[test]
    fn flush_reports_sink_error_count() {
        let obs = Obs::with_sink(JsonlSink::new(FailingWriter));
        obs.emit(Time(1), "c", "k", Vec::new);
        obs.emit(Time(2), "c", "k", Vec::new);
        // Two failed writes plus one failed flush.
        assert_eq!(obs.flush(), 3);
        // A healthy sink (and no sink at all) reports zero.
        let ok = Obs::with_sink(JsonlSink::new(Vec::new()));
        ok.emit(Time(1), "c", "k", Vec::new);
        assert_eq!(ok.flush(), 0);
        assert_eq!(Obs::new().flush(), 0);
    }

    #[test]
    fn channel_sink_streams_without_blocking() {
        let (sink, rx) = ChannelSink::bounded(2);
        let sink = Rc::new(RefCell::new(sink));
        let obs = Obs::with_sink_handle(sink.clone());
        // Three events into a 2-slot channel with no reader: the third
        // is dropped, not blocked on.
        for t in 0..3 {
            obs.emit(Time(t), "c", "k", Vec::new);
        }
        assert_eq!(sink.borrow().forwarded(), 2);
        assert_eq!(sink.borrow().dropped(), 1);
        assert_eq!(obs.flush(), 1);
        // The subscriber sees the two forwarded events, in order.
        let got: Vec<ObsEvent> = rx.try_iter().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].t, Time(0));
        assert_eq!(got[1].t, Time(1));
        // Once drained, new events flow again.
        obs.emit(Time(9), "c", "k", Vec::new);
        assert_eq!(rx.try_iter().count(), 1);
        // A hung-up subscriber turns every send into a counted drop.
        drop(rx);
        obs.emit(Time(10), "c", "k", Vec::new);
        assert_eq!(sink.borrow().dropped(), 2);
    }

    #[test]
    fn config_digest_distinguishes_configs() {
        assert_eq!(config_digest(&(1u32, 2u32)), config_digest(&(1u32, 2u32)));
        assert_ne!(config_digest(&(1u32, 2u32)), config_digest(&(2u32, 1u32)));
        assert_eq!(config_digest(&1u8).len(), 16);
    }
}
