//! Reusable scratch buffers for the [`PlcSim`](crate::sim::PlcSim) hot
//! loop.
//!
//! Every `step()` of the contention-domain simulation used to allocate a
//! handful of short-lived vectors (contender/winner index lists,
//! the drained PB list, a cloned tone map, the failed-PB list, …). A
//! [`SimScratch`] owns one long-lived instance of each buffer; the step
//! pipeline `mem::take`s the scratch at entry (so borrowing it mutably
//! alongside `&mut PlcSim` is legal) and restores it at exit. After a few
//! warm-up steps the buffers reach their steady-state capacities and the
//! loop runs without touching the heap — the property `bench_mac`'s
//! gate checks.

use crate::pb::QueuedPb;
use plc_phy::tonemap::ToneMap;
use plc_phy::SnrSpectrum;
use simnet::time::Duration;

/// One frame built during a collision, pooled so simultaneous winners
/// don't re-allocate their PB lists and tone-map copies every collision.
#[derive(Debug)]
pub(crate) struct BuiltFrame {
    /// Station index that transmitted.
    pub station: usize,
    /// Flow index the frame drained.
    pub flow: usize,
    /// Information bits per OFDM symbol of `map` (memoized).
    pub bits: f64,
    /// Frame body length in OFDM symbols.
    pub n_sym: u64,
    /// Frame body duration.
    pub dur: Duration,
    /// The PBs the frame carries.
    pub pbs: Vec<QueuedPb>,
    /// The tone map the frame was modulated with.
    pub map: ToneMap,
}

impl Default for BuiltFrame {
    fn default() -> Self {
        BuiltFrame {
            station: 0,
            flow: 0,
            bits: 0.0,
            n_sym: 0,
            dur: Duration(0),
            pbs: Vec::new(),
            map: ToneMap::default(),
        }
    }
}

/// Scratch buffers owned by a `PlcSim`, reused across steps.
#[derive(Debug, Default)]
pub(crate) struct SimScratch {
    /// Set once the scratch has served a step (drives the
    /// `plc.mac.scratch_reuses` counter).
    pub warm: bool,
    /// Stations with at least one backlogged flow.
    pub contenders: Vec<usize>,
    /// Contenders whose backoff hit the minimum slot count.
    pub winners: Vec<usize>,
    /// PBs of the frame currently being built/transmitted.
    pub tx_pbs: Vec<QueuedPb>,
    /// Tone map of the frame currently being built/transmitted.
    pub tx_map: ToneMap,
    /// Packet seqs already counted for U-ETX in the current frame.
    pub seen: Vec<u64>,
    /// PBs that failed the error draw in the current reception.
    pub failed: Vec<QueuedPb>,
    /// Receiver station indices of the current broadcast frame.
    pub receivers: Vec<usize>,
    /// PB counts per packet (in frame order) of a broadcast frame.
    pub bcast_runs: Vec<u32>,
    /// Capture-degraded spectrum buffer (collision decode path).
    pub degraded: SnrSpectrum,
    /// Pool of frames built during a collision; `n_built` are live.
    pub built: Vec<BuiltFrame>,
    /// Number of live entries in `built` for the current collision.
    pub n_built: usize,
}

impl SimScratch {
    /// Reserve every buffer past its worst-case steady-state size, so no
    /// record-high burst can trigger a capacity regrowth mid-run.
    ///
    /// The warm-up period normally grows these organically; this is for
    /// callers (like `bench_mac`) that need a *provably* allocation-free
    /// window rather than an amortized one.
    pub fn reserve(&mut self, n_stations: usize, max_frame_pbs: usize, n_carriers: usize) {
        self.contenders.reserve(n_stations);
        self.winners.reserve(n_stations);
        self.tx_pbs.reserve(max_frame_pbs);
        self.seen.reserve(max_frame_pbs);
        self.failed.reserve(max_frame_pbs);
        self.receivers.reserve(n_stations);
        self.bcast_runs.reserve(max_frame_pbs);
        self.degraded.snr_db.reserve(n_carriers);
        // Materialize one pooled frame per possible collision winner,
        // each with its PB list and tone-map carrier vector pre-sized.
        while self.built.len() < n_stations {
            self.built.push(BuiltFrame::default());
        }
        self.tx_map.carriers.reserve(n_carriers);
        for b in &mut self.built {
            b.pbs.reserve(max_frame_pbs);
            b.map.carriers.reserve(n_carriers);
        }
    }
}
