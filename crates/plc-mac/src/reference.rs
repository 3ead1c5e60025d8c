//! The retained **reference stepper** for [`PlcSim`].
//!
//! This module is a frozen copy of the MAC hot loop as it stood before
//! the zero-allocation/idle-skip rewrite in `sim.rs`: per-step `Vec`
//! allocations for the contender/winner lists, per-frame tone-map
//! clones, a fresh failed-PB list per reception, per-PB reassembler
//! probes, and a full flow scan on every idle step.
//!
//! It exists for two reasons:
//!
//! 1. **Bit-identity evidence.** The differential tests in
//!    `tests/bit_identity.rs` drive one simulation with
//!    [`PlcSim::run_until`] and a twin (same seed, same topology) with
//!    [`PlcSim::run_until_reference`] and assert every observable output
//!    — delivered packets, `f64::to_bits` of rate queries, PB counters,
//!    the clock itself — is identical. Any behavioural drift in the
//!    optimized path fails those tests.
//! 2. **Benchmarking.** `bench_mac` measures the reference and optimized
//!    steppers on the same workloads and its gate checks the ratio,
//!    which makes the speedup machine-independent.
//!
//! Keep this module in sync with *behaviour*, never with *implementation*:
//! when the optimized path intentionally changes observable behaviour,
//! the change must be mirrored here (and called out in DESIGN.md);
//! otherwise this file should not be touched.
//!
//! One knowing deviation: the old broadcast path grouped a frame's PBs by
//! packet via a `HashMap`, whose iteration order is nondeterministic
//! across processes. The copy here groups by first appearance, which is
//! what the hash grouping degenerates to for the single-packet broadcast
//! frames every workload produces. See `receive_broadcast` in `sim.rs`.

use crate::csma::BackoffState;
use crate::frame::{SofDelimiter, SofRecord};
use crate::pb::{pbs_for_packet, QueuedPb, PB_WIRE_BITS};
use crate::sim::{PlcSim, CAPTURE_DURATION_RATIO, CAPTURE_PBERR, CAPTURE_SINR_DB};
use crate::timing;
use plc_phy::carrier::SYMBOL_US;
use plc_phy::tonemap::{ToneMap, TONEMAP_SLOTS};
use plc_phy::SnrSpectrum;
use simnet::rng::Distributions;
use simnet::time::{Duration, Time};

impl PlcSim {
    /// Run the simulation until `end` using the pre-optimization
    /// reference stepper. See the module docs for what this is for.
    pub fn run_until_reference(&mut self, end: Time) {
        while self.now < end {
            self.step_reference(end);
        }
    }

    /// One event step of the reference stepper (the old `step`).
    pub fn step_reference(&mut self, end: Time) {
        self.metrics.steps.inc();
        self.metrics.events_fired.inc();
        self.now = Self::skip_beacon_region(self.now);
        if self.now >= end {
            self.now = end;
            return;
        }
        self.refill_queues_reference();
        let contenders: Vec<usize> = (0..self.stations.len())
            .filter(|&i| {
                self.stations[i]
                    .flows
                    .iter()
                    .any(|&f| !self.flows[f].queue.is_empty())
            })
            .collect();
        if contenders.is_empty() {
            // Idle medium: advance to the next arrival (or end) — always
            // via the full flow scan.
            let next = self.next_arrival().unwrap_or(end).min(end);
            self.now = Self::skip_beacon_region(next.max(self.now + Duration::from_micros(1)));
            return;
        }
        self.metrics.csma_attempts.add(contenders.len() as u64);
        for &i in &contenders {
            if self.stations[i].backoff.is_none() {
                self.stations[i].backoff = Some(BackoffState::new(&mut self.rng));
            }
        }
        let m = contenders
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
        let budget = Self::time_to_beacon(self.now);
        let min_needed =
            contention + timing::frame_exchange_overhead() + Duration::from_micros_f64(SYMBOL_US);
        if budget < min_needed {
            self.now = Self::skip_beacon_region(self.now + budget);
            return;
        }
        self.now += contention;
        let winners: Vec<usize> = contenders
            .iter()
            .copied()
            .filter(|&i| {
                self.stations[i]
                    .backoff
                    .as_ref()
                    .expect("set")
                    .backoff_slots()
                    == m
            })
            .collect();
        for &i in &contenders {
            if !winners.contains(&i) {
                let st = self.stations[i].backoff.as_mut().expect("set");
                st.elapse_idle(m);
            }
        }
        let frame_budget = (Self::time_to_beacon(self.now)
            .saturating_sub(timing::frame_exchange_overhead()))
        .min(timing::MAX_FRAME);
        if winners.len() == 1 {
            self.transmit_reference(winners[0], frame_budget, None);
        } else {
            self.collide_reference(&winners, frame_budget);
        }
        if !self.cfg.disable_deferral {
            for &i in &contenders {
                if !winners.contains(&i) {
                    let st = self.stations[i].backoff.as_mut().expect("set");
                    st.on_busy(&mut self.rng);
                    self.metrics.csma_deferrals.inc();
                }
            }
        }
    }

    fn refill_queues_reference(&mut self) {
        let cap = self.cfg.queue_cap_pbs;
        let now = self.now;
        let mut took = false;
        for fs in &mut self.flows {
            loop {
                let pkt_bytes = fs.flow.source.pkt_bytes();
                if fs.queue.len() + pbs_for_packet(pkt_bytes) as usize > cap {
                    break;
                }
                match fs.flow.source.take(now) {
                    Some(pkt) => {
                        took = true;
                        for pb in QueuedPb::segment(pkt.seq, pkt.bytes, pkt.created) {
                            fs.queue.push_back(pb);
                        }
                    }
                    None => break,
                }
            }
        }
        if took {
            // Keep the optimized path's arrival cache coherent even when
            // the two steppers are interleaved on one instance.
            self.arrival_cache = None;
        }
    }

    fn build_frame_reference(
        &mut self,
        station: usize,
        budget: Duration,
    ) -> Option<(usize, Vec<QueuedPb>, ToneMap, u64, Duration)> {
        let f = self.pick_flow(station)?;
        let is_broadcast = self.flows[f].flow.is_broadcast();
        let slot = self.now.tonemap_slot(TONEMAP_SLOTS);
        let map = if is_broadcast {
            self.robo.clone()
        } else {
            let src = self.idx(self.flows[f].flow.src);
            let dst = self.idx(self.flows[f].flow.dst);
            let rx = self.rx_state(src, dst);
            if rx.estimator.last_regen().is_some() {
                rx.estimator.tonemaps().slots[slot].clone()
            } else {
                self.metrics.sound_frames.inc();
                self.robo.clone()
            }
        };
        let bits_per_sym = map.info_bits_per_symbol();
        if bits_per_sym <= 0.0 {
            self.metrics.sound_frames.inc();
            let robo = self.robo.clone();
            return self.drain_pbs_reference(f, robo, budget);
        }
        self.drain_pbs_reference(f, map, budget)
    }

    fn drain_pbs_reference(
        &mut self,
        f: usize,
        map: ToneMap,
        budget: Duration,
    ) -> Option<(usize, Vec<QueuedPb>, ToneMap, u64, Duration)> {
        let bits_per_sym = map.info_bits_per_symbol() * timing::FRAME_EFFICIENCY;
        let max_syms = (budget.as_micros_f64() / SYMBOL_US).floor() as u64;
        if max_syms == 0 || bits_per_sym <= 0.0 {
            return None;
        }
        let max_pbs = ((max_syms as f64 * bits_per_sym) / PB_WIRE_BITS as f64).floor() as usize;
        let take = self.flows[f].queue.len().min(max_pbs.max(1));
        let pbs: Vec<QueuedPb> = self.flows[f].queue.drain(..take).collect();
        let n_sym = ((pbs.len() as u64 * PB_WIRE_BITS) as f64 / bits_per_sym)
            .ceil()
            .max(1.0)
            .min(max_syms as f64) as u64;
        let duration = Duration::from_micros_f64(n_sym as f64 * SYMBOL_US);
        Some((f, pbs, map, n_sym, duration))
    }

    fn transmit_reference(&mut self, station: usize, budget: Duration, degraded_to: Option<f64>) {
        let Some((f, pbs, map, n_sym, duration)) = self.build_frame_reference(station, budget)
        else {
            self.now += timing::SLOT;
            return;
        };
        let slot = self.now.tonemap_slot(TONEMAP_SLOTS);
        let src = self.idx(self.flows[f].flow.src);
        let is_broadcast = self.flows[f].flow.is_broadcast();
        let mut seen = std::collections::HashSet::new();
        for pb in &pbs {
            if seen.insert(pb.packet_seq) {
                *self.flows[f].tx_counts.entry(pb.packet_seq).or_insert(0) += 1;
            }
        }
        if self.cfg.sniffer {
            self.sniffer.push(SofRecord {
                t: self.now,
                sof: SofDelimiter {
                    src: self.ids[src],
                    dst: self.flows[f].flow.dst,
                    ble_mbps: map.ble(),
                    tonemap_id: map.id,
                    slot: slot as u8,
                    n_symbols: n_sym,
                },
            });
        }
        if is_broadcast {
            self.receive_broadcast_reference(f, src, &pbs, &map, slot);
        } else {
            let dst = self.idx(self.flows[f].flow.dst);
            self.receive_unicast_reference(f, src, dst, pbs, &map, slot, n_sym, degraded_to);
        }
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
    fn receive_unicast_reference(
        &mut self,
        f: usize,
        src: usize,
        dst: usize,
        pbs: Vec<QueuedPb>,
        map: &ToneMap,
        slot: usize,
        n_sym: u64,
        degraded_to: Option<f64>,
    ) {
        let pbs_len = pbs.len();
        let mut pberr = self.pberr_for(src, dst, slot, map);
        if degraded_to.is_some() {
            pberr = pberr.max(CAPTURE_PBERR);
        }
        let now = self.now;
        let mut failed: Vec<QueuedPb> = Vec::new();
        let mut n_err = 0u64;
        for pb in &pbs {
            if Distributions::bernoulli(&mut self.rng, pberr) {
                failed.push(*pb);
                n_err += 1;
            } else {
                self.flows[f].reassembler.accept(*pb, now);
            }
        }
        let n_total = pbs.len() as u64;
        self.metrics.sack_retrans_pbs.add(n_err);
        for pb in failed.into_iter().rev() {
            self.flows[f].queue.push_front(pb);
        }
        for done in self.flows[f].reassembler.take_completed() {
            if let Some(txc) = self.flows[f].tx_counts.remove(&done.seq) {
                self.flows[f].delivered_tx_counts.push(txc);
            }
            self.flows[f].delivered.push(done);
        }
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
            let mut degraded = SnrSpectrum::empty();
            let spec = match degraded_to {
                Some(sinr) => {
                    cached.capped_into(sinr, &mut degraded);
                    &degraded
                }
                None => cached,
            };
            let rx = self.rx.get_mut(&(src, dst)).expect("created above");
            rx.estimator
                .observe(&mut self.rng, slot, spec, n_sym, pbs_len as u32);
            rx.last_observe = Some(now);
        }
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

    fn receive_broadcast_reference(
        &mut self,
        f: usize,
        src: usize,
        pbs: &[QueuedPb],
        map: &ToneMap,
        slot: usize,
    ) {
        let receivers: Vec<usize> = (0..self.stations.len())
            .filter(|&r| r != src && self.channels.contains_key(&Self::pair(src, r)))
            .collect();
        // First-appearance grouping (see module docs for why this is not
        // the original HashMap).
        let mut packets: Vec<(u64, u32)> = Vec::new();
        for pb in pbs {
            match packets.iter_mut().find(|(seq, _)| *seq == pb.packet_seq) {
                Some((_, n)) => *n += 1,
                None => packets.push((pb.packet_seq, 1)),
            }
        }
        for r in receivers {
            let pberr = self.pberr_for(src, r, slot, map);
            let mut lost_pkts = 0u64;
            let mut ok_pkts = 0u64;
            for (_, n_pbs) in &packets {
                let mut ok = true;
                for _ in 0..*n_pbs {
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

    fn collide_reference(&mut self, winners: &[usize], budget: Duration) {
        self.metrics.csma_collisions.inc();
        let t = self.now;
        let n = winners.len();
        self.obs.emit(t, "plc.mac", "collision", || {
            vec![("stations".to_string(), n.into())]
        });
        let mut built: Vec<(usize, usize, Vec<QueuedPb>, ToneMap, u64, Duration)> = Vec::new();
        for &w in winners {
            if let Some((f, pbs, map, n_sym, dur)) = self.build_frame_reference(w, budget) {
                built.push((w, f, pbs, map, n_sym, dur));
            }
        }
        if built.is_empty() {
            self.now += timing::SLOT;
            return;
        }
        let max_dur = built.iter().map(|b| b.5).max().expect("non-empty");
        let longest = built
            .iter()
            .map(|b| b.5.as_nanos())
            .max()
            .expect("non-empty");
        let now = self.now;
        for (w, f, pbs, map, n_sym, dur) in built {
            let mut seen = std::collections::HashSet::new();
            for pb in &pbs {
                if seen.insert(pb.packet_seq) {
                    *self.flows[f].tx_counts.entry(pb.packet_seq).or_insert(0) += 1;
                }
            }
            let is_broadcast = self.flows[f].flow.is_broadcast();
            let captured = !is_broadcast && {
                let src = self.idx(self.flows[f].flow.src);
                let dst = self.idx(self.flows[f].flow.dst);
                let dominated = longest as f64 >= CAPTURE_DURATION_RATIO * dur.as_nanos() as f64;
                dominated && self.capture_sinr_reference(src, dst, w) > CAPTURE_SINR_DB
            };
            if captured {
                let src = self.idx(self.flows[f].flow.src);
                let dst = self.idx(self.flows[f].flow.dst);
                let sinr = self.capture_sinr_reference(src, dst, w);
                let slot = now.tonemap_slot(TONEMAP_SLOTS);
                if self.cfg.sniffer {
                    self.sniffer.push(SofRecord {
                        t: now,
                        sof: SofDelimiter {
                            src: self.ids[src],
                            dst: self.flows[f].flow.dst,
                            ble_mbps: map.ble(),
                            tonemap_id: map.id,
                            slot: slot as u8,
                            n_symbols: n_sym,
                        },
                    });
                }
                self.receive_unicast_reference(f, src, dst, pbs, &map, slot, n_sym, Some(sinr));
            } else {
                for pb in pbs.into_iter().rev() {
                    self.flows[f].queue.push_front(pb);
                }
            }
            if let Some(b) = self.stations[w].backoff.as_mut() {
                b.on_collision(&mut self.rng);
            }
        }
        self.now += timing::PREAMBLE
            + max_dur
            + timing::RIFS
            + timing::PREAMBLE
            + timing::CIFS
            + timing::EXCHANGE_EXTRA;
    }

    /// Faithful copy of the pre-optimization capture scan: collects the
    /// interferer set into a fresh `Vec` and recomputes every wideband
    /// spectrum mean on every query. The optimized path memoizes both
    /// (`PlcSim::capture_sinr`); the answers are bit-identical because the
    /// same spectra are queried — and therefore refreshed — at the same
    /// instants.
    fn capture_sinr_reference(&mut self, src: usize, dst: usize, _this_winner: usize) -> f64 {
        let now = self.now;
        let slot = now.tonemap_slot(TONEMAP_SLOTS);
        let signal = self.spectrum(src, dst, slot).mean_db();
        let mut interference: f64 = f64::NEG_INFINITY;
        let others: Vec<usize> = (0..self.stations.len())
            .filter(|&i| i != src && i != dst && self.channels.contains_key(&Self::pair(i, dst)))
            .collect();
        for o in others {
            let m = self.spectrum(o, dst, slot).mean_db();
            interference = interference.max(m);
        }
        if interference.is_finite() {
            signal - interference
        } else {
            // No modelled interference path: effectively clean capture.
            40.0
        }
    }
}
