//! Packet-level 802.11n DCF simulation with A-MPDU aggregation.
//!
//! Mirrors the structure of `plc_mac::sim` for the WiFi medium: stations
//! at positions on a floor, DCF contention (CW doubling on loss),
//! A-MPDU aggregation with selective block acknowledgment, and per-link
//! whole-band rate adaptation. The paper runs its WiFi tests on a private
//! frequency ("We selected a frequency that does not interfere with other
//! wireless networks"), so the only contenders are the experiment's own
//! stations; ambient interference enters through the channel model
//! instead.

use crate::channel::WifiChannel;
use crate::mcs::Mcs;
use crate::rate::RateAdapter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use simnet::geometry::{Floor, Point};
use simnet::obs::{Counter, Histo, Obs, Registry};
use simnet::rng::Distributions;
use simnet::time::{Duration, Time};
use simnet::traffic::TrafficSource;
use std::collections::HashMap;

/// Shared handles into the metrics registry for the DCF hot paths.
/// Incrementing is a cheap shared-cell add and none of it feeds back into
/// simulation state (observation is inert — see `simnet::obs`).
struct WifiMetrics {
    steps: Counter,
    events_fired: Counter,
    collisions: Counter,
    mcs_transitions: Counter,
    rate_fallbacks: Counter,
    ampdu_mpdus: Histo,
}

impl WifiMetrics {
    fn register(reg: &Registry) -> Self {
        WifiMetrics {
            steps: reg.counter("wifi.mac.steps"),
            events_fired: reg.counter("sim.events_fired"),
            collisions: reg.counter("wifi.mac.collisions"),
            mcs_transitions: reg.counter("wifi.rate.mcs_transitions"),
            rate_fallbacks: reg.counter("wifi.rate.fallbacks"),
            ampdu_mpdus: reg.histo("wifi.mac.ampdu_mpdus"),
        }
    }
}

/// Station identifier (shared id space with the PLC side of a hybrid
/// node).
pub type StationId = u16;

/// DCF slot time (802.11n OFDM PHY).
pub const SLOT: Duration = Duration::from_micros(9);
/// DIFS.
pub const DIFS: Duration = Duration::from_micros(34);
/// SIFS.
pub const SIFS: Duration = Duration::from_micros(16);
/// PLCP preamble + header of an HT frame.
pub const PREAMBLE: Duration = Duration::from_micros(40);
/// Block-ACK airtime.
pub const BLOCK_ACK: Duration = Duration::from_micros(32);
/// Minimum contention window (CWmin + 1 actually; draws are in [0, CW)).
pub const CW_MIN: u32 = 16;
/// Maximum contention window.
pub const CW_MAX: u32 = 1024;
/// Maximum MPDUs per A-MPDU.
pub const MAX_AMPDU_MPDUS: usize = 64;
/// Maximum A-MPDU airtime.
const MAX_AMPDU_AIRTIME: Duration = Duration::from_micros(1_000);
/// Per-MPDU framing efficiency (MAC header, delimiter, FCS).
const MPDU_EFFICIENCY: f64 = 0.93;
/// Fraction of an A-MPDU that must be lost to count as a loss burst
/// (rate-adapter step-down + CW escalation).
const LOSS_BURST_FRACTION: f64 = 0.5;
/// Transmit-queue capacity in packets.
const QUEUE_CAP: usize = 512;

/// A WiFi traffic flow.
#[derive(Debug, Clone)]
pub struct WifiFlow {
    /// Source station.
    pub src: StationId,
    /// Destination station.
    pub dst: StationId,
    /// Traffic shape.
    pub source: TrafficSource,
}

/// A delivered packet record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WifiDelivered {
    /// Flow-scoped sequence number.
    pub seq: u64,
    /// Source-side creation time.
    pub created: Time,
    /// Arrival time at the destination.
    pub delivered: Time,
}

struct QueuedPkt {
    seq: u64,
    bytes: u32,
    created: Time,
    retries: u32,
}

struct FlowState {
    flow: WifiFlow,
    queue: std::collections::VecDeque<QueuedPkt>,
    delivered: Vec<WifiDelivered>,
}

struct StationState {
    pos: Point,
    backoff: Option<u32>,
    cw: u32,
    flows: Vec<usize>,
    rr: usize,
}

/// One WiFi BSS / contention domain.
pub struct WifiSim {
    now: Time,
    rng: StdRng,
    #[allow(dead_code)] // retained for diagnostics / future MM-style APIs
    ids: Vec<StationId>,
    index: HashMap<StationId, usize>,
    stations: Vec<StationState>,
    channels: HashMap<(usize, usize), WifiChannel>,
    adapters: HashMap<(usize, usize), RateAdapter>,
    flows: Vec<FlowState>,
    obs: Obs,
    metrics: WifiMetrics,
}

impl WifiSim {
    /// Build a BSS with stations at the given floor positions; `seed` is
    /// the master seed of its channels and contention draws.
    pub fn new(seed: u64, floor: &Floor, stations: &[(StationId, Point)]) -> Self {
        let ids: Vec<StationId> = stations.iter().map(|(id, _)| *id).collect();
        let index: HashMap<StationId, usize> =
            ids.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        assert_eq!(index.len(), ids.len(), "duplicate station ids");
        let sts: Vec<StationState> = stations
            .iter()
            .map(|&(_, pos)| StationState {
                pos,
                backoff: None,
                cw: CW_MIN,
                flows: Vec::new(),
                rr: 0,
            })
            .collect();
        let mut channels = HashMap::new();
        for i in 0..sts.len() {
            for j in (i + 1)..sts.len() {
                let link_seed = seed
                    .wrapping_mul(0x2545_f491_4f6c_dd1d)
                    .wrapping_add(((ids[i] as u64) << 16) | ids[j] as u64);
                channels.insert(
                    (i, j),
                    WifiChannel::new(floor, sts[i].pos, sts[j].pos, link_seed),
                );
            }
        }
        let obs = simnet::obs::current();
        let metrics = WifiMetrics::register(obs.registry());
        WifiSim {
            rng: StdRng::seed_from_u64(seed ^ 0x771F_1771),
            now: Time::ZERO,
            ids,
            index,
            stations: sts,
            channels,
            adapters: HashMap::new(),
            flows: Vec::new(),
            obs,
            metrics,
        }
    }

    /// Route this simulation's metrics and events to `obs` instead of the
    /// ambient handle captured at construction.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.metrics = WifiMetrics::register(obs.registry());
        self.obs = obs;
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    fn idx(&self, id: StationId) -> usize {
        *self
            .index
            .get(&id)
            .unwrap_or_else(|| panic!("unknown station id {id}"))
    }

    fn pair(a: usize, b: usize) -> (usize, usize) {
        (a.min(b), a.max(b))
    }

    /// Add a flow; returns its handle.
    pub fn add_flow(&mut self, flow: WifiFlow) -> usize {
        let src = self.idx(flow.src);
        let _ = self.idx(flow.dst);
        let id = self.flows.len();
        self.flows.push(FlowState {
            flow,
            queue: Default::default(),
            delivered: Vec::new(),
        });
        self.stations[src].flows.push(id);
        id
    }

    /// The channel between two stations.
    pub fn channel(&self, a: StationId, b: StationId) -> &WifiChannel {
        &self.channels[&Self::pair(self.idx(a), self.idx(b))]
    }

    /// Current MCS index the sender uses toward `dst` (the paper reads
    /// this from the WiFi frame control, Table 2).
    pub fn mcs(&self, src: StationId, dst: StationId) -> Option<Mcs> {
        let key = (self.idx(src), self.idx(dst));
        self.adapters.get(&key).and_then(|a| a.current_mcs())
    }

    /// Capacity estimate (Mb/s) from the current MCS.
    pub fn capacity_mbps(&self, src: StationId, dst: StationId) -> f64 {
        let key = (self.idx(src), self.idx(dst));
        self.adapters
            .get(&key)
            .map(|a| a.capacity_mbps())
            .unwrap_or(0.0)
    }

    /// Drain delivered packets of a flow.
    pub fn take_delivered(&mut self, flow: usize) -> Vec<WifiDelivered> {
        std::mem::take(&mut self.flows[flow].delivered)
    }

    /// Run until `end`.
    pub fn run_until(&mut self, end: Time) {
        while self.now < end {
            self.step(end);
        }
    }

    fn refill(&mut self) {
        let cap = QUEUE_CAP;
        let now = self.now;
        for fs in &mut self.flows {
            while fs.queue.len() < cap {
                match fs.flow.source.take(now) {
                    Some(p) => fs.queue.push_back(QueuedPkt {
                        seq: p.seq,
                        bytes: p.bytes,
                        created: p.created,
                        retries: 0,
                    }),
                    None => break,
                }
            }
        }
    }

    fn next_arrival(&self) -> Option<Time> {
        self.flows
            .iter()
            .filter(|fs| fs.queue.is_empty())
            .filter_map(|fs| fs.flow.source.next_arrival(self.now))
            .min()
    }

    fn step(&mut self, end: Time) {
        self.metrics.steps.inc();
        self.metrics.events_fired.inc();
        self.refill();
        let contenders: Vec<usize> = (0..self.stations.len())
            .filter(|&i| {
                self.stations[i]
                    .flows
                    .iter()
                    .any(|&f| !self.flows[f].queue.is_empty())
            })
            .collect();
        if contenders.is_empty() {
            let next = self.next_arrival().unwrap_or(end).min(end);
            self.now = next.max(self.now + Duration::from_micros(1));
            return;
        }
        for &i in &contenders {
            if self.stations[i].backoff.is_none() {
                let cw = self.stations[i].cw;
                self.stations[i].backoff =
                    Some((Distributions::uniform(&mut self.rng) * cw as f64) as u32);
            }
        }
        let m = contenders
            .iter()
            .map(|&i| self.stations[i].backoff.expect("set"))
            .min()
            .expect("non-empty");
        self.now += DIFS + SLOT * m as u64;
        let winners: Vec<usize> = contenders
            .iter()
            .copied()
            .filter(|&i| self.stations[i].backoff.expect("set") == m)
            .collect();
        for &i in &contenders {
            if !winners.contains(&i) {
                let b = self.stations[i].backoff.as_mut().expect("set");
                *b -= m;
            }
        }
        if winners.len() == 1 {
            self.transmit(winners[0]);
        } else {
            // Collision: all frames lost, CW doubles.
            self.metrics.collisions.inc();
            self.obs.emit(self.now, "wifi.mac", "collision", || {
                vec![("stations".into(), winners.len().into())]
            });
            let mut max_air = Duration::ZERO;
            for &w in &winners {
                let air = self.peek_airtime(w);
                max_air = max_air.max(air);
                self.stations[w].cw = (self.stations[w].cw * 2).min(CW_MAX);
                self.stations[w].backoff = None;
            }
            self.now += PREAMBLE + max_air + SIFS + BLOCK_ACK;
        }
    }

    fn pick_flow(&mut self, station: usize) -> Option<usize> {
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

    /// Airtime the station's next A-MPDU would occupy (for collision
    /// bookkeeping).
    fn peek_airtime(&self, station: usize) -> Duration {
        let Some(&f) = self.stations[station]
            .flows
            .iter()
            .find(|&&f| !self.flows[f].queue.is_empty())
        else {
            return Duration::ZERO;
        };
        let fs = &self.flows[f];
        let key = (self.idx(fs.flow.src), self.idx(fs.flow.dst));
        let rate = self
            .adapters
            .get(&key)
            .and_then(|a| a.current_mcs())
            .unwrap_or(Mcs(0))
            .phy_rate_mbps();
        let n = fs.queue.len().min(MAX_AMPDU_MPDUS);
        let bits: u64 = fs.queue.iter().take(n).map(|p| p.bytes as u64 * 8).sum();
        Duration::from_micros_f64((bits as f64 / rate).min(MAX_AMPDU_AIRTIME.as_micros_f64()))
    }

    fn transmit(&mut self, station: usize) {
        let Some(f) = self.pick_flow(station) else {
            self.now += SLOT;
            return;
        };
        let (src, dst) = {
            let fs = &self.flows[f];
            (self.idx(fs.flow.src), self.idx(fs.flow.dst))
        };
        let adapter = self.adapters.entry((src, dst)).or_default();
        let Some(mcs) = adapter.current_mcs() else {
            // Below MCS 0: probe at the lowest rate occasionally.
            adapter.observe(
                &mut self.rng,
                self.channels[&Self::pair(src, dst)].snr_db(self.now),
            );
            if adapter.current_mcs().is_some() {
                self.metrics.mcs_transitions.inc();
            }
            self.now += Duration::from_millis(10);
            return;
        };
        let rate = mcs.phy_rate_mbps() * MPDU_EFFICIENCY;
        // Aggregate MPDUs under the airtime cap.
        let max_bits = rate * MAX_AMPDU_AIRTIME.as_micros_f64();
        let mut take = 0usize;
        let mut bits = 0.0;
        for p in self.flows[f].queue.iter().take(MAX_AMPDU_MPDUS) {
            let b = p.bytes as f64 * 8.0;
            if take > 0 && bits + b > max_bits {
                break;
            }
            bits += b;
            take += 1;
        }
        let airtime = Duration::from_micros_f64(bits / rate);
        let snr = self.channels[&Self::pair(src, dst)].snr_db(self.now);
        let p_err = mcs.mpdu_error_prob(snr);
        // Per-MPDU outcomes; lost MPDUs stay at the queue head (BA).
        let mut kept: Vec<QueuedPkt> = Vec::new();
        let mut lost = 0usize;
        let arrival = self.now + PREAMBLE + airtime;
        for _ in 0..take {
            let mut pkt = self.flows[f].queue.pop_front().expect("counted");
            if Distributions::bernoulli(&mut self.rng, p_err) {
                pkt.retries += 1;
                lost += 1;
                kept.push(pkt);
            } else {
                self.flows[f].delivered.push(WifiDelivered {
                    seq: pkt.seq,
                    created: pkt.created,
                    delivered: arrival,
                });
            }
        }
        for pkt in kept.into_iter().rev() {
            self.flows[f].queue.push_front(pkt);
        }
        self.metrics.ampdu_mpdus.record(take as u64);
        // Feedback.
        let adapter = self.adapters.get_mut(&(src, dst)).expect("created");
        adapter.observe(&mut self.rng, snr);
        let loss_frac = lost as f64 / take.max(1) as f64;
        if loss_frac >= LOSS_BURST_FRACTION {
            adapter.on_loss_burst();
            self.metrics.rate_fallbacks.inc();
            self.stations[station].cw = (self.stations[station].cw * 2).min(CW_MAX);
        } else {
            self.stations[station].cw = CW_MIN;
        }
        let after = adapter.current_mcs();
        if after != Some(mcs) {
            self.metrics.mcs_transitions.inc();
            self.obs.emit(self.now, "wifi.rate", "mcs_transition", || {
                vec![
                    ("src".into(), (self.ids[src] as u64).into()),
                    ("dst".into(), (self.ids[dst] as u64).into()),
                    ("from".into(), (mcs.0 as u64).into()),
                    ("to".into(), after.map(|m| m.0 as i64).unwrap_or(-1).into()),
                ]
            });
        }
        self.stations[station].backoff = None;
        self.now += PREAMBLE + airtime + SIFS + BLOCK_ACK;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_at(distance: f64) -> WifiSim {
        let floor = Floor::new(70.0, 40.0);
        WifiSim::new(
            1,
            &floor,
            &[
                (0, Point::new(0.0, 0.0)),
                (1, Point::new(distance, 0.0)),
                (2, Point::new(5.0, 5.0)),
            ],
        )
    }

    #[test]
    fn short_link_reaches_high_udp_throughput() {
        let mut s = sim_at(8.0);
        let f = s.add_flow(WifiFlow {
            src: 0,
            dst: 1,
            source: TrafficSource::iperf_saturated(),
        });
        s.run_until(Time::from_secs(3));
        let n = s.take_delivered(f).len();
        let mbps = n as f64 * 1500.0 * 8.0 / 3.0 / 1e6;
        // The paper's best WiFi links reach ~90+ Mb/s UDP at 130 PHY.
        assert!((60.0..115.0).contains(&mbps), "mbps={mbps}");
    }

    #[test]
    fn long_link_delivers_nothing() {
        let mut s = sim_at(60.0);
        let f = s.add_flow(WifiFlow {
            src: 0,
            dst: 1,
            source: TrafficSource::iperf_saturated(),
        });
        s.run_until(Time::from_secs(2));
        assert_eq!(s.take_delivered(f).len(), 0);
    }

    #[test]
    fn rate_adaptation_settles_high_on_good_link() {
        let mut s = sim_at(6.0);
        let _f = s.add_flow(WifiFlow {
            src: 0,
            dst: 1,
            source: TrafficSource::iperf_saturated(),
        });
        s.run_until(Time::from_secs(1));
        let mcs = s.mcs(0, 1).expect("link is alive");
        assert!(mcs.phy_rate_mbps() >= 104.0, "mcs={mcs:?}");
        assert!(s.capacity_mbps(0, 1) >= 104.0);
    }

    #[test]
    fn contending_stations_share() {
        let mut s = sim_at(10.0);
        let f1 = s.add_flow(WifiFlow {
            src: 0,
            dst: 1,
            source: TrafficSource::iperf_saturated(),
        });
        let f2 = s.add_flow(WifiFlow {
            src: 2,
            dst: 1,
            source: TrafficSource::iperf_saturated(),
        });
        s.run_until(Time::from_secs(2));
        let d1 = s.take_delivered(f1).len() as f64;
        let d2 = s.take_delivered(f2).len() as f64;
        assert!(d1 > 100.0 && d2 > 100.0);
        let ratio = d1.max(d2) / d1.min(d2);
        assert!(ratio < 2.5, "ratio={ratio}");
    }

    #[test]
    fn cbr_flow_is_paced() {
        let mut s = sim_at(10.0);
        let f = s.add_flow(WifiFlow {
            src: 0,
            dst: 1,
            source: TrafficSource::probe_150kbps(),
        });
        s.run_until(Time::from_secs(10));
        let n = s.take_delivered(f).len() as f64;
        let rate = n * 1500.0 * 8.0 / 10.0;
        assert!((rate - 150_000.0).abs() / 150_000.0 < 0.1, "rate={rate}");
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut s = sim_at(12.0);
            let f = s.add_flow(WifiFlow {
                src: 0,
                dst: 1,
                source: TrafficSource::iperf_saturated(),
            });
            s.run_until(Time::from_millis(500));
            s.take_delivered(f).len()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn throughput_variance_exceeds_plc_style_stability() {
        // Sample 100 ms throughput bins over a working-hours window: the
        // std should be a noticeable fraction of the mean (Fig. 3's σ_W).
        let floor = Floor::new(70.0, 40.0);
        let mut s = WifiSim::new(
            1,
            &floor,
            &[(0, Point::new(0.0, 0.0)), (1, Point::new(14.0, 3.0))],
        );
        // Start at weekday 10:00: the idle medium skips to the source's
        // first packet.
        let start = Time::from_hours(10);
        let f = s.add_flow(WifiFlow {
            src: 0,
            dst: 1,
            source: TrafficSource::new(
                simnet::traffic::TrafficPattern::Saturated { pkt_bytes: 1500 },
                start,
            ),
        });
        s.run_until(start + Duration::from_secs(20));
        let delivered = s.take_delivered(f);
        let mut bins = vec![0.0f64; 200];
        for d in &delivered {
            let idx = (d.delivered.saturating_since(start).as_nanos() / 100_000_000) as usize;
            if idx < bins.len() {
                bins[idx] += 1500.0 * 8.0 / 0.1 / 1e6;
            }
        }
        let mean = bins.iter().sum::<f64>() / bins.len() as f64;
        let std = (bins.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / bins.len() as f64).sqrt();
        assert!(mean > 20.0, "mean={mean}");
        assert!(std / mean > 0.05, "cv={}", std / mean);
    }
}
