//! Traffic generators mirroring the paper's workloads.
//!
//! The measurement study uses a handful of traffic shapes, all reproduced
//! here:
//!
//! * **saturated UDP** (`iperf`-style, link always has a frame to send) —
//!   throughput experiments (§4, §5, Fig. 3/6/7),
//! * **CBR probes** at a fixed packet rate and size — the capacity
//!   estimation study (§7, Fig. 16-18) and the 150 kb/s "probe traffic"
//!   of §8,
//! * **probe bursts** — the §8.2 fix (bursts of 20 packets at the same
//!   average rate),
//! * **file transfer** — the 600 MB download completion-time comparison
//!   (Fig. 20),
//! * **Poisson arrivals** — background traffic with natural jitter.

use crate::time::{Duration, Time};
use serde::{Deserialize, Serialize};

/// A packet handed to a MAC layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Flow-scoped sequence number (also plays the role of the IP
    /// identification field used by the reordering algorithm of §7.4).
    pub seq: u64,
    /// Payload size in bytes (Ethernet payload, as in the paper's 1500 B /
    /// 1300 B / 520 B probes).
    pub bytes: u32,
    /// Creation timestamp.
    pub created: Time,
}

/// Shape of a traffic source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Always backlogged: the source offers a packet whenever the MAC can
    /// take one. `pkt_bytes` is the packet size.
    Saturated {
        /// Packet size in bytes.
        pkt_bytes: u32,
    },
    /// Constant bit rate: packets of `pkt_bytes` spaced to achieve
    /// `rate_bps` bits per second.
    Cbr {
        /// Target rate in bits per second.
        rate_bps: f64,
        /// Packet size in bytes.
        pkt_bytes: u32,
    },
    /// Bursts of `burst_len` back-to-back packets, with bursts spaced so
    /// the long-run average rate is `rate_bps`.
    Bursts {
        /// Long-run average rate in bits per second.
        rate_bps: f64,
        /// Packet size in bytes.
        pkt_bytes: u32,
        /// Packets per burst.
        burst_len: u32,
    },
    /// Transfer `total_bytes` as fast as the link allows, then stop.
    FileTransfer {
        /// Total bytes to move.
        total_bytes: u64,
        /// Packet size in bytes.
        pkt_bytes: u32,
    },
}

/// A stateful traffic source.
///
/// `next_arrival(now)` returns the time the next packet becomes available
/// (for saturated sources that is `now`), and `take(now)` consumes it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficSource {
    pattern: TrafficPattern,
    next_seq: u64,
    next_at: Time,
    sent_bytes: u64,
    in_burst: u32,
}

impl TrafficSource {
    /// Create a source that starts emitting at `start`.
    pub fn new(pattern: TrafficPattern, start: Time) -> Self {
        TrafficSource {
            pattern,
            next_seq: 0,
            next_at: start,
            sent_bytes: 0,
            in_burst: 0,
        }
    }

    /// The pattern this source follows.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// When the next packet is available, or `None` if the source is done
    /// (file fully sent).
    pub fn next_arrival(&self, now: Time) -> Option<Time> {
        match self.pattern {
            TrafficPattern::Saturated { .. } => Some(now.max(self.next_at)),
            TrafficPattern::FileTransfer { total_bytes, .. } => {
                if self.sent_bytes >= total_bytes {
                    None
                } else {
                    Some(now.max(self.next_at))
                }
            }
            _ => Some(self.next_at),
        }
    }

    /// Packet size this source emits (every pattern uses a fixed size).
    /// Lets a MAC peek the next packet's footprint for backpressure
    /// without consuming it.
    pub fn pkt_bytes(&self) -> u32 {
        match self.pattern {
            TrafficPattern::Saturated { pkt_bytes }
            | TrafficPattern::Cbr { pkt_bytes, .. }
            | TrafficPattern::Bursts { pkt_bytes, .. }
            | TrafficPattern::FileTransfer { pkt_bytes, .. } => pkt_bytes,
        }
    }

    /// Whether `next_arrival` is independent of the `now` it is asked at
    /// (until the next [`take`](Self::take)). True for paced sources (CBR,
    /// bursts: the release clock `next_at` alone decides) and for finished
    /// file transfers (`None` forever); false for saturated and unfinished
    /// file-transfer sources, whose arrival is `now` itself. A MAC may
    /// cache the minimum arrival across static sources and skip re-scanning
    /// flows on every idle step — the cache only needs invalidating when a
    /// packet is actually taken.
    pub fn arrival_is_static(&self) -> bool {
        match self.pattern {
            TrafficPattern::Saturated { .. } => false,
            TrafficPattern::FileTransfer { total_bytes, .. } => self.sent_bytes >= total_bytes,
            TrafficPattern::Cbr { .. } | TrafficPattern::Bursts { .. } => true,
        }
    }

    /// Is a packet available right now?
    pub fn ready(&self, now: Time) -> bool {
        self.next_arrival(now).is_some_and(|t| t <= now)
    }

    /// Consume the next packet. Returns `None` when no packet is available
    /// at `now` (not yet due, or the file is finished).
    pub fn take(&mut self, now: Time) -> Option<Packet> {
        if !self.ready(now) {
            return None;
        }
        let pkt_bytes = match self.pattern {
            TrafficPattern::Saturated { pkt_bytes }
            | TrafficPattern::Cbr { pkt_bytes, .. }
            | TrafficPattern::Bursts { pkt_bytes, .. }
            | TrafficPattern::FileTransfer { pkt_bytes, .. } => pkt_bytes,
        };
        let pkt = Packet {
            seq: self.next_seq,
            bytes: pkt_bytes,
            created: now,
        };
        self.next_seq += 1;
        self.sent_bytes += pkt_bytes as u64;
        // Advance the release clock.
        match self.pattern {
            TrafficPattern::Saturated { .. } | TrafficPattern::FileTransfer { .. } => {
                self.next_at = now;
            }
            TrafficPattern::Cbr {
                rate_bps,
                pkt_bytes,
            } => {
                // Pure pacing: the release clock advances by one gap per
                // packet without snapping to `now`, so a source that was
                // starved by a busy medium catches up afterwards (iperf
                // UDP semantics).
                let gap = Duration::from_secs_f64(pkt_bytes as f64 * 8.0 / rate_bps);
                self.next_at += gap;
            }
            TrafficPattern::Bursts {
                rate_bps,
                pkt_bytes,
                burst_len,
            } => {
                self.in_burst += 1;
                if self.in_burst >= burst_len {
                    self.in_burst = 0;
                    // Next burst starts after the inter-burst gap that keeps
                    // the average rate: burst_len packets per gap.
                    let gap = Duration::from_secs_f64(
                        burst_len as f64 * pkt_bytes as f64 * 8.0 / rate_bps,
                    );
                    self.next_at = self.next_at.max(now) + gap;
                } else {
                    self.next_at = now; // back-to-back within the burst
                }
            }
        }
        Some(pkt)
    }

    /// For file transfers: has everything been sent?
    pub fn finished(&self) -> bool {
        match self.pattern {
            TrafficPattern::FileTransfer { total_bytes, .. } => self.sent_bytes >= total_bytes,
            _ => false,
        }
    }
}

/// Convenience constructors matching the paper's named workloads.
impl TrafficSource {
    /// Saturated UDP with 1500-byte packets starting at t = 0 (the default
    /// `iperf` workload of the paper).
    pub fn iperf_saturated() -> Self {
        TrafficSource::new(TrafficPattern::Saturated { pkt_bytes: 1500 }, Time::ZERO)
    }

    /// The §8 low-rate probe traffic: 1500 B packets at 150 kb/s (one
    /// packet every ~80 ms; the paper rounds to "approximately every
    /// 75 ms").
    pub fn probe_150kbps() -> Self {
        TrafficSource::new(
            TrafficPattern::Cbr {
                rate_bps: 150_000.0,
                pkt_bytes: 1500,
            },
            Time::ZERO,
        )
    }

    /// The §8.2 burst fix: bursts of 20 × 1500 B packets, 150 kb/s average.
    pub fn probe_bursts_150kbps() -> Self {
        TrafficSource::new(
            TrafficPattern::Bursts {
                rate_bps: 150_000.0,
                pkt_bytes: 1500,
                burst_len: 20,
            },
            Time::ZERO,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturated_is_always_ready() {
        let mut s = TrafficSource::iperf_saturated();
        for i in 0..10 {
            let t = Time::from_millis(i);
            assert!(s.ready(t));
            let p = s.take(t).unwrap();
            assert_eq!(p.seq, i);
            assert_eq!(p.bytes, 1500);
        }
    }

    #[test]
    fn cbr_spacing_matches_rate() {
        // 150 kb/s with 1500 B packets => one packet per 80 ms.
        let mut s = TrafficSource::probe_150kbps();
        let p0 = s.take(Time::ZERO).unwrap();
        assert_eq!(p0.seq, 0);
        assert!(!s.ready(Time::from_millis(79)));
        assert!(s.take(Time::from_millis(79)).is_none());
        assert!(s.ready(Time::from_millis(80)));
        s.take(Time::from_millis(80)).unwrap();
        assert_eq!(
            s.next_arrival(Time::from_millis(80)),
            Some(Time::from_millis(160))
        );
    }

    #[test]
    fn cbr_long_run_rate() {
        let mut s = TrafficSource::new(
            TrafficPattern::Cbr {
                rate_bps: 1_000_000.0,
                pkt_bytes: 1250,
            },
            Time::ZERO,
        );
        // 1 Mb/s at 10 kb per packet => 100 packets/s.
        let mut t = Time::ZERO;
        let horizon = Time::from_secs(10);
        let mut count = 0u64;
        while let Some(at) = s.next_arrival(t) {
            if at > horizon {
                break;
            }
            t = at;
            s.take(t).unwrap();
            count += 1;
        }
        assert!((count as i64 - 1000).abs() <= 1, "count={count}");
    }

    #[test]
    fn bursts_are_back_to_back_then_gap() {
        let mut s = TrafficSource::probe_bursts_150kbps();
        let t0 = Time::ZERO;
        // 20 packets immediately available.
        for _ in 0..20 {
            assert!(s.ready(t0));
            s.take(t0).unwrap();
        }
        // Then a gap of 20 * 1500 * 8 / 150000 = 1.6 s.
        assert!(!s.ready(t0));
        assert_eq!(s.next_arrival(t0), Some(Time::from_millis(1600)));
        assert!(s.ready(Time::from_millis(1600)));
    }

    #[test]
    fn burst_average_rate_matches_cbr() {
        let mut s = TrafficSource::probe_bursts_150kbps();
        let mut t = Time::ZERO;
        let horizon = Time::from_secs(16);
        let mut bytes = 0u64;
        while let Some(at) = s.next_arrival(t) {
            if at >= horizon {
                break;
            }
            t = at;
            bytes += s.take(t).unwrap().bytes as u64;
        }
        let rate = bytes as f64 * 8.0 / 16.0;
        assert!((rate - 150_000.0).abs() / 150_000.0 < 0.05, "rate={rate}");
    }

    #[test]
    fn file_transfer_finishes() {
        let mut s = TrafficSource::new(
            TrafficPattern::FileTransfer {
                total_bytes: 4_500,
                pkt_bytes: 1500,
            },
            Time::ZERO,
        );
        let t = Time::ZERO;
        assert!(s.take(t).is_some());
        assert!(s.take(t).is_some());
        assert!(!s.finished());
        assert!(s.take(t).is_some());
        assert!(s.finished());
        assert!(s.take(t).is_none());
        assert!(s.next_arrival(t).is_none());
    }

    #[test]
    fn arrival_staticness_matches_patterns() {
        assert!(!TrafficSource::iperf_saturated().arrival_is_static());
        assert!(TrafficSource::probe_150kbps().arrival_is_static());
        assert!(TrafficSource::probe_bursts_150kbps().arrival_is_static());
        // A file transfer becomes static (None forever) once done.
        let mut ft = TrafficSource::new(
            TrafficPattern::FileTransfer {
                total_bytes: 1500,
                pkt_bytes: 1500,
            },
            Time::ZERO,
        );
        assert!(!ft.arrival_is_static());
        ft.take(Time::ZERO).unwrap();
        assert!(ft.arrival_is_static());
        // Static sources really do report the same arrival for any `now`
        // before the release time.
        let mut cbr = TrafficSource::probe_150kbps();
        cbr.take(Time::ZERO).unwrap();
        let a = cbr.next_arrival(Time::from_millis(1));
        let b = cbr.next_arrival(Time::from_millis(79));
        assert_eq!(a, b);
    }

    #[test]
    fn pkt_bytes_peeks_without_consuming() {
        let mut s = TrafficSource::iperf_saturated();
        assert_eq!(s.pkt_bytes(), 1500);
        assert_eq!(s.take(Time::ZERO).unwrap().seq, 0);
    }

    #[test]
    fn sequence_numbers_are_contiguous() {
        let mut s = TrafficSource::iperf_saturated();
        for expect in 0..100 {
            assert_eq!(s.take(Time::ZERO).unwrap().seq, expect);
        }
    }
}
