//! Physical blocks and two-level frame aggregation.
//!
//! Ethernet packets are segmented into **physical blocks** of 512 payload
//! bytes (plus an 8-byte PB header, 520 B on the wire); PBs are merged
//! into PLC frames; a selective acknowledgment reports per-PB success so
//! only corrupted PBs are retransmitted (paper §2.2, Fig. 1).

use serde::{Deserialize, Serialize};
use simnet::time::Time;

/// Payload bytes carried by one PB.
pub const PB_PAYLOAD_BYTES: u32 = 512;
/// On-the-wire bytes of one PB (payload + header).
pub const PB_WIRE_BYTES: u32 = 520;
/// On-the-wire bits of one PB.
pub const PB_WIRE_BITS: u64 = PB_WIRE_BYTES as u64 * 8;

/// Number of PBs needed to carry a packet of `bytes` payload bytes.
/// A 1500-byte Ethernet packet produces 3 PBs (paper §8.1); PLC always
/// transmits at least one PB, padding short packets (paper footnote 9).
pub fn pbs_for_packet(bytes: u32) -> u32 {
    bytes.div_ceil(PB_PAYLOAD_BYTES).max(1)
}

/// One physical block queued for transmission, tagged with the packet it
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueuedPb {
    /// Flow-scoped packet sequence number this PB carries a piece of.
    pub packet_seq: u64,
    /// Index of this PB within the packet (0-based).
    pub index: u32,
    /// Total PBs of the packet.
    pub of: u32,
    /// Creation time of the parent packet (for delay accounting).
    pub created: Time,
}

impl QueuedPb {
    /// Segment a packet into its PBs, yielding them without allocating —
    /// the MAC hot loop pushes these straight into its ring queue.
    pub fn segments(packet_seq: u64, bytes: u32, created: Time) -> impl Iterator<Item = QueuedPb> {
        let n = pbs_for_packet(bytes);
        (0..n).map(move |index| QueuedPb {
            packet_seq,
            index,
            of: n,
            created,
        })
    }

    /// Segment a packet into its PBs.
    pub fn segment(packet_seq: u64, bytes: u32, created: Time) -> Vec<QueuedPb> {
        Self::segments(packet_seq, bytes, created).collect()
    }
}

/// Which PBs of a pending packet have arrived. Packets are at most a few
/// PBs (1500 B → 3), so the common case is a single `u64` mask; packets
/// larger than 64 PBs (not produced by any paper workload, but the API
/// allows them) fall back to a boolean vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum PbBitmap {
    /// Bit `i` set ⇔ PB `i` received (packets of ≤ 64 PBs).
    Small(u64),
    /// One flag per PB (packets of > 64 PBs).
    Large(Vec<bool>),
}

impl PbBitmap {
    fn new(of: u32) -> Self {
        if of <= 64 {
            PbBitmap::Small(0)
        } else {
            PbBitmap::Large(vec![false; of as usize])
        }
    }

    /// Mark PB `index` received. Out-of-range indices are ignored, like
    /// the out-of-range `get_mut` of the vector representation.
    fn set(&mut self, index: u32, of: u32) {
        match self {
            PbBitmap::Small(m) => {
                if index < of.min(64) {
                    *m |= 1u64 << index;
                }
            }
            PbBitmap::Large(v) => {
                if let Some(slot) = v.get_mut(index as usize) {
                    *slot = true;
                }
            }
        }
    }

    fn or_mask(&mut self, mask: u64, of: u32) {
        match self {
            PbBitmap::Small(m) => *m |= mask & Self::full_mask(of),
            PbBitmap::Large(v) => {
                for i in 0..64u32 {
                    if mask & (1u64 << i) != 0 {
                        if let Some(slot) = v.get_mut(i as usize) {
                            *slot = true;
                        }
                    }
                }
            }
        }
    }

    fn full_mask(of: u32) -> u64 {
        if of >= 64 {
            u64::MAX
        } else {
            (1u64 << of) - 1
        }
    }

    fn complete(&self, of: u32) -> bool {
        match self {
            PbBitmap::Small(m) => *m == Self::full_mask(of.max(1)),
            PbBitmap::Large(v) => v.iter().all(|r| *r),
        }
    }
}

/// Receiver-side packet reassembly: tracks which PBs of each packet have
/// arrived and reports completed packets.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Reassembler {
    /// packet_seq -> (received bitmap, total, created)
    pending: std::collections::HashMap<u64, (PbBitmap, u32, Time)>,
    completed: Vec<CompletedPacket>,
}

/// A packet fully received.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletedPacket {
    /// Flow-scoped sequence number.
    pub seq: u64,
    /// When the source created it.
    pub created: Time,
    /// When the last PB arrived.
    pub delivered: Time,
}

impl Reassembler {
    /// Fresh reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve capacity for `pkts` in-flight and completed packets, so a
    /// record-high burst can't trigger a capacity regrowth mid-run (see
    /// `PlcSim::reserve_flow_buffers`).
    pub fn reserve(&mut self, pkts: usize) {
        self.pending.reserve(pkts);
        self.completed.reserve(pkts);
    }

    /// A PB arrived intact at time `now`.
    pub fn accept(&mut self, pb: QueuedPb, now: Time) {
        let entry = self
            .pending
            .entry(pb.packet_seq)
            .or_insert_with(|| (PbBitmap::new(pb.of), pb.of, pb.created));
        entry.0.set(pb.index, entry.1);
        if entry.0.complete(entry.1) {
            let (_, _, created) = self.pending.remove(&pb.packet_seq).expect("just inserted");
            self.completed.push(CompletedPacket {
                seq: pb.packet_seq,
                created,
                delivered: now,
            });
        }
    }

    /// A contiguous run of PBs of one packet arrived intact at `now`:
    /// `mask` has bit `i` set for each received PB index `i`. One hash
    /// lookup instead of one per PB — the hot MAC receive path groups the
    /// (queue-ordered, hence packet-contiguous) PBs of a frame into runs.
    /// Equivalent to calling [`accept`](Self::accept) for every set bit in
    /// index order. Only valid for packets of ≤ 64 PBs.
    pub fn accept_run(&mut self, packet_seq: u64, of: u32, created: Time, mask: u64, now: Time) {
        debug_assert!(of <= 64, "accept_run is only for small packets");
        let entry = self
            .pending
            .entry(packet_seq)
            .or_insert_with(|| (PbBitmap::new(of), of, created));
        entry.0.or_mask(mask, entry.1);
        if entry.0.complete(entry.1) {
            let (_, _, created) = self.pending.remove(&packet_seq).expect("just inserted");
            self.completed.push(CompletedPacket {
                seq: packet_seq,
                created,
                delivered: now,
            });
        }
    }

    /// Drain packets completed so far (in completion order).
    pub fn take_completed(&mut self) -> Vec<CompletedPacket> {
        std::mem::take(&mut self.completed)
    }

    /// Drain completed packets through a callback (in completion order),
    /// keeping the internal buffer's allocation — the heap-free
    /// counterpart of [`take_completed`](Self::take_completed).
    pub fn drain_completed_with(&mut self, mut f: impl FnMut(CompletedPacket)) {
        for p in self.completed.drain(..) {
            f(p);
        }
    }

    /// Packets still missing PBs.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pb_count_matches_paper_examples() {
        assert_eq!(pbs_for_packet(1500), 3); // §8.1: 1500 B => 3 PBs
        assert_eq!(pbs_for_packet(1300), 3);
        assert_eq!(pbs_for_packet(1024), 2);
        assert_eq!(pbs_for_packet(512), 1);
        assert_eq!(pbs_for_packet(200), 1); // sub-PB probes still send 1 PB
        assert_eq!(pbs_for_packet(0), 1);
    }

    #[test]
    fn segmentation_produces_indexed_pbs() {
        let pbs = QueuedPb::segment(7, 1500, Time::from_millis(3));
        assert_eq!(pbs.len(), 3);
        for (i, pb) in pbs.iter().enumerate() {
            assert_eq!(pb.index as usize, i);
            assert_eq!(pb.of, 3);
            assert_eq!(pb.packet_seq, 7);
        }
    }

    #[test]
    fn reassembly_completes_when_all_pbs_arrive() {
        let mut r = Reassembler::new();
        let pbs = QueuedPb::segment(1, 1500, Time::ZERO);
        r.accept(pbs[0], Time::from_millis(1));
        r.accept(pbs[2], Time::from_millis(2));
        assert!(r.take_completed().is_empty());
        assert_eq!(r.pending_count(), 1);
        r.accept(pbs[1], Time::from_millis(9));
        let done = r.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].seq, 1);
        assert_eq!(done[0].delivered, Time::from_millis(9));
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn duplicate_pbs_are_harmless() {
        let mut r = Reassembler::new();
        let pbs = QueuedPb::segment(2, 512, Time::ZERO);
        r.accept(pbs[0], Time::from_millis(1));
        // Retransmission of an already-received PB (SACK raced): ignore.
        assert_eq!(r.take_completed().len(), 1);
        r.accept(pbs[0], Time::from_millis(2));
        // Re-accepting re-opens nothing permanent; completing again is a
        // duplicate delivery which the caller may filter by seq.
        assert_eq!(r.take_completed().len(), 1);
    }

    #[test]
    fn segments_iterator_matches_segment() {
        for bytes in [0u32, 200, 512, 1024, 1300, 1500, 9000] {
            let it: Vec<QueuedPb> = QueuedPb::segments(9, bytes, Time::from_millis(5)).collect();
            assert_eq!(it, QueuedPb::segment(9, bytes, Time::from_millis(5)));
        }
    }

    #[test]
    fn accept_run_equals_per_pb_accepts() {
        let pbs = QueuedPb::segment(4, 1500, Time::from_millis(1));
        let mut a = Reassembler::new();
        let mut b = Reassembler::new();
        // PBs 0 and 2 in one frame, PB 1 retransmitted later.
        a.accept(pbs[0], Time::from_millis(2));
        a.accept(pbs[2], Time::from_millis(2));
        b.accept_run(4, 3, Time::from_millis(1), 0b101, Time::from_millis(2));
        assert_eq!(a.pending_count(), b.pending_count());
        a.accept(pbs[1], Time::from_millis(3));
        b.accept_run(4, 3, Time::from_millis(1), 0b010, Time::from_millis(3));
        assert_eq!(a.take_completed(), b.take_completed());
    }

    #[test]
    fn drain_completed_with_keeps_order_and_empties() {
        let mut r = Reassembler::new();
        for seq in 0..5u64 {
            for pb in QueuedPb::segment(seq, 512, Time::ZERO) {
                r.accept(pb, Time::from_millis(seq));
            }
        }
        let mut seen = Vec::new();
        r.drain_completed_with(|p| seen.push(p.seq));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert!(r.take_completed().is_empty());
    }

    #[test]
    fn oversized_packets_use_the_large_bitmap() {
        // 40 kB → 79 PBs: exceeds the u64 mask, exercising the fallback.
        let pbs = QueuedPb::segment(1, 40_000, Time::ZERO);
        assert!(pbs.len() > 64);
        let mut r = Reassembler::new();
        for pb in &pbs {
            r.accept(*pb, Time::from_millis(7));
        }
        let done = r.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].delivered, Time::from_millis(7));
    }

    #[test]
    fn interleaved_packets_complete_independently() {
        let mut r = Reassembler::new();
        let a = QueuedPb::segment(10, 1024, Time::ZERO);
        let b = QueuedPb::segment(11, 1024, Time::ZERO);
        r.accept(a[0], Time::from_millis(1));
        r.accept(b[0], Time::from_millis(1));
        r.accept(b[1], Time::from_millis(2));
        let done = r.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].seq, 11);
        r.accept(a[1], Time::from_millis(3));
        assert_eq!(r.take_completed()[0].seq, 10);
    }
}
