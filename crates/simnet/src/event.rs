//! A deterministic discrete-event queue.
//!
//! The queue is generic over the event payload `E`; each simulation domain
//! (PLC contention domain, WiFi BSS, probing scheduler, ...) instantiates it
//! with its own event enum. Events scheduled for the same instant are
//! delivered in FIFO order of scheduling, which keeps runs bit-for-bit
//! reproducible regardless of payload contents.

use crate::time::Time;
use electrifi_state::{Persist, PersistValue, SectionReader, SectionWriter, StateError};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Lifetime statistics of an [`EventQueue`]: how much work it has done
/// and how deep its heap has grown. Tracked unconditionally (three
/// integer updates per operation) so observability never changes queue
/// behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventQueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events popped (fired).
    pub fired: u64,
    /// Maximum number of simultaneously pending events.
    pub high_water: u64,
}

/// An event popped from the queue: when it fires and what it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant the event fires.
    pub at: Time,
    /// Monotone sequence number; breaks ties between same-instant events.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event priority queue ordered by firing time, FIFO within an
/// instant.
///
/// ```
/// use simnet::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_millis(5), "b");
/// q.schedule(Time::from_millis(1), "a");
/// q.schedule(Time::from_millis(5), "c");
/// assert_eq!(q.pop().unwrap().event, "a");
/// assert_eq!(q.pop().unwrap().event, "b"); // FIFO within t = 5 ms
/// assert_eq!(q.pop().unwrap().event, "c");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Time,
    stats: EventQueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at `Time::ZERO`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
            stats: EventQueueStats::default(),
        }
    }

    /// Scheduled/fired counts and heap high-water mark so far.
    pub fn stats(&self) -> EventQueueStats {
        self.stats
    }

    /// The current simulation time: the firing time of the most recently
    /// popped event (or `Time::ZERO` before the first pop).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past (before
    /// the clock) is a logic error in the caller and panics in debug builds;
    /// in release builds the event fires immediately (at the current clock).
    pub fn schedule(&mut self, at: Time, event: E) -> u64 {
        debug_assert!(
            at >= self.now,
            "scheduling event in the past: at={at:?} now={:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        self.stats.scheduled += 1;
        self.stats.high_water = self.stats.high_water.max(self.heap.len() as u64);
        seq
    }

    /// Remove and return the earliest event, advancing the clock to its
    /// firing time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop().map(|e| {
            self.now = e.at;
            self.stats.fired += 1;
            ScheduledEvent {
                at: e.at,
                seq: e.seq,
                event: e.event,
            }
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events, keeping the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Checkpointing: the queue serialises its clock, sequence allocator,
/// lifetime stats and every pending entry. Entries are written sorted by
/// `(at, seq)` — the heap's internal `Vec` order is not canonical — so
/// encode→decode→encode is byte-identical, and original sequence numbers
/// are preserved so FIFO-within-instant ordering survives a resume.
impl<E: PersistValue> Persist for EventQueue<E> {
    fn save_state(&self, w: &mut SectionWriter) {
        w.put_u64(self.now.as_nanos());
        w.put_u64(self.next_seq);
        w.put_u64(self.stats.scheduled);
        w.put_u64(self.stats.fired);
        w.put_u64(self.stats.high_water);
        let mut entries: Vec<&Entry<E>> = self.heap.iter().collect();
        entries.sort_by_key(|e| (e.at, e.seq));
        w.put_u64(entries.len() as u64);
        for e in entries {
            w.put_u64(e.at.as_nanos());
            w.put_u64(e.seq);
            e.event.encode(w);
        }
    }

    fn load_state(&mut self, r: &mut SectionReader<'_>) -> Result<(), StateError> {
        self.now = Time(r.get_u64()?);
        self.next_seq = r.get_u64()?;
        self.stats = EventQueueStats {
            scheduled: r.get_u64()?,
            fired: r.get_u64()?,
            high_water: r.get_u64()?,
        };
        let len = r.get_u64()?;
        self.heap.clear();
        for _ in 0..len {
            let at = Time(r.get_u64()?);
            let seq = r.get_u64()?;
            if seq >= self.next_seq {
                return Err(r.malformed(format!(
                    "pending event seq {seq} >= next_seq {}",
                    self.next_seq
                )));
            }
            let event = E::decode(r)?;
            self.heap.push(Entry { at, seq, event });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(30), 3);
        q.schedule(Time::from_millis(10), 1);
        q.schedule(Time::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = Time::from_micros(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(2), ());
        q.schedule(Time::from_secs(1), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_secs(1));
        q.pop();
        assert_eq!(q.now(), Time::from_secs(2));
    }

    #[test]
    fn interleaved_scheduling_stays_deterministic() {
        // Schedule from "two components" at interleaved times and check the
        // total order is reproducible.
        let run = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            q.schedule(Time::from_millis(1), (0, 0));
            q.schedule(Time::from_millis(1), (1, 0));
            while let Some(ev) = q.pop() {
                out.push(ev.event);
                let (comp, n) = ev.event;
                if n < 5 {
                    // Both components reschedule at the same future instant.
                    q.schedule(ev.at + Duration::from_millis(1), (comp, n + 1));
                }
            }
            out
        };
        assert_eq!(run(), run());
        let first = run();
        // Component 0 scheduled first at every instant, so it always fires
        // first within the instant.
        for pair in first.chunks(2) {
            assert_eq!(pair[0].0, 0);
            assert_eq!(pair[1].0, 1);
        }
    }

    #[test]
    fn stats_track_work_and_high_water() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(1), ());
        q.schedule(Time::from_secs(2), ());
        q.schedule(Time::from_secs(3), ());
        q.pop();
        q.pop();
        q.schedule(Time::from_secs(4), ());
        let s = q.stats();
        assert_eq!(s.scheduled, 4);
        assert_eq!(s.fired, 2);
        assert_eq!(s.high_water, 3);
    }

    #[test]
    fn persist_roundtrip_preserves_order_and_bytes() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(5), 50u64);
        q.schedule(Time::from_millis(1), 10u64);
        q.schedule(Time::from_millis(5), 51u64);
        q.pop(); // fire the t=1 event so now/stats are nontrivial

        let mut w = SectionWriter::new();
        q.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored: EventQueue<u64> = EventQueue::new();
        let mut r = SectionReader::new("q", &bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();

        // encode(decode(encode(q))) is byte-identical.
        let mut w2 = SectionWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        assert_eq!(restored.now(), q.now());
        assert_eq!(restored.stats(), q.stats());
        // FIFO within the instant survives: 50 was scheduled before 51.
        assert_eq!(restored.pop().unwrap().event, 50);
        assert_eq!(restored.pop().unwrap().event, 51);
        // A freshly scheduled event continues the seq allocation.
        let seq = restored.schedule(Time::from_millis(9), 90);
        assert_eq!(seq, 3);
    }

    #[test]
    fn persist_rejects_seq_beyond_allocator() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(1), 1u64);
        let mut w = SectionWriter::new();
        q.save_state(&mut w);
        let mut bytes = w.into_bytes();
        // Corrupt the pending entry's seq (the 6th u64: now, next_seq,
        // 3×stats, len, then at, seq) to exceed next_seq.
        let off = 8 * 7;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut restored: EventQueue<u64> = EventQueue::new();
        let mut r = SectionReader::new("q", &bytes);
        match restored.load_state(&mut r) {
            Err(StateError::Malformed { section, .. }) => assert_eq!(section, "q"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(1), ());
        q.pop();
        q.schedule(Time::from_secs(3), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), Time::from_secs(1));
    }
}
