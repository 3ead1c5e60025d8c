//! Per-job live event hub: a bounded broadcast ring with drop-counted
//! backpressure.
//!
//! Publishers (workers, the finalizer, the cancel handler) append JSON
//! lines; each `/events` subscriber reads through its own cursor. The
//! ring is **bounded**: when a slow subscriber falls behind by more than
//! the ring capacity, the lines it missed are gone and its next batch
//! reports the gap — the simulation side never blocks on a subscriber
//! (the same inertness rule `ChannelSink` enforces one layer down).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Recover from a poisoned mutex: hub state is a ring of owned lines,
/// structurally valid after any panic mid-publish.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug)]
struct HubInner {
    /// `(seq, line)` pairs; seq is dense and strictly increasing.
    /// Lines are stored at their exact length: a server keeps every
    /// ended job's ring for late subscribers.
    buf: VecDeque<(u64, Arc<str>)>,
    next_seq: u64,
    cap: usize,
    dropped: u64,
    closed: bool,
}

/// A bounded, broadcast event ring for one job.
#[derive(Debug)]
pub struct EventHub {
    inner: Mutex<HubInner>,
    cond: Condvar,
}

/// One subscriber's read position into an [`EventHub`].
#[derive(Debug)]
pub struct Subscription {
    hub: Arc<EventHub>,
    cursor: u64,
}

/// What a subscriber got out of one wait.
#[derive(Debug)]
pub enum Batch {
    /// New lines, plus how many lines this subscriber missed (evicted
    /// before it caught up) since the previous batch.
    Lines {
        /// The lines, oldest first.
        lines: Vec<Arc<str>>,
        /// Lines lost to ring eviction for this subscriber.
        gap: u64,
    },
    /// Nothing new within the timeout; the stream is still live.
    TimedOut,
    /// The hub is closed and this subscriber has read everything.
    Closed,
}

impl EventHub {
    /// Hub retaining at most `cap` lines.
    pub fn new(cap: usize) -> Self {
        EventHub {
            inner: Mutex::new(HubInner {
                buf: VecDeque::new(),
                next_seq: 0,
                cap: cap.max(1),
                dropped: 0,
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Append one line, evicting the oldest when full. Returns the
    /// number of lines evicted (0 or 1) so the caller can count drops.
    pub fn publish(&self, line: String) -> u64 {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return 0;
        }
        let mut evicted = 0;
        if inner.buf.len() == inner.cap {
            inner.buf.pop_front();
            inner.dropped += 1;
            evicted = 1;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.buf.push_back((seq, Arc::from(line)));
        drop(inner);
        self.cond.notify_all();
        evicted
    }

    /// Close the hub: existing lines stay readable, new publishes are
    /// ignored, and drained subscribers see [`Batch::Closed`].
    pub fn close(&self) {
        let mut inner = lock(&self.inner);
        inner.closed = true;
        inner.buf.shrink_to_fit();
        drop(inner);
        self.cond.notify_all();
    }

    /// Total lines evicted at the ring cap (all subscribers' gaps are
    /// bounded by this).
    pub fn dropped(&self) -> u64 {
        lock(&self.inner).dropped
    }

    /// A new subscriber starting at the **oldest retained** line.
    pub fn subscribe(self: &Arc<Self>) -> Subscription {
        let inner = lock(&self.inner);
        let cursor = inner.buf.front().map_or(inner.next_seq, |(s, _)| *s);
        Subscription {
            hub: Arc::clone(self),
            cursor,
        }
    }
}

impl Subscription {
    /// Wait up to `timeout` for lines past the cursor; return at most
    /// `max` of them.
    pub fn next_batch(&mut self, max: usize, timeout: Duration) -> Batch {
        let mut inner = lock(&self.hub.inner);
        loop {
            if inner.next_seq > self.cursor {
                let first_retained = inner.buf.front().map_or(inner.next_seq, |(s, _)| *s);
                let gap = first_retained.saturating_sub(self.cursor);
                if gap > 0 {
                    self.cursor = first_retained;
                }
                let lines: Vec<Arc<str>> = inner
                    .buf
                    .iter()
                    .skip_while(|(s, _)| *s < self.cursor)
                    .take(max)
                    .map(|(_, l)| Arc::clone(l))
                    .collect();
                self.cursor += lines.len() as u64;
                return Batch::Lines { lines, gap };
            }
            if inner.closed {
                return Batch::Closed;
            }
            let (guard, wait) = self
                .hub
                .cond
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            if wait.timed_out() && inner.next_seq <= self.cursor && !inner.closed {
                return Batch::TimedOut;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(sub: &mut Subscription) -> (Vec<String>, u64) {
        let mut out = Vec::new();
        let mut gaps = 0;
        loop {
            match sub.next_batch(64, Duration::from_millis(10)) {
                Batch::Lines { lines, gap } => {
                    gaps += gap;
                    out.extend(lines.iter().map(|l| l.to_string()));
                }
                Batch::TimedOut | Batch::Closed => return (out, gaps),
            }
        }
    }

    #[test]
    fn subscriber_sees_lines_in_order_then_close() {
        let hub = Arc::new(EventHub::new(8));
        let mut sub = hub.subscribe();
        hub.publish("a".into());
        hub.publish("b".into());
        let (lines, gaps) = drain(&mut sub);
        assert_eq!(lines, vec!["a", "b"]);
        assert_eq!(gaps, 0);
        hub.close();
        assert!(matches!(
            sub.next_batch(64, Duration::from_millis(10)),
            Batch::Closed
        ));
    }

    #[test]
    fn slow_subscriber_gets_a_gap_not_a_block() {
        let hub = Arc::new(EventHub::new(2));
        let mut sub = hub.subscribe();
        for i in 0..5 {
            assert!(hub.publish(format!("l{i}")) <= 1);
        }
        let (lines, gaps) = drain(&mut sub);
        // Ring of 2 kept only the newest two; three were evicted.
        assert_eq!(lines, vec!["l3", "l4"]);
        assert_eq!(gaps, 3);
        assert_eq!(hub.dropped(), 3);
    }

    #[test]
    fn late_subscriber_starts_at_oldest_retained() {
        let hub = Arc::new(EventHub::new(2));
        hub.publish("x".into());
        hub.publish("y".into());
        hub.publish("z".into());
        let mut sub = hub.subscribe();
        let (lines, gaps) = drain(&mut sub);
        assert_eq!(lines, vec!["y", "z"]);
        assert_eq!(gaps, 0, "lines evicted before subscribing are not a gap");
    }

    #[test]
    fn waiting_subscriber_is_woken_by_publish() {
        let hub = Arc::new(EventHub::new(8));
        let mut sub = hub.subscribe();
        let publisher = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                hub.publish("wake".into());
            })
        };
        match sub.next_batch(64, Duration::from_secs(5)) {
            Batch::Lines { lines, .. } => assert_eq!(&*lines[0], "wake"),
            other => panic!("expected lines, got {other:?}"),
        }
        publisher.join().unwrap();
    }
}
