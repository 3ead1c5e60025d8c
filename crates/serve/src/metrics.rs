//! Server-side metrics, snapshottable into the workspace's standard
//! [`MetricsSnapshot`] JSON.
//!
//! The `simnet::obs` registry is deliberately single-threaded
//! (`Rc`-based, matching the simulation's ownership model), so the
//! multi-threaded control plane keeps its own atomic counters here and
//! **snapshots** them into the exact same serde shape every manifest
//! uses — the `report` bin deserializes `server.metrics.json` into the
//! same `MetricsSnapshot` it reads run manifests' metrics with.

use simnet::obs::MetricsSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! serve_metrics {
    ($($field:ident => $name:literal),* $(,)?) => {
        /// Atomic counters for every serve subsystem. Field = counter;
        /// increment with [`ServeMetrics::inc`]/[`ServeMetrics::add`].
        #[derive(Debug, Default)]
        pub struct ServeMetrics {
            $(
                #[doc = concat!("`", $name, "`")]
                pub $field: AtomicU64,
            )*
        }

        impl ServeMetrics {
            /// Fresh, all-zero metrics.
            pub fn new() -> Self {
                Self::default()
            }

            fn counters(&self) -> Vec<(String, u64)> {
                // Name-sorted, matching Registry::snapshot's contract.
                let mut v = vec![
                    $(($name.to_string(), self.$field.load(Ordering::Relaxed)),)*
                ];
                v.sort_by(|a, b| a.0.cmp(&b.0));
                v
            }
        }
    };
}

serve_metrics! {
    http_bad_requests => "serve.http.bad_requests",
    http_connections => "serve.http.connections",
    http_rejected_busy => "serve.http.rejected_busy",
    http_requests => "serve.http.requests",
    queue_cancelled => "serve.queue.cancelled",
    queue_completed => "serve.queue.completed",
    queue_failed => "serve.queue.failed",
    queue_rejected_full => "serve.queue.rejected_full",
    queue_submitted => "serve.queue.submitted",
    stream_dropped => "serve.stream.dropped",
    stream_events => "serve.stream.events",
    stream_subscribers => "serve.stream.subscribers",
    workers_checkpoint_writes => "serve.workers.checkpoint_writes",
    workers_deaths => "serve.workers.deaths",
    workers_runs_executed => "serve.workers.runs_executed",
    workers_runs_resumed => "serve.workers.runs_resumed",
    workers_shards_executed => "serve.workers.shards_executed",
    workers_shards_requeued => "serve.workers.shards_requeued",
    workers_spawned => "serve.workers.spawned",
}

impl ServeMetrics {
    /// Increment a counter by one.
    pub fn inc(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add to a counter.
    pub fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot into the workspace's standard metrics shape. Live
    /// instantaneous values (queue depth, workers alive) ride along as
    /// gauges since they are samples, not monotone counts.
    pub fn snapshot(&self, queue_depth: u64, workers_alive: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters(),
            gauges: vec![
                ("serve.queue.depth".to_string(), queue_depth as f64),
                ("serve.workers.alive".to_string(), workers_alive as f64),
            ],
            histos: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_name_sorted_and_serializable() {
        let m = ServeMetrics::new();
        m.inc(&m.queue_submitted);
        m.add(&m.stream_events, 5);
        let snap = m.snapshot(2, 4);
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(snap
            .counters
            .contains(&("serve.queue.submitted".to_string(), 1)));
        assert!(snap
            .counters
            .contains(&("serve.stream.events".to_string(), 5)));
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("serve.queue.depth"), "{json}");
    }
}
