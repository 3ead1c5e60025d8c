//! Time-series capture for experiment outputs.
//!
//! Every figure of the paper is a time series or a reduction of one. A
//! [`Series`] collects `(Time, value)` samples and offers the reductions
//! the paper uses: windowed averages (Fig. 12 "averaged over 1 minute
//! intervals"), per-hour-of-day averages with error bars (Fig. 13), and
//! plain mean/std (Fig. 3).

use crate::stats::RunningStats;
use crate::time::{Duration, Time};
use serde::{Deserialize, Serialize};

/// A named time series of scalar samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Series {
    /// Name used in dumps and tables.
    pub name: String,
    /// Samples in non-decreasing time order (enforced on push).
    points: Vec<(Time, f64)>,
    /// Out-of-order samples rejected by [`Series::push`].
    dropped: u64,
}

impl Series {
    /// Create an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
            dropped: 0,
        }
    }

    /// Append a sample. Samples must arrive in non-decreasing time order;
    /// out-of-order pushes panic in debug builds. In release builds they
    /// are rejected — but never silently: the rejection is counted on the
    /// series ([`Series::dropped`]) and in the ambient metrics registry
    /// (`simnet.trace.dropped`), so experiments can assert no data was
    /// lost.
    pub fn push(&mut self, t: Time, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(t >= last, "out-of-order sample at {t:?} after {last:?}");
            if t < last {
                self.dropped += 1;
                crate::obs::current()
                    .registry()
                    .counter("simnet.trace.dropped")
                    .inc();
                return;
            }
        }
        self.points.push((t, value));
    }

    /// Number of out-of-order samples rejected by [`Series::push`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Raw samples.
    pub fn points(&self) -> &[(Time, f64)] {
        &self.points
    }

    /// Mean and standard deviation over the whole series.
    pub fn stats(&self) -> RunningStats {
        let mut s = RunningStats::new();
        for &(_, v) in &self.points {
            s.push(v);
        }
        s
    }

    /// Average the series into fixed windows of width `bin`. Each output
    /// point is (window start, mean of samples in the window); empty
    /// windows are skipped.
    pub fn window_average(&self, bin: Duration) -> Series {
        assert!(bin.as_nanos() > 0);
        let mut out = Series::new(format!("{} ({} avg)", self.name, bin));
        let mut idx = 0usize;
        while idx < self.points.len() {
            let start = Time(self.points[idx].0.as_nanos() / bin.as_nanos() * bin.as_nanos());
            let end = start + bin;
            let mut stats = RunningStats::new();
            while idx < self.points.len() && self.points[idx].0 < end {
                stats.push(self.points[idx].1);
                idx += 1;
            }
            if stats.count() > 0 {
                out.points.push((start, stats.mean()));
            }
        }
        out
    }

    /// Group samples by hour of the simulated day, optionally filtering by
    /// weekend/weekday, returning per-hour statistics (Fig. 13 style:
    /// "lines represent the BLE averaged over the same hour of the day and
    /// error bars show standard deviation").
    pub fn by_hour_of_day(&self, weekend: Option<bool>) -> Vec<(u32, RunningStats)> {
        let mut bins: Vec<RunningStats> = (0..24).map(|_| RunningStats::new()).collect();
        for &(t, v) in &self.points {
            if let Some(want_weekend) = weekend {
                if t.is_weekend() != want_weekend {
                    continue;
                }
            }
            bins[t.hour_of_day() as usize % 24].push(v);
        }
        bins.into_iter()
            .enumerate()
            .filter(|(_, s)| s.count() > 0)
            .map(|(h, s)| (h as u32, s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_stats() {
        let mut s = Series::new("x");
        s.push(Time::from_secs(0), 1.0);
        s.push(Time::from_secs(1), 3.0);
        assert_eq!(s.len(), 2);
        let st = s.stats();
        assert_eq!(st.mean(), 2.0);
    }

    #[test]
    fn window_average_bins_correctly() {
        let mut s = Series::new("x");
        for i in 0..10u64 {
            s.push(Time::from_secs(i), i as f64);
        }
        let avg = s.window_average(Duration::from_secs(5));
        assert_eq!(avg.len(), 2);
        assert_eq!(avg.points()[0], (Time::ZERO, 2.0)); // mean of 0..=4
        assert_eq!(avg.points()[1], (Time::from_secs(5), 7.0)); // mean of 5..=9
    }

    #[test]
    fn window_average_skips_empty_windows() {
        let mut s = Series::new("x");
        s.push(Time::from_secs(0), 1.0);
        s.push(Time::from_secs(100), 2.0);
        let avg = s.window_average(Duration::from_secs(10));
        assert_eq!(avg.len(), 2);
        assert_eq!(avg.points()[1].0, Time::from_secs(100));
    }

    #[test]
    fn by_hour_filters_weekends() {
        let mut s = Series::new("x");
        // Monday 10:00 (day 0) value 1, Saturday 10:00 (day 5) value 9.
        s.push(Time::from_hours(10), 1.0);
        s.push(Time::from_hours(5 * 24 + 10), 9.0);
        let weekdays = s.by_hour_of_day(Some(false));
        assert_eq!(weekdays.len(), 1);
        assert_eq!(weekdays[0].0, 10);
        assert_eq!(weekdays[0].1.mean(), 1.0);
        let weekends = s.by_hour_of_day(Some(true));
        assert_eq!(weekends[0].1.mean(), 9.0);
        let all = s.by_hour_of_day(None);
        assert_eq!(all[0].1.count(), 2);
    }

    // The out-of-order path debug_asserts, so its counting behaviour is
    // only observable in release builds (`cargo test --release`).
    #[cfg(not(debug_assertions))]
    #[test]
    fn out_of_order_pushes_are_counted() {
        let obs = crate::obs::Obs::new();
        let dropped = crate::obs::with_default(obs.clone(), || {
            let mut s = Series::new("x");
            s.push(Time::from_secs(5), 1.0);
            s.push(Time::from_secs(3), 2.0); // out of order: rejected
            s.push(Time::from_secs(6), 3.0);
            assert_eq!(s.len(), 2);
            s.dropped()
        });
        assert_eq!(dropped, 1);
        assert_eq!(obs.registry().snapshot().counter("simnet.trace.dropped"), 1);
    }
}
