//! Exact order statistics over recorded samples.
//!
//! Every per-operation latency is kept as its own sample in a preallocated
//! `Vec`, and percentiles are read from the sorted sample. Nothing is
//! bucketed, so a change of a few per cent shows as a change of a few per
//! cent.

use std::time::{Duration, Instant};

use crate::host::Ticks;

/// Per-operation latencies of one run, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    /// An empty sample with room for `capacity` operations, so recording in
    /// the timed loop does not allocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { ns: Vec::with_capacity(capacity) }
    }

    pub fn push(&mut self, d: Duration) {
        self.ns.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The sample sorted ascending, for reading percentiles.
    pub fn sorted(&self) -> Sorted {
        let mut ns = self.ns.clone();
        ns.sort_unstable();
        Sorted { ns }
    }
}

/// An ascending sample.
#[derive(Debug, Clone)]
pub struct Sorted {
    ns: Vec<u64>,
}

impl Sorted {
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentile in nanoseconds: the smallest sample with at
    /// least `per_mille`/1000 of the sample at or below it. The rank is
    /// computed in integers, so p99 of 100 samples is exactly the 99th.
    ///
    /// # Panics
    ///
    /// On an empty sample or `per_mille` above 1000.
    pub fn percentile_ns(&self, per_mille: u64) -> u64 {
        assert!(!self.ns.is_empty(), "percentile of an empty sample");
        assert!(per_mille <= 1000, "percentile above 100%");
        self.ns[rank(self.ns.len(), per_mille) - 1]
    }

    /// Samples strictly beyond the `per_mille` percentile's rank; the
    /// percentile is only meaningful with at least ten.
    pub fn beyond(&self, per_mille: u64) -> usize {
        self.ns.len() - rank(self.ns.len(), per_mille)
    }

    pub fn p50_us(&self) -> f64 {
        self.percentile_ns(500) as f64 / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        self.percentile_ns(990) as f64 / 1e3
    }
}

/// Completed operations of a timed phase: when each ended, how long it
/// took, how many operations it carried (a LeNet batch carries 64) and the
/// host ticks (steal, process CPU) it used, where measured per operation.
#[derive(Debug, Clone)]
pub struct Timeline {
    start: Instant,
    end_ns: Vec<u64>,
    latency_ns: Vec<u64>,
    count: Vec<u32>,
    ticks: Vec<Ticks>,
}

impl Timeline {
    /// A timeline of a phase that began at `start`, with room for
    /// `capacity` entries so recording does not allocate.
    pub fn new(start: Instant, capacity: usize) -> Self {
        Self {
            start,
            end_ns: Vec::with_capacity(capacity),
            latency_ns: Vec::with_capacity(capacity),
            count: Vec::with_capacity(capacity),
            ticks: Vec::with_capacity(capacity),
        }
    }

    pub fn push(&mut self, end: Instant, latency: Duration, count: u32, ticks: Ticks) {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.end_ns.push(ns(end.saturating_duration_since(self.start)));
        self.latency_ns.push(ns(latency));
        self.count.push(count);
        self.ticks.push(ticks);
    }

    /// Adds another thread's entries of the same phase.
    pub fn append(&mut self, other: Timeline) {
        self.end_ns.extend(other.end_ns);
        self.latency_ns.extend(other.latency_ns);
        self.count.extend(other.count);
        self.ticks.extend(other.ticks);
    }

    pub fn is_empty(&self) -> bool {
        self.count.is_empty()
    }

    /// Host ticks recorded with each entry.
    pub fn ticks(&self) -> &[Ticks] {
        &self.ticks
    }

    /// The window each entry ended in: window `i` covers
    /// `[i·window, (i+1)·window)` from the start, and entries ending after
    /// the last of `windows` count in it.
    pub fn window_of(&self, window: Duration, windows: usize) -> Vec<usize> {
        let w = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX).max(1);
        self.end_ns
            .iter()
            .map(|&e| usize::try_from(e / w).unwrap_or(usize::MAX).min(windows - 1))
            .collect()
    }

    /// The entries whose `keep` flag is set.
    pub fn filter(&self, keep: &[bool]) -> Timeline {
        let mut out = Timeline::new(self.start, self.count.len());
        for (i, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            out.end_ns.push(self.end_ns[i]);
            out.latency_ns.push(self.latency_ns[i]);
            out.count.push(self.count[i]);
            out.ticks.push(self.ticks[i]);
        }
        out
    }

    /// Operations carried by the entries.
    pub fn ops(&self) -> u64 {
        self.count.iter().map(|&c| u64::from(c)).sum()
    }

    /// Summed latency of the entries: a single sequential caller's busy
    /// time.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.latency_ns.iter().sum())
    }

    /// The entries' latencies, sorted (one sample per entry).
    pub fn latencies(&self) -> Sorted {
        let mut ns = self.latency_ns.clone();
        ns.sort_unstable();
        Sorted { ns }
    }
}

/// 1-based nearest rank `ceil(n · per_mille / 1000)`, at least 1.
fn rank(n: usize, per_mille: u64) -> usize {
    let n = n as u64;
    let r = (n * per_mille).div_ceil(1000);
    r.max(1) as usize
}

/// Median of a small set of measurements (the lower middle for an even
/// count), e.g. repeated set-up times.
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: impl IntoIterator<Item = u64>) -> Sorted {
        let mut s = Samples::default();
        for v in values {
            s.push(Duration::from_nanos(v));
        }
        s.sorted()
    }

    #[test]
    fn nearest_rank_percentiles_of_one_to_hundred() {
        let s = sample((1..=100).rev());
        assert_eq!(s.percentile_ns(500), 50);
        assert_eq!(s.percentile_ns(990), 99);
        assert_eq!(s.percentile_ns(1000), 100);
        assert_eq!(s.percentile_ns(0), 1);
        assert_eq!(s.beyond(990), 1);
    }

    #[test]
    fn percentiles_are_exact_not_bucketed() {
        // A power-of-two histogram reads 30 µs and 40 µs as one bucket;
        // the exact sample keeps them apart.
        let a = sample([30_000; 9]);
        let b = sample([40_000; 9]);
        assert_eq!(a.p50_us(), 30.0);
        assert_eq!(b.p50_us(), 40.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(sample(1..=999).beyond(990), 9);
        assert_eq!(sample(1..=1000).beyond(990), 10);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = sample([7]);
        assert_eq!(s.percentile_ns(1), 7);
        assert_eq!(s.percentile_ns(999), 7);
    }

    #[test]
    fn timeline_assigns_windows_and_filters_entries() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let steal = |steal| Ticks { steal, cpu: 2 };
        let mut t = Timeline::new(t0, 4);
        t.push(t0 + ms(50), ms(10), 1, steal(0));
        t.push(t0 + ms(150), ms(20), 64, steal(3));
        t.push(t0 + ms(250), ms(30), 1, steal(0));
        t.push(t0 + ms(900), ms(40), 1, steal(1));
        // Past the end: the last window.
        assert_eq!(t.window_of(ms(100), 3), vec![0, 1, 2, 2]);
        let kept = t.filter(&[true, false, true, true]);
        assert_eq!(kept.ops(), 3);
        assert_eq!(kept.busy(), ms(80));
        assert_eq!(kept.ticks(), &[steal(0), steal(0), steal(1)]);
        assert_eq!(kept.latencies().percentile_ns(1000), 40_000_000);
        assert_eq!(t.filter(&[false, true, false, false]).ops(), 64);
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
