//! Metric handles: cheap `Clone`able wrappers over shared atomics.
//!
//! All recording paths use relaxed atomic RMWs. Counter and histogram
//! updates are commutative, so totals are independent of the interleaving of
//! recording threads — the property the cycle-domain determinism pins rely
//! on.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log2 buckets in a [`Histogram`]: bucket 0 holds exact zeros,
/// bucket `b >= 1` holds values in `[2^(b-1), 2^b - 1]`, bucket 64 tops out
/// at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Monotonically increasing event count.
#[derive(Clone, Debug)]
pub struct Counter(pub(crate) Arc<AtomicU64>);

impl Counter {
    pub(crate) fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    #[inline]
    pub fn inc(&self) {
        // det: fetch_add commutes — any interleaving yields the same sum.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            // det: fetch_add commutes — any interleaving yields the same sum.
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        // det: read after pool quiescence; relaxed sees the final sum.
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (last write wins).
#[derive(Clone, Debug)]
pub struct Gauge(pub(crate) Arc<AtomicI64>);

impl Gauge {
    pub(crate) fn new() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        // det: gauges are set from single-owner cycle code (last write
        // wins is single-writer in practice); never feeds results.
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        // det: fetch_add commutes — any interleaving yields the same sum.
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        // det: read after pool quiescence; relaxed sees the final value.
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCells {
    pub(crate) buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    /// `u64::MAX` while empty.
    pub(crate) min: AtomicU64,
    pub(crate) max: AtomicU64,
}

/// Log2-bucketed distribution of `u64` samples.
///
/// Bucket boundaries are powers of two, so recording costs one
/// `leading_zeros` plus a handful of relaxed RMWs, and reported percentiles
/// are deterministic integers (the upper bound of the bucket the requested
/// rank falls in).
#[derive(Clone, Debug)]
pub struct Histogram(pub(crate) Arc<HistogramCells>);

/// Bucket index for a sample value.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Largest value stored in bucket `b`.
pub(crate) fn bucket_upper(b: usize) -> u64 {
    match b {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Histogram(Arc::new(HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    #[inline]
    pub fn record(&self, v: u64) {
        let cells = &*self.0;
        // det: every RMW below commutes (fetch_add sums, fetch_min/max
        // extrema), so the quiesced histogram is interleaving-free.
        cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // det: fetch_add commutes — any interleaving yields the same sum.
        cells.count.fetch_add(1, Ordering::Relaxed);
        // Gate the remaining RMWs behind relaxed loads: on steady-state hot
        // paths (e.g. a queue-depth histogram recording 0 every machine
        // cycle) min/max/sum almost never change, and a load that skips the
        // RMW keeps the cache line shared instead of bouncing it. The
        // load-then-RMW race is benign — the update itself is still
        // `fetch_min`/`fetch_max`, so the final extrema are exact.
        if v != 0 {
            // det: fetch_add commutes — any interleaving yields the same sum.
            cells.sum.fetch_add(v, Ordering::Relaxed);
        }
        // det: the gating load is an optimization only — a stale read
        // skips straight to the commuting fetch_min, so extrema are exact.
        if cells.min.load(Ordering::Relaxed) > v {
            // det: fetch_min commutes — the final minimum is order-free.
            cells.min.fetch_min(v, Ordering::Relaxed);
        }
        // det: the gating load is an optimization only — a stale read
        // skips straight to the commuting fetch_max, so extrema are exact.
        if cells.max.load(Ordering::Relaxed) < v {
            // det: fetch_max commutes — the final maximum is order-free.
            cells.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        // det: read after pool quiescence; relaxed sees the final sum.
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        // det: read after pool quiescence; relaxed sees the final sum.
        self.0.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        // det: read after pool quiescence; relaxed sees the final extremum.
        self.0.max.load(Ordering::Relaxed)
    }

    pub fn min(&self) -> u64 {
        // det: read after pool quiescence; relaxed sees the final extremum.
        let m = self.0.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Upper bound of the bucket containing the `pct`-th percentile sample
    /// (rank `ceil(count * pct / 100)`), clamped to [`Histogram::max`],
    /// or 0 for an empty histogram.
    ///
    /// Integer-only, so the result is identical however the samples were
    /// interleaved across threads.
    pub fn percentile(&self, pct: u64) -> u64 {
        let buckets = self.0.buckets.iter().enumerate().map(|(b, n)| {
            // det: read after pool quiescence; relaxed sees final counts.
            (bucket_upper(b), n.load(Ordering::Relaxed))
        });
        bucket_percentile(buckets, self.count(), self.max(), pct)
    }
}

/// The rank walk behind every reported percentile: the upper bound of
/// the bucket holding sample rank `ceil(count * pct / 100)` among
/// `buckets`' ascending `(upper, n)` pairs (dense or sparse — empty
/// buckets never hold the rank), clamped to the observed `max` (no
/// sample exceeds it, so the bound stays a bound and never reads above
/// the largest value seen); `max` if the buckets hold fewer than
/// `count` samples, or 0 for an empty histogram.
pub(crate) fn bucket_percentile(
    buckets: impl IntoIterator<Item = (u64, u64)>,
    count: u64,
    max: u64,
    pct: u64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((u128::from(count) * u128::from(pct)).div_ceil(100) as u64).max(1);
    let mut seen = 0u64;
    for (upper, n) in buckets {
        seen += n;
        if seen >= rank {
            return upper.min(max);
        }
    }
    max
}

/// Fixed-size family of counters indexed by a small integer id (per-qubit,
/// per-worker). Out-of-range indices are silently dropped so hot paths never
/// branch on ids the registrant did not size for.
#[derive(Clone, Debug)]
pub struct CounterFamily(pub(crate) Arc<Vec<AtomicU64>>);

impl CounterFamily {
    pub(crate) fn new(len: usize) -> Self {
        CounterFamily(Arc::new((0..len).map(|_| AtomicU64::new(0)).collect()))
    }

    #[inline]
    pub fn inc(&self, idx: usize) {
        if let Some(c) = self.0.get(idx) {
            // det: fetch_add commutes — any interleaving yields the same sum.
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, idx: usize, n: u64) {
        if n != 0 {
            if let Some(c) = self.0.get(idx) {
                // det: fetch_add commutes — any interleaving yields the same sum.
                c.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    pub fn get(&self, idx: usize) -> u64 {
        // det: read after pool quiescence; relaxed sees the final sum.
        self.0.get(idx).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A two-domain span timer: a deterministic cycle-latency histogram plus an
/// optional wall-time histogram (nanoseconds, `wall-time` feature only).
#[derive(Clone, Debug)]
pub struct SpanTimer {
    pub(crate) cycles: Histogram,
    #[cfg(feature = "wall-time")]
    pub(crate) wall: Histogram,
}

impl SpanTimer {
    /// Record an already-computed latency in cycles.
    #[inline]
    pub fn record_latency(&self, cycles: u64) {
        self.cycles.record(cycles);
    }

    /// Deterministic cycle-domain histogram of this timer.
    pub fn cycles(&self) -> &Histogram {
        &self.cycles
    }

    /// Start a wall-clock measurement that records into the wall histogram
    /// when dropped. Compiles to a no-op without the `wall-time` feature.
    #[inline]
    pub fn wall_guard(&self) -> WallGuard {
        WallGuard {
            #[cfg(feature = "wall-time")]
            hist: self.wall.clone(),
            #[cfg(feature = "wall-time")]
            start: std::time::Instant::now(),
        }
    }
}

/// RAII guard returned by [`SpanTimer::wall_guard`]. Records the elapsed
/// wall time in nanoseconds on drop when the `wall-time` feature is enabled;
/// otherwise a zero-sized no-op.
#[must_use = "the span is measured from guard creation to drop"]
pub struct WallGuard {
    #[cfg(feature = "wall-time")]
    hist: Histogram,
    #[cfg(feature = "wall-time")]
    start: std::time::Instant,
}

impl Drop for WallGuard {
    fn drop(&mut self) {
        #[cfg(feature = "wall-time")]
        {
            let ns = self.start.elapsed().as_nanos();
            self.hist.record(u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 5, 1023, 1024, u64::MAX] {
            assert!(v <= bucket_upper(bucket_index(v)));
        }
    }

    #[test]
    fn histogram_stats_and_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50), 0);
        for v in [1u64, 1, 2, 3, 8, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 115);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        // rank(p50) = 3 -> third sample (2 or 3) -> bucket [2,3] -> 3
        assert_eq!(h.percentile(50), 3);
        // rank(p99) = 6 -> 100 -> bucket [64,127] -> 127, clamped to
        // the observed max
        assert_eq!(h.percentile(99), 100);
    }

    #[test]
    fn family_ignores_out_of_range() {
        let f = CounterFamily::new(2);
        f.inc(0);
        f.add(1, 5);
        f.inc(7);
        assert_eq!(f.get(0), 1);
        assert_eq!(f.get(1), 5);
        assert_eq!(f.get(7), 0);
        assert_eq!(f.len(), 2);
    }
}
