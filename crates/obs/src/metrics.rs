//! The metric primitives and the registry.
//!
//! Three metric shapes cover everything the ecosystem measures:
//!
//! * [`Counter`] — a monotonically increasing event count (instructions
//!   retired, mutants classified);
//! * [`Gauge`] — a point-in-time level that can move both ways (worker
//!   heartbeat timestamps, queue depth);
//! * [`Histogram`] — a log₂-bucketed value distribution with exact
//!   count/sum/max and estimated quantiles (per-block cycle
//!   distributions).
//!
//! All three are a thin shell over `AtomicU64` with `Relaxed` ordering:
//! the hot path of every `add`/`record` is plain relaxed atomic adds, no
//! locks, no allocation. The [`MetricsRegistry`] itself takes a mutex
//! only on registration and snapshotting — handles returned by
//! [`counter`](MetricsRegistry::counter) and friends are `Arc`s that
//! bypass the registry entirely afterwards, so instrumented hot loops
//! never contend on it.

use crate::snapshot::{HistogramSnapshot, MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `b ≥ 1` holds values in `[2^(b-1), 2^b - 1]`, up to bucket 64 which
/// tops out at `u64::MAX`.
pub const NUM_BUCKETS: usize = 65;

/// The bucket index a value falls into.
///
/// # Examples
///
/// ```
/// use s4e_obs::bucket_index;
/// assert_eq!(bucket_index(0), 0);
/// assert_eq!(bucket_index(1), 1);
/// assert_eq!(bucket_index(2), 2);
/// assert_eq!(bucket_index(3), 2);
/// assert_eq!(bucket_index(4), 3);
/// assert_eq!(bucket_index(u64::MAX), 64);
/// ```
pub const fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The largest value bucket `index` can hold (its inclusive upper bound).
///
/// # Examples
///
/// ```
/// use s4e_obs::bucket_upper;
/// assert_eq!(bucket_upper(0), 0);
/// assert_eq!(bucket_upper(1), 1);
/// assert_eq!(bucket_upper(2), 3);
/// assert_eq!(bucket_upper(64), u64::MAX);
/// ```
///
/// # Panics
///
/// Panics if `index >= NUM_BUCKETS`.
pub const fn bucket_upper(index: usize) -> u64 {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    if index == 0 {
        0
    } else if index == 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use s4e_obs::Counter;
/// let c = Counter::new();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.value(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` (one relaxed atomic add — the hot-path primitive).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time level.
///
/// # Examples
///
/// ```
/// use s4e_obs::Gauge;
/// let g = Gauge::new();
/// g.set(7);
/// assert_eq!(g.value(), 7);
/// ```
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Replaces the level (one relaxed atomic store).
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current level.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed value distribution.
///
/// `count`, `sum` and `max` are exact; quantiles are estimated from the
/// bucket a quantile's rank falls into (reported as that bucket's upper
/// bound, clamped to the exact maximum), so an estimate is never more
/// than 2× the true value. `sum` wraps on overflow — at one event per
/// simulated cycle that takes centuries, but merged pathological inputs
/// (e.g. recording `u64::MAX` twice) will wrap.
///
/// # Examples
///
/// ```
/// use s4e_obs::Histogram;
/// let h = Histogram::new();
/// for v in [1, 2, 3, 100] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.max, 100);
/// assert!(snap.quantile(0.5) <= 3);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation (four relaxed atomic RMWs).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Merges a batch of observations tallied elsewhere, e.g. in plain
    /// locals on a hot path: `buckets[i]` observations fell into bucket
    /// `i` (see [`bucket_index`]), summing to `sum` with maximum `max`.
    /// The result equals recording each observation, for one RMW per
    /// non-empty bucket plus three.
    ///
    /// # Examples
    ///
    /// ```
    /// use s4e_obs::{bucket_index, Histogram, NUM_BUCKETS};
    /// let (one, batch) = (Histogram::new(), Histogram::new());
    /// let mut buckets = [0u64; NUM_BUCKETS];
    /// for v in [3, 9, 9] {
    ///     one.record(v);
    ///     buckets[bucket_index(v)] += 1;
    /// }
    /// batch.merge_counts(&buckets, 21, 9);
    /// assert_eq!(batch.snapshot(), one.snapshot());
    /// ```
    pub fn merge_counts(&self, buckets: &[u64; NUM_BUCKETS], sum: u64, max: u64) {
        let mut count = 0u64;
        for (bucket, &n) in self.buckets.iter().zip(buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
                count += n;
            }
        }
        if count > 0 {
            self.count.fetch_add(count, Ordering::Relaxed);
            self.sum.fetch_add(sum, Ordering::Relaxed);
            self.max.fetch_max(max, Ordering::Relaxed);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy. Concurrent recorders may
    /// leave the copy one event out of sync between fields; quiesce
    /// writers for an exact snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u8, n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics, snapshottable as one unit.
///
/// Registration (`counter`/`gauge`/`histogram`) is get-or-create and
/// takes a short internal lock; the returned `Arc` handles are lock-free
/// afterwards, so register once outside the hot loop and update through
/// the handle.
///
/// # Examples
///
/// ```
/// use s4e_obs::MetricsRegistry;
/// let registry = MetricsRegistry::new();
/// let retired = registry.counter("vp_insn_retired");
/// retired.add(41);
/// retired.inc();
/// let snap = registry.snapshot();
/// assert_eq!(snap.counter("vp_insn_retired"), Some(42));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Checks a metric name: `[a-z_][a-z0-9_]*` — lowercase so the JSON
    /// and Prometheus-style expositions share one spelling.
    fn validate(name: &str) {
        let mut chars = name.chars();
        let ok = match chars.next() {
            Some(c) => {
                (c.is_ascii_lowercase() || c == '_')
                    && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            }
            None => false,
        };
        assert!(ok, "invalid metric name `{name}` (want [a-z_][a-z0-9_]*)");
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        Self::validate(name);
        let mut metrics = self.metrics.lock().unwrap_or_else(|p| p.into_inner());
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is malformed or already registered as a different
    /// metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind_name()),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is malformed or already registered as a different
    /// metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind_name()),
        }
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is malformed or already registered as a different
    /// metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!(
                "metric `{name}` is a {}, not a histogram",
                other.kind_name()
            ),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().unwrap_or_else(|p| p.into_inner());
        let values = metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.value()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot::from_metrics(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.value(), 10);
        let g = Gauge::new();
        g.set(5);
        assert_eq!(g.value(), 5);
        g.set(3);
        assert_eq!(g.value(), 3);
    }

    #[test]
    fn registry_handles_are_shared() {
        let r = MetricsRegistry::new();
        let a = r.counter("events_total");
        let b = r.counter("events_total");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn merged_batches_equal_recording_one_by_one() {
        let (one, batched) = (Histogram::new(), Histogram::new());
        one.record(40);
        batched.record(40);
        // An empty batch changes nothing, not even `max`.
        batched.merge_counts(&[0; NUM_BUCKETS], 0, 0);
        assert_eq!(batched.snapshot(), one.snapshot());
        let mut buckets = [0u64; NUM_BUCKETS];
        let (mut sum, mut max) = (0u64, 0u64);
        for v in [0, 1, 7, 8, 1 << 40, 5] {
            one.record(v);
            buckets[bucket_index(v)] += 1;
            sum += v;
            max = max.max(v);
        }
        batched.merge_counts(&buckets, sum, max);
        assert_eq!(batched.snapshot(), one.snapshot());
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn registry_rejects_kind_mismatch() {
        let r = MetricsRegistry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_bad_names() {
        let _ = MetricsRegistry::new().counter("Not-Valid");
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let r = Arc::new(MetricsRegistry::new());
        let c = r.counter("n");
        let h = r.histogram("h");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.value(), 40_000);
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot().max, 9_999);
    }
}
