//! Point-in-time metric snapshots: merge, and the JSON form that
//! `--metrics-out` writes and [`Snapshot::from_json`] reads back.

use crate::json::{self, Json};
use crate::metrics::{bucket_index, bucket_upper, NUM_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time copy of one [`Histogram`](crate::Histogram).
///
/// `buckets` holds only the non-empty buckets as `(index, count)` pairs
/// in ascending index order; bucket `b` covers values in
/// `[2^(b-1), 2^b - 1]` (bucket 0 is the value `0`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations (wrapping on overflow).
    pub sum: u64,
    /// Exact maximum observation (0 when empty).
    pub max: u64,
    /// Non-empty `(bucket index, count)` pairs, ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// The mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket the quantile rank falls into, clamped to the exact maximum
    /// — so the estimate is within 2× of the true value and `quantile(1.0)`
    /// is exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper(index as usize).min(self.max);
            }
        }
        self.max
    }

    /// The median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds another snapshot into this one: counts and bucket counts
    /// add, `max` takes the larger value.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        let mut counts = [0u64; NUM_BUCKETS];
        for &(i, n) in self.buckets.iter().chain(&other.buckets) {
            counts[i as usize] += n;
        }
        self.buckets = counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u8, n))
            .collect();
    }

    /// Records into an owned snapshot — handy in single-threaded
    /// accumulators that don't need the atomic [`Histogram`](crate::Histogram).
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
        let index = bucket_index(value) as u8;
        match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (index, 1)),
        }
    }
}

/// One metric's snapshotted value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's current level.
    Gauge(u64),
    /// A histogram's distribution.
    Histogram(HistogramSnapshot),
    /// A free-text annotation riding alongside the numeric metrics —
    /// how a campaign names its quarantined mutants and forensic-bundle
    /// paths in a `--metrics-out` snapshot.
    Info(String),
}

impl MetricValue {
    fn kind_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
            MetricValue::Info(_) => "info",
        }
    }
}

/// An error decoding a snapshot exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotParseError {
    message: String,
}

impl SnapshotParseError {
    fn new(message: impl Into<String>) -> SnapshotParseError {
        SnapshotParseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed snapshot: {}", self.message)
    }
}

impl std::error::Error for SnapshotParseError {}

/// A named set of snapshotted metrics — what `--metrics-out` writes and
/// what downstream consumers (coverage-from-profile, dashboards) read
/// back.
///
/// # Examples
///
/// ```
/// use s4e_obs::MetricsRegistry;
/// use s4e_obs::Snapshot;
///
/// let registry = MetricsRegistry::new();
/// registry.counter("vp_insn_retired").add(42);
/// let snap = registry.snapshot();
/// let json = snap.to_json();
/// assert_eq!(Snapshot::from_json(&json).unwrap(), snap);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Builds a snapshot from name → value pairs.
    pub fn from_metrics(metrics: BTreeMap<String, MetricValue>) -> Snapshot {
        Snapshot { metrics }
    }

    /// All metrics, ordered by name.
    pub fn metrics(&self) -> &BTreeMap<String, MetricValue> {
        &self.metrics
    }

    /// Inserts or replaces one metric.
    pub fn insert(&mut self, name: impl Into<String>, value: MetricValue) {
        self.metrics.insert(name.into(), value);
    }

    /// Looks up one metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// A counter's value, when `name` is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name)? {
            MetricValue::Counter(n) => Some(*n),
            _ => None,
        }
    }

    /// A gauge's value, when `name` is a gauge.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name)? {
            MetricValue::Gauge(n) => Some(*n),
            _ => None,
        }
    }

    /// A histogram's snapshot, when `name` is a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Folds another snapshot into this one: counters add, gauges take
    /// the larger value (a level, not an event count), histograms merge
    /// bucket-wise. Merging a counter into a gauge (or any other kind
    /// mismatch) keeps this snapshot's kind and ignores the other value.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, value) in &other.metrics {
            match self.metrics.get_mut(name) {
                None => {
                    self.metrics.insert(name.clone(), value.clone());
                }
                Some(MetricValue::Counter(mine)) => {
                    if let MetricValue::Counter(theirs) = value {
                        *mine += theirs;
                    }
                }
                Some(MetricValue::Gauge(mine)) => {
                    if let MetricValue::Gauge(theirs) = value {
                        *mine = (*mine).max(*theirs);
                    }
                }
                Some(MetricValue::Histogram(mine)) => {
                    if let MetricValue::Histogram(theirs) = value {
                        mine.merge(theirs);
                    }
                }
                // An annotation is a statement about this snapshot's own
                // run; another run's text does not accumulate into it.
                Some(MetricValue::Info(_)) => {}
            }
        }
    }

    // ------------------------------------------------------------- JSON

    /// Serializes as one JSON object keyed by metric name.
    ///
    /// ```json
    /// {"vp_insn_retired":{"type":"counter","value":42},
    ///  "qta_slack_cycles":{"type":"histogram","count":3,"sum":9,"max":5,
    ///                      "buckets":[[1,1],[3,2]]}}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.metrics.len().max(1));
        out.push('{');
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"type\":\"{}\"",
                json::escape(name),
                value.kind_name()
            );
            match value {
                MetricValue::Counter(n) | MetricValue::Gauge(n) => {
                    let _ = write!(out, ",\"value\":{n}");
                }
                MetricValue::Info(s) => {
                    let _ = write!(out, ",\"value\":\"{}\"", json::escape(s));
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                        h.count, h.sum, h.max
                    );
                    for (j, (index, n)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{index},{n}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Decodes a snapshot from its [`to_json`](Snapshot::to_json) form.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotParseError`] on malformed JSON, unknown metric
    /// types, or out-of-range bucket indices.
    pub fn from_json(text: &str) -> Result<Snapshot, SnapshotParseError> {
        let doc = json::parse(text).ok_or_else(|| SnapshotParseError::new("invalid JSON"))?;
        let obj = doc
            .as_obj()
            .ok_or_else(|| SnapshotParseError::new("top level is not an object"))?;
        let mut metrics = BTreeMap::new();
        for (name, entry) in obj {
            let fields = entry
                .as_obj()
                .ok_or_else(|| SnapshotParseError::new(format!("`{name}` is not an object")))?;
            let kind = fields
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| SnapshotParseError::new(format!("`{name}` has no type")))?;
            let num = |key: &str| {
                fields.get(key).and_then(Json::as_num).ok_or_else(|| {
                    SnapshotParseError::new(format!("`{name}` is missing numeric `{key}`"))
                })
            };
            let value = match kind {
                "counter" => MetricValue::Counter(num("value")?),
                "gauge" => MetricValue::Gauge(num("value")?),
                "info" => MetricValue::Info(
                    fields
                        .get("value")
                        .and_then(Json::as_str)
                        .ok_or_else(|| {
                            SnapshotParseError::new(format!("`{name}` is missing string `value`"))
                        })?
                        .to_string(),
                ),
                "histogram" => {
                    let raw = fields
                        .get("buckets")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| {
                            SnapshotParseError::new(format!("`{name}` is missing buckets"))
                        })?;
                    let mut buckets = Vec::with_capacity(raw.len());
                    let mut last: Option<u8> = None;
                    for pair in raw {
                        let items = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                            SnapshotParseError::new(format!("`{name}` bucket is not a pair"))
                        })?;
                        let index = items[0]
                            .as_num()
                            .and_then(|i| u8::try_from(i).ok())
                            .filter(|&i| (i as usize) < NUM_BUCKETS)
                            .ok_or_else(|| {
                                SnapshotParseError::new(format!("`{name}` bucket index invalid"))
                            })?;
                        if last.is_some_and(|l| l >= index) {
                            return Err(SnapshotParseError::new(format!(
                                "`{name}` buckets not ascending"
                            )));
                        }
                        last = Some(index);
                        let n = items[1].as_num().ok_or_else(|| {
                            SnapshotParseError::new(format!("`{name}` bucket count invalid"))
                        })?;
                        buckets.push((index, n));
                    }
                    MetricValue::Histogram(HistogramSnapshot {
                        count: num("count")?,
                        sum: num("sum")?,
                        max: num("max")?,
                        buckets,
                    })
                }
                other => {
                    return Err(SnapshotParseError::new(format!(
                        "`{name}` has unknown type `{other}`"
                    )))
                }
            };
            metrics.insert(name.clone(), value);
        }
        Ok(Snapshot { metrics })
    }
}
