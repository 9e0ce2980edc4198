//! Black-box tests for the metrics layer: bucket boundaries, quantile
//! estimation, snapshot merge, and both serialization round-trips.

use proptest::prelude::*;
use s4e_obs::{
    bucket_index, bucket_upper, HistogramSnapshot, MetricValue, MetricsRegistry, Snapshot,
    NUM_BUCKETS,
};

#[test]
fn bucket_boundaries() {
    // Bucket 0 holds only the value 0.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_upper(0), 0);
    // Bucket 1 holds only the value 1.
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_upper(1), 1);
    // Every power of two opens a new bucket; the value one below closes
    // the previous one.
    for b in 1..64 {
        let lo = 1u64 << (b - 1);
        let hi = (1u64 << b) - 1;
        assert_eq!(bucket_index(lo), b, "2^{} opens bucket {b}", b - 1);
        assert_eq!(bucket_index(hi), b, "2^{b}-1 closes bucket {b}");
        assert_eq!(bucket_upper(b), hi);
        if b + 1 < NUM_BUCKETS {
            assert_eq!(bucket_index(hi + 1), b + 1);
        }
    }
    assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
}

proptest! {
    #[test]
    fn bucket_index_is_monotonic_and_in_range(value in any::<u64>()) {
        let b = bucket_index(value);
        prop_assert!(b < NUM_BUCKETS);
        // The value lies inside its bucket's range.
        prop_assert!(value <= bucket_upper(b));
        if b > 0 {
            prop_assert!(value > bucket_upper(b - 1));
        }
    }

    #[test]
    fn quantile_is_within_2x_of_true_value(seed in any::<u64>(), len in 1usize..64) {
        // The vendored proptest stub has no collection strategies, so
        // derive the sample from a seeded splitmix64 stream.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let values: Vec<u64> = (0..len)
            .map(|i| match i {
                0 => 0,
                1 => u64::MAX,
                2 => 1,
                // Spread across magnitudes, not just huge values.
                _ => next() >> (next() % 64),
            })
            .collect();
        let mut hist = HistogramSnapshot::default();
        for &v in &values {
            hist.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (q, rank) in [(0.5, sorted.len().div_ceil(2)), (1.0, sorted.len())] {
            let truth = sorted[rank - 1];
            let estimate = hist.quantile(q);
            // Bucket upper bound: never below the true value, and within
            // 2x above it (exact for 0, 1 and the maximum).
            prop_assert!(estimate >= truth);
            prop_assert!(estimate / 2 <= truth);
        }
        prop_assert_eq!(hist.quantile(1.0), *sorted.last().unwrap());
    }
}

#[test]
fn quantile_estimation_known_distribution() {
    let mut hist = HistogramSnapshot::default();
    // 98 fast observations, 2 slow outliers.
    for _ in 0..98 {
        hist.record(10);
    }
    hist.record(1000);
    hist.record(5000);
    assert_eq!(hist.count, 100);
    assert_eq!(hist.p50(), 15); // upper bound of [8, 15]
    assert_eq!(hist.p95(), 15);
    assert_eq!(hist.p99(), 1023); // the first outlier's bucket
    assert_eq!(hist.quantile(1.0), 5000); // exact max
    assert_eq!(hist.max, 5000);
}

#[test]
fn quantiles_of_empty_and_singleton() {
    let mut hist = HistogramSnapshot::default();
    assert_eq!(hist.p50(), 0);
    assert_eq!(hist.quantile(1.0), 0);
    hist.record(7);
    assert_eq!(hist.p50(), 7); // clamped to exact max
    assert_eq!(hist.p99(), 7);
}

#[test]
fn histogram_merge_is_addition() {
    let mut a = HistogramSnapshot::default();
    let mut b = HistogramSnapshot::default();
    let mut both = HistogramSnapshot::default();
    for v in [0, 1, 2, 40, u64::MAX] {
        a.record(v);
        both.record(v);
    }
    for v in [1, 3, 900] {
        b.record(v);
        both.record(v);
    }
    let mut merged = a.clone();
    merged.merge(&b);
    assert_eq!(merged, both);
}

#[test]
fn snapshot_merge_semantics() {
    let registry_a = MetricsRegistry::new();
    registry_a.counter("campaign_done").add(10);
    registry_a.gauge("campaign_workers").set(4);
    registry_a.histogram("run_cycles").record(100);
    let registry_b = MetricsRegistry::new();
    registry_b.counter("campaign_done").add(5);
    registry_b.gauge("campaign_workers").set(2);
    registry_b.histogram("run_cycles").record(7);
    registry_b.counter("campaign_only_b").inc();

    let mut merged = registry_a.snapshot();
    merged.merge(&registry_b.snapshot());
    // Counters add, gauges keep the maximum, histograms pool.
    assert_eq!(merged.counter("campaign_done"), Some(15));
    assert_eq!(merged.gauge("campaign_workers"), Some(4));
    let hist = merged.histogram("run_cycles").unwrap();
    assert_eq!(hist.count, 2);
    assert_eq!(hist.max, 100);
    // Metrics unique to either side survive.
    assert_eq!(merged.counter("campaign_only_b"), Some(1));
}

fn sample_snapshot() -> Snapshot {
    let registry = MetricsRegistry::new();
    registry.counter("vp_insn_retired").add(12345);
    registry.counter("vp_traps");
    registry.gauge("campaign_inflight").set(3);
    let hist = registry.histogram("qta_block_00000100_cycles");
    for v in [0, 1, 1, 2, 40, 900, u64::MAX] {
        hist.record(v);
    }
    registry.histogram("qta_empty");
    registry.snapshot()
}

#[test]
fn json_roundtrip() {
    let snap = sample_snapshot();
    let json = snap.to_json();
    let reparsed = Snapshot::from_json(&json).expect("parses back");
    assert_eq!(reparsed, snap);
    // Zero-valued and empty metrics are preserved, not dropped.
    assert_eq!(reparsed.counter("vp_traps"), Some(0));
    assert_eq!(reparsed.histogram("qta_empty").unwrap().count, 0);
}

#[test]
fn info_metrics_roundtrip_both_expositions() {
    let mut snap = sample_snapshot();
    snap.insert(
        "campaign_quarantined_0",
        MetricValue::Info("gpr a0 bit 31 stuck@1 => traces/quarantined.json".to_string()),
    );
    snap.insert(
        "campaign_quarantined_1",
        MetricValue::Info("tricky \"quoted\"\nnewline".to_string()),
    );
    let json = snap.to_json();
    assert_eq!(Snapshot::from_json(&json).expect("json parses"), snap);
    // Merging never concatenates annotations: the first value wins.
    let mut merged = snap.clone();
    let mut other = Snapshot::new();
    other.insert("campaign_quarantined_0", MetricValue::Info("x".to_string()));
    other.insert("campaign_quarantined_9", MetricValue::Info("y".to_string()));
    merged.merge(&other);
    assert_eq!(
        merged.get("campaign_quarantined_0"),
        snap.get("campaign_quarantined_0")
    );
    assert_eq!(
        merged.get("campaign_quarantined_9"),
        Some(&MetricValue::Info("y".to_string()))
    );
}

#[test]
fn parsers_reject_malformed_input() {
    assert!(Snapshot::from_json("").is_err());
    assert!(Snapshot::from_json("{\"a\":{\"type\":\"nope\",\"value\":1}}").is_err());
    assert!(Snapshot::from_json("{\"a\":{\"type\":\"counter\"}}").is_err());
    assert!(Snapshot::from_json("{\"a\":{\"type\":\"info\",\"value\":1}}").is_err());
}

#[test]
fn registry_snapshot_reflects_live_handles() {
    let registry = MetricsRegistry::new();
    let c = registry.counter("vp_insn_retired");
    let snap0 = registry.snapshot();
    c.add(2);
    let snap1 = registry.snapshot();
    assert_eq!(snap0.counter("vp_insn_retired"), Some(0));
    assert_eq!(snap1.counter("vp_insn_retired"), Some(2));
    assert_eq!(snap1.get("vp_insn_retired"), Some(&MetricValue::Counter(2)));
}
