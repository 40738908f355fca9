//! Direct coverage for [`mega_serve::Metrics`] counter arithmetic: the log
//! histogram's percentile math, shard-table aggregation (global totals
//! must equal the per-shard sums), logits-cache hit-rate accounting, and
//! the rendered report. Previously these were only exercised indirectly
//! through engine runs, which cannot assert exact numbers.

use std::sync::atomic::Ordering;
use std::time::Duration;

use mega_serve::{HwEstimate, LogHistogram, Metrics};

#[test]
fn histogram_is_exact_below_the_sub_bucket_floor() {
    // Values under 16 µs land in exact unit buckets, so quantiles of a
    // small uniform population are exact order statistics.
    let h = LogHistogram::default();
    for us in 1..=10u64 {
        h.record(Duration::from_micros(us));
    }
    assert_eq!(h.count(), 10);
    assert_eq!(h.quantile(0.1), Duration::from_micros(1));
    assert_eq!(h.quantile(0.5), Duration::from_micros(5));
    assert_eq!(h.quantile(1.0), Duration::from_micros(10));
}

#[test]
fn histogram_quantiles_bound_relative_error() {
    // Log-bucketed values keep ≤ 1/16 relative quantile error.
    let h = LogHistogram::default();
    for i in 0..1000u64 {
        h.record(Duration::from_micros(1 + i * 137));
    }
    for q in [0.5f64, 0.9, 0.99] {
        let exact = 1 + ((q * 1000.0).ceil() as u64 - 1) * 137;
        let approx = h.quantile(q).as_micros() as f64;
        let rel = (approx - exact as f64) / exact as f64;
        assert!(
            (0.0..=1.0 / 16.0 + 1e-9).contains(&rel),
            "q={q}: exact {exact}, approx {approx}, rel {rel}"
        );
    }
}

#[test]
fn histogram_edge_cases() {
    let h = LogHistogram::default();
    assert_eq!(h.count(), 0);
    assert_eq!(h.quantile(0.5), Duration::ZERO, "empty histogram is zero");
    h.record(Duration::ZERO);
    h.record(Duration::from_secs(u64::MAX / 2_000_000));
    assert_eq!(h.count(), 2);
    assert_eq!(h.quantile(0.5), Duration::ZERO);
    assert!(h.quantile(1.0) >= Duration::from_secs(1), "huge value kept");
    // Quantiles are monotone in q.
    assert!(h.quantile(0.25) <= h.quantile(0.75));
}

#[test]
fn shard_table_grows_on_demand_and_aggregates() {
    let m = Metrics::default();
    let est = |cycles, dram| HwEstimate {
        cycles,
        dram_bytes: dram,
    };
    // Shards recorded out of order; the table must cover 0..=2.
    m.record_shard_batch(2, 3, 5, est(100, 1000));
    m.record_shard_batch(0, 1, 0, est(40, 400));
    m.record_shard_batch(2, 2, 1, est(60, 600));
    m.record_logits_invalidations(1, 7);

    let r = m.report(Duration::from_secs(1), 0, 0);
    assert_eq!(r.shards.len(), 3, "slots 0..=2 materialized");
    let s = |i: usize| &r.shards[i];
    assert_eq!(s(2).requests, 5);
    assert_eq!(s(2).batches, 2);
    assert_eq!(s(2).halo_rows, 6);
    assert_eq!(s(2).est_cycles, 160);
    assert_eq!(s(2).est_dram_bytes, 1600);
    assert_eq!(s(0).requests, 1);
    assert_eq!(s(1).logits_invalidations, 7);
    assert_eq!(s(1).batches, 0);
    // Global totals equal per-shard sums.
    assert_eq!(r.halo_rows, r.shards.iter().map(|s| s.halo_rows).sum());
    assert_eq!(r.est_cycles, 200);
    assert_eq!(r.est_dram_bytes, 2000);
}

#[test]
fn logits_counters_partition_completed_requests() {
    let m = Metrics::default();
    // 3 hits and 2 misses across two shards, plus evictions/invalidations.
    m.record_logits_lookup(0, true);
    m.record_logits_lookup(0, true);
    m.record_logits_lookup(1, true);
    m.record_logits_lookup(0, false);
    m.record_logits_lookup(1, false);
    m.record_logits_evictions(1, 4);
    m.record_logits_evictions(1, 0); // no-op, must not create noise
    m.record_logits_invalidations(0, 2);
    m.record_logits_invalidations(0, 0); // no-op

    let r = m.report(Duration::from_secs(1), 0, 0);
    assert_eq!(r.logits_hits, 3);
    assert_eq!(r.logits_misses, 2);
    assert!((r.logits_hit_rate - 0.6).abs() < 1e-9);
    assert_eq!(r.logits_evictions, 4);
    assert_eq!(r.logits_invalidations, 2);
    // Per-shard split sums to the totals.
    assert_eq!(r.shards.len(), 2);
    assert_eq!(r.shards[0].logits_hits, 2);
    assert_eq!(r.shards[0].logits_misses, 1);
    assert_eq!(r.shards[1].logits_hits, 1);
    assert_eq!(r.shards[1].logits_evictions, 4);
    assert_eq!(r.shards[0].logits_invalidations, 2);
    assert_eq!(
        r.logits_hits + r.logits_misses,
        r.shards
            .iter()
            .map(|s| s.logits_hits + s.logits_misses)
            .sum()
    );
}

#[test]
fn hit_rates_handle_empty_denominators() {
    let m = Metrics::default();
    let r = m.report(Duration::from_secs(1), 0, 0);
    assert_eq!(r.logits_hit_rate, 0.0);
    assert_eq!(r.cache_hit_rate, 0.0);
    assert_eq!(r.throughput_rps, 0.0);
    assert_eq!(r.avg_batch, 0.0);
    // Zero elapsed must not divide by zero either.
    let r = m.report(Duration::ZERO, 1, 1);
    assert_eq!(r.throughput_rps, 0.0);
    assert!((r.cache_hit_rate - 0.5).abs() < 1e-9);
}

#[test]
fn update_and_batch_counters_aggregate() {
    let m = Metrics::default();
    m.submitted.fetch_add(6, Ordering::Relaxed);
    for _ in 0..3 {
        m.record_response(2, Duration::from_millis(1));
    }
    m.record_response(8, Duration::from_millis(9));
    m.record_batch(3, 90, Duration::from_micros(400));
    m.record_batch(1, 10, Duration::from_micros(100));
    m.record_update(true, 2, 11);
    m.record_update(true, 0, 3);
    m.record_update(false, 5, 99); // rejected: retier/rows must NOT count
    let r = m.report(Duration::from_secs(2), 0, 0);
    assert_eq!(r.submitted, 6);
    assert_eq!(r.completed, 4);
    assert!((r.throughput_rps - 2.0).abs() < 1e-9);
    assert_eq!(r.per_bits, vec![(2, 3), (8, 1)]);
    assert_eq!(r.batches, 2);
    assert!((r.avg_batch - 2.0).abs() < 1e-9);
    assert_eq!(r.rows_computed, 100);
    assert_eq!(r.updates_applied, 2);
    assert_eq!(r.updates_failed, 1);
    assert_eq!(r.nodes_retiered, 2);
    assert_eq!(r.rows_refreshed, 14);
}

#[test]
fn rendered_report_covers_every_section() {
    let m = Metrics::default();
    m.submitted.fetch_add(1, Ordering::Relaxed);
    m.record_response(2, Duration::from_millis(1));
    m.record_batch(1, 10, Duration::from_micros(50));
    m.updates_submitted.fetch_add(1, Ordering::Relaxed);
    m.record_update(true, 1, 2);
    m.record_logits_lookup(0, true);
    m.record_shard_batch(
        0,
        1,
        0,
        HwEstimate {
            cycles: 10,
            dram_bytes: 100,
        },
    );
    let text = m.report(Duration::from_secs(1), 2, 1).to_string();
    for needle in [
        "requests",
        "throughput",
        "latency",
        "batches",
        "updates",
        "hw model",
        "halo",
        "logits",
        "shard 0",
        "cache",
    ] {
        assert!(text.contains(needle), "report misses section {needle:?}");
    }
    assert!(text.contains("100.0% hit rate"), "logits hit rate rendered");
}
