//! Serving metrics: throughput, latency percentiles, per-bitwidth request
//! counts, batch/cache accounting, per-shard cross-shard reads, and
//! the analytic MEGA hardware-cost estimate. All counters are atomics;
//! the only lock is the read-mostly `RwLock` around the grow-on-demand
//! per-shard table, so worker lanes recording batches never serialize on
//! each other once a shard's slot exists.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::RwLock;

use crate::poison::LockRecoverExt;
use std::time::Duration;

use crate::shard::HwEstimate;
use crate::trace::Tracer;

/// Sub-bucket resolution bits of the log histogram (HdrHistogram-style).
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Exact buckets below `SUBS`, then 16 sub-buckets per power of two up to
/// `u64::MAX` microseconds.
const BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// A concurrent logarithmic histogram of microsecond values with ≤ ~6%
/// relative quantile error.
pub struct LogHistogram {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

fn bucket_of(us: u64) -> usize {
    if us < SUBS as u64 {
        us as usize
    } else {
        let exp = 63 - us.leading_zeros(); // >= SUB_BITS
        let group = (exp - SUB_BITS + 1) as usize;
        let sub = ((us >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        group * SUBS + sub
    }
}

/// Upper bound (inclusive) of a bucket, in microseconds.
fn bucket_upper(index: usize) -> u64 {
    if index < SUBS {
        index as u64
    } else {
        let group = (index / SUBS) as u32;
        let sub = (index % SUBS) as u64;
        let width = 1u64 << (group - 1);
        // The top bucket's upper bound is exactly u64::MAX; adding before
        // subtracting would overflow, so saturate.
        (SUBS as u64 + sub)
            .saturating_mul(width)
            .saturating_add(width - 1)
    }
}

impl LogHistogram {
    /// Records one duration.
    pub fn record(&self, value: Duration) {
        let us = value.as_micros().min(u64::MAX as u128) as u64;
        self.counts[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of recorded values in microseconds (the Prometheus `_sum`
    /// series companion to [`LogHistogram::buckets`]).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// `(upper_bound_us, count)` for every *non-empty* bucket, ascending.
    /// Counts are per-bucket (not cumulative); the Prometheus renderer
    /// accumulates them into `_bucket{le=...}` series. Skipping empty
    /// buckets is what keeps a 976-bucket histogram's exposition small.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().enumerate().filter_map(|(i, c)| {
            let count = c.load(Ordering::Relaxed);
            (count > 0).then(|| (bucket_upper(i), count))
        })
    }

    /// The `q`-quantile (`0 < q <= 1`) as a duration upper bound, or zero
    /// when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                return Duration::from_micros(bucket_upper(i));
            }
        }
        Duration::from_micros(bucket_upper(BUCKETS - 1))
    }
}

/// Per-shard serving counters. Shards of different models sharing an index
/// aggregate into the same slot (the engine-wide view; per-model shard
/// state lives in the artifacts).
#[derive(Default)]
pub struct ShardStat {
    /// Requests answered for nodes this shard owns.
    pub requests: AtomicU64,
    /// Batches executed for this shard.
    pub batches: AtomicU64,
    /// Receptive-field rows owned by other shards (cross-shard reads on
    /// the batch path).
    pub halo_rows: AtomicU64,
    /// Requests answered from this shard's logits cache (no forward pass).
    pub logits_hits: AtomicU64,
    /// Requests answered by a forward pass (logits-cache misses).
    pub logits_misses: AtomicU64,
    /// Logits-cache entries evicted under byte-budget pressure.
    pub logits_evictions: AtomicU64,
    /// Logits-cache entries dropped by delta-precise invalidation.
    pub logits_invalidations: AtomicU64,
    /// Estimated MEGA cycles across this shard's batches.
    pub est_cycles: AtomicU64,
    /// Estimated DRAM bytes across this shard's batches.
    pub est_dram_bytes: AtomicU64,
}

/// Per-worker counters (lane `i` belongs to worker `i`): utilization
/// (busy time), item throughput, kernel scratch and liveness.
#[derive(Default)]
pub struct LaneStat {
    /// Cumulative time the lane spent processing items, microseconds.
    pub busy_us: AtomicU64,
    /// Work items the lane finished (batches + update tokens).
    pub items: AtomicU64,
    /// Bytes the lane's kernel arena keeps reserved (its
    /// `KernelArena::scratch_bytes`), set after every batch. Worker
    /// scratch, not model state: `ModelMemory` does not count it.
    pub arena_bytes: AtomicU64,
    /// Cleared when the lane's thread exits (normal shutdown drain or a
    /// panic — `/healthz` distinguishes the two by whether the engine is
    /// shutting down).
    pub alive: AtomicBool,
}

/// One lane's counters as [`Metrics::lane_snapshot`] reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// [`LaneStat::busy_us`].
    pub busy_us: u64,
    /// [`LaneStat::items`].
    pub items: u64,
    /// [`LaneStat::arena_bytes`].
    pub arena_bytes: u64,
    /// [`LaneStat::alive`].
    pub alive: bool,
}

/// Aggregate serving counters. All methods are safe to call concurrently
/// from every worker and the submitting thread.
#[derive(Default)]
pub struct Metrics {
    /// Requests accepted by the engine.
    pub submitted: AtomicU64,
    /// Requests answered.
    pub completed: AtomicU64,
    /// Batches executed.
    pub batches: AtomicU64,
    /// Sum of batch sizes (for average batch size).
    pub batched_requests: AtomicU64,
    /// Receptive-field rows materialized across all batches (compute proxy).
    pub rows_computed: AtomicU64,
    /// Batches flushed because they reached full size.
    pub size_flushes: AtomicU64,
    /// Batches that left the work queue at their deadline.
    pub deadline_flushes: AtomicU64,
    /// Times a worker woke from the work-queue condvar (for a submit, a
    /// batch deadline or a hand-off). Workers park while the queue is
    /// empty, so an idle engine records ~0/s.
    pub queue_wakeups: AtomicU64,
    /// Submit-to-response latency distribution.
    pub latency: LogHistogram,
    /// Per-batch execution time distribution.
    pub execution: LogHistogram,
    /// Requests served at each bitwidth (index = bits, 1..=8).
    pub per_bits: [AtomicU64; 9],
    /// Graph updates accepted by the engine.
    pub updates_submitted: AtomicU64,
    /// Graph updates applied.
    pub updates_applied: AtomicU64,
    /// Graph updates rejected (invalid delta or payload).
    pub updates_failed: AtomicU64,
    /// Nodes whose serving precision changed across all updates.
    pub nodes_retiered: AtomicU64,
    /// Adjacency rows incrementally refreshed across all updates (the
    /// mutation-cost proxy, mirroring `rows_computed` for inference).
    pub rows_refreshed: AtomicU64,
    /// Always 0: shards hold no halo copies, so updates fetch nothing.
    /// Kept for existing readers of the field.
    pub halo_fetches: AtomicU64,
    /// Receptive-field rows owned by another shard than the batch's,
    /// across all batches.
    pub halo_rows: AtomicU64,
    /// Requests answered from a logits cache across all shards. Together
    /// with `logits_misses` this partitions completed inference requests:
    /// every answered request is exactly one of the two.
    pub logits_hits: AtomicU64,
    /// Requests answered by a forward pass across all shards.
    pub logits_misses: AtomicU64,
    /// Logits-cache entries evicted under byte-budget pressure.
    pub logits_evictions: AtomicU64,
    /// Logits-cache entries dropped by delta-precise invalidation.
    pub logits_invalidations: AtomicU64,
    /// Estimated MEGA cycles across all batches (hardware-model feedback).
    pub est_cycles: AtomicU64,
    /// Estimated DRAM bytes across all batches.
    pub est_dram_bytes: AtomicU64,
    /// Per-shard counters, grown on demand behind a read-mostly lock.
    shards: RwLock<Vec<Arc<ShardStat>>>,
    /// Per-worker-lane counters, grown on demand like `shards`.
    lanes: RwLock<Vec<Arc<LaneStat>>>,
    /// The request-lifecycle tracing sink: per-stage histograms plus the
    /// flight recorder ([`crate::trace`]).
    pub trace: Tracer,
}

impl Metrics {
    /// Metrics with explicit flight-recorder knobs (the engine passes
    /// [`crate::ServeConfig::trace`] through here; `Metrics::default()`
    /// uses [`crate::TraceConfig::default`]).
    pub fn with_trace(config: &crate::trace::TraceConfig) -> Self {
        Self {
            trace: Tracer::new(config),
            ..Self::default()
        }
    }
}

impl Metrics {
    /// Records one answered request.
    pub fn record_response(&self, bits: u8, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency);
        self.per_bits[(bits as usize).min(8)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executed batch.
    pub fn record_batch(&self, size: usize, rows: usize, execution: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        self.rows_computed.fetch_add(rows as u64, Ordering::Relaxed);
        self.execution.record(execution);
    }

    /// Records one processed graph update.
    pub fn record_update(&self, applied: bool, retiered: usize, dirty_rows: usize) {
        if applied {
            self.updates_applied.fetch_add(1, Ordering::Relaxed);
            self.nodes_retiered
                .fetch_add(retiered as u64, Ordering::Relaxed);
            self.rows_refreshed
                .fetch_add(dirty_rows as u64, Ordering::Relaxed);
        } else {
            self.updates_failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The counters of `shard`, growing the table on first sight. The
    /// common case (slot exists) takes only a read lock, so concurrent
    /// worker lanes do not serialize against each other.
    pub fn shard_stat(&self, shard: u32) -> Arc<ShardStat> {
        {
            let shards = self.shards.read().recover("shard-metrics");
            if let Some(stat) = shards.get(shard as usize) {
                return stat.clone();
            }
        }
        let mut shards = self.shards.write().recover("shard-metrics");
        while shards.len() <= shard as usize {
            shards.push(Arc::new(ShardStat::default()));
        }
        shards[shard as usize].clone()
    }

    /// The counters of worker lane `lane`, growing the table on first
    /// sight (same read-mostly pattern as [`Metrics::shard_stat`]).
    pub fn lane_stat(&self, lane: usize) -> Arc<LaneStat> {
        {
            let lanes = self.lanes.read().recover("lane-metrics");
            if let Some(stat) = lanes.get(lane) {
                return stat.clone();
            }
        }
        let mut lanes = self.lanes.write().recover("lane-metrics");
        while lanes.len() <= lane {
            lanes.push(Arc::new(LaneStat::default()));
        }
        lanes[lane].clone()
    }

    /// Snapshot of every lane's counters, indexed by lane.
    pub fn lane_snapshot(&self) -> Vec<LaneSnapshot> {
        self.lanes
            .read()
            .recover("lane-metrics")
            .iter()
            .map(|l| LaneSnapshot {
                busy_us: l.busy_us.load(Ordering::Relaxed),
                items: l.items.load(Ordering::Relaxed),
                arena_bytes: l.arena_bytes.load(Ordering::Relaxed),
                alive: l.alive.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Records one batch executed for a shard.
    pub fn record_shard_batch(&self, shard: u32, size: usize, halo_rows: usize, est: HwEstimate) {
        self.halo_rows
            .fetch_add(halo_rows as u64, Ordering::Relaxed);
        self.est_cycles.fetch_add(est.cycles, Ordering::Relaxed);
        self.est_dram_bytes
            .fetch_add(est.dram_bytes, Ordering::Relaxed);
        let stat = self.shard_stat(shard);
        stat.requests.fetch_add(size as u64, Ordering::Relaxed);
        stat.batches.fetch_add(1, Ordering::Relaxed);
        stat.halo_rows
            .fetch_add(halo_rows as u64, Ordering::Relaxed);
        stat.est_cycles.fetch_add(est.cycles, Ordering::Relaxed);
        stat.est_dram_bytes
            .fetch_add(est.dram_bytes, Ordering::Relaxed);
    }

    /// Records where one answered request's logits came from: the shard's
    /// logits cache (`hit`) or a forward pass. Called once per completed
    /// inference request, so hits + misses = completed and the hit rate is
    /// the fraction of traffic that skipped the forward pass entirely.
    pub fn record_logits_lookup(&self, shard: u32, hit: bool) {
        let stat = self.shard_stat(shard);
        if hit {
            self.logits_hits.fetch_add(1, Ordering::Relaxed);
            stat.logits_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.logits_misses.fetch_add(1, Ordering::Relaxed);
            stat.logits_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records logits-cache entries evicted by an insert (byte-budget
    /// pressure).
    pub fn record_logits_evictions(&self, shard: u32, evicted: usize) {
        if evicted == 0 {
            return;
        }
        self.logits_evictions
            .fetch_add(evicted as u64, Ordering::Relaxed);
        self.shard_stat(shard)
            .logits_evictions
            .fetch_add(evicted as u64, Ordering::Relaxed);
    }

    /// Records logits-cache entries dropped by one delta's precise
    /// invalidation on one shard.
    pub fn record_logits_invalidations(&self, shard: u32, invalidated: usize) {
        if invalidated == 0 {
            return;
        }
        self.logits_invalidations
            .fetch_add(invalidated as u64, Ordering::Relaxed);
        self.shard_stat(shard)
            .logits_invalidations
            .fetch_add(invalidated as u64, Ordering::Relaxed);
    }

    /// Point-in-time summary. `elapsed` is the serving wall-clock window;
    /// cache counters come from the artifact cache.
    pub fn report(&self, elapsed: Duration, cache_hits: u64, cache_misses: u64) -> MetricsReport {
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let lookups = cache_hits + cache_misses;
        MetricsReport {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            throughput_rps: if elapsed.as_secs_f64() > 0.0 {
                completed as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            p50: self.latency.quantile(0.50),
            p95: self.latency.quantile(0.95),
            p99: self.latency.quantile(0.99),
            exec_p50: self.execution.quantile(0.50),
            batches,
            avg_batch: if batches > 0 {
                self.batched_requests.load(Ordering::Relaxed) as f64 / batches as f64
            } else {
                0.0
            },
            rows_computed: self.rows_computed.load(Ordering::Relaxed),
            size_flushes: self.size_flushes.load(Ordering::Relaxed),
            deadline_flushes: self.deadline_flushes.load(Ordering::Relaxed),
            queue_wakeups: self.queue_wakeups.load(Ordering::Relaxed),
            per_bits: (1..=8)
                .map(|b| (b as u8, self.per_bits[b].load(Ordering::Relaxed)))
                .filter(|&(_, n)| n > 0)
                .collect(),
            updates_submitted: self.updates_submitted.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            updates_failed: self.updates_failed.load(Ordering::Relaxed),
            nodes_retiered: self.nodes_retiered.load(Ordering::Relaxed),
            rows_refreshed: self.rows_refreshed.load(Ordering::Relaxed),
            halo_rows: self.halo_rows.load(Ordering::Relaxed),
            logits_hits: self.logits_hits.load(Ordering::Relaxed),
            logits_misses: self.logits_misses.load(Ordering::Relaxed),
            logits_hit_rate: {
                let hits = self.logits_hits.load(Ordering::Relaxed);
                let lookups = hits + self.logits_misses.load(Ordering::Relaxed);
                if lookups > 0 {
                    hits as f64 / lookups as f64
                } else {
                    0.0
                }
            },
            logits_evictions: self.logits_evictions.load(Ordering::Relaxed),
            logits_invalidations: self.logits_invalidations.load(Ordering::Relaxed),
            est_cycles: self.est_cycles.load(Ordering::Relaxed),
            est_dram_bytes: self.est_dram_bytes.load(Ordering::Relaxed),
            shards: self
                .shards
                .read()
                .recover("shard-metrics")
                .iter()
                .enumerate()
                .map(|(i, s)| ShardReport {
                    shard: i as u32,
                    requests: s.requests.load(Ordering::Relaxed),
                    batches: s.batches.load(Ordering::Relaxed),
                    halo_rows: s.halo_rows.load(Ordering::Relaxed),
                    logits_hits: s.logits_hits.load(Ordering::Relaxed),
                    logits_misses: s.logits_misses.load(Ordering::Relaxed),
                    logits_evictions: s.logits_evictions.load(Ordering::Relaxed),
                    logits_invalidations: s.logits_invalidations.load(Ordering::Relaxed),
                    est_cycles: s.est_cycles.load(Ordering::Relaxed),
                    est_dram_bytes: s.est_dram_bytes.load(Ordering::Relaxed),
                })
                .collect(),
            cache_hits,
            cache_misses,
            cache_hit_rate: if lookups > 0 {
                cache_hits as f64 / lookups as f64
            } else {
                0.0
            },
        }
    }
}

/// Point-in-time per-shard counters inside a [`MetricsReport`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u32,
    /// Requests answered for nodes this shard owns.
    pub requests: u64,
    /// Batches executed for this shard.
    pub batches: u64,
    /// Receptive-field rows owned by other shards.
    pub halo_rows: u64,
    /// Requests answered from this shard's logits cache.
    pub logits_hits: u64,
    /// Requests answered by a forward pass on this shard.
    pub logits_misses: u64,
    /// Logits-cache entries evicted under byte pressure.
    pub logits_evictions: u64,
    /// Logits-cache entries dropped by delta invalidation.
    pub logits_invalidations: u64,
    /// Estimated MEGA cycles over this shard's batches.
    pub est_cycles: u64,
    /// Estimated DRAM bytes over this shard's batches.
    pub est_dram_bytes: u64,
}

/// A rendered snapshot of [`Metrics`].
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Requests accepted.
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Answered requests per second over the measurement window.
    pub throughput_rps: f64,
    /// Median submit-to-response latency.
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Median batch execution time.
    pub exec_p50: Duration,
    /// Batches executed.
    pub batches: u64,
    /// Mean requests per batch.
    pub avg_batch: f64,
    /// Receptive-field rows materialized (compute proxy).
    pub rows_computed: u64,
    /// Batches flushed at full size.
    pub size_flushes: u64,
    /// Batches flushed by deadline.
    pub deadline_flushes: u64,
    /// Worker wakeups from the work-queue condvar (see
    /// [`Metrics::queue_wakeups`]).
    pub queue_wakeups: u64,
    /// `(bits, requests)` pairs for every served bitwidth.
    pub per_bits: Vec<(u8, u64)>,
    /// Graph updates accepted.
    pub updates_submitted: u64,
    /// Graph updates applied.
    pub updates_applied: u64,
    /// Graph updates rejected.
    pub updates_failed: u64,
    /// Nodes whose serving precision changed.
    pub nodes_retiered: u64,
    /// Adjacency rows incrementally refreshed by updates.
    pub rows_refreshed: u64,
    /// Receptive-field rows owned by other shards, across batches.
    pub halo_rows: u64,
    /// Requests answered from a logits cache (no forward pass).
    pub logits_hits: u64,
    /// Requests answered by a forward pass.
    pub logits_misses: u64,
    /// `logits_hits` over all answered lookups (0.0 when none).
    pub logits_hit_rate: f64,
    /// Logits-cache entries evicted under byte pressure.
    pub logits_evictions: u64,
    /// Logits-cache entries dropped by delta-precise invalidation.
    pub logits_invalidations: u64,
    /// Estimated MEGA cycles across all batches.
    pub est_cycles: u64,
    /// Estimated DRAM bytes across all batches.
    pub est_dram_bytes: u64,
    /// Per-shard breakdown.
    pub shards: Vec<ShardReport>,
    /// Artifact-cache hits.
    pub cache_hits: u64,
    /// Artifact-cache misses (builds).
    pub cache_misses: u64,
    /// Hits over lookups.
    pub cache_hit_rate: f64,
}

impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests    {:>10} completed / {} submitted",
            self.completed, self.submitted
        )?;
        writeln!(f, "throughput  {:>10.0} req/s", self.throughput_rps)?;
        writeln!(
            f,
            "latency     p50 {:>8.3?}   p95 {:>8.3?}   p99 {:>8.3?}",
            self.p50, self.p95, self.p99
        )?;
        writeln!(
            f,
            "batches     {:>10} (avg {:.1} req/batch, exec p50 {:.3?}, {} size / {} deadline flushes)",
            self.batches, self.avg_batch, self.exec_p50, self.size_flushes, self.deadline_flushes
        )?;
        writeln!(
            f,
            "queue       {:>10} worker wakeups (scales with work, not wall-clock)",
            self.queue_wakeups
        )?;
        writeln!(
            f,
            "rows        {:>10} receptive-field rows",
            self.rows_computed
        )?;
        write!(f, "bits       ")?;
        for (bits, n) in &self.per_bits {
            write!(f, "  {bits}b:{n}")?;
        }
        writeln!(f)?;
        if self.updates_submitted > 0 {
            writeln!(
                f,
                "updates     {:>10} applied / {} submitted ({} rejected, {} nodes retiered, {} adjacency rows refreshed)",
                self.updates_applied,
                self.updates_submitted,
                self.updates_failed,
                self.nodes_retiered,
                self.rows_refreshed
            )?;
        }
        writeln!(
            f,
            "hw model    {:>10} est MEGA cycles / {} est DRAM bytes across batches",
            self.est_cycles, self.est_dram_bytes
        )?;
        writeln!(
            f,
            "halo        {:>10} cross-shard rows read",
            self.halo_rows
        )?;
        writeln!(
            f,
            "logits      {:>10.1}% hit rate ({} hits / {} misses, {} evicted, {} invalidated)",
            self.logits_hit_rate * 100.0,
            self.logits_hits,
            self.logits_misses,
            self.logits_evictions,
            self.logits_invalidations
        )?;
        for s in &self.shards {
            writeln!(
                f,
                "shard {:<5} {:>10} req / {} batches, {} halo rows, \
                 logits {}h/{}m/{}e/{}i, est {} cyc / {} B",
                s.shard,
                s.requests,
                s.batches,
                s.halo_rows,
                s.logits_hits,
                s.logits_misses,
                s.logits_evictions,
                s.logits_invalidations,
                s.est_cycles,
                s.est_dram_bytes
            )?;
        }
        write!(
            f,
            "cache       {:>10.1}% hit rate ({} hits / {} misses)",
            self.cache_hit_rate * 100.0,
            self.cache_hits,
            self.cache_misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut last = None;
        for us in [0u64, 1, 15, 16, 17, 100, 1_000, 65_535, 1 << 30, u64::MAX] {
            let b = bucket_of(us);
            assert!(b < BUCKETS, "bucket {b} out of range for {us}");
            assert!(bucket_upper(b) >= us, "upper({b}) < {us}");
            if let Some((prev_us, prev_b)) = last {
                assert!(b >= prev_b, "bucket not monotone: {prev_us}->{us}");
            }
            last = Some((us, b));
        }
    }

    #[test]
    fn bucket_upper_bounds_are_tight() {
        // Relative error of the upper bound stays within one sub-bucket.
        for us in [20u64, 333, 4_096, 100_000, 9_999_999] {
            let upper = bucket_upper(bucket_of(us));
            assert!(upper >= us);
            assert!(
                (upper - us) as f64 / us as f64 <= 1.0 / 16.0 + 1e-9,
                "error too large at {us}: upper {upper}"
            );
        }
    }

    /// Satellite coverage: `bucket_of`/`bucket_upper` round-trip exactly
    /// at the seams the encoding has — the exact-value range below
    /// `SUBS`, the first log group, every power-of-two boundary, and the
    /// saturating top bucket at `u64::MAX`.
    #[test]
    fn bucket_round_trips_at_boundaries() {
        // Exact range: every value below SUBS is its own bucket and its
        // own (tight) upper bound.
        for us in 0..SUBS as u64 {
            assert_eq!(bucket_of(us), us as usize);
            assert_eq!(bucket_upper(us as usize), us);
        }
        // The sub-bucket/group seam: SUBS-1 is the last exact bucket,
        // SUBS opens group 1 (width 1, still exact).
        assert_eq!(bucket_of(SUBS as u64 - 1), SUBS - 1);
        assert_eq!(bucket_of(SUBS as u64), SUBS);
        assert_eq!(bucket_upper(SUBS), SUBS as u64);
        // Every index's upper bound maps back into the same index, and
        // upper+1 opens the next bucket (round-trip at the boundary).
        for index in 0..BUCKETS - 1 {
            let upper = bucket_upper(index);
            assert_eq!(
                bucket_of(upper),
                index,
                "upper({index}) not in its own bucket"
            );
            assert_eq!(
                bucket_of(upper + 1),
                index + 1,
                "upper({index})+1 not in the next bucket"
            );
        }
        // Power-of-two boundaries land on a fresh sub-bucket (sub = 0).
        for exp in SUB_BITS..63 {
            let us = 1u64 << exp;
            assert_eq!(bucket_of(us) % SUBS, 0, "2^{exp} should open a sub-run");
            assert_eq!(bucket_of(us - 1), bucket_of(us) - 1);
        }
        // The top bucket saturates at exactly u64::MAX.
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_iteration_exposes_nonempty_buckets_in_order() {
        let h = LogHistogram::default();
        assert_eq!(h.buckets().count(), 0, "empty histogram exposes nothing");
        for us in [3u64, 3, 17, 100_000] {
            h.record(Duration::from_micros(us));
        }
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets.len(), 3, "duplicates share a bucket");
        assert!(
            buckets.windows(2).all(|w| w[0].0 < w[1].0),
            "upper bounds ascend"
        );
        assert_eq!(buckets[0], (3, 2));
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        assert_eq!(h.sum_us(), 3 + 3 + 17 + 100_000);
        // Every reported upper bound re-buckets to the bucket it labels.
        for &(upper, _) in &buckets {
            assert_eq!(bucket_upper(bucket_of(upper)), upper);
        }
    }

    #[test]
    fn lane_stats_grow_on_demand() {
        let m = Metrics::default();
        assert!(m.lane_snapshot().is_empty());
        m.lane_stat(2).busy_us.fetch_add(500, Ordering::Relaxed);
        m.lane_stat(2).alive.store(true, Ordering::Relaxed);
        m.lane_stat(0).items.fetch_add(1, Ordering::Relaxed);
        m.lane_stat(0).arena_bytes.store(4096, Ordering::Relaxed);
        let snapshot = m.lane_snapshot();
        assert_eq!(snapshot.len(), 3, "table grew to the highest lane");
        let lane = |busy_us, items, arena_bytes, alive| LaneSnapshot {
            busy_us,
            items,
            arena_bytes,
            alive,
        };
        assert_eq!(snapshot[0], lane(0, 1, 4096, false));
        assert_eq!(snapshot[2], lane(500, 0, 0, true));
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let h = LogHistogram::default();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        let p50 = h.quantile(0.50).as_millis() as f64;
        let p99 = h.quantile(0.99).as_millis() as f64;
        assert!((45.0..=56.0).contains(&p50), "p50 {p50}");
        assert!((90.0..=107.0).contains(&p99), "p99 {p99}");
        assert!(h.quantile(1.0) >= h.quantile(0.5));
    }

    #[test]
    fn report_aggregates_counters() {
        let m = Metrics::default();
        m.submitted.fetch_add(4, Ordering::Relaxed);
        m.record_response(2, Duration::from_millis(1));
        m.record_response(2, Duration::from_millis(2));
        m.record_response(6, Duration::from_millis(3));
        m.record_batch(3, 120, Duration::from_millis(2));
        let r = m.report(Duration::from_secs(1), 3, 1);
        assert_eq!(r.completed, 3);
        assert_eq!(r.per_bits, vec![(2, 2), (6, 1)]);
        assert!((r.throughput_rps - 3.0).abs() < 1e-9);
        assert!((r.cache_hit_rate - 0.75).abs() < 1e-9);
        assert_eq!(r.rows_computed, 120);
        assert!(!format!("{r}").is_empty());
    }
}
