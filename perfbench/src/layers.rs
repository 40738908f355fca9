//! Per-layer numbers: engine counters read around the timed phase, spans
//! built from the flight recorder's stage stamps, and single-target
//! replays of the layer calls on private artifacts.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

use mega_gnn::ReceptiveField;
use mega_graph::GraphDelta;
use mega_serve::shard::estimate_batch_hw;
use mega_serve::worker::shard_logits_with_field;
use mega_serve::{ModelArtifacts, ModelMemory, TraceRecord, TraceStage};

use crate::report::MetricSet;
use crate::spans::SpanLog;
use crate::stats::{histogram_delta_quantile, Samples};
use crate::workloads::{ClientRecord, Served};

/// Engine and ingress counters at one instant.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    batches: u64,
    batched: u64,
    rows: u64,
    size_flushes: u64,
    deadline_flushes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    updates: u64,
    rows_refreshed: u64,
    halo_fetches: u64,
    halo_rows: u64,
    retiered: u64,
    est_cycles: u64,
    est_dram: u64,
    exec_us: u64,
    /// `buckets()` of the queue_wait, batch_wait, execute and deliver
    /// stage histograms.
    stages: Vec<Vec<(u64, u64)>>,
    http: [u64; 3],
}

impl Counters {
    pub fn read(served: &Served) -> Self {
        let m = served.engine.metrics();
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        let http = served.http.as_ref().map_or([0; 3], |h| {
            let s = h.stats();
            [load(&s.requests), load(&s.errors), load(&s.shed)]
        });
        Self {
            batches: load(&m.batches),
            batched: load(&m.batched_requests),
            rows: load(&m.rows_computed),
            size_flushes: load(&m.size_flushes),
            deadline_flushes: load(&m.deadline_flushes),
            hits: load(&m.logits_hits),
            misses: load(&m.logits_misses),
            evictions: load(&m.logits_evictions),
            invalidations: load(&m.logits_invalidations),
            updates: load(&m.updates_applied),
            rows_refreshed: load(&m.rows_refreshed),
            halo_fetches: load(&m.halo_fetches),
            halo_rows: load(&m.halo_rows),
            retiered: load(&m.nodes_retiered),
            est_cycles: load(&m.est_cycles),
            est_dram: load(&m.est_dram_bytes),
            exec_us: m.execution.sum_us(),
            stages: m
                .trace
                .stage_histograms()
                .iter()
                .map(|(_, h)| h.buckets().collect())
                .collect(),
            http,
        }
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// The counter-derived per-layer metrics over the window `[before, after]`.
pub fn engine_layers(set: &mut MetricSet, before: &Counters, after: &Counters, http: bool) {
    let d = |f: fn(&Counters) -> u64| f(after) - f(before);
    let stage = |i: usize| histogram_delta_quantile(&before.stages[i], &after.stages[i], 0.5);
    set.stat("scheduler.queue_wait_p50_ms", stage(0), 1e-3);
    set.stat("worker.batch_wait_p50_ms", stage(1), 1e-3);
    set.stat("worker.execute_p50_ms", stage(2), 1e-3);
    set.stat("worker.deliver_p50_ms", stage(3), 1e-3);

    let batches = d(|c| c.batches);
    set.set_opt("scheduler.batch_mean", ratio(d(|c| c.batched), batches));
    let flushes = d(|c| c.size_flushes) + d(|c| c.deadline_flushes);
    set.set_opt(
        "scheduler.deadline_flush_frac",
        ratio(d(|c| c.deadline_flushes), flushes),
    );
    set.set_opt("worker.rows_per_batch", ratio(d(|c| c.rows), batches));
    set.set_opt(
        "shard.halo_rows_per_batch",
        ratio(d(|c| c.halo_rows), batches),
    );
    set.set_opt(
        "accel.est_cycles_per_batch",
        ratio(d(|c| c.est_cycles), batches),
    );
    set.set_opt(
        "accel.est_dram_bytes_per_batch",
        ratio(d(|c| c.est_dram), batches),
    );
    set.set_opt(
        "accel.cycles_per_exec_us",
        ratio(d(|c| c.est_cycles), d(|c| c.exec_us)),
    );

    set.set_opt(
        "logits.hit_ratio",
        ratio(d(|c| c.hits), d(|c| c.hits) + d(|c| c.misses)),
    );
    set.set("logits.evictions", d(|c| c.evictions) as f64);
    let updates = d(|c| c.updates);
    set.set_opt(
        "logits.invalidations_per_update",
        ratio(d(|c| c.invalidations), updates),
    );
    set.set_opt(
        "cache.rows_refreshed_per_update",
        ratio(d(|c| c.rows_refreshed), updates),
    );
    set.set_opt(
        "cache.halo_fetches_per_update",
        ratio(d(|c| c.halo_fetches), updates),
    );
    if updates > 0 {
        set.set("cache.retiered", d(|c| c.retiered) as f64);
    }
    if http {
        for (i, name) in ["http.requests", "http.errors", "http.shed"]
            .into_iter()
            .enumerate()
        {
            set.set(name, (after.http[i] - before.http[i]) as f64);
        }
    }
}

/// Bytes per node of each counted component, and resident memory no
/// component accounts for.
pub fn memory_layers(set: &mut MetricSet, memory: &ModelMemory, rss_bytes: u64) {
    let per_node = |bytes: usize| bytes as f64 / memory.nodes as f64;
    set.set(
        "memory.features_bytes_per_node",
        per_node(memory.features_bytes),
    );
    set.set(
        "memory.adjacency_bytes_per_node",
        per_node(memory.adjacency_bytes),
    );
    set.set("memory.shard_bytes_per_node", per_node(memory.shard_bytes));
    set.set(
        "memory.logits_bytes_per_node",
        per_node(memory.logits_bytes),
    );
    set.set(
        "memory.unattributed_mb",
        (rss_bytes as f64 - memory.total_bytes() as f64) / 1e6,
    );
}

/// Stage spans under `engine.request`: `(name, from, to)`.
const STAGE_SPANS: &[(&str, TraceStage, TraceStage)] = &[
    ("engine.admit", TraceStage::Ingress, TraceStage::Submitted),
    ("logits.hit", TraceStage::Submitted, TraceStage::CacheHit),
    ("scheduler.queue", TraceStage::Enqueued, TraceStage::Flushed),
    (
        "worker.batch_wait",
        TraceStage::Flushed,
        TraceStage::ExecStart,
    ),
    ("worker.execute", TraceStage::ExecStart, TraceStage::ExecEnd),
    (
        "worker.post_exec",
        TraceStage::ExecEnd,
        TraceStage::CacheFill,
    ),
    (
        "worker.respond",
        TraceStage::CacheFill,
        TraceStage::Delivered,
    ),
];

/// Builds one span tree per client operation: the client's own span, the
/// engine's request span from its `TraceRecord` (same id), and a child per
/// stamped stage. Returns the number of predicts with no engine record.
///
/// In process, a trace starts inside `submit`, so the engine span starts
/// at the client's submit instant. Over HTTP the trace starts after the
/// request is parsed; its span is centred in the client's round trip, and
/// the rest of the round trip is the wire time.
pub fn request_spans(
    log: &mut SpanLog,
    set: &mut MetricSet,
    records: &[ClientRecord],
    traces: Vec<TraceRecord>,
    http: bool,
) -> usize {
    let traces: HashMap<u64, TraceRecord> = traces.into_iter().map(|r| (r.id, r)).collect();
    let (mut wire_ms, mut wake_us, mut missing) = (Vec::new(), Vec::new(), 0);
    for record in records {
        let (submit, done) = (log.us(record.submit), log.us(record.done));
        let name = if record.engine_latency.is_some() {
            "client.update"
        } else {
            "client.predict"
        };
        let root = log.push(name, submit, done, None, record.id);
        if let Some(latency) = record.engine_latency {
            log.push(
                "engine.update",
                submit,
                submit + latency.as_secs_f64() * 1e6,
                Some(root),
                record.id,
            );
            continue;
        }
        let Some(trace) = traces.get(&record.id) else {
            missing += 1;
            continue;
        };
        let total = trace.total_us as f64;
        let anchor = if http {
            submit + (done - submit - total) / 2.0
        } else {
            submit
        };
        let engine = log.push(
            "engine.request",
            anchor,
            anchor + total,
            Some(root),
            record.id,
        );
        for &(name, from, to) in STAGE_SPANS {
            if let (Some(a), Some(b)) = (trace.trace.offset_us(from), trace.trace.offset_us(to)) {
                log.push(
                    name,
                    anchor + a as f64,
                    anchor + b as f64,
                    Some(engine),
                    record.id,
                );
            }
        }
        if http {
            wire_ms.push((done - submit - total) / 1e3);
        } else if log.us(record.wait) < anchor + total {
            // The client was already waiting when the answer arrived.
            wake_us.push(done - (anchor + total));
        }
    }
    set.stat("http.wire_p50_ms", Samples::new(wire_ms).median(), 1.0);
    set.stat("ticket.wake_p50_us", Samples::new(wake_us).median(), 1.0);
    missing
}

/// Replays `targets` one per call through the layer entry points the
/// workers use, on private artifacts, single-threaded.
pub fn replay_targets(
    log: &mut SpanLog,
    set: &mut MetricSet,
    artifacts: &ModelArtifacts,
    targets: &[u32],
) {
    let layers = artifacts.model.config().layers;
    let (mut expand, mut forward, mut rows, mut hw, mut halo) =
        (vec![], vec![], vec![], vec![], vec![]);
    for &target in targets {
        let start = Instant::now();
        let root = log.push("replay.target", log.us(start), log.us(start), None, 0);
        let (_, s) = log.time("gnn.expand", Some(root), 0, || {
            std::hint::black_box(ReceptiveField::expand(
                &artifacts.adjacency,
                &[target],
                layers,
            ))
        });
        expand.push(log.duration_ms(s));
        let shard = artifacts.shard_of(target);
        let ((logits, field), s) = log.time("gnn.forward", Some(root), 0, || {
            shard_logits_with_field(artifacts, shard, &[target])
        });
        std::hint::black_box(logits);
        forward.push(log.duration_ms(s));
        rows.push(field.total_rows() as f64);
        let state = artifacts.shard(shard).expect("the target's shard exists");
        let (_, s) = log.time("shard.hw_estimate", Some(root), 0, || {
            std::hint::black_box(estimate_batch_hw(
                state,
                &field,
                artifacts.model.config(),
                artifacts.weight_bits,
                artifacts.dataset.spec.feature_density,
                |v| artifacts.node_bits(v),
            ))
        });
        hw.push(log.duration_ms(s));
        let (_, s) = log.time("shard.halo_rows_in", Some(root), 0, || {
            std::hint::black_box(state.halo_rows_in(&field))
        });
        halo.push(log.duration_ms(s) * 1e3);
        log.spans[root].end_us = log.us(Instant::now());
    }
    set.stat("gnn.expand_ms", Samples::new(expand).median(), 1.0);
    set.stat("gnn.forward_ms", Samples::new(forward).median(), 1.0);
    set.stat("gnn.field_rows", Samples::new(rows).median(), 1.0);
    set.stat("shard.hw_estimate_ms", Samples::new(hw).median(), 1.0);
    set.stat("shard.halo_rows_in_us", Samples::new(halo).median(), 1.0);
}

/// Replays the update edges in order, timing `apply_delta` and the
/// invalidation closure of each edge's dirty rows (for GCN: the
/// destination and its out-neighbours, whose normalisation depends on the
/// destination's degree).
pub fn replay_updates(
    log: &mut SpanLog,
    set: &mut MetricSet,
    artifacts: &mut ModelArtifacts,
    edges: &[(u32, u32)],
) -> Result<(), String> {
    let (mut apply, mut closure) = (vec![], vec![]);
    for &(src, dst) in edges {
        let start = Instant::now();
        let root = log.push("replay.update", log.us(start), log.us(start), None, 0);
        let mut seeds = vec![dst];
        seeds.extend_from_slice(artifacts.graph.out_neighbors(dst as usize));
        let (_, s) = log.time("cache.invalidation_closure", Some(root), 0, || {
            std::hint::black_box(artifacts.invalidation_closure(&seeds))
        });
        closure.push(log.duration_ms(s));
        let mut delta = GraphDelta::new();
        delta.insert_edge(src, dst);
        let (result, s) = log.time("cache.apply_delta", Some(root), 0, || {
            artifacts.apply_delta(&delta, &[])
        });
        result?;
        apply.push(log.duration_ms(s));
        log.spans[root].end_us = log.us(Instant::now());
    }
    set.stat("cache.apply_delta_ms", Samples::new(apply).median(), 1.0);
    set.stat(
        "cache.invalidation_closure_ms",
        Samples::new(closure).median(),
        1.0,
    );
    Ok(())
}

/// CPU seconds (user + system) this process has used, all threads
/// included. The kernel charges time the hypervisor steals to the
/// machine's steal counter, not to tasks, so this does not grow with
/// steal the way wall time does.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15, in USER_HZ (100/s) ticks.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .expect("a stat line names its command")
        .1
        .split_whitespace()
        .collect();
    let ticks = |field: usize| -> u64 { fields[field - 3].parse().expect("a tick count") };
    (ticks(14) + ticks(15)) as f64 / 100.0
}

/// `(total, steal)` CPU ticks of the whole machine from `/proc/stat`:
/// steal is time the hypervisor ran other guests on this guest's CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}
