//! Request-lifecycle tracing, the flight recorder, and process/memory
//! telemetry — the serve stack's observability layer.
//!
//! Every request carries a [`RequestTrace`]: a fixed array of monotonic
//! stage timestamps (microsecond offsets from the trace origin) stamped as
//! the request moves ingress → admission → submit → work queue →
//! worker → forward pass → cache fill → delivery. Stamping is one
//! `Instant::now()` plus an array store (batch-level stages share a single
//! clock read across the whole batch), so tracing is always on — the
//! measured overhead budget is ≤ 2% of closed-loop throughput
//! (`BENCH_pr6.json`).
//!
//! At completion the [`Tracer`] folds each trace into four per-stage
//! [`LogHistogram`]s (queue-wait, batch-wait, execute, deliver — the
//! decomposition of end-to-end latency that says *which* stage ate a p99
//! regression) and pushes a compact [`TraceRecord`] into the
//! [`FlightRecorder`]: a bounded ring of the last N completed request
//! timelines plus a separate always-retained ring of slow outliers
//! (latency above a configurable threshold). Each record is tagged with
//! model / shard / tier / batch size / cache-hit / worker lane, so a
//! degree-skew straggler (the AMPLE observation: one hub-tier batch
//! stalling a lane) is directly attributable from `GET /debug/requests`.
//!
//! Memory telemetry is std-only: [`process_memory`] parses
//! `VmRSS`/`VmHWM` out of `/proc/self/status` (the psutil/CUDA
//! memory-logging pattern translated to plain Linux procfs), and
//! [`ModelMemory`] aggregates per-model resident bytes from the
//! structures the artifact cache already owns (packed features,
//! adjacency, logits caches).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::sync::Mutex;

use crate::poison::LockRecoverExt;
use std::time::{Duration, Instant};

use crate::metrics::LogHistogram;
use crate::request::{InferenceResponse, ModelKey};

/// A stamp point on the request path, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStage {
    /// Ingress parsed the request (HTTP request line + body framed). For
    /// in-process submissions this coincides with the trace origin.
    Ingress = 0,
    /// Admission control accepted the request (not shed).
    Admitted = 1,
    /// The engine accepted it: id assigned, completion slot registered.
    Submitted = 2,
    /// A logits-cache hit short-circuited the pipeline (submit-time or
    /// the worker's partial-batch split).
    CacheHit = 3,
    /// The request entered the work queue.
    Enqueued = 4,
    /// Its batch left the queue (size, deadline, barrier, drain).
    Flushed = 5,
    /// The worker that took the batch began it.
    Dequeued = 6,
    /// The forward pass started.
    ExecStart = 7,
    /// The forward pass finished.
    ExecEnd = 8,
    /// Freshly computed logits were written into the logits cache.
    CacheFill = 9,
    /// The response was delivered into the request's ticket slot.
    Delivered = 10,
}

/// Number of stamp points in a [`RequestTrace`].
pub const STAGE_COUNT: usize = 11;

impl TraceStage {
    /// All stages in pipeline order.
    pub const ALL: [TraceStage; STAGE_COUNT] = [
        TraceStage::Ingress,
        TraceStage::Admitted,
        TraceStage::Submitted,
        TraceStage::CacheHit,
        TraceStage::Enqueued,
        TraceStage::Flushed,
        TraceStage::Dequeued,
        TraceStage::ExecStart,
        TraceStage::ExecEnd,
        TraceStage::CacheFill,
        TraceStage::Delivered,
    ];

    /// Stable snake_case name (used as the JSON key in `/debug/requests`).
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::Ingress => "ingress",
            TraceStage::Admitted => "admitted",
            TraceStage::Submitted => "submitted",
            TraceStage::CacheHit => "cache_hit",
            TraceStage::Enqueued => "enqueued",
            TraceStage::Flushed => "flushed",
            TraceStage::Dequeued => "dequeued",
            TraceStage::ExecStart => "exec_start",
            TraceStage::ExecEnd => "exec_end",
            TraceStage::CacheFill => "cache_fill",
            TraceStage::Delivered => "delivered",
        }
    }
}

/// Sentinel for "stage never reached".
const UNSET: u64 = u64::MAX;

/// Per-request stage timeline: microsecond offsets from the trace origin,
/// stamped in place as the request flows through the stack. First write
/// wins per stage, so batch-level re-stamps never clobber an earlier,
/// more precise stamp.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    origin: Instant,
    stamps: [u64; STAGE_COUNT],
}

impl Default for RequestTrace {
    fn default() -> Self {
        Self::begin()
    }
}

impl RequestTrace {
    /// Starts a trace now; the first stage ([`TraceStage::Ingress`]) is
    /// stamped at offset zero.
    pub fn begin() -> Self {
        let mut stamps = [UNSET; STAGE_COUNT];
        stamps[TraceStage::Ingress as usize] = 0;
        Self {
            origin: Instant::now(),
            stamps,
        }
    }

    /// Stamps `stage` at the current instant (no-op if already stamped).
    pub fn stamp(&mut self, stage: TraceStage) {
        self.stamp_at(stage, Instant::now());
    }

    /// Stamps `stage` at `now` — lets a batch-level stage share one clock
    /// read across every request in the batch.
    pub fn stamp_at(&mut self, stage: TraceStage, now: Instant) {
        let slot = &mut self.stamps[stage as usize];
        if *slot == UNSET {
            *slot = now
                .saturating_duration_since(self.origin)
                .as_micros()
                .min(UNSET as u128 - 1) as u64;
        }
    }

    /// Microsecond offset of `stage` from the origin, if reached.
    pub fn offset_us(&self, stage: TraceStage) -> Option<u64> {
        let v = self.stamps[stage as usize];
        (v != UNSET).then_some(v)
    }

    /// Elapsed time between two stamped stages (`None` unless both were
    /// reached; saturates to zero if clock reads raced out of order).
    pub fn gap(&self, from: TraceStage, to: TraceStage) -> Option<Duration> {
        let (a, b) = (self.offset_us(from)?, self.offset_us(to)?);
        Some(Duration::from_micros(b.saturating_sub(a)))
    }

    /// `(stage, offset_us)` for every stamped stage, in pipeline order.
    pub fn stamped(&self) -> impl Iterator<Item = (TraceStage, u64)> + '_ {
        TraceStage::ALL
            .into_iter()
            .filter_map(|s| self.offset_us(s).map(|us| (s, us)))
    }
}

/// One completed request's timeline plus the attribution tags that make a
/// straggler diagnosable: which model/shard/tier it was, how big its
/// batch was, whether it was a cache hit, and which worker lane ran it.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Engine-assigned request id.
    pub id: u64,
    /// Model key, rendered (`"Cora/GCN"`).
    pub model: String,
    /// The classified node.
    pub node: u32,
    /// Shard that answered.
    pub shard: u32,
    /// Precision tier served (0 = fewest bits) — the degree-skew axis.
    pub tier: usize,
    /// Bitwidth served.
    pub bits: u8,
    /// Requests sharing the batch.
    pub batch_size: usize,
    /// Whether a logits-cache hit skipped the forward pass.
    pub cache_hit: bool,
    /// Worker lane that produced the response (`None` = answered on the
    /// submitting thread).
    pub worker: Option<usize>,
    /// End-to-end latency in microseconds (origin → delivery, falling
    /// back to the response's own latency if delivery was not stamped).
    pub total_us: u64,
    /// The stage timeline.
    pub trace: RequestTrace,
}

impl TraceRecord {
    fn new(trace: &RequestTrace, response: &InferenceResponse) -> Self {
        let total_us = trace
            .offset_us(TraceStage::Delivered)
            .unwrap_or(response.latency.as_micros().min(u64::MAX as u128) as u64);
        Self {
            id: response.id,
            model: response.model.to_string(),
            node: response.node,
            shard: response.shard,
            tier: response.tier,
            bits: response.bits,
            batch_size: response.batch_size,
            cache_hit: response.cached,
            worker: response.worker,
            total_us,
            trace: trace.clone(),
        }
    }
}

/// A fixed-capacity ring of [`TraceRecord`]s.
struct Ring {
    buf: std::collections::VecDeque<TraceRecord>,
    capacity: usize,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            buf: std::collections::VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    fn push(&mut self, record: TraceRecord) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(record);
    }
}

/// Flight-recorder knobs (part of [`crate::ServeConfig`]).
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Completed timelines retained in the recent ring.
    pub recent_capacity: usize,
    /// Slow outliers retained in the slow ring.
    pub slow_capacity: usize,
    /// A request slower than this lands in the slow ring (in addition to
    /// the recent ring).
    pub slow_threshold: Duration,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            recent_capacity: 256,
            slow_capacity: 128,
            slow_threshold: Duration::from_millis(50),
        }
    }
}

/// Bounded buffers of completed request timelines: a ring of the last N
/// plus an always-retained ring of slow outliers. Both sit behind plain
/// mutexes — a push is a pointer-sized pop/push on a pre-sized
/// `VecDeque`, so the critical section is tens of nanoseconds and worker
/// lanes recording concurrently do not meaningfully serialize.
pub struct FlightRecorder {
    recent: Mutex<Ring>,
    slow: Mutex<Ring>,
    slow_threshold_us: u64,
    recorded: AtomicU64,
    slow_recorded: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with the given ring capacities and slow threshold.
    pub fn new(config: &TraceConfig) -> Self {
        Self {
            recent: Mutex::new(Ring::new(config.recent_capacity)),
            slow: Mutex::new(Ring::new(config.slow_capacity)),
            slow_threshold_us: config.slow_threshold.as_micros().min(u64::MAX as u128) as u64,
            recorded: AtomicU64::new(0),
            slow_recorded: AtomicU64::new(0),
        }
    }

    /// Records one completed timeline (routing it to the slow ring too if
    /// it crossed the threshold).
    pub fn record(&self, record: TraceRecord) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let slow = record.total_us >= self.slow_threshold_us;
        if slow {
            self.slow_recorded.fetch_add(1, Ordering::Relaxed);
            self.slow
                .lock()
                .recover("flight-recorder")
                .push(record.clone());
        }
        self.recent.lock().recover("flight-recorder").push(record);
    }

    /// The retained recent timelines, oldest first.
    pub fn recent(&self) -> Vec<TraceRecord> {
        self.recent
            .lock()
            .recover("flight-recorder")
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// The retained slow timelines, oldest first.
    pub fn slow(&self) -> Vec<TraceRecord> {
        self.slow
            .lock()
            .recover("flight-recorder")
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// The slow-outlier threshold.
    pub fn slow_threshold(&self) -> Duration {
        Duration::from_micros(self.slow_threshold_us)
    }

    /// Timelines recorded since start (including ones the ring has since
    /// dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Slow timelines recorded since start.
    pub fn slow_recorded(&self) -> u64 {
        self.slow_recorded.load(Ordering::Relaxed)
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(&TraceConfig::default())
    }
}

/// The always-on tracing sink: per-stage latency histograms plus the
/// flight recorder. Lives inside [`crate::Metrics`] so every component
/// that records counters can also record traces.
pub struct Tracer {
    /// Enqueued → flushed: time spent coalescing in the work queue.
    pub queue_wait: LogHistogram,
    /// Flushed → forward-pass start: a worker's set-up before the pass.
    pub batch_wait: LogHistogram,
    /// Forward-pass start → end.
    pub execute: LogHistogram,
    /// Forward-pass end → ticket delivery.
    pub deliver: LogHistogram,
    /// The bounded timeline buffers.
    pub recorder: FlightRecorder,
}

impl Tracer {
    /// A tracer with the given flight-recorder knobs.
    pub fn new(config: &TraceConfig) -> Self {
        Self {
            queue_wait: LogHistogram::default(),
            batch_wait: LogHistogram::default(),
            execute: LogHistogram::default(),
            deliver: LogHistogram::default(),
            recorder: FlightRecorder::new(config),
        }
    }

    /// Folds one completed request into the per-stage histograms and the
    /// flight recorder. Call once per answered inference request, after
    /// [`TraceStage::Delivered`] is stamped. Cache hits skip the pipeline,
    /// so only the stages they actually crossed are recorded.
    pub fn complete(&self, trace: &RequestTrace, response: &InferenceResponse) {
        if let Some(d) = trace.gap(TraceStage::Enqueued, TraceStage::Flushed) {
            self.queue_wait.record(d);
        }
        if let Some(d) = trace.gap(TraceStage::Flushed, TraceStage::ExecStart) {
            self.batch_wait.record(d);
        }
        if let Some(d) = trace.gap(TraceStage::ExecStart, TraceStage::ExecEnd) {
            self.execute.record(d);
        }
        if let Some(d) = trace.gap(TraceStage::ExecEnd, TraceStage::Delivered) {
            self.deliver.record(d);
        }
        self.recorder.record(TraceRecord::new(trace, response));
    }

    /// The four stage histograms with their exposition names.
    pub fn stage_histograms(&self) -> [(&'static str, &LogHistogram); 4] {
        [
            ("queue_wait", &self.queue_wait),
            ("batch_wait", &self.batch_wait),
            ("execute", &self.execute),
            ("deliver", &self.deliver),
        ]
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(&TraceConfig::default())
    }
}

/// Process-level memory read from `/proc/self/status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemorySnapshot {
    /// Current resident set size (`VmRSS`), bytes.
    pub rss_bytes: u64,
    /// Peak resident set size (`VmHWM`), bytes.
    pub peak_rss_bytes: u64,
}

/// Reads the current process's RSS/peak-RSS. `None` on platforms without
/// `/proc/self/status` (the gauges are simply absent from `/metrics`
/// there).
pub fn process_memory() -> Option<MemorySnapshot> {
    parse_proc_status(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Parses `VmRSS`/`VmHWM` lines (values are in kB) out of a
/// `/proc/self/status` body.
fn parse_proc_status(text: &str) -> Option<MemorySnapshot> {
    let mut rss = None;
    let mut hwm = None;
    for line in text.lines() {
        let target = if line.starts_with("VmRSS:") {
            &mut rss
        } else if line.starts_with("VmHWM:") {
            &mut hwm
        } else {
            continue;
        };
        let kb = line
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse::<u64>().ok())?;
        *target = Some(kb * 1024);
    }
    Some(MemorySnapshot {
        rss_bytes: rss?,
        peak_rss_bytes: hwm.unwrap_or(0),
    })
}

/// Per-model resident-bytes breakdown, computed from the structures the
/// artifact cache already owns (no shadow accounting to drift).
#[derive(Debug, Clone)]
pub struct ModelMemory {
    /// The model.
    pub model: ModelKey,
    /// Nodes currently served (live topology). Together with
    /// `feature_dim` this lets a scraper compute the analytic f32 baseline
    /// (`2·nodes·dim·4`: a raw matrix plus a quantized f32 mirror) and a
    /// resident-bytes-per-node figure without knowing the model internals.
    pub nodes: usize,
    /// Input feature dimensionality.
    pub feature_dim: usize,
    /// Bit-plane packed global feature rows (the serving representation).
    pub features_bytes: usize,
    /// Unquantized source rows kept for re-tiering — a resident matrix
    /// only for dense datasets; synth class tables + delta overlay for
    /// streaming ones; zero for 1-bit inputs.
    pub raw_features_bytes: usize,
    /// Heap bytes the normalized adjacency (`Ã`) owns: the GraphSAGE
    /// chosen lists of rows above the sample size (0 under GCN and GIN).
    /// Its columns are reads of the live graph, which is not counted here,
    /// and its weights are computed from the graph's degrees.
    pub adjacency_bytes: usize,
    /// Per-shard state. Shards are views over the global structures, so
    /// this is 0; the field stays so existing readers keep compiling.
    pub shard_bytes: usize,
    /// Per-shard logits caches, summed (live bytes, not capacity).
    pub logits_bytes: usize,
}

impl ModelMemory {
    /// Sum over every component.
    pub fn total_bytes(&self) -> usize {
        self.features_bytes
            + self.raw_features_bytes
            + self.adjacency_bytes
            + self.shard_bytes
            + self.logits_bytes
    }

    /// `(component, bytes)` pairs in exposition order.
    pub fn components(&self) -> [(&'static str, usize); 5] {
        [
            ("features", self.features_bytes),
            ("raw_features", self.raw_features_bytes),
            ("adjacency", self.adjacency_bytes),
            ("shard_slices", self.shard_bytes),
            ("logits_cache", self.logits_bytes),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_gnn::GnnKind;

    fn response(id: u64, total: Duration) -> InferenceResponse {
        InferenceResponse {
            id,
            model: ModelKey::new("Cora", GnnKind::Gcn),
            node: 7,
            logits: vec![0.5, 0.25],
            predicted_class: 0,
            bits: 2,
            tier: 0,
            shard: 1,
            halo_rows: 0,
            batch_size: 3,
            worker: Some(2),
            cached: false,
            latency: total,
        }
    }

    #[test]
    fn stamps_are_first_write_wins_and_ordered() {
        let mut trace = RequestTrace::begin();
        assert_eq!(trace.offset_us(TraceStage::Ingress), Some(0));
        assert_eq!(trace.offset_us(TraceStage::Enqueued), None);
        let t0 = trace.origin + Duration::from_micros(100);
        trace.stamp_at(TraceStage::Enqueued, t0);
        trace.stamp_at(TraceStage::Enqueued, t0 + Duration::from_secs(5));
        assert_eq!(
            trace.offset_us(TraceStage::Enqueued),
            Some(100),
            "first write wins"
        );
        trace.stamp_at(TraceStage::Flushed, t0 + Duration::from_micros(250));
        assert_eq!(
            trace.gap(TraceStage::Enqueued, TraceStage::Flushed),
            Some(Duration::from_micros(250))
        );
        assert_eq!(trace.gap(TraceStage::ExecStart, TraceStage::ExecEnd), None);
        // A stamp that raced behind the origin saturates to zero.
        trace.stamp_at(TraceStage::Admitted, trace.origin - Duration::from_secs(1));
        assert_eq!(trace.offset_us(TraceStage::Admitted), Some(0));
        let stamped: Vec<_> = trace.stamped().map(|(s, _)| s).collect();
        assert_eq!(
            stamped,
            vec![
                TraceStage::Ingress,
                TraceStage::Admitted,
                TraceStage::Enqueued,
                TraceStage::Flushed
            ]
        );
    }

    #[test]
    fn tracer_folds_stage_gaps_into_histograms() {
        let tracer = Tracer::default();
        let mut trace = RequestTrace::begin();
        let o = trace.origin;
        trace.stamp_at(TraceStage::Enqueued, o + Duration::from_micros(10));
        trace.stamp_at(TraceStage::Flushed, o + Duration::from_micros(1_010));
        trace.stamp_at(TraceStage::ExecStart, o + Duration::from_micros(1_050));
        trace.stamp_at(TraceStage::ExecEnd, o + Duration::from_micros(3_050));
        trace.stamp_at(TraceStage::Delivered, o + Duration::from_micros(3_080));
        tracer.complete(&trace, &response(1, Duration::from_micros(3_080)));
        assert_eq!(tracer.queue_wait.count(), 1);
        assert_eq!(tracer.execute.count(), 1);
        assert!(tracer.execute.quantile(0.5) >= Duration::from_micros(2_000));
        let recent = tracer.recorder.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].model, "Cora/GCN");
        assert_eq!(recent[0].batch_size, 3);
        assert_eq!(recent[0].worker, Some(2));
        assert_eq!(recent[0].total_us, 3_080);
        // A cache-hit-style trace (no pipeline stages) records no stage
        // gaps but still lands in the recorder.
        let hit = RequestTrace::begin();
        tracer.complete(&hit, &response(2, Duration::from_micros(4)));
        assert_eq!(tracer.queue_wait.count(), 1, "no queue stages on a hit");
        assert_eq!(tracer.recorder.recent().len(), 2);
    }

    #[test]
    fn flight_recorder_ring_wraps_and_slow_ring_retains() {
        let recorder = FlightRecorder::new(&TraceConfig {
            recent_capacity: 4,
            slow_capacity: 2,
            slow_threshold: Duration::from_micros(100),
        });
        for id in 0..10u64 {
            let trace = RequestTrace::begin();
            let mut record = TraceRecord::new(&trace, &response(id, Duration::from_micros(id)));
            // Make ids 6 and 9 slow.
            record.total_us = if id % 3 == 0 && id > 0 { 1_000 } else { 10 };
            recorder.record(record);
        }
        let recent = recorder.recent();
        assert_eq!(recent.len(), 4, "recent ring wrapped to capacity");
        assert_eq!(
            recent.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "oldest entries evicted first"
        );
        let slow = recorder.slow();
        assert_eq!(slow.len(), 2, "slow ring holds only outliers");
        assert!(slow.iter().all(|r| r.total_us >= 100));
        assert_eq!(recorder.recorded(), 10);
        assert_eq!(
            recorder.slow_recorded(),
            3,
            "ids 3, 6, 9 crossed the threshold"
        );
    }

    #[test]
    fn zero_capacity_rings_record_nothing() {
        let recorder = FlightRecorder::new(&TraceConfig {
            recent_capacity: 0,
            slow_capacity: 0,
            slow_threshold: Duration::ZERO,
        });
        let trace = RequestTrace::begin();
        recorder.record(TraceRecord::new(&trace, &response(1, Duration::ZERO)));
        assert!(recorder.recent().is_empty());
        assert!(recorder.slow().is_empty());
        assert_eq!(recorder.recorded(), 1, "counters still advance");
    }

    #[test]
    fn proc_status_parsing_reads_rss_and_hwm() {
        let text = "Name:\tmega\nVmPeak:\t  999 kB\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n";
        let snap = parse_proc_status(text).expect("both fields present");
        assert_eq!(snap.rss_bytes, 1024 * 1024);
        assert_eq!(snap.peak_rss_bytes, 2 * 1024 * 1024);
        assert!(parse_proc_status("Name: x\n").is_none(), "no VmRSS → None");
        // On Linux the live read works end-to-end.
        if std::path::Path::new("/proc/self/status").exists() {
            let live = process_memory().expect("procfs readable");
            assert!(live.rss_bytes > 0);
            assert!(live.peak_rss_bytes >= live.rss_bytes);
        }
    }

    #[test]
    fn model_memory_totals_and_components_agree() {
        let memory = ModelMemory {
            model: ModelKey::new("Cora", GnnKind::Gcn),
            nodes: 10,
            feature_dim: 4,
            features_bytes: 100,
            raw_features_bytes: 200,
            adjacency_bytes: 50,
            shard_bytes: 400,
            logits_bytes: 25,
        };
        assert_eq!(memory.total_bytes(), 775);
        let sum: usize = memory.components().iter().map(|&(_, b)| b).sum();
        assert_eq!(sum, memory.total_bytes());
    }
}
