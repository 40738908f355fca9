//! The batch scheduler: buckets requests by (model, shard, precision tier)
//! and flushes size- or deadline-triggered batches to the worker pool.
//!
//! The scheduler only ever sees logits-cache *misses*: the engine answers
//! cache hits at submit time ([`crate::ServeEngine::submit`]), and workers
//! split out any requests whose node was cached between submission and
//! execution ([`crate::worker`]) before running the forward pass — so a
//! bucket's eventual batch shrinks to exactly the targets that still need
//! compute (partial-batch hit/miss splitting).
//!
//! Bucketing by tier keeps a batch's per-node bitwidths — and therefore its
//! per-row cost — homogeneous, so one slow hub node does not ride along
//! with (and delay) a batch of cheap leaf nodes. Bucketing by *shard* keeps
//! a batch's targets inside one partition, so the same worker lane keeps
//! seeing the same neighbourhoods (emission goes through
//! [`crate::worker::WorkRouter`], which pins each `(model, shard)` pair to
//! one worker lane).
//!
//! Graph mutations ride the same output path as inference batches (wrapped
//! in [`WorkItem`]), so updates interleave with serving traffic on the
//! worker pool instead of stopping the world. An update first flushes the
//! target model's pending buckets ([`FlushReason::Barrier`]) so requests
//! admitted before it are not left queued behind it, then parks its payload
//! in a per-model FIFO ([`BatchScheduler::take_update`]) — workers pop from
//! that FIFO, which serializes updates per model in submission order no
//! matter which worker handles which token.
//!
//! **Deadlines are timer-driven, not polled.** The scheduler knows the
//! earliest pending bucket deadline ([`BatchScheduler::next_deadline`] —
//! every bucket shares `max_delay`, so it belongs to the bucket with the
//! oldest request), and the engine's sweeper thread
//! [`BatchScheduler::sweeper_park`]s on a `Condvar` until exactly then:
//! woken early only when a submit advances that earliest deadline (the
//! scheduler re-arms from empty, or a submitter whose `submitted_at` —
//! stamped before the scheduler lock — predates every resident bucket
//! creates a sooner one) or at shutdown. An idle engine takes zero
//! sweeper wakeups per second, and a deadline flush fires when the
//! deadline passes — not up to one sweep interval later.
//!
//! **Buckets are pruned, not recycled.** A drained bucket leaves the map
//! entirely, so the map's size tracks the *live* working set of
//! `(model, shard, tier)` keys instead of growing monotonically across
//! every key ever seen (and keeping dead models' buckets alive after
//! re-registration).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::sync::{Condvar, Mutex};

use crate::poison::LockRecoverExt;
use std::time::{Duration, Instant};

use crate::request::{InferenceRequest, ModelKey, UpdateRequest};
use crate::trace::TraceStage;
use crate::worker::WorkRouter;

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Flush a bucket as soon as it holds this many requests.
    pub max_batch: usize,
    /// Flush a non-empty bucket once its oldest request has waited this
    /// long.
    pub max_delay: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// Why a batch left the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The bucket reached `max_batch`.
    Size,
    /// The bucket's oldest request hit `max_delay`.
    Deadline,
    /// A graph update to the same model flushed the bucket ahead of
    /// itself.
    Barrier,
    /// The engine is draining (shutdown or explicit flush).
    Drain,
}

/// A coalesced unit of work for one (model, shard, tier) bucket.
#[derive(Debug)]
pub struct Batch {
    /// The model every request in the batch targets.
    pub model: ModelKey,
    /// The shard owning every node in the batch.
    pub shard: u32,
    /// The precision tier every request in the batch belongs to.
    pub tier: usize,
    /// The requests, in arrival order.
    pub requests: Vec<InferenceRequest>,
    /// Why the batch was flushed.
    pub reason: FlushReason,
}

/// What the scheduler hands the worker pool.
#[derive(Debug)]
pub enum WorkItem {
    /// A coalesced inference batch.
    Batch(Batch),
    /// Fault injection: panics worker lane `lane % lanes` on dequeue, for
    /// exercising `/healthz` lane-death detection in tests. Never emitted
    /// by the scheduler itself.
    Poison(usize),
    /// A token for one pending graph update to this model; the payload is
    /// popped from the scheduler's per-model FIFO
    /// ([`BatchScheduler::take_update`]).
    Update(ModelKey),
}

/// A non-empty run of same-key requests. Buckets only exist while they
/// hold requests — draining one removes it from the map (pruning), so
/// `oldest` is always the arrival of the first resident request.
struct Bucket {
    requests: Vec<InferenceRequest>,
    oldest: Instant,
}

/// The per-model FIFO parking update payloads between
/// [`BatchScheduler::submit_update`] and the worker that receives the
/// matching [`WorkItem::Update`] token. A separate shared structure (not
/// part of the scheduler) so workers can hold it without keeping the
/// scheduler's work `Sender` alive — that would deadlock shutdown.
#[derive(Default)]
pub struct UpdateQueue {
    queues: Mutex<HashMap<ModelKey, VecDeque<UpdateRequest>>>,
}

impl UpdateQueue {
    fn push(&self, request: UpdateRequest) {
        self.queues
            .lock()
            .recover("update-queue")
            .entry(request.model.clone())
            .or_default()
            .push_back(request);
    }

    /// Pops the oldest pending update for `model`. FIFO order is the
    /// per-model update serialization guarantee, no matter which worker
    /// handles which token.
    pub fn pop(&self, model: &ModelKey) -> Option<UpdateRequest> {
        self.queues
            .lock()
            .recover("update-queue")
            .get_mut(model)?
            .pop_front()
    }

    /// Number of parked updates across all models.
    pub fn pending(&self) -> usize {
        self.queues
            .lock()
            .recover("update-queue")
            .values()
            .map(VecDeque::len)
            .sum()
    }
}

/// A bucket's identity: (model, shard, tier).
type BucketKey = (ModelKey, u32, usize);

/// Size- and deadline-triggered request coalescer plus the per-model
/// update FIFO.
pub struct BatchScheduler {
    config: SchedulerConfig,
    buckets: Mutex<HashMap<BucketKey, Bucket>>,
    updates: Arc<UpdateQueue>,
    out: WorkRouter,
    /// Wakeup generation for the deadline sweeper: bumped (with a
    /// notify) whenever a submit advances the earliest pending deadline
    /// or the engine wants the sweeper to re-evaluate (shutdown). The
    /// sweeper parks on the condvar until the earliest deadline or a
    /// generation bump — never on a fixed poll interval.
    sweep_gen: Mutex<u64>,
    sweep_cv: Condvar,
}

impl BatchScheduler {
    /// A scheduler emitting work through `out` (which pins each
    /// `(model, shard)` to a worker lane). Dropping the scheduler drops the
    /// router — and with it every lane sender — which is what lets the
    /// worker pool drain and exit at shutdown.
    pub fn new(config: SchedulerConfig, out: WorkRouter) -> Self {
        Self::with_updates(config, out, Arc::new(UpdateQueue::default()))
    }

    /// Like [`BatchScheduler::new`], but parking update payloads in an
    /// externally owned FIFO (the engine shares it with the worker pool,
    /// which must outlive the scheduler's router).
    pub fn with_updates(
        config: SchedulerConfig,
        out: WorkRouter,
        updates: Arc<UpdateQueue>,
    ) -> Self {
        Self {
            config,
            buckets: Mutex::new(HashMap::new()),
            updates,
            out,
            sweep_gen: Mutex::new(0),
            sweep_cv: Condvar::new(),
        }
    }

    /// The shared FIFO workers pop update payloads from.
    pub fn update_queue(&self) -> Arc<UpdateQueue> {
        self.updates.clone()
    }

    /// The configured knobs.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Enqueues one request; flushes its bucket if that fills it. Returns
    /// `true` if a batch was emitted.
    ///
    /// The request's `tier` stamps the *bucket* it coalesces into; the
    /// worker restamps tier/bits from the live artifacts at execution
    /// time, so a concurrent re-tier between submit and execution can at
    /// worst cost batching homogeneity, never answer accuracy.
    pub fn submit(&self, mut request: InferenceRequest) -> bool {
        request.trace.stamp(TraceStage::Enqueued);
        let key = (request.model.clone(), request.shard, request.tier);
        let mut buckets = self.buckets.lock().recover("scheduler-buckets");
        // Every bucket shares `max_delay`, so the earliest deadline
        // belongs to the minimum `oldest`. The sweeper needs a wake only
        // when this submit *advances* that minimum: the scheduler went
        // empty → non-empty, or (rare) this request's `submitted_at` —
        // stamped before the scheduler lock, so a stalled submitter can
        // carry an older timestamp than every resident bucket — creates a
        // bucket older than the one the sweeper is parked on.
        let prev_min_oldest = buckets.values().map(|b| b.oldest).min();
        let mut rearmed = false;
        let bucket = buckets.entry(key.clone()).or_insert_with(|| {
            rearmed = prev_min_oldest.is_none_or(|min| request.submitted_at < min);
            Bucket {
                requests: Vec::new(),
                oldest: request.submitted_at,
            }
        });
        bucket.requests.push(request);
        if bucket.requests.len() >= self.config.max_batch {
            let bucket = buckets.remove(&key).expect("bucket just filled");
            drop(buckets);
            self.emit(key.0, key.1, key.2, bucket.requests, FlushReason::Size);
            true
        } else {
            drop(buckets);
            if rearmed {
                self.wake_sweeper();
            }
            false
        }
    }

    /// Enqueues one graph update: flushes the model's pending inference
    /// buckets ahead of it (barrier), parks the payload in the model's
    /// FIFO, and emits an update token to the worker pool.
    pub fn submit_update(&self, request: UpdateRequest) {
        let model = request.model.clone();
        self.flush_model(&model);
        self.updates.push(request);
        // Receiver gone means the engine is shutting down; the update
        // stays in the FIFO and is dropped with the scheduler.
        self.out.send(WorkItem::Update(model));
    }

    /// Pops the oldest pending update for `model` (delegates to the shared
    /// [`UpdateQueue`]).
    pub fn take_update(&self, model: &ModelKey) -> Option<UpdateRequest> {
        self.updates.pop(model)
    }

    /// Flushes every bucket of `model` regardless of age. Returns the
    /// number of batches emitted.
    pub fn flush_model(&self, model: &ModelKey) -> usize {
        let drained: Vec<(BucketKey, Vec<InferenceRequest>)> = {
            let mut buckets = self.buckets.lock().recover("scheduler-buckets");
            let keys: Vec<BucketKey> = buckets
                .keys()
                .filter(|(m, _, _)| m == model)
                .cloned()
                .collect();
            keys.into_iter()
                .map(|k| {
                    let bucket = buckets.remove(&k).expect("key just listed");
                    (k, bucket.requests)
                })
                .collect()
        };
        let count = drained.len();
        for ((model, shard, tier), requests) in drained {
            self.emit(model, shard, tier, requests, FlushReason::Barrier);
        }
        count
    }

    /// Flushes (and prunes) every bucket whose oldest request has waited
    /// at least `max_delay` as of `now`. Returns the number of batches
    /// emitted. Called by the engine's deadline sweeper when a deadline
    /// fires; taking `now` as a parameter keeps the policy unit-testable
    /// without sleeping.
    pub fn poll_deadlines(&self, now: Instant) -> usize {
        let expired: Vec<(BucketKey, Vec<InferenceRequest>)> = {
            let mut buckets = self.buckets.lock().recover("scheduler-buckets");
            let keys: Vec<BucketKey> = buckets
                .iter()
                .filter(|(_, b)| now.duration_since(b.oldest) >= self.config.max_delay)
                .map(|(k, _)| k.clone())
                .collect();
            keys.into_iter()
                .map(|k| {
                    let bucket = buckets.remove(&k).expect("key just listed");
                    (k, bucket.requests)
                })
                .collect()
        };
        let count = expired.len();
        for ((model, shard, tier), requests) in expired {
            self.emit(model, shard, tier, requests, FlushReason::Deadline);
        }
        count
    }

    /// Flushes everything regardless of age (drain/shutdown path). Returns
    /// the number of batches emitted.
    pub fn flush_all(&self) -> usize {
        let drained: HashMap<BucketKey, Bucket> = {
            let mut buckets = self.buckets.lock().recover("scheduler-buckets");
            std::mem::take(&mut *buckets)
        };
        let count = drained.len();
        for ((model, shard, tier), bucket) in drained {
            self.emit(model, shard, tier, bucket.requests, FlushReason::Drain);
        }
        count
    }

    /// Number of inference requests currently waiting in buckets.
    pub fn pending(&self) -> usize {
        self.buckets
            .lock()
            .recover("scheduler-buckets")
            .values()
            .map(|b| b.requests.len())
            .sum()
    }

    /// Number of resident buckets. Because drained buckets are pruned,
    /// this tracks the *live* set of `(model, shard, tier)` keys — it must
    /// shrink back to zero whenever the scheduler drains (the regression
    /// surface for unbounded bucket-map growth).
    pub fn bucket_count(&self) -> usize {
        self.buckets.lock().recover("scheduler-buckets").len()
    }

    /// The earliest pending deadline: when the sweeper must next flush.
    /// `None` when no requests are queued (the sweeper can park
    /// indefinitely). Every bucket shares `max_delay`, so this is the
    /// oldest bucket's arrival plus the delay bound.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.buckets
            .lock()
            .recover("scheduler-buckets")
            .values()
            .map(|b| b.oldest)
            .min()
            .map(|oldest| oldest + self.config.max_delay)
    }

    /// The current sweeper wakeup generation. Capture it *before*
    /// computing [`BatchScheduler::next_deadline`], then pass both to
    /// [`BatchScheduler::sweeper_park`]: any re-arm between the capture
    /// and the park bumps the generation and the park returns immediately,
    /// so a wakeup can never be lost to that race.
    pub fn sweep_generation(&self) -> u64 {
        *self.sweep_gen.lock().recover("sweeper")
    }

    /// Blocks the calling (sweeper) thread until `deadline` passes, the
    /// wakeup generation moves past `gen`, or — with no deadline — a
    /// generation bump alone. Returns immediately when `gen` is already
    /// stale. This replaces the fixed-interval sleep poll: an idle
    /// scheduler parks its sweeper indefinitely (zero wakeups), and an
    /// armed one wakes exactly at the earliest deadline.
    pub fn sweeper_park(&self, gen: u64, deadline: Option<Instant>) {
        let mut current = self.sweep_gen.lock().recover("sweeper");
        loop {
            if *current != gen {
                return;
            }
            match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return;
                    }
                    let (next, timeout) = self
                        .sweep_cv
                        .wait_timeout(current, deadline - now)
                        .recover("sweeper");
                    current = next;
                    if timeout.timed_out() {
                        return;
                    }
                }
                None => {
                    current = self.sweep_cv.wait(current).recover("sweeper");
                }
            }
        }
    }

    /// Bumps the wakeup generation and wakes a parked sweeper (deadline
    /// advances on the submit side and engine shutdown both come through
    /// here).
    pub fn wake_sweeper(&self) {
        let mut gen = self.sweep_gen.lock().recover("sweeper");
        *gen = gen.wrapping_add(1);
        self.sweep_cv.notify_all();
    }

    /// Number of updates parked in per-model FIFOs (token emitted, not yet
    /// taken by a worker).
    pub fn pending_updates(&self) -> usize {
        self.updates.pending()
    }

    /// Fault injection: sends a poison pill to worker lane
    /// `lane % lanes`, which panics that lane's thread on dequeue (see
    /// [`crate::ServeEngine::poison_lane`]).
    pub fn poison_lane(&self, lane: usize) {
        self.out.send(WorkItem::Poison(lane));
    }

    fn emit(
        &self,
        model: ModelKey,
        shard: u32,
        tier: usize,
        mut requests: Vec<InferenceRequest>,
        reason: FlushReason,
    ) {
        if requests.is_empty() {
            return;
        }
        // One clock read covers the whole batch.
        let now = Instant::now();
        for request in &mut requests {
            request.trace.stamp_at(TraceStage::Flushed, now);
        }
        // Receiver gone means the engine is shutting down; dropping the
        // batch here is fine because shutdown drains first.
        self.out.send(WorkItem::Batch(Batch {
            model,
            shard,
            tier,
            requests,
            reason,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_gnn::GnnKind;
    use mega_graph::GraphDelta;
    use std::sync::mpsc::{self, Receiver};

    fn request(id: u64, tier: usize, at: Instant) -> InferenceRequest {
        request_on_shard(id, 0, tier, at)
    }

    fn request_on_shard(id: u64, shard: u32, tier: usize, at: Instant) -> InferenceRequest {
        InferenceRequest {
            id,
            model: ModelKey::new("Cora", GnnKind::Gcn),
            node: id as u32,
            shard,
            tier,
            bits: 2,
            submitted_at: at,
            trace: crate::trace::RequestTrace::begin(),
        }
    }

    fn recv_batch(rx: &Receiver<WorkItem>) -> Batch {
        match rx.try_recv().expect("work item emitted") {
            WorkItem::Batch(batch) => batch,
            WorkItem::Update(key) => panic!("expected batch, got update token for {key}"),
            WorkItem::Poison(lane) => panic!("expected batch, got poison pill for lane {lane}"),
        }
    }

    #[test]
    fn size_triggered_flush_emits_full_batch() {
        let (tx, rx) = mpsc::channel();
        let scheduler = BatchScheduler::new(
            SchedulerConfig {
                max_batch: 3,
                max_delay: Duration::from_secs(60),
            },
            WorkRouter::single(tx),
        );
        let now = Instant::now();
        assert!(!scheduler.submit(request(0, 0, now)));
        assert!(!scheduler.submit(request(1, 0, now)));
        assert!(scheduler.submit(request(2, 0, now)));
        let batch = recv_batch(&rx);
        assert_eq!(batch.requests.len(), 3);
        assert_eq!(batch.reason, FlushReason::Size);
        assert_eq!(scheduler.pending(), 0);
    }

    #[test]
    fn tiers_bucket_independently() {
        let (tx, rx) = mpsc::channel();
        let scheduler = BatchScheduler::new(
            SchedulerConfig {
                max_batch: 2,
                max_delay: Duration::from_secs(60),
            },
            WorkRouter::single(tx),
        );
        let now = Instant::now();
        scheduler.submit(request(0, 0, now));
        scheduler.submit(request(1, 1, now));
        assert!(rx.try_recv().is_err(), "no tier is full yet");
        scheduler.submit(request(2, 1, now));
        let batch = recv_batch(&rx);
        assert_eq!(batch.tier, 1);
        assert_eq!(batch.requests.len(), 2);
        assert_eq!(scheduler.pending(), 1);
    }

    #[test]
    fn deadline_flushes_partial_batch() {
        let (tx, rx) = mpsc::channel();
        let config = SchedulerConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(5),
        };
        let scheduler = BatchScheduler::new(config.clone(), WorkRouter::single(tx));
        let t0 = Instant::now();
        scheduler.submit(request(0, 0, t0));
        scheduler.submit(request(1, 0, t0));
        // Before the deadline nothing moves.
        assert_eq!(scheduler.poll_deadlines(t0 + Duration::from_millis(1)), 0);
        assert!(rx.try_recv().is_err());
        // At the deadline the partial batch flushes.
        assert_eq!(scheduler.poll_deadlines(t0 + config.max_delay), 1);
        let batch = recv_batch(&rx);
        assert_eq!(batch.requests.len(), 2);
        assert_eq!(batch.reason, FlushReason::Deadline);
        assert_eq!(scheduler.pending(), 0);
        // Idempotent: nothing left to flush.
        assert_eq!(scheduler.poll_deadlines(t0 + Duration::from_secs(1)), 0);
    }

    #[test]
    fn flush_all_drains_every_bucket() {
        let (tx, rx) = mpsc::channel();
        let scheduler = BatchScheduler::new(SchedulerConfig::default(), WorkRouter::single(tx));
        let now = Instant::now();
        scheduler.submit(request(0, 0, now));
        scheduler.submit(request(1, 3, now));
        assert_eq!(scheduler.flush_all(), 2);
        let mut sizes: Vec<usize> = (0..2).map(|_| recv_batch(&rx).requests.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1]);
        assert_eq!(scheduler.flush_all(), 0);
    }

    /// Regression: the bucket map must shrink when buckets drain. It used
    /// to keep an empty `Bucket` per `(model, shard, tier)` key forever —
    /// unbounded growth across keys, and dead models' buckets staying
    /// alive after re-registration.
    #[test]
    fn drained_buckets_are_pruned_from_the_map() {
        let (tx, rx) = mpsc::channel();
        let scheduler = BatchScheduler::new(
            SchedulerConfig {
                max_batch: 2,
                max_delay: Duration::from_millis(5),
            },
            WorkRouter::single(tx),
        );
        let now = Instant::now();
        assert_eq!(scheduler.bucket_count(), 0);
        // Size flush prunes.
        scheduler.submit(request(0, 0, now));
        scheduler.submit(request(1, 0, now));
        assert_eq!(scheduler.bucket_count(), 0, "size flush removed the bucket");
        // Deadline flush prunes.
        scheduler.submit(request(2, 1, now));
        assert_eq!(scheduler.bucket_count(), 1);
        assert_eq!(scheduler.poll_deadlines(now + Duration::from_secs(1)), 1);
        assert_eq!(scheduler.bucket_count(), 0, "deadline flush removed it");
        // Barrier flush prunes only the target model; drain prunes the rest.
        let other = ModelKey::new("PubMed", GnnKind::Gcn);
        scheduler.submit(request(3, 2, now));
        scheduler.submit(InferenceRequest {
            model: other.clone(),
            ..request(4, 0, now)
        });
        assert_eq!(scheduler.bucket_count(), 2);
        scheduler.flush_model(&ModelKey::new("Cora", GnnKind::Gcn));
        assert_eq!(scheduler.bucket_count(), 1, "barrier pruned one model");
        scheduler.flush_all();
        assert_eq!(scheduler.bucket_count(), 0, "drain empties the map");
        // A burst over many distinct keys leaves nothing resident after
        // the drain — the map tracks the live working set, not history.
        for tier in 0..64 {
            scheduler.submit(request(100 + tier as u64, tier, now));
        }
        assert_eq!(scheduler.bucket_count(), 64);
        scheduler.flush_all();
        assert_eq!(scheduler.bucket_count(), 0);
        while rx.try_recv().is_ok() {}
    }

    #[test]
    fn next_deadline_follows_the_oldest_bucket() {
        let (tx, _rx) = mpsc::channel();
        let config = SchedulerConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(10),
        };
        let scheduler = BatchScheduler::new(config.clone(), WorkRouter::single(tx));
        assert_eq!(scheduler.next_deadline(), None, "idle: park indefinitely");
        let t0 = Instant::now();
        scheduler.submit(request(0, 1, t0 + Duration::from_millis(3)));
        scheduler.submit(request(1, 0, t0));
        scheduler.submit(request(2, 2, t0 + Duration::from_millis(7)));
        assert_eq!(
            scheduler.next_deadline(),
            Some(t0 + config.max_delay),
            "earliest deadline belongs to the oldest bucket"
        );
        // Flushing the oldest moves the deadline to the next-oldest.
        assert_eq!(scheduler.poll_deadlines(t0 + config.max_delay), 1);
        assert_eq!(
            scheduler.next_deadline(),
            Some(t0 + Duration::from_millis(3) + config.max_delay)
        );
        scheduler.flush_all();
        assert_eq!(scheduler.next_deadline(), None);
    }

    #[test]
    fn sweeper_park_wakes_on_rearm_and_deadline() {
        let (tx, _rx) = mpsc::channel();
        let scheduler = Arc::new(BatchScheduler::new(
            SchedulerConfig {
                max_batch: 64,
                max_delay: Duration::from_secs(60),
            },
            WorkRouter::single(tx),
        ));
        // Deadline in the past returns immediately.
        let gen = scheduler.sweep_generation();
        scheduler.sweeper_park(gen, Some(Instant::now() - Duration::from_millis(1)));
        // A stale generation returns immediately even with no deadline.
        scheduler.wake_sweeper();
        scheduler.sweeper_park(gen, None);
        // A submit into an empty scheduler wakes an indefinitely parked
        // sweeper (the empty → non-empty re-arm).
        let parked = {
            let scheduler = scheduler.clone();
            std::thread::spawn(move || {
                let gen = scheduler.sweep_generation();
                if scheduler.next_deadline().is_none() {
                    scheduler.sweeper_park(gen, None);
                }
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        scheduler.submit(request(0, 0, Instant::now()));
        parked.join().expect("parked sweeper woke on re-arm");
    }

    /// Regression: `submitted_at` is stamped *before* the scheduler lock,
    /// so a stalled submitter can create a bucket whose deadline precedes
    /// the one the sweeper is parked on. That submit must wake the
    /// sweeper — otherwise the older bucket flushes late.
    #[test]
    fn sweeper_wakes_when_an_older_bucket_arrives() {
        let (tx, _rx) = mpsc::channel();
        let scheduler = Arc::new(BatchScheduler::new(
            SchedulerConfig {
                max_batch: 64,
                max_delay: Duration::from_secs(60),
            },
            WorkRouter::single(tx),
        ));
        let now = Instant::now();
        // The sweeper is parked on this bucket's (far) deadline...
        scheduler.submit(request(0, 0, now));
        let deadline = scheduler.next_deadline().expect("armed");
        let parked = {
            let scheduler = scheduler.clone();
            std::thread::spawn(move || {
                let gen = scheduler.sweep_generation();
                scheduler.sweeper_park(gen, Some(deadline));
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        // ...when a stalled submitter lands a bucket stamped 5s EARLIER.
        // Its deadline is sooner than the parked one, so the park must
        // end now, not at the stale deadline (join would hang ~60s and
        // trip the test harness timeout if the wake were missed).
        scheduler.submit(request(1, 1, now - Duration::from_secs(5)));
        assert_eq!(
            scheduler.next_deadline().unwrap(),
            now - Duration::from_secs(5) + Duration::from_secs(60),
            "the older bucket owns the earliest deadline"
        );
        parked.join().expect("sweeper woke for the sooner deadline");
    }

    #[test]
    fn updates_barrier_their_model_and_queue_fifo() {
        let (tx, rx) = mpsc::channel();
        let scheduler = BatchScheduler::new(SchedulerConfig::default(), WorkRouter::single(tx));
        let now = Instant::now();
        let cora = ModelKey::new("Cora", GnnKind::Gcn);
        let other = ModelKey::new("PubMed", GnnKind::Gcn);
        scheduler.submit(request(0, 0, now));
        scheduler.submit(InferenceRequest {
            model: other.clone(),
            ..request(1, 0, now)
        });
        let update = |id: u64| {
            let mut delta = GraphDelta::new();
            delta.insert_edge(id as u32, 0);
            UpdateRequest {
                id,
                model: cora.clone(),
                delta,
                node_features: vec![],
                submitted_at: now,
            }
        };
        scheduler.submit_update(update(10));
        scheduler.submit_update(update(11));
        // The barrier flushed only Cora's bucket; PubMed's is still queued.
        let batch = recv_batch(&rx);
        assert_eq!(batch.model, cora);
        assert_eq!(batch.reason, FlushReason::Barrier);
        assert_eq!(scheduler.pending(), 1);
        // Two update tokens follow, and the FIFO pops in submit order.
        for expected in [10u64, 11] {
            match rx.try_recv().expect("update token") {
                WorkItem::Update(key) => assert_eq!(key, cora),
                WorkItem::Batch(_) => panic!("expected update token"),
                WorkItem::Poison(lane) => panic!("expected update token, got poison for {lane}"),
            }
            assert_eq!(scheduler.take_update(&cora).unwrap().id, expected);
        }
        assert_eq!(scheduler.pending_updates(), 0);
        assert!(scheduler.take_update(&cora).is_none());
    }
}
