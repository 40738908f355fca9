//! The work queue: one FIFO of inference requests and update tokens that
//! every worker pulls batches from.
//!
//! The scheduler only ever sees logits-cache *misses*: the engine answers
//! cache hits at submit time ([`crate::ServeEngine::submit`]), and workers
//! split out any requests whose node was cached between submission and
//! execution ([`crate::worker`]) before running the forward pass — so a
//! batch shrinks to exactly the targets that still need compute
//! (partial-batch hit/miss splitting).
//!
//! **The batching rule.** The request at the head of the queue picks the
//! key `(model, shard)`, and the batch is up to `max_batch` queued requests
//! with that key, in arrival order. The batch leaves
//!
//! * when it holds `max_batch` requests ([`FlushReason::Size`]);
//! * at once when an update token for the same model is queued behind its
//!   head ([`FlushReason::Barrier`]) — requests admitted before an update
//!   are not left queued behind it, and the scan for the batch stops at
//!   that token, so requests admitted after it do not jump ahead of it;
//! * when its oldest request has waited `max_delay`
//!   ([`FlushReason::Deadline`]);
//! * at once after [`BatchScheduler::close`] ([`FlushReason::Drain`]).
//!
//! While the head batch is not due, ready work behind it does not wait:
//! the first (in queue order) of a key whose requests queued before any
//! update token of its model already fill `max_batch`
//! ([`FlushReason::Size`]), or an update token with no request of its
//! model queued ahead of it, leaves at once. Neither can reorder a model's
//! requests against its own updates.
//!
//! An update token at the head leaves at once. Its payload is parked in a
//! per-model FIFO ([`UpdateQueue`]) that the worker pops inside the
//! model's write lock, which serializes updates per model in submission
//! order no matter which worker handles which token.
//!
//! The decision is a pure function of the queue and a clock reading
//! ([`BatchScheduler::take`]), so tests drive it with a synthetic clock;
//! [`BatchScheduler::next`] is the blocking loop workers call around it,
//! parking on one condvar — indefinitely while the queue is empty, or until
//! the head batch's deadline. A submit wakes one parked worker only when
//! it changes that decision (the queue was empty, the request filled a
//! batch of its key, or it made the head batch older), and a worker that
//! leaves work behind wakes the next, so an idle engine takes no wakeups
//! at all.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::poison::LockRecoverExt;
use crate::request::{InferenceRequest, ModelKey, UpdateRequest};
use crate::sync::{Condvar, Mutex};
use crate::trace::TraceStage;

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// A batch leaves as soon as it holds this many requests.
    pub max_batch: usize,
    /// A partial batch leaves once its oldest request has waited this
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
    /// The batch reached `max_batch`.
    Size,
    /// The batch's oldest request hit `max_delay`.
    Deadline,
    /// A graph update to the same model is queued behind the batch.
    Barrier,
    /// The scheduler is closed (shutdown).
    Drain,
}

/// A coalesced unit of work for one `(model, shard)` key.
#[derive(Debug)]
pub struct Batch {
    /// The model every request in the batch targets.
    pub model: ModelKey,
    /// The shard that owned every node in the batch at submit time.
    pub shard: u32,
    /// The requests, in arrival order.
    pub requests: Vec<InferenceRequest>,
    /// Why the batch left the queue.
    pub reason: FlushReason,
}

/// What a worker takes from the queue.
#[derive(Debug)]
pub enum WorkItem {
    /// A coalesced inference batch.
    Batch(Batch),
    /// A token for one pending graph update to this model; the payload is
    /// popped from the scheduler's per-model FIFO
    /// ([`BatchScheduler::take_update`]).
    Update(ModelKey),
    /// Fault injection: the worker that takes it panics, for exercising
    /// `/healthz` worker-death detection in tests
    /// ([`BatchScheduler::poison_worker`]).
    Poison,
}

/// What [`BatchScheduler::take`] decided at one clock reading.
#[derive(Debug)]
pub enum Take {
    /// Work that is due now; it has left the queue.
    Work(WorkItem),
    /// Nothing is due: wait until this instant (the head batch's
    /// deadline) or for a submit — with `None`, for a submit alone.
    Wait(Option<Instant>),
    /// The scheduler is closed and empty: the worker exits.
    Exit,
}

/// The per-model FIFO parking update payloads between
/// [`BatchScheduler::submit_update`] and the worker that takes the
/// matching [`WorkItem::Update`] token.
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

/// One entry of the work queue.
enum Queued {
    Request(InferenceRequest),
    Update(ModelKey),
}

/// Everything behind the queue lock.
#[derive(Default)]
struct State {
    queue: VecDeque<Queued>,
    closed: bool,
    poison: bool,
}

/// The batch the head request would take: where its requests sit in the
/// queue, its oldest stamp, and whether a same-model update token stops
/// it.
struct HeadBatch {
    positions: Vec<usize>,
    oldest: Instant,
    barrier: bool,
}

/// Ready work queued behind a head batch that is not due.
enum Ready {
    /// Queue positions of a full batch of one key.
    Batch(Vec<usize>),
    /// Queue position of an update token free to leave.
    Update(usize),
}

impl State {
    /// Scans the queue for the head request's batch (`None` when the head
    /// is not a request).
    fn head_batch(&self, max_batch: usize) -> Option<HeadBatch> {
        let Some(Queued::Request(head)) = self.queue.front() else {
            return None;
        };
        let mut batch = HeadBatch {
            positions: Vec::new(),
            oldest: head.submitted_at,
            barrier: false,
        };
        for (i, item) in self.queue.iter().enumerate() {
            if batch.positions.len() == max_batch {
                break;
            }
            match item {
                Queued::Request(r) if r.model == head.model && r.shard == head.shard => {
                    batch.positions.push(i);
                    batch.oldest = batch.oldest.min(r.submitted_at);
                }
                Queued::Update(model) if *model == head.model => {
                    batch.barrier = true;
                    break;
                }
                _ => {}
            }
        }
        Some(batch)
    }

    /// The first ready work in queue order: a key whose requests queued
    /// before any update token of its model reach `max_batch`, or an
    /// update token with no request of its model ahead of it.
    fn ready(&self, max_batch: usize) -> Option<Ready> {
        // Per key, the positions of its requests not behind a token.
        let mut keys: Vec<(&ModelKey, u32, Vec<usize>)> = Vec::new();
        // Models with a request or a token seen so far.
        let (mut requested, mut barred): (Vec<&ModelKey>, Vec<&ModelKey>) = (vec![], vec![]);
        for (i, item) in self.queue.iter().enumerate() {
            match item {
                Queued::Request(r) => {
                    if !requested.contains(&&r.model) {
                        requested.push(&r.model);
                    }
                    if barred.contains(&&r.model) {
                        continue;
                    }
                    let slot = match keys
                        .iter()
                        .position(|(m, s, _)| **m == r.model && *s == r.shard)
                    {
                        Some(slot) => slot,
                        None => {
                            keys.push((&r.model, r.shard, Vec::new()));
                            keys.len() - 1
                        }
                    };
                    keys[slot].2.push(i);
                    if keys[slot].2.len() == max_batch {
                        return Some(Ready::Batch(keys.swap_remove(slot).2));
                    }
                }
                Queued::Update(model) => {
                    if !requested.contains(&model) {
                        return Some(Ready::Update(i));
                    }
                    barred.push(model);
                }
            }
        }
        None
    }

    /// Whether queueing `request` changes what `take` hands out: it fills
    /// a batch of its key, or it joins the head batch with an older stamp
    /// than the batch's oldest. A request queued behind an update token of
    /// its model can do neither.
    fn wakes_for(&self, request: &InferenceRequest, max_batch: usize) -> bool {
        let head_key = matches!(
            self.queue.front(),
            Some(Queued::Request(h)) if h.model == request.model && h.shard == request.shard
        );
        let (mut same_key, mut oldest) = (0usize, None);
        for item in &self.queue {
            match item {
                Queued::Update(model) if *model == request.model => return false,
                Queued::Request(r) if r.model == request.model && r.shard == request.shard => {
                    same_key += 1;
                    oldest =
                        Some(oldest.map_or(r.submitted_at, |o: Instant| o.min(r.submitted_at)));
                }
                _ => {}
            }
        }
        (same_key + 1).is_multiple_of(max_batch)
            || (head_key
                && same_key < max_batch
                && oldest.is_some_and(|o| request.submitted_at < o))
    }

    /// While the head batch is not due: takes the [`State::ready`] work,
    /// or waits for the head batch's `deadline`.
    fn take_behind_head(&mut self, max_batch: usize, deadline: Instant, now: Instant) -> Take {
        match self.ready(max_batch) {
            Some(Ready::Batch(positions)) => Take::Work(WorkItem::Batch(self.remove_batch(
                &positions,
                FlushReason::Size,
                now,
            ))),
            Some(Ready::Update(i)) => match self.queue.remove(i) {
                Some(Queued::Update(model)) => Take::Work(WorkItem::Update(model)),
                _ => unreachable!("the ready position holds a token"),
            },
            None => Take::Wait(Some(deadline)),
        }
    }

    /// Removes the requests at `positions` (ascending) as one batch.
    fn remove_batch(&mut self, positions: &[usize], reason: FlushReason, now: Instant) -> Batch {
        let mut requests: Vec<InferenceRequest> = positions
            .iter()
            .rev()
            .map(|&i| match self.queue.remove(i) {
                Some(Queued::Request(request)) => request,
                _ => unreachable!("batch positions hold requests"),
            })
            .collect();
        requests.reverse();
        for request in &mut requests {
            request.trace.stamp_at(TraceStage::Flushed, now);
        }
        Batch {
            model: requests[0].model.clone(),
            shard: requests[0].shard,
            requests,
            reason,
        }
    }
}

/// The shared work queue plus the per-model update FIFO.
pub struct BatchScheduler {
    config: SchedulerConfig,
    state: Mutex<State>,
    /// Parked workers wait here.
    ready: Condvar,
    updates: UpdateQueue,
}

impl BatchScheduler {
    /// An empty, open queue.
    pub fn new(config: SchedulerConfig) -> Self {
        Self {
            config,
            state: Mutex::new(State::default()),
            ready: Condvar::new(),
            updates: UpdateQueue::default(),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Enqueues one request, waking a parked worker if the request changes
    /// what is due: the queue was empty, the request fills a batch of its
    /// key, or it joins the head batch older than its oldest request.
    pub fn submit(&self, mut request: InferenceRequest) {
        request.trace.stamp(TraceStage::Enqueued);
        let mut state = self.state.lock().recover("work-queue");
        let wake = state.queue.is_empty() || state.wakes_for(&request, self.config.max_batch);
        state.queue.push_back(Queued::Request(request));
        drop(state);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Enqueues one graph update: parks the payload in the model's FIFO and
    /// queues a token for it behind every request already admitted.
    pub fn submit_update(&self, request: UpdateRequest) {
        let model = request.model.clone();
        self.updates.push(request);
        self.state
            .lock()
            .recover("work-queue")
            .queue
            .push_back(Queued::Update(model));
        self.ready.notify_one();
    }

    /// Pops the oldest pending update for `model` (delegates to the
    /// [`UpdateQueue`]).
    pub fn take_update(&self, model: &ModelKey) -> Option<UpdateRequest> {
        self.updates.pop(model)
    }

    /// Decides, at clock reading `now`, what a worker asking now gets, and
    /// removes it from the queue if it is due. See the module docs for the
    /// rule. Never waits for work and never reads the clock, so tests drive
    /// it with a synthetic one.
    pub fn take(&self, now: Instant) -> Take {
        let mut state = self.state.lock().recover("work-queue");
        self.take_locked(&mut state, now)
    }

    fn take_locked(&self, state: &mut State, now: Instant) -> Take {
        if state.poison {
            state.poison = false;
            return Take::Work(WorkItem::Poison);
        }
        let Some(batch) = state.head_batch(self.config.max_batch) else {
            return match state.queue.pop_front() {
                Some(Queued::Update(model)) => Take::Work(WorkItem::Update(model)),
                Some(Queued::Request(_)) => unreachable!("a request head has a batch"),
                None if state.closed => Take::Exit,
                None => Take::Wait(None),
            };
        };
        let deadline = batch.oldest + self.config.max_delay;
        let reason = if batch.positions.len() == self.config.max_batch {
            FlushReason::Size
        } else if batch.barrier {
            FlushReason::Barrier
        } else if now >= deadline {
            FlushReason::Deadline
        } else if state.closed {
            FlushReason::Drain
        } else {
            return state.take_behind_head(self.config.max_batch, deadline, now);
        };
        Take::Work(WorkItem::Batch(state.remove_batch(
            &batch.positions,
            reason,
            now,
        )))
    }

    /// Blocks until work is due and returns it, or returns `None` once the
    /// scheduler is closed and drained. Every return from the condvar wait
    /// is counted in `wakeups`. A worker that leaves work behind wakes
    /// another parked worker to take over the new head.
    pub fn next(&self, wakeups: &AtomicU64) -> Option<WorkItem> {
        let mut state = self.state.lock().recover("work-queue");
        loop {
            let now = Instant::now();
            match self.take_locked(&mut state, now) {
                Take::Work(item) => {
                    if !state.queue.is_empty() {
                        self.ready.notify_one();
                    }
                    return Some(item);
                }
                Take::Exit => return None,
                Take::Wait(Some(deadline)) => {
                    state = self
                        .ready
                        .wait_timeout(state, deadline - now)
                        .recover("work-queue")
                        .0;
                }
                Take::Wait(None) => {
                    state = self.ready.wait(state).recover("work-queue");
                }
            }
            wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Closes the queue: every queued batch leaves at once
    /// ([`FlushReason::Drain`]), and workers exit once it is empty.
    pub fn close(&self) {
        self.state.lock().recover("work-queue").closed = true;
        self.ready.notify_all();
    }

    /// Number of inference requests waiting in the queue.
    pub fn pending(&self) -> usize {
        self.state
            .lock()
            .recover("work-queue")
            .queue
            .iter()
            .filter(|item| matches!(item, Queued::Request(_)))
            .count()
    }

    /// Number of updates parked in per-model FIFOs (submitted, not yet
    /// taken by a worker).
    pub fn pending_updates(&self) -> usize {
        self.updates.pending()
    }

    /// Fault injection: the next worker to dequeue panics
    /// ([`WorkItem::Poison`]), after it has released the queue lock.
    pub fn poison_worker(&self) {
        self.state.lock().recover("work-queue").poison = true;
        self.ready.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_gnn::GnnKind;
    use mega_graph::GraphDelta;
    use std::sync::Arc;

    fn cora() -> ModelKey {
        ModelKey::new("Cora", GnnKind::Gcn)
    }

    fn request(id: u64, shard: u32, at: Instant) -> InferenceRequest {
        InferenceRequest {
            id,
            model: cora(),
            node: id as u32,
            shard,
            submitted_at: at,
            trace: crate::trace::RequestTrace::begin(),
        }
    }

    fn scheduler(max_batch: usize, max_delay: Duration) -> BatchScheduler {
        BatchScheduler::new(SchedulerConfig {
            max_batch,
            max_delay,
        })
    }

    fn batch(take: Take) -> Batch {
        match take {
            Take::Work(WorkItem::Batch(batch)) => batch,
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    fn ids(batch: &Batch) -> Vec<u64> {
        batch.requests.iter().map(|r| r.id).collect()
    }

    #[test]
    fn size_triggered_flush_emits_full_batch() {
        let scheduler = scheduler(3, Duration::from_secs(60));
        let now = Instant::now();
        for id in 0..3 {
            scheduler.submit(request(id, 0, now));
        }
        let batch = batch(scheduler.take(now));
        assert_eq!(ids(&batch), vec![0, 1, 2]);
        assert_eq!(batch.reason, FlushReason::Size);
        assert_eq!(scheduler.pending(), 0);
    }

    /// The head picks the key, but a full batch for another shard does not
    /// wait behind a partial head batch: it leaves by size at once.
    #[test]
    fn shards_batch_independently() {
        let scheduler = scheduler(2, Duration::from_millis(5));
        let now = Instant::now();
        scheduler.submit(request(0, 0, now));
        scheduler.submit(request(1, 1, now));
        scheduler.submit(request(2, 1, now));
        let full = batch(scheduler.take(now));
        assert_eq!((full.shard, full.reason), (1, FlushReason::Size));
        assert_eq!(ids(&full), vec![1, 2]);
        assert!(matches!(scheduler.take(now), Take::Wait(Some(_))));
        let head = batch(scheduler.take(now + Duration::from_millis(5)));
        assert_eq!((head.shard, head.reason), (0, FlushReason::Deadline));
    }

    #[test]
    fn deadline_flushes_partial_batch() {
        let max_delay = Duration::from_millis(5);
        let scheduler = scheduler(64, max_delay);
        let t0 = Instant::now();
        scheduler.submit(request(0, 0, t0));
        scheduler.submit(request(1, 0, t0));
        // Before the deadline nothing moves.
        assert!(matches!(
            scheduler.take(t0 + Duration::from_millis(1)),
            Take::Wait(Some(d)) if d == t0 + max_delay
        ));
        // At the deadline the partial batch leaves.
        let batch = batch(scheduler.take(t0 + max_delay));
        assert_eq!(ids(&batch), vec![0, 1]);
        assert_eq!(batch.reason, FlushReason::Deadline);
        assert_eq!(scheduler.pending(), 0);
        // Nothing left: wait for a submit.
        assert!(matches!(
            scheduler.take(t0 + Duration::from_secs(1)),
            Take::Wait(None)
        ));
    }

    /// The deadline belongs to the oldest request of the head batch, which
    /// need not be the head itself (stamps are taken before the queue
    /// lock). A batch behind it that is already overdue leaves at once.
    #[test]
    fn take_waits_for_the_head_deadline() {
        let max_delay = Duration::from_millis(10);
        let scheduler = scheduler(64, max_delay);
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        scheduler.submit(request(0, 0, t0 + ms(3)));
        scheduler.submit(request(1, 1, t0));
        scheduler.submit(request(2, 0, t0 + ms(1)));
        assert!(matches!(
            scheduler.take(t0),
            Take::Wait(Some(d)) if d == t0 + ms(1) + max_delay
        ));
        let head = batch(scheduler.take(t0 + ms(1) + max_delay));
        assert_eq!(
            (ids(&head), head.reason),
            (vec![0, 2], FlushReason::Deadline)
        );
        let overdue = batch(scheduler.take(t0 + ms(1) + max_delay));
        assert_eq!(
            (ids(&overdue), overdue.reason),
            (vec![1], FlushReason::Deadline)
        );
    }

    #[test]
    fn close_drains_every_key() {
        let scheduler = scheduler(32, Duration::from_secs(60));
        let now = Instant::now();
        scheduler.submit(request(0, 0, now));
        scheduler.submit(request(1, 3, now));
        scheduler.close();
        for (id, shard) in [(0, 0), (1, 3)] {
            let batch = batch(scheduler.take(now));
            assert_eq!((ids(&batch), batch.shard), (vec![id], shard));
            assert_eq!(batch.reason, FlushReason::Drain);
        }
        assert!(matches!(scheduler.take(now), Take::Exit));
    }

    #[test]
    fn updates_barrier_their_model_and_queue_fifo() {
        let scheduler = scheduler(32, Duration::from_millis(5));
        let now = Instant::now();
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
                model: cora(),
                delta,
                node_features: vec![],
                submitted_at: now,
            }
        };
        scheduler.submit_update(update(10));
        scheduler.submit_update(update(11));
        // Cora's batch is barriered out at once...
        let barriered = batch(scheduler.take(now));
        assert_eq!(barriered.model, cora());
        assert_eq!(barriered.reason, FlushReason::Barrier);
        // ...then Cora's tokens leave in FIFO order without waiting behind
        // PubMed's partial batch, which leaves at its deadline.
        for expected in [10u64, 11] {
            assert!(matches!(
                scheduler.take(now),
                Take::Work(WorkItem::Update(key)) if key == cora()
            ));
            assert_eq!(scheduler.take_update(&cora()).unwrap().id, expected);
        }
        assert!(matches!(scheduler.take(now), Take::Wait(Some(_))));
        let deadline = now + Duration::from_millis(5);
        assert_eq!(batch(scheduler.take(deadline)).model, other);
        assert_eq!(scheduler.pending_updates(), 0);
        assert!(scheduler.take_update(&cora()).is_none());
    }

    /// Requests admitted after an update do not join the batch barriered
    /// ahead of it.
    #[test]
    fn a_barrier_batch_stops_at_the_token() {
        let scheduler = scheduler(32, Duration::from_secs(60));
        let now = Instant::now();
        scheduler.submit(request(0, 0, now));
        let mut delta = GraphDelta::new();
        delta.insert_edge(1, 0);
        scheduler.submit_update(UpdateRequest {
            id: 9,
            model: cora(),
            delta,
            node_features: vec![],
            submitted_at: now,
        });
        scheduler.submit(request(1, 0, now));
        assert_eq!(ids(&batch(scheduler.take(now))), vec![0]);
        assert!(matches!(
            scheduler.take(now),
            Take::Work(WorkItem::Update(_))
        ));
        assert_eq!(scheduler.pending(), 1);
    }

    #[test]
    fn poison_is_taken_before_queued_work() {
        let scheduler = scheduler(1, Duration::from_secs(60));
        let now = Instant::now();
        scheduler.submit(request(0, 0, now));
        scheduler.poison_worker();
        assert!(matches!(scheduler.take(now), Take::Work(WorkItem::Poison)));
        assert_eq!(ids(&batch(scheduler.take(now))), vec![0]);
    }

    /// A worker parked on an empty queue wakes for the first submit, parks
    /// again until the head's (far) deadline, and wakes again when a second
    /// submit fills the batch.
    #[test]
    fn next_wakes_on_submit() {
        let scheduler = Arc::new(scheduler(2, Duration::from_secs(60)));
        let parked = {
            let scheduler = scheduler.clone();
            std::thread::spawn(move || scheduler.next(&AtomicU64::new(0)))
        };
        std::thread::sleep(Duration::from_millis(10));
        scheduler.submit(request(0, 0, Instant::now()));
        std::thread::sleep(Duration::from_millis(10));
        scheduler.submit(request(1, 0, Instant::now()));
        let Some(WorkItem::Batch(batch)) = parked.join().expect("worker woke") else {
            panic!("expected a batch");
        };
        assert_eq!(batch.reason, FlushReason::Size);
    }

    /// A worker parked until a far head deadline wakes when a submit fills
    /// a batch of another key, and takes that batch at once.
    #[test]
    fn next_wakes_when_a_batch_behind_the_head_fills() {
        let scheduler = Arc::new(scheduler(2, Duration::from_secs(60)));
        scheduler.submit(request(0, 0, Instant::now()));
        let parked = {
            let scheduler = scheduler.clone();
            std::thread::spawn(move || scheduler.next(&AtomicU64::new(0)))
        };
        std::thread::sleep(Duration::from_millis(10));
        scheduler.submit(request(1, 1, Instant::now()));
        scheduler.submit(request(2, 1, Instant::now()));
        let Some(WorkItem::Batch(batch)) = parked.join().expect("worker woke") else {
            panic!("expected a batch");
        };
        assert_eq!(
            (ids(&batch), batch.shard, batch.reason),
            (vec![1, 2], 1, FlushReason::Size)
        );
    }

    /// `submitted_at` is stamped before the queue lock, so a stalled
    /// submitter can join the head batch with an older stamp than the one
    /// a parked worker is timing. That submit must wake the worker, or the
    /// batch leaves late.
    #[test]
    fn an_older_stamp_wakes_a_parked_worker() {
        let max_delay = Duration::from_secs(60);
        let scheduler = Arc::new(scheduler(64, max_delay));
        let now = Instant::now();
        scheduler.submit(request(0, 0, now));
        let parked = {
            let scheduler = scheduler.clone();
            std::thread::spawn(move || scheduler.next(&AtomicU64::new(0)))
        };
        std::thread::sleep(Duration::from_millis(10));
        // Overdue on arrival: without the wake, join would hang ~60 s.
        scheduler.submit(request(1, 0, now - max_delay));
        let Some(WorkItem::Batch(batch)) = parked.join().expect("worker woke") else {
            panic!("expected a batch");
        };
        assert_eq!(
            (ids(&batch), batch.reason),
            (vec![0, 1], FlushReason::Deadline)
        );
    }
}
