//! The batching rule, proved two ways:
//!
//! 1. A **property test of the decision**: [`BatchScheduler::take`] driven
//!    by a synthetic clock (no sleeping, fully deterministic) over random
//!    submit timings, keys, updates and `max_batch`, with one worker that
//!    asks whenever something is queued and at every deadline `take`
//!    names. No batch leaves later than `oldest + max_delay`, none leaves
//!    earlier unless it leaves for `Size`, `Barrier` or `Drain`, a partial
//!    batch leaves only from the head of the queue, no request or update
//!    overtakes the other in its model's order, `take` never waits while a
//!    full batch or a free update token is queued, and every request is
//!    emitted exactly once, in batches of at most `max_batch`.
//! 2. A **real-time engine test**: the live condvar wait (actual parking,
//!    actual wakeups) must answer a lone request within `max_delay + ε`,
//!    and never before `max_delay`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta};
use mega_serve::{
    Batch, BatchScheduler, FlushReason, InferenceRequest, ModelKey, ModelRegistry, ModelSpec,
    SchedulerConfig, ServeConfig, ServeEngine, Take, UpdateRequest, WorkItem,
};
use proptest::prelude::*;

fn model(index: usize) -> ModelKey {
    ModelKey::new(["Cora", "PubMed"][index], GnnKind::Gcn)
}

/// One entry of the simulated worker's copy of the queue.
enum Item {
    Request {
        id: u64,
        model: ModelKey,
        shard: u32,
    },
    Update {
        model: ModelKey,
    },
}

impl Item {
    fn model(&self) -> &ModelKey {
        match self {
            Item::Request { model, .. } | Item::Update { model } => model,
        }
    }
}

/// What the simulated worker has seen so far.
#[derive(Default)]
struct Seen {
    requests: HashSet<u64>,
    /// Update ids per model, queued and not yet taken, in submit order.
    updates: HashMap<ModelKey, VecDeque<u64>>,
    /// Everything submitted and not yet taken, in submit order.
    queue: Vec<Item>,
}

impl Seen {
    /// Checks that waiting is right: the head batch is not barriered, no
    /// key's requests queued before any update token of its model fill
    /// `max_batch`, and every update token has a request of its model
    /// ahead of it.
    fn wait(&self, max_batch: usize) -> Result<(), String> {
        if let Some(Item::Request { model, .. }) = self.queue.first() {
            if self
                .queue
                .iter()
                .any(|item| matches!(item, Item::Update { model: m } if m == model))
            {
                return Err("a barriered head batch waited".into());
            }
        }
        let mut counts: HashMap<(&ModelKey, u32), usize> = HashMap::new();
        let mut barred: HashSet<&ModelKey> = HashSet::new();
        for (i, item) in self.queue.iter().enumerate() {
            match item {
                Item::Request { model, shard, .. } if !barred.contains(model) => {
                    let count = counts.entry((model, *shard)).or_default();
                    *count += 1;
                    if *count == max_batch {
                        return Err(format!("a full batch of {model:?}/{shard} waited"));
                    }
                }
                Item::Request { .. } => {}
                Item::Update { model } => {
                    if !self.queue[..i].iter().any(|ahead| ahead.model() == model) {
                        return Err(format!("a free update token of {model:?} waited"));
                    }
                    barred.insert(model);
                }
            }
        }
        Ok(())
    }

    /// Checks one taken item against the rule at clock reading `now`.
    fn take(
        &mut self,
        scheduler: &BatchScheduler,
        item: WorkItem,
        now: Instant,
        closed: bool,
    ) -> Result<(), String> {
        let config = scheduler.config();
        let batch: Batch = match item {
            WorkItem::Batch(batch) => batch,
            WorkItem::Update(model) => {
                let at = self
                    .queue
                    .iter()
                    .position(|item| matches!(item, Item::Update { model: m } if *m == model))
                    .ok_or("an update token left twice")?;
                if self.queue[..at].iter().any(|item| *item.model() == model) {
                    return Err("an update overtook a request of its model".into());
                }
                self.queue.remove(at);
                let expected = self.updates.get_mut(&model).and_then(VecDeque::pop_front);
                let got = scheduler.take_update(&model).map(|u| u.id);
                return if got.is_some() && got == expected {
                    Ok(())
                } else {
                    Err(format!(
                        "update FIFO broke: got {got:?}, expected {expected:?}"
                    ))
                };
            }
            WorkItem::Poison => return Err("nothing poisoned the queue".into()),
        };
        let len = batch.requests.len();
        if len == 0 || len > config.max_batch {
            return Err(format!("batch of {len} (max_batch {})", config.max_batch));
        }
        if len < config.max_batch
            && !matches!(self.queue.first(), Some(Item::Request { id, .. }) if *id == batch.requests[0].id)
        {
            return Err(format!(
                "a partial {:?} batch left from behind the head",
                batch.reason
            ));
        }
        for request in &batch.requests {
            if (&request.model, request.shard) != (&batch.model, batch.shard) {
                return Err("a batch mixed keys".into());
            }
            if !self.requests.insert(request.id) {
                return Err(format!("request {} emitted twice", request.id));
            }
            let at = self
                .queue
                .iter()
                .position(|item| matches!(item, Item::Request { id, .. } if *id == request.id))
                .ok_or("a request that was never queued")?;
            if self.queue[..at]
                .iter()
                .any(|item| matches!(item, Item::Update { model } if *model == batch.model))
            {
                return Err("a request overtook an update of its model".into());
            }
            self.queue.remove(at);
        }
        let oldest = batch.requests.iter().map(|r| r.submitted_at).min().unwrap();
        let deadline = oldest + config.max_delay;
        if now > deadline {
            return Err(format!("left {:?} late", now - deadline));
        }
        let early_ok = match batch.reason {
            FlushReason::Deadline => now >= deadline,
            FlushReason::Size => len == config.max_batch,
            FlushReason::Barrier => self
                .updates
                .get(&batch.model)
                .is_some_and(|q| !q.is_empty()),
            FlushReason::Drain => closed,
        };
        if early_ok {
            Ok(())
        } else {
            Err(format!(
                "{:?} batch of {len} left {:?} early",
                batch.reason,
                deadline - now
            ))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn take_never_flushes_late_early_or_twice(
        // Per arrival: gap in µs, model, shard, and whether it is an update
        // (kind 0) instead of a request.
        arrivals in proptest::collection::vec(
            (0..3_000u64, 0..2usize, 0..3u32, 0..8u32),
            1..60,
        ),
        max_batch in 1..7usize,
        max_delay_us in 200..5_000u64,
    ) {
        let scheduler = BatchScheduler::new(SchedulerConfig {
            max_batch,
            max_delay: Duration::from_micros(max_delay_us),
        });
        let t0 = Instant::now();
        let mut clock = t0;
        let mut seen = Seen::default();
        let mut requests = 0u64;
        for (id, &(gap_us, m, shard, kind)) in arrivals.iter().enumerate() {
            let arrival = clock + Duration::from_micros(gap_us);
            // The worker asks now and at every deadline due before the
            // next arrival.
            loop {
                match scheduler.take(clock) {
                    Take::Work(item) => {
                        let checked = seen.take(&scheduler, item, clock, false);
                        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
                    }
                    Take::Wait(next) => {
                        let checked = seen.wait(max_batch);
                        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
                        match next {
                            Some(deadline) if deadline <= arrival => {
                                prop_assert!(deadline > clock, "a wait names a future deadline");
                                clock = deadline;
                            }
                            _ => break,
                        }
                    }
                    Take::Exit => prop_assert!(false, "the queue is open"),
                }
            }
            clock = arrival;
            let id = id as u64;
            if kind == 0 {
                seen.updates.entry(model(m)).or_default().push_back(id);
                seen.queue.push(Item::Update { model: model(m) });
                scheduler.submit_update(UpdateRequest {
                    id,
                    model: model(m),
                    delta: GraphDelta::new(),
                    node_features: vec![],
                    submitted_at: clock,
                });
            } else {
                requests += 1;
                seen.queue.push(Item::Request { id, model: model(m), shard });
                scheduler.submit(InferenceRequest {
                    id,
                    model: model(m),
                    node: id as u32,
                    shard,
                    submitted_at: clock,
                    trace: mega_serve::RequestTrace::begin(),
                });
            }
        }
        // Close and drain without advancing the clock.
        scheduler.close();
        loop {
            match scheduler.take(clock) {
                Take::Work(item) => {
                    let checked = seen.take(&scheduler, item, clock, true);
                    prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
                }
                Take::Wait(_) => prop_assert!(false, "a closed queue never waits"),
                Take::Exit => break,
            }
        }
        prop_assert_eq!(seen.requests.len() as u64, requests, "every request emitted");
        prop_assert!(seen.updates.values().all(VecDeque::is_empty), "every update taken");
        prop_assert_eq!(scheduler.pending(), 0);
        prop_assert_eq!(scheduler.pending_updates(), 0);
    }
}

/// The live condvar wait: a lone request (far below `max_batch`) must
/// leave by deadline within `max_delay + ε`, and never early; ε here is
/// thread-scheduling noise only.
#[test]
fn live_worker_flushes_at_the_deadline() {
    let max_delay = Duration::from_millis(25);
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(ModelSpec::standard(
        DatasetSpec::cora().scaled(0.08).with_feature_dim(48),
        GnnKind::Gcn,
    ));
    let engine = ServeEngine::start_detached(
        ServeConfig {
            workers: 1,
            scheduler: SchedulerConfig {
                max_batch: 1_000,
                max_delay,
            },
            ..ServeConfig::default()
        },
        registry,
    );
    engine.warm(&key).unwrap();
    for probe in 0..5u32 {
        let submitted = Instant::now();
        let response = engine
            .submit_wait(&key, probe, Duration::from_secs(30))
            .expect("deadline flush answers");
        let elapsed = submitted.elapsed();
        assert!(
            response.latency >= max_delay - Duration::from_millis(1),
            "nothing but the deadline can flush a lone request (latency {:?})",
            response.latency
        );
        // ε: generous for CI schedulers.
        assert!(
            elapsed < max_delay + Duration::from_millis(300),
            "deadline flush arrived {elapsed:?} after submit (deadline {max_delay:?})"
        );
    }
    let report = engine.shutdown();
    assert_eq!(report.completed, 5);
    assert!(report.deadline_flushes >= 5);
}
