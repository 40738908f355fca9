//! Event-driven request completion: per-request tickets and the
//! completion router that delivers each response to its waiter the moment
//! it exists. A ticket is the only way a response leaves the engine.
//!
//! MEGA's degree-aware tiering is a *latency* knob (low-degree nodes are
//! cheap at 2–3 bits), and a poll loop would put a floor under exactly the
//! latency the tiering buys back; AMPLE (Gimenes et al.) makes the same
//! point architecturally with event-driven rather than polled dispatch. So
//! completion is pushed, not polled:
//!
//! * [`ServeEngine::submit`](crate::ServeEngine::submit) registers a
//!   [`Ticket`] — a per-request slot behind a `Mutex` + `Condvar` — in the
//!   engine's [`CompletionRouter`] *before* the request can reach a worker.
//! * Whoever produces the response (the submit-time logits-cache hit path,
//!   a worker's batch/cached/update path) hands it by value to
//!   [`CompletionRouter::deliver`], which moves it into the slot and wakes
//!   its waiter.
//! * [`Ticket::wait`] blocks until delivery or a per-request deadline —
//!   no global channel, no poll tick, no wakeup for anyone else's
//!   response.
//!
//! The router doubles as the engine's in-flight accounting: a slot exists
//! exactly while its request is outstanding, so
//! [`CompletionRouter::in_flight`] is the admission-control signal the
//! HTTP ingress ([`crate::http`]) sheds load on.

use std::collections::HashMap;
use std::sync::Arc;

use crate::sync::{Condvar, Mutex};

use crate::poison::LockRecoverExt;
use std::time::{Duration, Instant};

use crate::request::{InferenceResponse, ServeResponse, UpdateResponse};

/// Why a [`Ticket::wait`] returned without a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitError {
    /// The deadline passed before the response was delivered. The request
    /// is still in flight: the response will land on this ticket whenever
    /// it completes, and a later `wait` can still collect it.
    Timeout(Duration),
    /// The engine dropped the request without answering (the model was
    /// re-registered out from under it, or the engine tore down first).
    /// No response will ever arrive.
    Dropped,
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::Timeout(d) => write!(f, "no response within {d:?}"),
            WaitError::Dropped => write!(f, "request dropped without a response"),
        }
    }
}

impl std::error::Error for WaitError {}

/// Slot lifecycle. `Delivered` keeps the response resident so repeated
/// waits (e.g. retrying after a timeout that raced delivery) all succeed.
enum SlotState {
    Pending,
    Delivered(ServeResponse),
    Dropped,
}

struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        }
    }

    fn deliver(&self, response: ServeResponse) {
        let mut state = self.state.lock().recover("ticket-slot");
        *state = SlotState::Delivered(response);
        self.ready.notify_all();
    }

    fn drop_request(&self) {
        let mut state = self.state.lock().recover("ticket-slot");
        if matches!(*state, SlotState::Pending) {
            *state = SlotState::Dropped;
        }
        self.ready.notify_all();
    }
}

/// A claim on one in-flight request's response.
///
/// Returned by [`crate::ServeEngine::submit`] and
/// [`crate::ServeEngine::submit_update`]; redeemed with [`Ticket::wait`],
/// which blocks on the request's own `Condvar` until the worker (or the
/// submit-time cache-hit path) delivers — the response arrives the moment
/// it exists, not on the next poll tick. Dropping a ticket without waiting
/// is fine: the request is still answered and its slot is reclaimed on
/// delivery.
pub struct Ticket {
    id: u64,
    slot: Arc<Slot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("id", &self.id).finish()
    }
}

impl Ticket {
    /// The engine-assigned request id (matches the `id` on the response).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response is delivered, the request is dropped, or
    /// `timeout` elapses. A timed-out ticket stays valid: the in-flight
    /// request keeps its slot, and a later `wait` still observes the
    /// response. `wait(Duration::ZERO)` is the non-blocking probe.
    pub fn wait(&self, timeout: Duration) -> Result<ServeResponse, WaitError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.slot.state.lock().recover("ticket-slot");
        loop {
            match &*state {
                SlotState::Delivered(response) => return Ok(response.clone()),
                SlotState::Dropped => return Err(WaitError::Dropped),
                SlotState::Pending => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(WaitError::Timeout(timeout));
            }
            let (next, _) = self
                .slot
                .ready
                .wait_timeout(state, deadline - now)
                .recover("ticket-slot");
            state = next;
        }
    }

    /// Like [`Ticket::wait`], unwrapped to the inference payload.
    ///
    /// # Panics
    ///
    /// Panics if the delivered response is an update acknowledgement
    /// (i.e. the ticket came from `submit_update`).
    pub fn wait_inference(&self, timeout: Duration) -> Result<InferenceResponse, WaitError> {
        Ok(self
            .wait(timeout)?
            .into_inference()
            .expect("inference ticket delivered an update ack"))
    }

    /// Like [`Ticket::wait`], unwrapped to the update acknowledgement.
    ///
    /// # Panics
    ///
    /// Panics if the delivered response is an inference response.
    pub fn wait_update(&self, timeout: Duration) -> Result<UpdateResponse, WaitError> {
        Ok(self
            .wait(timeout)?
            .into_update()
            .expect("update ticket delivered an inference response"))
    }
}

/// The engine's table of in-flight request slots, keyed by request id.
///
/// A slot is registered *before* its request is published to the
/// scheduler (so delivery can never race registration) and removed on
/// delivery or drop — which makes [`CompletionRouter::in_flight`] an
/// exact count of outstanding requests, the signal admission control
/// sheds on.
#[derive(Default)]
pub struct CompletionRouter {
    slots: Mutex<HashMap<u64, Arc<Slot>>>,
}

impl CompletionRouter {
    /// An empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a pending slot for `id` and returns its ticket.
    pub fn register(&self, id: u64) -> Ticket {
        let slot = Arc::new(Slot::new());
        self.slots
            .lock()
            .recover("completion-router")
            .insert(id, slot.clone());
        Ticket { id, slot }
    }

    /// Moves `response` into its request's slot, wakes the waiter, and
    /// reclaims the slot. Requests submitted without keeping the ticket
    /// still pass through here — the slot exists regardless, which is what
    /// keeps `in_flight` exact.
    pub fn deliver(&self, response: ServeResponse) {
        let slot = self
            .slots
            .lock()
            .recover("completion-router")
            .remove(&response.id());
        if let Some(slot) = slot {
            slot.deliver(response);
        }
    }

    /// [`CompletionRouter::deliver`] for a traced inference response:
    /// stamps [`TraceStage::Delivered`](crate::trace::TraceStage::Delivered),
    /// folds the finished timeline into `tracer` (stage histograms plus
    /// the flight recorder), then delivers. Every inference delivery path
    /// — submit-time cache hit, worker partial-batch split, worker batch —
    /// funnels through here so a timeline can never escape unrecorded.
    pub fn deliver_traced(
        &self,
        response: InferenceResponse,
        trace: &mut crate::trace::RequestTrace,
        tracer: &crate::trace::Tracer,
    ) {
        trace.stamp(crate::trace::TraceStage::Delivered);
        tracer.complete(trace, &response);
        self.deliver(ServeResponse::Inference(response));
    }

    /// Marks `id` as dropped-without-answer and wakes its waiter (if any).
    pub fn drop_request(&self, id: u64) {
        let slot = self.slots.lock().recover("completion-router").remove(&id);
        if let Some(slot) = slot {
            slot.drop_request();
        }
    }

    /// Number of requests submitted but not yet answered or dropped.
    pub fn in_flight(&self) -> usize {
        self.slots.lock().recover("completion-router").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelKey;
    use mega_gnn::GnnKind;

    fn response(id: u64) -> ServeResponse {
        ServeResponse::Inference(InferenceResponse {
            id,
            model: ModelKey::new("Cora", GnnKind::Gcn),
            node: 3,
            logits: vec![1.0, 2.0],
            predicted_class: 1,
            bits: 2,
            tier: 0,
            shard: 0,
            halo_rows: 0,
            batch_size: 1,
            worker: None,
            cached: false,
            latency: Duration::from_micros(5),
        })
    }

    #[test]
    fn deliver_wakes_waiter_and_clears_in_flight() {
        let router = Arc::new(CompletionRouter::new());
        let ticket = router.register(7);
        assert_eq!(router.in_flight(), 1);
        assert!(ticket.wait(Duration::ZERO).is_err());
        let waiter = {
            let ticket_router = router.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                ticket_router.deliver(response(7));
            })
        };
        let got = ticket.wait(Duration::from_secs(5)).expect("delivered");
        assert_eq!(got.id(), 7);
        waiter.join().unwrap();
        assert_eq!(router.in_flight(), 0);
        // Repeated waits keep succeeding (delivery is sticky).
        assert!(ticket.wait(Duration::ZERO).is_ok());
    }

    #[test]
    fn timeout_leaves_ticket_collectable() {
        let router = CompletionRouter::new();
        let ticket = router.register(1);
        assert_eq!(
            ticket.wait(Duration::from_millis(1)).unwrap_err(),
            WaitError::Timeout(Duration::from_millis(1))
        );
        assert_eq!(router.in_flight(), 1, "timed-out request stays in flight");
        router.deliver(response(1));
        assert_eq!(ticket.wait(Duration::ZERO).unwrap().id(), 1);
    }

    #[test]
    fn dropped_requests_fail_fast() {
        let router = CompletionRouter::new();
        let ticket = router.register(2);
        router.drop_request(2);
        assert_eq!(
            ticket.wait(Duration::from_secs(5)).unwrap_err(),
            WaitError::Dropped
        );
        assert_eq!(router.in_flight(), 0);
    }
}
