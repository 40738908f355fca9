//! The serving stack's poisoned-lock policy: **recover, note, report**.
//!
//! A poisoned lock means a thread panicked while holding it. For every
//! structure the engine shares (metric counters, cache maps, trace
//! rings, the work queue) the data is still structurally valid after
//! such a panic — at worst a counter missed one increment — so taking
//! the whole handler pool down with an `unwrap()` turns a survivable
//! glitch into an outage. `mega-lint`'s `lock-unwrap` rule forbids
//! `.unwrap()`/`.expect()` on lock results anywhere in this crate;
//! request-path code calls [`recover`] instead, which
//!
//! 1. returns the guard whether or not the lock was poisoned, and
//! 2. on first poison, records the component name in a process-global
//!    set that [`crate::ServeEngine::health`] folds into
//!    [`crate::EngineHealth`].
//!
//! `/healthz` then goes 503 with a `"lock(s) ... poisoned"` reason —
//! the same pattern a dead worker triggers — so the
//! load balancer drains the replica while in-flight traffic keeps being
//! answered.

use std::collections::BTreeSet;
use std::sync::{LockResult, OnceLock, PoisonError};

fn poisoned_set() -> &'static std::sync::Mutex<BTreeSet<&'static str>> {
    static POISONED: OnceLock<std::sync::Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    POISONED.get_or_init(|| std::sync::Mutex::new(BTreeSet::new()))
}

/// Takes the guard out of a lock result, recovering from poison.
///
/// On the poisoned path the `component` name is noted for
/// [`poisoned_components`]; the guard is returned either way, so callers
/// never panic on someone else's panic.
pub fn recover<G>(result: LockResult<G>, component: &'static str) -> G {
    match result {
        Ok(guard) => guard,
        Err(poisoned) => {
            note(component);
            poisoned.into_inner()
        }
    }
}

/// Chainable form of [`recover`]: `self.inner.lock().recover("cache")`.
///
/// This is the idiom the serve crate uses at every lock site — it keeps
/// method chains intact where `recover(self.inner.lock(), ..)` would
/// force a restructure, and it reads as what it is: a policy decision,
/// not an assertion.
pub trait LockRecoverExt {
    /// The guard type on the `Ok` path.
    type Guard;
    /// [`recover`], as a postfix method.
    fn recover(self, component: &'static str) -> Self::Guard;
}

impl<G> LockRecoverExt for Result<G, PoisonError<G>> {
    type Guard = G;
    fn recover(self, component: &'static str) -> G {
        recover(self, component)
    }
}

/// Records `component` as having seen a poisoned lock.
///
/// Public for fault-injection tests (the same role
/// [`crate::ServeEngine::poison_worker`] plays for worker liveness);
/// production code goes through [`recover`].
pub fn note(component: &'static str) {
    poisoned_set()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(component);
}

/// Components that have recovered from a poisoned lock, sorted.
///
/// Non-empty means some thread panicked mid-update; the engine keeps
/// serving, but `/healthz` reports 503 so the replica gets drained and
/// restarted.
pub fn poisoned_components() -> Vec<&'static str> {
    poisoned_set()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use std::sync::Arc;

    #[test]
    fn recover_notes_component_and_returns_guard() {
        let lock = Arc::new(Mutex::new(7u32));
        assert!(!poisoned_components().contains(&"unit-test-lock"));
        let poisoner = {
            let lock = lock.clone();
            std::thread::spawn(move || {
                let _guard = recover(lock.lock(), "unit-test-lock");
                panic!("poison it");
            })
        };
        assert!(poisoner.join().is_err());
        let mut guard = recover(lock.lock(), "unit-test-lock");
        *guard += 1;
        assert_eq!(*guard, 8);
        assert!(poisoned_components().contains(&"unit-test-lock"));
    }
}
