//! Lock-order-checked synchronization primitives.
//!
//! Drop-in replacements for [`std::sync::Mutex`], [`std::sync::RwLock`]
//! and [`std::sync::Condvar`] that, **in debug builds only**, record the
//! global lock-*acquisition-order* graph and panic the moment any
//! acquisition would close a cycle in it — i.e. before the program can
//! actually deadlock. In release builds every name in this module is a
//! plain re-export of the `std::sync` type: zero wrapper, zero cost.
//!
//! # How the detector works
//!
//! Locks are grouped into **classes** by their creation site (the
//! `#[track_caller]` location of `Mutex::new` / `RwLock::new`): all
//! ticket slots minted by one constructor share a class, the scheduler's
//! work queue is its own class, and so on. Every time a thread *blocks*
//! on an acquisition while already holding other locks, a directed edge
//! `held-class → acquiring-class` is added to a process-global graph
//! (with the acquiring thread and both call sites kept as the witness).
//! Before the edge is added — and crucially, before the thread blocks —
//! the detector checks whether the reverse direction is already
//! reachable; if it is, two call paths disagree about the order of those
//! classes, which is exactly the ABBA shape that deadlocks under the
//! right interleaving. The panic message names both hold sites and the
//! previously recorded path, so a single test run of *either* path flags
//! the race even though no test interleaves them.
//!
//! Deliberate design points:
//!
//! * `try_lock`/`try_read`/`try_write` push onto the held stack on
//!   success but record **no incoming edge**: a non-blocking attempt can
//!   fail but never deadlock, so e.g. probing a model entry's dirtiness
//!   while holding the artifact-cache map lock is not a violation.
//!   Edges *from* a try-held lock to a later blocking acquisition are
//!   still recorded.
//! * [`Condvar::wait`] keeps the mutex's held-stack entry for the
//!   duration of the wait. The thread is blocked and acquires nothing in
//!   between, and the entry is accurate again the instant the wait
//!   returns with the lock re-held.
//! * Same-class nesting (two locks minted at one creation site) is not
//!   modeled; ordering within a class is the caller's responsibility.
//!
//! # Poison policy
//!
//! The wrappers preserve the `std` poisoning API verbatim
//! ([`LockResult`], [`PoisonError`], …). [`LockResultExt::unpoison`] is
//! the repo-wide recovery idiom: take the guard whether or not a prior
//! holder panicked. Serving code should prefer
//! [`crate::poison::recover`], which additionally reports the component
//! on `/healthz`.

use std::any::Any;

pub use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult, WaitTimeoutResult};

#[cfg(not(debug_assertions))]
pub use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(debug_assertions)]
pub use checked::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Snapshot of the lock-order graph ([`order_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderStats {
    /// Distinct lock classes (creation sites) seen so far.
    pub classes: usize,
    /// Distinct acquisition-order edges recorded so far.
    pub edges: usize,
}

/// Counters from the global lock-order graph.
///
/// Debug builds report live numbers; release builds (where the detector
/// compiles away) always report zeros. Tests use this to prove the
/// detector is actually running — `edges > 0` after exercising the serve
/// engine means the instrumented wrappers, not the raw `std` types, are
/// on the hot path.
pub fn order_stats() -> OrderStats {
    #[cfg(debug_assertions)]
    {
        checked::stats()
    }
    #[cfg(not(debug_assertions))]
    {
        OrderStats {
            classes: 0,
            edges: 0,
        }
    }
}

/// Extracts the panic message from a [`std::thread::JoinHandle`] error.
///
/// Convenience for tests that assert on detector panics.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".to_string(),
        },
    }
}

/// Recovery idiom for poisoned locks: take the guard regardless.
///
/// A poisoned lock only means some thread panicked while holding it; the
/// protected data is still structurally valid for every type in this
/// repo (counters, maps, rings). Serving code must not let that take the
/// process down — recover the guard and keep serving.
pub trait LockResultExt {
    /// The guard type on the `Ok` path.
    type Guard;
    /// Returns the guard, ignoring poison.
    fn unpoison(self) -> Self::Guard;
}

impl<G> LockResultExt for Result<G, PoisonError<G>> {
    type Guard = G;
    fn unpoison(self) -> G {
        self.unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(debug_assertions)]
mod checked {
    //! The instrumented primitives (debug builds only). See the module
    //! docs for the detection model.

    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::panic::Location;
    use std::sync as sys;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{LockResult, OnceLock, PoisonError, TryLockError, TryLockResult};
    use std::time::Duration;

    type ClassId = usize;

    /// Who recorded an order edge, and where.
    struct EdgeWitness {
        held_at: &'static Location<'static>,
        acquired_at: &'static Location<'static>,
        thread: String,
    }

    #[derive(Default)]
    struct Graph {
        /// Creation site per class id.
        class_sites: Vec<&'static Location<'static>>,
        /// Interning: creation site -> class id.
        class_ids: HashMap<(&'static str, u32, u32), ClassId>,
        /// Recorded order edges with their first witness.
        edges: HashMap<(ClassId, ClassId), EdgeWitness>,
        /// Adjacency view of `edges` for reachability walks.
        adj: HashMap<ClassId, Vec<ClassId>>,
    }

    impl Graph {
        /// A path `from -> ... -> to` through recorded edges, if any.
        fn path(&self, from: ClassId, to: ClassId) -> Option<Vec<ClassId>> {
            let mut prev: HashMap<ClassId, ClassId> = HashMap::new();
            let mut queue = std::collections::VecDeque::from([from]);
            while let Some(node) = queue.pop_front() {
                if node == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while cur != from {
                        cur = prev[&cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                for &next in self.adj.get(&node).into_iter().flatten() {
                    if next != from && !prev.contains_key(&next) {
                        prev.insert(next, node);
                        queue.push_back(next);
                    }
                }
            }
            None
        }
    }

    fn with_graph<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
        static GRAPH: OnceLock<sys::Mutex<Graph>> = OnceLock::new();
        let mut graph = GRAPH
            .get_or_init(|| sys::Mutex::new(Graph::default()))
            .lock()
            // A detector panic poisons this lock; later acquisitions must
            // keep working so the rest of the suite still gets checked.
            .unwrap_or_else(PoisonError::into_inner);
        f(&mut graph)
    }

    fn register_class(site: &'static Location<'static>) -> ClassId {
        with_graph(|graph| {
            let key = (site.file(), site.line(), site.column());
            if let Some(&id) = graph.class_ids.get(&key) {
                return id;
            }
            let id = graph.class_sites.len();
            graph.class_sites.push(site);
            graph.class_ids.insert(key, id);
            id
        })
    }

    /// One lock currently held by this thread.
    struct Held {
        class: ClassId,
        at: &'static Location<'static>,
        token: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    fn next_token() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    }

    /// Records `held -> class` edges for everything this thread holds and
    /// panics if any of them closes a cycle. Runs *before* blocking on
    /// the lock, so the panic preempts the deadlock it predicts.
    fn check_order(class: ClassId, at: &'static Location<'static>) {
        HELD.with(|held| {
            let held = held.borrow();
            if held.is_empty() {
                return;
            }
            with_graph(|graph| {
                for hl in held.iter() {
                    if hl.class == class || graph.edges.contains_key(&(hl.class, class)) {
                        continue;
                    }
                    if let Some(path) = graph.path(class, hl.class) {
                        let mut msg = format!(
                            "lock-order cycle detected (potential deadlock):\n  \
                             thread '{}' is acquiring {} (at {}) while holding {} (acquired at {})\n  \
                             but the reverse order is already established:",
                            thread_name(),
                            site(graph, class),
                            at,
                            site(graph, hl.class),
                            hl.at,
                        );
                        for pair in path.windows(2) {
                            let witness = &graph.edges[&(pair[0], pair[1])];
                            msg.push_str(&format!(
                                "\n    {} -> {}: thread '{}' held it (acquired at {}) \
                                 then acquired the other at {}",
                                site(graph, pair[0]),
                                site(graph, pair[1]),
                                witness.thread,
                                witness.held_at,
                                witness.acquired_at,
                            ));
                        }
                        panic!("{msg}");
                    }
                    graph.edges.insert(
                        (hl.class, class),
                        EdgeWitness {
                            held_at: hl.at,
                            acquired_at: at,
                            thread: thread_name(),
                        },
                    );
                    graph.adj.entry(hl.class).or_default().push(class);
                }
            });
        });
    }

    fn site(graph: &Graph, class: ClassId) -> String {
        format!("lock class [{}]", graph.class_sites[class])
    }

    fn thread_name() -> String {
        std::thread::current()
            .name()
            .unwrap_or("<unnamed>")
            .to_string()
    }

    fn push_held(class: ClassId, at: &'static Location<'static>) -> u64 {
        let token = next_token();
        HELD.with(|held| held.borrow_mut().push(Held { class, at, token }));
        token
    }

    fn release(token: u64) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.token == token) {
                held.remove(pos);
            }
        });
    }

    pub(super) fn stats() -> super::OrderStats {
        with_graph(|graph| super::OrderStats {
            classes: graph.class_sites.len(),
            edges: graph.edges.len(),
        })
    }

    /// Order-checked [`std::sync::Mutex`].
    pub struct Mutex<T: ?Sized> {
        class: ClassId,
        inner: sys::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates a new mutex; the call site defines its lock class.
        #[track_caller]
        pub fn new(value: T) -> Self {
            Self {
                class: register_class(Location::caller()),
                inner: sys::Mutex::new(value),
            }
        }

        /// Consumes the mutex, returning the underlying data.
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Blocking acquisition; checks and records lock order first.
        #[track_caller]
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            let at = Location::caller();
            check_order(self.class, at);
            match self.inner.lock() {
                Ok(guard) => Ok(MutexGuard {
                    inner: Some(guard),
                    token: push_held(self.class, at),
                }),
                Err(poisoned) => Err(PoisonError::new(MutexGuard {
                    inner: Some(poisoned.into_inner()),
                    token: push_held(self.class, at),
                })),
            }
        }

        /// Non-blocking acquisition; records no incoming order edge (a
        /// failed try cannot deadlock).
        #[track_caller]
        pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
            let at = Location::caller();
            match self.inner.try_lock() {
                Ok(guard) => Ok(MutexGuard {
                    inner: Some(guard),
                    token: push_held(self.class, at),
                }),
                Err(TryLockError::Poisoned(poisoned)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                        inner: Some(poisoned.into_inner()),
                        token: push_held(self.class, at),
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            }
        }
    }

    impl<T: Default> Default for Mutex<T> {
        #[track_caller]
        fn default() -> Self {
            Self::new(T::default())
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    /// Guard for [`Mutex`]; releases the held-stack entry on drop.
    pub struct MutexGuard<'a, T: ?Sized + 'a> {
        /// `None` only transiently, while a [`Condvar`] wait owns the
        /// underlying guard (the held-stack entry stays live).
        inner: Option<sys::MutexGuard<'a, T>>,
        token: u64,
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard taken by condvar wait")
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard taken by condvar wait")
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.inner.is_some() {
                release(self.token);
            }
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            (**self).fmt(f)
        }
    }

    /// Order-checked [`std::sync::RwLock`].
    ///
    /// Read acquisitions participate in order tracking exactly like
    /// writes: a read can still block (writer held / writer queued), so
    /// read-side edges are real deadlock edges.
    pub struct RwLock<T: ?Sized> {
        class: ClassId,
        inner: sys::RwLock<T>,
    }

    impl<T> RwLock<T> {
        /// Creates a new lock; the call site defines its lock class.
        #[track_caller]
        pub fn new(value: T) -> Self {
            Self {
                class: register_class(Location::caller()),
                inner: sys::RwLock::new(value),
            }
        }

        /// Consumes the lock, returning the underlying data.
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Blocking shared acquisition; checks and records lock order.
        #[track_caller]
        pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
            let at = Location::caller();
            check_order(self.class, at);
            match self.inner.read() {
                Ok(guard) => Ok(RwLockReadGuard {
                    inner: guard,
                    token: push_held(self.class, at),
                }),
                Err(poisoned) => Err(PoisonError::new(RwLockReadGuard {
                    inner: poisoned.into_inner(),
                    token: push_held(self.class, at),
                })),
            }
        }

        /// Blocking exclusive acquisition; checks and records lock order.
        #[track_caller]
        pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
            let at = Location::caller();
            check_order(self.class, at);
            match self.inner.write() {
                Ok(guard) => Ok(RwLockWriteGuard {
                    inner: guard,
                    token: push_held(self.class, at),
                }),
                Err(poisoned) => Err(PoisonError::new(RwLockWriteGuard {
                    inner: poisoned.into_inner(),
                    token: push_held(self.class, at),
                })),
            }
        }

        /// Non-blocking shared acquisition; no incoming order edge.
        #[track_caller]
        pub fn try_read(&self) -> TryLockResult<RwLockReadGuard<'_, T>> {
            let at = Location::caller();
            match self.inner.try_read() {
                Ok(guard) => Ok(RwLockReadGuard {
                    inner: guard,
                    token: push_held(self.class, at),
                }),
                Err(TryLockError::Poisoned(poisoned)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(RwLockReadGuard {
                        inner: poisoned.into_inner(),
                        token: push_held(self.class, at),
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            }
        }

        /// Non-blocking exclusive acquisition; no incoming order edge.
        #[track_caller]
        pub fn try_write(&self) -> TryLockResult<RwLockWriteGuard<'_, T>> {
            let at = Location::caller();
            match self.inner.try_write() {
                Ok(guard) => Ok(RwLockWriteGuard {
                    inner: guard,
                    token: push_held(self.class, at),
                }),
                Err(TryLockError::Poisoned(poisoned)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(RwLockWriteGuard {
                        inner: poisoned.into_inner(),
                        token: push_held(self.class, at),
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            }
        }
    }

    impl<T: Default> Default for RwLock<T> {
        #[track_caller]
        fn default() -> Self {
            Self::new(T::default())
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    /// Shared guard for [`RwLock`].
    pub struct RwLockReadGuard<'a, T: ?Sized + 'a> {
        inner: sys::RwLockReadGuard<'a, T>,
        token: u64,
    }

    impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            release(self.token);
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            (**self).fmt(f)
        }
    }

    /// Exclusive guard for [`RwLock`].
    pub struct RwLockWriteGuard<'a, T: ?Sized + 'a> {
        inner: sys::RwLockWriteGuard<'a, T>,
        token: u64,
    }

    impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            release(self.token);
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            (**self).fmt(f)
        }
    }

    /// Order-checked [`std::sync::Condvar`] companion.
    ///
    /// The mutex's held-stack entry stays live across a wait: the thread
    /// is blocked in between, and the lock is re-held the moment the
    /// wait returns.
    #[derive(Default)]
    pub struct Condvar {
        inner: sys::Condvar,
    }

    impl Condvar {
        /// Creates a new condition variable.
        pub fn new() -> Self {
            Self::default()
        }

        /// See [`std::sync::Condvar::wait`].
        pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let token = guard.token;
            let inner = guard.inner.take().expect("guard taken by condvar wait");
            drop(guard); // inner is None: the held-stack entry survives
            match self.inner.wait(inner) {
                Ok(inner) => Ok(MutexGuard {
                    inner: Some(inner),
                    token,
                }),
                Err(poisoned) => Err(PoisonError::new(MutexGuard {
                    inner: Some(poisoned.into_inner()),
                    token,
                })),
            }
        }

        /// See [`std::sync::Condvar::wait_timeout`].
        pub fn wait_timeout<'a, T>(
            &self,
            mut guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> LockResult<(MutexGuard<'a, T>, super::WaitTimeoutResult)> {
            let token = guard.token;
            let inner = guard.inner.take().expect("guard taken by condvar wait");
            drop(guard); // inner is None: the held-stack entry survives
            match self.inner.wait_timeout(inner, dur) {
                Ok((inner, timeout)) => Ok((
                    MutexGuard {
                        inner: Some(inner),
                        token,
                    },
                    timeout,
                )),
                Err(poisoned) => {
                    let (inner, timeout) = poisoned.into_inner();
                    Err(PoisonError::new((
                        MutexGuard {
                            inner: Some(inner),
                            token,
                        },
                        timeout,
                    )))
                }
            }
        }

        /// See [`std::sync::Condvar::notify_one`].
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// See [`std::sync::Condvar::notify_all`].
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    impl fmt::Debug for Condvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Condvar").finish_non_exhaustive()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_and_rwlock_round_trip() {
        let m = Mutex::new(1u32);
        *m.lock().unpoison() += 1;
        assert_eq!(*m.lock().unpoison(), 2);
        let rw = RwLock::new(vec![1, 2]);
        rw.write().unpoison().push(3);
        assert_eq!(rw.read().unpoison().len(), 3);
        assert!(rw.try_read().is_ok());
    }

    #[test]
    fn consistent_nesting_never_panics() {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (a, b) = (a.clone(), b.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let ga = a.lock().unpoison();
                    let gb = b.lock().unpoison();
                    drop(gb);
                    drop(ga);
                }
            }));
        }
        for h in handles {
            h.join()
                .expect("consistent order must not trip the detector");
        }
    }

    #[test]
    fn condvar_wait_delivers_notification() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = pair.clone();
            std::thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut ready = lock.lock().unpoison();
                while !*ready {
                    ready = cv.wait(ready).unpoison();
                }
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        let (lock, cv) = &*pair;
        *lock.lock().unpoison() = true;
        cv.notify_all();
        waiter.join().unwrap();

        // wait_timeout on a never-notified condvar times out cleanly.
        let m = Mutex::new(());
        let cv = Condvar::new();
        let guard = m.lock().unpoison();
        let (_guard, timeout) = cv.wait_timeout(guard, Duration::from_millis(1)).unpoison();
        assert!(timeout.timed_out());
    }

    #[test]
    fn unpoison_recovers_a_poisoned_lock() {
        let m = Arc::new(Mutex::new(41u32));
        let poisoner = {
            let m = m.clone();
            std::thread::spawn(move || {
                let _guard = m.lock().unpoison();
                panic!("poison it");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(m.lock().is_err(), "lock should report poison");
        let mut guard = m.lock().unpoison();
        *guard += 1;
        assert_eq!(*guard, 42);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn abba_cycle_panics_with_both_hold_sites() {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));

        // Establish A -> B on one thread...
        {
            let (a, b) = (a.clone(), b.clone());
            std::thread::spawn(move || {
                let _ga = a.lock().unpoison();
                let _gb = b.lock().unpoison();
            })
            .join()
            .unwrap();
        }

        // ...then B -> A on another. The check fires before blocking, so
        // this is deterministic: no interleaving is required.
        let err = {
            let (a, b) = (a.clone(), b.clone());
            std::thread::spawn(move || {
                let _gb = b.lock().unpoison();
                let _ga = a.lock().unpoison();
            })
            .join()
            .expect_err("reverse acquisition order must panic")
        };
        let msg = panic_message(err);
        assert!(
            msg.contains("lock-order cycle detected"),
            "unexpected message: {msg}"
        );
        assert!(msg.contains("while holding"), "missing hold site: {msg}");
        // Both classes' creation sites (this file) and the prior
        // thread's witness must be in the report.
        assert!(
            msg.matches("sync.rs").count() >= 2,
            "expected both hold sites in: {msg}"
        );
        assert!(
            msg.contains("reverse order is already established"),
            "missing established-order witness: {msg}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn try_lock_records_no_incoming_edge() {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));

        // Holding A, *try*-lock B: must not record A -> B.
        {
            let (a, b) = (a.clone(), b.clone());
            std::thread::spawn(move || {
                let _ga = a.lock().unpoison();
                let _gb = b.try_lock().expect("uncontended");
            })
            .join()
            .unwrap();
        }

        // So the blocking order B -> A is still free to establish itself.
        {
            let (a, b) = (a.clone(), b.clone());
            std::thread::spawn(move || {
                let _gb = b.lock().unpoison();
                let _ga = a.lock().unpoison();
            })
            .join()
            .expect("try-lock must not have recorded the reverse edge");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn order_stats_sees_recorded_edges() {
        let before = order_stats();
        let outer = Mutex::new(());
        let inner = Mutex::new(());
        let _go = outer.lock().unpoison();
        let _gi = inner.lock().unpoison();
        let after = order_stats();
        assert!(after.classes >= before.classes + 2);
        assert!(after.edges > before.edges);
    }

    /// In release builds the "wrappers" must literally be the std types:
    /// same `TypeId`, zero added cost.
    #[cfg(not(debug_assertions))]
    #[test]
    fn release_mode_is_a_std_reexport() {
        use std::any::TypeId;
        assert_eq!(
            TypeId::of::<Mutex<u8>>(),
            TypeId::of::<std::sync::Mutex<u8>>()
        );
        assert_eq!(
            TypeId::of::<RwLock<u8>>(),
            TypeId::of::<std::sync::RwLock<u8>>()
        );
        assert_eq!(TypeId::of::<Condvar>(), TypeId::of::<std::sync::Condvar>());
        assert_eq!(
            order_stats(),
            OrderStats {
                classes: 0,
                edges: 0
            }
        );
    }
}
