//! The per-`(model, shard)` logits cache: a byte-capacity LRU over final
//! per-node logits that short-circuits the forward pass for hot nodes.
//!
//! MEGA's premise is traffic skew — a small set of high-degree hub nodes
//! dominates aggregation cost, which is why the paper tiers precision by
//! degree in the first place. The same skew makes per-node *results*
//! cacheable: a hub queried thousands of times between graph mutations
//! needs one forward pass, not thousands. A [`crate::ModelArtifacts`]
//! carries one [`LogitsCache`] per shard (a node's entry lives in its
//! owning shard's cache); the engine consults it at submit time (a hit
//! never reaches the scheduler — the response is delivered straight into
//! the request's [`crate::Ticket`] slot on the submitting thread, so a
//! `submit_wait` hit completes in microseconds) and workers consult it
//! again per batch (a miss at submit time may have been filled by an
//! earlier batch), inserting freshly computed rows on the way out.
//!
//! **Correctness is an invalidation property.** A cached row for target
//! `t` is a pure function of the weights plus everything in `t`'s `L`-hop
//! receptive field: quantized feature rows, normalized adjacency rows, and
//! per-node bitwidths (the hidden-activation quantizer keys on them). So
//! when [`crate::ModelArtifacts::apply_delta`] lands a delta, it
//! invalidates exactly the targets whose field intersects the mutated
//! rows, computed as the *inverse* halo closure
//! ([`mega_partition::influence_closure_with`]): `t` reads row `u` iff `u`
//! reaches `t` within `L` out-edge hops. Everything outside that set keeps
//! serving from cache bit-exactly — the property
//! `crates/serve/tests/logits_cache.rs` proves under random churn for
//! K ∈ {1, 2, 4} × every aggregator. Weight or policy changes only happen
//! through re-registration, which rebuilds the artifacts and therefore
//! starts from an empty cache.
//!
//! Capacity is budgeted in **bytes**, not entries ([`ModelSpec::cache_bytes`]
//! split evenly across shards), because logits rows scale with the class
//! count and an entry-count limit would make memory use dataset-dependent.
//! Eviction is strict LRU via a recency index, `O(log n)` per touch.
//!
//! [`ModelSpec::cache_bytes`]: crate::ModelSpec::cache_bytes

use crate::sync::Mutex;
use std::collections::{BTreeMap, HashMap};

use crate::poison::LockRecoverExt;

use mega_graph::NodeId;

/// Fixed per-entry byte charge on top of the logits payload: the key, the
/// served `(bits, tier)` snapshot, the recency tick, and amortized map
/// overhead. An estimate (exact allocator accounting is not portable), and
/// an optimistic one: for 32 classes an entry is charged 192 B, but it
/// requests ~250–260 B of heap (the slot, the logits vector and the
/// recency-tree share) and adds ~270 B of resident memory at 22k entries
/// (x86-64 Linux, glibc). A full cache therefore holds more than its
/// configured byte budget.
pub const ENTRY_OVERHEAD_BYTES: usize = 64;

/// One cached result: the logits row plus the serving metadata the
/// response carries, snapshotted at compute time (invalidation guarantees
/// they are still current whenever the entry is readable).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedLogits {
    /// Final-layer logits, one per class, bit-exact with a fresh pass.
    pub logits: Vec<f32>,
    /// `argmax` of `logits`.
    pub predicted_class: usize,
    /// Activation bitwidth the node was served at.
    pub bits: u8,
    /// Precision tier (0 = fewest bits).
    pub tier: usize,
}

struct Slot {
    cached: CachedLogits,
    tick: u64,
}

struct Inner {
    map: HashMap<NodeId, Slot>,
    /// tick -> node, the LRU order (ticks are unique, so this is a total
    /// order on resident entries).
    recency: BTreeMap<u64, NodeId>,
    tick: u64,
    bytes: usize,
}

/// A byte-capacity LRU of per-node logits for one `(model, shard)` pair.
///
/// Thread-safe behind an internal mutex; contention stays low because a
/// batch holds one shard's misses (one worker at a time usually fills a
/// given shard's cache) and submit-path lookups are sub-microsecond. The
/// cache carries no counters of its own — every mutating call returns what
/// it did so callers attribute hits/misses/evictions/invalidations to
/// [`crate::Metrics`] with answered-request semantics.
pub struct LogitsCache {
    capacity_bytes: usize,
    inner: Mutex<Inner>,
}

impl LogitsCache {
    /// A cache holding at most `capacity_bytes` of entries (payload plus
    /// [`ENTRY_OVERHEAD_BYTES`] each). `0` disables the cache: lookups
    /// miss, inserts are dropped — the uncached baseline path.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
                bytes: 0,
            }),
        }
    }

    /// Whether the cache can ever hold anything.
    pub fn is_enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// The byte charge of one entry with `classes` logits.
    pub fn entry_bytes(classes: usize) -> usize {
        classes * std::mem::size_of::<f32>() + ENTRY_OVERHEAD_BYTES
    }

    /// Looks up `node`, refreshing its recency on a hit.
    pub fn get(&self, node: NodeId) -> Option<CachedLogits> {
        if !self.is_enabled() {
            return None;
        }
        let mut inner = self.inner.lock().recover("logits-cache");
        inner.tick += 1;
        let tick = inner.tick;
        let slot = inner.map.get_mut(&node)?;
        let old_tick = std::mem::replace(&mut slot.tick, tick);
        let cached = slot.cached.clone();
        inner.recency.remove(&old_tick);
        inner.recency.insert(tick, node);
        Some(cached)
    }

    /// Inserts (or replaces) `node`'s entry and evicts LRU entries until
    /// the byte budget holds. Returns how many entries were evicted. An
    /// entry larger than the whole budget is not admitted (it would only
    /// evict everything and then thrash).
    pub fn insert(&self, node: NodeId, cached: CachedLogits) -> usize {
        let bytes = Self::entry_bytes(cached.logits.len());
        if bytes > self.capacity_bytes {
            return 0;
        }
        let mut inner = self.inner.lock().recover("logits-cache");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(node, Slot { cached, tick }) {
            inner.recency.remove(&old.tick);
            inner.bytes -= Self::entry_bytes(old.cached.logits.len());
        }
        inner.recency.insert(tick, node);
        inner.bytes += bytes;
        let mut evicted = 0;
        while inner.bytes > self.capacity_bytes {
            let (&lru_tick, &lru_node) = inner
                .recency
                .iter()
                .next()
                .expect("over budget implies resident entries");
            // The just-inserted entry fits on its own, so the LRU victim
            // here is never the entry being inserted.
            debug_assert_ne!(lru_tick, tick);
            inner.recency.remove(&lru_tick);
            let slot = inner.map.remove(&lru_node).expect("recency maps to map");
            inner.bytes -= Self::entry_bytes(slot.cached.logits.len());
            evicted += 1;
        }
        evicted
    }

    /// Drops every entry whose node appears in `stale` (ascending node
    /// ids). Returns how many entries were actually dropped. This is the
    /// delta-invalidation entry point: callers pass the inverse halo
    /// closure of the delta's dirty rows.
    pub fn invalidate(&self, stale: &[NodeId]) -> usize {
        if stale.is_empty() {
            return 0;
        }
        let mut inner = self.inner.lock().recover("logits-cache");
        // Walk the smaller side: a churn-heavy delta can dirty most of the
        // graph while the cache holds few entries, and vice versa.
        let resident: Vec<NodeId> = if stale.len() < inner.map.len() {
            stale
                .iter()
                .copied()
                .filter(|v| inner.map.contains_key(v))
                .collect()
        } else {
            inner
                .map
                .keys()
                .copied()
                .filter(|v| stale.binary_search(v).is_ok())
                .collect()
        };
        for v in &resident {
            let slot = inner.map.remove(v).expect("resident entry");
            inner.recency.remove(&slot.tick);
            inner.bytes -= Self::entry_bytes(slot.cached.logits.len());
        }
        resident.len()
    }

    /// Drops everything. Returns how many entries were dropped — the
    /// flush path for changes that void every cached row at once (e.g. an
    /// explicit operator flush; weight changes rebuild the artifacts and
    /// never reach a live cache).
    pub fn flush(&self) -> usize {
        let mut inner = self.inner.lock().recover("logits-cache");
        let dropped = inner.map.len();
        inner.map.clear();
        inner.recency.clear();
        inner.bytes = 0;
        dropped
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().recover("logits-cache").map.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the budget.
    pub fn bytes(&self) -> usize {
        self.inner.lock().recover("logits-cache").bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seed: f32, classes: usize) -> CachedLogits {
        let logits: Vec<f32> = (0..classes).map(|c| seed + c as f32).collect();
        CachedLogits {
            predicted_class: classes - 1,
            logits,
            bits: 2,
            tier: 0,
        }
    }

    #[test]
    fn get_insert_roundtrip_and_byte_accounting() {
        let cache = LogitsCache::new(10 * LogitsCache::entry_bytes(4));
        assert!(cache.is_enabled() && cache.is_empty());
        assert!(cache.get(7).is_none());
        assert_eq!(cache.insert(7, entry(1.0, 4)), 0);
        assert_eq!(cache.get(7).unwrap(), entry(1.0, 4));
        assert_eq!(cache.bytes(), LogitsCache::entry_bytes(4));
        // Replacement does not double-charge.
        cache.insert(7, entry(2.0, 4));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), LogitsCache::entry_bytes(4));
        assert_eq!(cache.get(7).unwrap().logits[0], 2.0);
    }

    #[test]
    fn eviction_is_lru_by_bytes() {
        // Room for exactly two 4-class entries.
        let cache = LogitsCache::new(2 * LogitsCache::entry_bytes(4));
        cache.insert(0, entry(0.0, 4));
        cache.insert(1, entry(1.0, 4));
        // Touch 0 so 1 becomes LRU; inserting 2 must evict 1.
        assert!(cache.get(0).is_some());
        assert_eq!(cache.insert(2, entry(2.0, 4)), 1);
        assert!(cache.get(0).is_some(), "recently used survives");
        assert!(cache.get(1).is_none(), "LRU entry evicted");
        assert!(cache.get(2).is_some());
        assert!(cache.bytes() <= cache.capacity_bytes());
    }

    #[test]
    fn oversized_entries_are_not_admitted() {
        let cache = LogitsCache::new(LogitsCache::entry_bytes(2));
        assert_eq!(cache.insert(0, entry(0.0, 1000)), 0);
        assert!(cache.is_empty(), "an entry above the budget is rejected");
        // A fitting entry still works.
        cache.insert(1, entry(1.0, 2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let cache = LogitsCache::new(0);
        assert!(!cache.is_enabled());
        assert_eq!(cache.insert(0, entry(0.0, 1)), 0);
        assert!(cache.get(0).is_none());
        assert_eq!(cache.flush(), 0);
    }

    #[test]
    fn invalidate_drops_exactly_the_stale_set() {
        let cache = LogitsCache::new(16 * LogitsCache::entry_bytes(4));
        for v in 0..8u32 {
            cache.insert(v, entry(v as f32, 4));
        }
        let bytes_before = cache.bytes();
        // Stale list may include non-resident nodes; only resident drops
        // count.
        assert_eq!(cache.invalidate(&[1, 3, 100]), 2);
        assert!(cache.get(1).is_none() && cache.get(3).is_none());
        assert!(cache.get(0).is_some() && cache.get(7).is_some());
        assert_eq!(
            cache.bytes(),
            bytes_before - 2 * LogitsCache::entry_bytes(4)
        );
        assert_eq!(cache.invalidate(&[]), 0);
        // The cache-larger-than-stale and stale-larger-than-cache walks
        // agree.
        let big_stale: Vec<u32> = (0..1000).collect();
        assert_eq!(cache.invalidate(&big_stale), 6);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn flush_empties_everything() {
        let cache = LogitsCache::new(16 * LogitsCache::entry_bytes(4));
        for v in 0..5u32 {
            cache.insert(v, entry(v as f32, 4));
        }
        assert_eq!(cache.flush(), 5);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        // Reusable after a flush.
        cache.insert(9, entry(9.0, 4));
        assert_eq!(cache.len(), 1);
    }
}
