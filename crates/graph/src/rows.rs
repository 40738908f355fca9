//! [`RowStore`]: many short, growable rows in one flat entry vector.
//!
//! A `Vec<Vec<T>>` pays a 24-byte header and a separate heap block per row,
//! which for graph topology (about ten 4-byte ids per row) costs more than
//! the ids themselves. A [`RowStore`] keeps every row's entries in one
//! `Vec<T>` and one 8-byte span per row (`start`, `len`, each a `u32`).
//! A row may own more slots than it holds (`cap > len`), so most inserts
//! shift entries inside the row's own slots. Only rows that have grown
//! since the build store a capacity, in a side table; every other row owns
//! exactly its entries.
//!
//! * **Growth.** A row that outgrows its capacity moves to the end of the
//!   entry vector with doubled capacity (a row already at the end grows in
//!   place). The slots it leaves behind are dead.
//! * **Shrinking.** A row with slack keeps its slots. A row without slack
//!   gives the slots it no longer fills to the dead.
//! * **Compaction.** When a relocation leaves more dead slots than live
//!   entries, the store rewrites the entry vector row by row, keeping each
//!   row's capacity.
//! * **Build.** [`RowStore::with_capacity`] plus [`RowStore::push_row`]
//!   reserves exactly, so a freshly built store carries no slack and no
//!   side table. [`RowStore::from_csr`] builds the same store by taking
//!   over a CSR's index vector as its entries and its offset vector as its
//!   spans.
//!
//! Equality compares rows, not buffers: two stores with different
//! relocation histories that hold the same rows are equal.
//!
//! ```
//! use mega_graph::RowStore;
//!
//! let mut rows: RowStore<u32> = RowStore::with_capacity(2, 3);
//! rows.push_row(&[1, 4]);
//! rows.push_row(&[7]);
//! rows.insert_at(0, 1, 2); // row 0 outgrows its exact capacity and moves
//! assert_eq!(rows.row(0), &[1, 2, 4]);
//! assert_eq!(rows.row(1), &[7]);
//! ```

use std::collections::HashMap;
use std::fmt;

/// Where one row lives in the entry vector. Aligned like the `usize` CSR
/// offsets it is built from, so [`RowStore::from_csr`] can write the spans
/// into the offsets' own buffer.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(8))]
struct Span {
    start: u32,
    len: u32,
}

/// Rows of `T` in one flat entry vector with per-row slack; see the
/// module docs.
#[derive(Clone, Default)]
pub struct RowStore<T> {
    entries: Vec<T>,
    spans: Vec<Span>,
    /// The capacity of every row that has grown since the store was built;
    /// a row missing here owns exactly `len` slots.
    caps: HashMap<u32, u32>,
    /// Slots of `entries` no row owns (left behind by relocations and
    /// shrinking exact rows).
    dead: usize,
    /// Entries held by rows: the sum of the row lengths.
    live: usize,
}

/// Converts an entry offset to a span field.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("row store exceeds u32::MAX entries")
}

/// Grows `v`'s capacity to fit `additional` more items, by at least a
/// sixteenth of its length: amortized appends without `Vec`'s doubling,
/// which would leave up to half of a large store's capacity unused.
fn reserve_step<U>(v: &mut Vec<U>, additional: usize) {
    if v.capacity() - v.len() < additional {
        v.reserve_exact(additional.max(v.len() / 16));
    }
}

impl<T: Copy + Default> RowStore<T> {
    /// An empty store with exact room for `rows` rows holding `entries`
    /// entries in total.
    pub fn with_capacity(rows: usize, entries: usize) -> Self {
        Self {
            entries: Vec::with_capacity(entries),
            spans: Vec::with_capacity(rows),
            caps: HashMap::new(),
            dead: 0,
            live: 0,
        }
    }

    /// A store holding CSR rows, row `r` being
    /// `entries[offsets[r]..offsets[r + 1]]`. `entries` becomes the entry
    /// vector as is, and the spans are written over `offsets` in its own
    /// buffer (both trimmed to exact capacity), so building allocates
    /// nothing and copies no entry. Every row gets exactly its length as capacity, as
    /// [`RowStore::with_capacity`] plus [`RowStore::push_row`] would give
    /// it.
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` starts at 0, never decreases and ends at
    /// `entries.len()`.
    pub fn from_csr(offsets: Vec<usize>, mut entries: Vec<T>) -> Self {
        assert_eq!(offsets.first(), Some(&0), "offsets must start at 0");
        assert_eq!(
            offsets.last(),
            Some(&entries.len()),
            "last offset must equal the entry count"
        );
        entries.shrink_to_fit();
        // Each span replaces the offset it follows: `into_iter().skip().map()`
        // collects in place, since a span is as large and as aligned as a
        // `usize`, and the trim gives back the one spare slot in place.
        let mut start = 0;
        let mut spans: Vec<Span> = offsets
            .into_iter()
            .skip(1)
            .map(|end| {
                let len = end.checked_sub(start).expect("offsets must not decrease");
                let span = Span {
                    start: offset(start),
                    len: offset(len),
                };
                start = end;
                span
            })
            .collect();
        spans.shrink_to_fit();
        Self {
            live: entries.len(),
            entries,
            spans,
            caps: HashMap::new(),
            dead: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the store has no rows.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The entries of row `r`.
    pub fn row(&self, r: usize) -> &[T] {
        let s = self.spans[r];
        &self.entries[s.start as usize..][..s.len as usize]
    }

    /// Number of entries in row `r`.
    pub fn row_len(&self, r: usize) -> usize {
        self.spans[r].len as usize
    }

    /// Appends a row holding `values`, with exactly that capacity.
    pub fn push_row(&mut self, values: &[T]) {
        reserve_step(&mut self.spans, 1);
        reserve_step(&mut self.entries, values.len());
        let start = offset(self.entries.len());
        self.entries.extend_from_slice(values);
        self.live += values.len();
        self.spans.push(Span {
            start,
            len: offset(values.len()),
        });
    }

    /// Replaces row `r`'s entries with `values`.
    pub fn set_row(&mut self, r: usize, values: &[T]) {
        self.resize_row(r, values.len());
        let start = self.spans[r].start as usize;
        self.entries[start..][..values.len()].copy_from_slice(values);
    }

    /// Inserts `value` at position `at` of row `r`, shifting later entries.
    ///
    /// # Panics
    ///
    /// Panics if `at > row_len(r)`.
    pub fn insert_at(&mut self, r: usize, at: usize, value: T) {
        let len = self.row_len(r);
        assert!(at <= len, "insert position {at} past row length {len}");
        self.resize_row(r, len + 1);
        let start = self.spans[r].start as usize;
        self.entries
            .copy_within(start + at..start + len, start + at + 1);
        self.entries[start + at] = value;
    }

    /// Removes and returns the entry at position `at` of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `at >= row_len(r)`.
    pub fn remove_at(&mut self, r: usize, at: usize) -> T {
        let len = self.row_len(r);
        assert!(at < len, "remove position {at} past row length {len}");
        let start = self.spans[r].start as usize;
        let value = self.entries[start + at];
        self.entries
            .copy_within(start + at + 1..start + len, start + at);
        self.resize_row(r, len - 1);
        value
    }

    /// Empties row `r`. A row with slack keeps its capacity.
    pub fn clear_row(&mut self, r: usize) {
        self.resize_row(r, 0);
    }

    /// Heap bytes held: the capacities of the entry and span vectors, plus
    /// the side table of capacities at 9 bytes a slot (a `u32` key, a
    /// `u32` capacity and a control byte).
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<T>()
            + self.spans.capacity() * std::mem::size_of::<Span>()
            + self.caps.capacity() * (2 * std::mem::size_of::<u32>() + 1)
    }

    /// Sets row `r`'s length to `len`. Growth past the row's capacity
    /// relocates it ([`RowStore::grow_row`]). Shrinking a row without
    /// slack gives the freed slots to the dead. Entries past the old
    /// length are left for the caller to write.
    fn resize_row(&mut self, r: usize, len: usize) {
        let old = self.row_len(r);
        let slack = self.caps.get(&offset(r)).copied();
        let cap = slack.map_or(old, |c| c as usize);
        self.live = self.live + len - old;
        self.spans[r].len = offset(len);
        if len > cap {
            self.grow_row(r, old, cap, (2 * cap).max(len));
        } else if slack.is_none() {
            // Here `cap == old`, so `len <= old`.
            self.dead += old - len;
        }
    }

    /// Gives row `r`, which owns `cap` slots holding `keep` entries,
    /// `new_cap` slots: a row at the end of the entry vector grows in
    /// place, any other moves to the end, leaving its old slots dead.
    /// Compacts when the dead slots then outnumber the live entries.
    fn grow_row(&mut self, r: usize, keep: usize, cap: usize, new_cap: usize) {
        let start = self.spans[r].start as usize;
        if start + cap == self.entries.len() {
            reserve_step(&mut self.entries, new_cap - cap);
            self.entries.resize(start + new_cap, T::default());
        } else {
            reserve_step(&mut self.entries, new_cap);
            let new_start = self.entries.len();
            self.entries.extend_from_within(start..start + keep);
            self.entries.resize(new_start + new_cap, T::default());
            self.spans[r].start = offset(new_start);
            self.dead += cap;
        }
        self.caps.insert(offset(r), offset(new_cap));
        if self.dead > self.live {
            self.compact();
        }
    }

    /// Rewrites the entry vector without dead slots, row by row, keeping
    /// every row's capacity.
    fn compact(&mut self) {
        let mut entries = Vec::with_capacity(self.entries.len() - self.dead);
        for (r, s) in self.spans.iter_mut().enumerate() {
            let cap = self.caps.get(&offset(r)).map_or(s.len, |&c| c) as usize;
            let start = s.start as usize;
            s.start = offset(entries.len());
            entries.extend_from_slice(&self.entries[start..][..cap]);
        }
        self.entries = entries;
        self.dead = 0;
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for RowStore<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|r| self.row(r) == other.row(r))
    }
}

impl<T: Copy + Default + Eq> Eq for RowStore<T> {}

impl<T: Copy + Default + fmt::Debug> fmt::Debug for RowStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|r| self.row(r)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<T: Copy + Default> RowStore<T> {
        /// The slots row `r` owns.
        fn cap(&self, r: usize) -> usize {
            self.caps.get(&offset(r)).map_or(self.spans[r].len, |&c| c) as usize
        }

        /// Spans lie inside the entry vector, do not overlap, and leave
        /// exactly `dead` slots unowned; `live` sums the row lengths; the
        /// side table holds only existing rows, none shorter than its
        /// length.
        fn assert_consistent(&self) {
            for (&r, &cap) in &self.caps {
                assert!((r as usize) < self.len(), "capacity of a missing row");
                assert!(
                    self.spans[r as usize].len <= cap,
                    "row longer than its capacity"
                );
            }
            // Empty rows own nothing and may sit anywhere.
            let mut owned: Vec<(usize, usize)> = (0..self.len())
                .filter(|&r| self.cap(r) > 0)
                .map(|r| {
                    let start = self.spans[r].start as usize;
                    (start, start + self.cap(r))
                })
                .collect();
            owned.sort_unstable();
            for pair in owned.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "rows overlap");
            }
            assert!(owned
                .last()
                .is_none_or(|&(_, end)| end <= self.entries.len()));
            let total: usize = owned.iter().map(|(a, b)| b - a).sum();
            assert_eq!(total + self.dead, self.entries.len(), "dead slot count");
            let live: usize = self.spans.iter().map(|s| s.len as usize).sum();
            assert_eq!(live, self.live, "live entry count");
        }
    }

    /// How often each kind of step happened in a [`run`].
    #[derive(Debug, Default)]
    struct Seen {
        /// Steps that moved a row to the end of the entry vector.
        relocations: usize,
        /// Steps that compacted the store.
        compactions: usize,
        /// Steps that shortened a row owning exactly its entries.
        exact_shrinks: usize,
        /// Steps that shortened a row with slack.
        slack_shrinks: usize,
        /// `set_row` calls to a shorter and to a longer row.
        set_shorter: usize,
        set_longer: usize,
    }

    /// One random mutation, mirrored on a store and on a `Vec<Vec<u32>>`.
    fn step(store: &mut RowStore<u32>, model: &mut Vec<Vec<u32>>, (op, a, b): (u8, u32, u32)) {
        if model.is_empty() || op == 0 {
            let row: Vec<u32> = (0..a % 5).map(|i| b + i).collect();
            store.push_row(&row);
            model.push(row);
            return;
        }
        let r = a as usize % model.len();
        let len = model[r].len();
        match op {
            1 => {
                let row: Vec<u32> = (0..b % 12).collect();
                store.set_row(r, &row);
                model[r] = row;
            }
            2..=5 => {
                let at = b as usize % (len + 1);
                store.insert_at(r, at, a ^ b);
                model[r].insert(at, a ^ b);
            }
            6 | 7 if len > 0 => {
                let at = b as usize % len;
                assert_eq!(store.remove_at(r, at), model[r].remove(at));
            }
            _ => {
                store.clear_row(r);
                model[r].clear();
            }
        }
    }

    fn from_model(model: &[Vec<u32>]) -> RowStore<u32> {
        let total = model.iter().map(Vec::len).sum();
        let mut store = RowStore::with_capacity(model.len(), total);
        for row in model {
            store.push_row(row);
        }
        store
    }

    /// Applies `ops` to a store and a `Vec<Vec<u32>>` model, checking
    /// after every step that the rows agree, that a fresh build of the
    /// model's rows (no relocation history) equals the store, and that
    /// `heap_bytes` is the summed capacities. Returns what the steps did.
    fn run(ops: &[(u8, u32, u32)]) -> Seen {
        let mut store = RowStore::default();
        let mut model: Vec<Vec<u32>> = Vec::new();
        let mut seen = Seen::default();
        for &op in ops {
            let dead = store.dead;
            let lens: Vec<usize> = (0..store.len()).map(|r| store.row_len(r)).collect();
            let starts: Vec<u32> = store.spans.iter().map(|s| s.start).collect();
            let exact: Vec<bool> = (0..store.len())
                .map(|r| !store.caps.contains_key(&offset(r)))
                .collect();
            step(&mut store, &mut model, op);
            let compacted = store.dead < dead;
            let moved = starts.iter().zip(&store.spans).any(|(&a, s)| a != s.start);
            seen.relocations += usize::from(moved && !compacted);
            seen.compactions += usize::from(compacted);
            for (r, &len) in lens.iter().enumerate() {
                let now = store.row_len(r);
                if now < len {
                    if exact[r] {
                        seen.exact_shrinks += 1;
                    } else {
                        seen.slack_shrinks += 1;
                    }
                }
                if op.0 == 1 && r == op.1 as usize % lens.len() {
                    seen.set_shorter += usize::from(now < len);
                    seen.set_longer += usize::from(now > len);
                }
            }
            store.assert_consistent();
            assert_eq!(store.len(), model.len());
            for (r, row) in model.iter().enumerate() {
                assert_eq!(store.row(r), row.as_slice(), "row {r}");
            }
            let fresh = from_model(&model);
            assert_eq!(fresh, store);
            assert_eq!((fresh.dead, fresh.caps.len()), (0, 0));
            assert_eq!(
                store.heap_bytes(),
                store.entries.capacity() * 4
                    + store.spans.capacity() * 8
                    + store.caps.capacity() * 9
            );
        }
        seen
    }

    proptest! {
        #[test]
        fn rows_match_a_vec_of_vecs(
            ops in proptest::collection::vec((0..10u8, 0..64u32, 0..64u32), 1..300),
        ) {
            run(&ops);
        }
    }

    #[test]
    fn long_random_runs_relocate_and_compact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let ops: Vec<(u8, u32, u32)> = (0..3_000)
            .map(|_| {
                (
                    rng.gen_range(0..10u8),
                    rng.gen_range(0..64u32),
                    rng.gen_range(0..64u32),
                )
            })
            .collect();
        let seen = run(&ops);
        assert!(
            seen.relocations > 0
                && seen.compactions > 0
                && seen.exact_shrinks > 0
                && seen.slack_shrinks > 0
                && seen.set_shorter > 0
                && seen.set_longer > 0,
            "{seen:?}"
        );
    }

    #[test]
    fn spans_are_eight_bytes() {
        // `heap_bytes` charges this per row: start and len.
        assert_eq!(std::mem::size_of::<Span>(), 8);
    }

    #[test]
    fn from_csr_equals_a_pushed_build() {
        let model = vec![vec![1, 2, 3], vec![], vec![9], vec![4, 5]];
        let mut offsets = vec![0];
        let mut entries = Vec::with_capacity(64);
        for row in &model {
            entries.extend_from_slice(row);
            offsets.push(entries.len());
        }
        let mut store = RowStore::from_csr(offsets, entries);
        let pushed = from_model(&model);
        store.assert_consistent();
        assert_eq!(store, pushed);
        assert_eq!(store.heap_bytes(), pushed.heap_bytes(), "exact capacity");
        // Rows start at exact capacity, so growing one relocates it.
        store.insert_at(1, 0, 7);
        assert_eq!(store.dead, 0);
        store.insert_at(0, 3, 8);
        assert_eq!(store.dead, 3);
        store.assert_consistent();
        assert_eq!(format!("{store:?}"), "[[1, 2, 3, 8], [7], [9], [4, 5]]");
    }

    #[test]
    #[should_panic(expected = "offsets must not decrease")]
    fn from_csr_rejects_decreasing_offsets() {
        let _ = RowStore::from_csr(vec![0, 2, 1, 3], vec![1u32, 2, 3]);
    }

    #[test]
    fn build_reserves_exactly() {
        let model = vec![vec![1, 2, 3], vec![], vec![9]];
        let store = from_model(&model);
        assert_eq!(store.heap_bytes(), 4 * 4 + 3 * 8);
        assert_eq!(format!("{store:?}"), "[[1, 2, 3], [], [9]]");
    }

    #[test]
    fn exact_rows_give_freed_slots_to_the_dead_and_slack_rows_keep_them() {
        let mut store = from_model(&[vec![1, 2, 3], vec![4, 5]]);
        // An exact row that shrinks owns only what it still holds.
        store.remove_at(0, 0);
        assert_eq!((store.cap(0), store.dead), (2, 1));
        store.set_row(1, &[6]);
        assert_eq!((store.cap(1), store.dead), (1, 2));
        store.assert_consistent();
        // Growing row 1 moves it with doubled capacity, recorded aside.
        store.set_row(1, &[6, 7]);
        assert_eq!((store.cap(1), store.caps.len(), store.dead), (2, 1, 3));
        // Now at the end with slack, it keeps its slots when it shrinks.
        store.clear_row(1);
        assert_eq!((store.cap(1), store.dead), (2, 3));
        store.insert_at(1, 0, 8);
        assert_eq!((store.spans[1].start, store.dead), (5, 3), "no move");
        store.assert_consistent();
        assert_eq!(format!("{store:?}"), "[[2, 3], [8]]");
    }

    #[test]
    fn outgrown_rows_relocate_and_the_store_compacts() {
        let mut store = from_model(&[vec![1], vec![2], vec![3], vec![4]]);
        // Row 0 is not at the end: it moves there with capacity 2.
        store.insert_at(0, 1, 10);
        assert_eq!((store.spans[0].start, store.cap(0)), (4, 2));
        assert_eq!(store.dead, 1);
        // Now at the end, it grows in place.
        store.insert_at(0, 2, 11);
        store.insert_at(0, 3, 12);
        assert_eq!((store.spans[0].start, store.cap(0)), (4, 4));
        assert_eq!(store.dead, 1);
        // Moving rows 1..3 adds three dead slots; emptying them leaves
        // four live entries, so moving row 0 again (4 more dead slots)
        // tips the balance and the store compacts, keeping capacities.
        for r in 1..4 {
            store.insert_at(r, 0, 20 + r as u32);
        }
        assert_eq!(store.dead, 4);
        for r in 1..4 {
            store.clear_row(r);
        }
        store.set_row(0, &[0, 1, 2, 3, 4]);
        assert_eq!(store.dead, 0, "compacted");
        store.assert_consistent();
        assert_eq!((store.spans[0].start, store.cap(0)), (0, 8));
        assert_eq!(store.entries.len(), 8 + 3 * 2);
        assert_eq!(store.row(0), &[0, 1, 2, 3, 4]);
        assert_eq!(store.row(3), &[] as &[u32]);
    }
}
