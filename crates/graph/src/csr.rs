//! Compressed sparse row adjacency.
//!
//! A [`Csr`] stores one row per source node with sorted, deduplicated
//! neighbor indices. Storing the transpose of a CSR yields the CSC view
//! ([`Csr::transpose`]), which is how [`crate::Graph`] serves in-neighbor
//! queries without a second format — unless the CSR is symmetric
//! ([`Csr::is_symmetric`]) and so its own transpose.

use crate::{Coo, NodeId};

/// Compressed sparse row adjacency matrix over `{0,1}` entries.
///
/// # Example
///
/// ```
/// use mega_graph::{Coo, Csr};
///
/// let coo = Coo::from_edges(3, vec![(0, 1), (0, 2), (2, 0)]);
/// let csr = Csr::from_coo(&coo);
/// assert_eq!(csr.row(0), &[1, 2]);
/// assert_eq!(csr.degree(1), 0);
/// assert_eq!(csr.nnz(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    num_rows: usize,
    num_cols: usize,
    offsets: Vec<usize>,
    indices: Vec<NodeId>,
}

impl Csr {
    /// Builds a CSR from a COO edge list. Rows are the edge sources.
    ///
    /// Duplicates and self-loops present in `coo` are preserved verbatim;
    /// call [`Coo::dedup`] first if canonical form is required.
    pub fn from_coo(coo: &Coo) -> Self {
        Self::from_edges(coo.num_nodes(), coo.num_nodes(), coo.edges())
    }

    /// Builds a (possibly rectangular) CSR from raw pairs.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint exceeds the stated dimensions.
    pub fn from_edges(num_rows: usize, num_cols: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut counts = vec![0usize; num_rows + 1];
        for &(s, d) in edges {
            assert!(
                (s as usize) < num_rows && (d as usize) < num_cols,
                "edge ({s}, {d}) outside {num_rows}x{num_cols}"
            );
            counts[s as usize + 1] += 1;
        }
        for i in 0..num_rows {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0 as NodeId; edges.len()];
        let mut cursor = counts.clone();
        for &(s, d) in edges {
            let slot = cursor[s as usize];
            indices[slot] = d;
            cursor[s as usize] += 1;
        }
        let mut csr = Self {
            num_rows,
            num_cols,
            offsets: counts,
            indices,
        };
        csr.sort_rows();
        csr
    }

    /// Builds a CSR directly from its raw arrays, trusting the caller to
    /// supply canonical form: `offsets` must be monotone with
    /// `offsets[0] == 0` and `offsets[num_rows] == indices.len()`, and each
    /// row's indices must be sorted ascending with no duplicates.
    ///
    /// This is the zero-copy entry point for streaming builders (e.g. the
    /// scale path of `mega_graph::generate`) that assemble CSR in place and
    /// must not round-trip through COO. Shape invariants are always checked;
    /// per-row sortedness/dedup only under `debug_assertions`.
    ///
    /// # Panics
    ///
    /// Panics if the shape invariants above are violated, or (debug builds
    /// only) if a row is unsorted, contains duplicates, or an index exceeds
    /// `num_cols`.
    pub fn from_parts(
        num_rows: usize,
        num_cols: usize,
        offsets: Vec<usize>,
        indices: Vec<NodeId>,
    ) -> Self {
        assert_eq!(
            offsets.len(),
            num_rows + 1,
            "offsets must have rows+1 entries"
        );
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            offsets[num_rows],
            indices.len(),
            "last offset must equal indices.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        #[cfg(debug_assertions)]
        for r in 0..num_rows {
            let row = &indices[offsets[r]..offsets[r + 1]];
            debug_assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row {r} not strictly sorted"
            );
            debug_assert!(
                row.last().is_none_or(|&d| (d as usize) < num_cols),
                "row {r} index out of bounds"
            );
        }
        Self {
            num_rows,
            num_cols,
            offsets,
            indices,
        }
    }

    fn sort_rows(&mut self) {
        for r in 0..self.num_rows {
            let (lo, hi) = (self.offsets[r], self.offsets[r + 1]);
            self.indices[lo..hi].sort_unstable();
        }
    }

    /// Number of rows (source nodes).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns (destination nodes).
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Total number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Neighbor list of `row`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[NodeId] {
        &self.indices[self.offsets[row]..self.offsets[row + 1]]
    }

    /// Out-degree of `row`.
    pub fn degree(&self, row: usize) -> usize {
        self.offsets[row + 1] - self.offsets[row]
    }

    /// The row-offset array (`num_rows + 1` entries).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The concatenated neighbor indices.
    pub fn indices(&self) -> &[NodeId] {
        &self.indices
    }

    /// Consumes the matrix, returning its `(offsets, indices)` arrays.
    pub fn into_parts(self) -> (Vec<usize>, Vec<NodeId>) {
        (self.offsets, self.indices)
    }

    /// Returns the transposed matrix (CSC view of `self`).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.num_cols + 1];
        for &d in &self.indices {
            counts[d as usize + 1] += 1;
        }
        for i in 0..self.num_cols {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0 as NodeId; self.indices.len()];
        let mut cursor = counts.clone();
        for r in 0..self.num_rows {
            for &d in self.row(r) {
                let slot = cursor[d as usize];
                indices[slot] = r as NodeId;
                cursor[d as usize] += 1;
            }
        }
        // Rows of the transpose are filled in ascending source order, so they
        // are already sorted.
        Csr {
            num_rows: self.num_cols,
            num_cols: self.num_rows,
            offsets: counts,
            indices,
        }
    }

    /// Whether the matrix equals its transpose: it is square and every
    /// stored `(row, col)` has its reverse `(col, row)` stored. Checked in
    /// place, one binary search per entry, without allocating; rows must
    /// be sorted and deduplicated.
    pub fn is_symmetric(&self) -> bool {
        self.num_rows == self.num_cols
            && self
                .iter_rows()
                .all(|(r, row)| row.iter().all(|&c| self.contains(c as usize, r as NodeId)))
    }

    /// Iterates `(row, neighbors)` pairs.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, &[NodeId])> + '_ {
        (0..self.num_rows).map(move |r| (r, self.row(r)))
    }

    /// Converts back to COO pairs (sorted by row, then column).
    pub fn to_coo(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.nnz());
        for (r, neighbors) in self.iter_rows() {
            for &d in neighbors {
                out.push((r as NodeId, d));
            }
        }
        out
    }

    /// Returns `true` if `(row, col)` is stored.
    pub fn contains(&self, row: usize, col: NodeId) -> bool {
        self.row(row).binary_search(&col).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        let coo = Coo::from_edges(4, vec![(0, 1), (0, 3), (1, 2), (3, 0), (3, 1)]);
        Csr::from_coo(&coo)
    }

    #[test]
    fn rows_are_sorted_and_sized() {
        let csr = sample();
        assert_eq!(csr.row(0), &[1, 3]);
        assert_eq!(csr.row(1), &[2]);
        assert_eq!(csr.row(2), &[] as &[NodeId]);
        assert_eq!(csr.row(3), &[0, 1]);
        assert_eq!(csr.nnz(), 5);
    }

    #[test]
    fn transpose_swaps_in_and_out_edges() {
        let csr = sample();
        let t = csr.transpose();
        assert_eq!(t.row(0), &[3]);
        assert_eq!(t.row(1), &[0, 3]);
        assert_eq!(t.row(2), &[1]);
        assert_eq!(t.row(3), &[0]);
    }

    #[test]
    fn double_transpose_is_identity() {
        let csr = sample();
        assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn to_coo_round_trips() {
        let csr = sample();
        let pairs = csr.to_coo();
        let rebuilt = Csr::from_edges(4, 4, &pairs);
        assert_eq!(rebuilt, csr);
    }

    #[test]
    fn contains_uses_binary_search() {
        let csr = sample();
        assert!(csr.contains(0, 3));
        assert!(!csr.contains(0, 2));
        assert!(!csr.contains(2, 0));
    }

    #[test]
    fn symmetry_needs_every_reverse_entry() {
        assert!(!sample().is_symmetric());
        let pairs = [(0, 1), (1, 0), (1, 3), (3, 1)];
        assert!(Csr::from_edges(4, 4, &pairs).is_symmetric());
        assert!(!Csr::from_edges(4, 4, &pairs[..3]).is_symmetric());
        assert!(
            !Csr::from_edges(4, 4, &pairs[1..]).is_symmetric(),
            "an entry below the diagonal without its reverse"
        );
        assert!(Csr::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).is_symmetric());
        assert!(!Csr::from_edges(2, 3, &[]).is_symmetric(), "not square");
    }

    #[test]
    fn rectangular_dimensions_respected() {
        let csr = Csr::from_edges(2, 5, &[(0, 4), (1, 3)]);
        assert_eq!(csr.num_rows(), 2);
        assert_eq!(csr.num_cols(), 5);
        let t = csr.transpose();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.num_cols(), 2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_edge_panics() {
        let _ = Csr::from_edges(2, 2, &[(0, 5)]);
    }

    #[test]
    fn empty_graph_has_empty_rows() {
        let csr = Csr::from_edges(3, 3, &[]);
        assert_eq!(csr.nnz(), 0);
        for r in 0..3 {
            assert!(csr.row(r).is_empty());
        }
    }
}
