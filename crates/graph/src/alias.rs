//! Vose's alias method for O(1) sampling from a discrete distribution.
//!
//! The generators draw millions of weighted endpoints (destination nodes are
//! chosen proportionally to a power-law weight), so constant-time sampling is
//! essential for the Reddit-scale presets.

use rand::Rng;

/// A pre-processed discrete distribution supporting O(1) weighted sampling.
///
/// # Example
///
/// ```
/// use mega_graph::alias::AliasTable;
/// use rand::SeedableRng;
///
/// let table = AliasTable::new(&[1.0, 2.0, 7.0]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut counts = [0usize; 3];
/// for _ in 0..10_000 {
///     counts[table.sample(&mut rng)] += 1;
/// }
/// assert!(counts[2] > counts[1] && counts[1] > counts[0]);
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds an alias table from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or the total weight is not finite and
    /// positive.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "total weight must be positive and finite"
        );
        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias = vec![0u32; n];
        // Two stacks in one buffer: outcomes below 1 grow from the front,
        // the rest from the back; together they never hold more than `n`.
        let mut stacks = vec![0u32; n];
        let (mut small, mut large) = (0, n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                stacks[small] = i as u32;
                small += 1;
            } else {
                large -= 1;
                stacks[large] = i as u32;
            }
        }
        while small > 0 && large < n {
            small -= 1;
            let (s, l) = (stacks[small], stacks[large]);
            alias[s as usize] = l;
            let leftover = prob[l as usize] + prob[s as usize] - 1.0;
            prob[l as usize] = leftover;
            if leftover < 1.0 {
                large += 1;
                stacks[small] = l;
                small += 1;
            }
        }
        // Numerical leftovers: anything still queued has probability ~1.
        for &i in stacks[..small].iter().chain(&stacks[large..]) {
            prob[i as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of outcomes in the distribution.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Returns `true` if the table has no outcomes (never true for a
    /// constructed table; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index in O(1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_weights_sample_all_outcomes() {
        let table = AliasTable::new(&[1.0; 8]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..2_000 {
            seen[table.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn heavily_skewed_weight_dominates() {
        let table = AliasTable::new(&[0.001, 0.001, 100.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let hits = (0..1_000).filter(|_| table.sample(&mut rng) == 2).count();
        assert!(hits > 950, "expected dominance, got {hits}");
    }

    #[test]
    fn zero_weight_entries_are_never_sampled() {
        let table = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..5_000 {
            let s = table.sample(&mut rng);
            assert!(s == 1 || s == 3, "sampled zero-weight outcome {s}");
        }
    }

    #[test]
    fn empirical_frequency_tracks_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = weights[i] / 10.0;
            let observed = c as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "outcome {i}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_weights_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    fn single_outcome_always_sampled() {
        let table = AliasTable::new(&[42.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..16 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }
}
