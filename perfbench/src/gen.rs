//! Seeded input generators: every request and delta stream the benchmark
//! sends is a pure function of `--seed`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generator for one named stream of `seed`, so the streams a run
/// draws (targets, update endpoints, gate samples) stay independent.
pub fn stream(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A seeded permutation of `0..n` (Fisher–Yates): `cold_http` walks it so
/// no target repeats and every lookup misses the logits cache.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut nodes: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        nodes.swap(i, rng.gen_range(0..=i));
    }
    nodes
}

/// Zipf(s) popularity over `n` nodes: rank `r` is drawn with probability
/// proportional to `(r + 1)^-s`, and ranks map to nodes through a seeded
/// shuffle so popularity is uncorrelated with node id (the model
/// `serve_demo` uses).
pub struct Zipf {
    cumulative: Vec<f64>,
    nodes: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut StdRng) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        Self {
            cumulative,
            nodes: permutation(n, rng),
        }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let total = *self.cumulative.last().expect("non-empty population");
        let x = rng.gen::<f64>() * total;
        let rank = self.cumulative.partition_point(|&c| c < x);
        self.nodes[rank.min(self.nodes.len() - 1)]
    }

    /// The `k` most popular nodes, hottest first.
    pub fn hottest(&self, k: usize) -> &[u32] {
        &self.nodes[..k.min(self.nodes.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_draws(seed: u64) -> Vec<u32> {
        let zipf = Zipf::new(1000, 1.0, &mut stream(seed, 1));
        let mut rng = stream(seed, 2);
        (0..200).map(|_| zipf.sample(&mut rng)).collect()
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_changes_with_it() {
        assert_eq!(zipf_draws(7), zipf_draws(7));
        assert_ne!(zipf_draws(7), zipf_draws(8));
    }

    #[test]
    fn zipf_is_skewed_towards_its_hottest_nodes() {
        let zipf = Zipf::new(1000, 1.0, &mut stream(3, 1));
        let mut rng = stream(3, 2);
        let hot = zipf.hottest(10).to_vec();
        let draws = 10_000;
        let hits = (0..draws)
            .filter(|_| hot.contains(&zipf.sample(&mut rng)))
            .count();
        // The top 10 of 1000 ranks hold H(10)/H(1000) ≈ 39% of the mass.
        assert!((3_400..4_400).contains(&hits), "{hits} of {draws}");
    }

    #[test]
    fn permutation_is_deterministic_per_seed_and_changes_with_it() {
        let a = permutation(500, &mut stream(11, 0));
        assert_eq!(a, permutation(500, &mut stream(11, 0)));
        assert_ne!(a, permutation(500, &mut stream(12, 0)));
    }

    #[test]
    fn permutation_never_repeats_a_node() {
        for seed in 0..20 {
            let mut nodes = permutation(1000, &mut stream(seed, 0));
            nodes.sort_unstable();
            assert_eq!(nodes, (0..1000).collect::<Vec<u32>>());
        }
    }
}
