//! Percentiles that carry their sample count, and quantiles over the
//! difference of two engine histogram snapshots.

/// A percentile together with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub samples: usize,
}

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`), or `None` without
    /// samples.
    pub fn quantile(&self, q: f64) -> Option<Stat> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(Stat {
            value: self.sorted[rank - 1],
            samples: n,
        })
    }

    /// The median: the mean of the two middle samples for an even count.
    pub fn median(&self) -> Option<Stat> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let value = if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        };
        Some(Stat { value, samples: n })
    }
}

/// The `q`-quantile, in µs, of the values a `LogHistogram` recorded
/// between two `buckets()` snapshots (`(upper_bound_us, count)`, ascending).
/// Resolution is the histogram's (≤ ~6% relative).
pub fn histogram_delta_quantile(
    before: &[(u64, u64)],
    after: &[(u64, u64)],
    q: f64,
) -> Option<Stat> {
    let delta: Vec<(u64, u64)> = after
        .iter()
        .map(|&(upper, count)| {
            let earlier = before
                .iter()
                .find(|&&(b, _)| b == upper)
                .map_or(0, |&(_, c)| c);
            (upper, count - earlier)
        })
        .filter(|&(_, count)| count > 0)
        .collect();
    let total: u64 = delta.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    delta.iter().find_map(|&(upper, count)| {
        seen += count;
        (seen >= target).then_some(Stat {
            value: upper as f64,
            samples: total as usize,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_report_their_sample_count() {
        let samples = Samples::new((1..=20).rev().map(f64::from).collect());
        assert_eq!(
            samples.quantile(0.5),
            Some(Stat {
                value: 10.0,
                samples: 20
            })
        );
        assert_eq!(
            samples.quantile(0.9).map(|s| (s.value, s.samples)),
            Some((18.0, 20))
        );
        assert_eq!(
            samples.median().map(|s| (s.value, s.samples)),
            Some((10.5, 20))
        );
        assert_eq!(
            Samples::new(vec![3.0, 1.0, 2.0]).median().map(|s| s.value),
            Some(2.0)
        );
        assert_eq!(Samples::default().quantile(0.5), None);
    }

    #[test]
    fn histogram_quantile_counts_only_the_window() {
        let before = [(10, 5), (20, 1)];
        let after = [(10, 5), (20, 3), (40, 2)];
        // The window holds 2 values in the 20 bucket and 2 in the 40 one.
        assert_eq!(
            histogram_delta_quantile(&before, &after, 0.5),
            Some(Stat {
                value: 20.0,
                samples: 4
            })
        );
        assert_eq!(
            histogram_delta_quantile(&before, &after, 0.9).map(|s| s.value),
            Some(40.0)
        );
        assert_eq!(histogram_delta_quantile(&after, &after, 0.5), None);
    }
}
