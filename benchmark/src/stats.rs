//! Order statistics the benchmark reports: nearest-rank percentiles,
//! the "at least ten samples beyond" rule for tail percentiles, and the
//! median / quartile / spread summary `calibrate` and `compare` print.

/// Nearest-rank percentile of an unsorted sample: the smallest value
/// with at least `q` of the sample at or below it. `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(nearest_rank(q, sorted.len()) - 1).copied()
}

/// 1-based nearest rank of quantile `q` in a sample of `n`.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Median by nearest rank; 0 for an empty sample, so a layer that did
/// no work reads 0 in the per-layer table.
pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 0.50).unwrap_or(0.0)
}

/// The highest of `candidates` that still leaves at least ten samples
/// beyond it, with its value. A tail percentile resting on fewer than
/// ten samples is one slow op, not a distribution.
pub fn highest_supported(samples: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    candidates
        .iter()
        .copied()
        .filter(|&q| n >= nearest_rank(q, n) + 10)
        .max_by(f64::total_cmp)
        .map(|q| (q, sorted[nearest_rank(q, n) - 1]))
}

/// Median and quartiles of one metric over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Quartiles by the exclusive method of Python's
    /// `statistics.quantiles(values, n=4)`, which is what the acceptance
    /// check of this benchmark uses.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quantile = |k: usize| -> f64 {
            if n == 1 {
                return v[0];
            }
            // position k*(n+1)/4 on a 1-based scale, clamped to the data
            let pos = k as f64 * (n + 1) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * frac
        };
        Some(Summary {
            n,
            min: v[0],
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
            max: v[n - 1],
        })
    }

    /// Inter-quartile distance as a share of the median.
    pub fn iqr_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// Max-min distance as a share of the median.
    pub fn range_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_picks_a_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), Some(5.0));
        assert_eq!(percentile(&s, 0.90), Some(9.0));
        assert_eq!(percentile(&s, 0.91), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        // order of the input does not matter
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let cands = [0.50, 0.90, 0.95, 0.99];
        let s200: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 is rank 190 with exactly 10 beyond; p99 leaves 2
        assert_eq!(highest_supported(&s200, &cands), Some((0.95, 190.0)));
        let s100: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(highest_supported(&s100, &cands), Some((0.90, 90.0)));
        let s12: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(highest_supported(&s12, &cands), None);
        let s20: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(highest_supported(&s20, &cands), Some((0.50, 10.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Summary::of(&s).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert!((q.iqr_spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let q = Summary::of(&[50.0, 10.0, 40.0, 20.0, 30.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (15.0, 30.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!(Summary::of(&[]).is_none());
    }
}
