//! Summary arithmetic: medians, quartiles and the tail-percentile rule.

/// The percentile ladder tails are chosen from, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest ladder percentile, at most `cap`, that leaves at least ten
/// samples beyond it among `n` samples; `None` when even the median does
/// not. The cap pins the percentile a metric reports, so that a run with a
/// few more or fewer samples does not switch to another percentile.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The nearest-rank percentile `p` (0..=100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the two middle samples of an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method, which extrapolates for very small samples).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_percentile`].
    pub tail_p: f64,
    /// The value at `tail_p`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` with a tail capped at `cap`; `None` when there
    /// are too few samples for even a median with ten beyond it.
    pub fn of(samples: &[f64], cap: f64) -> Option<Summary> {
        let tail_p = tail_percentile(samples.len(), cap)?;
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            p50: percentile(&v, 50.0),
            tail_p,
            tail: percentile(&v, tail_p),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(tail_percentile(9_999, 99.9), Some(99.0));
        assert_eq!(tail_percentile(1_000, 99.9), Some(99.0));
        assert_eq!(tail_percentile(999, 99.9), Some(95.0));
        assert_eq!(tail_percentile(200, 99.9), Some(95.0));
        assert_eq!(tail_percentile(199, 99.9), Some(90.0));
        assert_eq!(tail_percentile(100, 99.9), Some(90.0));
        assert_eq!(tail_percentile(40, 99.9), Some(75.0));
        assert_eq!(tail_percentile(20, 99.9), Some(50.0));
        assert_eq!(tail_percentile(19, 99.9), None);
    }

    #[test]
    fn tail_respects_the_cap() {
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(100_000, 95.0), Some(95.0));
        assert_eq!(tail_percentile(150, 95.0), Some(90.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn summary_reports_count_and_chosen_tail() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&v, 99.9).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail_p, 99.0);
        assert_eq!(s.tail, 989.0);
        assert_eq!(s.p50, 499.0);
        assert!(Summary::of(&v[..19], 99.9).is_none());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }
}
