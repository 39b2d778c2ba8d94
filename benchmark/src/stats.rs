//! Order statistics for latency samples and run-to-run spreads.

/// The 1-based nearest rank of the `p`-th percentile among `n >= 1`
/// samples (the epsilon keeps 99.9 % of 10 000 at 9 990, not 9 991).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p`-th one.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n.max(1), p).min(n)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it — the tail a sample of `n` can honestly report.
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Run-to-run spread: `(max − min) ÷ median`; 0 for a constant metric.
pub fn spread(values: &[f64]) -> f64 {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let m = median(values);
    if max == min {
        0.0
    } else {
        (max - min) / m.abs()
    }
}

/// Inter-quartile range ÷ median, the quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them — the spread the
/// acceptance protocol judges a metric by. Needs two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles of fewer than two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let at = i * (v.len() + 1);
        let j = (at / 4).clamp(1, v.len() - 1);
        let delta = at as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let iqr = quartile(3) - quartile(1);
    if iqr == 0.0 {
        0.0
    } else {
        iqr / median(values).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        // Five samples: p50 is the third, p99 the fifth.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 50.0), 30);
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 99.0), 50);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples is the 990th: exactly ten lie beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        // The issue's floor: 2400 samples put 24 beyond p99.
        assert_eq!(samples_beyond(2400, 99.0), 24);
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(160), Some(90.0));
        assert_eq!(supported_tail(30), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[10.0, 11.0, 9.0]), 0.2);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn quartiles_as_python_gives_them() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&v), 5.5 / 5.5);
        // quantiles([3, 1, 2, 10, 4], n=4) == [1.5, 3.0, 7.0]
        assert_eq!(iqr_share(&[3.0, 1.0, 2.0, 10.0, 4.0]), 5.5 / 3.0);
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(iqr_share(&[1.0, 2.0]), 1.0);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0]), 0.0);
    }
}
