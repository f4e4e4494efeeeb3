//! Aggregation helpers: tail percentiles that refuse to report on too
//! few samples, medians and quartiles across runs, and the unattributed
//! remainder of a traced run.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it: a p99
/// needs at least 1000 samples, a median 20.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1), got {q}");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(first quartile, median, third quartile)` of `values`, by the same
/// rule as Python's `statistics.quantiles(values, n=4)` (the
/// "exclusive" method), so spreads computed here and by `spread.py`
/// agree. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 1 {
        return (data[0], data[0], data[0]);
    }
    let mid = if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    };
    // statistics.quantiles, method="exclusive": m = n + 1, cut point i
    // sits at 1-based position i*m/4, interpolated linearly between the
    // neighbouring order statistics (extrapolated on tiny samples, as
    // Python does).
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), mid, cut(3))
}

/// Wall time no span accounts for: `total` minus the attributed span
/// seconds, floored at zero (spans that overlap, or timer granularity,
/// can make the attributed sum exceed the total).
pub fn unattributed(total: f64, spans: &[f64]) -> f64 {
    (total - spans.iter().sum::<f64>()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        assert_eq!(percentile(&samples, 0.5), Some(500.0));
        // 999 samples leave only 9 beyond the p99 rank.
        assert_eq!(percentile(&samples[..999], 0.99), None);
        assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn unattributed_floors_at_zero() {
        assert_eq!(unattributed(1.0, &[0.25, 0.25]), 0.5);
        assert_eq!(unattributed(1.0, &[0.75, 0.5]), 0.0);
        assert_eq!(unattributed(2.0, &[]), 2.0);
    }
}
