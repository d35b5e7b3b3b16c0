//! Order statistics over the benchmark's samples.

/// Arithmetic mean; 0 for an empty slice (a count that never occurred).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `p`-th percentile (`0.0..=100.0`) by linear interpolation between
/// the two closest ranks, the convention of NumPy's default and of
/// `statistics.quantiles(method="inclusive")`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: every caller measures at
/// least one round, and a NaN timing is a harness bug.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median (50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert!((percentile(&v, 95.0) - 4.8).abs() < 1e-12);
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(
            percentile(&[9.0, 1.0, 5.0], 50.0),
            percentile(&[1.0, 5.0, 9.0], 50.0)
        );
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
