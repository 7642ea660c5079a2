//! Order statistics: medians and the tail-percentile rule.

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values`; the mean of the two middle values for an
/// even count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => None,
        n if n % 2 == 1 => Some(sorted[mid]),
        _ => Some((sorted[mid - 1] + sorted[mid]) / 2.0),
    }
}

/// The `q` quantile of `values` by the nearest-rank rule: of `N`
/// sorted samples, the one at rank `ceil(q N)` (1-based). `None` when
/// empty or when `q` is outside `(0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The highest percentile of a sample that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// The sample count it was taken from.
    pub samples: usize,
}

/// The tail of `values` by the nearest-rank rule: of `N` sorted
/// samples, the one at rank `N - 10` (1-based) is the highest with ten
/// beyond it, and it sits at the `100 (N - 10) / N` percentile. `None`
/// for ten samples or fewer.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let samples = values.len();
    let rank = samples.checked_sub(TAIL_BEYOND).filter(|&r| r >= 1)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: tail_quantile(samples)? * 100.0,
        value: sorted[rank - 1],
        samples,
    })
}

/// The quantile the tail rule picks for a sample of `samples` values,
/// in `0..1`; used on the server's histograms, which hold counts only.
pub fn tail_quantile(samples: usize) -> Option<f64> {
    (samples > TAIL_BEYOND).then(|| (samples - TAIL_BEYOND) as f64 / samples as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_by_nearest_rank() {
        let hundred: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        assert_eq!(percentile(&hundred, 0.95), Some(95.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred, 1.0), Some(100.0));
        assert_eq!(percentile(&hundred, 0.001), Some(1.0));
        // Twenty samples: p95 is the 19th, one sample beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.95), Some(19.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&hundred, 0.0), None);
        assert_eq!(percentile(&hundred, 1.5), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100 shuffled by a fixed stride: p90 is the 90th value.
        let hundred: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (90.0, 90.0, 100));
        assert_eq!(hundred.iter().filter(|&&v| v > t.value).count(), 10);

        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!((t.value, t.percentile), (990.0, 99.0));

        // Eleven samples: only the minimum has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

        // A spike among the last ten never reaches the reported tail.
        let mut spiky = vec![5.0; 40];
        spiky.extend([1000.0; 10]);
        assert_eq!(tail(&spiky).unwrap().value, 5.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail_quantile(10), None);
        assert_eq!(tail_quantile(20), Some(0.5));
    }
}
