//! Order statistics used by every metric: nearest-rank percentiles, the
//! "ten samples beyond" rule, and the segment median/spread that stands in
//! for run-to-run noise inside a single run.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest value
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Nearest-rank percentile of unsorted samples (0.0 when empty, so an idle
/// layer reports zero rather than poisoning a result with NaN).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q).unwrap_or(0.0)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A percentile is only reported when at least ten samples lie beyond its
/// nearest rank; fewer, and the value is one scheduler hiccup, not a tail.
pub fn supported(samples: usize, q: f64) -> bool {
    if samples == 0 {
        return false;
    }
    let rank = ((q * samples as f64).ceil() as usize).clamp(1, samples);
    samples - rank >= 10
}

/// The highest of the usual tail percentiles that `samples` supports
/// (falling back to the median, which is always reported).
pub fn highest_supported(samples: usize) -> f64 {
    [0.99, 0.95, 0.90, 0.75].into_iter().find(|q| supported(samples, *q)).unwrap_or(0.5)
}

/// One metric measured once per segment of the window.
#[derive(Debug, Clone, PartialEq)]
pub struct Segmented {
    /// The per-segment values, in time order.
    pub segments: Vec<f64>,
}

impl Segmented {
    pub fn new(segments: Vec<f64>) -> Self {
        Segmented { segments }
    }

    /// The reported value: the median segment, so one stalled segment moves
    /// nothing.
    pub fn value(&self) -> f64 {
        median(&self.segments)
    }

    pub fn min(&self) -> f64 {
        self.segments.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.segments.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` gives (its
/// default "exclusive" method), so the spread computed here is the one the
/// benchmark's driver computes over its runs. `None` for fewer than two
/// values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len() - 1;
    Some([1, 2, 3].map(|i| {
        let position = i * (sorted.len() + 1);
        let below = (position / 4).clamp(1, last);
        // May fall outside [0, 1] once `below` was clamped: short inputs
        // extrapolate, exactly as Python does.
        let weight = (position as f64 - (below * 4) as f64) / 4.0;
        sorted[below - 1] * (1.0 - weight) + sorted[below] * weight
    }))
}

/// Inter-quartile range ÷ median over a metric's segments: the benchmark's
/// own estimate of how far the metric wanders without any code change. 0
/// for fewer than two values or a zero median.
pub fn relative_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Split `n` consecutive rounds into at most `parts` contiguous groups whose
/// sizes differ by at most one; returns the end index (exclusive) of each.
pub fn split_points(n: usize, parts: usize) -> Vec<usize> {
    let parts = parts.min(n).max(1);
    (1..=parts).map(|i| i * n / parts).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&hundred, 0.50), Some(50.0));
        assert_eq!(percentile_sorted(&hundred, 0.90), Some(90.0));
        assert_eq!(percentile_sorted(&hundred, 0.99), Some(99.0));
        assert_eq!(percentile_sorted(&hundred, 1.0), Some(100.0));
        assert_eq!(percentile_sorted(&hundred, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        // Unsorted input, odd count, and the single-sample edge.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.5), 3.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples is rank 90: exactly ten beyond.
        assert!(supported(100, 0.90));
        assert!(!supported(99, 0.90));
        // p99 needs a thousand samples, the median only twenty.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(!supported(0, 0.5));
        assert_eq!(highest_supported(5000), 0.99);
        assert_eq!(highest_supported(500), 0.95);
        assert_eq!(highest_supported(150), 0.90);
        assert_eq!(highest_supported(40), 0.75);
        assert_eq!(highest_supported(12), 0.5);
    }

    #[test]
    fn segment_median_ignores_one_stalled_segment() {
        let seg = Segmented::new(vec![100.0, 101.0, 40.0, 99.0, 102.0]);
        assert_eq!(seg.value(), 100.0);
        assert_eq!(seg.min(), 40.0);
        assert_eq!(seg.max(), 102.0);
        // Quartiles of five values sit between the outer pairs: the stalled
        // segment widens the spread without owning it.
        assert_eq!(quartiles(&seg.segments), Some([69.5, 100.0, 101.5]));
        assert!((relative_spread(&seg.segments) - 0.32).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0]), 0.0);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) extrapolates past both ends.
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn rounds_split_into_near_equal_contiguous_groups() {
        assert_eq!(split_points(10, 5), vec![2, 4, 6, 8, 10]);
        assert_eq!(split_points(7, 5), vec![1, 2, 4, 5, 7]);
        assert_eq!(split_points(3, 5), vec![1, 2, 3]);
        assert_eq!(split_points(1, 5), vec![1]);
    }
}
