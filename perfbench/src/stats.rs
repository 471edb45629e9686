//! Order statistics over raw samples.
//!
//! Percentiles are computed from the sorted samples themselves, never
//! from a bucketed histogram, so a reported value carries every digit
//! the clock gave it.

/// Percentiles the benchmark may report, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `samples` (NaN-free by construction).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `p`-th percentile (0..=100) of already sorted samples, by
/// linear interpolation between closest ranks. 0 for no samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The `p`-th percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Whether `p` is reportable for `n` samples: at least
/// [`MIN_BEYOND`] samples must lie beyond it.
pub fn reportable(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= MIN_BEYOND as f64 - 1e-9
}

/// The highest percentile of the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when not even the median qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| reportable(n, p))
}

/// The median, across consecutive windows of `window` samples (time
/// order; a shorter tail window is dropped unless it is the only one),
/// of each window's `p`-th percentile. A stall of the machine lands in
/// few windows, so it moves this estimate far less than the pooled
/// percentile; a backlog that keeps growing shows in most windows and
/// moves it fully.
pub fn windowed_percentile(samples: &[f64], p: f64, window: usize) -> f64 {
    let window = window.max(1);
    let per_window: Vec<f64> = samples
        .chunks(window)
        .filter(|w| w.len() == window || samples.len() < window)
        .map(|w| percentile(w, p))
        .collect();
    median(&per_window)
}

/// Mean of samples, 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert!(reportable(1000, 99.0));
        assert!(!reportable(999, 99.0));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&[1.0, 3.0], 50.0), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn windowed_percentile_shrugs_off_one_burst_but_not_a_trend() {
        let mut v = vec![1.0; 8_000];
        // A burst of stalls inside one window.
        for x in &mut v[1_000..1_200] {
            *x = 50.0;
        }
        assert_eq!(percentile(&v, 99.0), 50.0);
        assert_eq!(windowed_percentile(&v, 99.0, 1_000), 1.0);
        // A backlog growing through the whole run moves it.
        let growing: Vec<f64> = (0..8_000).map(|i| i as f64 / 100.0).collect();
        assert!(windowed_percentile(&growing, 99.0, 1_000) > 39.0);
        // Fewer samples than a window: one window of all of them.
        assert_eq!(windowed_percentile(&[1.0, 2.0, 3.0], 50.0, 1_000), 2.0);
    }
}
