//! Order statistics over measured samples.

/// The nearest-rank percentile of `samples` (`p` in `0..=100`); 0 for an
/// empty sample. Sorts a copy.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over an already sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle values for an even count); 0 for an
/// empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The quiet windows of a run, by index in run order. The windows are cut
/// into three consecutive segments (early, middle, late), and the quietest
/// third of each segment, by `cost`, is kept. Host stalls spoil windows at
/// random and drop out; a slowdown of the program itself shows in the quiet
/// windows too, and one that builds up over the run shows in the late
/// segment's.
pub fn quiet_windows(cost: &[f64]) -> Vec<usize> {
    let n = cost.len();
    let mut kept = Vec::new();
    for segment in 0..3 {
        let mut indices: Vec<usize> = (segment * n / 3..(segment + 1) * n / 3).collect();
        indices.sort_by(|&a, &b| cost[a].total_cmp(&cost[b]));
        kept.extend(indices.iter().take(indices.len().div_ceil(3)));
    }
    kept.sort_unstable();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_median() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 99.0), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quiet_windows_keep_the_quietest_third_of_each_segment() {
        // Segments [0, 3), [3, 6), [6, 9); one window of each is kept.
        let cost = [5.0, 1.0, 9.0, 4.0, 8.0, 2.0, 7.0, 9.0, 3.0];
        assert_eq!(quiet_windows(&cost), vec![1, 5, 8]);
        // A slowdown over the run reaches the kept late window.
        let drift = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0];
        let kept: Vec<f64> = quiet_windows(&drift).iter().map(|&i| drift[i]).collect();
        assert_eq!(kept, vec![1.0, 2.0, 3.0]);
        assert_eq!(quiet_windows(&[4.0, 2.0]), vec![0, 1]);
        assert!(quiet_windows(&[]).is_empty());
    }
}
