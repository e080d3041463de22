//! Order statistics used for every reported timing.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
/// at least `q` of the samples at or below it.  `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly above the nearest-rank `q` percentile.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    match percentile(sorted, q) {
        Some(value) => sorted.len() - sorted.partition_point(|&sample| sample <= value),
        None => 0,
    }
}

/// Whether a tail percentile of `sorted` rests on enough samples: at least
/// ten must lie beyond it.
pub fn tail_is_supported(sorted: &[f64], q: f64) -> bool {
    beyond(sorted, q) >= 10
}

/// Median of unsorted samples (the mean of the middle two for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// One measurement window's figure, with the CPU time the hypervisor stole
/// from the virtual CPUs while it ran (`/proc/stat` ticks, all CPUs).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub value: f64,
    pub steal: u64,
}

/// The steal up to which windows count as undisturbed, one level for all
/// `series` that are compared with each other: the least that keeps at
/// least a quarter of the windows of every series (0 when that many saw no
/// steal).  Stolen time stalls the program from outside, so a window it hit
/// measures the neighbours as much as the program.  And it does not hit the
/// arms of a comparison alike: on a busy host, native windows saw about
/// three times the steal of the NVX windows between them.  So compared
/// series share one level rather than each keeping its own least-stolen
/// share.
pub fn steal_limit(series: &[&[Window]]) -> u64 {
    series
        .iter()
        .map(|windows| {
            let mut steal: Vec<u64> = windows.iter().map(|window| window.steal).collect();
            steal.sort_unstable();
            let quarter = windows.len().div_ceil(4);
            steal.get(quarter.saturating_sub(1)).copied().unwrap_or(0)
        })
        .max()
        .unwrap_or(0)
}

/// The figures of the windows that saw at most `limit` steal.
pub fn within(windows: &[Window], limit: u64) -> Vec<f64> {
    windows
        .iter()
        .filter(|window| window.steal <= limit)
        .map(|window| window.value)
        .collect()
}

/// Sorts in place and returns the slice, for the percentile helpers.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples = one_to(100);
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.99), Some(99.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // 0.99 × 1000 = 990: the 990th smallest sample.
        assert_eq!(percentile(&one_to(1000), 0.99), Some(990.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(&one_to(1000), 0.99), 10);
        assert!(tail_is_supported(&one_to(1000), 0.99));
        assert_eq!(beyond(&one_to(999), 0.99), 9);
        assert!(!tail_is_supported(&one_to(999), 0.99));
        assert!(!tail_is_supported(&[], 0.99));
    }

    #[test]
    fn ties_at_the_percentile_are_not_beyond_it() {
        let mut samples = vec![1.0; 990];
        samples.extend(vec![5.0; 10]);
        assert_eq!(percentile(&samples, 0.99), Some(1.0));
        assert_eq!(beyond(&samples, 0.99), 10);
        let flat = vec![2.0; 2000];
        assert_eq!(beyond(&flat, 0.99), 0);
    }

    fn window(value: f64, steal: u64) -> Window {
        Window { value, steal }
    }

    #[test]
    fn windows_without_steal_are_all_kept_when_they_are_a_quarter() {
        let windows = [
            window(10.0, 0),
            window(1.0, 3),
            window(11.0, 2),
            window(12.0, 0),
            window(13.0, 5),
        ];
        assert_eq!(steal_limit(&[&windows]), 0);
        assert_eq!(within(&windows, 0), vec![10.0, 12.0]);
    }

    #[test]
    fn compared_series_share_the_least_limit_that_keeps_a_quarter_of_each() {
        let native = [
            window(1.0, 9),
            window(2.0, 6),
            window(3.0, 7),
            window(4.0, 8),
        ];
        let nvx = [
            window(5.0, 0),
            window(6.0, 4),
            window(7.0, 9),
            window(8.0, 1),
        ];
        assert_eq!(steal_limit(&[&nvx]), 0);
        assert_eq!(steal_limit(&[&native, &nvx]), 6);
        assert_eq!(within(&native, 6), vec![2.0]);
        assert_eq!(within(&nvx, 6), vec![5.0, 6.0, 8.0]);
        assert_eq!(steal_limit(&[&[]]), 0);
        assert_eq!(steal_limit(&[]), 0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
