//! Order statistics for the report: nearest-rank percentiles for
//! latency samples and Python-compatible quartiles for run-to-run
//! spread.

/// A latency (or any) sample set summarized for the report.
///
/// The host these figures come from alternates between fast and slow
/// periods lasting seconds, so a percentile of the pooled samples
/// flips between the two modes with the share of time spent in each.
/// The reported `p50`/`p99` are therefore taken per window of
/// consecutive samples and averaged across windows with the
/// interquartile mean, which moves smoothly with that share and
/// ignores single stalled windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    /// Interquartile mean of the window medians.
    pub p50: f64,
    /// Interquartile mean of the window p99s (windows of at least
    /// [`P99_WINDOW`] samples, so each has ten samples beyond it).
    pub p99: f64,
    pub p50_windows: usize,
    pub p99_windows: usize,
    /// The highest of p50/p90/p99/p99.9 of the pooled samples that
    /// still has at least ten samples above it, as a percent (0 when
    /// there are too few), and its value.
    pub tail_pct: f64,
    pub tail: f64,
}

/// Minimum samples per p99 window.
pub const P99_WINDOW: usize = 1_000;
/// Minimum samples per p50 window, and the most windows of either kind.
pub const P50_WINDOW: usize = 5;
pub const MAX_WINDOWS: usize = 40;

/// Nearest-rank percentile (`pct` in 0..=100) of an ascending slice:
/// the smallest sample with at least `pct`% of samples at or below it.
/// Returns 0.0 for an empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    // The epsilon keeps float error (0.999 * 1000 = 999.0000000000001)
    // from pushing an exact rank up by one.
    let rank = ((pct / 100.0) * n as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// `pct` of each of `windows` consecutive, near-equal slices of
/// `samples` (in sample order).
fn window_percentiles(samples: &[f64], windows: usize, pct: f64) -> Vec<f64> {
    let n = samples.len();
    (0..windows)
        .map(|w| {
            let mut win = samples[w * n / windows..(w + 1) * n / windows].to_vec();
            win.sort_by(f64::total_cmp);
            percentile_sorted(&win, pct)
        })
        .collect()
}

/// Summarizes `samples`, taken in time order (see [`Summary`]).
#[must_use]
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (tail_pct, tail) = [99.9, 99.0, 90.0, 50.0]
        .iter()
        .find(|&&p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
        .map_or((0.0, 0.0), |&p| (p, percentile_sorted(&sorted, p)));
    let p50_windows = (n / P50_WINDOW).clamp(1, MAX_WINDOWS);
    let p99_windows = (n / P99_WINDOW).clamp(1, MAX_WINDOWS);
    Summary {
        count: n,
        p50: interquartile_mean(&window_percentiles(samples, p50_windows, 50.0)),
        p99: interquartile_mean(&window_percentiles(samples, p99_windows, 99.0)),
        p50_windows,
        p99_windows,
        tail_pct,
        tail,
    }
}

/// The mean of the values left after dropping the lowest and highest
/// quarter (`floor(n / 4)` from each end); 0.0 when empty.
#[must_use]
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

/// Median of `values` (mean of the middle two for an even count; 0.0
/// when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles by Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method). Needs at least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (Python quartiles) —
/// the spread figure a metric's bound is compared against.
#[must_use]
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_match_hand_cases() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 5.0);
        assert_eq!(percentile_sorted(&v, 90.0), 9.0);
        assert_eq!(percentile_sorted(&v, 99.0), 10.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 10.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&w, 99.0), 990.0);
        assert_eq!(percentile_sorted(&w, 99.9), 999.0);
    }

    #[test]
    fn summary_windows_and_tails_match_hand_cases() {
        // 1000 samples: one p99 window, 40 p50 windows of 25.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&w);
        assert_eq!((s.count, s.p99_windows, s.p50_windows), (1000, 1, 40));
        assert_eq!(s.p99, 990.0);
        assert_eq!((s.tail_pct, s.tail), (99.0, 990.0));
        // Window medians are 13, 38, ..., 988; the middle twenty average
        // to 500.5.
        assert_eq!(s.p50, 500.5);
        // Two p99 windows (990 and 1990): their interquartile mean.
        let two: Vec<f64> = (1..=2000).map(f64::from).collect();
        let s2 = summarize(&two);
        assert_eq!((s2.p99_windows, s2.p99), (2, 1490.0));
        let big: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(summarize(&big).tail_pct, 99.9);
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(
            (summarize(&small).tail_pct, summarize(&small).tail),
            (50.0, 25.0)
        );
        assert_eq!(summarize(&[1.0, 2.0]).tail_pct, 0.0);
        assert_eq!(summarize(&[]).p99, 0.0);
        assert_eq!(summarize(&[7.0]).p50, 7.0);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            3.5
        );
        assert_eq!(interquartile_mean(&[1.0, 2.0, 9.0]), 4.0);
        assert_eq!(interquartile_mean(&[4.0]), 4.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some([1.0, 2.0, 4.0]));
        assert_eq!(quartiles(&[1.0]), None);
        let r = relative_iqr(&v).expect("spread");
        assert!((r - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
