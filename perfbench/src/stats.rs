//! Order statistics for reporting timings.

/// Nearest-rank quantile of `sorted` (ascending), `q` in `[0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile `q` only when at least ten samples lie beyond it, the rule
/// for the highest percentile a sample count supports: p95 needs 200
/// samples, p99 needs 1000.
pub fn tail_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let beyond = sorted.len() as f64 * (1.0 - q);
    (beyond + 1e-9 >= 10.0).then(|| quantile(sorted, q))
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Length of the windows a run is cut into for its end-to-end timings.
///
/// The measuring host slows down by up to 2x for seconds to minutes at a
/// time under co-tenant load; a whole-run median then reads how much of
/// the run was disturbed, not how fast the program is. Per-window
/// medians let `alg1` scale each window by the host probe.
pub const WINDOW_S: f64 = 2.0;

/// Medians of `samples` (`(time_s, value)`, time ascending) over
/// consecutive windows of `WINDOW_S`, skipping windows with fewer than
/// `min_count` samples.
pub fn window_medians(samples: &[(f64, f64)], min_count: usize) -> Vec<f64> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < samples.len() {
        let edge = samples[start].0 + WINDOW_S;
        let end = start + samples[start..].partition_point(|s| s.0 < edge);
        if end - start >= min_count {
            let values: Vec<f64> = samples[start..end].iter().map(|s| s.1).collect();
            out.push(median(&values));
        }
        start = end;
    }
    out
}

/// Interquartile range of `samples` as a share of their median.
pub fn spread(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let mid = quantile(&s, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    (quantile(&s, 0.75) - quantile(&s, 0.25)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(
            tail_quantile(&xs, 0.95),
            None,
            "199 samples leave 9.95 beyond p95"
        );
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.95), Some(190.0));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.99), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.99), Some(990.0));
        assert_eq!(tail_quantile(&xs[..20], 0.5), Some(10.0));
    }

    #[test]
    fn window_medians_cut_by_time() {
        let samples: Vec<(f64, f64)> = (0..50)
            .map(|i| (f64::from(i) * 0.1, f64::from(i % 5)))
            .collect();
        // Windows [0, 2), [2, 4), [4, 4.9]: 20, 20 and 10 samples.
        assert_eq!(window_medians(&samples, 10), vec![2.0, 2.0, 2.0]);
        assert_eq!(window_medians(&samples, 11).len(), 2);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(spread(&xs), (6.0 - 2.0) / 4.0);
    }
}
