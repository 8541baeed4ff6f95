//! Order statistics used by every report: percentiles of a sample, the
//! tail percentile a sample is large enough to support, and the
//! quartile spread `selfcheck` compares with a metric's bound.

/// Sorts a sample ascending (total order, so a NaN cannot panic a run).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The `p`-quantile (`0.0..=1.0`) of an ascending sample, linearly
/// interpolated between the two nearest ranks. Empty samples read 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// 10th percentile of an unsorted sample: how the benchmark reads the
/// cost of a repeated operation. The host is shared, so identical work
/// is slowed by a third for seconds to minutes at a time; the slow
/// side of a sample follows the neighbours, the fast side the program.
pub fn p10(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.10)
}

/// The highest of p99/p95/p90/p75 that still has at least ten samples
/// beyond it, as `(percent, quantile)`; `None` under 40 samples. Tails
/// are printed as diagnostics only — they do not repeat within a tenth
/// on a shared host.
pub fn tail(sorted: &[f64]) -> Option<(u32, f64)> {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&pct| sorted.len() as f64 * f64::from(100 - pct) / 100.0 >= 10.0)
        .map(|pct| (pct, percentile(sorted, f64::from(pct) / 100.0)))
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance check applies to ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread the benchmark contract bounds.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = sorted(vec![40.0, 10.0, 30.0, 20.0]);
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 40.0);
        assert_eq!(percentile(&s, 0.5), 25.0);
        assert!((percentile(&s, 0.25) - 17.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&s).map(|t| t.0), Some(99));
        assert_eq!(tail(&s[..200]).map(|t| t.0), Some(95));
        assert_eq!(tail(&s[..100]).map(|t| t.0), Some(90));
        assert_eq!(tail(&s[..40]).map(|t| t.0), Some(75));
        assert_eq!(tail(&s[..39]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }
}
