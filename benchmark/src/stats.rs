//! Order statistics used for every reported timing.

/// Median of the samples (mean of the middle two for an even count).
/// Panics on an empty slice: every caller has taken at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fastest of the samples: the time of a deterministic, CPU-bound
/// operation with the least outside interference in it.
///
/// Timings of one operation are reported as this minimum, not as the
/// median. The host is a shared two-core VM and its noise only ever slows a
/// run: bursts of 1 to 3 s at 1.3 to 1.5 times the quiet time, and slow eras
/// of minutes. Over 60 windows of 3.3 s of `compile_orders` the median
/// ranged from 54 to 87 ms and was bimodal, while the minimum stayed within
/// 50.4 to 53.7 ms in 57 of them: medians of ten runs spread by 20 to 45 %,
/// past any bound a regression gate could use.
pub fn quietest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "minimum of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile `q` (in percent) of the samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentiles worth quoting, lowest first, each with the share
/// of samples beyond it in thousandths.
const TAILS: [(f64, usize); 4] = [(90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest tail percentile that still has at least ten samples beyond
/// it, or `None` when even p90 has fewer (under 100 samples): a percentile
/// resting on a handful of samples is noise, not a tail.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .find(|(_, beyond)| n * beyond >= 10 * 1000)
        .map(|(q, _)| *q)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the driver holds against each metric's bound.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0)); // 10 beyond p90
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0)); // 10 beyond p95
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
