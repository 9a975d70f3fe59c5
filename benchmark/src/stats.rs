//! Order statistics used by every metric.

/// Samples a tail percentile must leave beyond it before it is reported:
/// with fewer, the "percentile" is one or two outliers.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank rank (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for an empty sample.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(sorted(samples)[rank(samples.len(), p) - 1])
}

/// The median as the nearest-rank 50th percentile.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 50.0)
}

/// A tail percentile, reported only when at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - rank(n, p) < MIN_BEYOND {
        return None;
    }
    nearest_rank(samples, p)
}

/// The first and third quartiles by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`), `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(samples);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The median of per-run values as Python's `statistics.median` takes it
/// (mean of the two middle values for an even count), so run-to-run
/// summaries match the acceptance procedure's arithmetic.
pub fn runs_median(samples: &[f64]) -> Option<f64> {
    let data = sorted(samples);
    let n = data.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(data[n / 2]),
        _ => Some((data[n / 2 - 1] + data[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 51.0), Some(6.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // p95 of 199 samples has rank 190 and 9 beyond; of 200, rank 190 and 10.
        let s199: Vec<f64> = (1..=199).map(f64::from).collect();
        let s200: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&s199, 95.0), None);
        assert_eq!(tail(&s200, 95.0), Some(190.0));
        // p99 needs 1000 samples.
        let s999: Vec<f64> = (1..=999).map(f64::from).collect();
        let s1000: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s999, 99.0), None);
        assert_eq!(tail(&s1000, 99.0), Some(990.0));
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(runs_median(&s), Some(5.5));
        assert_eq!(runs_median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(runs_median(&[]), None);
    }
}
