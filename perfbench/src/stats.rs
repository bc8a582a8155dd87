//! Order statistics for the benchmark's samples.

/// Minimum number of samples that must lie beyond a reported percentile.
/// A p99 therefore needs at least 1000 samples and a median at least 20.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (0 < q < 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above it. Non-finite samples
/// (failed operations enter as `+inf`) sort last.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    // 1-based nearest rank: the smallest rank r with r/n >= q.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample without the tail-count rule; used for
/// repeated timings of one call, where every sample is a measurement of
/// the same thing.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method) computes them, so the steadiness
/// report matches the acceptance arithmetic. Needs at least 2 samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (data[j as usize - 1] * (4.0 - delta) + data[j as usize] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let ok: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&ok, 0.99), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_needs_twenty_samples() {
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 0.5), None);
    }

    #[test]
    fn failures_sort_into_the_tail() {
        let mut s: Vec<f64> = (1..=1000).map(f64::from).collect();
        s[3] = f64::INFINITY;
        assert_eq!(percentile(&s, 0.99), Some(991.0));
        s.iter_mut().take(20).for_each(|v| *v = f64::INFINITY);
        assert_eq!(percentile(&s, 0.99), Some(f64::INFINITY));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
