//! Order statistics used by every metric: nearest-rank percentiles, the
//! median, and Python's `statistics.quantiles(n=4)` quartiles (what the
//! driver uses for spreads, so `compare` must agree with it).

/// Sorts in place (NaN-free input) and returns the slice for chaining.
pub fn sort(v: &mut [f64]) -> &[f64] {
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    v
}

/// Nearest-rank percentile of an already sorted slice: the smallest value
/// with at least `p` percent of the samples at or below it. 0 when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    percentile_sorted(sort(v), p)
}

/// Median with the usual mean-of-the-middle-two for even counts.
pub fn median(v: &mut [f64]) -> f64 {
    let s = sort(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `(q1, q2, q3)` as Python's `statistics.quantiles(v, n=4)` (the default
/// "exclusive" method) computes them. Needs at least two values.
pub fn quartiles(v: &mut [f64]) -> (f64, f64, f64) {
    let s = sort(v);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 95.0), 95.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        let mut w = vec![3.0, 1.0, 2.0];
        assert_eq!(percentile(&mut w, 50.0), 2.0);
        assert_eq!(percentile(&mut w, 95.0), 3.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&mut [16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&mut [3.0, 9.0]), (1.5, 6.0, 10.5));
    }
}
