//! Order statistics for latency samples and for medians over repetitions.

/// Sorts samples in place; NaN cannot occur in measured times, and if one
/// did it would sort last rather than panic.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// The `q` quantile of sorted samples by nearest rank (the smallest sample
/// with at least `q` of the mass at or below it). `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the `q` quantile's rank: a percentile is only
/// reported as supported when at least ten lie beyond it.
pub fn beyond(len: usize, q: f64) -> usize {
    len - ((q * len as f64).ceil() as usize).min(len)
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the spread printed here is the
/// one the acceptance check computes. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    sort(&mut v);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Smallest and largest value.
pub fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    let first = *values.first()?;
    Some(
        values
            .iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.95), Some(95.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(199, 0.95), 9);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(0, 0.95), 0);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // One slow repetition out of five does not move the median.
        assert_eq!(median(&[10.0, 10.1, 9.9, 10.05, 50.0]), Some(10.05));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 5.0, 2.0, 4.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&ten), Some(5.5 / 5.5));
    }

    #[test]
    fn range_of_values() {
        assert_eq!(min_max(&[2.0, 9.0, 4.0]), Some((2.0, 9.0)));
        assert_eq!(min_max(&[]), None);
    }
}
