//! Order statistics for the reported timings.

/// Median of `v` (the mean of the two middle values for an even count, as
/// Python's `statistics.median`). `NaN` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest whole percentile that still has at least ten samples above
/// it, by nearest rank: `(percentile, value)`, or `None` below 11 samples.
pub fn tail(v: &[f64]) -> Option<(u32, f64)> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let p = (100 * (n - 10) / n) as u32;
    let rank = (p as usize * n).div_ceil(100).max(1);
    Some((p, sorted(v)[rank - 1]))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        let v: Vec<f64> = (1..=14).map(f64::from).collect();
        let (p, x) = tail(&v).expect("14 samples have a tail");
        assert_eq!(p, 28);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
    }
}
