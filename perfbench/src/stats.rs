//! Sample statistics: medians, the supported-tail percentile rule, and the
//! ratio helpers every workload reports through.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile the benchmark reports when the sample allows it.
pub const TAIL_WANTED: f64 = 90.0;

/// Median of an unsorted sample (mean of the two middle values for an even
/// count). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of an ascending sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile, at most `wanted`, that leaves at least `beyond`
/// samples above it in a sample of `n`. `None` when `n <= beyond`.
pub fn supported_percentile(n: usize, wanted: f64, beyond: usize) -> Option<f64> {
    if n <= beyond {
        return None;
    }
    Some(wanted.min(100.0 * (n - beyond) as f64 / n as f64))
}

/// Median and supported tail of a latency sample: `(p50, tail, tail_pct)`.
/// With fewer than [`TAIL_BEYOND`]` + 1` samples the tail falls back to the
/// maximum (percentile 100).
pub fn latency_summary(values: &[f64]) -> Option<(f64, f64, f64)> {
    let p50 = median(values)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pct = supported_percentile(v.len(), TAIL_WANTED, TAIL_BEYOND).unwrap_or(100.0);
    Some((p50, percentile_sorted(&v, pct), pct))
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub fn share_pct(part: f64, whole: f64) -> f64 {
    100.0 * ratio(part, whole)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        // 100 samples: p90 leaves exactly ten beyond it.
        assert_eq!(supported_percentile(100, 90.0, 10), Some(90.0));
        assert_eq!(supported_percentile(1000, 90.0, 10), Some(90.0));
        // Fewer samples: the highest percentile that still leaves ten.
        assert_eq!(supported_percentile(50, 90.0, 10), Some(80.0));
        assert_eq!(supported_percentile(11, 90.0, 10), Some(100.0 / 11.0));
        assert_eq!(supported_percentile(10, 90.0, 10), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in [11usize, 37, 99, 100, 101, 250] {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (_, tail, pct) = latency_summary(&v).unwrap();
            let beyond = v.iter().filter(|&&x| x > tail).count();
            assert!(beyond >= TAIL_BEYOND, "n={n} pct={pct} beyond={beyond}");
            assert!(pct <= TAIL_WANTED);
            if n >= 100 {
                assert_eq!(pct, TAIL_WANTED);
            }
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tiny_sample_tail_is_the_maximum() {
        let (p50, tail, pct) = latency_summary(&[1.0, 5.0, 3.0]).unwrap();
        assert_eq!((p50, tail, pct), (3.0, 5.0, 100.0));
        assert!(latency_summary(&[]).is_none());
    }

    #[test]
    fn ratios_guard_zero_denominators() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(share_pct(1.0, 4.0), 25.0);
        assert_eq!(share_pct(1.0, 0.0), 0.0);
    }
}
