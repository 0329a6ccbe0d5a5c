//! Histograms and cumulative histograms.
//!
//! The cumulative histogram is the core data-driven ingredient of the paper's
//! Intelligent Adaptive Transfer Function (Section 4.2.1): "the value of a
//! voxel's cumulative histogram is the number of voxels in the data set that
//! have scalar value less than or equal to that voxel". When temporal changes
//! are positional or global intensity shifts, a feature's *cumulative*
//! histogram value stays nearly constant even though its raw value drifts.

use crate::sample::bin_index;
use crate::volume::ScalarVolume;
use serde::{Deserialize, Serialize};

/// A fixed-bin histogram over a value range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    lo: f32,
    hi: f32,
    total: u64,
}

impl Histogram {
    /// Histogram of a volume with `bins` bins over the volume's own range.
    pub fn of_volume(vol: &ScalarVolume, bins: usize) -> Self {
        let (lo, hi) = vol.value_range();
        Self::of_values(vol.as_slice(), bins, lo, hi)
    }

    /// Histogram over an explicit `[lo, hi]` range (values outside are
    /// clamped into the first/last bin). `hi == lo` is handled by putting
    /// everything into bin 0.
    pub fn of_values(values: &[f32], bins: usize, lo: f32, hi: f32) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi >= lo, "invalid range [{lo}, {hi}]");
        let mut counts = vec![0u64; bins];
        let span = hi - lo;
        for &v in values {
            if v.is_nan() {
                continue;
            }
            let bin = if span <= 0.0 {
                0
            } else {
                bin_index((v - lo) / span, bins)
            };
            counts[bin] += 1;
        }
        let total = counts.iter().sum();
        Self {
            counts,
            lo,
            hi,
            total,
        }
    }

    #[inline]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    #[inline]
    pub fn range(&self) -> (f32, f32) {
        (self.lo, self.hi)
    }

    /// Bin index for a value (clamped).
    #[inline]
    pub fn bin_of(&self, v: f32) -> usize {
        let span = self.hi - self.lo;
        if span <= 0.0 {
            return 0;
        }
        bin_index((v - self.lo) / span, self.bins())
    }

    /// Central value of a bin.
    #[inline]
    pub fn bin_center(&self, bin: usize) -> f32 {
        let span = self.hi - self.lo;
        self.lo + span * (bin as f32 + 0.5) / self.bins() as f32
    }

    /// The bin with the largest count inside `[from_bin, to_bin]`, as
    /// `(bin, count)`. Used to locate feature peaks (Figure 2).
    pub fn peak_in(&self, from_bin: usize, to_bin: usize) -> (usize, u64) {
        let to = to_bin.min(self.bins() - 1);
        let mut best = (from_bin, 0);
        for b in from_bin..=to {
            if self.counts[b] > best.1 {
                best = (b, self.counts[b]);
            }
        }
        best
    }

    /// Normalized bin heights (sum = 1 when total > 0).
    pub fn normalized(&self) -> Vec<f64> {
        let t = self.total.max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / t).collect()
    }
}

/// Cumulative distribution of a volume's values, queryable per value.
///
/// `value_at_or_below(v)` returns the *fraction* of voxels with value `<= v`,
/// i.e. the normalized cumulative histogram the IATF consumes as its second
/// input dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CumulativeHistogram {
    cum: Vec<u64>,
    lo: f32,
    hi: f32,
    total: u64,
}

impl CumulativeHistogram {
    /// Build from a histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        let mut cum = Vec::with_capacity(h.bins());
        let mut acc = 0u64;
        for &c in h.counts() {
            acc += c;
            cum.push(acc);
        }
        let (lo, hi) = h.range();
        Self {
            cum,
            lo,
            hi,
            total: h.total(),
        }
    }

    /// Build directly from a volume with `bins` resolution.
    pub fn of_volume(vol: &ScalarVolume, bins: usize) -> Self {
        Self::from_histogram(&Histogram::of_volume(vol, bins))
    }

    #[inline]
    pub fn bins(&self) -> usize {
        self.cum.len()
    }

    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    #[inline]
    pub fn range(&self) -> (f32, f32) {
        (self.lo, self.hi)
    }

    /// Count of voxels with value `<= v`. No value is `<= NaN`, so a NaN
    /// query counts 0.
    pub fn count_at_or_below(&self, v: f32) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if v.is_nan() || v < self.lo {
            return 0;
        }
        let span = self.hi - self.lo;
        if span <= 0.0 || v >= self.hi {
            return self.total;
        }
        self.cum[bin_index((v - self.lo) / span, self.bins())]
    }

    /// Fraction of voxels with value `<= v`, in `[0, 1]`.
    #[inline]
    pub fn fraction_at_or_below(&self, v: f32) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        self.count_at_or_below(v) as f32 / self.total as f32
    }

    /// Approximate inverse CDF: the smallest bin-center value whose
    /// cumulative fraction reaches `q` (quantile query).
    pub fn quantile(&self, q: f32) -> f32 {
        let q = q.clamp(0.0, 1.0);
        let target = (q as f64 * self.total as f64).ceil() as u64;
        let span = self.hi - self.lo;
        for (b, &c) in self.cum.iter().enumerate() {
            if c >= target {
                return self.lo + span * (b as f32 + 0.5) / self.bins() as f32;
            }
        }
        self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Dims3;

    fn uniform_ramp() -> ScalarVolume {
        // 1000 voxels with values 0..1000
        ScalarVolume::from_vec(
            Dims3::new(10, 10, 10),
            (0..1000).map(|i| i as f32).collect(),
        )
    }

    #[test]
    fn histogram_counts_sum_to_total() {
        let h = Histogram::of_volume(&uniform_ramp(), 64);
        assert_eq!(h.total(), 1000);
        assert_eq!(h.counts().iter().sum::<u64>(), 1000);
    }

    #[test]
    fn histogram_uniform_is_flat() {
        let h = Histogram::of_volume(&uniform_ramp(), 10);
        for &c in h.counts() {
            assert_eq!(c, 100);
        }
    }

    #[test]
    fn bin_of_clamps() {
        let h = Histogram::of_values(&[0.0, 1.0], 4, 0.0, 1.0);
        assert_eq!(h.bin_of(-5.0), 0);
        assert_eq!(h.bin_of(5.0), 3);
        assert_eq!(h.bin_of(0.5), 2);
    }

    #[test]
    fn bin_center_inverts_bin_of() {
        let h = Histogram::of_values(&[0.0, 1.0], 16, 0.0, 1.0);
        for b in 0..16 {
            assert_eq!(h.bin_of(h.bin_center(b)), b);
        }
    }

    #[test]
    fn degenerate_range_single_bin() {
        let h = Histogram::of_values(&[2.0, 2.0, 2.0], 8, 2.0, 2.0);
        assert_eq!(h.counts()[0], 3);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn nan_values_are_skipped() {
        let h = Histogram::of_values(&[0.5, f32::NAN], 4, 0.0, 1.0);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn nan_query_counts_nothing() {
        let c = CumulativeHistogram::of_volume(&uniform_ramp(), 32);
        assert_eq!(c.count_at_or_below(f32::NAN), 0);
        assert_eq!(c.fraction_at_or_below(f32::NAN), 0.0);
        let flat =
            CumulativeHistogram::from_histogram(&Histogram::of_values(&[1.0; 4], 8, 1.0, 1.0));
        assert_eq!(flat.count_at_or_below(f32::NAN), 0);
    }

    #[test]
    fn peak_finds_mode() {
        let h = Histogram::of_values(&[0.1, 0.5, 0.5, 0.9], 10, 0.0, 1.0);
        let (bin, count) = h.peak_in(0, 9);
        assert_eq!(count, 2);
        assert_eq!(bin, h.bin_of(0.5));
    }

    #[test]
    fn cumulative_is_monotone_and_ends_at_total() {
        let c = CumulativeHistogram::of_volume(&uniform_ramp(), 32);
        let mut prev = 0;
        for v in (0..=1000).step_by(50) {
            let cur = c.count_at_or_below(v as f32);
            assert!(cur >= prev);
            prev = cur;
        }
        assert_eq!(c.count_at_or_below(1e9), 1000);
        assert_eq!(c.count_at_or_below(-1e9), 0);
    }

    #[test]
    fn fraction_midpoint_of_uniform_is_half() {
        let c = CumulativeHistogram::of_volume(&uniform_ramp(), 1000);
        let f = c.fraction_at_or_below(499.0);
        assert!((f - 0.5).abs() < 0.02, "{f}");
    }

    #[test]
    fn cumhist_invariant_under_global_shift() {
        // The property motivating the IATF: shifting all values by a constant
        // leaves every voxel's cumulative fraction unchanged.
        let v = uniform_ramp();
        let shifted = v.map(|&x| x + 300.0);
        let c0 = CumulativeHistogram::of_volume(&v, 256);
        let c1 = CumulativeHistogram::of_volume(&shifted, 256);
        for q in [100.0f32, 400.0, 800.0] {
            let f0 = c0.fraction_at_or_below(q);
            let f1 = c1.fraction_at_or_below(q + 300.0);
            assert!((f0 - f1).abs() < 0.01, "{f0} vs {f1}");
        }
    }

    #[test]
    fn quantile_inverts_fraction_roughly() {
        let c = CumulativeHistogram::of_volume(&uniform_ramp(), 500);
        let v = c.quantile(0.25);
        assert!((v - 250.0).abs() < 10.0, "{v}");
        assert_eq!(c.quantile(0.0), c.quantile(-1.0));
    }

    #[test]
    fn empty_cumhist_is_safe() {
        let h = Histogram::of_values(&[], 4, 0.0, 1.0);
        let c = CumulativeHistogram::from_histogram(&h);
        assert_eq!(c.fraction_at_or_below(0.5), 0.0);
    }
}
