//! One-dimensional transfer functions.

use ifet_volume::sample::bin_index;
use serde::{Deserialize, Serialize};

/// Number of table entries used throughout (the paper evaluates its network
/// "for all the entries in the 1D transfer function", i.e. a lookup table).
pub const TF_ENTRIES: usize = 256;

/// A 1D opacity transfer function over a value domain `[lo, hi]`, stored as
/// a dense lookup table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferFunction1D {
    lo: f32,
    hi: f32,
    opacity: Vec<f32>,
}

impl TransferFunction1D {
    /// All-transparent TF over `[lo, hi]`.
    pub fn transparent(lo: f32, hi: f32) -> Self {
        assert!(hi > lo, "invalid TF domain [{lo}, {hi}]");
        Self {
            lo,
            hi,
            opacity: vec![0.0; TF_ENTRIES],
        }
    }

    /// Build from an explicit table (must be `TF_ENTRIES` long, each in `[0,1]`).
    pub fn from_table(lo: f32, hi: f32, opacity: Vec<f32>) -> Self {
        assert!(hi > lo, "invalid TF domain [{lo}, {hi}]");
        assert_eq!(opacity.len(), TF_ENTRIES);
        assert!(
            opacity.iter().all(|&o| (0.0..=1.0).contains(&o)),
            "opacity entries must lie in [0, 1]"
        );
        Self { lo, hi, opacity }
    }

    /// Build by evaluating `f` at each entry's central value.
    pub fn from_fn(lo: f32, hi: f32, mut f: impl FnMut(f32) -> f32) -> Self {
        assert!(hi > lo);
        let opacity = (0..TF_ENTRIES)
            .map(|i| {
                let v = lo + (hi - lo) * (i as f32 + 0.5) / TF_ENTRIES as f32;
                f(v).clamp(0.0, 1.0)
            })
            .collect();
        Self { lo, hi, opacity }
    }

    /// A rectangular pulse: `peak` opacity inside `[band_lo, band_hi]`, zero
    /// elsewhere — the workhorse "capture this value band" key-frame TF.
    ///
    /// ```
    /// use ifet_tf::TransferFunction1D;
    /// let tf = TransferFunction1D::band(0.0, 1.0, 0.4, 0.6, 0.9);
    /// assert_eq!(tf.opacity_at(0.5), 0.9);
    /// assert_eq!(tf.opacity_at(0.2), 0.0);
    /// ```
    pub fn band(lo: f32, hi: f32, band_lo: f32, band_hi: f32, peak: f32) -> Self {
        Self::from_fn(lo, hi, |v| {
            if v >= band_lo && v <= band_hi {
                peak
            } else {
                0.0
            }
        })
    }

    /// Piecewise-linear TF through `(value, opacity)` control points
    /// (image-driven editing). Points are sorted internally; opacity outside
    /// the first/last point is held constant.
    pub fn from_control_points(lo: f32, hi: f32, points: &[(f32, f32)]) -> Self {
        assert!(!points.is_empty(), "need at least one control point");
        let mut pts: Vec<(f32, f32)> = points.to_vec();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        Self::from_fn(lo, hi, |v| {
            if v <= pts[0].0 {
                return pts[0].1;
            }
            if v >= pts[pts.len() - 1].0 {
                return pts[pts.len() - 1].1;
            }
            let i = pts.partition_point(|p| p.0 <= v);
            let (x0, y0) = pts[i - 1];
            let (x1, y1) = pts[i];
            if x1 <= x0 {
                return y0;
            }
            y0 + (y1 - y0) * (v - x0) / (x1 - x0)
        })
    }

    /// The domain `[lo, hi]`.
    pub fn domain(&self) -> (f32, f32) {
        (self.lo, self.hi)
    }

    /// The raw opacity table.
    pub fn table(&self) -> &[f32] {
        &self.opacity
    }

    /// Table entry index for a value (clamped).
    #[inline]
    pub fn entry_of(&self, v: f32) -> usize {
        bin_index((v - self.lo) / (self.hi - self.lo), TF_ENTRIES)
    }

    /// [`entry_of`](Self::entry_of) for a block of values, as bytes: the
    /// same scale and clamp to `[0, 255]`, with the truncation done by float
    /// adds and a bit subtraction instead of a saturating float-to-integer
    /// cast, which the compiler does not vectorise.
    #[inline]
    pub fn entries_of<const N: usize>(&self, vals: &[f32; N], out: &mut [u8; N]) {
        const _: () = assert!(TF_ENTRIES == 256, "entries must fit a byte");
        // 2^23: every float in [2^23, 2^24) is an integer, one apart.
        const SHIFT: f32 = 8_388_608.0;
        let (lo, span) = (self.lo, self.hi - self.lo);
        for (e, &v) in out.iter_mut().zip(vals) {
            // `bin_index`'s clamp, but `max` first, which takes NaN to 0
            // as the cast does.
            let t = ((v - lo) / span * TF_ENTRIES as f32)
                .max(0.0)
                .min((TF_ENTRIES - 1) as f32);
            // floor(t) for 0 <= t < 2^23: round to the nearest integer by
            // adding and subtracting 2^23, then step back if that went up.
            let r = (t + SHIFT) - SHIFT;
            let floor = if r > t { r - 1.0 } else { r };
            *e = ((floor + SHIFT).to_bits() - SHIFT.to_bits()) as u8;
        }
    }

    /// Central data value of entry `i`.
    #[inline]
    pub fn value_of_entry(&self, i: usize) -> f32 {
        self.lo + (self.hi - self.lo) * (i as f32 + 0.5) / TF_ENTRIES as f32
    }

    /// Opacity assigned to a data value (nearest-entry lookup, clamped).
    #[inline]
    pub fn opacity_at(&self, v: f32) -> f32 {
        self.opacity[self.entry_of(v)]
    }

    /// The value range where opacity exceeds `threshold` (None if nowhere).
    pub fn support(&self, threshold: f32) -> Option<(f32, f32)> {
        let first = self.opacity.iter().position(|&o| o > threshold)?;
        let last = self.opacity.iter().rposition(|&o| o > threshold)?;
        Some((self.value_of_entry(first), self.value_of_entry(last)))
    }

    /// Linear interpolation between two TFs (entry-wise) — the conventional
    /// key-frame interpolation baseline the IATF beats in Figure 3. Domains
    /// must match.
    pub fn lerp(a: &Self, b: &Self, alpha: f32) -> Self {
        assert_eq!(
            a.domain(),
            b.domain(),
            "cannot lerp TFs over different domains"
        );
        let alpha = alpha.clamp(0.0, 1.0);
        let opacity = a
            .opacity
            .iter()
            .zip(&b.opacity)
            .map(|(&x, &y)| x + (y - x) * alpha)
            .collect();
        Self {
            lo: a.lo,
            hi: a.hi,
            opacity,
        }
    }

    /// Rescale this TF's table onto a different domain, preserving the
    /// mapping *by value* (entries outside the old domain get the edge
    /// opacity).
    pub fn resampled(&self, lo: f32, hi: f32) -> Self {
        Self::from_fn(lo, hi, |v| self.opacity_at(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_covers_expected_entries() {
        let tf = TransferFunction1D::band(0.0, 1.0, 0.25, 0.5, 0.8);
        assert_eq!(tf.opacity_at(0.3), 0.8);
        assert_eq!(tf.opacity_at(0.1), 0.0);
        assert_eq!(tf.opacity_at(0.6), 0.0);
    }

    #[test]
    fn opacity_clamps_out_of_domain() {
        let tf = TransferFunction1D::band(0.0, 1.0, 0.0, 0.1, 1.0);
        assert_eq!(tf.opacity_at(-5.0), 1.0); // clamps to first entry
        assert_eq!(tf.opacity_at(5.0), 0.0);
    }

    #[test]
    fn entry_value_roundtrip() {
        let tf = TransferFunction1D::transparent(-1.0, 3.0);
        for i in [0usize, 17, 128, 255] {
            assert_eq!(tf.entry_of(tf.value_of_entry(i)), i);
        }
    }

    #[test]
    fn entries_of_matches_entry_of() {
        // Domains: ordinary, one ulp wide, a span that overflows to inf, and
        // lo = -inf.
        let domains = [
            (-1.0f32, 3.0f32),
            (0.25, 0.5),
            (1.0, f32::from_bits(1.0f32.to_bits() + 1)),
            (-3e38, 3e38),
            (f32::NEG_INFINITY, 2.0),
        ];
        let mut state = 0x2545_f491u32;
        for (lo, hi) in domains {
            let tf = TransferFunction1D::transparent(lo, hi);
            let mut vals = vec![
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                0.0,
                -0.0,
                f32::from_bits(1),
                f32::from_bits(0x8000_0001),
                f32::MAX,
                f32::MIN,
            ];
            // Every entry edge and the floats a few ulps either side: where
            // the scaled value crosses an integer.
            for i in 0..=TF_ENTRIES {
                let edge = lo + (hi - lo) * i as f32 / TF_ENTRIES as f32;
                for d in -3i32..=3 {
                    vals.push(f32::from_bits(edge.to_bits().wrapping_add_signed(d)));
                }
            }
            for _ in 0..20_000 {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                vals.push(f32::from_bits(state));
                let t = (state >> 8) as f32 / (1 << 24) as f32 * 1.4 - 0.2;
                vals.push(lo + (hi - lo) * t);
            }
            for block in vals.chunks(64) {
                let mut padded = [0.0f32; 64];
                padded[..block.len()].copy_from_slice(block);
                let mut out = [0u8; 64];
                tf.entries_of(&padded, &mut out);
                for (&v, &e) in padded.iter().zip(&out) {
                    assert_eq!(
                        usize::from(e),
                        tf.entry_of(v),
                        "value {v:e} on [{lo}, {hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn control_points_interpolate() {
        let tf = TransferFunction1D::from_control_points(0.0, 1.0, &[(0.2, 0.0), (0.8, 1.0)]);
        assert_eq!(tf.opacity_at(0.1), 0.0);
        assert!((tf.opacity_at(0.5) - 0.5).abs() < 0.05);
        assert!((tf.opacity_at(0.9) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn control_points_unsorted_ok() {
        let a = TransferFunction1D::from_control_points(0.0, 1.0, &[(0.8, 1.0), (0.2, 0.0)]);
        let b = TransferFunction1D::from_control_points(0.0, 1.0, &[(0.2, 0.0), (0.8, 1.0)]);
        assert_eq!(a, b);
    }

    #[test]
    fn support_finds_band() {
        let tf = TransferFunction1D::band(0.0, 1.0, 0.4, 0.6, 1.0);
        let (lo, hi) = tf.support(0.5).unwrap();
        assert!((lo - 0.4).abs() < 0.01 && (hi - 0.6).abs() < 0.01);
        assert!(TransferFunction1D::transparent(0.0, 1.0)
            .support(0.1)
            .is_none());
    }

    #[test]
    fn lerp_midpoint_halves_disjoint_bands() {
        // The Figure 3 pathology: lerping two disjoint bands yields *both*
        // bands at half opacity instead of one moved band.
        let a = TransferFunction1D::band(0.0, 1.0, 0.1, 0.2, 1.0);
        let b = TransferFunction1D::band(0.0, 1.0, 0.7, 0.8, 1.0);
        let m = TransferFunction1D::lerp(&a, &b, 0.5);
        assert!((m.opacity_at(0.15) - 0.5).abs() < 1e-6);
        assert!((m.opacity_at(0.75) - 0.5).abs() < 1e-6);
        assert_eq!(m.opacity_at(0.45), 0.0); // nothing in between
    }

    #[test]
    fn lerp_endpoints_are_inputs() {
        let a = TransferFunction1D::band(0.0, 1.0, 0.1, 0.2, 1.0);
        let b = TransferFunction1D::band(0.0, 1.0, 0.7, 0.8, 1.0);
        assert_eq!(TransferFunction1D::lerp(&a, &b, 0.0), a);
        assert_eq!(TransferFunction1D::lerp(&a, &b, 1.0), b);
    }

    #[test]
    #[should_panic]
    fn lerp_domain_mismatch_panics() {
        let a = TransferFunction1D::transparent(0.0, 1.0);
        let b = TransferFunction1D::transparent(0.0, 2.0);
        let _ = TransferFunction1D::lerp(&a, &b, 0.5);
    }

    #[test]
    fn resample_preserves_mapping_by_value() {
        let a = TransferFunction1D::band(0.0, 1.0, 0.4, 0.6, 1.0);
        let b = a.resampled(0.0, 2.0);
        assert_eq!(b.opacity_at(0.5), 1.0);
        assert_eq!(b.opacity_at(1.5), 0.0);
    }

    #[test]
    fn from_fn_clamps_opacity() {
        let tf = TransferFunction1D::from_fn(0.0, 1.0, |v| v * 3.0 - 1.0);
        for &o in tf.table() {
            assert!((0.0..=1.0).contains(&o));
        }
    }

    #[test]
    #[should_panic]
    fn bad_domain_panics() {
        let _ = TransferFunction1D::transparent(1.0, 1.0);
    }
}
