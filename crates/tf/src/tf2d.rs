//! Two-dimensional transfer functions over (data value, gradient magnitude).
//!
//! The paper's related-work section points at Kindlmann's transfer-function
//! course and the "transfer function bake-off" \[11, 17\]; the classic 2D
//! design separates materials by value and *boundaries* by gradient
//! magnitude. It is a useful non-learning baseline for this repo: it adds
//! one derived property, but — unlike the IATF — it is still static in time
//! and still cannot encode neighborhood *size*.

use ifet_volume::sample::{bin_index, gradient_magnitude_volume};
use ifet_volume::{Mask3, ScalarVolume};
use serde::{Deserialize, Serialize};

/// Table resolution per axis.
pub const TF2D_BINS: usize = 64;

/// A 2D opacity transfer function over `(value, gradient magnitude)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferFunction2D {
    v_lo: f32,
    v_hi: f32,
    g_lo: f32,
    g_hi: f32,
    /// Row-major `TF2D_BINS × TF2D_BINS` opacity table (value-major).
    opacity: Vec<f32>,
}

impl TransferFunction2D {
    /// All-transparent TF over the given value and gradient domains.
    pub fn transparent(v_domain: (f32, f32), g_domain: (f32, f32)) -> Self {
        assert!(v_domain.1 > v_domain.0, "invalid value domain");
        assert!(g_domain.1 > g_domain.0, "invalid gradient domain");
        Self {
            v_lo: v_domain.0,
            v_hi: v_domain.1,
            g_lo: g_domain.0,
            g_hi: g_domain.1,
            opacity: vec![0.0; TF2D_BINS * TF2D_BINS],
        }
    }

    /// Build by evaluating `f(value, gradient_magnitude)` at bin centers.
    pub fn from_fn(
        v_domain: (f32, f32),
        g_domain: (f32, f32),
        mut f: impl FnMut(f32, f32) -> f32,
    ) -> Self {
        let mut tf = Self::transparent(v_domain, g_domain);
        for vi in 0..TF2D_BINS {
            let v = tf.v_lo + (tf.v_hi - tf.v_lo) * (vi as f32 + 0.5) / TF2D_BINS as f32;
            for gi in 0..TF2D_BINS {
                let g = tf.g_lo + (tf.g_hi - tf.g_lo) * (gi as f32 + 0.5) / TF2D_BINS as f32;
                tf.opacity[vi * TF2D_BINS + gi] = f(v, g).clamp(0.0, 1.0);
            }
        }
        tf
    }

    /// A rectangular 2D band: `peak` opacity for values in `[v0, v1]` AND
    /// gradient magnitudes in `[g0, g1]`.
    pub fn band(
        v_domain: (f32, f32),
        g_domain: (f32, f32),
        v_band: (f32, f32),
        g_band: (f32, f32),
        peak: f32,
    ) -> Self {
        Self::from_fn(v_domain, g_domain, |v, g| {
            if v >= v_band.0 && v <= v_band.1 && g >= g_band.0 && g <= g_band.1 {
                peak
            } else {
                0.0
            }
        })
    }

    /// Opacity for a `(value, gradient magnitude)` pair (clamped lookup).
    pub fn opacity_at(&self, v: f32, g: f32) -> f32 {
        let vi = bin_of(v, self.v_lo, self.v_hi);
        let gi = bin_of(g, self.g_lo, self.g_hi);
        self.opacity[vi * TF2D_BINS + gi]
    }

    /// The `(value, gradient)` domains.
    pub fn domains(&self) -> ((f32, f32), (f32, f32)) {
        ((self.v_lo, self.v_hi), (self.g_lo, self.g_hi))
    }

    /// Classify a volume: voxels whose `(value, |∇|)` opacity reaches `tau`.
    /// Computes the gradient-magnitude field internally.
    pub fn extract_mask(&self, vol: &ScalarVolume, tau: f32) -> Mask3 {
        let grad = gradient_magnitude_volume(vol);
        let d = vol.dims();
        let mut m = Mask3::empty(d);
        for (i, (&v, &g)) in vol.as_slice().iter().zip(grad.as_slice()).enumerate() {
            if self.opacity_at(v, g) >= tau {
                m.set_linear(i, true);
            }
        }
        m
    }
}

#[inline]
fn bin_of(x: f32, lo: f32, hi: f32) -> usize {
    bin_index((x - lo) / (hi - lo), TF2D_BINS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifet_volume::Dims3;

    #[test]
    fn band_selects_joint_condition() {
        let tf = TransferFunction2D::band((0.0, 1.0), (0.0, 2.0), (0.4, 0.6), (1.0, 2.0), 0.9);
        assert_eq!(tf.opacity_at(0.5, 1.5), 0.9);
        assert_eq!(tf.opacity_at(0.5, 0.2), 0.0); // right value, wrong gradient
        assert_eq!(tf.opacity_at(0.9, 1.5), 0.0); // wrong value, right gradient
    }

    #[test]
    fn lookup_clamps_out_of_domain() {
        let tf = TransferFunction2D::band((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), 1.0);
        assert_eq!(tf.opacity_at(-5.0, 99.0), 1.0);
    }

    #[test]
    fn extract_mask_separates_boundary_from_interior() {
        // A solid ball: interior has value 1 and ~zero gradient; the shell
        // has value ~1 and high gradient. A 2D TF can pick the shell only —
        // something no 1D value TF can do.
        let n = 20;
        let c = (n as f32 - 1.0) / 2.0;
        let vol = ScalarVolume::from_fn(Dims3::cube(n), |x, y, z| {
            let d =
                ((x as f32 - c).powi(2) + (y as f32 - c).powi(2) + (z as f32 - c).powi(2)).sqrt();
            if d <= 6.0 {
                1.0
            } else {
                0.0
            }
        });
        let tf = TransferFunction2D::band((0.0, 1.0), (0.0, 1.0), (0.2, 1.0), (0.2, 1.0), 1.0);
        let shell = tf.extract_mask(&vol, 0.5);
        // The deep interior is excluded (zero gradient)...
        assert!(!shell.get(10, 10, 10), "ball center must not be selected");
        // ...but the boundary region is present.
        assert!(shell.count() > 50, "shell voxels: {}", shell.count());
        // Everything selected really is near the surface: high gradient.
        let grad = ifet_volume::sample::gradient_magnitude_volume(&vol);
        for (x, y, z) in shell.set_coords() {
            assert!(*grad.get(x, y, z) >= 0.2);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let tf = TransferFunction2D::band((0.0, 2.0), (0.0, 3.0), (0.5, 1.0), (1.0, 2.0), 0.7);
        let json = serde_json::to_string(&tf).unwrap();
        let back: TransferFunction2D = serde_json::from_str(&json).unwrap();
        assert_eq!(tf, back);
    }

    #[test]
    #[should_panic]
    fn invalid_domain_panics() {
        let _ = TransferFunction2D::transparent((1.0, 1.0), (0.0, 1.0));
    }
}
