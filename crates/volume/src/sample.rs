//! Continuous sampling of volumes: trilinear interpolation and
//! central-difference gradients (used by the renderer and the fluid solver's
//! semi-Lagrangian advection), plus the clamped index arithmetic every
//! sampler, table lookup and histogram shares.
//!
//! Index helpers clamp first and then truncate. On a value already clamped
//! to `[0, n − 1]` a truncating cast gives the same index as `floor` (or as
//! `round`, for the nearest index) and leaves the same fractional part, and
//! NaN maps to index 0 both ways — but the cast needs no libm call, which
//! `floor`/`round` are on a baseline (SSE2) x86-64 build. Every helper is
//! exact for lengths up to `2^24 + 1`, where `n − 1` is an exact `f32`.

use crate::dims::Dims3;
use crate::volume::ScalarVolume;

/// Trilinear cell along an axis of `n` voxels: the lower voxel `i0` of the
/// clamped coordinate, its upper neighbour `i1` (equal to `i0` on the last
/// voxel), and the fraction between them.
#[inline]
pub fn axis_cell(x: f32, n: usize) -> (usize, usize, f32) {
    let c = x.clamp(0.0, (n - 1) as f32);
    let i0 = c as usize;
    (i0, (i0 + 1).min(n - 1), c - i0 as f32)
}

/// [`axis_cell`] in `f64`, for particle advection.
#[inline]
pub fn axis_cell_f64(x: f64, n: usize) -> (usize, usize, f64) {
    let c = x.clamp(0.0, (n - 1) as f64);
    let i0 = c as usize;
    (i0, (i0 + 1).min(n - 1), c - i0 as f64)
}

/// Bin of a unit-range position `t` in a table of `bins` entries:
/// `floor(t · bins)` clamped to `[0, bins − 1]`, NaN to bin 0.
#[inline]
pub fn bin_index(t: f32, bins: usize) -> usize {
    (t * bins as f32).clamp(0.0, (bins - 1) as f32) as usize
}

/// Nearest voxel to `x` on an axis of `n` voxels: `round(x)` (halves away
/// from zero) clamped to `[0, n − 1]`, NaN to voxel 0.
#[inline]
pub fn nearest_index(x: f32, n: usize) -> usize {
    let c = x.clamp(0.0, (n - 1) as f32);
    let i = c as usize;
    // `c - i` is exact for `c >= 0`, so this is `round` without `c + 0.5`
    // (which rounds up just below one half and at odd integers past 2^23).
    i + usize::from(c - i as f32 >= 0.5)
}

/// A scalar frame resolved once for sampling: its voxel slice and extents,
/// so each sample indexes the slice directly instead of going through
/// [`ScalarVolume::get`]. Take one per frame and reuse it for every sample.
#[derive(Clone, Copy)]
pub struct SampleView<'a> {
    data: &'a [f32],
    dims: Dims3,
}

impl<'a> SampleView<'a> {
    pub fn new(vol: &'a ScalarVolume) -> Self {
        Self {
            data: vol.as_slice(),
            dims: vol.dims(),
        }
    }

    #[inline]
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// Trilinearly interpolate at continuous voxel coordinates `(x, y, z)`.
    ///
    /// Coordinates are in voxel units where integer positions coincide with
    /// voxel centers; out-of-range coordinates are clamped (Neumann
    /// boundary).
    #[inline]
    pub fn trilinear(&self, x: f32, y: f32, z: f32) -> f32 {
        let Dims3 { nx, ny, nz } = self.dims;
        let (x0, x1, fx) = axis_cell(x, nx);
        let (y0, y1, fy) = axis_cell(y, ny);
        let (z0, z1, fz) = axis_cell(z, nz);
        let row = |y: usize, z: usize| nx * (y + ny * z);
        let (r00, r10, r01, r11) = (row(y0, z0), row(y1, z0), row(y0, z1), row(y1, z1));
        let d = self.data;

        let v000 = d[r00 + x0];
        let v100 = d[r00 + x1];
        let v010 = d[r10 + x0];
        let v110 = d[r10 + x1];
        let v001 = d[r01 + x0];
        let v101 = d[r01 + x1];
        let v011 = d[r11 + x0];
        let v111 = d[r11 + x1];

        let c00 = v000 + (v100 - v000) * fx;
        let c10 = v010 + (v110 - v010) * fx;
        let c01 = v001 + (v101 - v001) * fx;
        let c11 = v011 + (v111 - v011) * fx;

        let c0 = c00 + (c10 - c00) * fy;
        let c1 = c01 + (c11 - c01) * fy;

        c0 + (c1 - c0) * fz
    }

    /// Central-difference gradient at continuous coordinates, built from
    /// trilinear samples half a voxel apart.
    #[inline]
    pub fn gradient(&self, x: f32, y: f32, z: f32) -> [f32; 3] {
        let h = 0.5;
        [
            (self.trilinear(x + h, y, z) - self.trilinear(x - h, y, z)) / (2.0 * h),
            (self.trilinear(x, y + h, z) - self.trilinear(x, y - h, z)) / (2.0 * h),
            (self.trilinear(x, y, z + h) - self.trilinear(x, y, z - h)) / (2.0 * h),
        ]
    }
}

/// Trilinearly interpolate `vol` at continuous voxel coordinates `(x, y, z)`
/// (see [`SampleView::trilinear`]; take a view to sample a frame many times).
pub fn trilinear(vol: &ScalarVolume, x: f32, y: f32, z: f32) -> f32 {
    SampleView::new(vol).trilinear(x, y, z)
}

/// Central-difference gradient at an integer voxel (clamped at boundaries).
pub fn gradient_at(vol: &ScalarVolume, x: usize, y: usize, z: usize) -> [f32; 3] {
    let (xi, yi, zi) = (x as i64, y as i64, z as i64);
    let gx = (vol.get_clamped(xi + 1, yi, zi) - vol.get_clamped(xi - 1, yi, zi)) * 0.5;
    let gy = (vol.get_clamped(xi, yi + 1, zi) - vol.get_clamped(xi, yi - 1, zi)) * 0.5;
    let gz = (vol.get_clamped(xi, yi, zi + 1) - vol.get_clamped(xi, yi, zi - 1)) * 0.5;
    [gx, gy, gz]
}

/// Gradient-magnitude volume: `|∇f|` at every voxel (central differences,
/// clamped boundaries) — the second axis of Kindlmann-style 2D transfer
/// functions.
pub fn gradient_magnitude_volume(vol: &ScalarVolume) -> ScalarVolume {
    ScalarVolume::from_fn(vol.dims(), |x, y, z| norm3(gradient_at(vol, x, y, z)))
}

/// Euclidean norm of a 3-vector.
#[inline]
pub fn norm3(v: [f32; 3]) -> f32 {
    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
}

/// Normalize a 3-vector; returns zero vector for (near-)zero input.
#[inline]
pub fn normalize3(v: [f32; 3]) -> [f32; 3] {
    let n = norm3(v);
    if n < 1e-12 {
        [0.0; 3]
    } else {
        [v[0] / n, v[1] / n, v[2] / n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Dims3;

    fn linear_field() -> ScalarVolume {
        // f(x,y,z) = 2x + 3y - z  (trilinear interpolation is exact on it)
        ScalarVolume::from_fn(Dims3::cube(8), |x, y, z| {
            2.0 * x as f32 + 3.0 * y as f32 - z as f32
        })
    }

    #[test]
    fn trilinear_exact_at_voxel_centers() {
        let v = linear_field();
        assert_eq!(trilinear(&v, 3.0, 4.0, 5.0), *v.get(3, 4, 5));
    }

    #[test]
    fn trilinear_exact_on_linear_fields() {
        let v = linear_field();
        let got = trilinear(&v, 2.25, 3.5, 1.75);
        let want = 2.0 * 2.25 + 3.0 * 3.5 - 1.75;
        assert!((got - want).abs() < 1e-4, "{got} vs {want}");
    }

    #[test]
    fn trilinear_clamps_out_of_range() {
        let v = linear_field();
        assert_eq!(trilinear(&v, -10.0, 0.0, 0.0), *v.get(0, 0, 0));
        assert_eq!(trilinear(&v, 100.0, 7.0, 7.0), *v.get(7, 7, 7));
    }

    #[test]
    fn gradient_of_linear_field() {
        let v = linear_field();
        let g = gradient_at(&v, 4, 4, 4);
        assert!((g[0] - 2.0).abs() < 1e-5);
        assert!((g[1] - 3.0).abs() < 1e-5);
        assert!((g[2] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn gradient_trilinear_matches_integer_gradient_interior() {
        let v = linear_field();
        let gi = gradient_at(&v, 4, 4, 4);
        let gc = SampleView::new(&v).gradient(4.0, 4.0, 4.0);
        for k in 0..3 {
            assert!((gi[k] - gc[k]).abs() < 1e-4);
        }
    }

    #[test]
    fn boundary_gradient_uses_one_sided_clamp() {
        let v = linear_field();
        // At x=0 the clamped central difference halves: (f(1)-f(0))/2.
        let g = gradient_at(&v, 0, 4, 4);
        assert!((g[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gradient_magnitude_volume_matches_pointwise() {
        let v = linear_field();
        let g = gradient_magnitude_volume(&v);
        let expected = (4.0f32 + 9.0 + 1.0).sqrt();
        assert!((g.get(4, 4, 4) - expected).abs() < 1e-4);
        assert_eq!(g.dims(), v.dims());
    }

    #[test]
    fn norm_and_normalize() {
        assert!((norm3([3.0, 4.0, 0.0]) - 5.0).abs() < 1e-6);
        let n = normalize3([0.0, 0.0, 2.0]);
        assert_eq!(n, [0.0, 0.0, 1.0]);
        assert_eq!(normalize3([0.0; 3]), [0.0; 3]);
    }

    // ---- Index helpers against the `floor`/`round` forms they replace ----

    fn old_axis(x: f32, n: usize) -> (usize, usize, f32) {
        let c = x.clamp(0.0, (n - 1) as f32);
        let i0 = c.floor() as usize;
        (i0, (i0 + 1).min(n - 1), c - i0 as f32)
    }

    fn old_axis_f64(x: f64, n: usize) -> (usize, usize, f64) {
        let c = x.clamp(0.0, (n - 1) as f64);
        let i0 = c.floor() as usize;
        (i0, (i0 + 1).min(n - 1), c - i0 as f64)
    }

    /// The histogram form: floor, then a float clamp.
    fn old_bin_float_clamp(t: f32, bins: usize) -> usize {
        (t * bins as f32).floor().clamp(0.0, (bins - 1) as f32) as usize
    }

    /// The transfer-function form: floor, cast, then an integer clamp.
    fn old_bin_int_clamp(t: f32, bins: usize) -> usize {
        ((t * bins as f32).floor() as i64).clamp(0, bins as i64 - 1) as usize
    }

    /// The overlay form: round, cast, then an integer clamp.
    fn old_nearest(x: f32, n: usize) -> usize {
        (x.round() as i64).clamp(0, n as i64 - 1) as usize
    }

    /// Axis lengths and table sizes: 1-voxel axes, small odd sizes, the TF
    /// tables, and the largest lengths the helpers are exact for.
    const LENGTHS: [usize; 9] = [1, 2, 3, 7, 64, 256, 257, 1 << 24, (1 << 24) + 1];

    fn next_up(v: f32) -> f32 {
        match v {
            _ if v.is_nan() || v == f32::INFINITY => v,
            _ if v == 0.0 => f32::from_bits(1),
            _ if v > 0.0 => f32::from_bits(v.to_bits() + 1),
            _ => f32::from_bits(v.to_bits() - 1),
        }
    }

    fn next_down(v: f32) -> f32 {
        -next_up(-v)
    }

    /// NaN, ±0, ±inf, subnormals, and every `k ± 1 ulp` (with both signs)
    /// around 0, 0.5, 1, `n − 1`, `n − 1.5`, 2^23, 2^24 and 1e30.
    fn edge_values(n: usize) -> Vec<f32> {
        let mut out = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
        ];
        let last = (n - 1) as f32;
        let centers = [
            0.0,
            0.5,
            1.0,
            1.5,
            last,
            last - 0.5,
            last + 0.5,
            8_388_608.0,
            8_388_609.0,
            16_777_216.0,
            1e30,
        ];
        for k in centers {
            for v in [next_down(k), k, next_up(k)] {
                out.push(v);
                out.push(-v);
            }
        }
        out
    }

    fn assert_helpers_match(x: f32, n: usize) {
        let (a0, a1, af) = axis_cell(x, n);
        let (b0, b1, bf) = old_axis(x, n);
        assert_eq!(
            (a0, a1, af.to_bits()),
            (b0, b1, bf.to_bits()),
            "axis {x:e} n={n}"
        );
        let (a0, a1, af) = axis_cell_f64(x as f64, n);
        let (b0, b1, bf) = old_axis_f64(x as f64, n);
        assert_eq!(
            (a0, a1, af.to_bits()),
            (b0, b1, bf.to_bits()),
            "axis64 {x:e} n={n}"
        );
        assert_eq!(
            nearest_index(x, n),
            old_nearest(x, n),
            "nearest {x:e} n={n}"
        );
        // `bin_index` scales its unit position; feed it both raw edge values
        // and ones scaled back so the product lands on the edges.
        for t in [x, x / n as f32] {
            let got = bin_index(t, n);
            assert_eq!(got, old_bin_float_clamp(t, n), "bin {t:e} bins={n}");
            assert_eq!(got, old_bin_int_clamp(t, n), "entry {t:e} bins={n}");
        }
    }

    #[test]
    fn index_helpers_match_floor_and_round_on_edges() {
        for n in LENGTHS {
            for x in edge_values(n) {
                assert_helpers_match(x, n);
            }
        }
    }

    fn assert_axis_f64_matches(x: f64, n: usize) {
        let (a0, a1, af) = axis_cell_f64(x, n);
        let (b0, b1, bf) = old_axis_f64(x, n);
        assert_eq!(
            (a0, a1, af.to_bits()),
            (b0, b1, bf.to_bits()),
            "axis64 {x:e} n={n}"
        );
    }

    #[test]
    fn axis_cell_f64_matches_floor_on_f64_edges() {
        for n in LENGTHS {
            let last = (n - 1) as f64;
            for k in [
                0.0,
                0.5,
                last,
                last - 0.5,
                2f64.powi(52),
                2f64.powi(53),
                1e300,
            ] {
                // k and its neighbours one ulp away (k >= 0 here).
                let below = if k == 0.0 {
                    -f64::from_bits(1)
                } else {
                    f64::from_bits(k.to_bits() - 1)
                };
                let above = f64::from_bits(k.to_bits() + 1);
                for v in [below, k, above, f64::NAN, f64::INFINITY] {
                    assert_axis_f64_matches(v, n);
                    assert_axis_f64_matches(-v, n);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1 << 14))]
        #[test]
        fn index_helpers_match_on_random_bit_patterns(bits in proptest::prelude::any::<u32>(),
                                                      wide in proptest::prelude::any::<u64>(),
                                                      which in 0usize..LENGTHS.len()) {
            assert_helpers_match(f32::from_bits(bits), LENGTHS[which]);
            assert_axis_f64_matches(f64::from_bits(wide), LENGTHS[which]);
        }
    }

    // ---- SampleView against the per-voxel `get` samplers it replaces ----

    fn old_trilinear(vol: &ScalarVolume, x: f32, y: f32, z: f32) -> f32 {
        let d = vol.dims();
        let cx = x.clamp(0.0, (d.nx - 1) as f32);
        let cy = y.clamp(0.0, (d.ny - 1) as f32);
        let cz = z.clamp(0.0, (d.nz - 1) as f32);
        let x0 = cx.floor() as usize;
        let y0 = cy.floor() as usize;
        let z0 = cz.floor() as usize;
        let x1 = (x0 + 1).min(d.nx - 1);
        let y1 = (y0 + 1).min(d.ny - 1);
        let z1 = (z0 + 1).min(d.nz - 1);
        let fx = cx - x0 as f32;
        let fy = cy - y0 as f32;
        let fz = cz - z0 as f32;
        let v000 = *vol.get(x0, y0, z0);
        let v100 = *vol.get(x1, y0, z0);
        let v010 = *vol.get(x0, y1, z0);
        let v110 = *vol.get(x1, y1, z0);
        let v001 = *vol.get(x0, y0, z1);
        let v101 = *vol.get(x1, y0, z1);
        let v011 = *vol.get(x0, y1, z1);
        let v111 = *vol.get(x1, y1, z1);
        let c00 = v000 + (v100 - v000) * fx;
        let c10 = v010 + (v110 - v010) * fx;
        let c01 = v001 + (v101 - v001) * fx;
        let c11 = v011 + (v111 - v011) * fx;
        let c0 = c00 + (c10 - c00) * fy;
        let c1 = c01 + (c11 - c01) * fy;
        c0 + (c1 - c0) * fz
    }

    fn old_gradient_trilinear(vol: &ScalarVolume, x: f32, y: f32, z: f32) -> [f32; 3] {
        let h = 0.5;
        [
            (old_trilinear(vol, x + h, y, z) - old_trilinear(vol, x - h, y, z)) / (2.0 * h),
            (old_trilinear(vol, x, y + h, z) - old_trilinear(vol, x, y - h, z)) / (2.0 * h),
            (old_trilinear(vol, x, y, z + h) - old_trilinear(vol, x, y, z - h)) / (2.0 * h),
        ]
    }

    #[test]
    fn sample_view_is_bit_identical_to_per_voxel_sampling() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5a3e);
        let shapes = [
            (1, 1, 1),
            (1, 5, 3),
            (7, 1, 4),
            (5, 6, 1),
            (9, 4, 6),
            (3, 8, 2),
        ];
        for (nx, ny, nz) in shapes {
            let d = Dims3::new(nx, ny, nz);
            let vol = ScalarVolume::from_vec(
                d,
                (0..d.len())
                    .map(|_| rng.gen_range(-50.0f32..50.0))
                    .collect(),
            );
            let view = SampleView::new(&vol);
            // Positions reach two voxels past every face, plus exact voxel
            // centres, half-voxel points and non-finite coordinates.
            let coord = |rng: &mut SmallRng, n: usize| match rng.gen_range(0u32..8) {
                0 => rng.gen_range(0..n) as f32,
                1 => rng.gen_range(0..n) as f32 + 0.5,
                2 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0][rng.gen_range(0..4)],
                _ => rng.gen_range(-2.0f32..n as f32 + 2.0),
            };
            for _ in 0..3000 {
                let (x, y, z) = (
                    coord(&mut rng, nx),
                    coord(&mut rng, ny),
                    coord(&mut rng, nz),
                );
                assert_eq!(
                    view.trilinear(x, y, z).to_bits(),
                    old_trilinear(&vol, x, y, z).to_bits(),
                    "trilinear at ({x}, {y}, {z}) on {d}"
                );
                assert_eq!(
                    view.gradient(x, y, z).map(f32::to_bits),
                    old_gradient_trilinear(&vol, x, y, z).map(f32::to_bits),
                    "gradient at ({x}, {y}, {z}) on {d}"
                );
                assert_eq!(
                    trilinear(&vol, x, y, z).to_bits(),
                    view.trilinear(x, y, z).to_bits()
                );
            }
        }
    }
}
