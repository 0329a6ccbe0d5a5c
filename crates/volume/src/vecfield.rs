//! Dense 3D vector fields and differential operators (vorticity, divergence),
//! the raw material of flow-feature extraction.

#![allow(clippy::needless_range_loop)] // indexing fixed-size [f64; 3] axes
use crate::dims::Dims3;
use crate::sample::axis_cell;
use crate::volume::{ScalarVolume, Volume};
use serde::{Deserialize, Serialize};

/// A dense 3D field of 3-vectors (e.g. a velocity field).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorVolume {
    dims: Dims3,
    /// Interleaved `[u, v, w]` per voxel, x-fastest layout.
    data: Vec<[f32; 3]>,
}

impl VectorVolume {
    /// All-zero vector field.
    pub fn zeros(dims: Dims3) -> Self {
        Self {
            dims,
            data: vec![[0.0; 3]; dims.len()],
        }
    }

    /// Build by evaluating `f` at every voxel.
    pub fn from_fn(dims: Dims3, mut f: impl FnMut(usize, usize, usize) -> [f32; 3]) -> Self {
        let mut data = Vec::with_capacity(dims.len());
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    data.push(f(x, y, z));
                }
            }
        }
        Self { dims, data }
    }

    /// Assemble from three scalar components (must share dims).
    pub fn from_components(u: &ScalarVolume, v: &ScalarVolume, w: &ScalarVolume) -> Self {
        assert_eq!(u.dims(), v.dims());
        assert_eq!(u.dims(), w.dims());
        let dims = u.dims();
        let data = u
            .as_slice()
            .iter()
            .zip(v.as_slice())
            .zip(w.as_slice())
            .map(|((&a, &b), &c)| [a, b, c])
            .collect();
        Self { dims, data }
    }

    #[inline]
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> [f32; 3] {
        self.data[self.dims.index(x, y, z)]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: [f32; 3]) {
        let i = self.dims.index(x, y, z);
        self.data[i] = v;
    }

    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64, z: i64) -> [f32; 3] {
        let (cx, cy, cz) = self.dims.clamp_i(x, y, z);
        self.get(cx, cy, cz)
    }

    #[inline]
    pub fn as_slice(&self) -> &[[f32; 3]] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [[f32; 3]] {
        &mut self.data
    }

    /// Extract one component as a scalar volume (`0 = u, 1 = v, 2 = w`).
    pub fn component(&self, k: usize) -> ScalarVolume {
        assert!(k < 3);
        Volume::from_vec(self.dims, self.data.iter().map(|v| v[k]).collect())
    }

    /// Per-voxel Euclidean magnitude.
    pub fn magnitude(&self) -> ScalarVolume {
        Volume::from_vec(
            self.dims,
            self.data
                .iter()
                .map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt())
                .collect(),
        )
    }

    /// Curl (vorticity vector) via central differences, unit grid spacing.
    pub fn curl(&self) -> VectorVolume {
        let d = self.dims;
        VectorVolume::from_fn(d, |x, y, z| {
            let (xi, yi, zi) = (x as i64, y as i64, z as i64);
            let ddx = |f: &dyn Fn([f32; 3]) -> f32| {
                (f(self.get_clamped(xi + 1, yi, zi)) - f(self.get_clamped(xi - 1, yi, zi))) * 0.5
            };
            let ddy = |f: &dyn Fn([f32; 3]) -> f32| {
                (f(self.get_clamped(xi, yi + 1, zi)) - f(self.get_clamped(xi, yi - 1, zi))) * 0.5
            };
            let ddz = |f: &dyn Fn([f32; 3]) -> f32| {
                (f(self.get_clamped(xi, yi, zi + 1)) - f(self.get_clamped(xi, yi, zi - 1))) * 0.5
            };
            let u = |v: [f32; 3]| v[0];
            let vv = |v: [f32; 3]| v[1];
            let w = |v: [f32; 3]| v[2];
            [ddy(&w) - ddz(&vv), ddz(&u) - ddx(&w), ddx(&vv) - ddy(&u)]
        })
    }

    /// Vorticity magnitude `|curl(velocity)|` — the scalar field visualized
    /// in the paper's DNS combustion case study (Figure 5).
    pub fn vorticity_magnitude(&self) -> ScalarVolume {
        self.curl().magnitude()
    }

    /// Divergence via central differences, unit grid spacing.
    pub fn divergence(&self) -> ScalarVolume {
        let d = self.dims;
        ScalarVolume::from_fn(d, |x, y, z| {
            let (xi, yi, zi) = (x as i64, y as i64, z as i64);
            let du =
                (self.get_clamped(xi + 1, yi, zi)[0] - self.get_clamped(xi - 1, yi, zi)[0]) * 0.5;
            let dv =
                (self.get_clamped(xi, yi + 1, zi)[1] - self.get_clamped(xi, yi - 1, zi)[1]) * 0.5;
            let dw =
                (self.get_clamped(xi, yi, zi + 1)[2] - self.get_clamped(xi, yi, zi - 1)[2]) * 0.5;
            du + dv + dw
        })
    }

    /// Trilinear interpolation of the vector field at continuous coordinates.
    pub fn trilinear(&self, x: f32, y: f32, z: f32) -> [f32; 3] {
        let d = self.dims;
        let (x0, x1, fx) = axis_cell(x, d.nx);
        let (y0, y1, fy) = axis_cell(y, d.ny);
        let (z0, z1, fz) = axis_cell(z, d.nz);
        let mut out = [0.0f32; 3];
        for k in 0..3 {
            let v000 = self.get(x0, y0, z0)[k];
            let v100 = self.get(x1, y0, z0)[k];
            let v010 = self.get(x0, y1, z0)[k];
            let v110 = self.get(x1, y1, z0)[k];
            let v001 = self.get(x0, y0, z1)[k];
            let v101 = self.get(x1, y0, z1)[k];
            let v011 = self.get(x0, y1, z1)[k];
            let v111 = self.get(x1, y1, z1)[k];
            let c00 = v000 + (v100 - v000) * fx;
            let c10 = v010 + (v110 - v010) * fx;
            let c01 = v001 + (v101 - v001) * fx;
            let c11 = v011 + (v111 - v011) * fx;
            let c0 = c00 + (c10 - c00) * fy;
            let c1 = c01 + (c11 - c01) * fy;
            out[k] = c0 + (c1 - c0) * fz;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rigid rotation about z: u = -y, v = x, w = 0. curl = (0, 0, 2).
    fn rotation_field(n: usize) -> VectorVolume {
        let c = (n as f32 - 1.0) / 2.0;
        VectorVolume::from_fn(Dims3::cube(n), |x, y, _| {
            [-(y as f32 - c), x as f32 - c, 0.0]
        })
    }

    #[test]
    fn components_roundtrip() {
        let f = rotation_field(6);
        let u = f.component(0);
        let v = f.component(1);
        let w = f.component(2);
        let g = VectorVolume::from_components(&u, &v, &w);
        assert_eq!(f, g);
    }

    #[test]
    fn magnitude_of_unit_field() {
        let f = VectorVolume::from_fn(Dims3::cube(3), |_, _, _| [3.0, 0.0, 4.0]);
        let m = f.magnitude();
        assert!((m.get(1, 1, 1) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn curl_of_rigid_rotation_is_two_z() {
        let f = rotation_field(9);
        let c = f.curl();
        let v = c.get(4, 4, 4);
        assert!(v[0].abs() < 1e-5 && v[1].abs() < 1e-5);
        assert!((v[2] - 2.0).abs() < 1e-5, "curl_z = {}", v[2]);
    }

    #[test]
    fn vorticity_magnitude_of_rotation() {
        let f = rotation_field(9);
        let m = f.vorticity_magnitude();
        assert!((m.get(4, 4, 4) - 2.0).abs() < 1e-5);
    }

    #[test]
    fn divergence_of_rotation_is_zero() {
        let f = rotation_field(9);
        let div = f.divergence();
        assert!(div.get(4, 4, 4).abs() < 1e-5);
    }

    #[test]
    fn divergence_of_radial_expansion() {
        // u = (x - c, y - c, z - c): divergence = 3 everywhere (interior).
        let n = 9;
        let c = (n as f32 - 1.0) / 2.0;
        let f = VectorVolume::from_fn(Dims3::cube(n), |x, y, z| {
            [x as f32 - c, y as f32 - c, z as f32 - c]
        });
        let div = f.divergence();
        assert!((div.get(4, 4, 4) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn trilinear_exact_on_linear_field() {
        let f = VectorVolume::from_fn(Dims3::cube(5), |x, y, z| {
            [x as f32, 2.0 * y as f32, x as f32 + z as f32]
        });
        let got = f.trilinear(1.5, 2.25, 3.0);
        assert!((got[0] - 1.5).abs() < 1e-5);
        assert!((got[1] - 4.5).abs() < 1e-5);
        assert!((got[2] - 4.5).abs() < 1e-5);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut f = VectorVolume::zeros(Dims3::cube(3));
        f.set(2, 1, 0, [1.0, 2.0, 3.0]);
        assert_eq!(f.get(2, 1, 0), [1.0, 2.0, 3.0]);
        assert_eq!(f.get_clamped(5, 1, 0), [1.0, 2.0, 3.0]);
    }
}
