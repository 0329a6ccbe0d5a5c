//! Dense 3D volumes.

use crate::dims::{Dims3, Ix3};
use serde::{Deserialize, Serialize};

/// A dense 3D grid of values laid out x-fastest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Volume<T> {
    dims: Dims3,
    data: Vec<T>,
}

/// The workhorse scalar field type of the workspace.
pub type ScalarVolume = Volume<f32>;

impl<T: Clone> Volume<T> {
    /// A volume filled with `fill`.
    pub fn filled(dims: Dims3, fill: T) -> Self {
        Self {
            dims,
            data: vec![fill; dims.len()],
        }
    }

    /// Wrap an existing buffer; `data.len()` must equal `dims.len()`.
    pub fn from_vec(dims: Dims3, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            dims.len(),
            "buffer length {} does not match dims {dims}",
            data.len()
        );
        Self { dims, data }
    }

    /// Build a volume by evaluating `f` at every voxel coordinate.
    pub fn from_fn(dims: Dims3, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
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
}

impl<T> Volume<T> {
    #[inline]
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Raw slice in linear order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw slice in linear order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> &T {
        &self.as_slice()[self.dims.index(x, y, z)]
    }

    #[inline]
    pub fn get_mut(&mut self, x: usize, y: usize, z: usize) -> &mut T {
        let i = self.dims.index(x, y, z);
        &mut self.data[i]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.dims.index(x, y, z);
        self.data[i] = v;
    }

    /// Value at a signed coordinate, clamped to the boundary (Neumann).
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64, z: i64) -> &T {
        let (cx, cy, cz) = self.dims.clamp_i(x, y, z);
        self.get(cx, cy, cz)
    }

    /// Iterate `(coords, &value)` in linear order.
    pub fn iter(&self) -> impl Iterator<Item = (Ix3, &T)> {
        let dims = self.dims;
        self.as_slice()
            .iter()
            .enumerate()
            .map(move |(i, v)| (dims.coords(i), v))
    }

    /// Map every voxel through `f` producing a new volume.
    pub fn map<U>(&self, f: impl Fn(&T) -> U) -> Volume<U> {
        Volume {
            dims: self.dims,
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl<T> std::ops::Index<Ix3> for Volume<T> {
    type Output = T;
    #[inline]
    fn index(&self, (x, y, z): Ix3) -> &T {
        self.get(x, y, z)
    }
}

impl<T> std::ops::IndexMut<Ix3> for Volume<T> {
    #[inline]
    fn index_mut(&mut self, (x, y, z): Ix3) -> &mut T {
        self.get_mut(x, y, z)
    }
}

impl ScalarVolume {
    /// All-zero scalar volume.
    pub fn zeros(dims: Dims3) -> Self {
        Self::filled(dims, 0.0)
    }

    /// Minimum finite value (NaNs ignored); `None` for all-NaN data.
    pub fn min_value(&self) -> Option<f32> {
        self.as_slice()
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(None, |m, v| Some(m.map_or(v, |m: f32| m.min(v))))
    }

    /// Maximum finite value (NaNs ignored).
    pub fn max_value(&self) -> Option<f32> {
        self.as_slice()
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(None, |m, v| Some(m.map_or(v, |m: f32| m.max(v))))
    }

    /// `(min, max)` in one pass. Returns `(0, 0)` for pathological all-NaN data.
    pub fn value_range(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in self.as_slice() {
            if v.is_nan() {
                continue;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Mean of all voxels.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        (self.as_slice().iter().map(|&v| v as f64).sum::<f64>() / self.len() as f64) as f32
    }

    /// Rescale values linearly so the occupied range maps onto `[0, 1]`.
    /// A constant volume maps to all-zero.
    pub fn normalized(&self) -> ScalarVolume {
        let (lo, hi) = self.value_range();
        let span = hi - lo;
        if span <= 0.0 {
            return ScalarVolume::zeros(self.dims);
        }
        self.map(|&v| (v - lo) / span)
    }

    /// Extract the 2D axis-aligned slice `z = k` as `(nx, ny, row-major data)`.
    pub fn slice_z(&self, k: usize) -> (usize, usize, Vec<f32>) {
        assert!(k < self.dims.nz);
        let mut out = Vec::with_capacity(self.dims.nx * self.dims.ny);
        for y in 0..self.dims.ny {
            for x in 0..self.dims.nx {
                out.push(*self.get(x, y, k));
            }
        }
        (self.dims.nx, self.dims.ny, out)
    }

    /// Extract the slice `y = k` as `(nx, nz, row-major data)`.
    pub fn slice_y(&self, k: usize) -> (usize, usize, Vec<f32>) {
        assert!(k < self.dims.ny);
        let mut out = Vec::with_capacity(self.dims.nx * self.dims.nz);
        for z in 0..self.dims.nz {
            for x in 0..self.dims.nx {
                out.push(*self.get(x, k, z));
            }
        }
        (self.dims.nx, self.dims.nz, out)
    }

    /// Extract the slice `x = k` as `(ny, nz, row-major data)`.
    pub fn slice_x(&self, k: usize) -> (usize, usize, Vec<f32>) {
        assert!(k < self.dims.nx);
        let mut out = Vec::with_capacity(self.dims.ny * self.dims.nz);
        for z in 0..self.dims.nz {
            for y in 0..self.dims.ny {
                out.push(*self.get(k, y, z));
            }
        }
        (self.dims.ny, self.dims.nz, out)
    }

    /// Sum of all voxel values ("mass").
    pub fn sum(&self) -> f64 {
        self.as_slice().iter().map(|&v| v as f64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> ScalarVolume {
        ScalarVolume::from_fn(Dims3::new(3, 4, 5), |x, y, z| (x + 10 * y + 100 * z) as f32)
    }

    #[test]
    fn from_fn_and_index_agree() {
        let v = ramp();
        assert_eq!(*v.get(2, 3, 4), 432.0);
        assert_eq!(v[(1, 0, 0)], 1.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_length_mismatch_panics() {
        let _ = ScalarVolume::from_vec(Dims3::cube(2), vec![0.0; 7]);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut v = ScalarVolume::zeros(Dims3::cube(3));
        v.set(1, 2, 0, 7.5);
        assert_eq!(*v.get(1, 2, 0), 7.5);
        v[(0, 0, 2)] = -1.0;
        assert_eq!(v[(0, 0, 2)], -1.0);
    }

    #[test]
    fn clamped_access() {
        let v = ramp();
        assert_eq!(*v.get_clamped(-3, 0, 0), 0.0);
        assert_eq!(*v.get_clamped(99, 3, 4), 432.0);
    }

    #[test]
    fn min_max_mean() {
        let v = ramp();
        assert_eq!(v.min_value(), Some(0.0));
        assert_eq!(v.max_value(), Some(432.0));
        let (lo, hi) = v.value_range();
        assert_eq!((lo, hi), (0.0, 432.0));
        assert!(v.mean() > 0.0);
    }

    #[test]
    fn nan_handling_in_range() {
        let mut v = ScalarVolume::zeros(Dims3::cube(2));
        v.set(0, 0, 0, f32::NAN);
        v.set(1, 0, 0, 3.0);
        assert_eq!(v.value_range(), (0.0, 3.0));
    }

    #[test]
    fn normalized_maps_to_unit_interval() {
        let v = ramp().normalized();
        let (lo, hi) = v.value_range();
        assert!((lo - 0.0).abs() < 1e-6 && (hi - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalized_constant_is_zero() {
        let v = ScalarVolume::filled(Dims3::cube(2), 5.0).normalized();
        assert_eq!(v.value_range(), (0.0, 0.0));
    }

    #[test]
    fn slices_have_expected_shapes_and_values() {
        let v = ramp();
        let (w, h, s) = v.slice_z(2);
        assert_eq!((w, h), (3, 4));
        assert_eq!(s[0], 200.0);
        let (w, h, s) = v.slice_y(1);
        assert_eq!((w, h), (3, 5));
        assert_eq!(s[0], 10.0);
        let (w, h, s) = v.slice_x(2);
        assert_eq!((w, h), (4, 5));
        assert_eq!(s[0], 2.0);
    }

    #[test]
    fn map_preserves_dims() {
        let v = ramp().map(|&x| x * 2.0);
        assert_eq!(v.dims(), Dims3::new(3, 4, 5));
        assert_eq!(*v.get(1, 0, 0), 2.0);
    }

    #[test]
    fn iter_matches_get() {
        let v = ramp();
        for ((x, y, z), &val) in v.iter() {
            assert_eq!(val, *v.get(x, y, z));
        }
    }

    #[test]
    fn sum_of_ones_is_len() {
        let v = ScalarVolume::filled(Dims3::cube(4), 1.0);
        assert_eq!(v.sum(), 64.0);
    }
}
