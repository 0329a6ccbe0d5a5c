//! Grid dimensions and index arithmetic for dense 3D volumes.

use serde::{Deserialize, Serialize};

/// A 3D voxel coordinate `(x, y, z)`.
pub type Ix3 = (usize, usize, usize);

/// Dimensions of a dense 3D grid, laid out x-fastest:
/// `linear = x + nx * (y + ny * z)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dims3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl Dims3 {
    /// Create dimensions. All axes must be non-zero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "Dims3 axes must be non-zero");
        Self { nx, ny, nz }
    }

    /// A cube `n`×`n`×`n`.
    pub fn cube(n: usize) -> Self {
        Self::new(n, n, n)
    }

    /// Total number of voxels.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True when the grid has zero voxels (cannot happen via `new`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of `(x, y, z)`. Debug-asserts bounds.
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(self.contains(x, y, z), "({x},{y},{z}) out of {self:?}");
        x + self.nx * (y + self.ny * z)
    }

    /// Inverse of [`Dims3::index`].
    #[inline]
    pub fn coords(&self, idx: usize) -> Ix3 {
        debug_assert!(idx < self.len());
        let x = idx % self.nx;
        let y = (idx / self.nx) % self.ny;
        let z = idx / (self.nx * self.ny);
        (x, y, z)
    }

    /// True when `(x, y, z)` lies inside the grid.
    #[inline]
    pub fn contains(&self, x: usize, y: usize, z: usize) -> bool {
        x < self.nx && y < self.ny && z < self.nz
    }

    /// True when the signed coordinate lies inside the grid.
    #[inline]
    pub fn contains_i(&self, x: i64, y: i64, z: i64) -> bool {
        x >= 0
            && y >= 0
            && z >= 0
            && (x as usize) < self.nx
            && (y as usize) < self.ny
            && (z as usize) < self.nz
    }

    /// Clamp a signed coordinate onto the grid.
    #[inline]
    pub fn clamp_i(&self, x: i64, y: i64, z: i64) -> Ix3 {
        (
            x.clamp(0, self.nx as i64 - 1) as usize,
            y.clamp(0, self.ny as i64 - 1) as usize,
            z.clamp(0, self.nz as i64 - 1) as usize,
        )
    }

    /// Iterate all voxel coordinates in linear (x-fastest) order.
    pub fn iter(&self) -> impl Iterator<Item = Ix3> + '_ {
        let d = *self;
        (0..d.len()).map(move |i| d.coords(i))
    }

    /// The 6 face-adjacent neighbours of `(x, y, z)` that are in bounds.
    pub fn neighbors6(&self, x: usize, y: usize, z: usize) -> impl Iterator<Item = Ix3> + '_ {
        const OFFS: [(i64, i64, i64); 6] = [
            (-1, 0, 0),
            (1, 0, 0),
            (0, -1, 0),
            (0, 1, 0),
            (0, 0, -1),
            (0, 0, 1),
        ];
        let d = *self;
        OFFS.iter().filter_map(move |&(dx, dy, dz)| {
            let (nx, ny, nz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
            d.contains_i(nx, ny, nz)
                .then_some((nx as usize, ny as usize, nz as usize))
        })
    }
}

impl std::fmt::Display for Dims3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.nx, self.ny, self.nz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let d = Dims3::new(4, 5, 6);
        for idx in 0..d.len() {
            let (x, y, z) = d.coords(idx);
            assert_eq!(d.index(x, y, z), idx);
        }
    }

    #[test]
    fn len_matches_product() {
        let d = Dims3::new(3, 7, 11);
        assert_eq!(d.len(), 3 * 7 * 11);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_axis_panics() {
        let _ = Dims3::new(0, 1, 1);
    }

    #[test]
    fn contains_bounds() {
        let d = Dims3::cube(4);
        assert!(d.contains(0, 0, 0));
        assert!(d.contains(3, 3, 3));
        assert!(!d.contains(4, 0, 0));
        assert!(d.contains_i(3, 3, 3));
        assert!(!d.contains_i(-1, 0, 0));
    }

    #[test]
    fn clamp_clamps() {
        let d = Dims3::cube(4);
        assert_eq!(d.clamp_i(-5, 2, 9), (0, 2, 3));
    }

    #[test]
    fn neighbors6_interior_and_corner() {
        let d = Dims3::cube(3);
        assert_eq!(d.neighbors6(1, 1, 1).count(), 6);
        assert_eq!(d.neighbors6(0, 0, 0).count(), 3);
    }

    #[test]
    fn iter_visits_all_in_linear_order() {
        let d = Dims3::new(2, 3, 2);
        let coords: Vec<_> = d.iter().collect();
        assert_eq!(coords.len(), d.len());
        assert_eq!(coords[0], (0, 0, 0));
        assert_eq!(coords[1], (1, 0, 0));
        assert_eq!(coords[2], (0, 1, 0));
        assert_eq!(*coords.last().unwrap(), (1, 2, 1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dims3::new(1, 2, 3).to_string(), "1x2x3");
    }
}
