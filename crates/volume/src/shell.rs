//! Spherical-shell neighborhood sampling.
//!
//! The paper's data-space feature extraction (Section 4.3) does not feed the
//! full volumetric neighborhood of a voxel to the network: "we use a shell
//! rather than the whole volumetric neighborhood of the feature to cut down
//! the cost. ... only those voxels a fixed distance away from the feature of
//! interest are used, and this distance is data dependent and derived
//! according to the characteristics of the selected features."
//!
//! [`ShellOffsets`] precomputes integer offsets at a given radius; sampling a
//! voxel's shell yields a fixed-length descriptor independent of position.

use crate::volume::ScalarVolume;
use serde::{Deserialize, Serialize};

/// Precomputed integer offsets approximating a sphere shell of radius `r`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShellOffsets {
    radius: f32,
    offsets: Vec<(i64, i64, i64)>,
}

impl ShellOffsets {
    /// All integer offsets whose distance from the origin lies in
    /// `[radius - 0.5, radius + 0.5]`, i.e. a one-voxel-thick shell.
    pub fn full(radius: f32) -> Self {
        assert!(radius >= 1.0, "shell radius must be >= 1");
        let r = radius.ceil() as i64 + 1;
        let mut offsets = Vec::new();
        for dz in -r..=r {
            for dy in -r..=r {
                for dx in -r..=r {
                    let dist = ((dx * dx + dy * dy + dz * dz) as f32).sqrt();
                    if (dist - radius).abs() <= 0.5 {
                        offsets.push((dx, dy, dz));
                    }
                }
            }
        }
        Self { radius, offsets }
    }

    /// A sparse shell of exactly `count` quasi-uniform directions at `radius`,
    /// built with a Fibonacci sphere. This caps the descriptor length (and
    /// thus the network input size) regardless of radius.
    pub fn fibonacci(radius: f32, count: usize) -> Self {
        assert!(radius >= 1.0, "shell radius must be >= 1");
        assert!(count > 0);
        let golden = std::f64::consts::PI * (3.0 - 5.0f64.sqrt());
        let mut offsets = Vec::with_capacity(count);
        for i in 0..count {
            let y = 1.0 - 2.0 * (i as f64 + 0.5) / count as f64;
            let r_xy = (1.0 - y * y).sqrt();
            let theta = golden * i as f64;
            let dir = [theta.cos() * r_xy, y, theta.sin() * r_xy];
            offsets.push((
                (dir[0] * radius as f64).round() as i64,
                (dir[1] * radius as f64).round() as i64,
                (dir[2] * radius as f64).round() as i64,
            ));
        }
        offsets.dedup();
        Self { radius, offsets }
    }

    #[inline]
    pub fn radius(&self) -> f32 {
        self.radius
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    #[inline]
    pub fn offsets(&self) -> &[(i64, i64, i64)] {
        &self.offsets
    }

    /// Sample the shell around `(x, y, z)` with clamped boundary handling,
    /// appending values to `out` (cleared first is the caller's choice).
    pub fn sample_into(
        &self,
        vol: &ScalarVolume,
        x: usize,
        y: usize,
        z: usize,
        out: &mut Vec<f32>,
    ) {
        let (xi, yi, zi) = (x as i64, y as i64, z as i64);
        out.reserve(self.offsets.len());
        for &(dx, dy, dz) in &self.offsets {
            out.push(*vol.get_clamped(xi + dx, yi + dy, zi + dz));
        }
    }

    /// Sample the shell and return summary statistics
    /// `(mean, min, max, stddev)` — a compact alternative descriptor.
    /// A one-voxel call of [`Self::sample_stats_run`]'s kernel, so the two
    /// agree bit for bit.
    pub fn sample_stats(&self, vol: &ScalarVolume, x: usize, y: usize, z: usize) -> [f32; 4] {
        let mut out = [[0.0; 4]];
        self.stats_block::<1>(vol, x, 1, y, z, &mut out);
        out[0]
    }

    /// Shell statistics `(mean, min, max, stddev)` for the run of
    /// `out.len()` x-adjacent voxels starting at `(x0, y, z)`.
    ///
    /// Voxels are processed in blocks of `STATS_LANES` (8) lanes. Each lane
    /// runs the same per-voxel sequence — for every offset in order,
    /// `delta = v - mean; mean += delta / n; m2 += delta * (v - mean)`
    /// in f64, then `min`/`max` in f32 — so on finite data every lane is
    /// bit-identical to a one-voxel [`Self::sample_stats`]. The lanes only
    /// make the eight independent division chains overlap. Per offset and
    /// block, the clamped `y`/`z` pick one row, and a block whose shifted
    /// x-window lies inside the row copies it contiguously; partial blocks
    /// and windows that cross an x face take the clamped per-lane gather.
    ///
    /// Non-finite policy: a NaN voxel poisons `mean` and `stddev` and is
    /// skipped by `min`/`max` (IEEE `minNum`/`maxNum`); ±inf propagates as
    /// IEEE arithmetic does. Any NaN output is written as the canonical
    /// `f32::NAN`, so the NaN sign and payload never depend on how the
    /// compiler lowered the lane loop.
    pub fn sample_stats_run(
        &self,
        vol: &ScalarVolume,
        x0: usize,
        y: usize,
        z: usize,
        out: &mut [[f32; 4]],
    ) {
        let mut xb = x0;
        for block in out.chunks_mut(STATS_LANES) {
            let lanes = block.len();
            if lanes == 1 {
                self.stats_block::<1>(vol, xb, 1, y, z, block);
            } else {
                self.stats_block::<STATS_LANES>(vol, xb, lanes, y, z, block);
            }
            xb += lanes;
        }
    }

    /// The shell-statistics kernel: `L` lanes of the per-voxel Welford
    /// sequence for voxels `xb..xb + lanes` (`lanes <= L`; lanes past
    /// `lanes` repeat the last voxel and are not written).
    #[inline(always)]
    fn stats_block<const L: usize>(
        &self,
        vol: &ScalarVolume,
        xb: usize,
        lanes: usize,
        y: usize,
        z: usize,
        out: &mut [[f32; 4]],
    ) {
        debug_assert!(lanes >= 1 && lanes <= L && out.len() == lanes);
        let d = vol.dims();
        let data = vol.as_slice();
        let (nx, ny, nz) = (d.nx as i64, d.ny as i64, d.nz as i64);
        let mut n = 0u32;
        let mut mean = [0.0f64; L];
        let mut m2 = [0.0f64; L];
        let mut lo = [f32::INFINITY; L];
        let mut hi = [f32::NEG_INFINITY; L];
        let mut v = [0.0f32; L];
        for &(dx, dy, dz) in &self.offsets {
            let cy = (y as i64 + dy).clamp(0, ny - 1);
            let cz = (z as i64 + dz).clamp(0, nz - 1);
            let base = (nx * (cy + ny * cz)) as usize;
            let row = &data[base..base + d.nx];
            let xs = xb as i64 + dx;
            if lanes == L && xs >= 0 && xs + L as i64 <= nx {
                v.copy_from_slice(&row[xs as usize..xs as usize + L]);
            } else {
                for (l, vl) in v.iter_mut().enumerate() {
                    let x = xb as i64 + l.min(lanes - 1) as i64 + dx;
                    *vl = row[x.clamp(0, nx - 1) as usize];
                }
            }
            n += 1;
            let nf = n as f64;
            for l in 0..L {
                let vl = v[l] as f64;
                let delta = vl - mean[l];
                mean[l] += delta / nf;
                m2[l] += delta * (vl - mean[l]);
                lo[l] = lo[l].min(v[l]);
                hi[l] = hi[l].max(v[l]);
            }
        }
        for (l, o) in out.iter_mut().enumerate() {
            *o = if n == 0 {
                [0.0; 4]
            } else {
                let var = if n > 1 { m2[l] / (n - 1) as f64 } else { 0.0 };
                [mean[l] as f32, lo[l], hi[l], var.sqrt() as f32].map(canonical_nan)
            };
        }
    }
}

/// Lanes per block of [`ShellOffsets::sample_stats_run`]. On the
/// `shell_sampling/stats_run_64` bench (x86-64, SSE2 baseline) four lanes
/// were about 20 % slower than eight and sixteen were no faster.
const STATS_LANES: usize = 8;

#[inline]
fn canonical_nan(v: f32) -> f32 {
    if v.is_nan() {
        f32::NAN
    } else {
        v
    }
}

/// Derive a data-dependent shell radius from selected feature voxels, per the
/// paper: the distance is "derived according to the characteristics of the
/// selected features so far". We use half the mean pairwise bounding-box
/// extent of the selection, clamped to `[1, max_radius]`.
pub fn derive_radius(selected: &[(usize, usize, usize)], max_radius: f32) -> f32 {
    if selected.is_empty() {
        return 1.0;
    }
    let mut lo = [usize::MAX; 3];
    let mut hi = [0usize; 3];
    for &(x, y, z) in selected {
        let c = [x, y, z];
        for k in 0..3 {
            lo[k] = lo[k].min(c[k]);
            hi[k] = hi[k].max(c[k]);
        }
    }
    let mean_extent = ((hi[0] - lo[0]) + (hi[1] - lo[1]) + (hi[2] - lo[2])) as f32 / 3.0;
    (mean_extent * 0.5).clamp(1.0, max_radius.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Dims3;

    #[test]
    fn full_shell_distances_in_band() {
        let s = ShellOffsets::full(3.0);
        assert!(!s.is_empty());
        for &(dx, dy, dz) in s.offsets() {
            let d = ((dx * dx + dy * dy + dz * dz) as f32).sqrt();
            assert!((d - 3.0).abs() <= 0.5 + 1e-6, "offset distance {d}");
        }
    }

    #[test]
    fn full_shell_excludes_origin() {
        let s = ShellOffsets::full(2.0);
        assert!(!s.offsets().contains(&(0, 0, 0)));
    }

    #[test]
    fn fibonacci_has_bounded_count() {
        let s = ShellOffsets::fibonacci(4.0, 26);
        assert!(s.len() <= 26 && s.len() >= 13, "len = {}", s.len());
    }

    #[test]
    fn fibonacci_points_near_radius() {
        let s = ShellOffsets::fibonacci(5.0, 32);
        for &(dx, dy, dz) in s.offsets() {
            let d = ((dx * dx + dy * dy + dz * dz) as f32).sqrt();
            assert!((d - 5.0).abs() <= 1.2, "distance {d}");
        }
    }

    #[test]
    fn sample_constant_field() {
        let v = ScalarVolume::filled(Dims3::cube(16), 2.5);
        let s = ShellOffsets::full(2.0);
        let mut buf = Vec::new();
        s.sample_into(&v, 8, 8, 8, &mut buf);
        assert_eq!(buf.len(), s.len());
        assert!(buf.iter().all(|&x| x == 2.5));
        let stats = s.sample_stats(&v, 8, 8, 8);
        assert_eq!(stats, [2.5, 2.5, 2.5, 0.0]);
    }

    #[test]
    fn sample_clamps_at_boundary() {
        let v = ScalarVolume::from_fn(Dims3::cube(4), |x, _, _| x as f32);
        let s = ShellOffsets::full(2.0);
        let mut buf = Vec::new();
        s.sample_into(&v, 0, 0, 0, &mut buf); // must not panic
        assert_eq!(buf.len(), s.len());
    }

    #[test]
    fn stats_detect_contrast() {
        // Voxel inside a bright ball vs far outside: shell stats differ.
        let v = ScalarVolume::from_fn(Dims3::cube(16), |x, y, z| {
            let dx = x as f32 - 8.0;
            let dy = y as f32 - 8.0;
            let dz = z as f32 - 8.0;
            if (dx * dx + dy * dy + dz * dz).sqrt() < 3.0 {
                1.0
            } else {
                0.0
            }
        });
        let s = ShellOffsets::full(4.0);
        let inside = s.sample_stats(&v, 8, 8, 8);
        let outside = s.sample_stats(&v, 1, 1, 1);
        assert!(inside[0] < 0.5); // shell at r=4 around center is outside ball
        assert_eq!(outside[0], 0.0);
    }

    #[test]
    fn derive_radius_scales_with_selection_extent() {
        let small: Vec<_> = (0..3).map(|i| (i, 0usize, 0usize)).collect();
        let large: Vec<_> = (0..20).map(|i| (i, i, i)).collect();
        let rs = derive_radius(&small, 16.0);
        let rl = derive_radius(&large, 16.0);
        assert!(rl > rs);
        assert!(rs >= 1.0);
        assert!(rl <= 16.0);
    }

    #[test]
    fn derive_radius_empty_selection() {
        assert_eq!(derive_radius(&[], 8.0), 1.0);
    }
}
