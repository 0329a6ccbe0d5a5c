//! An orbiting look-at camera with orthographic ray generation.

use ifet_volume::Dims3;

fn cross(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn normalize(v: [f32; 3]) -> [f32; 3] {
    let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    if n < 1e-12 {
        [0.0, 0.0, 1.0]
    } else {
        [v[0] / n, v[1] / n, v[2] / n]
    }
}

/// Camera orbiting the center of a volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Look-at target (volume center).
    pub target: [f32; 3],
    /// Azimuth angle in radians (rotation about +z through the target).
    pub azimuth: f32,
    /// Elevation angle in radians above the xy-plane.
    pub elevation: f32,
    /// Distance from the target.
    pub distance: f32,
    /// Half-height of the orthographic view window in voxels.
    pub half_extent: f32,
}

impl Camera {
    /// A camera framing the whole volume from azimuth/elevation (radians).
    pub fn framing(dims: Dims3, azimuth: f32, elevation: f32) -> Self {
        let target = [
            (dims.nx as f32 - 1.0) / 2.0,
            (dims.ny as f32 - 1.0) / 2.0,
            (dims.nz as f32 - 1.0) / 2.0,
        ];
        let diag = ((dims.nx * dims.nx + dims.ny * dims.ny + dims.nz * dims.nz) as f32).sqrt();
        Self {
            target,
            azimuth,
            elevation,
            distance: diag,
            half_extent: diag * 0.5,
        }
    }

    /// Camera position in voxel space.
    pub fn position(&self) -> [f32; 3] {
        let (ca, sa) = (self.azimuth.cos(), self.azimuth.sin());
        let (ce, se) = (self.elevation.cos(), self.elevation.sin());
        [
            self.target[0] + self.distance * ce * ca,
            self.target[1] + self.distance * ce * sa,
            self.target[2] + self.distance * se,
        ]
    }

    /// Unit view direction (from the camera toward the target).
    pub fn view_dir(&self) -> [f32; 3] {
        let p = self.position();
        normalize([
            self.target[0] - p[0],
            self.target[1] - p[1],
            self.target[2] - p[2],
        ])
    }

    /// Orthonormal (right, up) basis of the view plane.
    pub fn basis(&self) -> ([f32; 3], [f32; 3]) {
        let dir = self.view_dir();
        let world_up = if dir[2].abs() > 0.99 {
            [0.0, 1.0, 0.0]
        } else {
            [0.0, 0.0, 1.0]
        };
        let right = normalize(cross(dir, world_up));
        let up = normalize(cross(right, dir));
        (right, up)
    }

    /// Ray through pixel `(px, py)` of a `w`×`h` framebuffer: returns
    /// `(origin, direction)`. Every ray shares the view direction.
    pub fn ray(&self, px: usize, py: usize, w: usize, h: usize) -> ([f32; 3], [f32; 3]) {
        let dir = self.view_dir();
        let (right, up) = self.basis();
        let aspect = w as f32 / h as f32;
        // NDC in [-1, 1], y flipped so row 0 is the top.
        let nx = 2.0 * (px as f32 + 0.5) / w as f32 - 1.0;
        let ny = 1.0 - 2.0 * (py as f32 + 0.5) / h as f32;
        let pos = self.position();
        let sx = nx * self.half_extent * aspect;
        let sy = ny * self.half_extent;
        let origin = [
            pos[0] + right[0] * sx + up[0] * sy,
            pos[1] + right[1] * sx + up[1] * sy,
            pos[2] + right[2] * sx + up[2] * sy,
        ];
        (origin, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn len3(v: [f32; 3]) -> f32 {
        (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
    }

    fn dot(a: [f32; 3], b: [f32; 3]) -> f32 {
        a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    }

    #[test]
    fn position_at_distance() {
        let c = Camera::framing(Dims3::cube(32), 0.3, 0.5);
        let p = c.position();
        let d = [p[0] - c.target[0], p[1] - c.target[1], p[2] - c.target[2]];
        assert!((len3(d) - c.distance).abs() < 1e-3);
    }

    #[test]
    fn view_dir_is_unit_toward_target() {
        let c = Camera::framing(Dims3::cube(32), 1.0, 0.2);
        let dir = c.view_dir();
        assert!((len3(dir) - 1.0).abs() < 1e-5);
        // Walking from the camera along dir by distance lands at the target.
        let p = c.position();
        for k in 0..3 {
            assert!((p[k] + dir[k] * c.distance - c.target[k]).abs() < 1e-2);
        }
    }

    #[test]
    fn basis_is_orthonormal() {
        let c = Camera::framing(Dims3::new(24, 32, 16), 0.7, -0.4);
        let dir = c.view_dir();
        let (right, up) = c.basis();
        assert!((len3(right) - 1.0).abs() < 1e-5);
        assert!((len3(up) - 1.0).abs() < 1e-5);
        assert!(dot(right, up).abs() < 1e-5);
        assert!(dot(right, dir).abs() < 1e-5);
        assert!(dot(up, dir).abs() < 1e-5);
    }

    #[test]
    fn center_ray_hits_target() {
        let c = Camera::framing(Dims3::cube(32), 0.9, 0.3);
        let (origin, dir) = c.ray(32, 32, 64, 64);
        // The center ray passes within half a pixel of the target.
        let to_target = [
            c.target[0] - origin[0],
            c.target[1] - origin[1],
            c.target[2] - origin[2],
        ];
        let t = dot(to_target, dir);
        let closest = [
            origin[0] + dir[0] * t - c.target[0],
            origin[1] + dir[1] * t - c.target[1],
            origin[2] + dir[2] * t - c.target[2],
        ];
        assert!(len3(closest) < c.half_extent * 2.0 / 64.0 + 1e-3);
    }

    #[test]
    fn rays_are_parallel_orthographic() {
        let c = Camera::framing(Dims3::cube(32), 0.2, 0.1);
        let (_, d1) = c.ray(0, 0, 16, 16);
        let (_, d2) = c.ray(15, 15, 16, 16);
        assert_eq!(d1, d2);
    }

    #[test]
    fn straight_down_view_has_valid_basis() {
        let mut c = Camera::framing(Dims3::cube(16), 0.0, 0.0);
        c.elevation = std::f32::consts::FRAC_PI_2; // looking along -z
        let (right, up) = c.basis();
        assert!(len3(right) > 0.99 && len3(up) > 0.99);
    }
}
