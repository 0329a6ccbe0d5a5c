//! Closed-form velocity fields used as initial conditions and workloads.

use ifet_volume::{Dims3, VectorVolume};

/// A temporally-evolving plane jet: streamwise (x) velocity with a
/// `sech²` profile across y, centered mid-domain with half-width `delta`
/// (in voxels). The shear layers at the jet edges are where vorticity
/// concentrates — the structure visualized in the paper's DNS combustion
/// case study.
pub fn plane_jet(dims: Dims3, peak_velocity: f32, delta: f32) -> VectorVolume {
    let yc = (dims.ny as f32 - 1.0) / 2.0;
    VectorVolume::from_fn(dims, |_, y, _| {
        let eta = (y as f32 - yc) / delta;
        let sech = 1.0 / eta.cosh();
        [peak_velocity * sech * sech, 0.0, 0.0]
    })
}

/// A solid-body swirl about the z-axis with Gaussian radial falloff
/// (`core_radius` in voxels), the initial condition for the swirling-flow
/// dataset.
pub fn gaussian_swirl(dims: Dims3, strength: f32, core_radius: f32) -> VectorVolume {
    let cx = (dims.nx as f32 - 1.0) / 2.0;
    let cy = (dims.ny as f32 - 1.0) / 2.0;
    VectorVolume::from_fn(dims, |x, y, _| {
        let dx = x as f32 - cx;
        let dy = y as f32 - cy;
        let r2 = dx * dx + dy * dy;
        let envelope = (-r2 / (2.0 * core_radius * core_radius)).exp();
        [-dy * strength * envelope, dx * strength * envelope, 0.0]
    })
}

/// Uniform advection: every voxel carries the same velocity `vel`. The
/// simplest field with a closed-form pathline ([`uniform_pathline`]) — and,
/// being constant, it is represented *exactly* by trilinear interpolation,
/// so any integrator error against it is pure arithmetic noise.
pub fn uniform_flow(dims: Dims3, vel: [f32; 3]) -> VectorVolume {
    VectorVolume::from_fn(dims, |_, _, _| vel)
}

/// Rigid rotation about the z-axis through the domain center with angular
/// velocity `omega` (radians per unit time): `v = ω × (r − c)`. The field is
/// *linear* in position, so trilinear interpolation reproduces it exactly
/// on the grid interior — which makes the closed-form circular pathline
/// ([`rotation_pathline`]) a clean RK4 convergence oracle.
pub fn rigid_rotation(dims: Dims3, omega: f32) -> VectorVolume {
    let [cx, cy, _] = domain_center(dims);
    VectorVolume::from_fn(dims, |x, y, _| {
        let dx = x as f64 - cx;
        let dy = y as f64 - cy;
        [(-omega as f64 * dy) as f32, (omega as f64 * dx) as f32, 0.0]
    })
}

/// Center of the voxel-index domain `[0, n-1]³` (the axis [`rigid_rotation`]
/// spins about).
pub fn domain_center(dims: Dims3) -> [f64; 3] {
    [
        (dims.nx as f64 - 1.0) / 2.0,
        (dims.ny as f64 - 1.0) / 2.0,
        (dims.nz as f64 - 1.0) / 2.0,
    ]
}

/// Closed-form pathline of [`uniform_flow`]: `x(t) = x₀ + v·t`.
pub fn uniform_pathline(p0: [f64; 3], vel: [f32; 3], t: f64) -> [f64; 3] {
    [
        p0[0] + vel[0] as f64 * t,
        p0[1] + vel[1] as f64 * t,
        p0[2] + vel[2] as f64 * t,
    ]
}

/// Closed-form pathline of [`rigid_rotation`]: the seed rotated by `ω·t`
/// about the z-axis through `center`.
pub fn rotation_pathline(p0: [f64; 3], center: [f64; 3], omega: f32, t: f64) -> [f64; 3] {
    let (dx, dy) = (p0[0] - center[0], p0[1] - center[1]);
    let a = omega as f64 * t;
    let (s, c) = a.sin_cos();
    [
        center[0] + dx * c - dy * s,
        center[1] + dx * s + dy * c,
        p0[2],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_jet_peaks_at_centerline() {
        let d = Dims3::new(16, 33, 8);
        let f = plane_jet(d, 2.0, 4.0);
        let center = f.get(8, 16, 4);
        assert!((center[0] - 2.0).abs() < 1e-3);
        assert_eq!(center[1], 0.0);
        // Decays away from centerline.
        assert!(f.get(8, 0, 4)[0] < 0.1);
        assert!(f.get(8, 32, 4)[0] < 0.1);
    }

    #[test]
    fn plane_jet_vorticity_concentrates_in_shear_layers() {
        let d = Dims3::new(16, 33, 16);
        let f = plane_jet(d, 2.0, 4.0);
        let w = f.vorticity_magnitude();
        // Vorticity at the centerline is ~0; at the shear layer (~delta away) it's large.
        assert!(w.get(8, 16, 8) < &0.05);
        assert!(w.get(8, 12, 8) > &0.1);
    }

    #[test]
    fn rigid_rotation_matches_cross_product_and_closed_form() {
        let d = Dims3::cube(17);
        let f = rigid_rotation(d, 0.25);
        let c = domain_center(d);
        // v = ω × (r − c): at (c + (4,0,0)) velocity points in +y with |v| = ω·r.
        let v = f.get(12, 8, 8);
        assert!((v[1] - 1.0).abs() < 1e-6 && v[0].abs() < 1e-6);
        // Quarter turn maps (c+(4,0,0)) onto (c+(0,4,0)).
        let p = rotation_pathline(
            [12.0, 8.0, 8.0],
            c,
            0.25,
            std::f64::consts::FRAC_PI_2 / 0.25,
        );
        assert!((p[0] - 8.0).abs() < 1e-9 && (p[1] - 12.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_pathline_is_a_line() {
        let p = uniform_pathline([1.0, 2.0, 3.0], [0.5, -0.25, 0.0], 4.0);
        assert_eq!(p, [3.0, 1.0, 3.0]);
        let f = uniform_flow(Dims3::cube(8), [0.5, -0.25, 0.0]);
        assert_eq!(f.get(3, 4, 5), [0.5, -0.25, 0.0]);
    }

    #[test]
    fn swirl_rotates_about_center() {
        let d = Dims3::cube(17);
        let f = gaussian_swirl(d, 1.0, 4.0);
        // At (cx + r, cy): velocity should point in +y.
        let v = f.get(12, 8, 8);
        assert!(v[1] > 0.0 && v[0].abs() < 1e-4);
        // Vorticity is maximal at the core.
        let w = f.vorticity_magnitude();
        assert!(w.get(8, 8, 8) > w.get(1, 1, 8));
    }
}
