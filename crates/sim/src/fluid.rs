//! A 3D incompressible flow solver in the stable-fluids style
//! (Stam, SIGGRAPH 1999): semi-Lagrangian advection, implicit viscous
//! diffusion, and pressure projection on a collocated grid.
//!
//! This is the "flow simulation" substrate: the swirling-flow dataset
//! (Figure 10) is produced by actually running this solver so the tracked
//! feature decays for a physical reason (viscous dissipation), not by
//! scripting values.

use ifet_volume::sample::trilinear;
use ifet_volume::{Dims3, ScalarVolume, VectorVolume};

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidParams {
    /// Time step.
    pub dt: f32,
    /// Kinematic viscosity (diffusion rate of momentum).
    pub viscosity: f32,
    /// Gauss–Seidel iterations for the diffusion solve.
    pub diffusion_iters: usize,
    /// Gauss–Seidel iterations for the pressure solve.
    pub projection_iters: usize,
}

impl Default for FluidParams {
    fn default() -> Self {
        Self {
            dt: 0.5,
            viscosity: 0.02,
            diffusion_iters: 12,
            projection_iters: 30,
        }
    }
}

/// Incompressible fluid state and stepper.
#[derive(Debug, Clone)]
pub struct FluidSolver {
    dims: Dims3,
    params: FluidParams,
    u: ScalarVolume,
    v: ScalarVolume,
    w: ScalarVolume,
    step_count: usize,
}

impl FluidSolver {
    /// A quiescent fluid.
    pub fn new(dims: Dims3, params: FluidParams) -> Self {
        Self {
            dims,
            params,
            u: ScalarVolume::zeros(dims),
            v: ScalarVolume::zeros(dims),
            w: ScalarVolume::zeros(dims),
            step_count: 0,
        }
    }

    /// Initialize from a velocity field.
    pub fn with_velocity(field: &VectorVolume, params: FluidParams) -> Self {
        let mut s = Self::new(field.dims(), params);
        s.set_velocity(field);
        s
    }

    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    pub fn params(&self) -> FluidParams {
        self.params
    }

    pub fn step_count(&self) -> usize {
        self.step_count
    }

    /// Overwrite the velocity field.
    pub fn set_velocity(&mut self, field: &VectorVolume) {
        assert_eq!(field.dims(), self.dims);
        self.u = field.component(0);
        self.v = field.component(1);
        self.w = field.component(2);
    }

    /// Current velocity as a vector volume.
    pub fn velocity(&self) -> VectorVolume {
        VectorVolume::from_components(&self.u, &self.v, &self.w)
    }

    /// Advance one time step: diffuse → project → advect → project.
    pub fn step(&mut self) {
        let visc = self.params.viscosity;
        if visc > 0.0 {
            let a = visc * self.params.dt;
            self.u = diffuse(&self.u, a, self.params.diffusion_iters);
            self.v = diffuse(&self.v, a, self.params.diffusion_iters);
            self.w = diffuse(&self.w, a, self.params.diffusion_iters);
        }
        self.project();
        let vel = self.velocity();
        self.u = advect(&self.u, &vel, self.params.dt);
        self.v = advect(&self.v, &vel, self.params.dt);
        self.w = advect(&self.w, &vel, self.params.dt);
        self.project();
        self.enforce_no_slip();
        self.step_count += 1;
    }

    /// Vorticity magnitude of the current velocity — the scalar the
    /// swirling-flow dataset visualizes.
    pub fn vorticity_magnitude(&self) -> ScalarVolume {
        self.velocity().vorticity_magnitude()
    }

    /// Make the velocity field (approximately) divergence-free.
    fn project(&mut self) {
        let d = self.dims;
        let div = VectorVolume::from_components(&self.u, &self.v, &self.w).divergence();
        let mut p = ScalarVolume::zeros(d);
        // Gauss–Seidel on ∇²p = div.
        for _ in 0..self.params.projection_iters {
            for z in 0..d.nz {
                for y in 0..d.ny {
                    for x in 0..d.nx {
                        let (xi, yi, zi) = (x as i64, y as i64, z as i64);
                        let sum = p.get_clamped(xi - 1, yi, zi)
                            + p.get_clamped(xi + 1, yi, zi)
                            + p.get_clamped(xi, yi - 1, zi)
                            + p.get_clamped(xi, yi + 1, zi)
                            + p.get_clamped(xi, yi, zi - 1)
                            + p.get_clamped(xi, yi, zi + 1);
                        p.set(x, y, z, (sum - div.get(x, y, z)) / 6.0);
                    }
                }
            }
        }
        // Subtract the pressure gradient.
        for z in 0..d.nz {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    let (xi, yi, zi) = (x as i64, y as i64, z as i64);
                    let gx = (p.get_clamped(xi + 1, yi, zi) - p.get_clamped(xi - 1, yi, zi)) * 0.5;
                    let gy = (p.get_clamped(xi, yi + 1, zi) - p.get_clamped(xi, yi - 1, zi)) * 0.5;
                    let gz = (p.get_clamped(xi, yi, zi + 1) - p.get_clamped(xi, yi, zi - 1)) * 0.5;
                    *self.u.get_mut(x, y, z) -= gx;
                    *self.v.get_mut(x, y, z) -= gy;
                    *self.w.get_mut(x, y, z) -= gz;
                }
            }
        }
    }

    /// Zero velocity on the domain boundary (no-slip walls).
    fn enforce_no_slip(&mut self) {
        let d = self.dims;
        let zero = |x: usize, y: usize, z: usize, s: &mut Self| {
            s.u.set(x, y, z, 0.0);
            s.v.set(x, y, z, 0.0);
            s.w.set(x, y, z, 0.0);
        };
        for y in 0..d.ny {
            for x in 0..d.nx {
                zero(x, y, 0, self);
                zero(x, y, d.nz - 1, self);
            }
        }
        for z in 0..d.nz {
            for x in 0..d.nx {
                zero(x, 0, z, self);
                zero(x, d.ny - 1, z, self);
            }
        }
        for z in 0..d.nz {
            for y in 0..d.ny {
                zero(0, y, z, self);
                zero(d.nx - 1, y, z, self);
            }
        }
    }

    /// RMS divergence of the current velocity (diagnostic).
    pub fn rms_divergence(&self) -> f32 {
        let div = self.velocity().divergence();
        let n = div.len() as f64;
        let ss: f64 = div
            .as_slice()
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum();
        ((ss / n) as f32).sqrt()
    }

    /// Total kinetic energy (diagnostic; decays under viscosity).
    pub fn kinetic_energy(&self) -> f64 {
        self.u
            .as_slice()
            .iter()
            .zip(self.v.as_slice())
            .zip(self.w.as_slice())
            .map(|((&a, &b), &c)| {
                0.5 * (a as f64 * a as f64 + b as f64 * b as f64 + c as f64 * c as f64)
            })
            .sum()
    }
}

/// Implicit diffusion via Gauss–Seidel: solves `(1 + 6a) x - a Σneighbors = x0`.
fn diffuse(x0: &ScalarVolume, a: f32, iters: usize) -> ScalarVolume {
    let d = x0.dims();
    let mut x = x0.clone();
    let denom = 1.0 + 6.0 * a;
    for _ in 0..iters {
        for z in 0..d.nz {
            for y in 0..d.ny {
                for xk in 0..d.nx {
                    let (xi, yi, zi) = (xk as i64, y as i64, z as i64);
                    let sum = x.get_clamped(xi - 1, yi, zi)
                        + x.get_clamped(xi + 1, yi, zi)
                        + x.get_clamped(xi, yi - 1, zi)
                        + x.get_clamped(xi, yi + 1, zi)
                        + x.get_clamped(xi, yi, zi - 1)
                        + x.get_clamped(xi, yi, zi + 1);
                    x.set(xk, y, z, (x0.get(xk, y, z) + a * sum) / denom);
                }
            }
        }
    }
    x
}

/// Semi-Lagrangian advection: backtrace along the velocity and sample.
fn advect(field: &ScalarVolume, vel: &VectorVolume, dt: f32) -> ScalarVolume {
    let d = field.dims();
    ScalarVolume::from_fn(d, |x, y, z| {
        let v = vel.get(x, y, z);
        let px = x as f32 - dt * v[0];
        let py = y as f32 - dt * v[1];
        let pz = z as f32 - dt * v[2];
        trilinear(field, px, py, pz)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::gaussian_swirl;

    fn small_solver() -> FluidSolver {
        let d = Dims3::cube(20);
        let init = gaussian_swirl(d, 0.8, 4.0);
        FluidSolver::with_velocity(&init, FluidParams::default())
    }

    #[test]
    fn projection_reduces_divergence() {
        let d = Dims3::cube(16);
        // Sinusoidal compressive field: divergence has zero mean, so the
        // Neumann-boundary pressure solve is well-posed.
        let k = 2.0 * std::f32::consts::PI / d.nx as f32;
        let init = VectorVolume::from_fn(d, |x, _, _| [(k * x as f32).sin(), 0.0, 0.0]);
        let mut s = FluidSolver::with_velocity(
            &init,
            FluidParams {
                projection_iters: 80,
                ..Default::default()
            },
        );
        let before = s.rms_divergence();
        s.project();
        let after = s.rms_divergence();
        assert!(
            after < before * 0.5,
            "divergence {before} -> {after} not sufficiently reduced"
        );
    }

    #[test]
    fn quiescent_fluid_stays_quiescent() {
        let mut s = FluidSolver::new(Dims3::cube(8), FluidParams::default());
        s.step();
        s.step();
        assert_eq!(s.kinetic_energy(), 0.0);
    }

    #[test]
    fn viscosity_dissipates_energy() {
        let mut s = small_solver();
        let e0 = s.kinetic_energy();
        for _ in 0..5 {
            s.step();
        }
        let e1 = s.kinetic_energy();
        assert!(e1 < e0, "energy must decay: {e0} -> {e1}");
        assert!(e1 > 0.0, "flow should not die instantly");
    }

    #[test]
    fn vorticity_decays_over_time() {
        let mut s = small_solver();
        let w0 = s.vorticity_magnitude().max_value().unwrap();
        for _ in 0..10 {
            s.step();
        }
        let w1 = s.vorticity_magnitude().max_value().unwrap();
        assert!(w1 < w0 * 0.9, "vorticity {w0} -> {w1} should decay");
    }

    #[test]
    fn step_is_deterministic() {
        let mut a = small_solver();
        let mut b = small_solver();
        for _ in 0..3 {
            a.step();
            b.step();
        }
        assert_eq!(a.velocity(), b.velocity());
    }

    #[test]
    fn advect_scalar_moves_blob_downstream() {
        let d = Dims3::cube(16);
        // Uniform +x wind.
        let wind = VectorVolume::from_fn(d, |_, _, _| [2.0, 0.0, 0.0]);
        let mut blob = ScalarVolume::zeros(d);
        blob.set(5, 8, 8, 1.0);
        let moved = advect(&blob, &wind, 1.0);
        // Backtrace from (7,8,8) lands on (5,8,8).
        assert!(*moved.get(7, 8, 8) > 0.9, "blob should appear at x=7");
        assert!(*moved.get(5, 8, 8) < 0.1, "blob should leave x=5");
    }

    #[test]
    fn diffusion_preserves_constant_field() {
        let v = ScalarVolume::filled(Dims3::cube(8), 2.0);
        let out = diffuse(&v, 0.3, 10);
        for &x in out.as_slice() {
            assert!((x - 2.0).abs() < 1e-4);
        }
    }

    #[test]
    fn diffusion_spreads_impulse() {
        let d = Dims3::cube(9);
        let mut v = ScalarVolume::zeros(d);
        v.set(4, 4, 4, 1.0);
        let out = diffuse(&v, 0.5, 20);
        assert!(*out.get(4, 4, 4) < 1.0);
        assert!(*out.get(5, 4, 4) > 0.0);
    }

    #[test]
    fn no_slip_boundary_after_step() {
        let mut s = small_solver();
        s.step();
        let vel = s.velocity();
        let d = s.dims();
        assert_eq!(vel.get(0, 5, 5), [0.0; 3]);
        assert_eq!(vel.get(d.nx - 1, 5, 5), [0.0; 3]);
        assert_eq!(vel.get(5, 0, 5), [0.0; 3]);
    }
}
