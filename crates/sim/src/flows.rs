//! Time-varying velocity datasets for the Lagrangian particle workload.
//!
//! A velocity series is stored as **three scalar component series** (u, v, w)
//! over one shared grid and step schedule — the same frame files the rest of
//! the pipeline streams, so particle tracing inherits every `FrameSource`
//! flavor (in-core, paged raw or compressed) without a new storage layer.
//!
//! Three kinds are provided:
//! - [`FlowKind::Uniform`] — constant velocity everywhere; closed-form
//!   pathlines ([`analytic::uniform_pathline`]) and exact under trilinear
//!   interpolation,
//! - [`FlowKind::Rotation`] — steady rigid rotation about the z-axis;
//!   closed-form circular pathlines ([`analytic::rotation_pathline`]), linear
//!   in space so trilinear interpolation is exact — the RK4 convergence
//!   oracle,
//! - [`FlowKind::Swirl`] — a Gaussian-core swirl whose strength *decays over
//!   time*, so temporal interpolation between frames actually matters; the
//!   workload fixture for benchmarks and the surrogate error table.

use crate::analytic;
use ifet_volume::{Dims3, TimeSeries, VectorVolume};

/// Which analytic velocity field a [`flow_series`] call bakes into frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowKind {
    /// Constant velocity `vel` everywhere, at every time step.
    Uniform { vel: [f32; 3] },
    /// Rigid rotation about the z-axis through the domain center,
    /// `omega` radians per unit time (step labels are the time axis).
    Rotation { omega: f32 },
    /// Gaussian-core swirl (strength `strength`, core `core_radius` voxels)
    /// decaying as `exp(-decay · t_norm)` across the series.
    Swirl {
        strength: f32,
        core_radius: f32,
        decay: f32,
    },
}

impl FlowKind {
    /// Parse a CLI flow name: `uniform`, `rotation`, or `swirl` (with
    /// field-appropriate default parameters).
    pub fn parse(name: &str) -> Option<FlowKind> {
        match name {
            "uniform" => Some(FlowKind::Uniform {
                vel: [0.35, 0.2, -0.1],
            }),
            "rotation" => Some(FlowKind::Rotation { omega: 0.04 }),
            "swirl" => Some(FlowKind::Swirl {
                strength: 0.06,
                core_radius: 6.0,
                decay: 1.2,
            }),
            _ => None,
        }
    }

    /// The velocity field at normalized time `t_norm ∈ [0, 1]`.
    pub fn field(&self, dims: Dims3, t_norm: f32) -> VectorVolume {
        match *self {
            FlowKind::Uniform { vel } => analytic::uniform_flow(dims, vel),
            FlowKind::Rotation { omega } => analytic::rigid_rotation(dims, omega),
            FlowKind::Swirl {
                strength,
                core_radius,
                decay,
            } => analytic::gaussian_swirl(dims, strength * (-decay * t_norm).exp(), core_radius),
        }
    }
}

/// A velocity series split into its three scalar component series. All
/// three share the same dims and step labels by construction.
#[derive(Debug, Clone)]
pub struct FlowSeries {
    pub u: TimeSeries,
    pub v: TimeSeries,
    pub w: TimeSeries,
}

impl FlowSeries {
    /// The component series in axis order, for uniform handling.
    pub fn components(&self) -> [&TimeSeries; 3] {
        [&self.u, &self.v, &self.w]
    }
}

/// Bake `kind` into `frames` frames with step labels `0, stride, 2·stride…`.
/// Steady kinds repeat the same field per frame; `Swirl` decays with
/// normalized time.
pub fn flow_series(kind: FlowKind, dims: Dims3, frames: usize, stride: u32) -> FlowSeries {
    assert!(frames >= 2, "a flow series needs at least two frames");
    let mut comps: [Vec<(u32, ifet_volume::ScalarVolume)>; 3] =
        [Vec::new(), Vec::new(), Vec::new()];
    for k in 0..frames {
        let t_norm = k as f32 / (frames - 1) as f32;
        let field = kind.field(dims, t_norm);
        let step = k as u32 * stride;
        for (axis, out) in comps.iter_mut().enumerate() {
            out.push((step, field.component(axis)));
        }
    }
    let [u, v, w] = comps;
    FlowSeries {
        u: TimeSeries::from_frames(u),
        v: TimeSeries::from_frames(v),
        w: TimeSeries::from_frames(w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_share_dims_and_steps() {
        let f = flow_series(FlowKind::parse("swirl").unwrap(), Dims3::cube(8), 4, 5);
        for c in f.components() {
            assert_eq!(c.dims(), Dims3::cube(8));
            assert_eq!(c.steps(), &[0, 5, 10, 15]);
        }
    }

    #[test]
    fn swirl_decays_over_time() {
        let f = flow_series(
            FlowKind::Swirl {
                strength: 0.1,
                core_radius: 4.0,
                decay: 2.0,
            },
            Dims3::cube(9),
            3,
            1,
        );
        // v-component just right of center: positive, and weaker at the end.
        let early = *f.v.frame(0).get(6, 4, 4);
        let late = *f.v.frame(2).get(6, 4, 4);
        assert!(early > 0.0 && late > 0.0 && late < early * 0.5);
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(FlowKind::parse("vortex-street").is_none());
        assert!(FlowKind::parse("uniform").is_some());
    }
}
