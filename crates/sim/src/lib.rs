//! Flow-simulation substrate and procedural 4D datasets.
//!
//! The paper evaluates on five time-varying simulation datasets (argon
//! bubble, DNS turbulent combustion, cosmological reionization, turbulent
//! vortex, swirling flow) that are not redistributable. This crate builds
//! synthetic stand-ins that *enforce the specific properties each figure
//! depends on* — and, unlike the originals, ship per-time-step ground-truth
//! masks so every visual claim in the paper becomes a measurable score.
//!
//! Substrate:
//! - [`fluid::FluidSolver`] — a 3D incompressible stable-fluids solver
//!   (semi-Lagrangian advection, viscous diffusion, pressure projection),
//! - [`noise::ValueNoise`] — seeded 3D value noise / fBm,
//! - [`analytic`] — closed-form velocity fields (plane jet, Gaussian swirl,
//!   and uniform flow and rigid rotation with closed-form pathlines).
//!
//! Datasets (each returns a [`LabeledSeries`]):
//! - [`shock_bubble`](mod@shock_bubble) — Figures 2–4: drifting-value "smoke ring",
//! - [`combustion_jet`](mod@combustion_jet) — Figure 5: vorticity magnitude with growing range,
//! - [`reionization`](mod@reionization) — Figures 7–8: large structures + small "noise" blobs
//!   with overlapping value ranges,
//! - [`turbulent_vortex`](mod@turbulent_vortex) — Figure 9: a moving, deforming, splitting feature,
//! - [`swirling_flow`](mod@swirling_flow) — Figure 10: solver-generated decaying vortex.

#![forbid(unsafe_code)]

pub mod analytic;
pub mod combustion_jet;
pub mod flows;
pub mod fluid;
pub mod noise;
pub mod qg_turbulence;
pub mod reionization;
pub mod shock_bubble;
pub mod swirling_flow;
pub mod turbulent_vortex;

#[cfg(test)]
pub(crate) mod testutil {
    use ifet_volume::Mask3;

    /// 6-connected component count (test-only helper).
    pub fn count_components(m: &Mask3) -> usize {
        let d = m.dims();
        let mut seen = vec![false; d.len()];
        let mut count = 0;
        for start in 0..d.len() {
            if !m.get_linear(start) || seen[start] {
                continue;
            }
            count += 1;
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(i) = stack.pop() {
                let (x, y, z) = d.coords(i);
                for (nx, ny, nz) in d.neighbors6(x, y, z) {
                    let j = d.index(nx, ny, nz);
                    if m.get_linear(j) && !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
        }
        count
    }
}

use ifet_volume::{Mask3, TimeSeries};

/// A time-varying dataset with per-frame ground-truth feature masks.
#[derive(Debug, Clone)]
pub struct LabeledSeries {
    /// Dataset name (for reports).
    pub name: String,
    /// The scalar field over time.
    pub series: TimeSeries,
    /// Ground-truth mask of the feature of interest, one per frame.
    pub truth: Vec<Mask3>,
}

impl LabeledSeries {
    /// Ground-truth mask for a positional frame index.
    pub fn truth_frame(&self, i: usize) -> &Mask3 {
        &self.truth[i]
    }

    /// Ground-truth mask by time-step label.
    pub fn truth_at_step(&self, t: u32) -> Option<&Mask3> {
        self.series.index_of_step(t).map(|i| &self.truth[i])
    }

    /// Sanity invariant: one truth mask per frame, matching dims.
    pub fn validate(&self) {
        assert_eq!(self.truth.len(), self.series.len());
        for m in &self.truth {
            assert_eq!(m.dims(), self.series.dims());
        }
    }
}

pub use combustion_jet::combustion_jet;
pub use qg_turbulence::qg_turbulence;
pub use reionization::reionization;
pub use shock_bubble::shock_bubble;
pub use swirling_flow::swirling_flow;
pub use turbulent_vortex::turbulent_vortex;
