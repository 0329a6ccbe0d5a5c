//! Lagrangian particle tracing over the 4D series: the flow-visualization
//! companion workload to the paper's Eulerian feature tracking.
//!
//! Three layers:
//! - [`advect`](mod@advect) (module) — RK4 pathline advection of particle ensembles,
//!   streamed through `FrameSource` velocity components so it runs
//!   out-of-core under the existing frame/byte budgets and prefetch;
//! - [`surrogate`] — the `ifet-nn` MLP trained as a *flow map*
//!   `(seed, t₀, Δt) → end position` on integrated pathlines, with
//!   held-out-seed endpoint error measurement (the Han et al. particle
//!   papers' workload shape);
//! - [`artifact`] — a versioned, CRC'd binary pathline format with a JSON
//!   sidecar, corruption-typed like `.rawz` frames and `.ifet` sessions.
//!
//! Everything is deterministic: pathline bytes, surrogate weights, and
//! stable obs traces are identical across thread counts, cache budgets, and
//! storage flavors.

#![forbid(unsafe_code)]

pub mod advect;
pub mod artifact;
pub mod surrogate;

pub use advect::{advect, seed_grid, ParticleEnding, Pathline, PathlineSet, TraceParams};
pub use artifact::{load_pathlines, pathlines_to_bytes, save_pathlines, PathlineIoError};
pub use surrogate::{train_flow_map, FlowMapSurrogate, SurrogateParams, SurrogateReport};

use ifet_volume::SeriesError;

/// Why a trace request was refused. Every variant is a caller or
/// environment condition a CLI can hit, so they are reported, not panicked.
#[derive(Debug)]
pub enum TraceError {
    /// A seed position outside the voxel-index domain (or non-finite).
    SeedOutOfDomain { index: usize, seed: [f64; 3] },
    /// `rk4_dt` must be a positive finite number.
    InvalidDt { dt: f64 },
    /// An advection run needs at least one seed.
    NoSeeds,
    /// Too few recorded pathline points to train a flow-map surrogate.
    NotEnoughTrainingData { usable_particles: usize },
    /// Paging a velocity frame failed (I/O, corruption, or shape mismatch).
    Source(SeriesError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::SeedOutOfDomain { index, seed } => write!(
                f,
                "seed {index} at ({}, {}, {}) is outside the voxel domain",
                seed[0], seed[1], seed[2]
            ),
            TraceError::InvalidDt { dt } => {
                write!(f, "rk4 step must be a positive finite number, got {dt}")
            }
            TraceError::NoSeeds => write!(f, "an advection run needs at least one seed"),
            TraceError::NotEnoughTrainingData { usable_particles } => write!(
                f,
                "flow-map surrogate needs pathlines with at least two points; \
                 only {usable_particles} usable particles"
            ),
            TraceError::Source(e) => write!(f, "velocity series failed: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Source(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SeriesError> for TraceError {
    fn from(e: SeriesError) -> Self {
        TraceError::Source(e)
    }
}
