//! Transfer functions and the Intelligent Adaptive Transfer Function (IATF),
//! the paper's Section 4.2 contribution.
//!
//! - [`TransferFunction1D`] — a classic 256-entry opacity (+ color) map over
//!   a value domain, with control-point editing and the linear-interpolation
//!   baseline the paper compares against in Figure 3,
//! - [`colormap`] — value-to-color maps (the paper keeps color tied to the
//!   raw data value and only adapts *opacity*, Section 7),
//! - [`Iatf`] — the adaptive transfer function: a neural network trained on
//!   `<data value, cumulative histogram(value), time>` → opacity from a few
//!   user key-frame TFs, able to emit a concrete 1D TF for *any* time step.

#![forbid(unsafe_code)]

pub mod colormap;
pub mod iatf;
pub mod keyframes;
pub mod tf1d;
pub mod tf2d;

/// Version of this crate's serialized model types (transfer functions,
/// IATFs) inside session artifacts. Bump on any breaking schema change.
pub const SCHEMA_VERSION: u32 = 1;

pub use colormap::ColorMap;
pub use iatf::{Iatf, IatfBuilder, IatfParams};
pub use keyframes::{classify_behavior, suggest_key_frames, TemporalBehavior};
pub use tf1d::TransferFunction1D;
pub use tf2d::TransferFunction2D;
