//! Data-space intelligent feature extraction (paper Section 4.3).
//!
//! Instead of classifying by value alone (a transfer function), the scientist
//! *paints* sample voxels of the wanted/unwanted features on slices of the
//! data; per-voxel **feature vectors** — the voxel's value(s), samples of a
//! spherical shell around it, optionally its position, and the time step —
//! are fed to a neural network, which then classifies the entire 4D volume.
//! The shell encodes feature *size* without anyone measuring size: a voxel
//! deep inside a large structure sees a bright shell, a voxel of a small blob
//! sees background beyond the blob's boundary.
//!
//! - [`FeatureSpec`] / [`FeatureExtractor`] — assemble per-voxel descriptors,
//! - [`paint`] — painted strokes and the scripted [`paint::PaintOracle`]
//!   standing in for the interactive user,
//! - [`DataSpaceClassifier`] — train on paints, classify whole volumes
//!   (rayon-parallel) into certainty fields and masks,
//! - [`baselines`] — the 1D-transfer-function and repeated-blur baselines the
//!   paper contrasts in Figure 7.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod classify;
pub mod features;
pub mod paint;

/// Version of this crate's serialized model types (feature specs, classifier
/// snapshots, paint sets) inside session artifacts. Bump on any breaking
/// schema change.
pub const SCHEMA_VERSION: u32 = 1;

pub use classify::{
    ClassifierParams, ClassifierSnapshot, DataSpaceClassifier, SnapshotError, TrainError,
};
pub use features::{FeatureExtractor, FeatureSpec, ShellMode};
pub use paint::{PaintError, PaintOracle, PaintSet};
