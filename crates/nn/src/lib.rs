//! A from-scratch artificial neural network, the machine-learning engine of
//! the intelligent visualization system (Tzeng & Ma, SC 2005, Section 3).
//!
//! The paper uses "a three-layer perceptron ... trained with the Feed-Forward
//! Back-Propagation Network (BPN) algorithm". This crate implements exactly
//! that, generalized to any number of hidden layers:
//!
//! - [`Mlp`] — a multi-layer perceptron with configurable [`Activation`]s,
//!   Xavier-initialized from a seed (fully deterministic),
//! - [`Trainer`] — supervised back-propagation with learning rate and
//!   momentum, one online (per-sample) update,
//! - [`IncrementalTrainer`] — the paper's "training is performed iteratively
//!   in the system's idle loop" workflow: training proceeds in small bursts
//!   while samples may keep arriving, and the current network can be queried
//!   at any point for immediate visual feedback,
//! - [`Normalizer`] — per-feature min-max scaling of inputs, fitted from the
//!   training set.
//!
//! Everything is `f32`, allocation-conscious, and serializable with serde so
//! trained networks can be shipped to "parallel systems or remote machines
//! for rendering" (Section 4.2.3).

#![forbid(unsafe_code)]

pub mod activation;
pub mod introspect;
pub mod mlp;
pub mod normalize;
pub mod train;

/// Version of this crate's serialized model types (networks and
/// normalizers) inside session artifacts. Bump on any breaking schema change.
pub const SCHEMA_VERSION: u32 = 1;

pub use activation::Activation;
pub use mlp::{Mlp, MlpShapeError, BATCH_LANES};
pub use normalize::Normalizer;
pub use train::{IncrementalTrainer, TrainParams, Trainer, TrainingSet};
