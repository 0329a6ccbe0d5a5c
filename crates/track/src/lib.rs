//! Feature tracking for time-varying volume data (paper Section 5).
//!
//! "Because of this overlap, tracking can be achieved by using 4D region
//! growing where the fourth dimension is time, and the adaptive transfer
//! function is applied to feature tracking. ... the adaptive transfer
//! function is created with the previous method and is used as the region
//! growing criteria."
//!
//! - [`components`] — 3D connected-component labeling (x-runs joined by
//!   union-find),
//! - [`attributes`] — per-feature measurements (volume, mass, centroid,
//!   bounding box) in the spirit of Reinders et al.'s attribute tracking,
//! - [`criterion`] — pluggable region-growing criteria: a fixed value band
//!   (the conventional baseline) or per-frame adaptive transfer functions
//!   (the IATF tracking criterion),
//! - [`region_grow`] — the 4D region grower itself: one serial
//!   level-synchronous grower with resumable checkpoints, plus the FIFO
//!   reference the tests compare it against,
//! - [`events`] — overlap-based correspondence and event detection
//!   (continuation, split, merge, birth, death),
//! - [`tracks`] — persistent tracks built from the events (lifetimes, fates,
//!   attribute curves).

#![forbid(unsafe_code)]

pub mod attributes;
pub mod components;
pub mod criterion;
pub mod events;
pub mod region_grow;
pub mod tracks;

pub use attributes::FeatureAttributes;
pub use components::{label_masks, ComponentLabels};
pub use criterion::{
    adaptive_tables, AdaptiveTfCriterion, CriterionError, FixedBandCriterion, GrowthCriterion,
    MaskCriterion, ResolveError,
};
pub use events::{events_from_labelings, track_events, Event, EventKind, TrackReport};
pub use region_grow::{grow_4d, grow_4d_serial, GrowCheckpoint, GrowError, Grower, Seed4};
pub use tracks::{extract_tracks, extract_tracks_from_parts, Track, TrackEnding, TrackSet};

/// Version of this crate's serialized model types (criteria, checkpoints,
/// reports) inside session artifacts. Bump on any breaking schema change.
pub const SCHEMA_VERSION: u32 = 1;
