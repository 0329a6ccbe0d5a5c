//! Time-varying volume data substrate for intelligent feature extraction and
//! tracking (Tzeng & Ma, SC 2005).
//!
//! This crate provides the dense regular-grid data structures the rest of the
//! workspace is built on:
//!
//! - [`Dims3`] — grid dimensions and index arithmetic,
//! - [`ScalarVolume`] / [`Volume`] — a dense 3D scalar field,
//! - [`VectorVolume`] — a dense 3D vector field with differential operators,
//! - [`TimeSeries`] — a time-varying sequence of scalar volumes,
//! - [`FrameSource`] — the access contract shared by in-core and
//!   out-of-core series, with [`OutOfCoreSeries`] paging frames through a
//!   budget-bounded LRU cache with optional background read-ahead (the
//!   paper's "cannot fit in core" regime, §4.2.2); budgets ([`CacheBudget`])
//!   are counted in frames or bytes and may be shared across series,
//! - [`FrameSink`] — the write-capable counterpart, streaming derived frames
//!   out in core ([`TimeSeriesSink`]) or spilled to disk ([`OutOfCoreSink`]),
//! - [`MultiVolume`] — several named variables over one grid (multivariate data),
//! - [`Histogram`] / [`CumulativeHistogram`] — value distributions, the key
//!   ingredient of the paper's adaptive transfer function (Section 4.2.1),
//! - [`Mask3`] — boolean voxel masks with the set metrics used to score
//!   extraction quality against ground truth,
//! - trilinear [`sample`]-ing and central-difference gradients for rendering,
//! - separable Gaussian [`filter`]-ing (the paper's "blur the volume"
//!   baseline in Figure 7),
//! - raw-binary + JSON-sidecar [`io`], with a bricked, CRC-guarded
//!   compression [`codec`] (`.rawz` frames, decoded transparently on
//!   page-in),
//! - versioned binary [`maskio`] encoding for masks inside session artifacts.
//!
//! Everything is deterministic and `f32`-based; volumes are laid out in
//! x-fastest (C) order so `idx = x + nx*(y + ny*z)`.

#![forbid(unsafe_code)]

pub mod codec;
pub mod dims;
pub mod filter;
pub mod histogram;
pub mod io;
pub mod mask;
pub mod maskio;
pub mod multivol;
pub mod ooc;
pub mod sample;
pub mod series;
pub mod shell;
pub mod sink;
pub mod source;
pub mod vecfield;
pub mod volume;

pub use codec::CodecError;
pub use dims::{Dims3, Ix3};
pub use histogram::{CumulativeHistogram, Histogram};
pub use mask::{Mask3, MaskWordsError};
pub use maskio::{decode_mask, encode_mask, encode_mask_into, MaskIoError};
pub use multivol::{MultiSeries, MultiVolume};
pub use ooc::{
    BudgetStats, CacheBudget, CacheBudgetHandle, CacheStats, GroupStats, OutOfCoreSeries,
    ReadFault, ReadFaultHook,
};
pub use series::{SeriesError, TimeSeries};
pub use sink::{FrameSink, OutOfCoreSink, TimeSeriesSink};
pub use source::{map_frames_windowed, walk_frame_pairs, FrameHandle, FrameSource};
pub use vecfield::VectorVolume;
pub use volume::{ScalarVolume, Volume};
