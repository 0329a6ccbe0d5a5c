//! # ifet — Intelligent Feature Extraction and Tracking
//!
//! A full reproduction of Tzeng & Ma, *"Intelligent Feature Extraction and
//! Tracking for Visualizing Large-Scale 4D Flow Simulations"* (SC 2005), as a
//! Rust library: machine-learning-driven feature extraction and tracking for
//! time-varying volume data, integrated with direct volume rendering.
//!
//! ## Quick start
//!
//! ```
//! use ifet_core::prelude::*;
//!
//! // A synthetic 4D dataset (the paper's argon-bubble analog) with ground truth.
//! let data = ifet_sim::shock_bubble(Dims3::cube(32), 42);
//! let mut session = VisSession::new(data.series.clone()).unwrap();
//!
//! // The user paints 1D transfer functions on two key frames...
//! let (lo, hi) = session.series().global_range();
//! let (b0, b1) = ifet_sim::shock_bubble::ring_value_band(0.0);
//! session.add_key_frame(195, TransferFunction1D::band(lo, hi, b0, b1, 1.0));
//! let (b0, b1) = ifet_sim::shock_bubble::ring_value_band(1.0);
//! session.add_key_frame(255, TransferFunction1D::band(lo, hi, b0, b1, 1.0));
//!
//! // ...and the system learns an adaptive transfer function for every frame.
//! session.train_iatf(IatfParams { epochs: 150, ..Default::default() });
//! let tf_for_middle_frame = session.adaptive_tf_at_step(225).unwrap().unwrap();
//! assert!(tf_for_middle_frame.table().iter().any(|&o| o > 0.5));
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`ifet_volume`] | grids, histograms, masks, filtering, I/O |
//! | [`ifet_sim`] | fluid solver + five labeled synthetic datasets |
//! | [`ifet_nn`] | three-layer perceptron with back-propagation |
//! | [`ifet_tf`] | 1D transfer functions and the IATF |
//! | [`ifet_extract`] | data-space (painted) feature extraction |
//! | [`ifet_track`] | 4D region growing, events, tracks |
//! | [`ifet_render`] | software DVR with tracking overlay |
//! | `ifet_core` | this façade: [`VisSession`], metrics, parallel pipeline |

#![forbid(unsafe_code)]

pub mod metrics;
pub mod persist;
pub mod pipeline;
pub mod session;

/// Runtime observability: structured span tracing and deterministic counters.
///
/// Re-exported so applications can drive capture (`obs::capture`,
/// `obs::span`, `obs::counter`) through the same facade they use for
/// everything else.
pub use ifet_obs as obs;

pub use metrics::Scores;
pub use persist::PersistError;
pub use session::{
    CompletedTrack, CriterionSpec, PendingTrack, SessionError, TrackResult, TrackStatus, VisSession,
};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::metrics::Scores;
    pub use crate::persist::{load_session_bytes, save_session_bytes, PersistError};
    pub use crate::pipeline;
    pub use crate::session::{
        CompletedTrack, CriterionSpec, PendingTrack, SessionError, TrackResult, TrackStatus,
        VisSession,
    };
    pub use ifet_extract::{
        ClassifierParams, DataSpaceClassifier, FeatureExtractor, FeatureSpec, PaintOracle,
        ShellMode, TrainError,
    };
    pub use ifet_nn::{Activation, Mlp, TrainParams};
    pub use ifet_render::{Camera, Image, RenderParams, Renderer};
    pub use ifet_sim::LabeledSeries;
    pub use ifet_tf::{ColorMap, Iatf, IatfBuilder, IatfParams, TransferFunction1D};
    pub use ifet_track::{
        adaptive_tables, events_from_labelings, extract_tracks, extract_tracks_from_parts, grow_4d,
        label_masks, track_events, AdaptiveTfCriterion, FeatureAttributes, FixedBandCriterion,
        GrowError, MaskCriterion, Seed4, Track, TrackEnding, TrackSet,
    };
    pub use ifet_volume::{
        CumulativeHistogram, Dims3, Histogram, Mask3, MultiSeries, MultiVolume, OutOfCoreSeries,
        ScalarVolume, TimeSeries,
    };
}
