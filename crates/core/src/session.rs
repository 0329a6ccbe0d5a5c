//! The interactive visualization session — the headless equivalent of the
//! paper's multi-view interface (Section 6): key-frame transfer functions,
//! IATF training, painted data-space extraction, tracking, and rendering,
//! all against one loaded time series.

use crate::persist::{self, PersistError};
use ifet_extract::paint::PaintSet;
use ifet_extract::{
    ClassifierParams, DataSpaceClassifier, FeatureExtractor, FeatureSpec, TrainError,
};
use ifet_obs as obs;
use ifet_render::{render_tracking_overlay, Camera, Image, Renderer};
use ifet_tf::{ColorMap, Iatf, IatfBuilder, IatfParams, TransferFunction1D};
use ifet_track::{
    adaptive_tables, grow_4d, track_events, CriterionError, FixedBandCriterion, GrowCheckpoint,
    GrowError, Grower, GrowthCriterion, MaskCriterion, ResolveError, Seed4, TrackReport,
};
use ifet_volume::{map_frames_windowed, FrameHandle, FrameSource, Mask3, TimeSeries};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Result of a tracking run: per-frame masks plus the event report.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackResult {
    pub masks: Vec<Mask3>,
    pub report: TrackReport,
}

/// A growth criterion *by name* — the serializable recipe a session stores so
/// a tracking run (or its checkpoint) can be re-materialized after a reload.
/// Resolution happens against the session's current IATF/classifier state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CriterionSpec {
    /// Conventional fixed value band `[lo, hi]`.
    FixedBand { lo: f32, hi: f32 },
    /// Adaptive-TF opacity threshold (requires a trained IATF).
    AdaptiveTf { tau: f32 },
    /// Data-space classifier certainty threshold (requires a trained
    /// classifier); frames are pre-classified into masks.
    DataSpace { tau: f32 },
}

/// A finished tracking run the session remembers (and persists).
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTrack {
    pub spec: CriterionSpec,
    pub seeds: Vec<Seed4>,
    pub result: TrackResult,
}

/// A tracking run that was interrupted mid-growth; `checkpoint` holds the
/// exact frontier state needed to finish it with [`VisSession::resume_track`].
#[derive(Debug, Clone, PartialEq)]
pub struct PendingTrack {
    pub spec: CriterionSpec,
    pub seeds: Vec<Seed4>,
    pub checkpoint: GrowCheckpoint,
}

/// Outcome of [`VisSession::run_track`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrackStatus {
    /// The run reached its fixpoint; the result joined [`VisSession::tracks`].
    Completed,
    /// The round budget ran out first; a checkpoint is parked as the
    /// session's pending track (and rides along in saved artifacts).
    Paused { rounds: u64 },
}

/// Why a session operation was refused. These were once asserts (the ROADMAP
/// "typed errors" item); each is a caller mistake a UI or CLI can produce, so
/// they are reported instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// A session needs at least one frame.
    EmptySeries,
    /// A paint set or key frame references a step the series does not have.
    StepNotInSeries { step: u32 },
    /// An adaptive-TF operation needs a trained IATF first.
    NoIatf,
    /// A data-space operation needs a trained classifier first.
    NoClassifier,
    /// Criterion construction rejected its parameters.
    Criterion(CriterionError),
    /// Region growing rejected the seeds or checkpoint.
    Grow(GrowError),
    /// The frame source failed to deliver a frame (paging I/O, bad index).
    Series { reason: String },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::EmptySeries => write!(f, "cannot open a session on an empty series"),
            SessionError::StepNotInSeries { step } => {
                write!(f, "step {step} not in the series")
            }
            SessionError::NoIatf => write!(f, "no trained IATF in this session"),
            SessionError::NoClassifier => write!(f, "no trained classifier in this session"),
            SessionError::Criterion(e) => write!(f, "criterion: {e}"),
            SessionError::Grow(e) => write!(f, "tracking: {e}"),
            SessionError::Series { reason } => write!(f, "frame source: {reason}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Criterion(e) => Some(e),
            SessionError::Grow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CriterionError> for SessionError {
    fn from(e: CriterionError) -> Self {
        SessionError::Criterion(e)
    }
}

impl From<GrowError> for SessionError {
    fn from(e: GrowError) -> Self {
        SessionError::Grow(e)
    }
}

impl From<ifet_volume::SeriesError> for SessionError {
    fn from(e: ifet_volume::SeriesError) -> Self {
        SessionError::Series {
            reason: e.to_string(),
        }
    }
}

impl From<ResolveError> for SessionError {
    fn from(e: ResolveError) -> Self {
        match e {
            ResolveError::Criterion(e) => e.into(),
            ResolveError::Source(e) => e.into(),
        }
    }
}

/// One loaded dataset plus everything the user has taught the system so far.
///
/// Generic over the [`FrameSource`] backing it: `VisSession<TimeSeries>` (the
/// default) works fully in core; `VisSession<OutOfCoreSeries>` pages frames
/// through a bounded LRU cache, so the same session API runs on series larger
/// than memory. Paging I/O errors come back as [`SessionError::Series`];
/// only `extract_with_tf`, `render_with_tf`, `render_mip` and
/// `render_tracked`, which return a bare mask or image, panic on them (and
/// on a step the series does not have).
#[derive(Debug, Clone)]
pub struct VisSession<S: FrameSource = TimeSeries> {
    series: S,
    key_frames: Vec<(u32, TransferFunction1D)>,
    iatf: Option<Iatf>,
    iatf_params: IatfParams,
    paints: Vec<PaintSet>,
    classifier: Option<DataSpaceClassifier>,
    tracks: Vec<CompletedTrack>,
    pending: Option<PendingTrack>,
    /// Stable-mode trace summary (versioned obs JSON) riding along in saved
    /// artifacts; kept as the raw string so re-saving is byte-identical.
    trace_summary: Option<String>,
    pub renderer: Renderer,
    pub colormap: ColorMap,
}

impl<S: FrameSource> VisSession<S> {
    /// Open a session on a frame source.
    pub fn new(series: S) -> Result<Self, SessionError> {
        if series.is_empty() {
            return Err(SessionError::EmptySeries);
        }
        Ok(Self {
            series,
            key_frames: Vec::new(),
            iatf: None,
            iatf_params: IatfParams::default(),
            paints: Vec::new(),
            classifier: None,
            tracks: Vec::new(),
            pending: None,
            trace_summary: None,
            renderer: Renderer::default(),
            colormap: ColorMap::Rainbow,
        })
    }

    /// Rebuild a session from persisted parts (see [`crate::persist`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        series: S,
        key_frames: Vec<(u32, TransferFunction1D)>,
        iatf: Option<Iatf>,
        iatf_params: IatfParams,
        paints: Vec<PaintSet>,
        classifier: Option<DataSpaceClassifier>,
        colormap: ColorMap,
        tracks: Vec<CompletedTrack>,
        pending: Option<PendingTrack>,
        trace_summary: Option<String>,
    ) -> Self {
        Self {
            series,
            key_frames,
            iatf,
            iatf_params,
            paints,
            classifier,
            tracks,
            pending,
            trace_summary,
            renderer: Renderer::default(),
            colormap,
        }
    }

    pub fn series(&self) -> &S {
        &self.series
    }

    /// Suggest time steps worth painting key frames on: the frames whose
    /// value distributions differ most (farthest-point selection in
    /// histogram space). The user then supplies TFs only for these.
    pub fn suggest_key_frames(&self, max_keys: usize) -> Vec<u32> {
        ifet_tf::suggest_key_frames(&self.series, 256, max_keys, 0.02)
    }

    // ---- Transfer-function-space extraction (paper Section 4.2) ----

    /// Register a user key-frame transfer function. Invalidates any
    /// previously trained IATF (new user input → retrain).
    pub fn add_key_frame(&mut self, t: u32, tf: TransferFunction1D) -> &mut Self {
        assert!(
            self.series.index_of_step(t).is_some(),
            "step {t} not in the series"
        );
        self.key_frames.push((t, tf));
        self.iatf = None;
        self
    }

    pub fn key_frames(&self) -> &[(u32, TransferFunction1D)] {
        &self.key_frames
    }

    /// Train the adaptive transfer function from the current key frames.
    pub fn train_iatf(&mut self, params: IatfParams) -> &Iatf {
        assert!(!self.key_frames.is_empty(), "no key frames specified");
        let _span = obs::span("session.train_iatf");
        let mut b = IatfBuilder::new(params);
        for (t, tf) in &self.key_frames {
            b.add_key_frame(*t, tf.clone());
        }
        self.iatf_params = params;
        self.iatf = Some(b.train(&self.series));
        self.iatf.as_ref().unwrap()
    }

    pub fn iatf(&self) -> Option<&Iatf> {
        self.iatf.as_ref()
    }

    /// The adaptive TF for a series step. `Ok(None)` means no IATF is
    /// trained or the step is not in the series; a frame-source failure is
    /// [`SessionError::Series`].
    pub fn adaptive_tf_at_step(&self, t: u32) -> Result<Option<TransferFunction1D>, SessionError> {
        let Some(iatf) = self.iatf.as_ref() else {
            return Ok(None);
        };
        let frame = self.series.frame_at_step(t)?;
        Ok(frame.map(|frame| iatf.generate(t, &frame)))
    }

    /// Adaptive TFs for every frame, in series order (`Ok(None)` until an
    /// IATF is trained). Frames are visited in bounded windows so a paged
    /// source never exceeds its cache capacity.
    pub fn adaptive_tfs(&self) -> Result<Option<Vec<TransferFunction1D>>, SessionError> {
        let Some(iatf) = self.iatf.as_ref() else {
            return Ok(None);
        };
        let tfs = map_frames_windowed(&self.series, |_, t, frame| iatf.generate(t, frame))?;
        Ok(Some(tfs))
    }

    /// The linear-interpolation baseline TF at step `t`: lerp between the
    /// nearest bracketing key frames (clamped outside their range).
    pub fn lerp_tf_at_step(&self, t: u32) -> Option<TransferFunction1D> {
        if self.key_frames.is_empty() {
            return None;
        }
        let mut sorted: Vec<&(u32, TransferFunction1D)> = self.key_frames.iter().collect();
        sorted.sort_by_key(|(kt, _)| *kt);
        if t <= sorted[0].0 {
            return Some(sorted[0].1.clone());
        }
        if t >= sorted[sorted.len() - 1].0 {
            return Some(sorted[sorted.len() - 1].1.clone());
        }
        let i = sorted.partition_point(|(kt, _)| *kt <= t);
        let (t0, tf0) = sorted[i - 1];
        let (t1, tf1) = sorted[i];
        let alpha = (t - t0) as f32 / (t1 - t0) as f32;
        Some(TransferFunction1D::lerp(tf0, tf1, alpha))
    }

    /// Extraction mask at step `t` using a transfer function: voxels whose
    /// opacity reaches `tau`.
    pub fn extract_with_tf(&self, t: u32, tf: &TransferFunction1D, tau: f32) -> Mask3 {
        let frame = self.expect_frame(t);
        let d = frame.dims();
        let mut m = Mask3::empty(d);
        for (i, &v) in frame.as_slice().iter().enumerate() {
            if tf.opacity_at(v) >= tau {
                m.set_linear(i, true);
            }
        }
        m
    }

    // ---- Data-space extraction (paper Section 4.3) ----

    /// Add painted voxels for a frame. Invalidates the trained classifier.
    pub fn add_paints(&mut self, paints: PaintSet) -> Result<&mut Self, SessionError> {
        if self.series.index_of_step(paints.step).is_none() {
            return Err(SessionError::StepNotInSeries { step: paints.step });
        }
        self.paints.push(paints);
        self.classifier = None;
        Ok(self)
    }

    /// All paint sets registered so far.
    pub fn paints(&self) -> &[PaintSet] {
        &self.paints
    }

    /// Parameters the current IATF was (or will be) trained with.
    pub fn iatf_params(&self) -> IatfParams {
        self.iatf_params
    }

    /// Train the data-space classifier from all paints so far.
    pub fn train_classifier(
        &mut self,
        spec: FeatureSpec,
        params: ClassifierParams,
    ) -> Result<&DataSpaceClassifier, TrainError> {
        let _span = obs::span("session.train_classifier");
        let fx = FeatureExtractor::new(spec);
        let clf = DataSpaceClassifier::train(fx, &self.series, &self.paints, params)?;
        self.classifier = Some(clf);
        Ok(self.classifier.as_ref().unwrap())
    }

    pub fn classifier(&self) -> Option<&DataSpaceClassifier> {
        self.classifier.as_ref()
    }

    /// Install an externally trained classifier (e.g. a `train_multi` model
    /// over a sibling multivariate series) so it persists with the session.
    pub fn adopt_classifier(&mut self, clf: DataSpaceClassifier) -> &mut Self {
        self.classifier = Some(clf);
        self
    }

    /// The trace summary riding along in saved artifacts, if any.
    pub fn trace_summary(&self) -> Option<&str> {
        self.trace_summary.as_deref()
    }

    /// Attach a trace summary to persist with the session (as the artifact's
    /// skippable TRACE section). The JSON must parse under the versioned
    /// trace schema; it is stored verbatim so re-saving stays byte-identical.
    pub fn set_trace_summary(&mut self, trace_json: String) -> Result<&mut Self, obs::TraceError> {
        obs::Trace::from_json(&trace_json)?;
        self.trace_summary = Some(trace_json);
        Ok(self)
    }

    /// Drop any attached trace summary.
    pub fn clear_trace_summary(&mut self) -> &mut Self {
        self.trace_summary = None;
        self
    }

    /// Data-space extraction mask at step `t`. `Ok(None)` means no
    /// classifier is trained or the step is not in the series; a
    /// frame-source failure is [`SessionError::Series`].
    pub fn extract_data_space(&self, t: u32, tau: f32) -> Result<Option<Mask3>, SessionError> {
        let Some(clf) = self.classifier.as_ref() else {
            return Ok(None);
        };
        let frame = self.series.frame_at_step(t)?;
        Ok(frame.map(|frame| clf.extract_mask(&frame, self.series.normalized_time(t), tau)))
    }

    // ---- Tracking (paper Section 5) ----

    /// Track from seeds with the adaptive (IATF) criterion at opacity `tau`.
    /// `None` until an IATF has been trained.
    pub fn track_adaptive(
        &self,
        seeds: &[Seed4],
        tau: f32,
    ) -> Option<Result<TrackResult, SessionError>> {
        self.iatf.as_ref()?;
        Some(self.track_spec(&CriterionSpec::AdaptiveTf { tau }, seeds))
    }

    /// Track from seeds with the conventional fixed value band.
    pub fn track_fixed(
        &self,
        seeds: &[Seed4],
        lo: f32,
        hi: f32,
    ) -> Result<TrackResult, SessionError> {
        self.track_spec(&CriterionSpec::FixedBand { lo, hi }, seeds)
    }

    /// Track with a named criterion, without recording the run.
    pub fn track_spec(
        &self,
        spec: &CriterionSpec,
        seeds: &[Seed4],
    ) -> Result<TrackResult, SessionError> {
        let criterion = self.resolve_criterion(spec)?;
        Ok(self.track_with(criterion.as_ref(), seeds)?)
    }

    /// Track with an arbitrary criterion. Fails with [`GrowError`] when the
    /// seeds fall outside the series or the criterion's frame count differs.
    pub fn track_with(
        &self,
        criterion: &dyn GrowthCriterion,
        seeds: &[Seed4],
    ) -> Result<TrackResult, GrowError> {
        let masks = grow_4d(&self.series, criterion, seeds)?;
        let report = track_events(&masks);
        Ok(TrackResult { masks, report })
    }

    /// Materialize a [`CriterionSpec`] against the session's current state.
    ///
    /// The adaptive and data-space criteria come back holding every frame's
    /// acceptance table, built in the one pass over the series that
    /// generates each frame's TF or certainty, so growing under them pages
    /// no frame again.
    pub fn resolve_criterion(
        &self,
        spec: &CriterionSpec,
    ) -> Result<Box<dyn GrowthCriterion>, SessionError> {
        match spec {
            CriterionSpec::FixedBand { lo, hi } => Ok(Box::new(FixedBandCriterion::new(
                *lo,
                *hi,
                self.series.len(),
            )?)),
            CriterionSpec::AdaptiveTf { tau } => {
                let iatf = self.iatf.as_ref().ok_or(SessionError::NoIatf)?;
                let criterion =
                    adaptive_tables(&self.series, *tau, |t, frame| iatf.generate(t, frame))?;
                Ok(Box::new(criterion))
            }
            CriterionSpec::DataSpace { tau } => {
                let clf = self.classifier.as_ref().ok_or(SessionError::NoClassifier)?;
                // Stream: each certainty volume is thresholded into a packed
                // mask as it is produced, so only masks accumulate — the
                // full-resolution f32 certainty series never materializes.
                let masks: Vec<Mask3> = clf.classify_series_map(&self.series, |_, _, cert| {
                    Mask3::threshold(&cert, *tau)
                })?;
                Ok(Box::new(MaskCriterion::new(masks)?))
            }
        }
    }

    /// Run (or start) a tracking job the session remembers. With
    /// `max_rounds: None` the run always completes; with a budget it may
    /// instead pause, parking a resumable checkpoint that [`Self::save`]
    /// persists and [`Self::resume_track`] finishes — possibly in a later
    /// process.
    pub fn run_track(
        &mut self,
        spec: CriterionSpec,
        seeds: &[Seed4],
        max_rounds: Option<u64>,
    ) -> Result<TrackStatus, SessionError> {
        let _span = obs::span("session.run_track");
        let criterion = self.resolve_criterion(&spec)?;
        let mut grower = Grower::start(&self.series, criterion.as_ref(), seeds)?;
        if grower.run(max_rounds) {
            let masks = grower.into_masks();
            let report = track_events(&masks);
            self.tracks.push(CompletedTrack {
                spec,
                seeds: seeds.to_vec(),
                result: TrackResult { masks, report },
            });
            Ok(TrackStatus::Completed)
        } else {
            let rounds = grower.rounds();
            self.pending = Some(PendingTrack {
                spec,
                seeds: seeds.to_vec(),
                checkpoint: grower.checkpoint(),
            });
            Ok(TrackStatus::Paused { rounds })
        }
    }

    /// Finish the pending tracking run from its checkpoint. The completed
    /// result is identical to what an uninterrupted run would have produced
    /// (growth is a fixpoint, independent of round partitioning).
    pub fn resume_track(&mut self) -> Result<&TrackResult, PersistError> {
        let _span = obs::span("session.resume_track");
        let pending = self.pending.take().ok_or(PersistError::NoCheckpoint)?;
        let criterion =
            self.resolve_criterion(&pending.spec)
                .map_err(|e| PersistError::Malformed {
                    section: "CHECKPT".into(),
                    reason: format!("checkpoint criterion cannot be rebuilt: {e}"),
                })?;
        let mut grower = Grower::resume(&self.series, criterion.as_ref(), pending.checkpoint)
            .map_err(PersistError::Grow)?;
        grower.run(None);
        let masks = grower.into_masks();
        let report = track_events(&masks);
        self.tracks.push(CompletedTrack {
            spec: pending.spec,
            seeds: pending.seeds,
            result: TrackResult { masks, report },
        });
        Ok(&self.tracks.last().unwrap().result)
    }

    /// Completed tracking runs, in execution order.
    pub fn tracks(&self) -> &[CompletedTrack] {
        &self.tracks
    }

    /// The interrupted tracking run awaiting [`Self::resume_track`], if any.
    pub fn pending_track(&self) -> Option<&PendingTrack> {
        self.pending.as_ref()
    }

    // ---- Persistence (versioned session artifacts) ----

    /// Save everything the user taught this session — key frames, IATF,
    /// paints, classifier, completed tracks, and any pending checkpoint — to
    /// a versioned artifact file. The raw series is *not* embedded; `load`
    /// re-attaches the artifact to a series and verifies it is the same one.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        persist::save_session(self, path.as_ref())
    }

    /// Load a session artifact against its frame source.
    pub fn load(series: S, path: impl AsRef<Path>) -> Result<Self, PersistError> {
        persist::load_session(series, path.as_ref())
    }

    // ---- Rendering (paper Section 7) ----

    /// Default camera framing the volume.
    pub fn camera(&self) -> Camera {
        Camera::framing(self.series.dims(), 0.7, 0.35)
    }

    /// The frame at step `t`, for the wrappers that panic on a missing step
    /// or a paging failure instead of returning an error.
    fn expect_frame(&self, t: u32) -> FrameHandle<'_> {
        self.series
            .frame_at_step(t)
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or_else(|| panic!("step {t} not in series"))
    }

    /// Render frame `t` with an explicit transfer function.
    pub fn render_with_tf(&self, t: u32, tf: &TransferFunction1D, w: usize, h: usize) -> Image {
        let frame = self.expect_frame(t);
        self.renderer
            .render(&frame, tf, self.colormap, &self.camera(), w, h)
    }

    /// Render frame `t` with the adaptive TF (`Ok(None)` until trained or
    /// when the step is not in the series). This is the per-frame
    /// "recalculate the adaptive transfer function, then render" loop of
    /// Section 7.
    pub fn render_adaptive(
        &self,
        t: u32,
        w: usize,
        h: usize,
    ) -> Result<Option<Image>, SessionError> {
        let Some(tf) = self.adaptive_tf_at_step(t)? else {
            return Ok(None);
        };
        Ok(Some(self.render_with_tf(t, &tf, w, h)))
    }

    /// Maximum-intensity projection of frame `t` (quick overview mode).
    pub fn render_mip(&self, t: u32, w: usize, h: usize) -> Image {
        let frame = self.expect_frame(t);
        self.renderer
            .render_mip(&frame, self.colormap, &self.camera(), w, h)
    }

    /// Render frame `t` with opacity taken from the data-space classifier's
    /// certainty field (`Ok(None)` until a classifier is trained or when the
    /// step is not in the series) — Section 7's "classified result ... used
    /// to assign opacity to each voxel".
    pub fn render_classified(
        &self,
        t: u32,
        w: usize,
        h: usize,
    ) -> Result<Option<Image>, SessionError> {
        let Some(clf) = self.classifier.as_ref() else {
            return Ok(None);
        };
        let Some(frame) = self.series.frame_at_step(t)? else {
            return Ok(None);
        };
        let certainty = clf.classify_frame(&frame, self.series.normalized_time(t));
        Ok(Some(self.renderer.render_classified(
            &frame,
            &certainty,
            self.colormap,
            &self.camera(),
            w,
            h,
        )))
    }

    /// Render frame `t` with the tracked feature highlighted in red.
    pub fn render_tracked(
        &self,
        t: u32,
        tracked: &Mask3,
        base_tf: &TransferFunction1D,
        adaptive_tf: &TransferFunction1D,
        w: usize,
        h: usize,
    ) -> Image {
        let frame = self.expect_frame(t);
        render_tracking_overlay(
            &self.renderer,
            &frame,
            tracked,
            base_tf,
            adaptive_tf,
            self.colormap,
            &self.camera(),
            w,
            h,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifet_volume::{Dims3, ScalarVolume};

    /// Uniform-ramp frames whose values shift irregularly per step.
    fn series() -> TimeSeries {
        let d = Dims3::cube(12);
        let n = d.len();
        let shifts = [0.0f32, 0.3, 0.1];
        TimeSeries::from_frames(
            (0..3usize)
                .map(|k| {
                    (
                        (k as u32) * 10,
                        ScalarVolume::from_vec(
                            d,
                            (0..n).map(|i| i as f32 / n as f32 + shifts[k]).collect(),
                        ),
                    )
                })
                .collect(),
        )
    }

    fn band_for(s: &TimeSeries, shift: f32) -> TransferFunction1D {
        let (lo, hi) = s.global_range();
        TransferFunction1D::band(lo, hi, 0.6 + shift, 0.75 + shift, 1.0)
    }

    #[test]
    fn key_frames_and_iatf_flow() {
        let s = series();
        let mut sess = VisSession::new(s.clone()).unwrap();
        sess.add_key_frame(0, band_for(&s, 0.0));
        sess.add_key_frame(10, band_for(&s, 0.3));
        sess.add_key_frame(20, band_for(&s, 0.1));
        assert!(sess.iatf().is_none());
        sess.train_iatf(IatfParams {
            epochs: 300,
            ..Default::default()
        });
        assert!(sess.iatf().is_some());
        let tf = sess.adaptive_tf_at_step(10).unwrap().unwrap();
        // Band at t=10 should sit near [0.9, 1.05].
        let (blo, bhi) = tf.support(0.5).expect("no band learned");
        assert!((0.5 * (blo + bhi) - 0.975).abs() < 0.12, "[{blo}, {bhi}]");
    }

    #[test]
    fn adding_key_frame_invalidates_iatf() {
        let s = series();
        let mut sess = VisSession::new(s.clone()).unwrap();
        sess.add_key_frame(0, band_for(&s, 0.0));
        sess.train_iatf(IatfParams {
            epochs: 10,
            ..Default::default()
        });
        assert!(sess.iatf().is_some());
        sess.add_key_frame(20, band_for(&s, 0.1));
        assert!(sess.iatf().is_none(), "stale IATF must be dropped");
    }

    #[test]
    fn lerp_baseline_brackets() {
        let s = series();
        let mut sess = VisSession::new(s.clone()).unwrap();
        let a = band_for(&s, 0.0);
        let b = band_for(&s, 0.3);
        sess.add_key_frame(0, a.clone());
        sess.add_key_frame(20, b.clone());
        assert_eq!(sess.lerp_tf_at_step(0).unwrap(), a);
        assert_eq!(sess.lerp_tf_at_step(20).unwrap(), b);
        let mid = sess.lerp_tf_at_step(10).unwrap();
        // Half opacity at both ghost bands.
        assert!((mid.opacity_at(0.65) - 0.5).abs() < 0.01);
        assert!((mid.opacity_at(0.95) - 0.5).abs() < 0.01);
    }

    #[test]
    fn extract_with_tf_masks_band() {
        let s = series();
        let sess = VisSession::new(s.clone()).unwrap();
        let tf = band_for(&s, 0.0);
        let m = sess.extract_with_tf(0, &tf, 0.5);
        // Band [0.6, 0.75] of a uniform ramp covers ~15% of voxels.
        let frac = m.count() as f64 / s.dims().len() as f64;
        assert!((frac - 0.15).abs() < 0.03, "{frac}");
    }

    #[test]
    fn fixed_tracking_runs() {
        let s = series();
        let sess = VisSession::new(s).unwrap();
        // Seed at the voxel with value ~0.65 in frame 0.
        let d = sess.series().dims();
        let idx = (0.65 * d.len() as f32) as usize;
        let (x, y, z) = d.coords(idx);
        let r = sess.track_fixed(&[(0, x, y, z)], 0.6, 0.75).unwrap();
        assert!(r.masks[0].count() > 0);
        assert_eq!(r.report.voxels_per_frame.len(), 3);
    }

    /// An in-core series that counts the frames its consumers request.
    struct Counting {
        inner: TimeSeries,
        requests: std::sync::atomic::AtomicUsize,
    }

    impl FrameSource for Counting {
        fn dims(&self) -> Dims3 {
            self.inner.dims()
        }

        fn len(&self) -> usize {
            self.inner.len()
        }

        fn steps(&self) -> &[u32] {
            self.inner.steps()
        }

        fn frame(&self, i: usize) -> Result<FrameHandle<'_>, ifet_volume::SeriesError> {
            self.requests
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            FrameSource::frame(&self.inner, i)
        }
    }

    #[test]
    fn track_adaptive_reads_the_series_once() {
        let s = series();
        let mut sess = VisSession::new(Counting {
            inner: s.clone(),
            requests: Default::default(),
        })
        .unwrap();
        sess.add_key_frame(0, band_for(&s, 0.0));
        sess.train_iatf(IatfParams {
            epochs: 10,
            ..Default::default()
        });
        let d = s.dims();
        let (x, y, z) = d.coords((0.65 * d.len() as f32) as usize);
        let seeds = [(0, x, y, z)];
        let requests = |sess: &VisSession<Counting>| {
            sess.series()
                .requests
                .swap(0, std::sync::atomic::Ordering::Relaxed)
        };
        requests(&sess);
        let adaptive = sess.track_adaptive(&seeds, 0.5).unwrap().unwrap();
        let via_adaptive = requests(&sess);
        let spec = sess
            .track_spec(&CriterionSpec::AdaptiveTf { tau: 0.5 }, &seeds)
            .unwrap();
        let via_spec = requests(&sess);
        assert_eq!(adaptive.masks, spec.masks);
        // One pass builds every frame's TF and acceptance table; the grower
        // adopts the tables without paging again.
        assert_eq!(via_spec, s.len(), "track_spec requested {via_spec} frames");
        assert_eq!(
            via_adaptive,
            s.len(),
            "track_adaptive requested {via_adaptive}"
        );
    }

    #[test]
    fn render_paths_produce_images() {
        let s = series();
        let mut sess = VisSession::new(s.clone()).unwrap();
        sess.add_key_frame(0, band_for(&s, 0.0));
        sess.train_iatf(IatfParams {
            epochs: 50,
            ..Default::default()
        });
        let img = sess.render_adaptive(0, 16, 16).unwrap().unwrap();
        assert_eq!(img.width(), 16);
        let tf = band_for(&s, 0.0);
        let tracked = sess.extract_with_tf(0, &tf, 0.5);
        let overlay = sess.render_tracked(0, &tracked, &tf, &tf, 16, 16);
        assert_eq!(overlay.height(), 16);
    }

    #[test]
    fn mip_and_classified_render_paths() {
        let s = series();
        let mut sess = VisSession::new(s.clone()).unwrap();
        let mip = sess.render_mip(0, 16, 16);
        assert_eq!((mip.width(), mip.height()), (16, 16));
        // No classifier yet.
        assert!(sess.render_classified(0, 8, 8).unwrap().is_none());
        // Paint + train, then the classified path renders.
        let truth = ifet_volume::Mask3::threshold(s.frame(0), 0.6);
        let mut oracle = ifet_extract::PaintOracle::new(1);
        oracle.slice_stride = 1;
        sess.add_paints(oracle.paint_from_truth(0, &truth, 40, 40))
            .unwrap();
        sess.train_classifier(
            ifet_extract::FeatureSpec::default(),
            ifet_extract::ClassifierParams {
                epochs: 30,
                ..Default::default()
            },
        )
        .unwrap();
        let img = sess.render_classified(0, 16, 16).unwrap().unwrap();
        assert_eq!(img.width(), 16);
    }

    #[test]
    fn key_frame_suggestion_and_behavior() {
        let s = series(); // irregular shifts: drifting distribution
        assert_eq!(
            ifet_tf::classify_behavior(&s, 256, 0.1),
            ifet_tf::TemporalBehavior::Periodic // shifts 0.0 -> 0.3 -> 0.1 come back down
        );
        let sess = VisSession::new(s).unwrap();
        let keys = sess.suggest_key_frames(3);
        assert!(keys.contains(&0) && keys.contains(&20));
        // The middle frame (shift 0.3) is the outlier worth painting.
        assert!(keys.contains(&10), "{keys:?}");
    }

    #[test]
    #[should_panic]
    fn unknown_key_frame_step_panics() {
        let s = series();
        let mut sess = VisSession::new(s.clone()).unwrap();
        sess.add_key_frame(99, band_for(&s, 0.0));
    }

    #[test]
    #[should_panic]
    fn train_iatf_without_key_frames_panics() {
        let s = series();
        VisSession::new(s)
            .unwrap()
            .train_iatf(IatfParams::default());
    }

    #[test]
    fn empty_series_is_typed_error() {
        let err = VisSession::new(TimeSeries::new(Dims3::cube(4))).unwrap_err();
        assert_eq!(err, SessionError::EmptySeries);
        assert_eq!(err.to_string(), "cannot open a session on an empty series");
    }

    #[test]
    fn paints_on_unknown_step_is_typed_error() {
        let s = series();
        let mut sess = VisSession::new(s).unwrap();
        let mut paints = ifet_extract::PaintSet::new(99);
        paints.paint((1, 1, 1), true);
        let err = sess.add_paints(paints).unwrap_err();
        assert_eq!(err, SessionError::StepNotInSeries { step: 99 });
        assert!(sess.paints().is_empty(), "rejected paints must not stick");
    }

    #[test]
    fn bad_track_band_is_typed_error() {
        let s = series();
        let sess = VisSession::new(s).unwrap();
        let err = sess.track_fixed(&[(0, 1, 1, 1)], 0.9, 0.1).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Criterion(CriterionError::InvalidBand { .. })
        ));
    }

    #[test]
    fn adaptive_spec_without_iatf_is_typed_error() {
        let s = series();
        let mut sess = VisSession::new(s).unwrap();
        let err = sess
            .run_track(
                CriterionSpec::AdaptiveTf { tau: 0.5 },
                &[(0, 1, 1, 1)],
                None,
            )
            .unwrap_err();
        assert_eq!(err, SessionError::NoIatf);
        let err = sess
            .run_track(CriterionSpec::DataSpace { tau: 0.5 }, &[(0, 1, 1, 1)], None)
            .unwrap_err();
        assert_eq!(err, SessionError::NoClassifier);
    }

    #[test]
    fn run_track_records_and_pauses() {
        let s = series();
        let d = s.dims();
        let mut sess = VisSession::new(s).unwrap();
        let idx = (0.65 * d.len() as f32) as usize;
        let seed = {
            let (x, y, z) = d.coords(idx);
            (0usize, x, y, z)
        };
        // Unbudgeted: completes and is recorded.
        let spec = CriterionSpec::FixedBand { lo: 0.6, hi: 0.75 };
        let status = sess.run_track(spec.clone(), &[seed], None).unwrap();
        assert_eq!(status, TrackStatus::Completed);
        assert_eq!(sess.tracks().len(), 1);
        let full = sess.tracks()[0].result.clone();

        // Budget of one round: pauses with a checkpoint, resume finishes with
        // the identical result.
        let status = sess.run_track(spec, &[seed], Some(1)).unwrap();
        assert_eq!(status, TrackStatus::Paused { rounds: 1 });
        assert!(sess.pending_track().is_some());
        let resumed = sess.resume_track().unwrap().clone();
        assert_eq!(resumed, full);
        assert!(sess.pending_track().is_none());
        assert_eq!(sess.tracks().len(), 2);
    }

    #[test]
    fn resume_without_checkpoint_is_typed_error() {
        let s = series();
        let mut sess = VisSession::new(s).unwrap();
        assert!(matches!(
            sess.resume_track().unwrap_err(),
            crate::persist::PersistError::NoCheckpoint
        ));
    }
}
