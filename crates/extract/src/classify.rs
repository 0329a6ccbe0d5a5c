//! Training on paints and whole-volume classification.

use crate::features::FeatureExtractor;
use crate::paint::PaintSet;
use ifet_nn::mlp::Scratch;
use ifet_nn::{Activation, Mlp, Normalizer, TrainParams, Trainer, TrainingSet};
use ifet_obs as obs;
use ifet_volume::{
    FrameSink, FrameSource, Mask3, MultiSeries, MultiVolume, ScalarVolume, SeriesError,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Scanline run width for every `classify_*` entry point: each x-row is
/// classified in runs of this many voxels. Output is bit-identical to the
/// per-voxel path at any width.
const BATCH_ROWS: usize = 64;

/// Per-predictor buffers: the MLP forward-pass scratch and the batch-row
/// staging buffers. `Scratch` self-sizes on first use, so a
/// default-constructed instance works for any network.
#[derive(Debug, Default)]
struct PredictBuffers {
    scratch: Scratch,
    /// Feature rows for a batched run, row-major `[len * num_features]`.
    rows: Vec<f32>,
    /// Batched prediction output staging (`len` certainties).
    outs: Vec<f32>,
}

/// A classifier plus fresh prediction buffers, made once per call or per
/// z-slab task.
struct Predictor<'a> {
    clf: &'a DataSpaceClassifier,
    bufs: PredictBuffers,
}

impl Predictor<'_> {
    /// Batched prediction: normalize the staged rows (each `nf` wide) and
    /// write one certainty per row into `out`. Per-row work is the exact
    /// same operation sequence as the per-voxel reference
    /// [`DataSpaceClassifier::classify_frame_uncached`] (`Normalizer::apply`
    /// on the row slice, then `predict1`-equivalent inference), so batched
    /// output is bit-identical to per-voxel output.
    fn predict_rows_into(&mut self, nf: usize, out: &mut [f32]) {
        let PredictBuffers {
            scratch,
            rows,
            outs,
            ..
        } = &mut self.bufs;
        debug_assert_eq!(rows.len(), nf * out.len());
        for row in rows.chunks_exact_mut(nf) {
            self.clf.normalizer.apply(row);
        }
        // Fill depth varies with the volume's x extent, so this is a runtime
        // counter (stripped from stable traces).
        obs::counter_runtime("extract.batch.fill", out.len() as u64);
        self.clf.net.predict_batch(rows, scratch, outs);
        out.copy_from_slice(outs);
    }

    /// Certainties for the run of `out.len()` voxels starting at `(x0, y, z)`
    /// along x of a scalar frame.
    fn predict_run_into(
        &mut self,
        frame: &ScalarVolume,
        x0: usize,
        y: usize,
        z: usize,
        tn: f32,
        out: &mut [f32],
    ) {
        let nf = self.clf.extractor.num_features();
        self.clf
            .extractor
            .vectors_run_into(frame, x0, out.len(), y, z, tn, &mut self.bufs.rows);
        self.predict_rows_into(nf, out);
    }

    /// Certainties for the `z` slice of a scalar frame (`out` is `nx * ny`),
    /// each row in runs of [`BATCH_ROWS`] voxels.
    fn predict_slice_into(&mut self, frame: &ScalarVolume, z: usize, tn: f32, out: &mut [f32]) {
        for (y, row) in out.chunks_mut(frame.dims().nx).enumerate() {
            for (ci, chunk) in row.chunks_mut(BATCH_ROWS).enumerate() {
                self.predict_run_into(frame, ci * BATCH_ROWS, y, z, tn, chunk);
            }
        }
    }

    /// Certainties for the run of `out.len()` voxels starting at `(x0, y, z)`
    /// along x of a multivariate frame.
    fn predict_run_multi_at(
        &mut self,
        frame: &MultiVolume,
        x0: usize,
        y: usize,
        z: usize,
        tn: f32,
        out: &mut [f32],
    ) {
        let nf = self.clf.extractor.num_features_multi(frame.num_vars());
        self.clf.extractor.vectors_run_multi_into(
            frame,
            x0,
            out.len(),
            y,
            z,
            tn,
            &mut self.bufs.rows,
        );
        self.predict_rows_into(nf, out);
    }
}

/// Hyper-parameters for the data-space classifier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassifierParams {
    /// Hidden-layer width of the three-layer perceptron.
    pub hidden: usize,
    pub epochs: usize,
    pub learning_rate: f32,
    pub momentum: f32,
    pub seed: u64,
}

impl Default for ClassifierParams {
    fn default() -> Self {
        Self {
            hidden: 12,
            epochs: 200,
            learning_rate: 0.3,
            momentum: 0.9,
            seed: 0xDA7A,
        }
    }
}

/// A trained per-voxel classifier: feature vector → certainty in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct DataSpaceClassifier {
    extractor: FeatureExtractor,
    normalizer: Normalizer,
    net: Mlp,
    final_loss: f32,
    /// `Some(n)` for a [`Self::train_multi`] model over `n` variables;
    /// `None` for scalar models. Determines the expected feature width.
    multi_vars: Option<usize>,
}

/// The serializable identity of a trained [`DataSpaceClassifier`]: feature
/// spec, fitted normalizer, network weights, the recorded training
/// loss, and (for `train_multi` models) the multivariate width. Everything
/// needed to rebuild an identical classifier with
/// [`DataSpaceClassifier::from_snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierSnapshot {
    pub spec: crate::features::FeatureSpec,
    pub normalizer: Normalizer,
    pub net: Mlp,
    pub final_loss: f32,
    /// Number of variables a `train_multi` model was trained over; `None`
    /// for scalar models.
    pub multi_vars: Option<usize>,
}

// Manual serde impls rather than derive: `multi_vars` is omitted when `None`
// and treated as `None` when missing, so snapshots written before the field
// existed still load, old readers skip it by name, and save→load→save stays
// byte-identical for both generations (derive would hard-error on the
// missing field). The network is written as `"engine":{"NeuralNet":[<Mlp>]}`,
// the encoding of the one-element tuple variant the format has always
// used; any other engine tag is a load error.
const ENGINE_TAG: &str = "NeuralNet";

impl Serialize for ClassifierSnapshot {
    fn to_value(&self) -> serde::Value {
        let mut pairs = vec![
            ("spec".to_string(), self.spec.to_value()),
            ("normalizer".to_string(), self.normalizer.to_value()),
            (
                "engine".to_string(),
                serde::vhelp::variant(ENGINE_TAG, serde::Value::Array(vec![self.net.to_value()])),
            ),
            ("final_loss".to_string(), self.final_loss.to_value()),
        ];
        if let Some(nv) = self.multi_vars {
            pairs.push(("multi_vars".to_string(), nv.to_value()));
        }
        serde::Value::Object(pairs)
    }
}

impl Deserialize for ClassifierSnapshot {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let multi_vars = match v.get("multi_vars") {
            None | Some(serde::Value::Null) => None,
            Some(mv) => Some(usize::from_value(mv)?),
        };
        let spec = Deserialize::from_value(serde::vhelp::field(v, "spec")?)?;
        let normalizer = Deserialize::from_value(serde::vhelp::field(v, "normalizer")?)?;
        let net = match serde::vhelp::untag(serde::vhelp::field(v, "engine")?)? {
            (ENGINE_TAG, Some(payload)) => {
                Deserialize::from_value(serde::vhelp::element(payload, 0)?)?
            }
            (tag, _) => {
                return Err(serde::DeError::new(format!(
                    "learning engine must be `{ENGINE_TAG}` with a network, got `{tag}`"
                )))
            }
        };
        Ok(Self {
            spec,
            normalizer,
            net,
            final_loss: Deserialize::from_value(serde::vhelp::field(v, "final_loss")?)?,
            multi_vars,
        })
    }
}

/// Why a [`ClassifierSnapshot`] cannot be rebuilt into a working classifier.
/// Snapshots arrive from disk, so every internal-consistency violation is a
/// typed error rather than a downstream index panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The feature spec selects no properties at all.
    EmptySpec,
    /// Normalizer or network input width disagrees with the feature spec.
    FeatureCountMismatch { expected: usize, got: usize },
    /// The network's weight tensors are internally inconsistent.
    BadNetwork(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::EmptySpec => write!(f, "feature spec selects no properties"),
            SnapshotError::FeatureCountMismatch { expected, got } => {
                write!(
                    f,
                    "feature count mismatch: spec yields {expected}, model expects {got}"
                )
            }
            SnapshotError::BadNetwork(why) => write!(f, "inconsistent model weights: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Why classifier training could not start. These are caller mistakes a UI or
/// CLI can plausibly produce (painting before loading the right series, or
/// submitting an empty paint set), so they are reported instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// `paints` was empty — there is nothing to learn from.
    NoPaintedFrames,
    /// A paint set references a time step the series does not contain.
    PaintedStepNotInSeries { step: u32 },
    /// Paint sets were supplied but none of them contains a voxel.
    NoPaintedVoxels,
    /// Loading a painted frame from the source failed (paging I/O).
    Source { reason: String },
    /// The classifier network could not be constructed from the requested
    /// hyper-parameters (e.g. a zero hidden width).
    Model { reason: String },
}

impl From<SeriesError> for TrainError {
    fn from(e: SeriesError) -> Self {
        TrainError::Source {
            reason: e.to_string(),
        }
    }
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NoPaintedFrames => write!(f, "need at least one painted frame"),
            TrainError::PaintedStepNotInSeries { step } => {
                write!(f, "painted step {step} not in series")
            }
            TrainError::NoPaintedVoxels => write!(f, "paint sets contain no voxels"),
            TrainError::Source { reason } => write!(f, "frame source failed: {reason}"),
            TrainError::Model { reason } => write!(f, "classifier model is invalid: {reason}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Fit the normalizer to the painted feature rows, then train an
/// `n_in → hidden → 1` sigmoid perceptron on the normalized rows. Returns the
/// normalizer, the network and the mean loss of its final epoch.
fn fit(
    rows: &[Vec<f32>],
    labels: &[f32],
    n_in: usize,
    params: ClassifierParams,
) -> Result<(Normalizer, Mlp, f32), TrainError> {
    if rows.is_empty() {
        return Err(TrainError::NoPaintedVoxels);
    }
    let normalizer = Normalizer::fit(rows);
    let mut train_set = TrainingSet::new();
    for (row, &label) in rows.iter().zip(labels) {
        train_set.add1(normalizer.transform(row), label);
    }
    let mut net = Mlp::new(
        &[n_in, params.hidden, 1],
        Activation::Sigmoid,
        Activation::Sigmoid,
        params.seed,
    )
    .map_err(|e| TrainError::Model {
        reason: e.to_string(),
    })?;
    let mut trainer = Trainer::new(TrainParams {
        learning_rate: params.learning_rate,
        momentum: params.momentum,
        seed: params.seed,
    });
    let losses = trainer.train(&mut net, &train_set, params.epochs);
    let final_loss = losses.last().copied().unwrap_or(f32::NAN);
    Ok((normalizer, net, final_loss))
}

impl DataSpaceClassifier {
    /// Train a neural-network classifier from painted frames. Each element
    /// of `paints` pairs a [`PaintSet`] with the frame it was painted on
    /// (looked up by the paint set's step label in `series`).
    ///
    /// Training is per-voxel: every painted voxel contributes one
    /// `(feature vector, label)` row. Only the painted frames are touched,
    /// one at a time — exactly the paper's argument that training needs just
    /// the key frames in core (§4.2.2).
    pub fn train<S: FrameSource + ?Sized>(
        extractor: FeatureExtractor,
        series: &S,
        paints: &[PaintSet],
        params: ClassifierParams,
    ) -> Result<Self, TrainError> {
        if paints.is_empty() {
            return Err(TrainError::NoPaintedFrames);
        }
        let mut rows: Vec<Vec<f32>> = Vec::new();
        let mut labels: Vec<f32> = Vec::new();
        let mut buf = Vec::new();
        for set in paints {
            let frame = series
                .frame_at_step(set.step)?
                .ok_or(TrainError::PaintedStepNotInSeries { step: set.step })?;
            let tn = series.normalized_time(set.step);
            for ((x, y, z), label) in set.iter() {
                extractor.vector_into(&frame, x, y, z, tn, &mut buf);
                rows.push(buf.clone());
                labels.push(label);
            }
        }
        let (normalizer, net, final_loss) = fit(&rows, &labels, extractor.num_features(), params)?;
        Ok(Self {
            extractor,
            normalizer,
            net,
            final_loss,
            multi_vars: None,
        })
    }

    /// A predictor with fresh buffers.
    fn predictor(&self) -> Predictor<'_> {
        Predictor {
            clf: self,
            bufs: PredictBuffers::default(),
        }
    }

    /// Capture this classifier's serializable state.
    pub fn snapshot(&self) -> ClassifierSnapshot {
        ClassifierSnapshot {
            spec: *self.extractor.spec(),
            normalizer: self.normalizer.clone(),
            net: self.net.clone(),
            final_loss: self.final_loss,
            multi_vars: self.multi_vars,
        }
    }

    /// Rebuild a classifier from a snapshot, validating internal consistency
    /// first so that malformed (or maliciously corrupted) snapshots are
    /// reported as typed errors instead of panicking in a hot loop later.
    pub fn from_snapshot(snap: ClassifierSnapshot) -> Result<Self, SnapshotError> {
        if snap.spec.is_empty() {
            return Err(SnapshotError::EmptySpec);
        }
        let extractor = FeatureExtractor::new(snap.spec);
        // Multivariate models expect one value feature per variable.
        let n = match snap.multi_vars {
            Some(nv) => extractor.num_features_multi(nv),
            None => extractor.num_features(),
        };
        if snap.normalizer.num_features() != n {
            return Err(SnapshotError::FeatureCountMismatch {
                expected: n,
                got: snap.normalizer.num_features(),
            });
        }
        snap.net
            .validate_shape()
            .map_err(SnapshotError::BadNetwork)?;
        let sizes = snap.net.layer_sizes();
        if sizes[0] != n {
            return Err(SnapshotError::FeatureCountMismatch {
                expected: n,
                got: sizes[0],
            });
        }
        if *sizes.last().unwrap() != 1 {
            return Err(SnapshotError::BadNetwork(format!(
                "classifier network must emit one certainty, has {} outputs",
                sizes.last().unwrap()
            )));
        }
        Ok(Self {
            extractor,
            normalizer: snap.normalizer,
            net: snap.net,
            final_loss: snap.final_loss,
            multi_vars: snap.multi_vars,
        })
    }

    /// Number of variables this model was trained over (`None` for scalar
    /// models; see [`Self::train_multi`]).
    pub fn multi_vars(&self) -> Option<usize> {
        self.multi_vars
    }

    /// Mean MSE of the final training epoch.
    pub fn final_loss(&self) -> f32 {
        self.final_loss
    }

    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// The trained network.
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// Train a neural-network classifier on *multivariate* frames: every
    /// painted voxel contributes all variable values plus the shell/position/
    /// time features of the primary variable. "The machine learning engine
    /// can take high-dimensional data directly but the scientists do not need
    /// to specify explicitly the relationship between these different
    /// dimensions" (Section 4.3).
    pub fn train_multi(
        extractor: FeatureExtractor,
        mseries: &MultiSeries,
        paints: &[PaintSet],
        params: ClassifierParams,
    ) -> Result<Self, TrainError> {
        if paints.is_empty() {
            return Err(TrainError::NoPaintedFrames);
        }
        let mut rows: Vec<Vec<f32>> = Vec::new();
        let mut labels: Vec<f32> = Vec::new();
        let mut buf = Vec::new();
        for set in paints {
            let frame = mseries
                .frame_at_step(set.step)
                .ok_or(TrainError::PaintedStepNotInSeries { step: set.step })?;
            let tn = mseries.normalized_time(set.step);
            for ((x, y, z), label) in set.iter() {
                extractor.vector_multi_into(frame, x, y, z, tn, &mut buf);
                rows.push(buf.clone());
                labels.push(label);
            }
        }
        let n_in = extractor.num_features_multi(mseries.names().len());
        let (normalizer, net, final_loss) = fit(&rows, &labels, n_in, params)?;
        Ok(Self {
            extractor,
            normalizer,
            net,
            final_loss,
            multi_vars: Some(mseries.names().len()),
        })
    }

    /// Classify a multivariate frame (trained via [`Self::train_multi`]).
    pub fn classify_frame_multi(&self, frame: &MultiVolume, t_norm: f32) -> ScalarVolume {
        let _span = obs::span("extract.classify_frame");
        let d = frame.dims();
        let slab = d.nx * d.ny;
        let mut data = vec![0.0f32; d.len()];
        let obs = obs::handle();
        data.par_chunks_mut(slab).enumerate().for_each(|(z, out)| {
            let _obs = obs.enter();
            let mut predictor = self.predictor();
            for (y, row) in out.chunks_mut(d.nx).enumerate() {
                for (ci, chunk) in row.chunks_mut(BATCH_ROWS).enumerate() {
                    predictor.predict_run_multi_at(frame, ci * BATCH_ROWS, y, z, t_norm, chunk);
                }
            }
            obs::counter("voxels_classified", out.len() as u64);
        });
        ScalarVolume::from_vec(d, data)
    }

    /// Multivariate classification thresholded into a mask.
    pub fn extract_mask_multi(&self, frame: &MultiVolume, t_norm: f32, tau: f32) -> Mask3 {
        Mask3::threshold(&self.classify_frame_multi(frame, t_norm), tau)
    }

    /// Classify a whole frame into a certainty volume (parallel over
    /// z-slabs; this is the "10 seconds for a 256³ volume" operation of
    /// Section 7, here multithreaded).
    pub fn classify_frame(&self, frame: &ScalarVolume, t_norm: f32) -> ScalarVolume {
        let _span = obs::span("extract.classify_frame");
        self.classify_slabs(frame, t_norm)
    }

    /// The slab fan-out behind [`Self::classify_frame`] and the series
    /// entry points: one z-slab per work item, each with its own predictor,
    /// workers joined to the caller's capture.
    fn classify_slabs(&self, frame: &ScalarVolume, t_norm: f32) -> ScalarVolume {
        let d = frame.dims();
        let slab = d.nx * d.ny;
        let mut data = vec![0.0f32; d.len()];
        let obs = obs::handle();
        data.par_chunks_mut(slab).enumerate().for_each(|(z, out)| {
            let _obs = obs.enter();
            self.predictor().predict_slice_into(frame, z, t_norm, out);
            obs::counter("voxels_classified", out.len() as u64);
        });
        ScalarVolume::from_vec(d, data)
    }

    /// Per-voxel reference implementation of [`Self::classify_frame`]: one
    /// feature vector and one prediction at a time, no batched runs. Kept as
    /// the reference the batching tests compare against, and as a bench row;
    /// not for general use.
    #[doc(hidden)]
    pub fn classify_frame_uncached(&self, frame: &ScalarVolume, t_norm: f32) -> ScalarVolume {
        let d = frame.dims();
        let slab = d.nx * d.ny;
        let mut data = vec![0.0f32; d.len()];
        data.par_chunks_mut(slab).enumerate().for_each(|(z, out)| {
            let mut buf = Vec::with_capacity(self.extractor.num_features());
            let mut scratch = Scratch::default();
            for y in 0..d.ny {
                for x in 0..d.nx {
                    self.extractor.vector_into(frame, x, y, z, t_norm, &mut buf);
                    self.normalizer.apply(&mut buf);
                    out[x + d.nx * y] = self.net.predict1(&buf, &mut scratch);
                }
            }
        });
        ScalarVolume::from_vec(d, data)
    }

    /// Classify one slice `z = k` only (the interactive per-slice feedback
    /// path of Section 6). Returns `(nx, ny, certainties)`.
    pub fn classify_slice_z(
        &self,
        frame: &ScalarVolume,
        k: usize,
        t_norm: f32,
    ) -> (usize, usize, Vec<f32>) {
        let d = frame.dims();
        assert!(k < d.nz);
        let mut out = vec![0.0f32; d.nx * d.ny];
        self.predictor()
            .predict_slice_into(frame, k, t_norm, &mut out);
        (d.nx, d.ny, out)
    }

    /// Classify a frame and threshold at `tau` into a feature mask.
    pub fn extract_mask(&self, frame: &ScalarVolume, t_norm: f32, tau: f32) -> Mask3 {
        Mask3::threshold(&self.classify_frame(frame, t_norm), tau)
    }

    /// The series schedule: page frame `i`, hint frame `i + 1` to the
    /// source, classify the frame's z-slabs across the whole pool, and hand
    /// the certainty to `emit` before paging the next frame. Fanning out
    /// over the frames of a residency window instead would make each frame
    /// wait for its neighbour and leave cores idle on a short window.
    fn for_each_certainty<S: FrameSource + ?Sized>(
        &self,
        series: &S,
        mut emit: impl FnMut(usize, u32, ScalarVolume) -> Result<(), SeriesError>,
    ) -> Result<(), SeriesError> {
        let steps = series.steps();
        for (i, &t) in steps.iter().enumerate() {
            let cert = {
                let frame = series.frame(i)?;
                if i + 1 < steps.len() {
                    series.prefetch_hint(&[i + 1]);
                }
                self.classify_slabs(&frame, series.normalized_time(t))
            };
            obs::counter("frames", 1);
            emit(i, t, cert)?;
        }
        Ok(())
    }

    /// Classify every frame of a series into certainty volumes, in step
    /// order, one frame at a time with its z-slabs fanned across the pool.
    pub fn classify_series<S: FrameSource + ?Sized>(
        &self,
        series: &S,
    ) -> Result<Vec<ScalarVolume>, SeriesError> {
        self.classify_series_map(series, |_, _, cert| cert)
    }

    /// [`Self::classify_series`] with a post-map applied to each certainty
    /// volume as it is produced, so only the mapped results accumulate in
    /// core (a `Mask3` per frame instead of a full `f32` volume, say).
    /// Counters and span match `classify_series` exactly.
    pub fn classify_series_map<S, T, F>(
        &self,
        series: &S,
        mut post: F,
    ) -> Result<Vec<T>, SeriesError>
    where
        S: FrameSource + ?Sized,
        F: FnMut(usize, u32, ScalarVolume) -> T,
    {
        let _span = obs::span("extract.classify_series");
        let mut out = Vec::with_capacity(series.len());
        self.for_each_certainty(series, |i, t, cert| {
            out.push(post(i, t, cert));
            Ok(())
        })?;
        Ok(out)
    }

    /// Stream whole-series classification into a [`FrameSink`]: each
    /// frame's certainty reaches the sink before the next frame is paged,
    /// so a paged input is classified to disk holding one input frame and
    /// one certainty volume. Byte-identical to writing
    /// [`Self::classify_series`]'s output.
    pub fn classify_series_into<S, K>(&self, series: &S, sink: &mut K) -> Result<(), SeriesError>
    where
        S: FrameSource + ?Sized,
        K: FrameSink + ?Sized,
    {
        let _span = obs::span("extract.classify_series");
        self.for_each_certainty(series, |_, t, cert| sink.put(t, cert))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FeatureSpec, ShellMode};
    use crate::paint::PaintOracle;
    use ifet_volume::{Dims3, TimeSeries};

    /// One big ball and several small balls, all with value 1.0 — separable
    /// only through the shell (size), not the value.
    fn size_scene(n: usize) -> (ScalarVolume, Mask3) {
        let d = Dims3::cube(n);
        let big_c = (n as f32 * 0.35, n as f32 * 0.5, n as f32 * 0.5);
        let big_r = n as f32 * 0.22;
        let smalls = [
            (n as f32 * 0.8, n as f32 * 0.2, n as f32 * 0.3),
            (n as f32 * 0.75, n as f32 * 0.75, n as f32 * 0.7),
            (n as f32 * 0.2, n as f32 * 0.15, n as f32 * 0.85),
            (n as f32 * 0.85, n as f32 * 0.5, n as f32 * 0.15),
            (n as f32 * 0.15, n as f32 * 0.8, n as f32 * 0.25),
            (n as f32 * 0.5, n as f32 * 0.12, n as f32 * 0.6),
        ];
        let small_r = n as f32 * 0.07;
        let dist = |x: usize, y: usize, z: usize, c: (f32, f32, f32)| {
            ((x as f32 - c.0).powi(2) + (y as f32 - c.1).powi(2) + (z as f32 - c.2).powi(2)).sqrt()
        };
        let vol = ScalarVolume::from_fn(d, |x, y, z| {
            if dist(x, y, z, big_c) <= big_r || smalls.iter().any(|&c| dist(x, y, z, c) <= small_r)
            {
                1.0
            } else {
                0.0
            }
        });
        let truth = Mask3::from_fn(d, |x, y, z| dist(x, y, z, big_c) <= big_r);
        (vol, truth)
    }

    fn trained_on_scene() -> (DataSpaceClassifier, ScalarVolume, Mask3, TimeSeries) {
        let (vol, truth) = size_scene(32);
        let series = TimeSeries::from_frames(vec![(0, vol.clone())]);
        let mut oracle = PaintOracle::new(5);
        oracle.slice_stride = 2;
        let paints = oracle.paint_from_truth(0, &truth, 150, 150);
        let fx = FeatureExtractor::new(FeatureSpec {
            shell_radius: 4.0,
            ..Default::default()
        });
        let clf = DataSpaceClassifier::train(fx, &series, &[paints], ClassifierParams::default())
            .unwrap();
        (clf, vol, truth, series)
    }

    #[test]
    fn learns_size_discrimination() {
        // The Figure 7 property: value alone cannot separate (everything is
        // 1.0); the shell-equipped classifier must.
        let (clf, vol, truth, _) = trained_on_scene();
        assert!(clf.final_loss() < 0.05, "loss {}", clf.final_loss());
        let mask = clf.extract_mask(&vol, 0.0, 0.5);
        let f1 = mask.f1(&truth);
        assert!(f1 > 0.85, "F1 {f1}");
        // A pure value band (the 1D TF) gets terrible precision by design.
        let band = Mask3::threshold(&vol, 0.5);
        assert!(band.precision(&truth) < 0.9);
        assert!(mask.precision(&truth) > band.precision(&truth));
    }

    /// Two variables where the feature is a JOINT condition: region A has
    /// var0 high only, region B var1 high only, region C (the feature) both
    /// high. No single variable separates C.
    fn joint_scene(n: usize) -> (ifet_volume::MultiSeries, Mask3) {
        use ifet_volume::{MultiSeries, MultiVolume};
        let d = Dims3::cube(n);
        let third = n / 3;
        let var0 = ScalarVolume::from_fn(d, |x, _, _| if x < 2 * third { 1.0 } else { 0.0 });
        let var1 = ScalarVolume::from_fn(d, |x, _, _| if x >= third { 1.0 } else { 0.0 });
        let truth = Mask3::from_fn(d, |x, _, _| x >= third && x < 2 * third);
        let mut mv = MultiVolume::new(d);
        mv.add("a", var0);
        mv.add("b", var1);
        (MultiSeries::from_frames(vec![(0, mv)]), truth)
    }

    #[test]
    fn multivariate_classifier_learns_joint_condition() {
        let (ms, truth) = joint_scene(24);
        let mut oracle = PaintOracle::new(8);
        oracle.slice_stride = 2;
        let paints = oracle.paint_from_truth(0, &truth, 120, 120);
        let fx = FeatureExtractor::new(FeatureSpec {
            shell: ShellMode::None,
            shell_radius: 1.0,
            ..Default::default()
        });
        let clf = DataSpaceClassifier::train_multi(fx, &ms, &[paints], ClassifierParams::default())
            .unwrap();
        let mask = clf.extract_mask_multi(ms.frame(0), 0.0, 0.5);
        let f1 = mask.f1(&truth);
        assert!(f1 > 0.95, "joint condition should be learnable: F1 {f1}");

        // Either single variable alone covers 2/3 of the domain — its best
        // achievable F1 against the middle third is bounded at 2·(1/3)/(1/3+2/3+...)
        let single = Mask3::threshold(ms.frame(0).var("a").unwrap(), 0.5);
        assert!(mask.f1(&truth) > single.f1(&truth) + 0.2);
    }

    #[test]
    fn multivariate_snapshot_roundtrips() {
        let (ms, truth) = joint_scene(24);
        let mut oracle = PaintOracle::new(8);
        oracle.slice_stride = 2;
        let paints = oracle.paint_from_truth(0, &truth, 120, 120);
        let fx = FeatureExtractor::new(FeatureSpec {
            shell: ShellMode::None,
            shell_radius: 1.0,
            ..Default::default()
        });
        let clf = DataSpaceClassifier::train_multi(fx, &ms, &[paints], ClassifierParams::default())
            .unwrap();
        assert_eq!(clf.multi_vars(), Some(2));
        let snap = clf.snapshot();
        assert_eq!(snap.multi_vars, Some(2));
        let json = serde_json::to_string(&snap).unwrap();
        let back: ClassifierSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let rebuilt = DataSpaceClassifier::from_snapshot(back).unwrap();
        assert_eq!(rebuilt.multi_vars(), Some(2));
        assert_eq!(
            rebuilt.classify_frame_multi(ms.frame(0), 0.0).as_slice(),
            clf.classify_frame_multi(ms.frame(0), 0.0).as_slice()
        );
    }

    #[test]
    fn scalar_snapshot_omits_multi_vars_and_legacy_json_loads() {
        // Scalar snapshots serialize without the field (byte-identical to the
        // pre-`multi_vars` format), and JSON lacking the field — i.e. any
        // artifact written before the field existed — loads as `None`.
        let (clf, _, _, _) = trained_on_scene();
        let json = serde_json::to_string(&clf.snapshot()).unwrap();
        assert!(!json.contains("multi_vars"));
        let back: ClassifierSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.multi_vars, None);
        assert!(DataSpaceClassifier::from_snapshot(back).is_ok());
    }

    #[test]
    fn multivariate_snapshot_with_wrong_width_is_rejected() {
        let (ms, truth) = joint_scene(24);
        let mut oracle = PaintOracle::new(8);
        oracle.slice_stride = 2;
        let paints = oracle.paint_from_truth(0, &truth, 60, 60);
        let fx = FeatureExtractor::new(FeatureSpec {
            shell: ShellMode::None,
            shell_radius: 1.0,
            ..Default::default()
        });
        let clf = DataSpaceClassifier::train_multi(fx, &ms, &[paints], ClassifierParams::default())
            .unwrap();
        let mut snap = clf.snapshot();
        // Claiming a different variable count desyncs the expected width.
        snap.multi_vars = Some(5);
        assert!(matches!(
            DataSpaceClassifier::from_snapshot(snap.clone()).unwrap_err(),
            SnapshotError::FeatureCountMismatch { .. }
        ));
        // Dropping the field entirely makes it a (narrower) scalar claim.
        snap.multi_vars = None;
        assert!(matches!(
            DataSpaceClassifier::from_snapshot(snap).unwrap_err(),
            SnapshotError::FeatureCountMismatch { .. }
        ));
    }

    #[test]
    fn classify_slice_matches_frame() {
        let (clf, vol, _, _) = trained_on_scene();
        let d = vol.dims();
        let field = clf.classify_frame(&vol, 0.25);
        for k in [0, 10, d.nz - 1] {
            let (nx, ny, slice) = clf.classify_slice_z(&vol, k, 0.25);
            assert_eq!((nx, ny), (d.nx, d.ny));
            let at = d.nx * d.ny * k;
            assert_bits_eq(
                &slice,
                &field.as_slice()[at..at + nx * ny],
                &format!("slice {k}"),
            );
        }
    }

    #[test]
    fn certainties_in_unit_interval() {
        let (clf, vol, _, _) = trained_on_scene();
        let field = clf.classify_frame(&vol, 0.0);
        for &c in field.as_slice() {
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn classify_series_matches_per_frame() {
        let (clf, vol, _, series) = trained_on_scene();
        let all = clf.classify_series(&series).unwrap();
        assert_eq!(all.len(), 1);
        let single = clf.classify_frame(&vol, 0.0);
        for (a, b) in all[0].as_slice().iter().zip(single.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn classify_series_into_and_map_match_materialized() {
        let (clf, _, _, series) = trained_on_scene();
        let all = clf.classify_series(&series).unwrap();

        let mut sink = ifet_volume::TimeSeriesSink::new();
        clf.classify_series_into(&series, &mut sink).unwrap();
        let streamed = sink.into_series().unwrap();
        assert_eq!(streamed.len(), all.len());
        for (i, v) in all.iter().enumerate() {
            assert_eq!(streamed.frame(i).as_slice(), v.as_slice());
        }

        let masks = clf
            .classify_series_map(&series, |_, _, cert| Mask3::threshold(&cert, 0.5))
            .unwrap();
        for (m, v) in masks.iter().zip(&all) {
            assert_eq!(*m, Mask3::threshold(v, 0.5));
        }
    }

    /// Assert two certainty slices are equal bit for bit.
    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: voxel {i}");
        }
    }

    /// A frame `nx` voxels wide and a few rows and slices deep, holding a mix
    /// of values so neighbouring runs see different features.
    fn strip(nx: usize) -> ScalarVolume {
        ScalarVolume::from_fn(Dims3::new(nx, 3, 2), |x, y, z| {
            ((x * 7 + y * 13 + z * 29) % 11) as f32 / 10.0
        })
    }

    #[test]
    fn classify_frame_matches_uncached_on_both_engines() {
        // Batched runs reproduce the per-voxel reference, also on repeated
        // calls.
        let (clf, vol, _, _) = trained_on_scene();
        let fresh = clf.classify_frame_uncached(&vol, 0.0);
        for _ in 0..2 {
            assert_eq!(clf.classify_frame(&vol, 0.0).as_slice(), fresh.as_slice());
        }
    }

    #[test]
    fn batched_classify_bit_identical_across_batch_widths() {
        // Runs are BATCH_ROWS wide, so the x extent sets the run widths a row
        // splits into: a single voxel, one short run, exactly one full run, a
        // full run plus a one-voxel tail, two full runs plus a tail. The
        // frame, series and slice paths must all reproduce the per-voxel
        // reference bit for bit.
        let (clf, _, _, _) = trained_on_scene();
        for nx in [
            1usize,
            BATCH_ROWS - 1,
            BATCH_ROWS,
            BATCH_ROWS + 1,
            2 * BATCH_ROWS + 2,
        ] {
            let vol = strip(nx);
            let reference = clf.classify_frame_uncached(&vol, 0.0);
            let want = reference.as_slice();
            assert_bits_eq(
                clf.classify_frame(&vol, 0.0).as_slice(),
                want,
                &format!("classify_frame nx {nx}"),
            );
            let series = TimeSeries::from_frames(vec![(0, vol.clone())]);
            let all = clf.classify_series(&series).unwrap();
            assert_bits_eq(all[0].as_slice(), want, &format!("classify_series nx {nx}"));
            let slab = nx * 3;
            for k in 0..2 {
                let (_, _, slice) = clf.classify_slice_z(&vol, k, 0.0);
                assert_bits_eq(
                    &slice,
                    &want[k * slab..(k + 1) * slab],
                    &format!("classify_slice_z nx {nx} k {k}"),
                );
            }
        }
    }

    #[test]
    fn batched_multi_classify_invariant_to_batch_width() {
        // A 70-wide frame splits each row into a full run and a 6-voxel tail;
        // both must match a per-voxel loop over the same operations.
        let (ms, truth) = joint_scene(24);
        let mut oracle = PaintOracle::new(8);
        oracle.slice_stride = 2;
        let paints = oracle.paint_from_truth(0, &truth, 120, 120);
        let fx = FeatureExtractor::new(FeatureSpec {
            shell: ShellMode::None,
            shell_radius: 1.0,
            ..Default::default()
        });
        let clf = DataSpaceClassifier::train_multi(fx, &ms, &[paints], ClassifierParams::default())
            .unwrap();
        let d = Dims3::new(70, 3, 2);
        let mut frame = MultiVolume::new(d);
        frame.add("a", strip(70));
        frame.add(
            "b",
            ScalarVolume::from_fn(d, |x, y, z| ((x + 2 * y + 3 * z) % 5) as f32 / 4.0),
        );
        let net = clf.network();
        let (mut buf, mut scratch) = (Vec::new(), Scratch::default());
        let mut per_voxel = Vec::with_capacity(d.len());
        for z in 0..d.nz {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    clf.extractor
                        .vector_multi_into(&frame, x, y, z, 0.5, &mut buf);
                    clf.normalizer.apply(&mut buf);
                    per_voxel.push(net.predict1(&buf, &mut scratch));
                }
            }
        }
        assert_bits_eq(
            clf.classify_frame_multi(&frame, 0.5).as_slice(),
            &per_voxel,
            "classify_frame_multi nx 70",
        );
    }

    #[test]
    fn zero_hidden_width_is_model_error() {
        let (vol, truth) = size_scene(8);
        let series = TimeSeries::from_frames(vec![(0, vol)]);
        let mut oracle = PaintOracle::new(1);
        oracle.slice_stride = 1;
        let paints = oracle.paint_from_truth(0, &truth, 10, 10);
        let fx = FeatureExtractor::new(FeatureSpec::default());
        let err = DataSpaceClassifier::train(
            fx,
            &series,
            &[paints],
            ClassifierParams {
                hidden: 0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::Model { .. }), "{err:?}");
        assert!(err.to_string().contains("zero"), "{err}");
    }

    #[test]
    fn snapshot_roundtrip_rebuilds_identical_classifier() {
        let (clf, vol, _, _) = trained_on_scene();
        let snap = clf.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: ClassifierSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let rebuilt = DataSpaceClassifier::from_snapshot(back).unwrap();
        assert_eq!(
            rebuilt.classify_frame(&vol, 0.0).as_slice(),
            clf.classify_frame(&vol, 0.0).as_slice()
        );
        assert_eq!(rebuilt.final_loss(), clf.final_loss());
    }

    #[test]
    fn snapshot_json_keeps_the_tuple_variant_engine_encoding() {
        // Session artifacts store the network as a one-element tuple variant;
        // the CLASSIFY section bytes depend on this exact shape.
        let (clf, _, _, _) = trained_on_scene();
        let json = serde_json::to_string(&clf.snapshot()).unwrap();
        assert!(json.contains("\"engine\":{\"NeuralNet\":[{"), "{json}");
    }

    #[test]
    fn corrupt_snapshots_are_typed_errors() {
        let (clf, _, _, _) = trained_on_scene();
        let snap = clf.snapshot();

        let mut empty = snap.clone();
        empty.spec = FeatureSpec {
            value: false,
            shell: ShellMode::None,
            shell_radius: 1.0,
            position: false,
            time: false,
        };
        assert_eq!(
            DataSpaceClassifier::from_snapshot(empty).unwrap_err(),
            SnapshotError::EmptySpec
        );

        // Shrinking the spec desyncs it from the trained network width.
        let mut narrowed = snap.clone();
        narrowed.spec = FeatureSpec {
            value: true,
            shell: ShellMode::None,
            shell_radius: 1.0,
            position: false,
            time: false,
        };
        assert!(matches!(
            DataSpaceClassifier::from_snapshot(narrowed).unwrap_err(),
            SnapshotError::FeatureCountMismatch { .. }
        ));

        // A truncated weight vector is caught by shape validation, not a
        // slice-index panic mid-classification.
        let mut lobotomized = snap.clone();
        let json = lobotomized.net.to_json();
        let bad = json.replacen("\"weights\":[", "\"weights\":[0.0,", 1);
        lobotomized.net = Mlp::from_json(&bad).unwrap();
        assert!(matches!(
            DataSpaceClassifier::from_snapshot(lobotomized).unwrap_err(),
            SnapshotError::BadNetwork(_)
        ));
    }

    #[test]
    fn empty_paints_is_error() {
        let (vol, _) = size_scene(8);
        let series = TimeSeries::from_frames(vec![(0, vol)]);
        let fx = FeatureExtractor::new(FeatureSpec::default());
        let err =
            DataSpaceClassifier::train(fx, &series, &[], ClassifierParams::default()).unwrap_err();
        assert_eq!(err, TrainError::NoPaintedFrames);
    }

    #[test]
    fn painted_step_outside_series_is_error() {
        let (vol, truth) = size_scene(8);
        let series = TimeSeries::from_frames(vec![(0, vol)]);
        let mut oracle = PaintOracle::new(1);
        oracle.slice_stride = 1;
        let paints = oracle.paint_from_truth(7, &truth, 10, 10);
        let fx = FeatureExtractor::new(FeatureSpec::default());
        let err = DataSpaceClassifier::train(fx, &series, &[paints], ClassifierParams::default())
            .unwrap_err();
        assert_eq!(err, TrainError::PaintedStepNotInSeries { step: 7 });
        assert_eq!(err.to_string(), "painted step 7 not in series");
    }

    #[test]
    fn value_only_spec_fails_on_size_task() {
        // Ablation: drop the shell and the classifier degenerates to a 1D TF,
        // which cannot separate same-valued features by size.
        let (vol, truth) = size_scene(32);
        let series = TimeSeries::from_frames(vec![(0, vol.clone())]);
        let mut oracle = PaintOracle::new(5);
        oracle.slice_stride = 2;
        let paints = oracle.paint_from_truth(0, &truth, 150, 150);
        let fx = FeatureExtractor::new(FeatureSpec {
            value: true,
            shell: ShellMode::None,
            shell_radius: 1.0,
            position: false,
            time: true,
        });
        let clf = DataSpaceClassifier::train(
            fx,
            &series,
            std::slice::from_ref(&paints),
            ClassifierParams::default(),
        )
        .unwrap();
        let mask = clf.extract_mask(&vol, 0.0, 0.5);
        let value_only_f1 = mask.f1(&truth);

        let shell_fx = FeatureExtractor::new(FeatureSpec {
            shell_radius: 4.0,
            ..Default::default()
        });
        let shell_clf =
            DataSpaceClassifier::train(shell_fx, &series, &[paints], ClassifierParams::default())
                .unwrap();
        let shell_f1 = shell_clf.extract_mask(&vol, 0.0, 0.5).f1(&truth);

        assert!(
            value_only_f1 + 0.04 < shell_f1,
            "shell must clearly beat value-only on a size task: {value_only_f1} vs {shell_f1}"
        );
    }
}
