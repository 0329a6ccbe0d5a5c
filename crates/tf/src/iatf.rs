//! The Intelligent Adaptive Transfer Function (paper Section 4.2).
//!
//! The user paints ordinary 1D transfer functions on a few *key frames*; a
//! neural network is trained on tuples
//! `<data value, cumulative histogram(value), time>` → opacity, where the
//! training rows come straight from the key-frame TF tables (Section 4.2.2:
//! "for each data value in a key frame transfer function, a vector
//! `<data, histogram(data), t>` is created ... the corresponding desired
//! output is the opacity specified by the user"). This keeps all training
//! data in core and gives every TF entry the same amount of training, unlike
//! sampling random voxels.
//!
//! After training, [`Iatf::generate`] produces a concrete 1D TF for *any*
//! time step by evaluating the network at each table entry with that frame's
//! cumulative-histogram value — sub-second work, done per frame during
//! rendering.

use crate::tf1d::{TransferFunction1D, TF_ENTRIES};
use ifet_nn::{Activation, IncrementalTrainer, Mlp, TrainParams, TrainingSet};
use ifet_volume::{CumulativeHistogram, FrameSource, Histogram, ScalarVolume};
use serde::{Deserialize, Serialize};

/// IATF hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IatfParams {
    /// Hidden-layer width of the three-layer perceptron.
    pub hidden: usize,
    /// Cumulative-histogram resolution.
    pub bins: usize,
    /// Training epochs over the key-frame entries.
    pub epochs: usize,
    pub learning_rate: f32,
    pub momentum: f32,
    pub seed: u64,
    /// If false, the cumulative-histogram input is zeroed — the ablation of
    /// the paper's central design choice (Section 4.2.1).
    pub use_cumhist: bool,
}

impl Default for IatfParams {
    fn default() -> Self {
        Self {
            hidden: 16,
            bins: 256,
            epochs: 600,
            learning_rate: 0.35,
            momentum: 0.9,
            seed: 0x1A7F,
            use_cumhist: true,
        }
    }
}

/// Collects user key frames and trains the adaptive transfer function.
#[derive(Debug, Clone)]
pub struct IatfBuilder {
    params: IatfParams,
    key_frames: Vec<(u32, TransferFunction1D)>,
}

impl IatfBuilder {
    pub fn new(params: IatfParams) -> Self {
        Self {
            params,
            key_frames: Vec::new(),
        }
    }

    /// Register a user-specified key-frame TF for series step `t`. The TF's
    /// domain should cover the series' global value range.
    pub fn add_key_frame(&mut self, t: u32, tf: TransferFunction1D) -> &mut Self {
        self.key_frames.push((t, tf));
        self
    }

    /// Assemble the training set from the key frames and the series' data
    /// distributions (one row per TF table entry per key frame). Generic over
    /// the frame source: only the key frames are paged in, one at a time —
    /// the paper's "only the key frames need to be in core" (§4.2.2).
    fn training_set<S: FrameSource + ?Sized>(&self, series: &S) -> TrainingSet {
        let (glo, ghi) = series.global_range().unwrap_or_else(|e| panic!("{e}"));
        let mut set = TrainingSet::new();
        for (t, tf) in &self.key_frames {
            let frame = series
                .frame_at_step(*t)
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or_else(|| panic!("key frame step {t} not in series"));
            let h = Histogram::of_values(frame.as_slice(), self.params.bins, glo, ghi);
            let ch = CumulativeHistogram::from_histogram(&h);
            let tn = series.normalized_time(*t);
            for i in 0..TF_ENTRIES {
                let v = tf.value_of_entry(i);
                let row = input_row(v, glo, ghi, &ch, tn, self.params.use_cumhist);
                set.add1(row.to_vec(), tf.table()[i]);
            }
        }
        set
    }

    /// Train the network to convergence and return the adaptive TF.
    /// Panics if no key frames were added.
    pub fn train<S: FrameSource + ?Sized>(&self, series: &S) -> Iatf {
        assert!(
            !self.key_frames.is_empty(),
            "IATF needs at least one key frame"
        );
        let mut inc = self.start_incremental(series);
        inc.step(self.params.epochs);
        self.finish(series, inc)
    }

    /// Begin idle-loop training (paper Section 4.2.2): returns an
    /// [`IncrementalTrainer`] pre-loaded with the key-frame samples. Drive it
    /// with `step(n)` between interactions, then call
    /// [`IatfBuilder::finish`].
    pub fn start_incremental<S: FrameSource + ?Sized>(&self, series: &S) -> IncrementalTrainer {
        let set = self.training_set(series);
        let net = Mlp::new(
            &[3, self.params.hidden, 1],
            Activation::Sigmoid,
            Activation::Sigmoid,
            self.params.seed,
        )
        .expect("IATF network shape is [3, hidden, 1] with hidden >= 1");
        let mut inc = IncrementalTrainer::new(
            net,
            TrainParams {
                learning_rate: self.params.learning_rate,
                momentum: self.params.momentum,
                seed: self.params.seed,
            },
        );
        inc.add_set(&set);
        inc
    }

    /// Wrap a (partially) trained network into a usable [`Iatf`].
    pub fn finish<S: FrameSource + ?Sized>(&self, series: &S, inc: IncrementalTrainer) -> Iatf {
        let (glo, ghi) = series.global_range().unwrap_or_else(|e| panic!("{e}"));
        let final_loss = inc.loss_history().last().copied();
        Iatf {
            net: inc.into_network(),
            domain: (glo, ghi),
            bins: self.params.bins,
            use_cumhist: self.params.use_cumhist,
            t_first: *series.steps().first().unwrap(),
            t_last: *series.steps().last().unwrap(),
            final_loss,
        }
    }
}

/// Network input row for a value/time query.
fn input_row(
    v: f32,
    glo: f32,
    ghi: f32,
    ch: &CumulativeHistogram,
    t_norm: f32,
    use_cumhist: bool,
) -> [f32; 3] {
    let span = ghi - glo;
    let vn = if span <= 0.0 { 0.0 } else { (v - glo) / span };
    let c = if use_cumhist {
        ch.fraction_at_or_below(v)
    } else {
        0.0
    };
    [vn, c, t_norm]
}

/// A trained Intelligent Adaptive Transfer Function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Iatf {
    net: Mlp,
    domain: (f32, f32),
    bins: usize,
    use_cumhist: bool,
    t_first: u32,
    t_last: u32,
    final_loss: Option<f32>,
}

impl Iatf {
    /// The global value domain the IATF was trained over.
    pub fn domain(&self) -> (f32, f32) {
        self.domain
    }

    /// Final training loss (mean MSE), if any training happened.
    pub fn final_loss(&self) -> Option<f32> {
        self.final_loss
    }

    /// Access the underlying network (e.g. for shipping to remote renderers).
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// Check the invariants a deserialized IATF must satisfy before use: a
    /// structurally sound 3-input/1-output network, at least one histogram
    /// bin, and a finite value domain. Artifact loaders call this so a
    /// corrupted session yields a typed error instead of a downstream panic
    /// (e.g. `Histogram::of_values` with zero bins).
    pub fn validate(&self) -> Result<(), String> {
        self.net.validate_shape()?;
        let sizes = self.net.layer_sizes();
        if sizes.first() != Some(&3) || sizes.last() != Some(&1) {
            return Err(format!(
                "IATF network must map 3 inputs to 1 output, got {sizes:?}"
            ));
        }
        if self.bins == 0 {
            return Err("IATF has zero histogram bins".to_string());
        }
        if !self.domain.0.is_finite() || !self.domain.1.is_finite() {
            return Err(format!("IATF domain {:?} is not finite", self.domain));
        }
        Ok(())
    }

    fn normalized_time(&self, t: u32) -> f32 {
        if self.t_last <= self.t_first {
            return 0.0;
        }
        ((t.max(self.t_first) - self.t_first) as f32 / (self.t_last - self.t_first) as f32)
            .clamp(0.0, 1.0)
    }

    /// Generate the concrete 1D transfer function for step `t` given that
    /// frame's data (computes the frame's cumulative histogram internally).
    pub fn generate(&self, t: u32, frame: &ScalarVolume) -> TransferFunction1D {
        let (glo, ghi) = self.domain;
        let h = Histogram::of_values(frame.as_slice(), self.bins, glo, ghi);
        let ch = CumulativeHistogram::from_histogram(&h);
        self.generate_with_hist(t, &ch)
    }

    /// Generate using a precomputed cumulative histogram (must be over the
    /// IATF's domain). This is the sub-second per-frame path of Section 5.
    pub fn generate_with_hist(&self, t: u32, ch: &CumulativeHistogram) -> TransferFunction1D {
        let (glo, ghi) = self.domain;
        let tn = self.normalized_time(t);
        let mut scratch = ifet_nn::mlp::Scratch::for_net(&self.net);
        TransferFunction1D::from_fn(glo, ghi, |v| {
            let row = input_row(v, glo, ghi, ch, tn, self.use_cumhist);
            self.net.predict1(&row, &mut scratch)
        })
    }

    /// Opacity for a single `(value, time)` query against a frame histogram.
    pub fn opacity_at(&self, v: f32, t: u32, ch: &CumulativeHistogram) -> f32 {
        let (glo, ghi) = self.domain;
        let tn = self.normalized_time(t);
        let mut scratch = ifet_nn::mlp::Scratch::for_net(&self.net);
        let row = input_row(v, glo, ghi, ch, tn, self.use_cumhist);
        self.net.predict1(&row, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifet_volume::{Dims3, ScalarVolume, TimeSeries};

    /// Per-step global value shifts: deliberately *irregular* in time (the
    /// paper: "the range of the data values can vary so dramatically that we
    /// can easily lose track of features"). A net seeing only (value, time)
    /// at the two end key frames cannot predict the interior shifts; the
    /// cumulative histogram tracks them exactly.
    const SHIFTS: [f32; 5] = [0.0, 0.35, 0.1, 0.3, 0.05];
    const STEPS: [u32; 5] = [0, 25, 50, 75, 100];

    /// A series of uniform value ramps pushed up by the irregular SHIFTS:
    /// values drift, distribution shape (and thus cumhist positions) do not.
    fn drifting_series() -> TimeSeries {
        let d = Dims3::cube(16);
        let n = d.len();
        let frames = (0..5usize)
            .map(|k| {
                let vol = ScalarVolume::from_vec(
                    d,
                    (0..n).map(|i| i as f32 / n as f32 + SHIFTS[k]).collect(),
                );
                (STEPS[k], vol)
            })
            .collect();
        TimeSeries::from_frames(frames)
    }

    /// The feature of interest occupies cumulative fractions [0.6, 0.75] of
    /// every frame, i.e. raw values `[0.6 + shift, 0.75 + shift]`.
    fn feature_band(k: usize) -> (f32, f32) {
        (0.6 + SHIFTS[k], 0.75 + SHIFTS[k])
    }

    /// Key-frame TF capturing the feature band of frame `k`.
    fn key_tf(series: &TimeSeries, k: usize) -> TransferFunction1D {
        let (glo, ghi) = series.global_range();
        let (lo, hi) = feature_band(k);
        TransferFunction1D::band(glo, ghi, lo, hi, 1.0)
    }

    /// Three key frames, as in the paper's Figure 4. The middle key frame
    /// (t = 75, shift 0.3) makes the raw-value cue inconsistent across
    /// training so the network learns to rely on the cumulative histogram.
    fn trained_iatf(series: &TimeSeries) -> Iatf {
        let mut b = IatfBuilder::new(IatfParams {
            epochs: 800,
            ..Default::default()
        });
        b.add_key_frame(0, key_tf(series, 0));
        b.add_key_frame(75, key_tf(series, 3));
        b.add_key_frame(100, key_tf(series, 4));
        b.train(series)
    }

    #[test]
    fn training_converges() {
        let s = drifting_series();
        let iatf = trained_iatf(&s);
        let loss = iatf.final_loss().unwrap();
        assert!(loss < 0.02, "IATF training loss too high: {loss}");
    }

    #[test]
    fn reproduces_key_frames() {
        let s = drifting_series();
        let iatf = trained_iatf(&s);
        for (t, k) in [(0u32, 0usize), (100, 4)] {
            let tf = iatf.generate(t, s.frame_at_step(t).unwrap());
            let (wlo, whi) = feature_band(k);
            // Compare supports (where opacity > 0.5).
            let (glo2, ghi2) = tf.support(0.5).expect("IATF lost the key-frame band");
            assert!((glo2 - wlo).abs() < 0.12, "t={t}: {glo2} vs {wlo}");
            assert!((ghi2 - whi).abs() < 0.12, "t={t}: {ghi2} vs {whi}");
        }
    }

    #[test]
    fn adapts_at_intermediate_time_where_lerp_fails() {
        // The Figure 3 experiment in miniature: at t = 25 the whole
        // distribution jumped up by 0.35, far off the straight line between
        // the two key frames.
        let s = drifting_series();
        let iatf = trained_iatf(&s);

        let (wlo, whi) = feature_band(1); // true band at t = 25: [0.95, 1.10]
        let want_center = 0.5 * (wlo + whi);
        let tf25 = iatf.generate(25, s.frame_at_step(25).unwrap());
        let (blo, bhi) = tf25.support(0.5).expect("IATF produced no band at t=25");
        let center = 0.5 * (blo + bhi);
        assert!(
            (center - want_center).abs() < 0.1,
            "IATF band center {center}, want ~{want_center} (band [{blo}, {bhi}])"
        );

        // Linear interpolation of the bracketing key frames (t=0 and t=75):
        // keeps ghost bands at the key-frame positions instead of following
        // the jumped distribution.
        let lerp = TransferFunction1D::lerp(&key_tf(&s, 0), &key_tf(&s, 3), 1.0 / 3.0);
        assert!(
            lerp.opacity_at(want_center) < 0.6,
            "lerp should miss the true band at {want_center}"
        );
        assert!(
            lerp.opacity_at(0.67) > 0.4,
            "lerp keeps a ghost at the old band position"
        );
    }

    #[test]
    fn opacity_values_are_valid() {
        let s = drifting_series();
        let iatf = trained_iatf(&s);
        let tf = iatf.generate(75, s.frame_at_step(75).unwrap());
        for &o in tf.table() {
            assert!((0.0..=1.0).contains(&o));
        }
    }

    #[test]
    fn deterministic() {
        let s = drifting_series();
        let a = trained_iatf(&s).generate(50, s.frame_at_step(50).unwrap());
        let b = trained_iatf(&s).generate(50, s.frame_at_step(50).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn validate_accepts_trained_rejects_corrupt() {
        let s = drifting_series();
        let mut iatf = trained_iatf(&s);
        assert!(iatf.validate().is_ok());
        iatf.bins = 0;
        assert!(iatf.validate().is_err());
        iatf.bins = 256;
        iatf.domain = (0.0, f32::NAN);
        assert!(iatf.validate().is_err());
    }

    #[test]
    #[should_panic]
    fn no_key_frames_panics() {
        let s = drifting_series();
        IatfBuilder::new(IatfParams::default()).train(&s);
    }

    #[test]
    #[should_panic]
    fn unknown_key_frame_step_panics() {
        let s = drifting_series();
        let mut b = IatfBuilder::new(IatfParams::default());
        b.add_key_frame(13, key_tf(&s, 0));
        b.train(&s);
    }

    #[test]
    fn incremental_training_path() {
        let s = drifting_series();
        let mut b = IatfBuilder::new(IatfParams::default());
        b.add_key_frame(0, key_tf(&s, 0));
        b.add_key_frame(100, key_tf(&s, 4));
        let mut inc = b.start_incremental(&s);
        // Idle-loop bursts with intermediate queries.
        inc.step(50);
        let early = b.finish(&s, inc.clone());
        let _ = early.generate(50, s.frame_at_step(50).unwrap());
        inc.step(750);
        let late = b.finish(&s, inc);
        assert!(late.final_loss().unwrap() <= early.final_loss().unwrap() + 1e-3);
    }

    #[test]
    fn ablation_without_cumhist_cannot_adapt() {
        // With the cumulative-histogram input zeroed, the network sees the
        // same (value, time) rows but must memorize per-time bands; at an
        // unseen intermediate time it cannot place the band correctly
        // — the paper's Section 4.2.1 argument.
        let s = drifting_series();
        let mut b = IatfBuilder::new(IatfParams {
            use_cumhist: false,
            epochs: 800,
            ..Default::default()
        });
        b.add_key_frame(0, key_tf(&s, 0));
        b.add_key_frame(75, key_tf(&s, 3));
        b.add_key_frame(100, key_tf(&s, 4));
        let ablated = b.train(&s);

        let full = trained_iatf(&s);
        // Score both against the true band at t=25 by integrated error.
        let truth = key_tf(&s, 1);
        let err = |tf: &TransferFunction1D| -> f32 {
            tf.table()
                .iter()
                .zip(truth.table())
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
                / TF_ENTRIES as f32
        };
        let e_full = err(&full.generate(25, s.frame_at_step(25).unwrap()));
        let e_abl = err(&ablated.generate(25, s.frame_at_step(25).unwrap()));
        assert!(
            e_full < e_abl * 0.7,
            "cumhist input should help substantially: full {e_full} vs ablated {e_abl}"
        );
    }
}
