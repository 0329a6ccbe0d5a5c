//! Painted training samples and the scripted painting oracle.
//!
//! In the paper the scientist paints on "three axis-aligned slices" with
//! "brushes of different color" (Section 6); each painted voxel becomes a
//! training sample. [`PaintSet`] is the headless representation of those
//! strokes. [`PaintOracle`] is the scripted stand-in for the scientist: it
//! paints from a ground-truth mask, slice by slice, with configurable sample
//! counts and label noise, so experiments are reproducible.

use ifet_volume::{Dims3, Mask3};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Painted voxels for one frame: positives (the feature) and negatives
/// (explicitly-not-the-feature), each tagged with the frame's step label.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PaintSet {
    /// Step label of the frame these paints refer to.
    pub step: u32,
    /// Voxels painted as "feature of interest".
    pub positives: Vec<(usize, usize, usize)>,
    /// Voxels painted as "not the feature".
    pub negatives: Vec<(usize, usize, usize)>,
}

impl PaintSet {
    pub fn new(step: u32) -> Self {
        Self {
            step,
            positives: Vec::new(),
            negatives: Vec::new(),
        }
    }

    /// Paint a single voxel.
    pub fn paint(&mut self, voxel: (usize, usize, usize), is_feature: bool) {
        if is_feature {
            self.positives.push(voxel);
        } else {
            self.negatives.push(voxel);
        }
    }

    pub fn len(&self) -> usize {
        self.positives.len() + self.negatives.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate `(voxel, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize, usize), f32)> + '_ {
        self.positives
            .iter()
            .map(|&v| (v, 1.0))
            .chain(self.negatives.iter().map(|&v| (v, 0.0)))
    }
}

/// Why [`PaintOracle::try_paint_from_truth`] could not paint a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaintError {
    /// The truth mask has no voxel on the allowed slices of `step`.
    NoPositives { step: u32 },
    /// The truth mask covers every allowed slice of `step`.
    NoNegatives { step: u32 },
}

impl std::fmt::Display for PaintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PaintError::NoPositives { step } => write!(
                f,
                "cannot paint positives on step {step}: truth empty on allowed slices"
            ),
            PaintError::NoNegatives { step } => write!(
                f,
                "cannot paint negatives on step {step}: truth covers all allowed slices"
            ),
        }
    }
}

impl std::error::Error for PaintError {}

/// A scripted "scientist" that paints training samples from ground truth.
#[derive(Debug, Clone)]
pub struct PaintOracle {
    rng: SmallRng,
    /// Probability of flipping a label (simulates imprecise painting).
    pub label_noise: f32,
    /// Paint only on every `slice_stride`-th z-slice (mimics slice-based UI;
    /// 1 = anywhere).
    pub slice_stride: usize,
}

impl PaintOracle {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            label_noise: 0.0,
            slice_stride: 4,
        }
    }

    /// Paint `n_pos` positive and `n_neg` negative voxels for one frame,
    /// drawn uniformly from the truth mask / its complement on the allowed
    /// slices. Panics if the mask (or complement) is empty on those slices;
    /// [`Self::try_paint_from_truth`] reports that as an error instead.
    pub fn paint_from_truth(
        &mut self,
        step: u32,
        truth: &Mask3,
        n_pos: usize,
        n_neg: usize,
    ) -> PaintSet {
        self.try_paint_from_truth(step, truth, n_pos, n_neg)
            .unwrap_or_else(|e| panic!("oracle {e}"))
    }

    /// [`Self::paint_from_truth`], failing with a [`PaintError`] (and
    /// drawing nothing) when the truth mask or its complement has no voxel
    /// on the allowed slices.
    pub fn try_paint_from_truth(
        &mut self,
        step: u32,
        truth: &Mask3,
        n_pos: usize,
        n_neg: usize,
    ) -> Result<PaintSet, PaintError> {
        let d = truth.dims();
        let allowed = |z: usize| z % self.slice_stride.max(1) == 0;

        let pos_pool: Vec<_> = truth.set_coords().filter(|&(_, _, z)| allowed(z)).collect();
        let neg_pool: Vec<_> = all_coords(d)
            .filter(|&(x, y, z)| allowed(z) && !truth.get(x, y, z))
            .collect();
        if pos_pool.is_empty() {
            return Err(PaintError::NoPositives { step });
        }
        if neg_pool.is_empty() {
            return Err(PaintError::NoNegatives { step });
        }

        let mut set = PaintSet::new(step);
        for _ in 0..n_pos {
            let v = pos_pool[self.rng.gen_range(0..pos_pool.len())];
            set.paint(v, !self.flip());
        }
        for _ in 0..n_neg {
            let v = neg_pool[self.rng.gen_range(0..neg_pool.len())];
            set.paint(v, self.flip());
        }
        Ok(set)
    }

    fn flip(&mut self) -> bool {
        self.label_noise > 0.0 && self.rng.gen::<f32>() < self.label_noise
    }
}

fn all_coords(d: Dims3) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..d.nz).flat_map(move |z| (0..d.ny).flat_map(move |y| (0..d.nx).map(move |x| (x, y, z))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ball_mask(n: usize, r: f32) -> Mask3 {
        let c = (n as f32 - 1.0) / 2.0;
        Mask3::from_fn(Dims3::cube(n), |x, y, z| {
            ((x as f32 - c).powi(2) + (y as f32 - c).powi(2) + (z as f32 - c).powi(2)).sqrt() <= r
        })
    }

    #[test]
    fn manual_painting() {
        let mut p = PaintSet::new(5);
        p.paint((1, 2, 3), true);
        for x in 2..=5 {
            p.paint((x, 4, 0), false);
        }
        assert_eq!(p.positives.len(), 1);
        assert_eq!(p.negatives.len(), 4);
        assert_eq!(p.len(), 5);
        let labels: Vec<f32> = p.iter().map(|(_, l)| l).collect();
        assert_eq!(labels[0], 1.0);
        assert!(labels[1..].iter().all(|&l| l == 0.0));
    }

    #[test]
    fn oracle_paints_correct_labels() {
        let truth = ball_mask(16, 5.0);
        let mut o = PaintOracle::new(1);
        o.slice_stride = 1;
        let set = o.paint_from_truth(7, &truth, 30, 30);
        assert_eq!(set.step, 7);
        assert_eq!(set.positives.len(), 30);
        assert_eq!(set.negatives.len(), 30);
        for &(x, y, z) in &set.positives {
            assert!(truth.get(x, y, z));
        }
        for &(x, y, z) in &set.negatives {
            assert!(!truth.get(x, y, z));
        }
    }

    #[test]
    fn oracle_respects_slice_stride() {
        let truth = ball_mask(16, 6.0);
        let mut o = PaintOracle::new(2);
        o.slice_stride = 4;
        let set = o.paint_from_truth(0, &truth, 20, 20);
        for ((_, _, z), _) in set.iter() {
            assert_eq!(z % 4, 0, "painted off an allowed slice");
        }
    }

    #[test]
    fn oracle_label_noise_flips_some() {
        let truth = ball_mask(16, 5.0);
        let mut o = PaintOracle::new(3);
        o.slice_stride = 1;
        o.label_noise = 0.5;
        let set = o.paint_from_truth(0, &truth, 200, 200);
        // With 50% noise, a good chunk of "positives" land outside the truth.
        let wrong_pos = set
            .positives
            .iter()
            .filter(|&&(x, y, z)| !truth.get(x, y, z))
            .count();
        assert!(wrong_pos > 20, "noise had no effect: {wrong_pos}");
    }

    #[test]
    fn oracle_is_deterministic() {
        let truth = ball_mask(12, 4.0);
        let a = PaintOracle::new(9).paint_from_truth(0, &truth, 10, 10);
        let b = PaintOracle::new(9).paint_from_truth(0, &truth, 10, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn try_paint_reports_the_empty_side_and_step() {
        let d = Dims3::cube(8);
        let mut o = PaintOracle::new(0);
        assert_eq!(
            o.try_paint_from_truth(3, &Mask3::empty(d), 1, 1),
            Err(PaintError::NoPositives { step: 3 })
        );
        let full = Mask3::from_fn(d, |_, _, _| true);
        let err = o.try_paint_from_truth(5, &full, 1, 1).unwrap_err();
        assert_eq!(err, PaintError::NoNegatives { step: 5 });
        assert!(err.to_string().contains("step 5"), "{err}");
        // A failed call draws nothing: the stream matches a fresh oracle's.
        let truth = ball_mask(12, 4.0);
        assert_eq!(
            o.try_paint_from_truth(0, &truth, 10, 10).unwrap(),
            PaintOracle::new(0).paint_from_truth(0, &truth, 10, 10)
        );
    }

    #[test]
    #[should_panic]
    fn oracle_empty_truth_panics() {
        let truth = Mask3::empty(Dims3::cube(8));
        PaintOracle::new(0).paint_from_truth(0, &truth, 1, 1);
    }
}
