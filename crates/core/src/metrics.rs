//! Extraction-quality metrics.
//!
//! The paper's evaluation is visual; to make its claims measurable, every
//! extraction experiment in this repo is scored against the generators'
//! ground-truth masks with the standard set-overlap metrics.

use ifet_volume::Mask3;
use serde::{Deserialize, Serialize};

/// Precision / recall / F1 / Jaccard of a predicted mask vs ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scores {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub jaccard: f64,
}

impl Scores {
    /// Score a prediction against ground truth.
    pub fn of(pred: &Mask3, truth: &Mask3) -> Self {
        Self {
            precision: pred.precision(truth),
            recall: pred.recall(truth),
            f1: pred.f1(truth),
            jaccard: pred.jaccard(truth),
        }
    }

    /// Mean of several score sets (e.g. across time steps).
    pub fn mean(scores: &[Scores]) -> Scores {
        assert!(!scores.is_empty());
        let n = scores.len() as f64;
        Scores {
            precision: scores.iter().map(|s| s.precision).sum::<f64>() / n,
            recall: scores.iter().map(|s| s.recall).sum::<f64>() / n,
            f1: scores.iter().map(|s| s.f1).sum::<f64>() / n,
            jaccard: scores.iter().map(|s| s.jaccard).sum::<f64>() / n,
        }
    }
}

impl std::fmt::Display for Scores {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P={:.3} R={:.3} F1={:.3} J={:.3}",
            self.precision, self.recall, self.f1, self.jaccard
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifet_volume::Dims3;

    #[test]
    fn perfect_prediction_scores_one() {
        let d = Dims3::cube(4);
        let m = Mask3::from_fn(d, |x, _, _| x < 2);
        let s = Scores::of(&m, &m);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1, 1.0);
        assert_eq!(s.jaccard, 1.0);
    }

    #[test]
    fn known_values() {
        let d = Dims3::new(4, 1, 1);
        let truth = Mask3::from_fn(d, |x, _, _| x < 2);
        let pred = Mask3::from_fn(d, |x, _, _| x < 3);
        let s = Scores::of(&pred, &truth);
        assert!((s.precision - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.recall, 1.0);
        assert!((s.f1 - 0.8).abs() < 1e-12);
        assert!((s.jaccard - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_averages() {
        let a = Scores {
            precision: 1.0,
            recall: 0.0,
            f1: 0.5,
            jaccard: 0.25,
        };
        let b = Scores {
            precision: 0.0,
            recall: 1.0,
            f1: 0.5,
            jaccard: 0.75,
        };
        let m = Scores::mean(&[a, b]);
        assert_eq!(m.precision, 0.5);
        assert_eq!(m.recall, 0.5);
        assert_eq!(m.f1, 0.5);
        assert_eq!(m.jaccard, 0.5);
    }

    #[test]
    fn display_is_compact() {
        let s = Scores {
            precision: 0.5,
            recall: 0.25,
            f1: 0.333,
            jaccard: 0.2,
        };
        let txt = s.to_string();
        assert!(txt.contains("F1=0.333"));
    }
}
