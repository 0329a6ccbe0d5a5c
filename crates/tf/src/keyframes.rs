//! Key-frame selection support.
//!
//! The paper's related work (Jankun-Kelly & Ma \[9\]) generates "a minimum set
//! of transfer functions to visualize time-varying volume data" and
//! categorizes temporal behaviour into "regular, periodic, and random/hot
//! spot". This module provides the data-driven side of that workflow for the
//! IATF: measure how much the value distribution changes between frames,
//! classify the sequence's behaviour, and *suggest* which time steps the
//! user should paint key frames on — the frames where a TF trained elsewhere
//! would drift most.

use ifet_volume::{FrameSource, Histogram};
use serde::{Deserialize, Serialize};

/// L1 distance between two normalized histograms (total variation × 2).
/// Saturates at 2 once supports are disjoint — fine for "did it change",
/// blind to "by how much". Use [`emd_distance`] when magnitude matters.
pub fn histogram_distance(a: &Histogram, b: &Histogram) -> f64 {
    assert_eq!(a.bins(), b.bins(), "histogram bin counts differ");
    let na = a.normalized();
    let nb = b.normalized();
    na.iter().zip(&nb).map(|(x, y)| (x - y).abs()).sum()
}

/// 1D Wasserstein (earth mover's) distance between normalized histograms,
/// normalized so that moving all mass across the whole range equals 1.
/// Unlike L1, this keeps growing with the *size* of a distribution shift,
/// which is what key-frame placement needs.
pub fn emd_distance(a: &Histogram, b: &Histogram) -> f64 {
    assert_eq!(a.bins(), b.bins(), "histogram bin counts differ");
    let na = a.normalized();
    let nb = b.normalized();
    let mut cdf_gap = 0.0f64;
    let mut acc = 0.0f64;
    for (x, y) in na.iter().zip(&nb) {
        acc += x - y;
        cdf_gap += acc.abs();
    }
    cdf_gap / a.bins() as f64
}

/// Per-frame histograms over the series' global range (comparable bins).
/// Frames stream through one at a time, so a paged source never exceeds its
/// residency bound here.
fn series_histograms<S: FrameSource + ?Sized>(series: &S, bins: usize) -> Vec<Histogram> {
    let (lo, hi) = series.global_range().unwrap_or_else(|e| panic!("{e}"));
    (0..series.len())
        .map(|i| {
            let f = series.frame(i).unwrap_or_else(|e| panic!("{e}"));
            Histogram::of_values(f.as_slice(), bins, lo, hi)
        })
        .collect()
}

/// Jankun-Kelly & Ma's behaviour categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TemporalBehavior {
    /// Distribution barely changes: one transfer function suffices.
    Regular,
    /// Distribution changes then (approximately) revisits earlier states.
    Periodic,
    /// Distribution keeps moving to new states: needs adaptive treatment.
    Drifting,
}

/// Classify a series' temporal behaviour from its histogram trajectory.
///
/// - total change below `regular_tol` → `Regular`;
/// - otherwise, if some later frame returns close to the first frame's
///   distribution (within half the maximum excursion) → `Periodic`;
/// - otherwise `Drifting`.
pub fn classify_behavior<S: FrameSource + ?Sized>(
    series: &S,
    bins: usize,
    regular_tol: f64,
) -> TemporalBehavior {
    if series.len() < 2 {
        return TemporalBehavior::Regular;
    }
    let hs = series_histograms(series, bins);
    let from_first: Vec<f64> = hs[1..]
        .iter()
        .map(|h| histogram_distance(&hs[0], h))
        .collect();
    let max_exc = from_first.iter().cloned().fold(0.0, f64::max);
    if max_exc < regular_tol {
        return TemporalBehavior::Regular;
    }
    // Did the excursion peak strictly inside the sequence and come back?
    let last = *from_first.last().unwrap();
    if last < 0.5 * max_exc {
        TemporalBehavior::Periodic
    } else {
        TemporalBehavior::Drifting
    }
}

/// Suggest up to `max_keys` time steps for the user to paint key frames on.
///
/// Greedy farthest-point selection in histogram space: start with the first
/// and last frames (the IATF's temporal anchors), then repeatedly add the
/// frame whose distribution is farthest from every already-chosen frame,
/// stopping early when the farthest remaining distance drops below
/// `min_gain`. Returned steps are sorted.
pub fn suggest_key_frames<S: FrameSource + ?Sized>(
    series: &S,
    bins: usize,
    max_keys: usize,
    min_gain: f64,
) -> Vec<u32> {
    assert!(max_keys >= 1);
    let n = series.len();
    if n == 1 || max_keys == 1 {
        return vec![series.steps()[0]];
    }
    let hs = series_histograms(series, bins);
    let mut chosen: Vec<usize> = vec![0, n - 1];
    while chosen.len() < max_keys.min(n) {
        // Farthest-point (k-center) selection under EMD: pick the frame
        // whose distribution is least covered by the chosen keys.
        let (best_idx, best_dist) = (0..n)
            .filter(|i| !chosen.contains(i))
            .map(|i| {
                let d = chosen
                    .iter()
                    .map(|&c| emd_distance(&hs[i], &hs[c]))
                    .fold(f64::INFINITY, f64::min);
                (i, d)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap_or((0, 0.0));
        if best_dist < min_gain {
            break;
        }
        chosen.push(best_idx);
    }
    chosen.sort_unstable();
    chosen.into_iter().map(|i| series.steps()[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifet_volume::{Dims3, ScalarVolume, TimeSeries};

    fn shifted_series(shifts: &[f32]) -> TimeSeries {
        let d = Dims3::cube(10);
        let n = d.len();
        TimeSeries::from_frames(
            shifts
                .iter()
                .enumerate()
                .map(|(k, &s)| {
                    (
                        k as u32 * 10,
                        ScalarVolume::from_vec(
                            d,
                            (0..n).map(|i| i as f32 / n as f32 + s).collect(),
                        ),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn histogram_distance_basics() {
        let a = Histogram::of_values(&[0.0, 0.1, 0.2], 8, 0.0, 1.0);
        assert_eq!(histogram_distance(&a, &a), 0.0);
        let b = Histogram::of_values(&[0.8, 0.9, 1.0], 8, 0.0, 1.0);
        let d = histogram_distance(&a, &b);
        assert!(
            d > 1.9,
            "disjoint distributions should be ~2 apart, got {d}"
        );
    }

    #[test]
    fn emd_grows_with_shift_where_l1_saturates() {
        let a = Histogram::of_values(&[0.0, 0.05, 0.1], 64, 0.0, 1.0);
        let near = Histogram::of_values(&[0.3, 0.35, 0.4], 64, 0.0, 1.0);
        let far = Histogram::of_values(&[0.8, 0.85, 0.9], 64, 0.0, 1.0);
        // L1 is saturated for both (disjoint supports)...
        assert!((histogram_distance(&a, &near) - histogram_distance(&a, &far)).abs() < 1e-9);
        // ...but EMD still distinguishes them.
        assert!(emd_distance(&a, &far) > 2.0 * emd_distance(&a, &near));
        assert_eq!(emd_distance(&a, &a), 0.0);
    }

    #[test]
    fn emd_is_symmetric() {
        let a = Histogram::of_values(&[0.1, 0.2, 0.3], 32, 0.0, 1.0);
        let b = Histogram::of_values(&[0.6, 0.7], 32, 0.0, 1.0);
        assert!((emd_distance(&a, &b) - emd_distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn constant_series_is_regular() {
        let s = shifted_series(&[0.1, 0.1, 0.1, 0.1]);
        assert_eq!(classify_behavior(&s, 32, 0.1), TemporalBehavior::Regular);
    }

    #[test]
    fn monotone_drift_is_drifting() {
        let s = shifted_series(&[0.0, 0.2, 0.4, 0.6]);
        assert_eq!(classify_behavior(&s, 32, 0.1), TemporalBehavior::Drifting);
    }

    #[test]
    fn out_and_back_is_periodic() {
        let s = shifted_series(&[0.0, 0.4, 0.8, 0.4, 0.02]);
        assert_eq!(classify_behavior(&s, 32, 0.1), TemporalBehavior::Periodic);
    }

    #[test]
    fn single_frame_is_regular() {
        let s = shifted_series(&[0.3]);
        assert_eq!(classify_behavior(&s, 32, 0.1), TemporalBehavior::Regular);
    }

    #[test]
    fn suggestions_include_endpoints() {
        let s = shifted_series(&[0.0, 0.1, 0.2, 0.3, 0.4]);
        let keys = suggest_key_frames(&s, 32, 3, 0.0);
        assert!(keys.contains(&0));
        assert!(keys.contains(&40));
        assert_eq!(keys.len(), 3);
    }

    #[test]
    fn suggestions_find_the_anomalous_frame() {
        // Frames drift linearly except one outlier; the third key frame
        // should be the outlier (farthest from the endpoints).
        let s = shifted_series(&[0.0, 0.05, 0.6, 0.15, 0.2]);
        let keys = suggest_key_frames(&s, 64, 3, 0.0);
        assert!(keys.contains(&20), "outlier frame not suggested: {keys:?}");
    }

    #[test]
    fn min_gain_stops_early_on_regular_data() {
        let s = shifted_series(&[0.1, 0.1, 0.1, 0.1, 0.1]);
        let keys = suggest_key_frames(&s, 32, 5, 0.05);
        assert_eq!(
            keys.len(),
            2,
            "regular data needs only the anchors: {keys:?}"
        );
    }

    #[test]
    fn max_keys_one_returns_first() {
        let s = shifted_series(&[0.0, 0.5]);
        assert_eq!(suggest_key_frames(&s, 32, 1, 0.0), vec![0]);
    }

    #[test]
    fn suggestions_are_sorted_steps() {
        let s = shifted_series(&[0.0, 0.3, 0.1, 0.5, 0.2, 0.6]);
        let keys = suggest_key_frames(&s, 32, 4, 0.0);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
