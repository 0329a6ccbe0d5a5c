//! Per-feature attribute measurement.
//!
//! Reinders et al. (cited in Section 2) track features through "basic
//! attributes"; we compute the standard set for each connected component so
//! tracks can be summarized and verified quantitatively.

#![allow(clippy::needless_range_loop)] // indexing fixed-size [f64; 3] axes
use crate::components::ComponentLabels;
use ifet_volume::ScalarVolume;
use serde::{Deserialize, Serialize};

/// Measured attributes of one feature (connected component).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureAttributes {
    /// Component label this was measured from.
    pub label: u32,
    /// Voxel count.
    pub volume: usize,
    /// Sum of scalar values over the feature.
    pub mass: f64,
    /// Value-weighted centroid (falls back to geometric when mass ~ 0).
    pub centroid: [f64; 3],
    /// Inclusive bounding box `(min, max)` corners.
    pub bbox: ([usize; 3], [usize; 3]),
}

impl FeatureAttributes {
    /// Measure every component of a labeling against the underlying data.
    /// Returns attributes indexed by label - 1.
    pub fn measure_all(labels: &ComponentLabels, data: &ScalarVolume) -> Vec<FeatureAttributes> {
        assert_eq!(labels.dims(), data.dims());
        let n = labels.count() as usize;
        let mut out: Vec<FeatureAttributes> = (0..n)
            .map(|i| FeatureAttributes {
                label: i as u32 + 1,
                volume: 0,
                mass: 0.0,
                centroid: [0.0; 3],
                bbox: ([usize::MAX; 3], [0; 3]),
            })
            .collect();
        let mut weighted: Vec<[f64; 3]> = vec![[0.0; 3]; n];
        let mut unweighted: Vec<[f64; 3]> = vec![[0.0; 3]; n];

        // Runs in scan order visit the voxels in the order of a full x-y-z
        // sweep, so every per-label f64 sum adds its terms in that order.
        let d = labels.dims();
        let values = data.as_slice();
        for r in labels.runs() {
            let li = (r.label - 1) as usize;
            let row = r.row as usize;
            let (y, z) = (row % d.ny, row / d.ny);
            let a = &mut out[li];
            for x in r.x0 as usize..r.x1 as usize {
                let v = values[row * d.nx + x] as f64;
                a.volume += 1;
                a.mass += v;
                let c = [x, y, z];
                for k in 0..3 {
                    weighted[li][k] += v * c[k] as f64;
                    unweighted[li][k] += c[k] as f64;
                    a.bbox.0[k] = a.bbox.0[k].min(c[k]);
                    a.bbox.1[k] = a.bbox.1[k].max(c[k]);
                }
            }
        }

        for (i, a) in out.iter_mut().enumerate() {
            if a.mass.abs() > 1e-9 {
                for k in 0..3 {
                    a.centroid[k] = weighted[i][k] / a.mass;
                }
            } else if a.volume > 0 {
                for k in 0..3 {
                    a.centroid[k] = unweighted[i][k] / a.volume as f64;
                }
            }
        }
        out
    }

    /// Extent of the bounding box along each axis (inclusive voxel counts).
    pub fn bbox_extent(&self) -> [usize; 3] {
        [
            self.bbox.1[0] - self.bbox.0[0] + 1,
            self.bbox.1[1] - self.bbox.0[1] + 1,
            self.bbox.1[2] - self.bbox.0[2] + 1,
        ]
    }

    /// Euclidean distance between this feature's centroid and another's —
    /// the per-step travel used in track summaries.
    pub fn centroid_distance(&self, other: &FeatureAttributes) -> f64 {
        self.centroid
            .iter()
            .zip(&other.centroid)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{ComponentLabels, Connectivity};
    use ifet_volume::{Dims3, Mask3};

    fn bar_scene() -> (ComponentLabels, ScalarVolume) {
        let d = Dims3::cube(8);
        let mut m = Mask3::empty(d);
        for x in 2..6 {
            m.set(x, 3, 3, true);
        }
        let data = ScalarVolume::from_fn(d, |x, _, _| x as f32);
        (ComponentLabels::label(&m, Connectivity::Six), data)
    }

    #[test]
    fn measures_volume_and_mass() {
        let (l, data) = bar_scene();
        let attrs = FeatureAttributes::measure_all(&l, &data);
        assert_eq!(attrs.len(), 1);
        let a = &attrs[0];
        assert_eq!(a.volume, 4);
        assert_eq!(a.mass, (2 + 3 + 4 + 5) as f64);
    }

    #[test]
    fn weighted_centroid_leans_toward_heavy_end() {
        let (l, data) = bar_scene();
        let a = &FeatureAttributes::measure_all(&l, &data)[0];
        // Geometric center of x = 2..=5 is 3.5; mass grows with x, so the
        // weighted centroid is to the right of it.
        assert!(a.centroid[0] > 3.5);
        assert_eq!(a.centroid[1], 3.0);
    }

    #[test]
    fn bbox_is_tight() {
        let (l, data) = bar_scene();
        let a = &FeatureAttributes::measure_all(&l, &data)[0];
        assert_eq!(a.bbox, ([2, 3, 3], [5, 3, 3]));
        assert_eq!(a.bbox_extent(), [4, 1, 1]);
    }

    #[test]
    fn zero_mass_falls_back_to_geometric_centroid() {
        let d = Dims3::cube(5);
        let mut m = Mask3::empty(d);
        m.set(1, 1, 1, true);
        m.set(3, 1, 1, true);
        m.set(2, 1, 1, true);
        let l = ComponentLabels::label(&m, Connectivity::Six);
        let data = ScalarVolume::zeros(d);
        let a = &FeatureAttributes::measure_all(&l, &data)[0];
        assert_eq!(a.centroid, [2.0, 1.0, 1.0]);
    }

    #[test]
    fn centroid_distance() {
        let (l, data) = bar_scene();
        let a = FeatureAttributes::measure_all(&l, &data)[0].clone();
        let mut b = a.clone();
        b.centroid = [a.centroid[0] + 3.0, a.centroid[1] + 4.0, a.centroid[2]];
        assert!((a.centroid_distance(&b) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_components_measured_independently() {
        let d = Dims3::cube(8);
        let mut m = Mask3::empty(d);
        m.set(0, 0, 0, true);
        m.set(7, 7, 7, true);
        let l = ComponentLabels::label(&m, Connectivity::Six);
        let data = ScalarVolume::filled(d, 2.0);
        let attrs = FeatureAttributes::measure_all(&l, &data);
        assert_eq!(attrs.len(), 2);
        for a in &attrs {
            assert_eq!(a.volume, 1);
            assert_eq!(a.mass, 2.0);
        }
    }
}
