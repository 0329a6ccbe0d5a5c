//! Per-voxel feature vectors.
//!
//! "The trained network in fact takes as input a feature vector which
//! consists of data values of the feature, neighborhood information, and the
//! time step number" (Section 4.3). The user may drop properties they
//! consider unimportant (Section 6), shrinking the network.

use ifet_volume::shell::ShellOffsets;
use ifet_volume::ScalarVolume;
use serde::{Deserialize, Serialize};

/// How the spherical-shell neighborhood enters the feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShellMode {
    /// No neighborhood information.
    None,
    /// Summary statistics of the shell: mean, min, max, stddev (4 features).
    Stats,
    /// `count` raw shell samples on a Fibonacci sphere (count features).
    /// This is the paper's "voxels a fixed distance away" descriptor.
    Samples { count: usize },
}

/// Which data properties make up a voxel's feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureSpec {
    /// Include the voxel's own scalar value.
    pub value: bool,
    /// Neighborhood shell configuration.
    pub shell: ShellMode,
    /// Shell radius in voxels (ignored for `ShellMode::None`).
    pub shell_radius: f32,
    /// Include the voxel's normalized (x, y, z) position (3 features) —
    /// the "location" property of Section 4.3.
    pub position: bool,
    /// Include the normalized time step (1 feature).
    pub time: bool,
}

impl Default for FeatureSpec {
    fn default() -> Self {
        Self {
            value: true,
            shell: ShellMode::Stats,
            shell_radius: 3.0,
            position: false,
            time: true,
        }
    }
}

impl FeatureSpec {
    /// Number of features this spec produces per voxel.
    pub fn len(&self) -> usize {
        let mut n = 0;
        if self.value {
            n += 1;
        }
        n += match self.shell {
            ShellMode::None => 0,
            ShellMode::Stats => 4,
            ShellMode::Samples { count } => count,
        };
        if self.position {
            n += 3;
        }
        if self.time {
            n += 1;
        }
        n
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Voxels whose shell statistics the run assemblers compute at once (a
/// stack buffer; the lane kernel's blocks are independent, so the chunk
/// size does not change a bit).
const RUN_CHUNK: usize = 64;

/// Assembles feature vectors for voxels of a volume according to a spec.
/// Construct once per (spec, radius); reuse across voxels and frames.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    spec: FeatureSpec,
    shell: Option<ShellOffsets>,
}

impl FeatureExtractor {
    pub fn new(spec: FeatureSpec) -> Self {
        assert!(!spec.is_empty(), "feature spec selects no properties");
        let shell = match spec.shell {
            ShellMode::None => None,
            ShellMode::Stats => Some(ShellOffsets::full(spec.shell_radius)),
            ShellMode::Samples { count } => Some(ShellOffsets::fibonacci(spec.shell_radius, count)),
        };
        Self { spec, shell }
    }

    pub fn spec(&self) -> &FeatureSpec {
        &self.spec
    }

    /// Feature-vector length (shell sample counts are resolved, so this can
    /// differ slightly from `spec.len()` for `Samples` after deduplication).
    pub fn num_features(&self) -> usize {
        let mut n = 0;
        if self.spec.value {
            n += 1;
        }
        n += match self.spec.shell {
            ShellMode::None => 0,
            ShellMode::Stats => 4,
            ShellMode::Samples { .. } => self.shell.as_ref().unwrap().len(),
        };
        if self.spec.position {
            n += 3;
        }
        if self.spec.time {
            n += 1;
        }
        n
    }

    /// Assemble the feature vector for voxel `(x, y, z)` of `vol` at
    /// normalized time `t_norm`, appending into `out` (cleared first).
    pub fn vector_into(
        &self,
        vol: &ScalarVolume,
        x: usize,
        y: usize,
        z: usize,
        t_norm: f32,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        self.rows_into(vol, x, 1, y, z, t_norm, out, |x, o| {
            o.push(*vol.get(x, y, z))
        });
    }

    /// Assemble feature rows for the run of `len` voxels starting at
    /// `(x0, y, z)` along x, appending `len * num_features()` values to
    /// `out` (cleared first). Rows come from the same assembler as
    /// [`FeatureExtractor::vector_into`], and shell statistics from the
    /// same lane kernel ([`ShellOffsets::sample_stats_run`]), so batched
    /// rows are bit-identical to per-voxel rows.
    #[allow(clippy::too_many_arguments)]
    pub fn vectors_run_into(
        &self,
        vol: &ScalarVolume,
        x0: usize,
        len: usize,
        y: usize,
        z: usize,
        t_norm: f32,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.reserve(len * self.num_features());
        self.rows_into(vol, x0, len, y, z, t_norm, out, |x, o| {
            o.push(*vol.get(x, y, z))
        });
    }

    /// Allocating convenience wrapper.
    pub fn vector(
        &self,
        vol: &ScalarVolume,
        x: usize,
        y: usize,
        z: usize,
        t_norm: f32,
    ) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_features());
        self.vector_into(vol, x, y, z, t_norm, &mut out);
        out
    }

    /// Multivariate feature vector (paper Section 8: "that the system can
    /// take multivariate data as input opens a new dimension for scientific
    /// discovery"): the values of *every* variable at the voxel, plus the
    /// shell/position/time features of the primary variable `mv.var_at(0)`.
    /// The scientist never specifies inter-variable relationships — the
    /// network learns them.
    pub fn vector_multi_into(
        &self,
        mv: &ifet_volume::MultiVolume,
        x: usize,
        y: usize,
        z: usize,
        t_norm: f32,
        out: &mut Vec<f32>,
    ) {
        assert!(mv.num_vars() > 0, "multivariate volume has no variables");
        out.clear();
        self.rows_into(mv.var_at(0), x, 1, y, z, t_norm, out, |x, o| {
            mv.values_at_into(x, y, z, o)
        });
    }

    /// Multivariate analogue of [`FeatureExtractor::vectors_run_into`]:
    /// rows for the run of `len` voxels starting at `(x0, y, z)` along x.
    #[allow(clippy::too_many_arguments)]
    pub fn vectors_run_multi_into(
        &self,
        mv: &ifet_volume::MultiVolume,
        x0: usize,
        len: usize,
        y: usize,
        z: usize,
        t_norm: f32,
        out: &mut Vec<f32>,
    ) {
        assert!(mv.num_vars() > 0, "multivariate volume has no variables");
        out.clear();
        out.reserve(len * self.num_features_multi(mv.num_vars()));
        self.rows_into(mv.var_at(0), x0, len, y, z, t_norm, out, |x, o| {
            mv.values_at_into(x, y, z, o)
        });
    }

    /// The one row assembler: for the run of `len` voxels at `(x0, y, z)`,
    /// first the shell statistics of up to [`RUN_CHUNK`] voxels of
    /// `primary`, then each row in field order — `values` pushes the
    /// voxel's own value(s), shell/position/time come from `primary`.
    #[allow(clippy::too_many_arguments)]
    fn rows_into(
        &self,
        primary: &ScalarVolume,
        x0: usize,
        len: usize,
        y: usize,
        z: usize,
        t_norm: f32,
        out: &mut Vec<f32>,
        values: impl Fn(usize, &mut Vec<f32>),
    ) {
        let d = primary.dims();
        let mut stats = [[0.0f32; 4]; RUN_CHUNK];
        for c0 in (x0..x0 + len).step_by(RUN_CHUNK) {
            let stats = &mut stats[..RUN_CHUNK.min(x0 + len - c0)];
            if let (ShellMode::Stats, Some(shell)) = (self.spec.shell, &self.shell) {
                shell.sample_stats_run(primary, c0, y, z, stats);
            }
            for (x, s) in (c0..).zip(stats.iter()) {
                if self.spec.value {
                    values(x, out);
                }
                match self.spec.shell {
                    ShellMode::None => {}
                    ShellMode::Stats => out.extend_from_slice(s),
                    ShellMode::Samples { .. } => {
                        self.shell
                            .as_ref()
                            .unwrap()
                            .sample_into(primary, x, y, z, out);
                    }
                }
                if self.spec.position {
                    out.push(x as f32 / (d.nx - 1).max(1) as f32);
                    out.push(y as f32 / (d.ny - 1).max(1) as f32);
                    out.push(z as f32 / (d.nz - 1).max(1) as f32);
                }
                if self.spec.time {
                    out.push(t_norm);
                }
            }
        }
    }

    /// Feature count for a multivariate volume with `num_vars` variables.
    pub fn num_features_multi(&self, num_vars: usize) -> usize {
        let base = self.num_features();
        if self.spec.value {
            base - 1 + num_vars
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifet_volume::Dims3;

    fn vol_ball(n: usize, r: f32) -> ScalarVolume {
        let c = (n as f32 - 1.0) / 2.0;
        ScalarVolume::from_fn(Dims3::cube(n), |x, y, z| {
            let d =
                ((x as f32 - c).powi(2) + (y as f32 - c).powi(2) + (z as f32 - c).powi(2)).sqrt();
            if d <= r {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn spec_lengths() {
        assert_eq!(FeatureSpec::default().len(), 6); // value + 4 stats + time
        let full = FeatureSpec {
            value: true,
            shell: ShellMode::Samples { count: 26 },
            shell_radius: 2.0,
            position: true,
            time: true,
        };
        assert_eq!(full.len(), 1 + 26 + 3 + 1);
        let none = FeatureSpec {
            value: false,
            shell: ShellMode::None,
            shell_radius: 1.0,
            position: false,
            time: false,
        };
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic]
    fn empty_spec_panics() {
        let _ = FeatureExtractor::new(FeatureSpec {
            value: false,
            shell: ShellMode::None,
            shell_radius: 1.0,
            position: false,
            time: false,
        });
    }

    #[test]
    fn vector_length_matches() {
        let fx = FeatureExtractor::new(FeatureSpec::default());
        let v = vol_ball(16, 4.0);
        let vec = fx.vector(&v, 8, 8, 8, 0.5);
        assert_eq!(vec.len(), fx.num_features());
    }

    #[test]
    fn shell_distinguishes_large_from_small() {
        // The core size-discrimination property: a voxel at the center of a
        // big ball has a bright shell; the center of a small ball does not.
        let spec = FeatureSpec {
            shell_radius: 3.0,
            ..Default::default()
        };
        let fx = FeatureExtractor::new(spec);
        let big = vol_ball(16, 6.0);
        let small = vol_ball(16, 1.5);
        let vb = fx.vector(&big, 8, 8, 8, 0.0);
        let vs = fx.vector(&small, 8, 8, 8, 0.0);
        // Feature 0 is the value: both are inside their ball.
        assert_eq!(vb[0], 1.0);
        assert_eq!(vs[0], 1.0);
        // Feature 1 is the shell mean: bright for big, dark for small.
        assert!(vb[1] > 0.9, "big-ball shell mean {}", vb[1]);
        assert!(vs[1] < 0.1, "small-ball shell mean {}", vs[1]);
    }

    #[test]
    fn position_features_normalized() {
        let spec = FeatureSpec {
            value: true,
            shell: ShellMode::None,
            shell_radius: 1.0,
            position: true,
            time: false,
        };
        let fx = FeatureExtractor::new(spec);
        let v = vol_ball(9, 2.0);
        let vec = fx.vector(&v, 0, 4, 8, 0.0);
        assert_eq!(&vec[1..], &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn time_feature_appended_last() {
        let fx = FeatureExtractor::new(FeatureSpec::default());
        let v = vol_ball(8, 2.0);
        let vec = fx.vector(&v, 1, 1, 1, 0.75);
        assert_eq!(*vec.last().unwrap(), 0.75);
    }

    #[test]
    fn raw_samples_mode_emits_shell_values() {
        let spec = FeatureSpec {
            value: false,
            shell: ShellMode::Samples { count: 16 },
            shell_radius: 2.0,
            position: false,
            time: false,
        };
        let fx = FeatureExtractor::new(spec);
        let v = ScalarVolume::filled(Dims3::cube(8), 3.0);
        let vec = fx.vector(&v, 4, 4, 4, 0.0);
        assert_eq!(vec.len(), fx.num_features());
        assert!(vec.iter().all(|&s| s == 3.0));
    }

    #[test]
    fn multivariate_vector_includes_all_variables() {
        use ifet_volume::MultiVolume;
        let d = Dims3::cube(8);
        let mut mv = MultiVolume::new(d);
        mv.add("density", ScalarVolume::filled(d, 1.0));
        mv.add("pressure", ScalarVolume::filled(d, 2.0));
        let fx = FeatureExtractor::new(FeatureSpec::default());
        let mut out = Vec::new();
        fx.vector_multi_into(&mv, 4, 4, 4, 0.25, &mut out);
        assert_eq!(out.len(), fx.num_features_multi(2));
        // Leading entries are the two variable values.
        assert_eq!(&out[..2], &[1.0, 2.0]);
        // Shell stats of the primary variable follow (constant field).
        assert_eq!(out[2], 1.0);
        assert_eq!(*out.last().unwrap(), 0.25);
    }

    #[test]
    fn multivariate_single_var_matches_scalar_path() {
        use ifet_volume::MultiVolume;
        let d = Dims3::cube(8);
        let vol = ScalarVolume::from_fn(d, |x, y, z| (x + 2 * y + 3 * z) as f32);
        let mut mv = MultiVolume::new(d);
        mv.add("v", vol.clone());
        let fx = FeatureExtractor::new(FeatureSpec::default());
        let mut multi = Vec::new();
        fx.vector_multi_into(&mv, 3, 4, 5, 0.5, &mut multi);
        let single = fx.vector(&vol, 3, 4, 5, 0.5);
        assert_eq!(multi, single);
    }

    #[test]
    fn run_rows_bit_identical_to_per_voxel() {
        let fx = FeatureExtractor::new(FeatureSpec {
            position: true,
            ..Default::default()
        });
        let v = vol_ball(16, 4.0);
        let nf = fx.num_features();
        let mut run = Vec::new();
        fx.vectors_run_into(&v, 2, 9, 5, 7, 0.3, &mut run);
        assert_eq!(run.len(), 9 * nf);
        let mut one = Vec::new();
        for (i, x) in (2..11).enumerate() {
            fx.vector_into(&v, x, 5, 7, 0.3, &mut one);
            for (a, b) in run[i * nf..(i + 1) * nf].iter().zip(&one) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn run_rows_multi_bit_identical_to_per_voxel() {
        use ifet_volume::MultiVolume;
        let d = Dims3::cube(12);
        let mut mv = MultiVolume::new(d);
        mv.add("a", ScalarVolume::from_fn(d, |x, y, z| (x + y * z) as f32));
        mv.add(
            "b",
            ScalarVolume::from_fn(d, |x, y, z| (x * 2 + y + z) as f32),
        );
        let fx = FeatureExtractor::new(FeatureSpec::default());
        let nf = fx.num_features_multi(2);
        let mut run = Vec::new();
        fx.vectors_run_multi_into(&mv, 1, 7, 4, 6, 0.6, &mut run);
        assert_eq!(run.len(), 7 * nf);
        let mut one = Vec::new();
        for (i, x) in (1..8).enumerate() {
            fx.vector_multi_into(&mv, x, 4, 6, 0.6, &mut one);
            assert_eq!(&run[i * nf..(i + 1) * nf], one.as_slice());
        }
    }

    #[test]
    fn vector_into_reuses_buffer() {
        let fx = FeatureExtractor::new(FeatureSpec::default());
        let v = vol_ball(8, 2.0);
        let mut buf = vec![99.0; 3];
        fx.vector_into(&v, 2, 2, 2, 0.0, &mut buf);
        assert_eq!(buf.len(), fx.num_features());
        assert_ne!(buf[0], 99.0);
    }
}
