//! Multivariate volumes: several named scalar variables on one grid.
//!
//! The paper's DNS combustion data carries "multiple variables" per time step
//! and Section 4.3 stresses that the learning engine "can take multivariate
//! data as input" without the scientist specifying inter-variable relations.

use crate::dims::Dims3;
use crate::volume::ScalarVolume;
use serde::{Deserialize, Serialize};

/// A set of named scalar variables sharing one grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiVolume {
    dims: Dims3,
    names: Vec<String>,
    vars: Vec<ScalarVolume>,
}

impl MultiVolume {
    /// An empty multivariate volume over `dims`.
    pub fn new(dims: Dims3) -> Self {
        Self {
            dims,
            names: Vec::new(),
            vars: Vec::new(),
        }
    }

    /// Add a variable. Panics on duplicate names or dim mismatch.
    pub fn add(&mut self, name: impl Into<String>, vol: ScalarVolume) -> &mut Self {
        let name = name.into();
        assert_eq!(vol.dims(), self.dims, "variable dims mismatch");
        assert!(
            !self.names.contains(&name),
            "duplicate variable name {name:?}"
        );
        self.names.push(name);
        self.vars.push(vol);
        self
    }

    #[inline]
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Variable names in insertion order.
    #[inline]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Variable by name.
    pub fn var(&self, name: &str) -> Option<&ScalarVolume> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.vars[i])
    }

    /// Variable by index.
    pub fn var_at(&self, i: usize) -> &ScalarVolume {
        &self.vars[i]
    }

    /// All variable values at one voxel, in insertion order, appended to a
    /// reusable buffer. This is the raw multivariate sample fed to per-voxel
    /// feature vectors.
    pub fn values_at_into(&self, x: usize, y: usize, z: usize, out: &mut Vec<f32>) {
        for v in &self.vars {
            out.push(*v.get(x, y, z));
        }
    }

    /// Remove a variable by name; returns it when present. Mirrors the paper's
    /// UI affordance of dropping "unimportant" data properties (Section 6) so
    /// the network shrinks.
    pub fn remove(&mut self, name: &str) -> Option<ScalarVolume> {
        let i = self.names.iter().position(|n| n == name)?;
        self.names.remove(i);
        Some(self.vars.remove(i))
    }
}

/// A time-varying *multivariate* sequence: one [`MultiVolume`] per step, all
/// sharing the same grid and variable set (the paper's DNS combustion data
/// is "a 480×720×120 volume with multiple variables" per time step).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiSeries {
    dims: Dims3,
    steps: Vec<u32>,
    frames: Vec<MultiVolume>,
}

impl MultiSeries {
    /// Build from labelled multivariate frames; steps must strictly
    /// increase and every frame must share dims and variable names.
    pub fn from_frames(frames: Vec<(u32, MultiVolume)>) -> Self {
        assert!(!frames.is_empty(), "a series needs at least one frame");
        let dims = frames[0].1.dims();
        let names: Vec<String> = frames[0].1.names().to_vec();
        assert!(!names.is_empty(), "multivariate frames need variables");
        let mut steps = Vec::with_capacity(frames.len());
        let mut vols = Vec::with_capacity(frames.len());
        for (t, mv) in frames {
            assert_eq!(mv.dims(), dims, "frame dims mismatch");
            assert_eq!(mv.names(), names.as_slice(), "variable set mismatch");
            if let Some(&last) = steps.last() {
                assert!(t > last, "steps must strictly increase");
            }
            steps.push(t);
            vols.push(mv);
        }
        Self {
            dims,
            steps,
            frames: vols,
        }
    }

    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    pub fn steps(&self) -> &[u32] {
        &self.steps
    }

    pub fn names(&self) -> &[String] {
        self.frames[0].names()
    }

    pub fn frame(&self, i: usize) -> &MultiVolume {
        &self.frames[i]
    }

    pub fn frame_at_step(&self, t: u32) -> Option<&MultiVolume> {
        self.steps.binary_search(&t).ok().map(|i| &self.frames[i])
    }

    pub fn index_of_step(&self, t: u32) -> Option<usize> {
        self.steps.binary_search(&t).ok()
    }

    /// Normalized time in `[0, 1]` for a step label.
    pub fn normalized_time(&self, t: u32) -> f32 {
        let (first, last) = match (self.steps.first(), self.steps.last()) {
            (Some(&a), Some(&b)) if b > a => (a, b),
            _ => return 0.0,
        };
        ((t.max(first) - first) as f32 / (last - first) as f32).clamp(0.0, 1.0)
    }

    /// Project one variable out as a plain scalar time series.
    pub fn scalar_series(&self, var: &str) -> Option<crate::series::TimeSeries> {
        self.frames[0].var(var)?; // validate name
        Some(crate::series::TimeSeries::from_frames(
            self.steps
                .iter()
                .zip(&self.frames)
                .map(|(&t, mv)| (t, mv.var(var).unwrap().clone()))
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv() -> MultiVolume {
        let d = Dims3::cube(3);
        let mut m = MultiVolume::new(d);
        m.add("density", ScalarVolume::from_fn(d, |x, _, _| x as f32));
        m.add("pressure", ScalarVolume::filled(d, 2.0));
        m
    }

    #[test]
    fn add_and_lookup() {
        let m = mv();
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.names(), &["density".to_string(), "pressure".to_string()]);
        assert!(m.var("density").is_some());
        assert!(m.var("missing").is_none());
        assert_eq!(*m.var_at(1).get(0, 0, 0), 2.0);
    }

    #[test]
    #[should_panic]
    fn duplicate_name_panics() {
        let d = Dims3::cube(2);
        let mut m = MultiVolume::new(d);
        m.add("a", ScalarVolume::zeros(d));
        m.add("a", ScalarVolume::zeros(d));
    }

    #[test]
    #[should_panic]
    fn dims_mismatch_panics() {
        let mut m = MultiVolume::new(Dims3::cube(2));
        m.add("a", ScalarVolume::zeros(Dims3::cube(3)));
    }

    #[test]
    fn values_at_order() {
        let m = mv();
        let mut buf = vec![9.0];
        m.values_at_into(1, 0, 0, &mut buf);
        assert_eq!(buf, vec![9.0, 1.0, 2.0]);
    }

    fn mseries() -> MultiSeries {
        let d = Dims3::cube(3);
        let make = |a: f32, b: f32| {
            let mut m = MultiVolume::new(d);
            m.add("u", ScalarVolume::filled(d, a));
            m.add("v", ScalarVolume::filled(d, b));
            m
        };
        MultiSeries::from_frames(vec![(0, make(1.0, 10.0)), (5, make(2.0, 20.0))])
    }

    #[test]
    fn multiseries_basics() {
        let s = mseries();
        assert_eq!(s.len(), 2);
        assert_eq!(s.steps(), &[0, 5]);
        assert_eq!(s.names(), &["u".to_string(), "v".to_string()]);
        assert_eq!(
            *s.frame_at_step(5).unwrap().var("v").unwrap().get(0, 0, 0),
            20.0
        );
        assert!(s.frame_at_step(3).is_none());
        assert_eq!(s.normalized_time(5), 1.0);
    }

    #[test]
    fn multiseries_scalar_projection() {
        let s = mseries();
        let u = s.scalar_series("u").unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(*u.frame(1).get(0, 0, 0), 2.0);
        assert!(s.scalar_series("missing").is_none());
    }

    #[test]
    #[should_panic]
    fn multiseries_variable_mismatch_panics() {
        let d = Dims3::cube(2);
        let mut a = MultiVolume::new(d);
        a.add("u", ScalarVolume::zeros(d));
        let mut b = MultiVolume::new(d);
        b.add("w", ScalarVolume::zeros(d));
        let _ = MultiSeries::from_frames(vec![(0, a), (1, b)]);
    }

    #[test]
    fn remove_drops_variable() {
        let mut m = mv();
        let taken = m.remove("density");
        assert!(taken.is_some());
        assert_eq!(m.num_vars(), 1);
        assert!(m.var("density").is_none());
        assert!(m.remove("density").is_none());
    }
}
