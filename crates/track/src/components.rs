//! 3D connected-component labeling.
//!
//! Features "are defined as connected nodes that satisfy a certain criteria"
//! (Section 2, citing the flood-fill extraction literature). Components are
//! labeled 1..=count; 0 means background.
//!
//! A labeling is stored as the mask's maximal x-runs in scan order, each
//! carrying its label, so it costs time and memory in proportion to the
//! feature rather than the grid. Runs are joined with union-find against
//! the already-seen rows they can touch, and labels are numbered in the scan
//! order of each component's first run: label `l` is the component with the
//! `l`-th smallest lowest linear index, the numbering a scan-order flood
//! fill gives.

use ifet_volume::{Dims3, Mask3};
use std::ops::Range;

/// Connectivity for component labeling and region growing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connectivity {
    /// Face-adjacent (6 neighbours).
    Six,
    /// Face-, edge- and corner-adjacent (26 neighbours).
    TwentySix,
}

/// A maximal run of set voxels along x: voxels `x0..x1` of row
/// `row = y + ny * z`, all in component `label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub row: u32,
    pub x0: u32,
    pub x1: u32,
    pub label: u32,
}

impl Run {
    pub fn len(&self) -> usize {
        (self.x1 - self.x0) as usize
    }
}

/// A labeling of a mask into connected components.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentLabels {
    dims: Dims3,
    /// Every set voxel's run, in scan order (by row, then x).
    runs: Vec<Run>,
    /// The runs of row `r` are `runs[row_start[r]..row_start[r + 1]]`.
    row_start: Vec<usize>,
    count: u32,
}

impl ComponentLabels {
    /// Label the connected components of `mask`.
    pub fn label(mask: &Mask3, conn: Connectivity) -> Self {
        let d = mask.dims();
        assert!(
            d.nx < u32::MAX as usize && d.ny * d.nz <= u32::MAX as usize,
            "grid {d} too large for run labels"
        );
        let mut runs = x_runs(mask);
        let rows = d.ny * d.nz;
        let mut row_start = vec![0usize; rows + 1];
        for r in &runs {
            row_start[r.row as usize + 1] += 1;
        }
        for r in 0..rows {
            row_start[r + 1] += row_start[r];
        }

        // Earlier rows `(dy, dz)` a run can touch, and the x gap it can
        // bridge: a diagonal step reaches one voxel past either end.
        let (earlier, slack): (&[(isize, isize)], u32) = match conn {
            Connectivity::Six => (&[(-1, 0), (0, -1)], 0),
            Connectivity::TwentySix => (&[(-1, 0), (-1, -1), (0, -1), (1, -1)], 1),
        };
        // Union-find over runs, always linking to the lower index, so each
        // root is its component's first run in scan order.
        let mut parent: Vec<usize> = (0..runs.len()).collect();
        for row in 0..rows {
            let cur = row_start[row]..row_start[row + 1];
            if cur.is_empty() {
                continue;
            }
            let (y, z) = ((row % d.ny) as isize, (row / d.ny) as isize);
            for &(dy, dz) in earlier {
                let (py, pz) = (y + dy, z + dz);
                if py < 0 || pz < 0 || py >= d.ny as isize {
                    continue;
                }
                let other = py as usize + d.ny * pz as usize;
                let prev = row_start[other]..row_start[other + 1];
                join_rows(&runs, &mut parent, cur.clone(), prev, slack);
            }
        }

        let mut count = 0u32;
        for i in 0..runs.len() {
            let root = find(&mut parent, i);
            runs[i].label = if root == i {
                count += 1;
                count
            } else {
                runs[root].label
            };
        }

        Self {
            dims: d,
            runs,
            row_start,
            count,
        }
    }

    /// Number of components (labels run 1..=count).
    pub fn count(&self) -> u32 {
        self.count
    }

    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// The labeled runs in scan order.
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Label of a voxel (0 = background).
    #[inline]
    pub fn label_at(&self, x: usize, y: usize, z: usize) -> u32 {
        debug_assert!(self.dims.contains(x, y, z), "({x},{y},{z}) out of bounds");
        let r = y + self.dims.ny * z;
        let row = &self.runs[self.row_start[r]..self.row_start[r + 1]];
        let k = row.partition_point(|r| r.x1 as usize <= x);
        match row.get(k) {
            Some(r) if r.x0 as usize <= x => r.label,
            _ => 0,
        }
    }

    /// Voxel count per component (index 0 unused; `sizes()[l]` for label l).
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count as usize + 1];
        for r in &self.runs {
            sizes[r.label as usize] += r.len();
        }
        sizes
    }

    /// Mask of one component.
    pub fn component_mask(&self, label: u32) -> Mask3 {
        assert!(
            label >= 1 && label <= self.count,
            "label {label} out of range"
        );
        self.mask_of(|l| l == label)
    }

    /// The label with the most voxels (None when there are no components).
    pub fn largest(&self) -> Option<u32> {
        let sizes = self.sizes();
        (1..=self.count).max_by_key(|&l| sizes[l as usize])
    }

    /// Drop components smaller than `min_voxels`, returning the cleaned mask.
    pub fn filter_small(&self, min_voxels: usize) -> Mask3 {
        let sizes = self.sizes();
        self.mask_of(|l| sizes[l as usize] >= min_voxels)
    }

    /// Mask of the runs whose label passes `keep`.
    fn mask_of(&self, keep: impl Fn(u32) -> bool) -> Mask3 {
        let mut m = Mask3::empty(self.dims);
        for r in self.runs.iter().filter(|r| keep(r.label)) {
            let base = r.row as usize * self.dims.nx;
            for i in base + r.x0 as usize..base + r.x1 as usize {
                m.set_linear(i, true);
            }
        }
        m
    }
}

/// Label every mask's connected components (26-connectivity), once per
/// frame: the labelings events, attributes and tracks are all built from.
pub fn label_masks(masks: &[Mask3]) -> Vec<ComponentLabels> {
    masks
        .iter()
        .map(|m| ComponentLabels::label(m, Connectivity::TwentySix))
        .collect()
}

/// The maximal x-runs of `mask` in scan order (labels left 0), read off its
/// words: each stretch of consecutive set bits, cut at row ends.
fn x_runs(mask: &Mask3) -> Vec<Run> {
    let nx = mask.dims().nx;
    let mut runs: Vec<Run> = Vec::new();
    for (wi, &word) in mask.words().iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let s = w.trailing_zeros() as usize;
            let n = (w >> s).trailing_ones() as usize;
            w &= u64::MAX.checked_shl((s + n) as u32).unwrap_or(0);
            let (mut i, end) = (wi * 64 + s, wi * 64 + s + n);
            while i < end {
                let row = i / nx;
                let (x0, x1) = (
                    (i - row * nx) as u32,
                    (end.min(row * nx + nx) - row * nx) as u32,
                );
                // A stretch that crosses a word boundary continues a run.
                match runs.last_mut() {
                    Some(r) if r.row as usize == row && r.x1 == x0 => r.x1 = x1,
                    _ => runs.push(Run {
                        row: row as u32,
                        x0,
                        x1,
                        label: 0,
                    }),
                }
                i += (x1 - x0) as usize;
            }
        }
    }
    runs
}

/// Union every run of `cur` with the runs of the earlier row `prev` it
/// touches: x ranges that overlap, or, with `slack` 1, sit one voxel apart.
fn join_rows(
    runs: &[Run],
    parent: &mut [usize],
    cur: Range<usize>,
    prev: Range<usize>,
    slack: u32,
) {
    let mut lo = prev.start;
    for i in cur {
        let a = runs[i];
        // Runs of `prev` entirely left of `a` are left of every later run.
        while lo < prev.end && runs[lo].x1 + slack <= a.x0 {
            lo += 1;
        }
        let mut j = lo;
        while j < prev.end && runs[j].x0 < a.x1 + slack {
            let (ri, rj) = (find(parent, i), find(parent, j));
            parent[ri.max(rj)] = ri.min(rj);
            j += 1;
        }
    }
}

/// Root of `i`, halving the path on the way.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_balls(n: usize) -> Mask3 {
        let r = n as f32 * 0.15;
        let c1 = (n as f32 * 0.25, n as f32 * 0.25, n as f32 * 0.5);
        let c2 = (n as f32 * 0.75, n as f32 * 0.75, n as f32 * 0.5);
        Mask3::from_fn(Dims3::cube(n), |x, y, z| {
            let d1 =
                ((x as f32 - c1.0).powi(2) + (y as f32 - c1.1).powi(2) + (z as f32 - c1.2).powi(2))
                    .sqrt();
            let d2 =
                ((x as f32 - c2.0).powi(2) + (y as f32 - c2.1).powi(2) + (z as f32 - c2.2).powi(2))
                    .sqrt();
            d1 <= r || d2 <= r
        })
    }

    #[test]
    fn empty_mask_has_no_components() {
        let l = ComponentLabels::label(&Mask3::empty(Dims3::cube(4)), Connectivity::Six);
        assert_eq!(l.count(), 0);
        assert!(l.largest().is_none());
    }

    #[test]
    fn full_mask_is_one_component() {
        let l = ComponentLabels::label(&Mask3::full(Dims3::cube(4)), Connectivity::Six);
        assert_eq!(l.count(), 1);
        assert_eq!(l.sizes()[1], 64);
    }

    #[test]
    fn two_balls_are_two_components() {
        let m = two_balls(20);
        let l = ComponentLabels::label(&m, Connectivity::Six);
        assert_eq!(l.count(), 2);
        let sizes = l.sizes();
        assert_eq!(sizes[1] + sizes[2], m.count());
    }

    #[test]
    fn component_mask_partitions() {
        let m = two_balls(16);
        let l = ComponentLabels::label(&m, Connectivity::Six);
        let a = l.component_mask(1);
        let b = l.component_mask(2);
        assert_eq!(a.intersection_count(&b), 0);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, m);
    }

    #[test]
    fn diagonal_voxels_connectivity_dependent() {
        // Two voxels touching only at a corner: 26-connected, not 6-connected.
        let d = Dims3::cube(3);
        let mut m = Mask3::empty(d);
        m.set(0, 0, 0, true);
        m.set(1, 1, 1, true);
        assert_eq!(ComponentLabels::label(&m, Connectivity::Six).count(), 2);
        assert_eq!(
            ComponentLabels::label(&m, Connectivity::TwentySix).count(),
            1
        );
    }

    #[test]
    fn largest_picks_bigger() {
        let d = Dims3::cube(8);
        let mut m = Mask3::empty(d);
        m.set(0, 0, 0, true); // lone voxel
        for x in 3..7 {
            m.set(x, 4, 4, true); // bar of 4
        }
        let l = ComponentLabels::label(&m, Connectivity::Six);
        let big = l.largest().unwrap();
        assert_eq!(l.sizes()[big as usize], 4);
    }

    #[test]
    fn filter_small_removes_specks() {
        let d = Dims3::cube(8);
        let mut m = Mask3::empty(d);
        m.set(0, 0, 0, true);
        for x in 3..7 {
            m.set(x, 4, 4, true);
        }
        let l = ComponentLabels::label(&m, Connectivity::Six);
        let cleaned = l.filter_small(2);
        assert_eq!(cleaned.count(), 4);
        assert!(!cleaned.get(0, 0, 0));
    }

    #[test]
    #[should_panic]
    fn component_mask_bad_label_panics() {
        let l = ComponentLabels::label(&Mask3::empty(Dims3::cube(2)), Connectivity::Six);
        let _ = l.component_mask(1);
    }
}
