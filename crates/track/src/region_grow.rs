//! 4D region growing, the paper's tracking mechanism (Section 5).
//!
//! Starting from user-selected seed voxels, the region grows through the six
//! spatial neighbours within a frame *and* through the same voxel position in
//! the previous/next frames — valid because "there is sufficient temporal
//! sampling for the matching features to overlap in 3D space for consecutive
//! time steps". The per-frame result is "saved in a 3D volume texture for
//! rendering" — here, one [`Mask3`] per frame.
//!
//! One grower, plus an oracle for the tests:
//!
//! * [`grow_4d`] / [`Grower`] — serial level-synchronous frontier growth.
//!   Each round walks the frames in ascending order: a frame's spatial
//!   discoveries join its next frontier, its temporal proposals join one
//!   shared list that is resolved after the last frame. Criterion queries hit
//!   per-frame acceptance tables: the criterion's resident
//!   [`GrowthCriterion::tables`] when it holds them, else tables precomputed
//!   once via [`GrowthCriterion::precompute_frame`]. Round boundaries are
//!   resumable checkpoints.
//! * [`grow_4d_serial`] — the reference the tests compare against: a single
//!   FIFO queue, criterion evaluated through `accept` at every visited edge.
//!
//! The grown region is the connected component of the acceptance set that
//! is reachable from the seeds — a fixpoint independent of visit order — so
//! the two return bit-identical masks (enforced by a property test).

use crate::criterion::GrowthCriterion;
use ifet_obs as obs;
use ifet_volume::{map_frames_windowed, Dims3, FrameSource, Mask3, SeriesError};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A seed voxel in space-time: `(frame index, x, y, z)`.
pub type Seed4 = (usize, usize, usize, usize);

/// Why a region-growing request is unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrowError {
    /// The criterion covers a different number of frames than the series.
    FrameCountMismatch {
        criterion_frames: usize,
        series_frames: usize,
    },
    /// A seed's frame index is past the end of the series.
    SeedFrameOutOfRange { seed: Seed4, frames: usize },
    /// A seed's spatial coordinate lies outside the volume.
    SeedOutOfBounds { seed: Seed4, dims: Dims3 },
    /// A resident acceptance table (see [`GrowthCriterion::tables`]) has
    /// other dims than the series.
    TableDimsMismatch {
        frame: usize,
        table: Dims3,
        series: Dims3,
    },
    /// A [`GrowCheckpoint`] is inconsistent with the series it is resumed
    /// against (wrong frame count, wrong dims, or out-of-range frontier
    /// indices) — typically a corrupted or mismatched session artifact.
    BadCheckpoint { reason: String },
    /// Loading a frame from the source failed (paging I/O or a bad index).
    Source { reason: String },
}

impl From<SeriesError> for GrowError {
    fn from(e: SeriesError) -> Self {
        GrowError::Source {
            reason: e.to_string(),
        }
    }
}

impl std::fmt::Display for GrowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::FrameCountMismatch {
                criterion_frames,
                series_frames,
            } => write!(
                f,
                "criterion covers {criterion_frames} frames, series has {series_frames}"
            ),
            Self::SeedFrameOutOfRange { seed, frames } => write!(
                f,
                "seed frame {} out of range (series has {frames} frames)",
                seed.0
            ),
            Self::SeedOutOfBounds { seed, dims } => write!(
                f,
                "seed ({}, {}, {}) out of bounds for volume {dims}",
                seed.1, seed.2, seed.3
            ),
            Self::TableDimsMismatch {
                frame,
                table,
                series,
            } => write!(
                f,
                "acceptance table of frame {frame} is {table}, series frames are {series}"
            ),
            Self::BadCheckpoint { reason } => write!(f, "bad grow checkpoint: {reason}"),
            Self::Source { reason } => write!(f, "frame source failed: {reason}"),
        }
    }
}

impl std::error::Error for GrowError {}

fn validate<S: FrameSource + ?Sized>(
    series: &S,
    criterion: &dyn GrowthCriterion,
    seeds: &[Seed4],
) -> Result<(), GrowError> {
    if criterion.num_frames() != series.len() {
        return Err(GrowError::FrameCountMismatch {
            criterion_frames: criterion.num_frames(),
            series_frames: series.len(),
        });
    }
    let d = series.dims();
    let tables = criterion.tables().unwrap_or_default();
    if let Some((frame, t)) = tables.iter().enumerate().find(|(_, t)| t.dims() != d) {
        return Err(GrowError::TableDimsMismatch {
            frame,
            table: t.dims(),
            series: d,
        });
    }
    for &seed in seeds {
        let (fi, x, y, z) = seed;
        if fi >= series.len() {
            return Err(GrowError::SeedFrameOutOfRange {
                seed,
                frames: series.len(),
            });
        }
        if !d.contains(x, y, z) {
            return Err(GrowError::SeedOutOfBounds { seed, dims: d });
        }
    }
    Ok(())
}

/// Grow a 4D region from `seeds` through `series` under `criterion`.
///
/// Returns one mask per frame (empty masks for frames the region never
/// reaches). Seeds that fail the criterion are ignored (the user clicked
/// background). The result is bit-identical to [`grow_4d_serial`] and
/// independent of the frame source (in-core or paged — pinned by the
/// out-of-core equivalence suite).
pub fn grow_4d<S: FrameSource + ?Sized>(
    series: &S,
    criterion: &dyn GrowthCriterion,
    seeds: &[Seed4],
) -> Result<Vec<Mask3>, GrowError> {
    let _span = obs::span("track.grow_4d");
    let mut grower = Grower::start(series, criterion, seeds)?;
    grower.run(None);
    let masks = grower.into_masks();
    if obs::is_enabled() {
        let total: usize = masks.iter().map(|m| m.count()).sum();
        obs::counter("grown_voxels", total as u64);
    }
    Ok(masks)
}

/// A serializable snapshot of an in-progress [`Grower`], taken at a round
/// boundary. Together with the original series and criterion it is enough to
/// resume growth and reach the exact fixpoint an uninterrupted run produces:
/// the grown region is the reachable connected component of the acceptance
/// set, which is independent of visit order, and at a round boundary the
/// per-frame masks + frontiers are the *entire* algorithm state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrowCheckpoint {
    /// Per-frame region state so far.
    pub masks: Vec<Mask3>,
    /// Per-frame frontier: linear voxel indices discovered in the last round.
    pub frontiers: Vec<Vec<usize>>,
    /// Number of completed rounds.
    pub rounds: u64,
}

/// The serial level-synchronous 4D region grower, exposed as a resumable
/// state machine.
///
/// [`grow_4d`] is `start` + `run(None)` + `into_masks`. Long-running tracks
/// can instead call [`Grower::run`] with a round budget, [`Grower::checkpoint`]
/// the state, persist it, and later [`Grower::resume`] — the final masks are
/// bit-identical to an uninterrupted run (enforced by tests).
///
/// The criterion is consulted only during construction (to precompute
/// per-frame acceptance tables), so the `Grower` borrows neither the series
/// nor the criterion afterwards. Its growth state is exactly the
/// [`GrowCheckpoint`] it hands out.
pub struct Grower {
    d: Dims3,
    tables: Vec<Mask3>,
    state: GrowCheckpoint,
}

impl Grower {
    fn precompute_tables<S: FrameSource + ?Sized>(
        series: &S,
        criterion: &dyn GrowthCriterion,
    ) -> Result<Vec<Mask3>, GrowError> {
        let _span = obs::span("track.precompute_tables");
        obs::counter("frames", series.len() as u64);
        // Tables the criterion already holds (checked by `validate`) are
        // adopted without paging a frame. Otherwise each table depends only
        // on its own frame, so frames stream through in ascending order
        // through residency-bounded windows: one full parallel pass for
        // in-core sources, cache-capacity-sized windows for paged ones.
        // Acceptance tables (1 bit/voxel) stay resident; raw frames do not.
        // After this, the criterion is never consulted again.
        let tables: Vec<Mask3> = match criterion.tables() {
            Some(tables) => tables.to_vec(),
            None => map_frames_windowed(series, |fi, _t, frame| {
                criterion.precompute_frame(fi, frame)
            })?,
        };
        if obs::is_enabled() {
            let acceptance: usize = tables.iter().map(|t| t.count()).sum();
            obs::counter("acceptance_voxels", acceptance as u64);
        }
        Ok(tables)
    }

    /// Begin a fresh grow from `seeds`.
    pub fn start<S: FrameSource + ?Sized>(
        series: &S,
        criterion: &dyn GrowthCriterion,
        seeds: &[Seed4],
    ) -> Result<Self, GrowError> {
        validate(series, criterion, seeds)?;
        let d = series.dims();
        let tables = Self::precompute_tables(series, criterion)?;
        let mut masks: Vec<Mask3> = (0..series.len()).map(|_| Mask3::empty(d)).collect();
        let mut frontiers: Vec<Vec<usize>> = vec![Vec::new(); series.len()];
        for &(fi, x, y, z) in seeds {
            let i = d.index(x, y, z);
            if tables[fi].get_linear(i) && masks[fi].insert_linear(i) {
                frontiers[fi].push(i);
            }
        }
        Ok(Self {
            d,
            tables,
            state: GrowCheckpoint {
                masks,
                frontiers,
                rounds: 0,
            },
        })
    }

    /// Rebuild a grower from a persisted checkpoint.
    ///
    /// The checkpoint is validated against the series before any growth state
    /// is adopted — a corrupted or mismatched artifact yields
    /// [`GrowError::BadCheckpoint`], never a panic.
    pub fn resume<S: FrameSource + ?Sized>(
        series: &S,
        criterion: &dyn GrowthCriterion,
        ckpt: GrowCheckpoint,
    ) -> Result<Self, GrowError> {
        validate(series, criterion, &[])?;
        let d = series.dims();
        let bad = |reason: String| GrowError::BadCheckpoint { reason };
        if ckpt.masks.len() != series.len() {
            return Err(bad(format!(
                "checkpoint has {} frames, series has {}",
                ckpt.masks.len(),
                series.len()
            )));
        }
        if ckpt.frontiers.len() != series.len() {
            return Err(bad(format!(
                "checkpoint has {} frontiers for {} frames",
                ckpt.frontiers.len(),
                series.len()
            )));
        }
        for (fi, m) in ckpt.masks.iter().enumerate() {
            if m.dims() != d {
                return Err(bad(format!(
                    "frame {fi} mask dims {} do not match series dims {d}",
                    m.dims()
                )));
            }
        }
        for (fi, frontier) in ckpt.frontiers.iter().enumerate() {
            for &i in frontier {
                if i >= d.len() {
                    return Err(bad(format!(
                        "frame {fi} frontier index {i} out of range (volume has {} voxels)",
                        d.len()
                    )));
                }
                if !ckpt.masks[fi].get_linear(i) {
                    return Err(bad(format!(
                        "frame {fi} frontier index {i} is not set in its mask"
                    )));
                }
            }
        }
        let tables = Self::precompute_tables(series, criterion)?;
        Ok(Self {
            d,
            tables,
            state: ckpt,
        })
    }

    /// True when every frontier is exhausted (the fixpoint is reached).
    pub fn is_done(&self) -> bool {
        self.state.frontiers.iter().all(|f| f.is_empty())
    }

    /// Completed rounds so far (including those before a resume).
    pub fn rounds(&self) -> u64 {
        self.state.rounds
    }

    /// Run at most `max_rounds` further rounds (all the way to the fixpoint
    /// when `None`). Returns `true` when growth is complete.
    pub fn run(&mut self, max_rounds: Option<u64>) -> bool {
        let _span = obs::span("track.grow_rounds");
        let mut this_call = 0u64;
        while !self.is_done() {
            if let Some(m) = max_rounds {
                if this_call >= m {
                    obs::counter("rounds", this_call);
                    return false;
                }
            }
            self.round();
            this_call += 1;
        }
        obs::counter("rounds", this_call);
        if obs::is_enabled() {
            let grown: usize = self.state.masks.iter().map(|m| m.count()).sum();
            obs::counter("grown_voxels", grown as u64);
        }
        true
    }

    /// One level-synchronous round: expand every frame's frontier in
    /// ascending frame order, then resolve the temporal proposals in order.
    /// Temporal acceptance waits for the last frame, so no frame sees another
    /// frame's discoveries of this round.
    fn round(&mut self) {
        let _span = obs::span("track.round");
        let d = self.d;
        let GrowCheckpoint {
            masks, frontiers, ..
        } = &mut self.state;
        if obs::is_enabled() {
            let frontier: usize = frontiers.iter().map(Vec::len).sum();
            obs::counter("frontier", frontier as u64);
        }
        let n_frames = masks.len();
        let mut accepted_spatial = 0usize;
        let mut proposals: Vec<(usize, usize)> = Vec::new(); // (target frame, linear index)
        let mut current: Vec<usize> = Vec::new();
        for (fi, (mask, next)) in masks.iter_mut().zip(frontiers.iter_mut()).enumerate() {
            // `next` takes over the previous frame's spent buffer.
            std::mem::swap(&mut current, next);
            next.clear();
            let table = &self.tables[fi];
            for &i in &current {
                let (x, y, z) = d.coords(i);
                for (nx, ny, nz) in d.neighbors6(x, y, z) {
                    let j = d.index(nx, ny, nz);
                    if table.get_linear(j) && mask.insert_linear(j) {
                        next.push(j);
                    }
                }
                if fi > 0 {
                    proposals.push((fi - 1, i));
                }
                if fi + 1 < n_frames {
                    proposals.push((fi + 1, i));
                }
            }
            accepted_spatial += next.len();
        }
        obs::counter("accepted_spatial", accepted_spatial as u64);
        obs::counter("temporal_proposals", proposals.len() as u64);

        let mut accepted_temporal = 0u64;
        for &(tf, i) in &proposals {
            if self.tables[tf].get_linear(i) && masks[tf].insert_linear(i) {
                frontiers[tf].push(i);
                accepted_temporal += 1;
            }
        }
        obs::counter("accepted_temporal", accepted_temporal);
        self.state.rounds += 1;
    }

    /// Snapshot the growth state. Callers observe the grower only between
    /// rounds, so the snapshot is always a round boundary.
    pub fn checkpoint(&self) -> GrowCheckpoint {
        self.state.clone()
    }

    /// Consume the grower, yielding one mask per frame.
    pub fn into_masks(self) -> Vec<Mask3> {
        self.state.masks
    }
}

/// Reference implementation of [`grow_4d`], kept as the test oracle: one
/// FIFO queue, criterion consulted through [`GrowthCriterion::accept`] at
/// every edge. Not a production path.
pub fn grow_4d_serial<S: FrameSource + ?Sized>(
    series: &S,
    criterion: &dyn GrowthCriterion,
    seeds: &[Seed4],
) -> Result<Vec<Mask3>, GrowError> {
    validate(series, criterion, seeds)?;
    let d = series.dims();
    let n_frames = series.len();
    let mut masks: Vec<Mask3> = (0..n_frames).map(|_| Mask3::empty(d)).collect();
    let mut queue: VecDeque<Seed4> = VecDeque::new();

    for &(fi, x, y, z) in seeds {
        if masks[fi].get(x, y, z) {
            continue;
        }
        let frame = series.frame(fi)?;
        if criterion.accept(fi, &frame, x, y, z) {
            masks[fi].set(x, y, z, true);
            queue.push_back((fi, x, y, z));
        }
    }

    while let Some((fi, x, y, z)) = queue.pop_front() {
        // Spatial growth within the frame. The handle is held across the
        // neighbour sweep so a paged source reads the frame at most once here.
        let frame = series.frame(fi)?;
        for (nx, ny, nz) in d.neighbors6(x, y, z) {
            if !masks[fi].get(nx, ny, nz) && criterion.accept(fi, &frame, nx, ny, nz) {
                masks[fi].set(nx, ny, nz, true);
                queue.push_back((fi, nx, ny, nz));
            }
        }
        drop(frame);
        // Temporal growth: the same voxel in adjacent frames.
        for nf in [fi.wrapping_sub(1), fi + 1] {
            if nf >= n_frames {
                continue;
            }
            if masks[nf].get(x, y, z) {
                continue;
            }
            let nframe = series.frame(nf)?;
            if criterion.accept(nf, &nframe, x, y, z) {
                masks[nf].set(x, y, z, true);
                queue.push_back((nf, x, y, z));
            }
        }
    }

    Ok(masks)
}

/// Total voxels captured per frame — a convenient track summary
/// (this is the series plotted in the Figure 10 experiment).
pub fn voxels_per_frame(masks: &[Mask3]) -> Vec<usize> {
    masks.iter().map(|m| m.count()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criterion::{FixedBandCriterion, MaskCriterion};
    use ifet_volume::{Dims3, ScalarVolume, TimeSeries};

    /// A bright ball moving +x by 2 voxels per frame, fading 0.2 per frame.
    fn moving_ball_series() -> TimeSeries {
        let d = Dims3::cube(16);
        let frames = (0..4u32)
            .map(|t| {
                let cx = 4.0 + 2.0 * t as f32;
                let brightness = 1.0 - 0.2 * t as f32;
                let vol = ScalarVolume::from_fn(d, move |x, y, z| {
                    let dist = ((x as f32 - cx).powi(2)
                        + (y as f32 - 8.0).powi(2)
                        + (z as f32 - 8.0).powi(2))
                    .sqrt();
                    if dist <= 3.0 {
                        brightness
                    } else {
                        0.0
                    }
                });
                (t, vol)
            })
            .collect();
        TimeSeries::from_frames(frames)
    }

    #[test]
    fn grows_spatially_within_frame() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.5, 2.0, s.len()).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 4, 8, 8)]).unwrap();
        // Frame 0 ball fully captured.
        let truth0 = Mask3::threshold(s.frame(0), 0.5);
        assert_eq!(masks[0], truth0);
    }

    #[test]
    fn tracks_across_frames_through_overlap() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 4, 8, 8)]).unwrap();
        // Ball moves 2 voxels per frame with radius 3: consecutive frames
        // overlap, so every frame is reached.
        for (i, m) in masks.iter().enumerate() {
            assert!(m.count() > 0, "frame {i} not tracked");
        }
    }

    #[test]
    fn fixed_criterion_loses_fading_feature() {
        // The Figure 10 failure mode: brightness drops below the fixed band.
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.75, 2.0, s.len()).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 4, 8, 8)]).unwrap();
        assert!(masks[0].count() > 0);
        // Frame 2 brightness = 0.6 < 0.75: lost.
        assert_eq!(masks[2].count(), 0);
        assert_eq!(masks[3].count(), 0);
    }

    #[test]
    fn seed_on_background_is_ignored() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.5, 2.0, s.len()).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 0, 0, 0)]).unwrap();
        assert!(masks.iter().all(|m| m.is_empty_mask()));
    }

    #[test]
    fn disconnected_feature_not_captured() {
        // A second bright ball far away must not be swallowed.
        let d = Dims3::cube(16);
        let vol = ScalarVolume::from_fn(d, |x, y, z| {
            let d1 =
                ((x as f32 - 3.0).powi(2) + (y as f32 - 3.0).powi(2) + (z as f32 - 3.0).powi(2))
                    .sqrt();
            let d2 =
                ((x as f32 - 12.0).powi(2) + (y as f32 - 12.0).powi(2) + (z as f32 - 12.0).powi(2))
                    .sqrt();
            if d1 <= 2.0 || d2 <= 2.0 {
                1.0
            } else {
                0.0
            }
        });
        let s = TimeSeries::from_frames(vec![(0, vol)]);
        let c = FixedBandCriterion::new(0.5, 2.0, 1).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 3, 3, 3)]).unwrap();
        assert!(masks[0].get(3, 3, 3));
        assert!(!masks[0].get(12, 12, 12));
    }

    #[test]
    fn grows_backward_in_time_too() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        // Seed in the LAST frame; earlier frames must still be reached.
        let masks = grow_4d(&s, &c, &[(3, 10, 8, 8)]).unwrap();
        assert!(masks[0].count() > 0, "backward temporal growth failed");
    }

    #[test]
    fn mask_criterion_grow_respects_masks() {
        let d = Dims3::cube(8);
        let s = TimeSeries::from_frames(vec![(0, ScalarVolume::zeros(d))]);
        let mut allowed = Mask3::empty(d);
        for x in 2..6 {
            allowed.set(x, 4, 4, true);
        }
        let c = MaskCriterion::new(vec![allowed.clone()]).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 3, 4, 4)]).unwrap();
        assert_eq!(masks[0], allowed);
    }

    #[test]
    fn voxels_per_frame_summary() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        let masks = grow_4d(&s, &c, &[(0, 4, 8, 8)]).unwrap();
        let counts = voxels_per_frame(&masks);
        assert_eq!(counts.len(), 4);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn parallel_matches_serial_on_fixture() {
        // `grow_4d` (level-synchronous rounds) against the FIFO oracle.
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        let seeds = [(0, 4, 8, 8), (3, 10, 8, 8), (1, 0, 0, 0)];
        assert_eq!(
            grow_4d(&s, &c, &seeds).unwrap(),
            grow_4d_serial(&s, &c, &seeds).unwrap()
        );
    }

    #[test]
    fn criterion_frame_mismatch_is_error() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.0, 1.0, 2).unwrap(); // wrong frame count
        let err = grow_4d(&s, &c, &[]).unwrap_err();
        assert_eq!(
            err,
            GrowError::FrameCountMismatch {
                criterion_frames: 2,
                series_frames: 4
            }
        );
        assert_eq!(grow_4d_serial(&s, &c, &[]).unwrap_err(), err);
    }

    #[test]
    fn out_of_bounds_seed_is_error() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.0, 1.0, s.len()).unwrap();
        let err = grow_4d(&s, &c, &[(0, 99, 0, 0)]).unwrap_err();
        assert!(matches!(err, GrowError::SeedOutOfBounds { .. }));
        assert_eq!(grow_4d_serial(&s, &c, &[(0, 99, 0, 0)]).unwrap_err(), err);
    }

    #[test]
    fn out_of_range_seed_frame_is_error() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.0, 1.0, s.len()).unwrap();
        let err = grow_4d(&s, &c, &[(9, 0, 0, 0)]).unwrap_err();
        assert_eq!(
            err,
            GrowError::SeedFrameOutOfRange {
                seed: (9, 0, 0, 0),
                frames: 4
            }
        );
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        // The second seed set starts three frames at once, so some frames
        // accept several temporal proposals in one round.
        let seed_sets: [&[Seed4]; 2] = [
            &[(0, 4, 8, 8)],
            &[(0, 4, 8, 8), (1, 6, 8, 8), (3, 10, 8, 8)],
        ];

        // Interrupt after every possible number of rounds; each resume must
        // land on the identical fixpoint. The serialised checkpoints are
        // digested in order (FNV-1a over their JSON), pinning every round's
        // masks *and frontier order*: persisted `CHECKPT` bytes depend on
        // both, so a round that reorders any frontier changes the digest.
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for seeds in seed_sets {
            let uninterrupted = grow_4d(&s, &c, seeds).unwrap();
            for budget in 0..20u64 {
                let mut g = Grower::start(&s, &c, seeds).unwrap();
                let done = g.run(Some(budget));
                let ckpt = g.checkpoint();
                assert_eq!(done, ckpt.frontiers.iter().all(|f| f.is_empty()));
                for b in serde_json::to_string(&ckpt).unwrap().bytes() {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
                let mut resumed = Grower::resume(&s, &c, ckpt).unwrap();
                assert!(resumed.run(None));
                assert_eq!(resumed.into_masks(), uninterrupted, "budget {budget}");
            }
        }
        assert_eq!(
            digest, 0x8174_eb9f_f06b_258a,
            "checkpoint digest {digest:#018x}"
        );
    }

    #[test]
    fn checkpoint_roundtrips_as_json() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        let mut g = Grower::start(&s, &c, &[(0, 4, 8, 8)]).unwrap();
        g.run(Some(2));
        let ckpt = g.checkpoint();
        let back: GrowCheckpoint =
            serde_json::from_str(&serde_json::to_string(&ckpt).unwrap()).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.rounds, 2);
    }

    #[test]
    fn bad_checkpoints_are_typed_errors() {
        let s = moving_ball_series();
        let c = FixedBandCriterion::new(0.3, 2.0, s.len()).unwrap();
        let mut g = Grower::start(&s, &c, &[(0, 4, 8, 8)]).unwrap();
        g.run(Some(1));
        let good = g.checkpoint();

        // Wrong frame count.
        let mut ck = good.clone();
        ck.masks.pop();
        assert!(matches!(
            Grower::resume(&s, &c, ck),
            Err(GrowError::BadCheckpoint { .. })
        ));
        // Wrong mask dims.
        let mut ck = good.clone();
        ck.masks[0] = Mask3::empty(Dims3::cube(4));
        assert!(matches!(
            Grower::resume(&s, &c, ck),
            Err(GrowError::BadCheckpoint { .. })
        ));
        // Out-of-range frontier index.
        let mut ck = good.clone();
        ck.frontiers[0] = vec![usize::MAX];
        assert!(matches!(
            Grower::resume(&s, &c, ck),
            Err(GrowError::BadCheckpoint { .. })
        ));
        // Frontier voxel not present in its mask.
        let mut ck = good.clone();
        let unset = (0..s.dims().len())
            .find(|&i| !ck.masks[1].get_linear(i))
            .unwrap();
        ck.frontiers[1] = vec![unset];
        assert!(matches!(
            Grower::resume(&s, &c, ck),
            Err(GrowError::BadCheckpoint { .. })
        ));
        // The untouched checkpoint still resumes fine.
        assert!(Grower::resume(&s, &c, good).is_ok());
    }

    #[test]
    fn grow_errors_display() {
        let e = GrowError::FrameCountMismatch {
            criterion_frames: 2,
            series_frames: 4,
        };
        assert!(e.to_string().contains("2 frames"));
        let e = GrowError::SeedOutOfBounds {
            seed: (0, 99, 0, 0),
            dims: Dims3::cube(16),
        };
        assert!(e.to_string().contains("(99, 0, 0)"));
    }
}
