//! Frame-source abstraction: one access contract for in-core and
//! out-of-core time series.
//!
//! The paper's motivation is terascale data that "cannot fit in core"
//! (§4.2.2–4.2.3). Every pipeline stage — IATF training, data-space
//! classification, 4D region growing, sessions — is generic over
//! [`FrameSource`] so the same code runs against a fully resident
//! [`TimeSeries`] or a disk-backed [`OutOfCoreSeries`] whose residency is
//! bounded by its LRU cache capacity.
//!
//! # Contract
//!
//! - `frame(i)` yields a [`FrameHandle`] that keeps the frame alive for as
//!   long as the caller holds it, independent of cache eviction.
//! - `steps()` is strictly increasing; `frame(i)` corresponds to `steps()[i]`.
//! - `global_range` / `cumulative_histograms` / `normalized_time` must be
//!   value-identical across implementations for the same underlying data —
//!   the equivalence suite (`crates/core/tests/ooc_equivalence.rs`) pins this.
//! - `residency_bound()` is `None` when the whole series is resident anyway
//!   (borrowing is free) and `Some(capacity)` when at most `capacity` frames
//!   should be live at a time. Consumers that fan out over frames use
//!   [`map_frames_windowed`] to respect the bound.

use crate::dims::Dims3;
use crate::histogram::{CumulativeHistogram, Histogram};
use crate::ooc::OutOfCoreSeries;
use crate::series::{SeriesError, TimeSeries};
use crate::volume::ScalarVolume;
use rayon::prelude::*;
use std::ops::Deref;
use std::sync::Arc;

/// A borrow-agnostic handle to one frame of a [`FrameSource`].
///
/// In-core sources hand out plain borrows; paged sources hand out `Arc`s so
/// the frame survives eviction while the caller still needs it. Both deref
/// to [`ScalarVolume`].
pub enum FrameHandle<'a> {
    Borrowed(&'a ScalarVolume),
    Shared(Arc<ScalarVolume>),
}

impl Deref for FrameHandle<'_> {
    type Target = ScalarVolume;

    #[inline]
    fn deref(&self) -> &ScalarVolume {
        match self {
            FrameHandle::Borrowed(v) => v,
            FrameHandle::Shared(v) => v,
        }
    }
}

impl AsRef<ScalarVolume> for FrameHandle<'_> {
    #[inline]
    fn as_ref(&self) -> &ScalarVolume {
        self
    }
}

/// Uniform access to a time-varying scalar field, in core or paged from disk.
pub trait FrameSource: Sync {
    /// Grid shared by every frame.
    fn dims(&self) -> Dims3;

    /// Number of frames.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Strictly increasing time-step labels, one per frame.
    fn steps(&self) -> &[u32];

    /// Frame by positional index.
    fn frame(&self, i: usize) -> Result<FrameHandle<'_>, SeriesError>;

    /// `Some(capacity)` when at most `capacity` frames should be resident at
    /// a time; `None` when the series is fully in core.
    fn residency_bound(&self) -> Option<usize> {
        None
    }

    /// Hint that `upcoming` frame indices will be requested soon, in order.
    ///
    /// Purely advisory: a source may warm its cache in the background (see
    /// the prefetch depth of `OutOfCoreSeries::open_with`), clamp the hint
    /// to its read-ahead depth, or ignore it entirely — the default does
    /// nothing.
    /// Acting on a hint must never change what `frame(i)` returns, only how
    /// fast it returns; [`map_frames_windowed`] issues hints for the next
    /// window while the current one computes.
    fn prefetch_hint(&self, upcoming: &[usize]) {
        let _ = upcoming;
    }

    /// Positional index of a time-step label.
    fn index_of_step(&self, t: u32) -> Option<usize> {
        self.steps().binary_search(&t).ok()
    }

    /// Frame by time-step label.
    fn frame_at_step(&self, t: u32) -> Result<Option<FrameHandle<'_>>, SeriesError> {
        match self.index_of_step(t) {
            Some(i) => Ok(Some(self.frame(i)?)),
            None => Ok(None),
        }
    }

    /// Normalized time in `[0, 1]` for a step label (0 for single-frame series).
    fn normalized_time(&self, t: u32) -> f32 {
        let steps = self.steps();
        let (first, last) = match (steps.first(), steps.last()) {
            (Some(&a), Some(&b)) if b > a => (a, b),
            _ => return 0.0,
        };
        ((t.max(first) - first) as f32 / (last - first) as f32).clamp(0.0, 1.0)
    }

    /// Global `(min, max)` across all frames. Streams frames in ascending
    /// order, so residency stays bounded for paged sources.
    fn global_range(&self) -> Result<(f32, f32), SeriesError> {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for i in 0..self.len() {
            let (a, b) = self.frame(i)?.value_range();
            lo = lo.min(a);
            hi = hi.max(b);
        }
        Ok(if lo > hi { (0.0, 0.0) } else { (lo, hi) })
    }

    /// Cumulative histogram of each frame at `bins` resolution over the
    /// *global* range, streamed in ascending frame order.
    fn cumulative_histograms(&self, bins: usize) -> Result<Vec<CumulativeHistogram>, SeriesError> {
        let (lo, hi) = self.global_range()?;
        (0..self.len())
            .map(|i| {
                let f = self.frame(i)?;
                let h = Histogram::of_values(f.as_slice(), bins, lo, hi);
                Ok(CumulativeHistogram::from_histogram(&h))
            })
            .collect()
    }
}

impl FrameSource for TimeSeries {
    fn dims(&self) -> Dims3 {
        TimeSeries::dims(self)
    }

    fn len(&self) -> usize {
        TimeSeries::len(self)
    }

    fn steps(&self) -> &[u32] {
        TimeSeries::steps(self)
    }

    fn frame(&self, i: usize) -> Result<FrameHandle<'_>, SeriesError> {
        self.try_frame(i).map(FrameHandle::Borrowed)
    }

    fn global_range(&self) -> Result<(f32, f32), SeriesError> {
        Ok(TimeSeries::global_range(self))
    }

    fn cumulative_histograms(&self, bins: usize) -> Result<Vec<CumulativeHistogram>, SeriesError> {
        Ok(TimeSeries::cumulative_histograms(self, bins))
    }
}

impl FrameSource for OutOfCoreSeries {
    fn dims(&self) -> Dims3 {
        OutOfCoreSeries::dims(self)
    }

    fn len(&self) -> usize {
        OutOfCoreSeries::len(self)
    }

    fn steps(&self) -> &[u32] {
        OutOfCoreSeries::steps(self)
    }

    fn frame(&self, i: usize) -> Result<FrameHandle<'_>, SeriesError> {
        if i >= OutOfCoreSeries::len(self) {
            return Err(SeriesError::FrameOutOfRange {
                index: i,
                len: OutOfCoreSeries::len(self),
            });
        }
        Ok(FrameHandle::Shared(OutOfCoreSeries::frame(self, i)?))
    }

    fn residency_bound(&self) -> Option<usize> {
        Some(self.capacity())
    }

    fn prefetch_hint(&self, upcoming: &[usize]) {
        self.request_prefetch(upcoming);
    }

    fn global_range(&self) -> Result<(f32, f32), SeriesError> {
        // Computed once (streaming, ascending order) then memoized, since
        // training and classification consult it per sample.
        Ok(self.global_range_cached()?)
    }
}

/// Blanket passthrough so `&S` works wherever `S: FrameSource` is expected.
impl<S: FrameSource + ?Sized> FrameSource for &S {
    fn dims(&self) -> Dims3 {
        (**self).dims()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn steps(&self) -> &[u32] {
        (**self).steps()
    }

    fn frame(&self, i: usize) -> Result<FrameHandle<'_>, SeriesError> {
        (**self).frame(i)
    }

    fn residency_bound(&self) -> Option<usize> {
        (**self).residency_bound()
    }

    fn prefetch_hint(&self, upcoming: &[usize]) {
        (**self).prefetch_hint(upcoming)
    }

    fn global_range(&self) -> Result<(f32, f32), SeriesError> {
        (**self).global_range()
    }

    fn cumulative_histograms(&self, bins: usize) -> Result<Vec<CumulativeHistogram>, SeriesError> {
        (**self).cumulative_histograms(bins)
    }
}

/// Shared-ownership passthrough so many holders (e.g. tenants of a serving
/// layer) can drive the same paged series — and the same LRU/budget state —
/// without one of them owning it exclusively. `VisSession<Arc<OutOfCoreSeries>>`
/// is the canonical use: sessions opened on the same artifact share frames.
impl<S: FrameSource + Send + ?Sized> FrameSource for Arc<S> {
    fn dims(&self) -> Dims3 {
        (**self).dims()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn steps(&self) -> &[u32] {
        (**self).steps()
    }

    fn frame(&self, i: usize) -> Result<FrameHandle<'_>, SeriesError> {
        (**self).frame(i)
    }

    fn residency_bound(&self) -> Option<usize> {
        (**self).residency_bound()
    }

    fn prefetch_hint(&self, upcoming: &[usize]) {
        (**self).prefetch_hint(upcoming)
    }

    fn global_range(&self) -> Result<(f32, f32), SeriesError> {
        (**self).global_range()
    }

    fn cumulative_histograms(&self, bins: usize) -> Result<Vec<CumulativeHistogram>, SeriesError> {
        (**self).cumulative_histograms(bins)
    }
}

/// Map `f` over every frame in ascending order, in parallel windows no larger
/// than the source's residency bound.
///
/// Each window is paged in sequentially (so a bounded LRU cache is filled in
/// order, never over capacity), then `f` fans out across the resident window.
/// Once the current window's handles are held, the *next* window is announced
/// via [`FrameSource::prefetch_hint`], so a read-ahead-capable source can
/// overlap its paging with this window's compute. Because `f` sees one frame
/// at a time and results are collected in index order, the output is
/// bit-identical for any window size, thread count, or prefetch depth — the
/// window and the hint only change *when* a frame is resident, never what
/// `f` computes.
pub fn map_frames_windowed<S, T, F>(series: &S, f: F) -> Result<Vec<T>, SeriesError>
where
    S: FrameSource + ?Sized,
    T: Send,
    F: Fn(usize, u32, &ScalarVolume) -> T + Sync,
{
    let n = series.len();
    let window = series.residency_bound().unwrap_or(n).max(1);
    let steps = series.steps();
    let obs = ifet_obs::handle();
    let mut out: Vec<T> = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let end = (start + window).min(n);
        let handles = (start..end)
            .map(|i| series.frame(i))
            .collect::<Result<Vec<_>, _>>()?;
        if end < n {
            let upcoming: Vec<usize> = (end..(end + window).min(n)).collect();
            series.prefetch_hint(&upcoming);
        }
        let results: Vec<T> = handles
            .par_iter()
            .enumerate()
            .map(|(k, h)| {
                let _obs = obs.enter();
                f(start + k, steps[start + k], h)
            })
            .collect();
        out.extend(results);
        start = end;
    }
    Ok(out)
}

/// Walk consecutive frame *pairs* of several component series in lockstep
/// and in ascending time — the paging shape of Lagrangian advection, where
/// integrating the interval `[tᵢ, tᵢ₊₁]` needs both bracketing frames of
/// every velocity component resident at once.
///
/// For each interval `i` the callback receives the bracketing step labels
/// and one frame handle per component for each end of the interval
/// (`lo[k]`/`hi[k]` are component `k` at `tᵢ`/`tᵢ₊₁`). Intervals are visited
/// strictly in order; before the callback runs, frame `i + 2` of every
/// component is announced via [`FrameSource::prefetch_hint`] so a
/// read-ahead-capable source overlaps the next page-in with this interval's
/// compute. A paged component therefore never needs more than two resident
/// frames (plus one in flight), and the walk order — hence any cache's
/// hit/miss schedule — is independent of what the callback does.
///
/// All components must share one grid and step schedule; mismatches are a
/// typed [`SeriesError`], not a panic. The callback's error type only needs
/// `From<SeriesError>`, so domain layers can thread their own error through.
pub fn walk_frame_pairs<S, E, F>(components: &[&S], mut f: F) -> Result<(), E>
where
    S: FrameSource + ?Sized,
    E: From<SeriesError>,
    F: FnMut(usize, (u32, &[FrameHandle<'_>]), (u32, &[FrameHandle<'_>])) -> Result<(), E>,
{
    let Some(first) = components.first() else {
        return Ok(());
    };
    let dims = first.dims();
    let steps = first.steps().to_vec();
    for (k, c) in components.iter().enumerate().skip(1) {
        if c.dims() != dims {
            return Err(SeriesError::DimsMismatch {
                expected: dims,
                got: c.dims(),
            }
            .into());
        }
        if c.steps() != steps {
            return Err(SeriesError::StepMismatch { component: k }.into());
        }
    }
    if steps.len() < 2 {
        return Err(SeriesError::Empty.into());
    }
    // Page the first frame of every component, then slide: the previous
    // interval's `hi` handles become this interval's `lo`, so each frame is
    // demanded exactly once per component no matter how many intervals
    // reuse it.
    let mut lo: Vec<FrameHandle<'_>> = components
        .iter()
        .map(|c| c.frame(0))
        .collect::<Result<_, _>>()
        .map_err(E::from)?;
    for i in 0..steps.len() - 1 {
        let hi: Vec<FrameHandle<'_>> = components
            .iter()
            .map(|c| c.frame(i + 1))
            .collect::<Result<_, _>>()
            .map_err(E::from)?;
        if i + 2 < steps.len() {
            for c in components {
                c.prefetch_hint(&[i + 2]);
            }
        }
        f(i, (steps[i], &lo), (steps[i + 1], &hi))?;
        lo = hi;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        let d = Dims3::cube(4);
        TimeSeries::from_frames(
            (0..5u32)
                .map(|k| (10 * k + 3, ScalarVolume::filled(d, k as f32)))
                .collect(),
        )
    }

    fn generic_first_value<S: FrameSource + ?Sized>(s: &S, i: usize) -> f32 {
        s.frame(i).unwrap().as_slice()[0]
    }

    #[test]
    fn trait_matches_inherent_on_timeseries() {
        let s = series();
        assert_eq!(FrameSource::dims(&s), s.dims());
        assert_eq!(FrameSource::len(&s), s.len());
        assert_eq!(FrameSource::steps(&s), s.steps());
        assert_eq!(FrameSource::global_range(&s).unwrap(), s.global_range());
        assert_eq!(FrameSource::normalized_time(&s, 23), s.normalized_time(23));
        assert_eq!(generic_first_value(&s, 2), 2.0);
        assert!(s.residency_bound().is_none());
    }

    #[test]
    fn trait_frame_out_of_range_is_typed() {
        let s = series();
        assert!(matches!(
            FrameSource::frame(&s, 99),
            Err(SeriesError::FrameOutOfRange { index: 99, len: 5 })
        ));
    }

    #[test]
    fn frame_at_step_via_trait() {
        let s = series();
        let h = FrameSource::frame_at_step(&s, 13).unwrap().unwrap();
        assert_eq!(h.as_slice()[0], 1.0);
        assert!(FrameSource::frame_at_step(&s, 14).unwrap().is_none());
    }

    #[test]
    fn arc_passthrough_matches_inner() {
        let s = Arc::new(series());
        assert_eq!(FrameSource::dims(&s), FrameSource::dims(&*s));
        assert_eq!(FrameSource::len(&s), 5);
        assert_eq!(FrameSource::global_range(&s).unwrap(), (0.0, 4.0));
        assert_eq!(generic_first_value(&s, 3), 3.0);
        // Clones share the same underlying series.
        let s2 = Arc::clone(&s);
        assert_eq!(generic_first_value(&s2, 1), generic_first_value(&s, 1));
    }

    #[test]
    fn windowed_map_matches_direct() {
        let s = series();
        let direct: Vec<f32> = (0..s.len()).map(|i| s.frame(i).as_slice()[0]).collect();
        let mapped = map_frames_windowed(&s, |_, _, f| f.as_slice()[0]).unwrap();
        assert_eq!(mapped, direct);
    }

    #[test]
    fn windowed_map_indices_and_steps_align() {
        let s = series();
        let pairs = map_frames_windowed(&s, |i, t, _| (i, t)).unwrap();
        let expect: Vec<(usize, u32)> = s.steps().iter().copied().enumerate().collect();
        assert_eq!(pairs, expect);
    }

    #[test]
    fn frame_pairs_walk_ascending_with_both_ends_resident() {
        let s = series();
        let mut seen = Vec::new();
        walk_frame_pairs::<_, SeriesError, _>(&[&s, &s], |i, (t0, lo), (t1, hi)| {
            assert_eq!(lo.len(), 2);
            assert_eq!(hi.len(), 2);
            seen.push((i, t0, t1, lo[0].as_slice()[0], hi[1].as_slice()[0]));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![
                (0, 3, 13, 0.0, 1.0),
                (1, 13, 23, 1.0, 2.0),
                (2, 23, 33, 2.0, 3.0),
                (3, 33, 43, 3.0, 4.0),
            ]
        );
    }

    #[test]
    fn frame_pairs_reject_mismatched_components() {
        let s = series();
        let other = TimeSeries::from_frames(
            (0..5u32)
                .map(|k| (k, ScalarVolume::filled(Dims3::cube(4), 0.0)))
                .collect(),
        );
        let r = walk_frame_pairs::<_, SeriesError, _>(&[&s, &other], |_, _, _| Ok(()));
        assert!(matches!(r, Err(SeriesError::StepMismatch { component: 1 })));
        let small = TimeSeries::from_frames(vec![(0, ScalarVolume::filled(Dims3::cube(3), 0.0))]);
        let r = walk_frame_pairs::<_, SeriesError, _>(&[&s, &small], |_, _, _| Ok(()));
        assert!(matches!(r, Err(SeriesError::DimsMismatch { .. })));
    }
}
