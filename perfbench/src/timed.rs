//! Wrappers that time the `volume` layer from outside: a [`FrameSource`]
//! whose every `frame` call is a `volume.frame` span, and a [`FrameSink`]
//! whose every `put` is a `volume.sink_put` span. Everything else forwards
//! to the wrapped type unchanged, so the program behaves exactly as it would
//! on the bare source or sink.

use crate::spans;
use crate::stats::ratio;
use ifet_volume::{
    CacheBudgetHandle, CumulativeHistogram, Dims3, FrameHandle, FrameSink, FrameSource,
    OutOfCoreSeries, OutOfCoreSink, ScalarVolume, SeriesError,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

pub struct TimedSource<S> {
    inner: S,
    /// When each frame was first requested since the last `take_requested`.
    requested: Mutex<Vec<Option<Instant>>>,
}

impl<S: FrameSource> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        let n = inner.len();
        Self {
            inner,
            requested: Mutex::new(vec![None; n]),
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// First-request instants per frame index, resetting the record.
    pub fn take_requested(&self) -> Vec<Option<Instant>> {
        let mut r = self.requested.lock().expect("request log poisoned");
        let n = r.len();
        std::mem::replace(&mut *r, vec![None; n])
    }
}

impl<S: FrameSource> FrameSource for TimedSource<S> {
    fn dims(&self) -> Dims3 {
        self.inner.dims()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn steps(&self) -> &[u32] {
        self.inner.steps()
    }

    fn frame(&self, i: usize) -> Result<FrameHandle<'_>, SeriesError> {
        let now = Instant::now();
        if let Some(slot) = self
            .requested
            .lock()
            .expect("request log poisoned")
            .get_mut(i)
        {
            slot.get_or_insert(now);
        }
        let _s = spans::span("volume.frame");
        self.inner.frame(i)
    }

    fn residency_bound(&self) -> Option<usize> {
        self.inner.residency_bound()
    }

    fn prefetch_hint(&self, upcoming: &[usize]) {
        self.inner.prefetch_hint(upcoming)
    }

    fn index_of_step(&self, t: u32) -> Option<usize> {
        self.inner.index_of_step(t)
    }

    fn normalized_time(&self, t: u32) -> f32 {
        self.inner.normalized_time(t)
    }

    fn global_range(&self) -> Result<(f32, f32), SeriesError> {
        self.inner.global_range()
    }

    fn cumulative_histograms(&self, bins: usize) -> Result<Vec<CumulativeHistogram>, SeriesError> {
        self.inner.cumulative_histograms(bins)
    }
}

/// A spill-to-disk sink that times each `put` and notes when it finished
/// and how many payload bytes it wrote.
pub struct TimedSink {
    inner: OutOfCoreSink,
    /// `(step, finished at)` per accepted frame.
    pub puts: Vec<(u32, Instant)>,
    pub bytes_written: u64,
}

impl TimedSink {
    pub fn new(inner: OutOfCoreSink) -> Self {
        Self {
            inner,
            puts: Vec::new(),
            bytes_written: 0,
        }
    }

    /// Files written so far, in step order.
    pub fn paths(&self) -> &[PathBuf] {
        self.inner.paths()
    }
}

impl FrameSink for TimedSink {
    fn put(&mut self, t: u32, vol: ScalarVolume) -> Result<(), SeriesError> {
        {
            let _s = spans::span("volume.sink_put");
            self.inner.put(t, vol)?;
        }
        self.puts.push((t, Instant::now()));
        if let Some(p) = self.inner.paths().last() {
            self.bytes_written += std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Paging counters summed over the series (and budgets) a workload uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct Paging {
    pub hits: u64,
    pub misses: u64,
    pub bytes_paged: u64,
    pub read_retries: u64,
    pub evictions: u64,
    pub high_water_bytes: u64,
}

impl Paging {
    /// Sum the cache counters of `series` and the counters of the distinct
    /// `budgets` they page through.
    pub fn of(series: &[&OutOfCoreSeries], budgets: &[&CacheBudgetHandle]) -> Self {
        let mut p = Self::default();
        for s in series {
            let c = s.stats();
            p.hits += c.hits;
            p.misses += c.misses;
            p.bytes_paged += c.bytes_paged;
            p.read_retries += c.read_retries;
        }
        for b in budgets {
            let b = b.stats();
            p.evictions += b.evictions;
            p.high_water_bytes += b.high_water_bytes;
        }
        p
    }

    /// The `volume.*` paging metrics of the interval from `self` to `after`,
    /// per op.
    pub fn metrics(&self, after: &Self, ops: f64, m: &mut BTreeMap<&'static str, f64>) {
        let misses = (after.misses - self.misses) as f64;
        let demand = misses + (after.hits - self.hits) as f64;
        m.insert("volume.miss_ratio", ratio(misses, demand));
        m.insert(
            "volume.bytes_paged",
            ratio((after.bytes_paged - self.bytes_paged) as f64, ops),
        );
        m.insert(
            "volume.evictions",
            ratio((after.evictions - self.evictions) as f64, ops),
        );
        m.insert(
            "volume.read_retries",
            ratio((after.read_retries - self.read_retries) as f64, ops),
        );
        m.insert("volume.high_water_bytes", after.high_water_bytes as f64);
    }
}
