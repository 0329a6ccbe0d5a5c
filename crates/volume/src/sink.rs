//! Frame sinks: the write-capable counterpart to [`crate::source::FrameSource`].
//!
//! Derived per-frame fields (certainty volumes from classification, filtered
//! or classified outputs) used to materialize as a full `Vec<ScalarVolume>`
//! before being written. A [`FrameSink`] receives frames one at a time in
//! ascending step order instead, so a pipeline stage can stream its output —
//! in core via [`TimeSeriesSink`] or spilled straight to disk via
//! [`OutOfCoreSink`], which writes the same `prefix_t<step>.raw` + sidecar
//! layout as [`crate::io::write_series`] and can be reopened as an
//! [`OutOfCoreSeries`] without rewriting anything.

use crate::dims::Dims3;
use crate::io::{write_series_frame, IoError};
use crate::ooc::{CacheBudgetHandle, OutOfCoreSeries};
use crate::series::{SeriesError, TimeSeries};
use crate::volume::ScalarVolume;
use std::path::{Path, PathBuf};

/// Streaming consumer of labelled frames. The contract mirrors
/// [`TimeSeries::try_push`]: step labels strictly increase and every frame
/// shares the first frame's grid; violations surface as typed
/// [`SeriesError`]s, never panics.
pub trait FrameSink {
    /// Append the frame for step `t`.
    fn put(&mut self, t: u32, vol: ScalarVolume) -> Result<(), SeriesError>;

    /// Frames accepted so far.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Blanket passthrough so `&mut K` works wherever `K: FrameSink` is expected.
impl<K: FrameSink + ?Sized> FrameSink for &mut K {
    fn put(&mut self, t: u32, vol: ScalarVolume) -> Result<(), SeriesError> {
        (**self).put(t, vol)
    }

    fn len(&self) -> usize {
        (**self).len()
    }
}

/// In-core sink: collects frames into a [`TimeSeries`].
#[derive(Debug, Default)]
pub struct TimeSeriesSink {
    series: Option<TimeSeries>,
}

impl TimeSeriesSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected series. Errors with [`SeriesError::Empty`] when no
    /// frame was ever pushed.
    pub fn into_series(self) -> Result<TimeSeries, SeriesError> {
        self.series.ok_or(SeriesError::Empty)
    }
}

impl FrameSink for TimeSeriesSink {
    fn put(&mut self, t: u32, vol: ScalarVolume) -> Result<(), SeriesError> {
        match &mut self.series {
            Some(s) => s.try_push(t, vol),
            None => {
                let mut s = TimeSeries::new(vol.dims());
                s.try_push(t, vol)?;
                self.series = Some(s);
                Ok(())
            }
        }
    }

    fn len(&self) -> usize {
        self.series.as_ref().map_or(0, TimeSeries::len)
    }
}

/// Spill-to-disk sink: each frame is written immediately as
/// `prefix_t<step>.raw` (+ JSON sidecar) and dropped, so only one frame of
/// output is ever in core. The produced files are byte-identical to
/// [`crate::io::write_series`] on the materialized equivalent.
#[derive(Debug)]
pub struct OutOfCoreSink {
    dir: PathBuf,
    prefix: String,
    dims: Option<Dims3>,
    last_step: Option<u32>,
    paths: Vec<PathBuf>,
    compress: bool,
}

impl OutOfCoreSink {
    /// Create the sink, making `dir` as needed.
    pub fn new(dir: &Path, prefix: &str) -> Result<Self, IoError> {
        Self::with_compression(dir, prefix, false)
    }

    /// [`Self::new`] with a choice of on-disk format: `compress` writes each
    /// frame as a bricked compressed `prefix_t<step>.rawz` container (see
    /// [`crate::codec`]) instead of a raw payload. Either flavor reopens via
    /// [`Self::into_series`] with bit-identical voxels.
    pub fn with_compression(dir: &Path, prefix: &str, compress: bool) -> Result<Self, IoError> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            prefix: prefix.to_string(),
            dims: None,
            last_step: None,
            paths: Vec::new(),
            compress,
        })
    }

    /// Files written so far, in step order.
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }

    /// Finish and hand back the written paths.
    pub fn into_paths(self) -> Vec<PathBuf> {
        self.paths
    }

    /// Reopen the written frames as a paged series on `budget`, without
    /// touching any voxel data.
    pub fn into_series(
        self,
        budget: &CacheBudgetHandle,
        prefetch: usize,
    ) -> Result<OutOfCoreSeries, IoError> {
        OutOfCoreSeries::open_with(self.paths, budget, prefetch)
    }
}

impl FrameSink for OutOfCoreSink {
    fn put(&mut self, t: u32, vol: ScalarVolume) -> Result<(), SeriesError> {
        if let Some(d) = self.dims {
            if vol.dims() != d {
                return Err(SeriesError::DimsMismatch {
                    expected: d,
                    got: vol.dims(),
                });
            }
        }
        if let Some(last) = self.last_step {
            if t <= last {
                return Err(SeriesError::NonIncreasingStep { last, next: t });
            }
        }
        let p = write_series_frame(&self.dir, &self.prefix, t, &vol, self.compress)?;
        self.dims = Some(vol.dims());
        self.last_step = Some(t);
        self.paths.push(p);
        Ok(())
    }

    fn len(&self) -> usize {
        self.paths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{read_series, write_series};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ifet_sink_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn frames() -> Vec<(u32, ScalarVolume)> {
        let d = Dims3::cube(4);
        (0..4u32)
            .map(|k| (k * 7 + 1, ScalarVolume::filled(d, k as f32)))
            .collect()
    }

    #[test]
    fn timeseries_sink_collects() {
        let mut sink = TimeSeriesSink::new();
        for (t, v) in frames() {
            sink.put(t, v).unwrap();
        }
        assert_eq!(sink.len(), 4);
        let s = sink.into_series().unwrap();
        assert_eq!(s, TimeSeries::from_frames(frames()));
    }

    #[test]
    fn empty_timeseries_sink_is_typed_error() {
        assert!(matches!(
            TimeSeriesSink::new().into_series(),
            Err(SeriesError::Empty)
        ));
    }

    #[test]
    fn sinks_validate_like_try_push() {
        let d = Dims3::cube(4);
        let dir = tmpdir("validate");
        for sink in [
            &mut TimeSeriesSink::new() as &mut dyn FrameSink,
            &mut OutOfCoreSink::new(&dir, "v").unwrap(),
        ] {
            sink.put(5, ScalarVolume::zeros(d)).unwrap();
            assert!(matches!(
                sink.put(5, ScalarVolume::zeros(d)),
                Err(SeriesError::NonIncreasingStep { last: 5, next: 5 })
            ));
            assert!(matches!(
                sink.put(9, ScalarVolume::zeros(Dims3::cube(3))),
                Err(SeriesError::DimsMismatch { .. })
            ));
            assert_eq!(sink.len(), 1, "failed puts must not count");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ooc_sink_matches_write_series_bytes() {
        let dir = tmpdir("bytes");
        let series = TimeSeries::from_frames(frames());
        let batch_paths = write_series(&dir.join("batch"), "v", &series).unwrap();

        let mut sink = OutOfCoreSink::new(&dir.join("stream"), "v").unwrap();
        for (t, v) in frames() {
            sink.put(t, v).unwrap();
        }
        let stream_paths = sink.into_paths();
        assert_eq!(batch_paths.len(), stream_paths.len());
        for (a, b) in batch_paths.iter().zip(&stream_paths) {
            assert_eq!(a.file_name(), b.file_name(), "same naming scheme");
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "streamed frame bytes differ from batch write"
            );
        }
        assert_eq!(read_series(&stream_paths).unwrap(), series);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compressed_sink_matches_write_series_bytes() {
        let dir = tmpdir("zbytes");
        let series = TimeSeries::from_frames(frames());
        let batch_paths =
            crate::io::write_series_with(&dir.join("batch"), "v", &series, true).unwrap();

        let mut sink = OutOfCoreSink::with_compression(&dir.join("stream"), "v", true).unwrap();
        for (t, v) in frames() {
            sink.put(t, v).unwrap();
        }
        let stream_paths = sink.into_paths();
        assert_eq!(batch_paths.len(), stream_paths.len());
        for (a, b) in batch_paths.iter().zip(&stream_paths) {
            assert_eq!(a.file_name(), b.file_name(), "same naming scheme");
            assert_eq!(a.extension().unwrap(), "rawz");
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "streamed compressed bytes differ from batch write"
            );
        }
        assert_eq!(read_series(&stream_paths).unwrap(), series);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compressed_sink_reopens_as_series() {
        let dir = tmpdir("zreopen");
        let mut sink = OutOfCoreSink::with_compression(&dir, "v", true).unwrap();
        for (t, v) in frames() {
            sink.put(t, v).unwrap();
        }
        let budget = CacheBudgetHandle::frames(2);
        let ooc = sink.into_series(&budget, 0).unwrap();
        assert_eq!(ooc.load_all().unwrap(), TimeSeries::from_frames(frames()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ooc_sink_reopens_as_series() {
        let dir = tmpdir("reopen");
        let mut sink = OutOfCoreSink::new(&dir, "v").unwrap();
        for (t, v) in frames() {
            sink.put(t, v).unwrap();
        }
        let budget = CacheBudgetHandle::frames(2);
        let ooc = sink.into_series(&budget, 0).unwrap();
        assert_eq!(ooc.load_all().unwrap(), TimeSeries::from_frames(frames()));
        std::fs::remove_dir_all(dir).ok();
    }
}
