//! The one series opener of the paged commands (track, trace-particles,
//! session, classify): load the series whole, or page it from disk through
//! a budget when `--ooc-cache N` / `--ooc-cache-bytes B` is given.

use crate::Args;
use ifet_core::obs;
use ifet_core::prelude::*;
use ifet_volume::io::{frame_paths, is_frame_file, read_series};
use ifet_volume::{CacheBudget, CacheBudgetHandle, FrameSource};
use std::path::PathBuf;

/// A series opened from the command line: in core, or paged.
pub(crate) enum Data {
    InCore(TimeSeries),
    Paged(OutOfCoreSeries),
}

impl Data {
    /// Open the frames `paths` lists, paged when a budget flag is given
    /// (`--prefetch D` adds read-ahead of up to D frames). The flags are
    /// checked before a listing error is reported.
    pub(crate) fn open(args: &Args, paths: Result<Vec<PathBuf>, String>) -> Result<Self, String> {
        let ooc = ooc_budget_opt(args)?;
        let paths = paths?;
        match ooc {
            None => read(&paths).map(Data::InCore),
            Some((budget, prefetch)) => {
                OutOfCoreSeries::open_with(paths, &CacheBudgetHandle::new(budget), prefetch)
                    .map(Data::Paged)
                    .map_err(|e| format!("failed to open out-of-core series: {e}"))
            }
        }
    }

    pub(crate) fn source(&self) -> &dyn FrameSource {
        match self {
            Data::InCore(s) => s,
            Data::Paged(s) => s,
        }
    }

    /// Paging summary appended to a command's output (empty in core). The
    /// high-water marks — the bounded-memory witnesses, in frames and bytes
    /// — are also mirrored into the runtime counter set.
    pub(crate) fn summary(&self) -> String {
        let Data::Paged(series) = self else {
            return String::new();
        };
        let st = series.stats();
        obs::counter_runtime(
            "volume.ooc.resident_high_water",
            st.resident_high_water as u64,
        );
        obs::counter_runtime(
            "volume.ooc.resident_high_water_bytes",
            st.resident_high_water_bytes,
        );
        let head = match series.budget().limit() {
            CacheBudget::Frames(_) => format!("cache capacity {} frames", series.capacity()),
            CacheBudget::Bytes(b) => {
                format!("cache budget {b} bytes (~{} frames)", series.capacity())
            }
        };
        let mut out = format!(
            "ooc: {head}, resident high-water {}, \
             hits {}, misses {}, evictions {}, {} bytes paged, \
             {} bytes high-water\n",
            st.resident_high_water,
            st.hits,
            st.misses,
            st.evictions,
            st.bytes_paged,
            st.resident_high_water_bytes,
        );
        if series.prefetch_depth() > 0 {
            out.push_str(&format!(
                "ooc: prefetch depth {}, prefetched {}, prefetch hits {}, \
                 prefetch wasted {}, read retries {}\n",
                series.prefetch_depth(),
                st.prefetched,
                st.prefetch_hits,
                st.prefetch_wasted,
                st.read_retries,
            ));
        }
        out
    }
}

/// The budget flags: `--ooc-cache N` (frames) or `--ooc-cache-bytes B`
/// (bytes), mutually exclusive, plus `--prefetch D`, which needs one of
/// them. `None` when neither budget flag is given.
pub(crate) fn ooc_budget_opt(args: &Args) -> Result<Option<(CacheBudget, usize)>, String> {
    let budget = match (
        args.opt_parsed("ooc-cache")?,
        args.opt_parsed("ooc-cache-bytes")?,
    ) {
        (Some(_), Some(_)) => {
            return Err("--ooc-cache and --ooc-cache-bytes are mutually exclusive".into())
        }
        (Some(0), None) => return Err("--ooc-cache must be at least 1 frame".into()),
        (None, Some(0)) => return Err("--ooc-cache-bytes must be positive".into()),
        (Some(n), None) => CacheBudget::Frames(n),
        (None, Some(b)) => CacheBudget::Bytes(b),
        (None, None) if args.opt("prefetch").is_some() => {
            return Err("--prefetch needs --ooc-cache N or --ooc-cache-bytes B".into())
        }
        (None, None) => return Ok(None),
    };
    Ok(Some((budget, args.opt_parse("prefetch", 0usize)?)))
}

/// The data frames of `dir`, loaded whole (for the commands that never page).
pub(crate) fn load_series(dir: &str) -> Result<TimeSeries, String> {
    read(&frame_paths(dir)?)
}

fn read(paths: &[PathBuf]) -> Result<TimeSeries, String> {
    read_series(paths).map_err(|e| format!("failed to load series: {e}"))
}

/// The frame files of `dir` whose names carry `tag`, sorted.
pub(crate) fn tagged_frames(dir: &str, tag: &str) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| is_frame_file(p))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(tag))
        })
        .collect();
    paths.sort();
    Ok(paths)
}
