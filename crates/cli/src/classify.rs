//! `classify`: run a saved session's data-space classifier over a series.

use crate::data::Data;
use crate::Args;
use ifet_core::prelude::*;
use ifet_volume::io::frame_paths;
use ifet_volume::{FrameSink, OutOfCoreSink, SeriesError};
use std::path::Path;

/// Sink adapter for `classify --out`: summarizes each certainty frame for
/// the coverage table, then forwards it to the spill-to-disk sink, so no
/// more than one derived frame is ever materialized.
struct CoverageSink {
    inner: OutOfCoreSink,
    tau: f32,
    rows: Vec<(u32, usize, f32)>,
}

impl FrameSink for CoverageSink {
    fn put(&mut self, t: u32, vol: ScalarVolume) -> Result<(), SeriesError> {
        let above = vol.as_slice().iter().filter(|&&v| v >= self.tau).count();
        self.rows.push((t, above, vol.mean()));
        self.inner.put(t, vol)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// `classify` subcommand: run a saved session's trained data-space
/// classifier over every frame and report per-frame certainty coverage.
/// With `--out DIR` the certainty fields stream to disk one frame at a
/// time; with `--ooc-cache N` / `--ooc-cache-bytes B` the input series
/// pages through a budget-bounded LRU cache (`--prefetch D` adds
/// read-ahead), so neither input nor output is ever fully in core.
pub(crate) fn cmd_classify(args: &Args) -> Result<String, String> {
    let data = Data::open(args, frame_paths(args.require("data")?))?;
    let path = args.require("session")?;
    let tau: f32 = args.opt_parse("tau", 0.5f32)?;
    let session = VisSession::load(data.source(), path).map_err(|e| e.to_string())?;
    let clf = session.classifier().ok_or(
        "session has no trained classifier (train one with `session save --paint STEP:N`)",
    )?;
    // Both paths stream: certainty frames are summarized (and with `--out`
    // written to disk) as they are produced, never collected into a Vec.
    let (rows, written) = if let Some(outdir) = args.opt("out") {
        let inner =
            OutOfCoreSink::with_compression(Path::new(outdir), "certainty", args.flag("compress"))
                .map_err(|e| format!("write failed: {e}"))?;
        let mut sink = CoverageSink {
            inner,
            tau,
            rows: Vec::new(),
        };
        clf.classify_series_into(session.series(), &mut sink)
            .map_err(|e| format!("classification failed: {e}"))?;
        let written = sink.inner.into_paths().len();
        (sink.rows, Some(written))
    } else {
        let rows = clf
            .classify_series_map(session.series(), |_, t, cert| {
                let above = cert.as_slice().iter().filter(|&&v| v >= tau).count();
                (t, above, cert.mean())
            })
            .map_err(|e| format!("classification failed: {e}"))?;
        (rows, None)
    };
    let mut out = String::from("t      voxels>=tau mean-certainty\n");
    for (t, above, mean) in &rows {
        out.push_str(&format!("{t:<6} {above:>11} {mean:>14.4}\n"));
    }
    if let (Some(written), Some(outdir)) = (written, args.opt("out")) {
        out.push_str(&format!("wrote {written} certainty volumes -> {outdir}\n"));
    }
    out.push_str(&data.summary());
    Ok(out)
}
