//! `track`: 4D region growing from a seed voxel, then the per-frame voxel
//! counts, events and persistent tracks (with merge targets).

use crate::data::Data;
use crate::incore::load_iatf;
use crate::{parse_band, parse_voxel, with_threads, Args};
use ifet_core::prelude::*;
use ifet_volume::io::frame_paths;
use ifet_volume::map_frames_windowed;

/// `track` subcommand. The criterion is an IATF (`--iatf FILE --tau V`), a
/// fixed band, or a saved session's data-space classifier (`--session FILE
/// --dataspace-tau V`). Paging flags keep the series on disk within their
/// budget, and a paging summary is appended.
pub(crate) fn cmd_track(args: &Args) -> Result<String, String> {
    let data = Data::open(args, frame_paths(args.require("data")?))?;
    let series = data.source();
    let (sx, sy, sz) = parse_voxel(args.require("seed")?)?;
    let seeds = [(0, sx, sy, sz)];
    let session = match args.opt("session") {
        Some(path) => VisSession::load(series, path).map_err(|e| e.to_string())?,
        None => VisSession::new(series).map_err(|e| e.to_string())?,
    };

    // Per-frame stages (IATF generation, acceptance tables, classification)
    // fan out over frames on `--threads` workers; the grow rounds are serial.
    let masks = with_threads(args, || {
        let failed = |e: &dyn std::fmt::Display| format!("tracking failed: {e}");
        let spec = if let Some(tau) = args.opt("dataspace-tau") {
            let tau: f32 = tau.parse().map_err(|_| "bad --dataspace-tau")?;
            CriterionSpec::DataSpace { tau }
        } else if let Some(path) = args.opt("iatf") {
            let iatf = load_iatf(path)?;
            let tau: f32 = args.opt_parse("tau", 0.5f32)?;
            let criterion = adaptive_tables(series, tau, |t, frame| iatf.generate(t, frame))
                .map_err(|e| failed(&e))?;
            return grow_4d(series, &criterion, &seeds).map_err(|e| failed(&e));
        } else if let Some(band) = args.opt("band") {
            let (lo, hi) = parse_band(band)?;
            CriterionSpec::FixedBand { lo, hi }
        } else {
            return Err(
                "track needs --iatf FILE [--tau V], --band LO:HI, or --session FILE --dataspace-tau V"
                    .into(),
            );
        };
        let criterion = session.resolve_criterion(&spec).map_err(|e| failed(&e))?;
        grow_4d(series, criterion.as_ref(), &seeds).map_err(|e| failed(&SessionError::from(e)))
    })?;

    // One labelling per mask feeds both the events and the attributes, which
    // are measured frame by frame, so a paged series stays within budget.
    let labelings = label_masks(&masks);
    let report = events_from_labelings(&labelings);
    let steps = series.steps();
    let mut out = String::from("t      voxels components\n");
    for (i, &t) in steps.iter().enumerate() {
        out.push_str(&format!(
            "{:<6} {:>7} {:>10}\n",
            t, report.voxels_per_frame[i], report.components_per_frame[i]
        ));
    }
    out.push_str("events:\n");
    for e in &report.events {
        out.push_str(&format!(
            "  t={}: {:?} {:?} -> {:?}\n",
            steps[e.frame], e.kind, e.before, e.after
        ));
    }

    let attrs = map_frames_windowed(series, |i, _, frame| {
        FeatureAttributes::measure_all(&labelings[i], frame)
    })
    .map_err(|e| format!("attribute measurement failed: {e}"))?;
    let track_set = extract_tracks_from_parts(&attrs, report);
    out.push_str("tracks:\n");
    for t in &track_set.tracks {
        let last = t.start_frame + t.lifetime() - 1;
        let ending = match t.ending {
            TrackEnding::SurvivesToEnd => "survives to end".to_string(),
            TrackEnding::Dissipated => "dissipated".to_string(),
            TrackEnding::Split => "split".to_string(),
            TrackEnding::Merged { into } => format!("merged into #{into}"),
        };
        out.push_str(&format!(
            "  #{} t={}..{} (life {}) {}\n",
            t.id,
            steps[t.start_frame],
            steps[last],
            t.lifetime(),
            ending
        ));
    }
    out.push_str(&data.summary());
    Ok(out)
}
