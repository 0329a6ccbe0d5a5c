//! `session save / load / resume`: versioned session artifacts, with an
//! optional tracking checkpoint to finish later.

use crate::data::{tagged_frames, Data};
use crate::{key_specs, parse_band, parse_paint_spec, parse_voxel, Args};
use ifet_core::obs;
use ifet_core::prelude::*;
use ifet_volume::io::{frame_paths, read_series};
use ifet_volume::FrameSource;

/// `session` subcommand dispatcher: versioned artifact save / load / resume.
/// Every action honours the paging flags (page the series from disk within
/// a budget instead of loading it whole).
pub(crate) fn cmd_session(args: &Args) -> Result<String, String> {
    type Action = fn(&Args, &dyn FrameSource) -> Result<String, String>;
    let action: Action = match args.positional.first().map(String::as_str) {
        Some("save") => save,
        Some("load") => load,
        Some("resume") => resume,
        Some(other) => {
            return Err(format!(
                "unknown session action {other:?} (try save, load, resume)"
            ))
        }
        None => return Err("session needs an action: save, load, or resume".into()),
    };
    let data = Data::open(args, frame_paths(args.require("data")?))?;
    let mut out = action(args, data.source())?;
    let summary = data.summary();
    if !summary.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str(&summary);
    Ok(out)
}

/// The `_truth` ground-truth companion frames of `dir`, which the data
/// series leaves out. Only `generate`d directories have them.
fn load_truth_series(dir: &str) -> Result<TimeSeries, String> {
    let paths = tagged_frames(dir, "_truth")?;
    if paths.is_empty() {
        return Err(format!(
            "no ground-truth sidecars in {dir} (was it written by `ifet generate`?)"
        ));
    }
    read_series(&paths).map_err(|e| format!("failed to load truth series: {e}"))
}

/// `session save`: build up session state (key frames → IATF, optionally a
/// tracking run) and persist it as a versioned artifact. With `--rounds N`
/// the tracking run may pause mid-growth; the checkpoint is saved too and
/// `session resume` finishes it later.
fn save(args: &Args, series: &dyn FrameSource) -> Result<String, String> {
    let dir = args.require("data")?;
    let out = args.require("out")?;
    let (glo, ghi) = series.global_range().map_err(|e| e.to_string())?;
    let keys = key_specs(args, series)?;
    let mut session = VisSession::new(series).map_err(|e| e.to_string())?;

    for &(t, lo, hi) in &keys {
        session.add_key_frame(t, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));
    }
    let mut notes = Vec::new();
    if !keys.is_empty() {
        let epochs: usize = args.opt_parse("epochs", 600usize)?;
        session.train_iatf(IatfParams {
            epochs,
            ..Default::default()
        });
        notes.push(format!("trained IATF on {} key frames", keys.len()));
    }

    // `--paint STEP:N` simulates a user painting N positive + N negative
    // voxels per listed frame from the generated ground-truth sidecars, then
    // trains the data-space classifier on the result.
    let paint_specs = args.all("paint");
    if !paint_specs.is_empty() {
        let truth = load_truth_series(dir)?;
        let mut oracle = PaintOracle::new(args.opt_parse("paint-seed", 1u64)?);
        let mut painted = 0usize;
        for spec in paint_specs {
            let (step, n) = parse_paint_spec(spec)?;
            let idx = truth
                .index_of_step(step)
                .ok_or_else(|| format!("paint step {step} not in series"))?;
            let mask = Mask3::threshold(truth.frame(idx), 0.5);
            let paints = oracle
                .try_paint_from_truth(step, &mask, n, n)
                .map_err(|e| e.to_string())?;
            session.add_paints(paints).map_err(|e| e.to_string())?;
            painted += 2 * n;
        }
        let clf_epochs: usize = args.opt_parse("clf-epochs", 200usize)?;
        let clf_hidden: usize = args.opt_parse("clf-hidden", ClassifierParams::default().hidden)?;
        session
            .train_classifier(
                FeatureSpec::default(),
                ClassifierParams {
                    epochs: clf_epochs,
                    hidden: clf_hidden,
                    ..Default::default()
                },
            )
            .map_err(|e| format!("classifier training failed: {e}"))?;
        notes.push(format!(
            "trained data-space classifier on {painted} painted voxels across {} frames",
            paint_specs.len()
        ));
    }

    if let Some(seed) = args.opt("seed") {
        let (sx, sy, sz) = parse_voxel(seed)?;
        let spec = if let Some(band) = args.opt("band") {
            let (lo, hi) = parse_band(band)?;
            CriterionSpec::FixedBand { lo, hi }
        } else if let Some(tau) = args.opt("dataspace-tau") {
            if session.classifier().is_none() {
                return Err(
                    "--dataspace-tau needs a trained classifier (use --paint STEP:N)".into(),
                );
            }
            CriterionSpec::DataSpace {
                tau: tau.parse().map_err(|_| "bad --dataspace-tau")?,
            }
        } else if session.iatf().is_some() {
            CriterionSpec::AdaptiveTf {
                tau: args.opt_parse("tau", 0.5f32)?,
            }
        } else {
            return Err(
                "session save --seed needs --band LO:HI, --dataspace-tau V (with --paint), \
                 or --key frames (adaptive criterion)"
                    .into(),
            );
        };
        let status = session
            .run_track(spec, &[(0, sx, sy, sz)], args.opt_parsed("rounds")?)
            .map_err(|e| format!("tracking failed: {e}"))?;
        match status {
            TrackStatus::Completed => notes.push("tracking completed".into()),
            TrackStatus::Paused { rounds } => notes.push(format!(
                "tracking paused after {rounds} rounds (checkpoint included)"
            )),
        }
    }

    embed_trace_summary(&mut session)?;
    session.save(out).map_err(|e| e.to_string())?;
    let mut msg = format!("saved session artifact -> {out}");
    for n in notes {
        msg.push_str(&format!("\n  {n}"));
    }
    Ok(msg)
}

/// When a capture is live (`--trace`/`--profile`), snapshot the span tree so
/// far and ride it along in the artifact's TRACE section. Stable mode only:
/// embedded timings would make artifact bytes nondeterministic.
fn embed_trace_summary(session: &mut VisSession<&dyn FrameSource>) -> Result<(), String> {
    if let Some(t) = obs::snapshot() {
        session
            .set_trace_summary(t.to_stable().to_json())
            .map_err(|e| format!("trace summary rejected: {e}"))?;
    }
    Ok(())
}

/// Human-readable inventory of a loaded session.
fn session_inventory(session: &VisSession<&dyn FrameSource>) -> String {
    let state = |trained: bool| if trained { "trained" } else { "absent" };
    let steps: Vec<u32> = session.key_frames().iter().map(|(t, _)| *t).collect();
    let painted: usize = session.paints().iter().map(|p| p.len()).sum();
    let mut out = format!(
        "key frames: {} {steps:?}\nIATF: {}\npaints: {} sets, {painted} voxels\n\
         classifier: {}\ncompleted tracks: {}\n",
        steps.len(),
        state(session.iatf().is_some()),
        session.paints().len(),
        state(session.classifier().is_some()),
        session.tracks().len(),
    );
    for (i, t) in session.tracks().iter().enumerate() {
        let total: usize = t.result.report.voxels_per_frame.iter().sum();
        out.push_str(&format!(
            "  #{i}: {:?} seeds {:?} -> {total} voxels, {} events\n",
            t.spec,
            t.seeds,
            t.result.report.events.len()
        ));
    }
    match session.pending_track() {
        Some(p) => out.push_str(&format!(
            "pending checkpoint: {:?} at round {}\n",
            p.spec, p.checkpoint.rounds
        )),
        None => out.push_str("pending checkpoint: none\n"),
    }
    out
}

/// `session load`: open an artifact against its series and print what is in
/// it (also serving as an integrity check — corrupt files fail here).
fn load(args: &Args, series: &dyn FrameSource) -> Result<String, String> {
    let path = args.require("session")?;
    let session = VisSession::load(series, path).map_err(|e| e.to_string())?;
    Ok(format!(
        "session artifact {path}\n{}",
        session_inventory(&session)
    ))
}

/// `session resume`: finish the artifact's pending tracking run from its
/// checkpoint and write the completed session back out.
fn resume(args: &Args, series: &dyn FrameSource) -> Result<String, String> {
    let path = args.require("session")?;
    let out = args.opt("out").unwrap_or(path);
    let mut session = VisSession::load(series, path).map_err(|e| e.to_string())?;
    let result = session.resume_track().map_err(|e| e.to_string())?;
    let total: usize = result.report.voxels_per_frame.iter().sum();
    let events = result.report.events.len();
    embed_trace_summary(&mut session)?;
    session.save(out).map_err(|e| e.to_string())?;
    Ok(format!(
        "resumed tracking to completion: {total} voxels, {events} events\nsaved -> {out}"
    ))
}
