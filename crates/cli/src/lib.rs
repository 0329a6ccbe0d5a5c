//! Command implementations and argument parsing for the `ifet` CLI.
//!
//! Subcommands:
//! - `generate <dataset> --out DIR [--dims N] [--seed S]` — write one of the
//!   six synthetic 4D datasets as raw bricks (+ ground-truth sidecars),
//! - `info --data DIR` — inventory a series on disk,
//! - `train-iatf --data DIR --key T:LO:HI ... --out FILE` — train the
//!   adaptive transfer function from key-frame value bands,
//! - `render --data DIR --step T (--iatf FILE | --band LO:HI) --out FILE.ppm`
//!   — ray-cast one frame,
//! - `track --data DIR --seed X,Y,Z (--iatf FILE --tau V | --band LO:HI |
//!   --session FILE --dataspace-tau V)` — 4D region growing with an
//!   adaptive, fixed, or data-space criterion; prints the per-frame voxel
//!   counts, events, and persistent tracks (with merge targets),
//! - `generate-flow <flow> --out DIR` — write an analytic velocity field as
//!   three scalar component series,
//! - `trace-particles --flow DIR` — RK4 pathline advection of a particle
//!   ensemble, with optional pathline artifact output and MLP flow-map
//!   surrogate training.
//!
//! Every subcommand additionally honours `--trace FILE` (versioned JSON
//! span tree), `--profile` (per-stage table on stderr), and
//! `--trace-mode full|stable` — see [`run`].

#![forbid(unsafe_code)]

use ifet_core::obs;
use ifet_core::prelude::*;
use ifet_sim::flows::{flow_series, FlowKind};
use ifet_tf::Iatf;
use ifet_trace::{
    advect, save_pathlines, seed_grid, train_flow_map, ParticleEnding, SurrogateParams, TraceParams,
};
use ifet_volume::io::{frame_paths, is_frame_file, read_series, write_series_with};
use ifet_volume::{
    map_frames_windowed, CacheBudget, CacheBudgetHandle, FrameSink, FrameSource, OutOfCoreSeries,
    OutOfCoreSink, SeriesError,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Options that take no value; `--profile` alone means "print the profile",
/// `--compress` selects bricked compressed frame output, and `--adaptive`
/// asks `client render-slice` for IATF-modulated opacity.
const BOOL_FLAGS: &[&str] = &["profile", "compress", "adaptive", "seed-from-track"];

/// Every valued option some subcommand reads. Any other `--name` is
/// rejected, so a typo cannot silently take the next token as its value.
const VALUE_OPTIONS: &[&str] = &[
    "artifact",
    "axis",
    "band",
    "batch",
    "clf-epochs",
    "clf-hidden",
    "data",
    "dataspace-tau",
    "depth",
    "dims",
    "epochs",
    "flow",
    "frames",
    "hidden",
    "iatf",
    "k",
    "key",
    "max",
    "max-inflight",
    "max-requests",
    "ooc-cache",
    "ooc-cache-bytes",
    "out",
    "paint",
    "paint-seed",
    "prefetch",
    "requests",
    "rk4-dt",
    "rounds",
    "seed",
    "seed-grid",
    "session",
    "size",
    "socket",
    "step",
    "stride",
    "surrogate-epochs",
    "surrogate-hidden",
    "tau",
    "tenant",
    "tenant-quota-bytes",
    "threads",
    "trace",
    "trace-mode",
    "track-seed",
    "workers",
];

/// Parsed command line: subcommand, positional args, `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub command: String,
    pub positional: Vec<String>,
    pub options: HashMap<String, Vec<String>>,
}

/// Parse raw arguments (after the binary name). `--flag v` options may
/// repeat; repeated values accumulate. An option outside [`BOOL_FLAGS`] and
/// [`VALUE_OPTIONS`] is an error.
pub fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut it = raw.iter().peekable();
    let command = it.next().ok_or("missing subcommand")?.clone();
    let mut positional = Vec::new();
    let mut options: HashMap<String, Vec<String>> = HashMap::new();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = if BOOL_FLAGS.contains(&name) {
                "true".to_string()
            } else if VALUE_OPTIONS.contains(&name) {
                it.next()
                    .ok_or_else(|| format!("option --{name} needs a value"))?
                    .clone()
            } else {
                return Err(format!("unknown option --{name}"));
            };
            options.entry(name.to_string()).or_default().push(value);
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Args {
        command,
        positional,
        options,
    })
}

impl Args {
    /// Single-valued option.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .get(name)
            .and_then(|v| v.last())
            .map(|s| s.as_str())
    }

    /// Required single-valued option.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.opt(name)
            .ok_or_else(|| format!("missing required --{name}"))
    }

    /// All values of a repeatable option.
    pub fn all(&self, name: &str) -> &[String] {
        self.options.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Presence of a valueless flag (see [`BOOL_FLAGS`]).
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("invalid --{name}: {s:?}")),
        }
    }
}

/// Parse `T:LO:HI` key-frame specs.
pub fn parse_key_spec(s: &str) -> Result<(u32, f32, f32), String> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("key spec must be T:LO:HI, got {s:?}"));
    }
    let t = parts[0].parse().map_err(|_| format!("bad step in {s:?}"))?;
    let lo = parts[1].parse().map_err(|_| format!("bad lo in {s:?}"))?;
    let hi: f32 = parts[2].parse().map_err(|_| format!("bad hi in {s:?}"))?;
    if hi <= lo {
        return Err(format!("key spec {s:?}: hi must exceed lo"));
    }
    Ok((t, lo, hi))
}

/// Parse `STEP:N` oracle-paint specs (paint N positive + N negative voxels
/// from the ground-truth sidecar of time step STEP).
pub fn parse_paint_spec(s: &str) -> Result<(u32, usize), String> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 2 {
        return Err(format!("paint spec must be STEP:N, got {s:?}"));
    }
    let t = parts[0].parse().map_err(|_| format!("bad step in {s:?}"))?;
    let n: usize = parts[1]
        .parse()
        .map_err(|_| format!("bad count in {s:?}"))?;
    if n == 0 {
        return Err(format!("paint spec {s:?}: count must be positive"));
    }
    Ok((t, n))
}

/// Parse `X,Y,Z` voxel coordinates.
pub fn parse_voxel(s: &str) -> Result<(usize, usize, usize), String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 3 {
        return Err(format!("voxel must be X,Y,Z, got {s:?}"));
    }
    let p = |i: usize| {
        parts[i]
            .parse::<usize>()
            .map_err(|_| format!("bad coordinate in {s:?}"))
    };
    Ok((p(0)?, p(1)?, p(2)?))
}

/// Parse `X,Y,Z` fractional particle-seed positions (voxel-index units).
pub fn parse_seed(s: &str) -> Result<[f64; 3], String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 3 {
        return Err(format!("seed must be X,Y,Z, got {s:?}"));
    }
    let p = |i: usize| {
        parts[i]
            .parse::<f64>()
            .map_err(|_| format!("bad coordinate in {s:?}"))
    };
    Ok([p(0)?, p(1)?, p(2)?])
}

/// Parse `LO:HI` bands.
pub fn parse_band(s: &str) -> Result<(f32, f32), String> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 2 {
        return Err(format!("band must be LO:HI, got {s:?}"));
    }
    let lo = parts[0].parse().map_err(|_| format!("bad lo in {s:?}"))?;
    let hi: f32 = parts[1].parse().map_err(|_| format!("bad hi in {s:?}"))?;
    if hi <= lo {
        return Err(format!("band {s:?}: hi must exceed lo"));
    }
    Ok((lo, hi))
}

fn load_series(dir: &str) -> Result<TimeSeries, String> {
    read_series(&frame_paths(dir)?).map_err(|e| format!("failed to load series: {e}"))
}

/// Parsed out-of-core paging options, bundled so every subcommand threads
/// them identically.
#[derive(Debug, Clone, Copy)]
struct OocOpts {
    budget: CacheBudget,
    prefetch: usize,
}

/// Parsed out-of-core paging options: `--ooc-cache N` (frame budget) or
/// `--ooc-cache-bytes B` (byte budget) select the disk-backed path, and
/// `--prefetch D` adds background read-ahead of up to D frames. The two
/// budget flags are mutually exclusive, and `--prefetch` is only meaningful
/// when one of them is present.
fn ooc_budget_opt(args: &Args) -> Result<Option<OocOpts>, String> {
    let budget = match (args.opt("ooc-cache"), args.opt("ooc-cache-bytes")) {
        (Some(_), Some(_)) => {
            return Err("--ooc-cache and --ooc-cache-bytes are mutually exclusive".into())
        }
        (Some(s), None) => {
            let n: usize = s
                .parse()
                .map_err(|_| format!("invalid --ooc-cache: {s:?}"))?;
            if n == 0 {
                return Err("--ooc-cache must be at least 1 frame".into());
            }
            Some(CacheBudget::Frames(n))
        }
        (None, Some(s)) => {
            let b: u64 = s
                .parse()
                .map_err(|_| format!("invalid --ooc-cache-bytes: {s:?}"))?;
            if b == 0 {
                return Err("--ooc-cache-bytes must be positive".into());
            }
            Some(CacheBudget::Bytes(b))
        }
        (None, None) => None,
    };
    let prefetch: usize = args.opt_parse("prefetch", 0usize)?;
    match budget {
        Some(b) => Ok(Some(OocOpts {
            budget: b,
            prefetch,
        })),
        None if args.opt("prefetch").is_some() => {
            Err("--prefetch needs --ooc-cache N or --ooc-cache-bytes B".into())
        }
        None => Ok(None),
    }
}

/// `--batch N`: samples per ray packet when rendering. 0 (the default) =
/// auto. Output is bit-identical at every width, so this is purely a
/// throughput knob.
fn batch_opt(args: &Args) -> Result<usize, String> {
    args.opt_parse("batch", 0usize)
}

/// Open `paths` as one out-of-core series on a budget of its own.
fn open_ooc(paths: Vec<PathBuf>, opts: OocOpts) -> Result<OutOfCoreSeries, String> {
    OutOfCoreSeries::open_with(paths, &CacheBudgetHandle::new(opts.budget), opts.prefetch)
        .map_err(|e| format!("failed to open out-of-core series: {e}"))
}

/// Paging summary appended to a command's output. The high-water marks — the
/// bounded-memory witnesses, in frames and bytes — are also mirrored into
/// the runtime counter set.
fn ooc_summary(series: &OutOfCoreSeries) -> String {
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

/// Load the `_truth` ground-truth companion frames that [`load_series`]
/// filters out. Only `generate`d directories have them.
fn load_truth_series(dir: &str) -> Result<TimeSeries, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| is_frame_file(p))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.contains("_truth"))
                .unwrap_or(false)
        })
        .collect();
    if paths.is_empty() {
        return Err(format!(
            "no ground-truth sidecars in {dir} (was it written by `ifet generate`?)"
        ));
    }
    paths.sort();
    read_series(&paths).map_err(|e| format!("failed to load truth series: {e}"))
}

/// `generate` subcommand.
pub fn cmd_generate(args: &Args) -> Result<String, String> {
    let name = args
        .positional
        .first()
        .ok_or("generate needs a dataset name")?;
    let out = args.require("out")?;
    let n: usize = args.opt_parse("dims", 48usize)?;
    let seed: u64 = args.opt_parse("seed", 7u64)?;
    let dims = Dims3::cube(n);
    let data = match name.as_str() {
        "shock-bubble" => ifet_sim::shock_bubble(dims, seed),
        "combustion-jet" => ifet_sim::combustion_jet(dims, seed),
        "reionization" => ifet_sim::reionization(dims, seed),
        "turbulent-vortex" => ifet_sim::turbulent_vortex(dims, seed),
        "swirling-flow" => ifet_sim::swirling_flow(dims, seed),
        "qg-turbulence" => ifet_sim::qg_turbulence(dims, seed),
        other => {
            return Err(format!(
                "unknown dataset {other:?} (try shock-bubble, combustion-jet, reionization, \
                 turbulent-vortex, swirling-flow, qg-turbulence)"
            ))
        }
    };
    let compress = args.flag("compress");
    let paths = write_series_with(Path::new(out), &data.name, &data.series, compress)
        .map_err(|e| format!("write failed: {e}"))?;
    // Ground-truth masks as 0/1 volumes alongside.
    let truth_series = TimeSeries::from_frames(
        data.series
            .steps()
            .iter()
            .zip(&data.truth)
            .map(|(&t, m)| (t, m.to_volume()))
            .collect(),
    );
    write_series_with(
        Path::new(out),
        &format!("{}_truth", data.name),
        &truth_series,
        compress,
    )
    .map_err(|e| format!("truth write failed: {e}"))?;
    Ok(format!(
        "wrote {} frames of {} ({}) + ground truth to {}{}",
        paths.len(),
        data.name,
        dims,
        out,
        if compress { " (compressed)" } else { "" }
    ))
}

/// `info` subcommand.
pub fn cmd_info(args: &Args) -> Result<String, String> {
    let dir = args.require("data")?;
    let series = load_series(dir)?;
    let (lo, hi) = series.global_range();
    let mut out = format!(
        "series: {} frames of {}, steps {:?}\nglobal value range [{lo:.4}, {hi:.4}]\n",
        series.len(),
        series.dims(),
        series.steps()
    );
    for (t, f) in series.iter() {
        let (flo, fhi) = f.value_range();
        out.push_str(&format!(
            "  t={t:<6} range [{flo:.4}, {fhi:.4}] mean {:.4}\n",
            f.mean()
        ));
    }
    Ok(out)
}

/// `train-iatf` subcommand.
pub fn cmd_train_iatf(args: &Args) -> Result<String, String> {
    let dir = args.require("data")?;
    let out = args.require("out")?;
    let series = load_series(dir)?;
    let keys = key_specs(args, &series)?;
    if keys.is_empty() {
        return Err("train-iatf needs at least one --key T:LO:HI".into());
    }
    let (glo, ghi) = series.global_range();
    let mut session = VisSession::new(series).unwrap();
    for (t, lo, hi) in keys {
        session.add_key_frame(t, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));
    }
    let epochs: usize = args.opt_parse("epochs", 600usize)?;
    let hidden: usize = args.opt_parse("hidden", IatfParams::default().hidden)?;
    if hidden == 0 {
        return Err("--hidden must be at least 1 neuron".into());
    }
    session.train_iatf(IatfParams {
        epochs,
        hidden,
        ..Default::default()
    });
    let iatf = session.iatf().unwrap();
    let json = serde_json::to_string(iatf).map_err(|e| e.to_string())?;
    std::fs::write(out, &json).map_err(|e| e.to_string())?;
    Ok(format!(
        "trained IATF on {} key frames, final loss {:.5}, saved to {out}",
        session.key_frames().len(),
        iatf.final_loss().unwrap_or(f32::NAN)
    ))
}

/// The `--key T:LO:HI` specs, each checked against the series' steps.
fn key_specs(args: &Args, series: &impl FrameSource) -> Result<Vec<(u32, f32, f32)>, String> {
    args.all("key")
        .iter()
        .map(|k| match parse_key_spec(k)? {
            (t, ..) if series.index_of_step(t).is_none() => Err(format!("step {t} not in series")),
            key => Ok(key),
        })
        .collect()
}

fn load_iatf(path: &str) -> Result<Iatf, String> {
    let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    serde_json::from_str(&json).map_err(|e| format!("bad IATF file: {e}"))
}

/// `render` subcommand.
pub fn cmd_render(args: &Args) -> Result<String, String> {
    let dir = args.require("data")?;
    let out = args.require("out")?;
    let t: u32 = args.require("step")?.parse().map_err(|_| "bad --step")?;
    let size: usize = args.opt_parse("size", 256usize)?;
    let series = load_series(dir)?;
    let frame = series
        .frame_at_step(t)
        .ok_or_else(|| format!("step {t} not in series"))?;
    let (glo, ghi) = series.global_range();
    let mut session = VisSession::new(series.clone()).unwrap();
    // `--batch` maps onto the ray caster's packet width here (clamped to
    // MAX_PACKET internally); output is invariant to it.
    session.renderer.params.packet = batch_opt(args)?;

    let tf = if let Some(path) = args.opt("iatf") {
        load_iatf(path)?.generate(t, frame)
    } else if let Some(band) = args.opt("band") {
        let (lo, hi) = parse_band(band)?;
        TransferFunction1D::band(glo, ghi, lo, hi, 0.9)
    } else {
        return Err("render needs --iatf FILE or --band LO:HI".into());
    };

    let img = session.render_with_tf(t, &tf, size, size);
    img.save_ppm(Path::new(out)).map_err(|e| e.to_string())?;
    Ok(format!("rendered step {t} at {size}x{size} -> {out}"))
}

/// `track` subcommand. With `--ooc-cache N` (or `--ooc-cache-bytes B`) the
/// series stays on disk and at most that budget of frames is resident at
/// once; `--prefetch D` overlaps the next window's reads with the current
/// window's compute. A paging summary is appended.
pub fn cmd_track(args: &Args) -> Result<String, String> {
    let dir = args.require("data")?;
    match ooc_budget_opt(args)? {
        Some(opts) => {
            let series = open_ooc(frame_paths(dir)?, opts)?;
            let mut out = cmd_track_impl(args, &series)?;
            out.push_str(&ooc_summary(&series));
            Ok(out)
        }
        None => cmd_track_impl(args, load_series(dir)?),
    }
}

fn cmd_track_impl<S: FrameSource>(args: &Args, series: S) -> Result<String, String> {
    let (sx, sy, sz) = parse_voxel(args.require("seed")?)?;
    let threads: usize = args.opt_parse("threads", 0usize)?;
    // `--session` opens a saved artifact so artifact state (most usefully a
    // trained data-space classifier) can drive the criterion.
    let session = if let Some(path) = args.opt("session") {
        VisSession::load(series, path).map_err(|e| e.to_string())?
    } else {
        VisSession::new(series).map_err(|e| e.to_string())?
    };

    // Per-frame stages (IATF generation, acceptance tables, classification)
    // fan out over frames; `--threads` pins their worker count (0 = default
    // sizing). The grow rounds themselves are serial.
    let run_tracking = |session: &VisSession<S>| -> Result<TrackResult, String> {
        if let Some(tau) = args.opt("dataspace-tau") {
            let tau: f32 = tau.parse().map_err(|_| "bad --dataspace-tau")?;
            session
                .track_spec(&CriterionSpec::DataSpace { tau }, &[(0, sx, sy, sz)])
                .map_err(|e| format!("tracking failed: {e}"))
        } else if let Some(path) = args.opt("iatf") {
            let iatf = load_iatf(path)?;
            let tau: f32 = args.opt_parse("tau", 0.5f32)?;
            let tfs: Vec<TransferFunction1D> =
                map_frames_windowed(session.series(), |_, t, frame| iatf.generate(t, frame))
                    .map_err(|e| format!("tracking failed: {e}"))?;
            let criterion =
                AdaptiveTfCriterion::new(tfs, tau).map_err(|e| format!("tracking failed: {e}"))?;
            session
                .track_with(&criterion, &[(0, sx, sy, sz)])
                .map_err(|e| format!("tracking failed: {e}"))
        } else if let Some(band) = args.opt("band") {
            let (lo, hi) = parse_band(band)?;
            session
                .track_fixed(&[(0, sx, sy, sz)], lo, hi)
                .map_err(|e| format!("tracking failed: {e}"))
        } else {
            Err(
                "track needs --iatf FILE [--tau V], --band LO:HI, or --session FILE --dataspace-tau V"
                    .into(),
            )
        }
    };
    let result = if threads == 0 {
        run_tracking(&session)?
    } else {
        pipeline::pool_with_threads(threads).install(|| run_tracking(&session))?
    };

    let steps = session.series().steps().to_vec();
    let mut out = String::from("t      voxels components\n");
    for (i, &t) in steps.iter().enumerate() {
        out.push_str(&format!(
            "{:<6} {:>7} {:>10}\n",
            t, result.report.voxels_per_frame[i], result.report.components_per_frame[i]
        ));
    }
    out.push_str("events:\n");
    for e in &result.report.events {
        out.push_str(&format!(
            "  t={}: {:?} {:?} -> {:?}\n",
            steps[e.frame], e.kind, e.before, e.after
        ));
    }

    // Persistent tracks with endings. Labeling works off the masks alone;
    // attributes are measured frame-by-frame through the windowed walker, so
    // the out-of-core path never needs all frames resident at once.
    let labelings = label_masks(&result.masks);
    let attrs: Vec<Vec<FeatureAttributes>> =
        map_frames_windowed(session.series(), |i, _, frame| {
            FeatureAttributes::measure_all(&labelings[i], frame)
        })
        .map_err(|e| format!("attribute measurement failed: {e}"))?;
    let track_set = extract_tracks_from_parts(&attrs, result.report.clone());
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
    Ok(out)
}

/// The three velocity-component frame sets of a flow directory written by
/// `generate-flow`: frame files whose names carry `_u_t` / `_v_t` / `_w_t`.
fn flow_component_paths(dir: &str) -> Result<[Vec<PathBuf>; 3], String> {
    let all = frame_paths(dir)?;
    let pick = |tag: &str| -> Vec<PathBuf> {
        all.iter()
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.contains(tag))
                    .unwrap_or(false)
            })
            .cloned()
            .collect()
    };
    let comps = [pick("_u_t"), pick("_v_t"), pick("_w_t")];
    for (c, name) in comps.iter().zip(["u", "v", "w"]) {
        if c.is_empty() {
            return Err(format!(
                "no {name}-component frames (*_{name}_t*.raw/.rawz) in {dir} \
                 (was it written by `ifet generate-flow`?)"
            ));
        }
    }
    if comps[0].len() != comps[1].len() || comps[0].len() != comps[2].len() {
        return Err(format!(
            "velocity components disagree on frame count: u={}, v={}, w={}",
            comps[0].len(),
            comps[1].len(),
            comps[2].len()
        ));
    }
    Ok(comps)
}

/// `generate-flow` subcommand: write an analytic velocity field as three
/// scalar component series (u, v, w) for `trace-particles` to advect through.
pub fn cmd_generate_flow(args: &Args) -> Result<String, String> {
    let name = args
        .positional
        .first()
        .ok_or("generate-flow needs a flow name (uniform, rotation, swirl)")?;
    let kind = FlowKind::parse(name)
        .ok_or_else(|| format!("unknown flow {name:?} (try uniform, rotation, swirl)"))?;
    let out = args.require("out")?;
    let n: usize = args.opt_parse("dims", 32usize)?;
    let frames: usize = args.opt_parse("frames", 8usize)?;
    let stride: u32 = args.opt_parse("stride", 2u32)?;
    if frames < 2 {
        return Err("--frames must be at least 2 (advection needs a frame pair)".into());
    }
    if stride == 0 {
        return Err("--stride must be positive".into());
    }
    let compress = args.flag("compress");
    let dims = Dims3::cube(n);
    let f = flow_series(kind, dims, frames, stride);
    let mut total = 0;
    for (comp, series) in [("u", &f.u), ("v", &f.v), ("w", &f.w)] {
        total += write_series_with(Path::new(out), &format!("{name}_{comp}"), series, compress)
            .map_err(|e| format!("write failed: {e}"))?
            .len();
    }
    Ok(format!(
        "wrote {total} velocity frames of {name} ({frames} per component, {dims}, \
         stride {stride}) to {out}{}",
        if compress { " (compressed)" } else { "" }
    ))
}

/// `--seed-from-track`: drop a particle at every voxel of the frame-0 grown
/// feature mask — the paper's "follow the feature" workload, tracers seeded
/// inside an extracted feature and carried off by the flow.
fn seeds_from_track(args: &Args, dims: Dims3) -> Result<Vec<[f64; 3]>, String> {
    let dir = args.require("data")?;
    let (sx, sy, sz) = parse_voxel(args.require("track-seed")?)?;
    let (lo, hi) = parse_band(args.require("band")?)?;
    let series = load_series(dir)?;
    if series.dims() != dims {
        return Err(format!(
            "--data dims {} do not match the flow's dims {dims}",
            series.dims()
        ));
    }
    let session = VisSession::new(series).map_err(|e| e.to_string())?;
    let result = session
        .track_fixed(&[(0, sx, sy, sz)], lo, hi)
        .map_err(|e| format!("seed tracking failed: {e}"))?;
    let mask = &result.masks[0];
    let mut seeds = Vec::new();
    for z in 0..dims.nz {
        for y in 0..dims.ny {
            for x in 0..dims.nx {
                if mask.get(x, y, z) {
                    seeds.push([x as f64, y as f64, z as f64]);
                }
            }
        }
    }
    if seeds.is_empty() {
        return Err("--seed-from-track: the frame-0 feature mask is empty".into());
    }
    Ok(seeds)
}

/// `trace-particles` subcommand. With an out-of-core budget, each velocity
/// component pages through its OWN cache of the requested size — the
/// documented bound (`--ooc-cache N` ⇒ at most N resident frames per
/// component) — and a per-component paging summary is appended.
pub fn cmd_trace_particles(args: &Args) -> Result<String, String> {
    let dir = args.require("flow")?;
    let [pu, pv, pw] = flow_component_paths(dir)?;
    match ooc_budget_opt(args)? {
        Some(opts) => {
            let (u, v, w) = (
                open_ooc(pu, opts)?,
                open_ooc(pv, opts)?,
                open_ooc(pw, opts)?,
            );
            let mut out = cmd_trace_impl(args, &u, &v, &w)?;
            for (name, s) in [("u", &u), ("v", &v), ("w", &w)] {
                for line in ooc_summary(s).lines() {
                    out.push_str(&format!("{name} {line}\n"));
                }
            }
            Ok(out)
        }
        None => {
            let load = |paths: Vec<PathBuf>| {
                read_series(&paths).map_err(|e| format!("failed to load series: {e}"))
            };
            let (u, v, w) = (load(pu)?, load(pv)?, load(pw)?);
            cmd_trace_impl(args, &u, &v, &w)
        }
    }
}

fn cmd_trace_impl<S: FrameSource>(args: &Args, u: &S, v: &S, w: &S) -> Result<String, String> {
    let dims = u.dims();
    let mut seeds: Vec<[f64; 3]> = Vec::new();
    if let Some(s) = args.opt("seed-grid") {
        let n: usize = s
            .parse()
            .map_err(|_| format!("invalid --seed-grid: {s:?}"))?;
        if n == 0 {
            return Err("--seed-grid must be at least 1".into());
        }
        seeds.extend(seed_grid(dims, n));
    }
    for s in args.all("seed") {
        seeds.push(parse_seed(s)?);
    }
    if args.flag("seed-from-track") {
        seeds.extend(seeds_from_track(args, dims)?);
    }
    if seeds.is_empty() {
        return Err(
            "trace-particles needs --seed-grid N, --seed X,Y,Z, and/or --seed-from-track".into(),
        );
    }

    let params = TraceParams {
        rk4_dt: args.opt_parse("rk4-dt", TraceParams::default().rk4_dt)?,
    };
    let threads: usize = args.opt_parse("threads", 0usize)?;
    let run = || advect(u, v, w, &seeds, &params).map_err(|e| format!("trace failed: {e}"));
    let set = if threads == 0 {
        run()?
    } else {
        pipeline::pool_with_threads(threads).install(run)?
    };

    let (mut left, mut nonfinite) = (0usize, 0usize);
    for p in &set.pathlines {
        match p.ending {
            ParticleEnding::LeftDomain { .. } => left += 1,
            ParticleEnding::NonFinite { .. } => nonfinite += 1,
            ParticleEnding::Completed => {}
        }
    }
    let mut out = format!(
        "traced {} particles over {} frames of {} (steps {}..{}, rk4 dt {})\n\
         completed {}, left domain {left}, non-finite {nonfinite}\n",
        set.pathlines.len(),
        set.steps.len(),
        set.dims,
        set.steps.first().copied().unwrap_or(0),
        set.steps.last().copied().unwrap_or(0),
        set.rk4_dt,
        set.completed(),
    );
    // Mean completed endpoint: a compact, deterministic digest of the whole
    // ensemble (handy for the byte-identity gates).
    let done: Vec<[f64; 3]> = set
        .pathlines
        .iter()
        .filter(|p| p.ending == ParticleEnding::Completed)
        .map(|p| p.endpoint())
        .collect();
    if !done.is_empty() {
        let n = done.len() as f64;
        let c = done.iter().fold([0.0f64; 3], |mut acc, p| {
            for k in 0..3 {
                acc[k] += p[k] / n;
            }
            acc
        });
        out.push_str(&format!(
            "mean completed endpoint ({:.4}, {:.4}, {:.4})\n",
            c[0], c[1], c[2]
        ));
    }

    if let Some(path) = args.opt("out") {
        save_pathlines(Path::new(path), &set)
            .map_err(|e| format!("cannot write pathlines to {path}: {e}"))?;
        out.push_str(&format!("wrote pathlines + sidecar to {path}\n"));
    }

    let epochs: usize = args.opt_parse("surrogate-epochs", 0usize)?;
    if epochs > 0 {
        let sp = SurrogateParams {
            epochs,
            hidden: args.opt_parse("surrogate-hidden", SurrogateParams::default().hidden)?,
            ..Default::default()
        };
        if sp.hidden == 0 {
            return Err("--surrogate-hidden must be at least 1 neuron".into());
        }
        let (_, report) =
            train_flow_map(&set, &sp).map_err(|e| format!("surrogate training failed: {e}"))?;
        out.push_str(&format!(
            "surrogate: {} rows from {} particles ({} held out), \
             median endpoint error {:.4} voxels (max {:.4}), final loss {:.6}\n",
            report.training_rows,
            report.train_particles,
            report.holdout_particles,
            report.median_error,
            report.max_error,
            report.final_loss,
        ));
    }
    Ok(out)
}

/// `session` subcommand dispatcher: versioned artifact save / load / resume.
/// All actions honour `--ooc-cache N` (page the series from disk through an
/// N-frame LRU cache instead of loading it whole).
pub fn cmd_session(args: &Args) -> Result<String, String> {
    let action = args
        .positional
        .first()
        .ok_or("session needs an action: save, load, or resume")?
        .as_str();
    if !matches!(action, "save" | "load" | "resume") {
        return Err(format!(
            "unknown session action {action:?} (try save, load, resume)"
        ));
    }
    let dir = args.require("data")?;
    match ooc_budget_opt(args)? {
        Some(opts) => {
            let series = open_ooc(frame_paths(dir)?, opts)?;
            let mut out = match action {
                "save" => cmd_session_save(args, &series),
                "load" => cmd_session_load(args, &series),
                _ => cmd_session_resume(args, &series),
            }?;
            out.push_str(&ooc_summary(&series));
            Ok(out)
        }
        None => {
            let series = load_series(dir)?;
            match action {
                "save" => cmd_session_save(args, series),
                "load" => cmd_session_load(args, series),
                _ => cmd_session_resume(args, series),
            }
        }
    }
}

/// `session save`: build up session state (key frames → IATF, optionally a
/// tracking run) and persist it as a versioned artifact. With `--rounds N`
/// the tracking run may pause mid-growth; the checkpoint is saved too and
/// `session resume` finishes it later.
fn cmd_session_save<S: FrameSource>(args: &Args, series: S) -> Result<String, String> {
    let dir = args.require("data")?;
    let out = args.require("out")?;
    let (glo, ghi) = series.global_range().map_err(|e| e.to_string())?;
    let keys = key_specs(args, &series)?;
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
            session
                .add_paints(oracle.paint_from_truth(step, &mask, n, n))
                .map_err(|e| e.to_string())?;
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
        let max_rounds = args
            .opt("rounds")
            .map(|r| {
                r.parse::<u64>()
                    .map_err(|_| format!("invalid --rounds: {r:?}"))
            })
            .transpose()?;
        let status = session
            .run_track(spec, &[(0, sx, sy, sz)], max_rounds)
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
fn embed_trace_summary<S: FrameSource>(session: &mut VisSession<S>) -> Result<(), String> {
    if let Some(t) = obs::snapshot() {
        session
            .set_trace_summary(t.to_stable().to_json())
            .map_err(|e| format!("trace summary rejected: {e}"))?;
    }
    Ok(())
}

/// Human-readable inventory of a loaded session.
fn session_inventory<S: FrameSource>(session: &VisSession<S>) -> String {
    let mut out = String::new();
    let steps: Vec<u32> = session.key_frames().iter().map(|(t, _)| *t).collect();
    out.push_str(&format!("key frames: {} {steps:?}\n", steps.len()));
    out.push_str(&format!(
        "IATF: {}\n",
        if session.iatf().is_some() {
            "trained"
        } else {
            "absent"
        }
    ));
    let painted: usize = session.paints().iter().map(|p| p.len()).sum();
    out.push_str(&format!(
        "paints: {} sets, {painted} voxels\n",
        session.paints().len()
    ));
    out.push_str(&format!(
        "classifier: {}\n",
        if session.classifier().is_some() {
            "trained"
        } else {
            "absent"
        }
    ));
    out.push_str(&format!("completed tracks: {}\n", session.tracks().len()));
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
fn cmd_session_load<S: FrameSource>(args: &Args, series: S) -> Result<String, String> {
    let path = args.require("session")?;
    let session = VisSession::load(series, path).map_err(|e| e.to_string())?;
    Ok(format!(
        "session artifact {path}\n{}",
        session_inventory(&session)
    ))
}

/// `session resume`: finish the artifact's pending tracking run from its
/// checkpoint and write the completed session back out.
fn cmd_session_resume<S: FrameSource>(args: &Args, series: S) -> Result<String, String> {
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

/// `classify` subcommand: run a saved session's trained data-space
/// classifier over every frame and report per-frame certainty coverage.
/// With `--out DIR` the certainty fields stream to disk one frame at a
/// time; with `--ooc-cache N` / `--ooc-cache-bytes B` the input series
/// pages through a budget-bounded LRU cache (`--prefetch D` adds
/// read-ahead), so neither input nor output is ever fully in core.
pub fn cmd_classify(args: &Args) -> Result<String, String> {
    let dir = args.require("data")?;
    match ooc_budget_opt(args)? {
        Some(opts) => {
            let series = open_ooc(frame_paths(dir)?, opts)?;
            let mut out = cmd_classify_impl(args, &series)?;
            out.push_str(&ooc_summary(&series));
            Ok(out)
        }
        None => cmd_classify_impl(args, load_series(dir)?),
    }
}

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

fn cmd_classify_impl<S: FrameSource>(args: &Args, series: S) -> Result<String, String> {
    let path = args.require("session")?;
    let tau: f32 = args.opt_parse("tau", 0.5f32)?;
    let session = VisSession::load(series, path).map_err(|e| e.to_string())?;
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
    Ok(out)
}

/// `suggest-keys` subcommand: where should the user paint key frames?
pub fn cmd_suggest_keys(args: &Args) -> Result<String, String> {
    let dir = args.require("data")?;
    let max: usize = args.opt_parse("max", 4usize)?;
    let series = load_series(dir)?;
    let behavior = ifet_tf::classify_behavior(&series, 256, 0.1);
    let keys = ifet_tf::suggest_key_frames(&series, 256, max, 0.02);
    Ok(format!(
        "temporal behaviour: {behavior:?}\nsuggested key frames (paint these): {keys:?}"
    ))
}

/// `serve` subcommand: run the multi-tenant session service on a Unix
/// socket. Every tenant's frame data pages through one shared cache budget
/// (`--ooc-cache N` / `--ooc-cache-bytes B`, default 8 frames); per-tenant
/// admission is bounded by `--max-inflight` (excess requests get a typed
/// `Overloaded` rejection, never a queue). `--max-requests N` stops the
/// server after N answered requests — a deterministic exit for scripts and
/// tests.
#[cfg(unix)]
pub fn cmd_serve(args: &Args) -> Result<String, String> {
    use ifet_serve::{serve_unix, ServeConfig, ServeEngine, ServerOpts};
    let socket = args.require("socket")?;
    let (budget, prefetch) = match ooc_budget_opt(args)? {
        Some(o) => (o.budget, o.prefetch),
        None => (CacheBudget::Frames(8), 0),
    };
    let max_inflight: usize = args.opt_parse("max-inflight", 4usize)?;
    if max_inflight == 0 {
        return Err("--max-inflight must be at least 1".into());
    }
    let max_requests = args
        .opt("max-requests")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("invalid --max-requests: {s:?}"))
        })
        .transpose()?;
    let workers: usize = args.opt_parse("workers", 0usize)?;
    let tenant_quota_bytes = args
        .opt("tenant-quota-bytes")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("invalid --tenant-quota-bytes: {s:?}"))
        })
        .transpose()?;
    if tenant_quota_bytes == Some(0) {
        return Err("--tenant-quota-bytes must be at least 1".into());
    }
    let engine = ServeEngine::new(ServeConfig {
        budget,
        max_inflight_per_tenant: max_inflight,
        prefetch,
        tenant_quota_bytes,
    });
    let served = serve_unix(
        Path::new(socket),
        &engine,
        ServerOpts {
            max_requests,
            workers,
        },
    )
    .map_err(|e| format!("serve failed: {e}"))?;
    let b = engine.budget().stats();
    Ok(format!(
        "served {served} requests on {socket}\n\
         paging: resident high-water {} frames / {} bytes, \
         evictions {} ({} quota-local, {} idle-preferred)",
        b.high_water_frames, b.high_water_bytes, b.evictions, b.quota_evictions, b.idle_evictions,
    ))
}

#[cfg(not(unix))]
pub fn cmd_serve(_args: &Args) -> Result<String, String> {
    Err("serve requires a Unix-socket transport".into())
}

/// `client` subcommand: send one verb to a running `ifet serve` and print
/// the reply. The tenant id travels with the request, so a tenant's session
/// binding persists across invocations.
#[cfg(unix)]
pub fn cmd_client(args: &Args) -> Result<String, String> {
    use ifet_serve::{Axis, Client, Request, Verb, WireCriterion};
    let socket = args.require("socket")?;
    let tenant: u32 = args.opt_parse("tenant", 0u32)?;
    let verb_name = args
        .positional
        .first()
        .ok_or("client needs a verb: open, classify, track, render-slice, report-stats, close")?;
    let verb = match verb_name.as_str() {
        "bench" => return cmd_client_bench(args, socket, tenant),
        "open" => Verb::Open {
            artifact: args.require("artifact")?.to_string(),
            data_dir: args.require("data")?.to_string(),
        },
        "classify" => Verb::Classify {
            step: args.require("step")?.parse().map_err(|_| "bad --step")?,
            tau: args.opt_parse("tau", 0.5f32)?,
        },
        "track" => {
            let (sx, sy, sz) = parse_voxel(args.require("seed")?)?;
            let criterion = if let Some(band) = args.opt("band") {
                let (lo, hi) = parse_band(band)?;
                WireCriterion::FixedBand { lo, hi }
            } else if let Some(tau) = args.opt("dataspace-tau") {
                WireCriterion::DataSpace {
                    tau: tau.parse().map_err(|_| "bad --dataspace-tau")?,
                }
            } else {
                WireCriterion::AdaptiveTf {
                    tau: args.opt_parse("tau", 0.5f32)?,
                }
            };
            Verb::Track {
                criterion,
                seeds: vec![(0, sx as u32, sy as u32, sz as u32)],
            }
        }
        "render-slice" => Verb::RenderSlice {
            step: args.require("step")?.parse().map_err(|_| "bad --step")?,
            axis: match args.opt("axis").unwrap_or("z") {
                "x" => Axis::X,
                "y" => Axis::Y,
                "z" => Axis::Z,
                other => return Err(format!("invalid --axis {other:?} (x, y, or z)")),
            },
            k: args.opt_parse("k", 0u32)?,
            adaptive: args.flag("adaptive"),
        },
        "report-stats" => Verb::ReportStats,
        "close" => Verb::Close,
        other => {
            return Err(format!(
                "unknown client verb {other:?} \
                 (open, classify, track, render-slice, report-stats, close)"
            ))
        }
    };
    let mut client = Client::connect(Path::new(socket))
        .map_err(|e| format!("cannot connect to {socket}: {e}"))?;
    let rsp = client
        .call(&Request {
            request_id: 1,
            tenant,
            verb,
        })
        .map_err(|e| format!("call failed: {e}"))?;
    format_response(args, rsp.body)
}

#[cfg(not(unix))]
pub fn cmd_client(_args: &Args) -> Result<String, String> {
    Err("client requires a Unix-socket transport".into())
}

/// `client bench`: a pipelined load generator against a running `ifet
/// serve`. Opens the artifact, negotiates pipelined mode with a `hello`
/// handshake, then keeps `--depth` seeded read-only requests (classify /
/// render-slice) outstanding until `--requests` have been answered.
/// Reports throughput plus the tenant's admission counter algebra
/// (`accepted + rejected == sent`), which must hold under any executor.
#[cfg(unix)]
fn cmd_client_bench(args: &Args, socket: &str, tenant: u32) -> Result<String, String> {
    use ifet_serve::{Axis, Client, Request, ResponseBody, Verb};
    let artifact = args.require("artifact")?.to_string();
    let data = args.require("data")?.to_string();
    let requests: u64 = args.opt_parse("requests", 64u64)?;
    let depth: u32 = args.opt_parse("depth", 8u32)?;
    let seed: u64 = args.opt_parse("seed", 1u64)?;
    if depth == 0 {
        return Err("--depth must be at least 1".into());
    }
    let mut client = Client::connect(Path::new(socket))
        .map_err(|e| format!("cannot connect to {socket}: {e}"))?;

    // Open synchronously (session binding must exist before any pipelined
    // read), then switch the connection to pipelined mode.
    let open = client
        .call(&Request {
            request_id: 1,
            tenant,
            verb: Verb::Open {
                artifact,
                data_dir: data,
            },
        })
        .map_err(|e| format!("open failed: {e}"))?;
    let (frames, dims, first_step, last_step) = match open.body {
        ResponseBody::OpenOk {
            frames,
            dims,
            first_step,
            last_step,
            ..
        } => (frames, dims, first_step, last_step),
        other => return Err(format!("open failed: {other:?}")),
    };
    let stride = if frames > 1 {
        ((last_step - first_step) / (frames - 1)).max(1)
    } else {
        1
    };
    let granted = client
        .hello(depth)
        .map_err(|e| format!("hello failed: {e}"))?;

    // Seeded read-only mix; request ids 2.. are unique so replies can come
    // back in any completion order.
    let verb_for = |i: u64| -> Verb {
        let r = mix(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let step = first_step + (r as u32 % frames) * stride;
        if r % 2 == 0 {
            Verb::Classify { step, tau: 0.5 }
        } else {
            Verb::RenderSlice {
                step,
                axis: Axis::Z,
                k: (r >> 8) as u32 % dims.2,
                adaptive: false,
            }
        }
    };
    let t0 = std::time::Instant::now();
    let mut next_await: u64 = 0;
    let mut errors: u64 = 0;
    for i in 0..requests {
        if i >= u64::from(granted) {
            let rsp = client
                .await_response(2 + next_await)
                .map_err(|e| format!("await failed: {e}"))?;
            if matches!(rsp.body, ResponseBody::Err { .. }) {
                errors += 1;
            }
            next_await += 1;
        }
        client
            .submit(&Request {
                request_id: 2 + i,
                tenant,
                verb: verb_for(i),
            })
            .map_err(|e| format!("submit failed: {e}"))?;
    }
    while next_await < requests {
        let rsp = client
            .await_response(2 + next_await)
            .map_err(|e| format!("await failed: {e}"))?;
        if matches!(rsp.body, ResponseBody::Err { .. }) {
            errors += 1;
        }
        next_await += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);

    let stats = client
        .call(&Request {
            request_id: 2 + requests,
            tenant,
            verb: Verb::ReportStats,
        })
        .map_err(|e| format!("report-stats failed: {e}"))?;
    let ResponseBody::StatsOk(st) = stats.body else {
        return Err(format!("report-stats failed: {:?}", stats.body));
    };
    let algebra = st.accepted + st.rejected == st.sent;
    let mut out = format!(
        "bench: {requests} requests, depth {depth} (granted {granted}), \
         {errors} errored, {:.0} req/s\n\
         tenant counters: sent {}, accepted {}, rejected {}, completed {} \
         (accepted + rejected == sent: {algebra})",
        requests as f64 / elapsed,
        st.sent,
        st.accepted,
        st.rejected,
        st.completed,
    );
    if !algebra {
        out.push_str("\nerror: admission counter algebra violated");
        return Err(out);
    }
    Ok(out)
}

/// splitmix64: the repo's standard cheap deterministic mixer.
#[cfg(unix)]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(unix)]
fn format_response(args: &Args, body: ifet_serve::ResponseBody) -> Result<String, String> {
    use ifet_serve::ResponseBody;
    match body {
        ResponseBody::OpenOk {
            frames,
            dims,
            first_step,
            last_step,
            has_iatf,
            has_classifier,
            tracks,
        } => Ok(format!(
            "opened: {frames} frames of {}x{}x{}, steps {first_step}..{last_step}, \
             iatf {}, classifier {}, {tracks} completed tracks",
            dims.0,
            dims.1,
            dims.2,
            if has_iatf { "trained" } else { "absent" },
            if has_classifier { "trained" } else { "absent" },
        )),
        ResponseBody::ClassifyOk { voxels, words } => Ok(format!(
            "classified: {voxels} voxels above tau ({} mask words)",
            words.len()
        )),
        ResponseBody::TrackOk {
            voxels_per_frame,
            events,
        } => {
            let total: u64 = voxels_per_frame.iter().map(|&v| u64::from(v)).sum();
            Ok(format!(
                "tracked: {total} voxels across {} frames, {events} events\nper-frame: {voxels_per_frame:?}",
                voxels_per_frame.len()
            ))
        }
        ResponseBody::RenderSliceOk { width, height, rgb } => {
            if let Some(out) = args.opt("out") {
                let mut ppm = format!("P6\n{width} {height}\n255\n").into_bytes();
                ppm.extend_from_slice(&rgb);
                std::fs::write(out, ppm).map_err(|e| e.to_string())?;
                Ok(format!("rendered {width}x{height} slice -> {out}"))
            } else {
                Ok(format!(
                    "rendered {width}x{height} slice ({} bytes)",
                    rgb.len()
                ))
            }
        }
        ResponseBody::StatsOk(st) => Ok(format!(
            "tenant: sent {}, accepted {}, rejected {}, completed {}, max depth {}\n\
             mlp: {} jobs, {} rows\n\
             paging: {} evictions ({} quota-local, {} idle-preferred)",
            st.sent,
            st.accepted,
            st.rejected,
            st.completed,
            st.max_depth,
            st.batch_jobs,
            st.batch_rows,
            st.evictions,
            st.quota_evictions,
            st.idle_evictions,
        )),
        ResponseBody::HelloOk {
            version,
            max_pipeline,
        } => Ok(format!(
            "hello: protocol v{version}, pipeline depth {max_pipeline} granted"
        )),
        ResponseBody::CloseOk => Ok("closed".into()),
        ResponseBody::Err { code, message } => Err(format!("server error ({code:?}): {message}")),
    }
}

/// Dispatch a parsed command, honouring the cross-cutting observability
/// options: `--trace FILE` writes the versioned span tree as JSON,
/// `--profile` prints an aggregate per-span table to stderr, and
/// `--trace-mode full|stable` picks between wall-clock timings and the
/// deterministic-counters-only form (default `full`).
pub fn run(args: &Args) -> Result<String, String> {
    let trace_path = args.opt("trace");
    let profile = args.flag("profile");
    if trace_path.is_none() && !profile {
        return dispatch(args);
    }
    let mode = match args.opt("trace-mode").unwrap_or("full") {
        "full" => obs::TraceMode::Full,
        "stable" => obs::TraceMode::Stable,
        other => return Err(format!("invalid --trace-mode {other:?} (full or stable)")),
    };
    let (result, trace) = obs::capture(command_root(&args.command), || dispatch(args));
    let trace = match mode {
        obs::TraceMode::Full => trace,
        obs::TraceMode::Stable => trace.to_stable(),
    };
    if let Some(path) = trace_path {
        std::fs::write(path, trace.to_json_pretty())
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    }
    if profile {
        eprintln!("{}", obs::profile_table(&trace));
    }
    result
}

/// Root span name for a subcommand ([`obs::capture`] wants a static name).
fn command_root(command: &str) -> &'static str {
    match command {
        "generate" => "ifet.generate",
        "generate-flow" => "ifet.generate-flow",
        "info" => "ifet.info",
        "train-iatf" => "ifet.train-iatf",
        "render" => "ifet.render",
        "track" => "ifet.track",
        "trace-particles" => "ifet.trace-particles",
        "session" => "ifet.session",
        "classify" => "ifet.classify",
        "suggest-keys" => "ifet.suggest-keys",
        "serve" => "ifet.serve",
        "client" => "ifet.client",
        _ => "ifet",
    }
}

fn dispatch(args: &Args) -> Result<String, String> {
    match args.command.as_str() {
        "generate" => cmd_generate(args),
        "generate-flow" => cmd_generate_flow(args),
        "info" => cmd_info(args),
        "train-iatf" => cmd_train_iatf(args),
        "render" => cmd_render(args),
        "track" => cmd_track(args),
        "trace-particles" => cmd_trace_particles(args),
        "session" => cmd_session(args),
        "classify" => cmd_classify(args),
        "suggest-keys" => cmd_suggest_keys(args),
        "serve" => cmd_serve(args),
        "client" => cmd_client(args),
        "help" | "--help" => Ok(USAGE.to_string()),
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    }
}

/// Usage text.
pub const USAGE: &str = "\
ifet — intelligent feature extraction and tracking for 4D flow data

USAGE:
  ifet generate <dataset> --out DIR [--dims N] [--seed S] [--compress]
  ifet info --data DIR
  ifet train-iatf --data DIR --key T:LO:HI [--key ...] [--epochs N] [--hidden N]
                  --out FILE
  ifet render --data DIR --step T (--iatf FILE | --band LO:HI) [--size N]
              [--batch N] --out FILE.ppm
  ifet track --data DIR --seed X,Y,Z [--threads N] [ooc options]
             (--iatf FILE [--tau V] | --band LO:HI | --session FILE --dataspace-tau V)
  ifet generate-flow <flow> --out DIR [--dims N] [--frames K] [--stride S]
                     [--compress]
  ifet trace-particles --flow DIR (--seed-grid N | --seed X,Y,Z ... |
                       --seed-from-track --data DIR --band LO:HI
                       --track-seed X,Y,Z) [--rk4-dt V] [--out FILE.plz]
                       [--surrogate-epochs N [--surrogate-hidden H]]
                       [--threads N] [ooc options]
  ifet session save --data DIR --out FILE [--key T:LO:HI ...] [--epochs N]
                    [--paint STEP:N ...] [--clf-epochs N] [--clf-hidden N]
                    [--paint-seed S]
                    [--seed X,Y,Z (--band LO:HI | --dataspace-tau V | --tau V)]
                    [--rounds N] [ooc options]
  ifet session load --data DIR --session FILE [ooc options]
  ifet session resume --data DIR --session FILE [--out FILE] [ooc options]
  ifet classify --data DIR --session FILE [--tau V] [--out DIR [--compress]]
                [ooc options]
  ifet suggest-keys --data DIR [--max N]
  ifet serve --socket PATH [--max-inflight N] [--max-requests N] [--workers N]
             [--tenant-quota-bytes B] [ooc options]
  ifet client <verb> --socket PATH [--tenant N] [verb options]

session service (serve / client):
  `serve` keeps many session artifacts resident at once, every tenant's
  frame data paged through ONE shared cache budget (--ooc-cache /
  --ooc-cache-bytes, default 8 frames). Requests from all connections are
  executed by a fixed pool of --workers threads (default 4); per-tenant
  admission is bounded by --max-inflight (default 4); requests beyond the
  bound are rejected with a typed Overloaded error, never queued.
  --tenant-quota-bytes B caps each open artifact's resident frame bytes at
  B on top of the global budget: a tenant over its quota evicts its OWN
  least-recent frames first, and global evictions prefer idle tenants'
  frames over actively-computing ones. --max-requests N exits after N
  answered requests (deterministic shutdown for scripts); a paging summary
  (high-water, evictions split by policy) is appended on exit.
  `client` verbs (tenant id rides with every request):
    open         --artifact FILE.ifet --data DIR
    classify     --step T [--tau V]
    track        --seed X,Y,Z (--band LO:HI | --dataspace-tau V | [--tau V])
    render-slice --step T [--axis x|y|z] [--k K] [--adaptive] [--out FILE.ppm]
    report-stats
    close
    bench        --artifact FILE.ifet --data DIR [--requests N] [--depth D]
                 [--seed S]   pipelined load generator: opens, negotiates a
                 hello handshake, keeps D requests outstanding, reports
                 req/s and the admission counter algebra

particle tracing (generate-flow / trace-particles):
  `generate-flow` writes an analytic velocity field (uniform, rotation, or
  swirl) as three scalar component series — <flow>_u/_v/_w frame files —
  that `trace-particles` advects a particle ensemble through with RK4
  (trilinear in space, linear between frames; --rk4-dt caps the step).
  Seeds come from a regular --seed-grid N (N per axis), explicit repeated
  --seed X,Y,Z positions, and/or --seed-from-track, which grows the feature
  at --track-seed in the scalar series at --data with the fixed --band and
  drops a particle at every voxel of its frame-0 mask. --out FILE writes
  the versioned, CRC-guarded pathline artifact (+ JSON sidecar);
  --surrogate-epochs N trains the MLP flow-map surrogate
  (seed, t0, dt) -> endpoint on the integrated pathlines and reports its
  held-out endpoint error in voxels. Pathline bytes are identical across
  --threads, cache budgets, and storage flavors; with an ooc budget each
  velocity component pages through its own cache of the requested size.

ray packets (render):
  --batch N             samples per ray packet (0 or omitted = auto). Output
                        is bit-identical at every width; this is purely a
                        throughput knob.

out-of-core options (track, trace-particles, session, classify):
  --ooc-cache N         page frames from disk through an N-frame LRU cache
                        instead of loading the series in core; results are
                        byte-identical, and a paging summary (resident
                        high-water in frames and bytes, hits/misses/
                        evictions) is appended
  --ooc-cache-bytes B   same, but the budget is B bytes of frame data
                        (mutually exclusive with --ooc-cache); eviction is
                        charged by actual frame size
  --prefetch D          read up to D upcoming frames in the background while
                        the current window computes; in-flight reads are
                        charged against the cache budget, so the bound holds

compressed frame storage (generate, classify --out):
  --compress            write frames as bricked, CRC-guarded compressed
                        .rawz containers instead of raw .raw payloads; all
                        readers decode them transparently and byte budgets
                        charge frames at their (smaller) compressed size

observability (any subcommand):
  --trace FILE          write a versioned JSON span tree of the run
  --profile             print an aggregate per-span profile table to stderr
  --trace-mode MODE     full (timings, default) or stable (deterministic
                        counters only; timings zeroed, runtime counters dropped)

datasets: shock-bubble, combustion-jet, reionization, turbulent-vortex,
          swirling-flow, qg-turbulence";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_basic_command() {
        let a = parse_args(&argv("generate shock-bubble --out /tmp/x --dims 32")).unwrap();
        assert_eq!(a.command, "generate");
        assert_eq!(a.positional, vec!["shock-bubble"]);
        assert_eq!(a.opt("out"), Some("/tmp/x"));
        assert_eq!(a.opt_parse("dims", 0usize).unwrap(), 32);
        assert_eq!(a.opt_parse("seed", 9u64).unwrap(), 9); // default
    }

    #[test]
    fn repeated_options_accumulate() {
        let a = parse_args(&argv("train-iatf --key 0:1:2 --key 5:2:3 --data d --out o")).unwrap();
        assert_eq!(a.all("key"), &["0:1:2".to_string(), "5:2:3".to_string()]);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse_args(&argv("render --out")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn key_spec_parsing() {
        assert_eq!(parse_key_spec("195:0.4:0.9").unwrap(), (195, 0.4, 0.9));
        assert!(parse_key_spec("195:0.9:0.4").is_err()); // inverted
        assert!(parse_key_spec("195:0.4").is_err());
        assert!(parse_key_spec("x:0:1").is_err());
    }

    #[test]
    fn voxel_parsing() {
        assert_eq!(parse_voxel("3,4,5").unwrap(), (3, 4, 5));
        assert!(parse_voxel("3,4").is_err());
        assert!(parse_voxel("a,b,c").is_err());
    }

    #[test]
    fn band_parsing() {
        assert_eq!(parse_band("0.5:1.5").unwrap(), (0.5, 1.5));
        assert!(parse_band("1.5:0.5").is_err());
    }

    #[test]
    fn unknown_subcommand_mentions_usage() {
        let a = parse_args(&argv("bogus")).unwrap();
        let err = run(&a).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn generate_then_info_and_train_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ifet_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();

        let g = parse_args(&argv(&format!(
            "generate shock-bubble --out {dirs} --dims 16 --seed 3"
        )))
        .unwrap();
        let msg = run(&g).unwrap();
        assert!(msg.contains("wrote 5 frames"), "{msg}");

        // info: finds frames (including truth volumes, also .raw).
        let i = parse_args(&argv(&format!("info --data {dirs}"))).unwrap();
        let info = run(&i).unwrap();
        assert!(info.contains("frames of 16x16x16"), "{info}");

        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn suggest_keys_subcommand() {
        let dir = std::env::temp_dir().join(format!("ifet_cli_sk_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        run(&parse_args(&argv(&format!(
            "generate shock-bubble --out {dirs} --dims 16"
        )))
        .unwrap())
        .unwrap();
        let out = run(&parse_args(&argv(&format!("suggest-keys --data {dirs} --max 3"))).unwrap())
            .unwrap();
        assert!(out.contains("suggested key frames"), "{out}");
        assert!(out.contains("195"), "endpoints must be included: {out}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn session_save_load_resume_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ifet_cli_sess_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        run(&parse_args(&argv(&format!(
            "generate shock-bubble --out {dirs} --dims 16 --seed 3"
        )))
        .unwrap())
        .unwrap();

        // Pick the hottest voxel of frame 0 and a band around it so the
        // fixed-band tracking has something to grow from.
        let series = load_series(&dirs).unwrap();
        let f0 = series.frame(0);
        let (mut best_i, mut best_v) = (0usize, f32::MIN);
        for (i, &v) in f0.as_slice().iter().enumerate() {
            if v > best_v {
                best_v = v;
                best_i = i;
            }
        }
        let (x, y, z) = series.dims().coords(best_i);
        let (glo, ghi) = series.global_range();
        let lo = best_v - 0.25 * (ghi - glo);

        // A full run and a run paused at round 0 (checkpoint on disk).
        let full = format!("{dirs}/full.ifet");
        let part = format!("{dirs}/part.ifet");
        let msg = run(&parse_args(&argv(&format!(
            "session save --data {dirs} --out {full} --seed {x},{y},{z} --band {lo}:{ghi}"
        )))
        .unwrap())
        .unwrap();
        assert!(msg.contains("tracking completed"), "{msg}");
        let msg = run(&parse_args(&argv(&format!(
            "session save --data {dirs} --out {part} --seed {x},{y},{z} --band {lo}:{ghi} --rounds 0"
        )))
        .unwrap())
        .unwrap();
        assert!(msg.contains("tracking paused"), "{msg}");

        // Inventory shows the checkpoint.
        let inv = run(&parse_args(&argv(&format!(
            "session load --data {dirs} --session {part}"
        )))
        .unwrap())
        .unwrap();
        assert!(inv.contains("pending checkpoint: FixedBand"), "{inv}");

        // Resume finishes the run; the resulting artifact is byte-identical
        // to the uninterrupted one (growth is a fixpoint).
        let resumed = format!("{dirs}/resumed.ifet");
        let msg = run(&parse_args(&argv(&format!(
            "session resume --data {dirs} --session {part} --out {resumed}"
        )))
        .unwrap())
        .unwrap();
        assert!(msg.contains("resumed tracking to completion"), "{msg}");
        assert_eq!(
            std::fs::read(&full).unwrap(),
            std::fs::read(&resumed).unwrap(),
            "resumed artifact must match the uninterrupted run byte-for-byte"
        );

        // A flipped byte anywhere makes `session load` fail loudly.
        let mut corrupt = std::fs::read(&full).unwrap();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        let bad = format!("{dirs}/bad.ifet");
        std::fs::write(&bad, &corrupt).unwrap();
        let err = run(&parse_args(&argv(&format!(
            "session load --data {dirs} --session {bad}"
        )))
        .unwrap())
        .unwrap_err();
        assert!(
            err.contains("checksum") || err.contains("malformed"),
            "{err}"
        );

        std::fs::remove_dir_all(dir).ok();
    }

    /// A 16-frame series with a drifting bright ball, written to a fresh
    /// temp directory (the `generate` datasets have fixed frame counts, so
    /// out-of-core tests build their own series).
    fn write_ooc_series(tag: &str) -> String {
        let d = Dims3::cube(12);
        let series = TimeSeries::from_frames(
            (0..16)
                .map(|k| {
                    let drift = 0.05 * k as f32;
                    let cx = 3.0 + 0.4 * k as f32;
                    let vol = ScalarVolume::from_fn(d, move |x, y, z| {
                        let dist = ((x as f32 - cx).powi(2)
                            + (y as f32 - 6.0).powi(2)
                            + (z as f32 - 6.0).powi(2))
                        .sqrt();
                        let base = (x + y + z) as f32 / 36.0 + drift;
                        if dist <= 2.5 {
                            base + 1.0
                        } else {
                            base
                        }
                    });
                    (k as u32 * 5, vol)
                })
                .collect(),
        );
        let dir = std::env::temp_dir().join(format!("ifet_cli_ooc_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_series_with(&dir, "ooc", &series, false).unwrap();
        dir.to_str().unwrap().to_string()
    }

    #[test]
    fn track_ooc_matches_in_core_and_stays_bounded() {
        let dirs = write_ooc_series("track");
        let track = |extra: &str| {
            run(&parse_args(&argv(&format!(
                "track --data {dirs} --seed 3,6,6 --band 0.9:3.0{extra}"
            )))
            .unwrap())
            .unwrap()
        };
        let reference = track("");
        assert!(reference.contains("events:"), "{reference}");

        let paged = track(" --ooc-cache 2");
        let (body, summary) = paged
            .split_once("ooc:")
            .expect("paged run must append an ooc summary");
        assert_eq!(body, reference, "out-of-core output must be byte-identical");

        // The bounded-memory witness: at most 2 data frames were ever
        // resident, even though the series has 16.
        let hw: usize = summary
            .split("resident high-water ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("summary must report the resident high-water mark");
        assert!(hw <= 2, "resident high-water {hw} exceeds --ooc-cache 2");
        assert!(summary.contains("misses"), "{summary}");
        std::fs::remove_dir_all(&dirs).ok();
    }

    /// Byte high-water parsed out of an ooc paging summary.
    fn parse_hw_bytes(summary: &str) -> u64 {
        summary
            .split(',')
            .find_map(|f| f.trim().strip_suffix("bytes high-water"))
            .and_then(|s| s.trim().parse().ok())
            .expect("summary must report the byte high-water mark")
    }

    #[test]
    fn track_ooc_byte_budget_matches_in_core_and_stays_bounded() {
        let dirs = write_ooc_series("bytes");
        let track = |extra: &str| {
            run(&parse_args(&argv(&format!(
                "track --data {dirs} --seed 3,6,6 --band 0.9:3.0{extra}"
            )))
            .unwrap())
            .unwrap()
        };
        let reference = track("");
        // Two 12^3 f32 frames' worth of budget.
        let budget = 2 * 12u64.pow(3) * 4;
        let paged = track(&format!(" --ooc-cache-bytes {budget}"));
        let (body, summary) = paged
            .split_once("ooc:")
            .expect("paged run must append an ooc summary");
        assert_eq!(body, reference, "byte-budget output must be byte-identical");
        assert!(
            summary.contains(&format!("cache budget {budget} bytes")),
            "{summary}"
        );
        // The bounded-memory witness, this time in bytes: resident plus
        // in-flight frame data never exceeded the budget.
        let hw_bytes = parse_hw_bytes(summary);
        assert!(
            hw_bytes <= budget,
            "byte high-water {hw_bytes} exceeds --ooc-cache-bytes {budget}"
        );
        std::fs::remove_dir_all(&dirs).ok();
    }

    #[test]
    fn track_ooc_prefetch_is_byte_identical_and_stays_bounded() {
        let dirs = write_ooc_series("prefetch");
        let track = |extra: &str| {
            run(&parse_args(&argv(&format!(
                "track --data {dirs} --seed 3,6,6 --band 0.9:3.0{extra}"
            )))
            .unwrap())
            .unwrap()
        };
        let reference = track("");
        for prefetch in [1usize, 2, 4] {
            let paged = track(&format!(" --ooc-cache 2 --prefetch {prefetch}"));
            let (body, summary) = paged
                .split_once("ooc:")
                .expect("paged run must append an ooc summary");
            assert_eq!(
                body, reference,
                "prefetch {prefetch} output must be byte-identical"
            );
            // Read-ahead must not break the budget: in-flight prefetch reads
            // are charged against the same two-frame bound.
            let hw: usize = summary
                .split("resident high-water ")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.trim().parse().ok())
                .unwrap();
            assert!(
                hw <= 2,
                "prefetch {prefetch}: high-water {hw} exceeds cache 2"
            );
            assert!(summary.contains("prefetch depth"), "{summary}");
        }
        std::fs::remove_dir_all(&dirs).ok();
    }

    #[test]
    fn stable_traces_invariant_across_threads_and_cache() {
        let dirs = write_ooc_series("trace");
        let trace_for = |threads: usize, cache: Option<usize>, prefetch: usize| -> Vec<u8> {
            let tag = cache.map_or("incore".to_string(), |c| c.to_string());
            let path = format!("{dirs}/trace_{threads}_{tag}_{prefetch}.json");
            let mut cache_arg = cache.map_or(String::new(), |c| format!(" --ooc-cache {c}"));
            if prefetch > 0 {
                cache_arg.push_str(&format!(" --prefetch {prefetch}"));
            }
            run(&parse_args(&argv(&format!(
                "track --data {dirs} --seed 3,6,6 --band 0.9:3.0 \
                 --threads {threads}{cache_arg} --trace {path} --trace-mode stable"
            )))
            .unwrap())
            .unwrap();
            std::fs::read(&path).unwrap()
        };
        let reference = trace_for(1, None, 0);
        for threads in [1usize, 2, 4] {
            for cache in [None, Some(1), Some(2), Some(16)] {
                // Prefetch workers emit no spans, so read-ahead depth must
                // be invisible in stable traces too.
                let prefetches: &[usize] = if cache.is_some() { &[0, 2] } else { &[0] };
                for &prefetch in prefetches {
                    assert_eq!(
                        trace_for(threads, cache, prefetch),
                        reference,
                        "stable trace diverged at threads {threads}, \
                         cache {cache:?}, prefetch {prefetch}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dirs).ok();
    }

    #[test]
    fn ooc_cache_rejects_zero() {
        let a = parse_args(&argv(
            "track --data d --seed 0,0,0 --band 0:1 --ooc-cache 0",
        ))
        .unwrap();
        assert!(run(&a).unwrap_err().contains("at least 1"));
    }

    #[test]
    fn ooc_flag_validation() {
        let run_track = |flags: &str| {
            run(&parse_args(&argv(&format!(
                "track --data d --seed 0,0,0 --band 0:1 {flags}"
            )))
            .unwrap())
            .unwrap_err()
        };
        assert!(run_track("--ooc-cache-bytes 0").contains("positive"));
        assert!(run_track("--ooc-cache 2 --ooc-cache-bytes 100").contains("mutually exclusive"));
        assert!(run_track("--prefetch 2").contains("needs --ooc-cache"));
        assert!(run_track("--ooc-cache-bytes nope").contains("invalid --ooc-cache-bytes"));
    }

    #[test]
    fn mmap_flag_validation() {
        // The retired flag is an unknown option; it must not swallow the
        // option after it as its value.
        for cmd in [
            "track --data d --seed 0,0,0 --band 0:1 --mmap",
            "track --data d --seed 0,0,0 --band 0:1 --mmap --ooc-cache 2",
        ] {
            assert_eq!(parse_args(&argv(cmd)).unwrap_err(), "unknown option --mmap");
        }
    }

    #[test]
    fn unknown_options_are_rejected() {
        let err = parse_args(&argv("track --data d --seed 0,0,0 --band 0:1 --ooc-cach 2"));
        assert_eq!(err.unwrap_err(), "unknown option --ooc-cach");
        // Every option a subcommand reads still parses.
        for name in VALUE_OPTIONS {
            let a = parse_args(&argv(&format!("track --{name} v"))).unwrap();
            assert_eq!(a.opt(name), Some("v"));
        }
        for name in BOOL_FLAGS {
            assert!(parse_args(&argv(&format!("track --{name}")))
                .unwrap()
                .flag(name));
        }
        // The usage text documents exactly the options the parser accepts.
        let documented: std::collections::BTreeSet<&str> = USAGE
            .split("--")
            .skip(1)
            .map(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .filter(|name| !name.is_empty())
            .collect();
        let known: std::collections::BTreeSet<&str> =
            VALUE_OPTIONS.iter().chain(BOOL_FLAGS).copied().collect();
        assert_eq!(documented, known);
    }

    #[test]
    fn generate_compress_roundtrips() {
        let dir = std::env::temp_dir().join(format!("ifet_cli_gz_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        let raw_dir = format!("{dirs}/raw");
        let z_dir = format!("{dirs}/z");
        for (out, extra) in [(&raw_dir, ""), (&z_dir, " --compress")] {
            let msg = run(&parse_args(&argv(&format!(
                "generate shock-bubble --out {out} --dims 16 --seed 3{extra}"
            )))
            .unwrap())
            .unwrap();
            assert!(msg.contains("wrote 5 frames"), "{msg}");
        }
        assert!(
            frame_paths(&z_dir)
                .unwrap()
                .iter()
                .all(|p| p.extension().unwrap() == "rawz"),
            "--compress must write .rawz frames"
        );
        // Compressed frames take less disk.
        let bytes = |d: &str| -> u64 {
            frame_paths(d)
                .unwrap()
                .iter()
                .map(|p| std::fs::metadata(p).unwrap().len())
                .sum()
        };
        assert!(bytes(&z_dir) < bytes(&raw_dir));
        // Identical analysis output from either flavor, in core or paged.
        let track = |data: &str, extra: &str| {
            run(&parse_args(&argv(&format!(
                "track --data {data} --seed 8,8,8 --band 0.9:3.0{extra}"
            )))
            .unwrap())
            .unwrap()
        };
        let reference = track(&raw_dir, "");
        assert_eq!(track(&z_dir, ""), reference);
        let paged = track(&z_dir, " --ooc-cache 2");
        assert_eq!(paged.split_once("ooc:").unwrap().0, reference);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn classify_out_compress_writes_rawz_certainty() {
        let dir = std::env::temp_dir().join(format!("ifet_cli_cz_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        run(&parse_args(&argv(&format!(
            "generate shock-bubble --out {dirs} --dims 16 --seed 3"
        )))
        .unwrap())
        .unwrap();
        let sess = format!("{dirs}/clf.ifet");
        run(&parse_args(&argv(&format!(
            "session save --data {dirs} --out {sess} --paint 195:10 --clf-epochs 5 --clf-hidden 2"
        )))
        .unwrap())
        .unwrap();
        let cert_raw = format!("{dirs}/cert_raw");
        let cert_z = format!("{dirs}/cert_z");
        let out_raw = run(&parse_args(&argv(&format!(
            "classify --data {dirs} --session {sess} --out {cert_raw}"
        )))
        .unwrap())
        .unwrap();
        let out_z = run(&parse_args(&argv(&format!(
            "classify --data {dirs} --session {sess} --out {cert_z} --compress"
        )))
        .unwrap())
        .unwrap();
        assert_eq!(
            out_raw.replace(&cert_raw, "OUT"),
            out_z.replace(&cert_z, "OUT"),
            "coverage table must not depend on output compression"
        );
        let zpaths = frame_paths(&cert_z).unwrap();
        assert!(zpaths.iter().all(|p| p.extension().unwrap() == "rawz"));
        // The compressed certainty frames decode to the raw ones bit-for-bit.
        let raw_series = read_series(&frame_paths(&cert_raw).unwrap()).unwrap();
        let z_series = read_series(&zpaths).unwrap();
        assert_eq!(raw_series, z_series);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn batch_flag_validation() {
        let a = parse_args(&argv("render --data d --step 0 --out o --batch nope")).unwrap();
        assert!(batch_opt(&a).unwrap_err().contains("invalid --batch"));
        let a = parse_args(&argv("render --data d --step 0 --out o")).unwrap();
        assert_eq!(batch_opt(&a).unwrap(), 0, "omitted --batch means auto");
    }

    #[test]
    fn hidden_flags_validate_and_surface_model_errors() {
        let dir = std::env::temp_dir().join(format!("ifet_cli_hid_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        run(&parse_args(&argv(&format!(
            "generate shock-bubble --out {dirs} --dims 16 --seed 3"
        )))
        .unwrap())
        .unwrap();

        // train-iatf rejects a zero hidden width up front.
        let err = run(&parse_args(&argv(&format!(
            "train-iatf --data {dirs} --key 195:0.5:1.0 --hidden 0 --out {dirs}/x.iatf"
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");

        // A zero classifier width flows through the typed model error
        // instead of panicking inside the network constructor.
        let err = run(&parse_args(&argv(&format!(
            "session save --data {dirs} --out {dirs}/c.ifet --paint 195:10 --clf-hidden 0"
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.contains("classifier training failed"), "{err}");
        assert!(err.contains("zero"), "{err}");

        // A small nonzero width trains fine.
        let msg = run(&parse_args(&argv(&format!(
            "session save --data {dirs} --out {dirs}/c.ifet --paint 195:10 \
             --clf-epochs 5 --clf-hidden 2"
        )))
        .unwrap())
        .unwrap();
        assert!(msg.contains("trained data-space classifier"), "{msg}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn serve_and_client_round_trip_over_a_socket() {
        let dir = std::env::temp_dir().join(format!("ifet_cli_srv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        run(&parse_args(&argv(&format!(
            "generate shock-bubble --out {dirs} --dims 16 --seed 3"
        )))
        .unwrap())
        .unwrap();
        let sess = format!("{dirs}/srv.ifet");
        run(&parse_args(&argv(&format!(
            "session save --data {dirs} --out {sess} --paint 195:10 --clf-epochs 5 --clf-hidden 2"
        )))
        .unwrap())
        .unwrap();

        let sock = format!("{dirs}/ifet.sock");
        let server = {
            let serve = parse_args(&argv(&format!(
                "serve --socket {sock} --ooc-cache 2 --max-requests 4"
            )))
            .unwrap();
            std::thread::spawn(move || run(&serve))
        };
        let call = |line: &str| -> Result<String, String> {
            // The server binds asynchronously; retry connects briefly.
            let args = parse_args(&argv(line)).unwrap();
            for _ in 0..500 {
                match run(&args) {
                    Err(e) if e.contains("cannot connect") => {
                        std::thread::sleep(std::time::Duration::from_millis(2))
                    }
                    other => return other,
                }
            }
            Err("server never came up".into())
        };

        let msg = call(&format!(
            "client open --socket {sock} --tenant 5 --artifact {sess} --data {dirs}"
        ))
        .unwrap();
        assert!(msg.contains("opened: 5 frames of 16x16x16"), "{msg}");
        assert!(msg.contains("classifier trained"), "{msg}");
        let msg = call(&format!(
            "client classify --socket {sock} --tenant 5 --step 195 --tau 0.5"
        ))
        .unwrap();
        assert!(msg.contains("voxels above tau"), "{msg}");
        let msg = call(&format!("client report-stats --socket {sock} --tenant 5")).unwrap();
        assert!(msg.contains("accepted 3"), "{msg}");
        assert!(msg.contains("mlp: 1 jobs, 4096 rows"), "{msg}");
        let msg = call(&format!("client close --socket {sock} --tenant 5")).unwrap();
        assert_eq!(msg, "closed");

        let served = server.join().unwrap().unwrap();
        assert!(served.contains("served 4 requests"), "{served}");
        std::fs::remove_dir_all(dir).ok();
    }

    /// `client bench` drives a pipelined load through a worker-pool server
    /// and reports the admission counter algebra; when the server goes away
    /// mid-conversation the CLI surfaces the friendly typed disconnect,
    /// never a panic or a raw broken-pipe error.
    #[cfg(unix)]
    #[test]
    fn client_bench_pipelines_and_disconnects_are_friendly() {
        let dir = std::env::temp_dir().join(format!("ifet_cli_bench_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        run(&parse_args(&argv(&format!(
            "generate shock-bubble --out {dirs} --dims 16 --seed 3"
        )))
        .unwrap())
        .unwrap();
        let sess = format!("{dirs}/srv.ifet");
        run(&parse_args(&argv(&format!(
            "session save --data {dirs} --out {sess} --paint 195:10 --clf-epochs 5 --clf-hidden 2"
        )))
        .unwrap())
        .unwrap();

        let call = |line: &str| -> Result<String, String> {
            let args = parse_args(&argv(line)).unwrap();
            for _ in 0..500 {
                match run(&args) {
                    Err(e) if e.contains("cannot connect") => {
                        std::thread::sleep(std::time::Duration::from_millis(2))
                    }
                    other => return other,
                }
            }
            Err("server never came up".into())
        };

        // open + hello + 8 pipelined + report-stats = 11 served requests.
        let sock = format!("{dirs}/bench.sock");
        let server = {
            let serve = parse_args(&argv(&format!(
                "serve --socket {sock} --ooc-cache 3 --workers 2 \
                 --tenant-quota-bytes 50000000 --max-requests 11"
            )))
            .unwrap();
            std::thread::spawn(move || run(&serve))
        };
        let msg = call(&format!(
            "client bench --socket {sock} --tenant 2 --artifact {sess} --data {dirs} \
             --requests 8 --depth 4 --seed 3"
        ))
        .unwrap();
        assert!(msg.contains("bench: 8 requests"), "{msg}");
        assert!(msg.contains("granted 4"), "{msg}");
        assert!(msg.contains("0 errored"), "{msg}");
        assert!(msg.contains("accepted + rejected == sent: true"), "{msg}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("served 11 requests"), "{served}");
        assert!(served.contains("quota-local"), "{served}");

        // A one-request server dies right after the bench's open; the hello
        // that follows on the same connection must come back as the typed
        // friendly disconnect.
        let sock = format!("{dirs}/bench1.sock");
        let server = {
            let serve = parse_args(&argv(&format!(
                "serve --socket {sock} --ooc-cache 2 --max-requests 1"
            )))
            .unwrap();
            std::thread::spawn(move || run(&serve))
        };
        let err = call(&format!(
            "client bench --socket {sock} --tenant 2 --artifact {sess} --data {dirs} \
             --requests 4 --depth 2"
        ))
        .unwrap_err();
        assert!(err.contains("server closed the connection"), "{err}");
        assert!(!err.contains("Broken pipe"), "{err}");
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn client_verb_validation() {
        let a = parse_args(&argv("client --socket /tmp/x.sock")).unwrap();
        assert!(run(&a).unwrap_err().contains("needs a verb"));
        let a = parse_args(&argv("client frobnicate --socket /tmp/x.sock")).unwrap();
        assert!(run(&a).unwrap_err().contains("unknown client verb"));
        let a = parse_args(&argv(
            "client render-slice --socket /tmp/x.sock --step 0 --axis w",
        ))
        .unwrap();
        assert!(run(&a).unwrap_err().contains("invalid --axis"));
        let a = parse_args(&argv("serve --socket /tmp/x.sock --max-inflight 0")).unwrap();
        assert!(run(&a).unwrap_err().contains("at least 1"));
    }

    #[test]
    fn session_needs_action() {
        let a = parse_args(&argv("session --data d")).unwrap();
        assert!(run(&a).unwrap_err().contains("save, load, or resume"));
        let a = parse_args(&argv("session frobnicate --data d")).unwrap();
        assert!(run(&a).unwrap_err().contains("unknown session action"));
    }

    #[test]
    fn render_requires_tf_source() {
        let dir = std::env::temp_dir().join(format!("ifet_cli_r_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        run(&parse_args(&argv(&format!(
            "generate turbulent-vortex --out {dirs} --dims 16"
        )))
        .unwrap())
        .unwrap();

        let r = parse_args(&argv(&format!(
            "render --data {dirs} --step 50 --out {dirs}/img.ppm"
        )))
        .unwrap();
        assert!(run(&r).unwrap_err().contains("--iatf"));

        let r2 = parse_args(&argv(&format!(
            "render --data {dirs} --step 50 --band 0.5:2.0 --size 32 --out {dirs}/img.ppm"
        )))
        .unwrap();
        let msg = run(&r2).unwrap();
        assert!(msg.contains("rendered step 50"), "{msg}");
        assert!(dir.join("img.ppm").exists());

        // `--batch` only changes the ray caster's packet width; the image
        // bytes must not move.
        let r3 = parse_args(&argv(&format!(
            "render --data {dirs} --step 50 --band 0.5:2.0 --size 32 --batch 5 \
             --out {dirs}/img_b.ppm"
        )))
        .unwrap();
        run(&r3).unwrap();
        assert_eq!(
            std::fs::read(dir.join("img.ppm")).unwrap(),
            std::fs::read(dir.join("img_b.ppm")).unwrap(),
            "--batch must not change rendered bytes"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unknown_dataset_error_names_every_dataset() {
        let listed: Vec<&str> = USAGE
            .split("datasets:")
            .nth(1)
            .unwrap()
            .split([',', ' ', '\n'])
            .filter(|w| !w.is_empty())
            .collect();
        assert!(listed.len() >= 6, "{listed:?}");
        let err =
            run(&parse_args(&argv("generate no-such-set --out unused")).unwrap()).unwrap_err();
        assert!(err.contains("unknown dataset"), "{err}");
        for name in listed {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }

    #[test]
    fn steps_missing_from_the_series_are_errors() {
        let dir = std::env::temp_dir().join(format!("ifet_cli_step_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dir.to_str().unwrap().to_string();
        run(&parse_args(&argv(&format!(
            "generate turbulent-vortex --out {dirs} --dims 12"
        )))
        .unwrap())
        .unwrap();
        for cmd in [
            format!("render --data {dirs} --step 0 --band 0.5:2.0 --size 8 --out {dirs}/img.ppm"),
            format!("train-iatf --data {dirs} --key 0:0.5:1.1 --out {dirs}/iatf.json"),
            format!(
                "session save --data {dirs} --key 50:0.5:1.1 --key 0:0.5:1.1 --out {dirs}/s.ifet"
            ),
        ] {
            let err = run(&parse_args(&argv(&cmd)).unwrap()).unwrap_err();
            assert_eq!(err, "step 0 not in series", "{cmd}");
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
