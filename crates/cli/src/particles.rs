//! `trace-particles`: RK4 pathlines of a particle ensemble through a
//! velocity field written by `generate-flow`.

use crate::data::{load_series, tagged_frames, Data};
use crate::{parse_band, parse_voxel, parse_xyz, with_threads, Args};
use ifet_core::prelude::*;
use ifet_trace::{
    advect, save_pathlines, seed_grid, train_flow_map, ParticleEnding, SurrogateParams, TraceParams,
};
use std::path::{Path, PathBuf};

/// The three velocity-component frame sets of a flow directory written by
/// `generate-flow`: frame files whose names carry `_u_t` / `_v_t` / `_w_t`.
fn flow_component_paths(dir: &str) -> Result<[Vec<PathBuf>; 3], String> {
    let comps = [
        tagged_frames(dir, "_u_t")?,
        tagged_frames(dir, "_v_t")?,
        tagged_frames(dir, "_w_t")?,
    ];
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
    // Only frame 0's mask is read, so the masks are grown but not labelled.
    let failed = |e: SessionError| format!("seed tracking failed: {e}");
    let criterion = FixedBandCriterion::new(lo, hi, series.len()).map_err(|e| failed(e.into()))?;
    let masks = grow_4d(&series, &criterion, &[(0, sx, sy, sz)]).map_err(|e| failed(e.into()))?;
    let seeds: Vec<[f64; 3]> = masks[0]
        .set_coords()
        .map(|(x, y, z)| [x as f64, y as f64, z as f64])
        .collect();
    if seeds.is_empty() {
        return Err("--seed-from-track: the frame-0 feature mask is empty".into());
    }
    Ok(seeds)
}

/// `trace-particles` subcommand. With an out-of-core budget, each velocity
/// component pages through its OWN cache of the requested size — the
/// documented bound (`--ooc-cache N` ⇒ at most N resident frames per
/// component) — and a per-component paging summary is appended.
pub(crate) fn cmd_trace_particles(args: &Args) -> Result<String, String> {
    let [u, v, w] =
        flow_component_paths(args.require("flow")?)?.map(|paths| Data::open(args, Ok(paths)));
    let comps = [u?, v?, w?];
    let (u, v, w) = (comps[0].source(), comps[1].source(), comps[2].source());
    let dims = u.dims();
    let mut seeds: Vec<[f64; 3]> = Vec::new();
    if let Some(n) = args.opt_parsed("seed-grid")? {
        if n == 0 {
            return Err("--seed-grid must be at least 1".into());
        }
        seeds.extend(seed_grid(dims, n));
    }
    for s in args.all("seed") {
        seeds.push(parse_xyz("seed", s)?);
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
    let set = with_threads(args, || {
        advect(u, v, w, &seeds, &params).map_err(|e| format!("trace failed: {e}"))
    })?;

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
    for (name, data) in ["u", "v", "w"].iter().zip(&comps) {
        for line in data.summary().lines() {
            out.push_str(&format!("{name} {line}\n"));
        }
    }
    Ok(out)
}
