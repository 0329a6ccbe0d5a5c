//! `generate` and `generate-flow`: write synthetic datasets to disk.

use crate::Args;
use ifet_core::prelude::*;
use ifet_sim::flows::{flow_series, FlowKind};
use ifet_volume::io::write_series_with;
use std::path::Path;

/// `generate` subcommand.
pub(crate) fn cmd_generate(args: &Args) -> Result<String, String> {
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

/// `generate-flow` subcommand: write an analytic velocity field as three
/// scalar component series (u, v, w) for `trace-particles` to advect through.
pub(crate) fn cmd_generate_flow(args: &Args) -> Result<String, String> {
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
