//! The in-core commands: `info`, `suggest-keys`, `train-iatf`, `render`.
//! They load the whole series and take no paging flags.

use crate::data::load_series;
use crate::{key_specs, parse_band, Args};
use ifet_core::prelude::*;
use std::path::Path;

/// `info` subcommand.
pub(crate) fn cmd_info(args: &Args) -> Result<String, String> {
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
pub(crate) fn cmd_train_iatf(args: &Args) -> Result<String, String> {
    let dir = args.require("data")?;
    let out = args.require("out")?;
    let series = load_series(dir)?;
    let keys = key_specs(args, &series)?;
    if keys.is_empty() {
        return Err("train-iatf needs at least one --key T:LO:HI".into());
    }
    let (glo, ghi) = series.global_range();
    let mut session = VisSession::new(series).map_err(|e| e.to_string())?;
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

pub(crate) fn load_iatf(path: &str) -> Result<Iatf, String> {
    let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    serde_json::from_str(&json).map_err(|e| format!("bad IATF file: {e}"))
}

/// `render` subcommand.
pub(crate) fn cmd_render(args: &Args) -> Result<String, String> {
    let dir = args.require("data")?;
    let out = args.require("out")?;
    let t: u32 = args.require("step")?.parse().map_err(|_| "bad --step")?;
    let size: usize = args.opt_parse("size", 256usize)?;
    let series = load_series(dir)?;
    let frame = series
        .frame_at_step(t)
        .ok_or_else(|| format!("step {t} not in series"))?;
    let (glo, ghi) = series.global_range();
    let mut session = VisSession::new(&series).map_err(|e| e.to_string())?;
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

/// `suggest-keys` subcommand: where should the user paint key frames?
pub(crate) fn cmd_suggest_keys(args: &Args) -> Result<String, String> {
    let dir = args.require("data")?;
    let max: usize = args.opt_parse("max", 4usize)?;
    let series = load_series(dir)?;
    let behavior = ifet_tf::classify_behavior(&series, 256, 0.1);
    let keys = ifet_tf::suggest_key_frames(&series, 256, max, 0.02);
    Ok(format!(
        "temporal behaviour: {behavior:?}\nsuggested key frames (paint these): {keys:?}"
    ))
}

/// `--batch N`: samples per ray packet when rendering. 0 (the default) =
/// auto. Output is bit-identical at every width, so this is purely a
/// throughput knob.
pub(crate) fn batch_opt(args: &Args) -> Result<usize, String> {
    args.opt_parse("batch", 0usize)
}
