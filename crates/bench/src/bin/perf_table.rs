//! Section 7 performance numbers, reproduced on the CPU ray caster.
//!
//! Paper (GeForce 6800 GT, Pentium 4 2.8 GHz):
//! - 6 fps rendering a 256³ volume to 512×512 with the adaptive transfer
//!   function recalculated every frame and shading on,
//! - ~4 fps with the tracking overlay (multi-pass),
//! - IATF table generation per frame: sub-second,
//! - 10 s to classify a 256³ volume in data space.
//!
//! Our substrate is a multithreaded software renderer, so absolute fps are
//! lower; the *shape* to check: IATF generation is a negligible fraction of
//! a frame, the overlay costs a moderate constant factor, and data-space
//! classification is orders slower than TF rendering.
//!
//! Each row reports the median of [`CALLS`] timed calls, so one noisy call
//! on a shared host does not decide a shape check.

use ifet_bench::{header, row, timed};
use ifet_core::prelude::*;
use ifet_sim::shock_bubble::{ring_value_band, shock_bubble_with, ShockBubbleParams};

/// Timed calls per row.
const CALLS: usize = 5;

/// The last call's result and the median seconds of [`CALLS`] calls of `f`.
fn median_timed<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(CALLS);
    let mut out = None;
    for _ in 0..CALLS {
        let (o, s) = timed(&mut f);
        out = Some(o);
        secs.push(s);
    }
    secs.sort_by(f64::total_cmp);
    (out.expect("CALLS > 0"), secs[CALLS / 2])
}

fn main() {
    let (n, wh) = if ifet_bench::quick() {
        (64usize, 128usize)
    } else {
        (256, 512)
    };
    println!("# Section 7 performance (volume {n}^3, window {wh}x{wh})\n");

    let data = shock_bubble_with(ShockBubbleParams {
        dims: Dims3::cube(n),
        ..Default::default()
    });
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let (glo, ghi) = session.series().global_range();
    for (t, tn) in [(195u32, 0.0f32), (255, 1.0)] {
        let (lo, hi) = ring_value_band(tn);
        session.add_key_frame(t, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));
    }
    session.train_iatf(IatfParams::default());

    header(&["operation", "time", "throughput", "paper (GPU, 2005)"]);

    // 1. IATF table generation for one frame (histogram + 256 net queries).
    let t_mid = 225;
    let frame = data.series.frame_at_step(t_mid).unwrap().clone();
    let iatf = session.iatf().unwrap().clone();
    let (tf, gen_s) = median_timed(|| iatf.generate(t_mid, &frame));
    row(&[
        "IATF table generation (per frame)".into(),
        format!("{:.4} s", gen_s),
        format!("{:.0} tables/s", 1.0 / gen_s),
        "sub-second".into(),
    ]);

    // 2. DVR with per-frame IATF recomputation + shading.
    let (img, render_s) = median_timed(|| {
        let tf = iatf.generate(t_mid, &frame); // recalculated every frame
        session.render_with_tf(t_mid, &tf, wh, wh)
    });
    row(&[
        "DVR + per-frame IATF, shaded".into(),
        format!("{:.3} s/frame", render_s),
        format!("{:.2} fps", 1.0 / render_s),
        "6 fps".into(),
    ]);

    // 3. Tracking-overlay rendering (multi-pass equivalent).
    let tracked = session.extract_with_tf(t_mid, &tf, 0.5);
    let (_, overlay_s) = median_timed(|| session.render_tracked(t_mid, &tracked, &tf, &tf, wh, wh));
    row(&[
        "DVR + tracking overlay".into(),
        format!("{:.3} s/frame", overlay_s),
        format!("{:.2} fps", 1.0 / overlay_s),
        "4 fps".into(),
    ]);

    // 4. Data-space classification of the full volume.
    let mut oracle = PaintOracle::new(7);
    let fi = data.series.index_of_step(t_mid).unwrap();
    let paints = oracle.paint_from_truth(t_mid, data.truth_frame(fi), 150, 150);
    let mut s2 = VisSession::new(data.series.clone()).unwrap();
    s2.add_paints(paints).unwrap();
    s2.train_classifier(FeatureSpec::default(), ClassifierParams::default())
        .expect("training failed");
    let (_, classify_s) = median_timed(|| s2.extract_data_space(t_mid, 0.5).unwrap().unwrap());
    row(&[
        format!("data-space classification ({n}^3)"),
        format!("{:.2} s", classify_s),
        format!("{:.1} Mvoxel/s", (n * n * n) as f64 / classify_s / 1e6),
        "10 s (256^3)".into(),
    ]);

    println!("\nshape checks:");
    println!(
        "- IATF generation is {:.1}% of a rendered frame (paper: negligible, recomputed per frame): {}",
        100.0 * gen_s / render_s,
        if gen_s < 0.3 * render_s { "OK" } else { "UNEXPECTED" }
    );
    println!(
        "- overlay costs {:.2}x the plain render (paper: 6 fps -> 4 fps = 1.5x): {}",
        overlay_s / render_s,
        if (0.8..3.0).contains(&(overlay_s / render_s)) {
            "OK"
        } else {
            "UNEXPECTED"
        }
    );
    let _ = img;
}
