//! Ablation — which frames should the user paint?
//!
//! The IATF only sees the key frames; their placement matters. We compare
//! histogram-driven suggestion (farthest-point selection in distribution
//! space, the Jankun-Kelly & Ma-style data-driven choice) against evenly
//! spaced and endpoint-only selections, on the irregular-drift argon bubble
//! where placement is non-trivial.

use ifet_bench::{f3, header, row};
use ifet_core::prelude::*;
use ifet_sim::shock_bubble::{shock_bubble_with, ShockBubbleParams};
use ifet_tf::suggest_key_frames;

/// Train on `key_steps` and return mean F1 over all frames.
fn evaluate(data: &ifet_sim::LabeledSeries, params: &ShockBubbleParams, key_steps: &[u32]) -> f64 {
    let series = &data.series;
    let (glo, ghi) = series.global_range();
    let span = (params.t_end - params.t_start) as f32;
    let mut session = VisSession::new(series.clone()).unwrap();
    for &t in key_steps {
        let tn = (t - params.t_start) as f32 / span;
        let (lo, hi) = params.ring_band(tn);
        session.add_key_frame(t, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));
    }
    session.train_iatf(IatfParams::default());
    let f1s: Vec<f64> = series
        .steps()
        .to_vec()
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let tf = session.adaptive_tf_at_step(t).unwrap().unwrap();
            session.extract_with_tf(t, &tf, 0.5).f1(data.truth_frame(i))
        })
        .collect();
    f1s.iter().sum::<f64>() / f1s.len() as f64
}

fn main() {
    let dims = if ifet_bench::quick() {
        Dims3::cube(32)
    } else {
        Dims3::cube(48)
    };
    let params = ShockBubbleParams {
        dims,
        stride: 5,
        drift_wobble: 0.25, // irregular drift: key-frame placement matters
        ..Default::default()
    };
    let data = shock_bubble_with(params);
    let steps = data.series.steps().to_vec();
    let k = 4;

    let endpoints = vec![steps[0], *steps.last().unwrap()];
    let even: Vec<u32> = (0..k)
        .map(|i| steps[i * (steps.len() - 1) / (k - 1)])
        .collect();
    let suggested = suggest_key_frames(&data.series, 256, k, 0.0);

    println!("# Ablation — key-frame placement for the IATF (irregular drift)\n");
    header(&["selection", "key frames", "mean F1 over all steps"]);
    for (name, keys) in [
        ("endpoints only", &endpoints),
        ("evenly spaced", &even),
        ("histogram-suggested", &suggested),
    ] {
        let f1 = evaluate(&data, &params, keys);
        row(&[name.to_string(), format!("{keys:?}"), f3(f1)]);
    }
    println!("\nfinding: data-driven suggestion clearly beats endpoints-only, but plain");
    println!("even spacing is competitive or better at equal k — distribution-space");
    println!("coverage (k-center) over-samples the steepest transition and can leave");
    println!("long temporal gaps elsewhere. The IATF needs anchors spread in TIME as");
    println!("well as in distribution; suggestion is best used to *augment* an even");
    println!("baseline, not replace it.");
}
