//! Figure 4: three key-frame transfer functions (t = 195, 225, 255), each
//! applied statically to all time steps, versus the IATF. Each static TF
//! only captures the ring near its own key frame; the IATF preserves the
//! ring across the whole sequence.

use ifet_bench::{f3, header, row};
use ifet_core::prelude::*;
use ifet_sim::shock_bubble::ring_value_band;

fn main() {
    let dims = if ifet_bench::quick() {
        Dims3::cube(32)
    } else {
        Dims3::cube(64)
    };
    let data = ifet_sim::shock_bubble(dims, 0xF164);
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let (glo, ghi) = session.series().global_range();
    let steps: Vec<u32> = data.series.steps().to_vec();

    let key_steps = [195u32, 225, 255];
    let mut key_tfs = Vec::new();
    for &kt in &key_steps {
        let tn = (kt - 195) as f32 / 60.0;
        let (lo, hi) = ring_value_band(tn);
        let tf = TransferFunction1D::band(glo, ghi, lo, hi, 1.0);
        session.add_key_frame(kt, tf.clone());
        key_tfs.push((kt, tf));
    }
    session.train_iatf(IatfParams::default());

    println!("# Figure 4 — ring F1 per time step: static key-frame TFs vs IATF\n");
    let mut cols: Vec<&str> = vec!["method"];
    let step_strs: Vec<String> = steps.iter().map(|t| t.to_string()).collect();
    cols.extend(step_strs.iter().map(|s| s.as_str()));
    header(&cols);

    for (kt, tf) in &key_tfs {
        let mut cells = vec![format!("static TF(t={kt})")];
        for (i, &t) in steps.iter().enumerate() {
            let mask = session.extract_with_tf(t, tf, 0.5);
            cells.push(f3(Scores::of(&mask, data.truth_frame(i)).f1));
        }
        row(&cells);
    }

    let mut cells = vec!["lerp of key frames".to_string()];
    for (i, &t) in steps.iter().enumerate() {
        let tf = session.lerp_tf_at_step(t).unwrap();
        let mask = session.extract_with_tf(t, &tf, 0.5);
        cells.push(f3(Scores::of(&mask, data.truth_frame(i)).f1));
    }
    row(&cells);

    let mut cells = vec!["IATF (ours)".to_string()];
    let mut iatf_f1 = Vec::new();
    for (i, &t) in steps.iter().enumerate() {
        let tf = session.adaptive_tf_at_step(t).unwrap().unwrap();
        let mask = session.extract_with_tf(t, &tf, 0.5);
        let f1 = Scores::of(&mask, data.truth_frame(i)).f1;
        iatf_f1.push(f1);
        cells.push(f3(f1));
    }
    row(&cells);

    let min_iatf = iatf_f1.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\npaper claim (ring completely preserved over the period): {}",
        if min_iatf > 0.6 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
