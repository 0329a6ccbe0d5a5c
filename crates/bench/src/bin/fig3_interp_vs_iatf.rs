//! Figure 3: two key frames capture the ring structure; at an intermediate
//! time step the adaptive transfer function preserves the ring while linear
//! interpolation "combines two separated features from the two key frame
//! transfer functions with reduced opacity" and loses it.

use ifet_bench::{f3, header, row};
use ifet_core::prelude::*;
use ifet_sim::shock_bubble::ring_value_band;

fn main() {
    let dims = if ifet_bench::quick() {
        Dims3::cube(32)
    } else {
        Dims3::cube(64)
    };
    let data = ifet_sim::shock_bubble(dims, 0xF163);
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let (glo, ghi) = session.series().global_range();

    // Key frames at the first and last steps only (as in the figure).
    let tf_a = {
        let (lo, hi) = ring_value_band(0.0);
        TransferFunction1D::band(glo, ghi, lo, hi, 1.0)
    };
    let tf_b = {
        let (lo, hi) = ring_value_band(1.0);
        TransferFunction1D::band(glo, ghi, lo, hi, 1.0)
    };
    session.add_key_frame(195, tf_a.clone());
    session.add_key_frame(255, tf_b.clone());
    session.train_iatf(IatfParams::default());

    // Evaluate at the intermediate step t = 225.
    let t = 225;
    let fi = data.series.index_of_step(t).unwrap();
    let truth = data.truth_frame(fi);

    let lerp_tf = session.lerp_tf_at_step(t).unwrap();
    let iatf_tf = session.adaptive_tf_at_step(t).unwrap().unwrap();

    println!("# Figure 3 — interpolation vs IATF at the intermediate step t={t}\n");
    header(&["method", "precision", "recall", "F1"]);
    for (name, tf) in [
        ("key frame 1 TF (static)", &tf_a),
        ("key frame 2 TF (static)", &tf_b),
        ("linear interpolation", &lerp_tf),
        ("IATF (ours)", &iatf_tf),
    ] {
        let mask = session.extract_with_tf(t, tf, 0.5);
        let s = Scores::of(&mask, truth);
        row(&[name.to_string(), f3(s.precision), f3(s.recall), f3(s.f1)]);
    }

    // The mechanism: lerp leaves two half-opacity ghost bands.
    let mid_a =
        lerp_tf.opacity_at(0.5 * (tf_a.support(0.5).unwrap().0 + tf_a.support(0.5).unwrap().1));
    println!(
        "\nlerp opacity at the OLD key-frame band center: {} (ghost band)",
        f3(mid_a as f64)
    );
    let (ilo, ihi) = iatf_tf.support(0.5).unwrap_or((f32::NAN, f32::NAN));
    println!(
        "IATF band at t={t}: [{}, {}]",
        f3(ilo as f64),
        f3(ihi as f64)
    );
}
