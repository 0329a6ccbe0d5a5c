//! Quickstart: learn an adaptive transfer function from two painted key
//! frames and watch it follow a drifting feature that a static transfer
//! function loses.
//!
//! Run with: `cargo run --release --example quickstart`

use ifet_core::prelude::*;
use ifet_sim::shock_bubble::ring_value_band;

fn main() {
    // 1. A time-varying dataset: the argon-bubble analog. The "smoke ring"'s
    //    data values drift upward over time; ground-truth ring masks come
    //    with the generator so we can score every method.
    let data = ifet_sim::shock_bubble(Dims3::cube(48), 7);
    println!(
        "dataset: {} {} frames of {}",
        data.name,
        data.series.len(),
        data.series.dims()
    );

    let mut session = VisSession::new(data.series.clone()).unwrap();
    let (glo, ghi) = session.series().global_range();

    // 2. The "user" paints 1D transfer functions on the first and last key
    //    frames, capturing the ring's value band at those instants.
    let (b0, b1) = ring_value_band(0.0);
    let first_tf = TransferFunction1D::band(glo, ghi, b0, b1, 1.0);
    session.add_key_frame(195, first_tf.clone());
    let (b0, b1) = ring_value_band(1.0);
    session.add_key_frame(255, TransferFunction1D::band(glo, ghi, b0, b1, 1.0));

    // 3. Train the Intelligent Adaptive Transfer Function.
    let iatf = session.train_iatf(IatfParams::default());
    println!(
        "IATF trained, final loss = {:.5}",
        iatf.final_loss().unwrap()
    );

    // 4. Compare static vs adaptive extraction on every frame.
    println!("\n{:<6} {:>12} {:>12}", "step", "static-TF F1", "IATF F1");
    for (i, &t) in data.series.steps().to_vec().iter().enumerate() {
        let truth = data.truth_frame(i);
        let static_mask = session.extract_with_tf(t, &first_tf, 0.5);
        let adaptive_tf = session.adaptive_tf_at_step(t).unwrap().unwrap();
        let adaptive_mask = session.extract_with_tf(t, &adaptive_tf, 0.5);
        println!(
            "{:<6} {:>12.3} {:>12.3}",
            t,
            Scores::of(&static_mask, truth).f1,
            Scores::of(&adaptive_mask, truth).f1
        );
    }

    // 5. Render the middle frame with the adaptive TF.
    let img = session.render_adaptive(225, 256, 256).unwrap().unwrap();
    let path = std::env::temp_dir().join("ifet_quickstart.ppm");
    img.save_ppm(&path).expect("failed to write image");
    println!("\nrendered middle frame -> {}", path.display());
}
