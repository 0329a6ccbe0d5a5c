//! The interactive workflow, headless (paper Sections 4.2.2 and 6):
//! idle-loop incremental training with intermediate feedback, network
//! introspection ("opening the black box"), and dropping an unimportant
//! input property.
//!
//! Run with: `cargo run --release --example interactive_session`

use ifet_core::prelude::*;
use ifet_nn::introspect;
use ifet_sim::shock_bubble::ring_value_band;
use ifet_tf::IatfBuilder;

fn main() {
    let data = ifet_sim::shock_bubble(Dims3::cube(40), 21);
    let series = &data.series;
    let (glo, ghi) = series.global_range();

    // ---- 1. Idle-loop IATF training with live feedback -------------------
    // The user sets one key frame, the system trains in bursts between
    // interactions, and the rendered feedback improves as training proceeds.
    let mut builder = IatfBuilder::new(IatfParams::default());
    let (lo, hi) = ring_value_band(0.0);
    builder.add_key_frame(195, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));
    let (lo, hi) = ring_value_band(1.0);
    builder.add_key_frame(255, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));

    let mut trainer = builder.start_incremental(series);
    println!("idle-loop training (loss after each burst):");
    for burst in 1..=6 {
        let loss = trainer.step(100).unwrap();
        // Intermediate feedback: the user can look at the current TF at any
        // point while training continues.
        let snapshot = builder.finish(series, trainer.clone());
        let tf = snapshot.generate(225, series.frame_at_step(225).unwrap());
        let band = tf
            .support(0.5)
            .map(|(a, b)| format!("[{a:.2}, {b:.2}]"))
            .unwrap_or_else(|| "none yet".into());
        println!("  burst {burst}: loss {loss:.4}, current t=225 band {band}");
    }

    // ---- 2. Data-space training, then introspection ----------------------
    let session_series = series.clone();
    let mut session = VisSession::new(session_series).unwrap();
    let mut oracle = PaintOracle::new(3);
    let fi = 2; // paint on the middle frame
    let t_mid = series.steps()[fi];
    session
        .add_paints(oracle.paint_from_truth(t_mid, data.truth_frame(fi), 300, 300))
        .unwrap();
    // Deliberately include the (useless here) position features.
    let spec = FeatureSpec {
        position: true,
        shell_radius: 4.0,
        ..Default::default()
    };
    session
        .train_classifier(spec, ClassifierParams::default())
        .expect("training failed");
    let net = session
        .classifier()
        .expect("the session holds a trained classifier")
        .network();

    println!("\ninput importance (connection weights):");
    let names = [
        "value",
        "shell mean",
        "shell min",
        "shell max",
        "shell std",
        "pos x",
        "pos y",
        "pos z",
        "time",
    ];
    for (idx, w) in introspect::rank_inputs(net) {
        println!("  {:<10} {:.3}", names[idx], w);
    }

    // Drop the least important input and verify behaviour is preserved
    // (Section 6: "the input data for the previous network would be
    // transferred to the new network").
    let (least, _) = *introspect::rank_inputs(net).last().unwrap();
    let smaller = introspect::drop_input(net, least);
    println!(
        "\ndropped input {:?}: network shrank {} -> {} weights",
        names[least],
        net.num_params(),
        smaller.num_params()
    );
}
