//! The DNS combustion workflow (paper Figure 5): the vorticity magnitude's
//! value range grows so strongly over time that each key-frame transfer
//! function only works near its own key frame — while the IATF follows the
//! feature across the whole sequence.
//!
//! Run with: `cargo run --release --example combustion_sweep`

use ifet_core::prelude::*;
use ifet_sim::combustion_jet::top_fraction_mask;

fn main() {
    let data = ifet_sim::combustion_jet(Dims3::new(48, 72, 24), 5);
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let (glo, ghi) = session.series().global_range();
    let steps: Vec<u32> = data.series.steps().to_vec();

    // Key frames at the first, middle, and last steps: each captures the top
    // 5% of that frame's own vorticity distribution.
    let key_steps = [steps[0], steps[steps.len() / 2], steps[steps.len() - 1]];
    let mut key_tfs = Vec::new();
    for &t in &key_steps {
        let frame = data.series.frame_at_step(t).unwrap();
        let mask = top_fraction_mask(frame, 0.05);
        // The band the user would set: from the mask's lowest captured value up.
        let lo = frame
            .as_slice()
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask.get_linear(i))
            .map(|(_, &v)| v)
            .fold(f32::INFINITY, f32::min);
        let tf = TransferFunction1D::band(glo, ghi, lo, ghi, 1.0);
        session.add_key_frame(t, tf.clone());
        key_tfs.push((t, tf));
    }

    session.train_iatf(IatfParams::default());

    // The Figure 5 matrix: rows = methods, columns = evaluated time steps.
    print!("{:<18}", "method \\ step");
    for &t in &steps {
        print!("{t:>8}");
    }
    println!();
    for (kt, tf) in &key_tfs {
        print!("{:<18}", format!("static TF(t={kt})"));
        for (i, &t) in steps.iter().enumerate() {
            let mask = session.extract_with_tf(t, tf, 0.5);
            print!("{:>8.3}", Scores::of(&mask, data.truth_frame(i)).f1);
        }
        println!();
    }
    print!("{:<18}", "IATF (ours)");
    for (i, &t) in steps.iter().enumerate() {
        let tf = session.adaptive_tf_at_step(t).unwrap().unwrap();
        let mask = session.extract_with_tf(t, &tf, 0.5);
        print!("{:>8.3}", Scores::of(&mask, data.truth_frame(i)).f1);
    }
    println!();
    println!("\n(each static TF peaks near its own key frame; the IATF holds up everywhere)");
}
