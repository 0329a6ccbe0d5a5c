//! Figure 8: train the data-space classifier on time steps 130 and 310, then
//! apply it to the *unseen* step 250 — "the small features are invisible and
//! large features are retained over time".

use ifet_bench::{f3, header, row};
use ifet_core::prelude::*;
use ifet_extract::baselines;

fn main() {
    let dims = if ifet_bench::quick() {
        Dims3::cube(40)
    } else {
        Dims3::cube(64)
    };
    let data = ifet_sim::reionization(dims, 0xF168);
    let mut session = VisSession::new(data.series.clone()).unwrap();

    // Paint only on the first and last steps (the paper trains on 130 & 310).
    let train_steps = [130u32, 310];
    let mut oracle = PaintOracle::new(0xF168);
    for &t in &train_steps {
        let fi = data.series.index_of_step(t).unwrap();
        let paints = oracle.paint_from_truth(t, data.truth_frame(fi), 200, 200);
        session.add_paints(paints).unwrap();
    }
    session
        .train_classifier(
            FeatureSpec {
                shell_radius: 4.0,
                ..Default::default()
            },
            ClassifierParams::default(),
        )
        .unwrap();

    println!("# Figure 8 — temporal generalization of the trained network\n");
    header(&[
        "t",
        "trained on?",
        "1D TF F1",
        "ours F1",
        "noise voxels (TF)",
        "noise voxels (ours)",
    ]);
    for (i, &t) in data.series.steps().to_vec().iter().enumerate() {
        let frame = data.series.frame(i);
        let truth = data.truth_frame(i);
        let (thr, _) = baselines::best_threshold_band(frame, truth, 64);
        let band = Mask3::threshold(frame, thr);
        let ours = session.extract_data_space(t, 0.5).unwrap().unwrap();
        let mut nb = band.clone();
        nb.subtract(truth);
        let mut no = ours.clone();
        no.subtract(truth);
        row(&[
            t.to_string(),
            if train_steps.contains(&t) {
                "yes"
            } else {
                "NO (generalized)"
            }
            .to_string(),
            f3(band.f1(truth)),
            f3(ours.f1(truth)),
            nb.count().to_string(),
            no.count().to_string(),
        ]);
    }
    println!("\n(the 'NO' rows are the paper's generalization claim: the network was never shown those steps)");
}
