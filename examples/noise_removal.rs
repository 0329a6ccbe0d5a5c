//! Data-space extraction: remove hundreds of small "noise" features whose
//! values overlap the large structures of interest — impossible for a 1D
//! transfer function, destructive for blurring, easy for the painted
//! shell-feature classifier (the paper's Figure 7 workflow).
//!
//! Run with: `cargo run --release --example noise_removal`

use ifet_core::prelude::*;
use ifet_extract::baselines;

fn main() {
    // The reionization analog: a few large wobbly structures + many small
    // blobs sharing the same value band.
    let data = ifet_sim::reionization(Dims3::cube(48), 3);
    let mut session = VisSession::new(data.series.clone()).unwrap();

    let t = 310;
    let fi = data.series.index_of_step(t).unwrap();
    let frame = data.series.frame_at_step(t).unwrap();
    let truth = data.truth_frame(fi);

    // The scientist paints ~200 voxels of the large structures (wanted) and
    // ~200 of the background/noise (unwanted) on a few slices.
    let mut oracle = PaintOracle::new(42);
    let paints = oracle.paint_from_truth(t, truth, 200, 200);
    session.add_paints(paints).unwrap();

    // Train the per-voxel classifier with shell-neighborhood features.
    let spec = FeatureSpec {
        shell_radius: 4.0,
        ..Default::default()
    };
    let clf = session
        .train_classifier(spec, ClassifierParams::default())
        .expect("training failed");
    println!("classifier trained, final loss = {:.5}", clf.final_loss());

    // Compare against the conventional baselines.
    let ours = session.extract_data_space(t, 0.5).unwrap().unwrap();
    let (thr, _) = baselines::best_threshold_band(frame, truth, 64);
    let band = Mask3::threshold(frame, thr);
    let blurred = baselines::blur_then_band_mask(frame, 1.2, 2, thr, f32::INFINITY);

    println!(
        "\n{:<22} {:>9} {:>9} {:>9} {:>9}",
        "method", "precision", "recall", "F1", "detail"
    );
    for (name, mask) in [
        ("1D transfer function", &band),
        ("repeated blurring", &blurred),
        ("learning-based (ours)", &ours),
    ] {
        let s = Scores::of(mask, truth);
        let detail = baselines::detail_score(mask, truth);
        println!(
            "{:<22} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            name, s.precision, s.recall, s.f1, detail
        );
    }
}
