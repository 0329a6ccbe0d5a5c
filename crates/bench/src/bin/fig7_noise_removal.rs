//! Figure 7: removing the "large number of surrounding tiny features" from
//! the reionization data (time step 310). The 1D transfer function cannot
//! separate the small features (overlapping values), repeated blurring
//! removes them but destroys the large structures' fine detail, and the
//! learning-based method "presents the large-scale structures more cleanly".

use ifet_bench::{f3, header, row, timed};
use ifet_core::prelude::*;
use ifet_extract::baselines;
use ifet_volume::filter::repeated_blur;

fn main() {
    let dims = if ifet_bench::quick() {
        Dims3::cube(40)
    } else {
        Dims3::cube(64)
    };
    let data = ifet_sim::reionization(dims, 0xF167);
    let mut session = VisSession::new(data.series.clone()).unwrap();

    let t = 310;
    let fi = data.series.index_of_step(t).unwrap();
    let frame = data.series.frame_at_step(t).unwrap();
    let truth = data.truth_frame(fi);

    // Scripted scientist paints positives on the large structures and
    // negatives on noise/background.
    let mut oracle = PaintOracle::new(0xF167);
    let paints = oracle.paint_from_truth(t, truth, 250, 250);
    session.add_paints(paints).unwrap();
    let spec = FeatureSpec {
        shell_radius: 4.0,
        ..Default::default()
    };
    let (_, train_s) = timed(|| {
        session
            .train_classifier(spec, ClassifierParams::default())
            .expect("training failed");
    });

    // Baseline 1: best-possible 1D transfer function (threshold swept).
    let (thr_raw, _) = baselines::best_threshold_band(frame, truth, 64);
    let band = Mask3::threshold(frame, thr_raw);

    // Baseline 2: the best 2D (value, gradient-magnitude) transfer function —
    // Kindlmann-style, one derived property, still no notion of feature size.
    let (tf2d, _) = baselines::best_tf2d_band(frame, truth, 12);
    let band2d = tf2d.extract_mask(frame, 0.5);

    // Baseline 3: repeated blurring, then the best threshold *on the blurred
    // volume* (fair: each method gets its optimal 1D mapping).
    let blurred_vol = repeated_blur(frame, 1.2, 2);
    let (thr_blur, _) = baselines::best_threshold_band(&blurred_vol, truth, 64);
    let blur_mask = Mask3::threshold(&blurred_vol, thr_blur);

    // Ours.
    let (ours, classify_s) = timed(|| session.extract_data_space(t, 0.5).unwrap().unwrap());

    println!(
        "# Figure 7 — noise removal at t=310 ({} voxels)\n",
        frame.len()
    );
    header(&["method", "precision", "recall", "F1", "boundary detail"]);
    for (name, mask) in [
        ("1D transfer function", &band),
        ("2D TF (value, |grad|)", &band2d),
        ("repeated blurring", &blur_mask),
        ("learning-based (ours)", &ours),
    ] {
        let s = Scores::of(mask, truth);
        row(&[
            name.to_string(),
            f3(s.precision),
            f3(s.recall),
            f3(s.f1),
            f3(baselines::detail_score(mask, truth)),
        ]);
    }

    // Noise suppression: how many bright voxels OUTSIDE the large
    // structures survive each method.
    let mut noise_band = band.clone();
    noise_band.subtract(truth);
    let mut noise_blur = blur_mask.clone();
    noise_blur.subtract(truth);
    let mut noise_ours = ours.clone();
    noise_ours.subtract(truth);
    println!();
    println!(
        "surviving noise voxels — 1D TF: {}, blur: {}, ours: {}",
        noise_band.count(),
        noise_blur.count(),
        noise_ours.count()
    );
    println!(
        "classifier training {:.2}s, full-volume classification {:.2}s",
        train_s, classify_s
    );

    let ours_f1 = ours.f1(truth);
    let best_baseline = band
        .f1(truth)
        .max(blur_mask.f1(truth))
        .max(band2d.f1(truth));
    println!(
        "\npaper claim (learning preserves detail AND suppresses noise): {}",
        if ours_f1 > best_baseline && noise_ours.count() < noise_band.count() {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
