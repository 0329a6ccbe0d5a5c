//! End-to-end integration: the data-space workflow (paper Section 4.3) on
//! the reionization analog — paint, train, classify, generalize over time —
//! spanning ifet-sim → ifet-extract → ifet-core → ifet-track.

use ifet_core::prelude::*;
use ifet_extract::baselines;

fn setup() -> (ifet_sim::LabeledSeries, VisSession) {
    let data = ifet_sim::reionization(Dims3::cube(40), 0xDA7A);
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let mut oracle = PaintOracle::new(0xDA7A);
    // Paint on the first and last frames only.
    for &t in &[130u32, 310] {
        let fi = data.series.index_of_step(t).unwrap();
        session
            .add_paints(oracle.paint_from_truth(t, data.truth_frame(fi), 200, 200))
            .unwrap();
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
    (data, session)
}

#[test]
fn classifier_beats_best_value_band() {
    let (data, session) = setup();
    for &t in &[130u32, 310] {
        let fi = data.series.index_of_step(t).unwrap();
        let frame = data.series.frame(fi);
        let truth = data.truth_frame(fi);
        let (thr, band_f1) = baselines::best_threshold_band(frame, truth, 48);
        let _ = thr;
        let ours = session
            .extract_data_space(t, 0.5)
            .unwrap()
            .unwrap()
            .f1(truth);
        assert!(
            ours > band_f1,
            "t={t}: learned {ours} must beat the best possible 1D band {band_f1}"
        );
    }
}

#[test]
fn generalizes_to_unseen_time_steps() {
    // The Figure 8 claim: frames 190 and 250 were never painted.
    let (data, session) = setup();
    for &t in &[190u32, 250] {
        let fi = data.series.index_of_step(t).unwrap();
        let truth = data.truth_frame(fi);
        let ours = session.extract_data_space(t, 0.5).unwrap().unwrap();
        let f1 = ours.f1(truth);
        assert!(
            f1 > 0.8,
            "unseen t={t}: F1 {f1} too low to claim generalization"
        );
    }
}

#[test]
fn suppresses_small_noise_features() {
    let (data, session) = setup();
    let t = 310;
    let fi = data.series.index_of_step(t).unwrap();
    let frame = data.series.frame(fi);
    let truth = data.truth_frame(fi);

    let band = Mask3::threshold(frame, 0.5);
    let ours = session.extract_data_space(t, 0.5).unwrap().unwrap();
    let mut band_noise = band;
    band_noise.subtract(truth);
    let mut ours_noise = ours;
    ours_noise.subtract(truth);
    // "many of the tiny features are suppressed" — require a substantial
    // reduction (not total removal; the paper's results keep some residue).
    assert!(
        (ours_noise.count() as f64) < 0.7 * band_noise.count() as f64,
        "noise voxels: ours {} vs band {}",
        ours_noise.count(),
        band_noise.count()
    );
}

#[test]
fn per_slice_feedback_matches_full_classification() {
    // The interactive UI classifies single slices for immediate feedback;
    // results must agree with the full-volume pass.
    let (data, session) = setup();
    let t = 130;
    let frame = data.series.frame_at_step(t).unwrap();
    let tn = data.series.normalized_time(t);
    let clf = session.classifier().unwrap();
    let full = clf.classify_frame(frame, tn);
    let (nx, _, slice) = clf.classify_slice_z(frame, 7, tn);
    for y in 0..frame.dims().ny {
        for x in 0..nx {
            assert!((slice[x + nx * y] - full.get(x, y, 7)).abs() < 1e-6);
        }
    }
}

#[test]
fn mask_criterion_tracking_from_classifier_output() {
    // The "arbitrary-dimensional classification function" as a region-grow
    // criterion: track the largest structure through time using the
    // classifier's per-frame masks.
    let (data, session) = setup();
    let clf = session.classifier().unwrap();
    let masks: Vec<Mask3> = data
        .series
        .iter()
        .map(|(t, frame)| clf.extract_mask(frame, data.series.normalized_time(t), 0.5))
        .collect();
    let criterion = MaskCriterion::new(masks).unwrap();

    // Seed at a truth voxel of the first frame.
    let seed = data.truth_frame(0).set_coords().next().unwrap();
    let tracked = grow_4d(&data.series, &criterion, &[(0, seed.0, seed.1, seed.2)]).unwrap();
    // If the seed's structure is classified, it must be tracked across
    // every frame (structures only grow in this dataset).
    if tracked[0].count() > 0 {
        for (i, m) in tracked.iter().enumerate() {
            assert!(m.count() > 0, "structure lost at frame {i}");
        }
    }
}
