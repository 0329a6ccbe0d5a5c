//! Integration: disk round-trips and whole-pipeline determinism — the
//! properties that make experiments reproducible and let trained systems be
//! shipped to other machines (paper Sections 4.2.3 and 8).

use ifet_core::prelude::*;
use ifet_sim::shock_bubble::ring_value_band;
use ifet_volume::io::{read_series, write_series};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ifet_it_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn series_roundtrips_through_disk() {
    let data = ifet_sim::shock_bubble(Dims3::cube(16), 0x10);
    let dir = tmpdir("series");
    let paths = write_series(&dir, "bubble", &data.series).unwrap();
    assert_eq!(paths.len(), data.series.len());
    let back = read_series(&paths).unwrap();
    assert_eq!(back, data.series);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn training_on_reloaded_series_is_identical() {
    // Write, reload, retrain: the trained IATF must be bit-identical — the
    // full pipeline is deterministic end to end.
    let data = ifet_sim::shock_bubble(Dims3::cube(16), 0x11);
    let dir = tmpdir("retrain");
    let paths = write_series(&dir, "bubble", &data.series).unwrap();
    let reloaded = read_series(&paths).unwrap();
    std::fs::remove_dir_all(dir).ok();

    let train = |series: &TimeSeries| {
        let mut session = VisSession::new(series.clone()).unwrap();
        let (glo, ghi) = series.global_range();
        for (t, tn) in [(195u32, 0.0f32), (255, 1.0)] {
            let (lo, hi) = ring_value_band(tn);
            session.add_key_frame(t, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));
        }
        session.train_iatf(IatfParams {
            epochs: 100,
            ..Default::default()
        });
        session.adaptive_tf_at_step(225).unwrap().unwrap()
    };
    assert_eq!(train(&data.series), train(&reloaded));
}

#[test]
fn whole_figure_pipeline_is_deterministic() {
    let run = || {
        let data = ifet_sim::reionization(Dims3::cube(24), 0x12);
        let mut session = VisSession::new(data.series.clone()).unwrap();
        let mut oracle = PaintOracle::new(0x12);
        let fi = data.series.index_of_step(310).unwrap();
        session
            .add_paints(oracle.paint_from_truth(310, data.truth_frame(fi), 80, 80))
            .unwrap();
        session
            .train_classifier(FeatureSpec::default(), ClassifierParams::default())
            .unwrap();
        session.extract_data_space(310, 0.5).unwrap().unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn renderer_is_deterministic_across_thread_counts() {
    // Scanline parallelism must not change pixels. The feature sits in one
    // corner of the volume, so the rows through it cost far more than the
    // empty rest and the workers finish their rows unevenly.
    let d = Dims3::cube(24);
    let blob = |x: usize, y: usize, z: usize| {
        let r2 = [(x, 6.0), (y, 5.0), (z, 15.0)]
            .iter()
            .map(|&(c, m)| (c as f32 - m).powi(2))
            .sum::<f32>();
        (-r2 / 20.0).exp()
    };
    let frame = |scale: f32| ScalarVolume::from_fn(d, |x, y, z| scale * blob(x, y, z));
    let series = TimeSeries::from_frames(vec![(0, frame(1.0)), (1, frame(0.9))]);
    let truth = Mask3::from_fn(d, |x, y, z| blob(x, y, z) > 0.5);

    let mut session = VisSession::new(series).unwrap();
    session
        .add_paints(PaintOracle::new(0x13).paint_from_truth(0, &truth, 40, 40))
        .unwrap();
    session
        .train_classifier(
            FeatureSpec::default(),
            ClassifierParams {
                epochs: 30,
                ..Default::default()
            },
        )
        .unwrap();
    let (glo, ghi) = session.series().global_range();
    let base = TransferFunction1D::band(glo, ghi, 0.2, ghi, 0.4);
    let adaptive = TransferFunction1D::band(glo, ghi, 0.5, ghi, 0.9);

    let render_all = |threads: usize| -> Vec<(&str, Image)> {
        pipeline::pool_with_threads(threads).install(|| {
            vec![
                ("tf", session.render_with_tf(0, &base, 48, 48)),
                (
                    "tracked",
                    session.render_tracked(0, &truth, &base, &adaptive, 48, 48),
                ),
                (
                    "classified",
                    session.render_classified(0, 48, 48).unwrap().unwrap(),
                ),
                ("mip", session.render_mip(0, 48, 48)),
            ]
        })
    };
    let bits = |img: &Image| {
        img.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    let reference = render_all(1);
    for (mode, img) in &reference {
        let lit = img.as_slice().iter().filter(|&&v| v > 0.0).count();
        assert!(
            lit > 0 && lit < img.as_slice().len(),
            "{mode}: no feature in view"
        );
    }
    for threads in [2, 3, 4] {
        for ((mode, want), (_, got)) in reference.iter().zip(render_all(threads)) {
            assert!(
                bits(want) == bits(&got),
                "{mode} differs at {threads} threads"
            );
        }
    }
}

#[test]
fn session_artifacts_are_byte_identical_across_thread_counts() {
    // The golden determinism property for persistence: run the whole
    // pipeline — IATF training, classifier training, data-space tracking,
    // a paused checkpoint — under thread pools of different sizes, and the
    // saved artifacts must agree to the byte. Frame-parallel classification
    // and frontier-parallel growth must be invisible in the serialized
    // result.
    let build = |threads: usize| {
        pipeline::pool_with_threads(threads).install(|| {
            let data = ifet_sim::reionization(Dims3::cube(16), 0x15);
            let mut session = VisSession::new(data.series.clone()).unwrap();
            let steps = data.series.steps().to_vec();
            let (glo, ghi) = data.series.global_range();

            session.add_key_frame(
                steps[0],
                TransferFunction1D::band(glo, ghi, glo + 0.3 * (ghi - glo), ghi, 0.9),
            );
            session.add_key_frame(
                *steps.last().unwrap(),
                TransferFunction1D::band(glo, ghi, glo + 0.5 * (ghi - glo), ghi, 0.9),
            );
            session.train_iatf(IatfParams {
                epochs: 60,
                ..Default::default()
            });

            let mut oracle = PaintOracle::new(0x15);
            session
                .add_paints(oracle.paint_from_truth(steps[0], data.truth_frame(0), 60, 60))
                .unwrap();
            session
                .train_classifier(
                    FeatureSpec::default(),
                    ClassifierParams {
                        epochs: 60,
                        ..Default::default()
                    },
                )
                .unwrap();

            // Seed tracking from the first voxel the classifier accepts, so
            // the data-space criterion grows a real region.
            let mask = session.extract_data_space(steps[0], 0.5).unwrap().unwrap();
            let d = data.series.dims();
            let i = (0..d.len())
                .find(|&i| mask.get_linear(i))
                .expect("classifier accepted no voxel");
            let (x, y, z) = d.coords(i);
            let spec = CriterionSpec::DataSpace { tau: 0.5 };
            let status = session
                .run_track(spec.clone(), &[(0, x, y, z)], None)
                .unwrap();
            assert_eq!(status, TrackStatus::Completed);
            // A second run interrupted after one parallel round leaves a
            // checkpoint in the artifact as well.
            session.run_track(spec, &[(0, x, y, z)], Some(1)).unwrap();

            save_session_bytes(&session).unwrap()
        })
    };

    let one = build(1);
    let two = build(2);
    let four = build(4);
    assert_eq!(one, two, "1-thread and 2-thread artifacts differ");
    assert_eq!(one, four, "1-thread and 4-thread artifacts differ");
}

#[test]
fn classifier_network_roundtrips_as_json() {
    let data = ifet_sim::reionization(Dims3::cube(24), 0x14);
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let mut oracle = PaintOracle::new(0x14);
    let fi = data.series.index_of_step(130).unwrap();
    session
        .add_paints(oracle.paint_from_truth(130, data.truth_frame(fi), 60, 60))
        .unwrap();
    session
        .train_classifier(FeatureSpec::default(), ClassifierParams::default())
        .unwrap();

    let net = session.classifier().unwrap().network();
    let restored = Mlp::from_json(&net.to_json()).unwrap();
    assert_eq!(*net, restored);
}
