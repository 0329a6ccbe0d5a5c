//! Integration tests for the extension features: QG merge tracking,
//! multivariate classification, out-of-core paging,
//! key-frame suggestion, persistent tracks, and network pruning — the
//! paper's Section 8 directions, end to end.

use ifet_core::prelude::*;
use ifet_nn::introspect;
use ifet_sim::combustion_jet::{combustion_jet_multi, CombustionJetParams};
use ifet_track::EventKind;

#[test]
fn qg_inverse_cascade_yields_merge_events_and_tracks() {
    let data = ifet_sim::qg_turbulence(Dims3::cube(32), 7);
    let criterion = MaskCriterion::new(data.truth.clone()).unwrap();
    let seeds: Vec<Seed4> = data
        .truth_frame(0)
        .set_coords()
        .map(|(x, y, z)| (0usize, x, y, z))
        .collect();
    let masks = grow_4d(&data.series, &criterion, &seeds).unwrap();
    let report = track_events(&masks);

    // Coherent vortices merge: component count must drop, with Merge events.
    assert!(
        *report.components_per_frame.last().unwrap() < report.components_per_frame[0],
        "no inverse cascade: {:?}",
        report.components_per_frame
    );
    assert!(report.events_of(EventKind::Merge).next().is_some());

    // Persistent tracks record the fates.
    let frames: Vec<&ScalarVolume> = (0..data.series.len())
        .map(|i| data.series.frame(i))
        .collect();
    let set = extract_tracks(&masks, &frames);
    // Every merged track names an absorbing track that actually exists.
    let merged_into: Vec<u32> = set
        .tracks
        .iter()
        .filter_map(|t| match t.ending {
            TrackEnding::Merged { into } => Some(into),
            _ => None,
        })
        .collect();
    assert!(!merged_into.is_empty());
    for into in merged_into {
        assert!(set.tracks.iter().any(|t| t.id == into));
    }
    assert!(set
        .tracks
        .iter()
        .any(|t| t.ending == TrackEnding::SurvivesToEnd));
    // Track accounting: per frame, alive tracks == components.
    for fi in 0..masks.len() {
        assert_eq!(
            set.alive_at(fi).count() as u32,
            report.components_per_frame[fi],
            "frame {fi}"
        );
    }
}

#[test]
fn multivariate_classifier_beats_single_variables() {
    let (ms, truth) = combustion_jet_multi(CombustionJetParams {
        dims: Dims3::new(32, 48, 16),
        seed: 0xE7,
        ..Default::default()
    });
    let paint_step = ms.steps()[ms.len() / 2];
    let fi = ms.index_of_step(paint_step).unwrap();
    let mut oracle = PaintOracle::new(0xE7);
    let paints = oracle.paint_from_truth(paint_step, &truth[fi], 400, 400);
    let spec = FeatureSpec {
        shell_radius: 3.0,
        ..Default::default()
    };

    let params = ClassifierParams {
        hidden: 16,
        epochs: 400,
        ..Default::default()
    };
    let multi = DataSpaceClassifier::train_multi(
        FeatureExtractor::new(spec),
        &ms,
        std::slice::from_ref(&paints),
        params,
    )
    .unwrap();
    let multi_f1 = multi
        .extract_mask_multi(ms.frame(fi), ms.normalized_time(paint_step), 0.5)
        .f1(&truth[fi]);

    let single_series = ms.scalar_series("mixture").unwrap();
    let single = DataSpaceClassifier::train(
        FeatureExtractor::new(spec),
        &single_series,
        &[paints],
        params,
    )
    .unwrap();
    let single_f1 = single
        .extract_mask(
            single_series.frame(fi),
            single_series.normalized_time(paint_step),
            0.5,
        )
        .f1(&truth[fi]);

    assert!(
        multi_f1 > single_f1 + 0.05,
        "multivariate {multi_f1} should beat single-variable {single_f1}"
    );
    assert!(multi_f1 > 0.5, "multivariate F1 {multi_f1} too low");
}

#[test]
fn out_of_core_series_supports_the_iatf_workflow() {
    use ifet_sim::shock_bubble::ring_value_band;
    let data = ifet_sim::shock_bubble(Dims3::cube(16), 0xE9);
    let dir = std::env::temp_dir().join(format!("ifet_ext_ooc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Page the series to disk with room for only 2 resident frames.
    let ooc = OutOfCoreSeries::create(&dir, "b", &data.series, 2).unwrap();

    // The IATF needs only the key frames in core (paper Section 4.2.3).
    let key_frames = [(195u32, 0.0f32), (255, 1.0)];
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let (glo, ghi) = data.series.global_range();
    for (t, tn) in key_frames {
        let (lo, hi) = ring_value_band(tn);
        session.add_key_frame(t, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));
        // Touch only the key frames through the paging layer.
        let _ = ooc.frame_at_step(t).unwrap().unwrap();
    }
    assert!(ooc.stats().resident <= 2);
    session.train_iatf(IatfParams {
        epochs: 100,
        ..Default::default()
    });

    // Apply the trained IATF to frames streamed one at a time from disk.
    let iatf = session.iatf().unwrap();
    for (i, &t) in ooc.steps().to_vec().iter().enumerate() {
        let frame = ooc.frame(i).unwrap();
        let tf = iatf.generate(t, &frame);
        assert!(tf.support(0.5).is_some(), "t={t}: band lost");
        assert!(ooc.stats().resident <= 2, "paging violated its budget");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn suggested_key_frames_train_a_working_iatf() {
    use ifet_sim::shock_bubble::{shock_bubble_with, ShockBubbleParams};
    let params = ShockBubbleParams {
        dims: Dims3::cube(24),
        stride: 5,
        ..Default::default()
    };
    let data = shock_bubble_with(params);
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let keys = session.suggest_key_frames(3);
    assert!(keys.len() >= 2);
    let (glo, ghi) = data.series.global_range();
    let span = (params.t_end - params.t_start) as f32;
    for &t in &keys {
        let tn = (t - params.t_start) as f32 / span;
        let (lo, hi) = params.ring_band(tn);
        session.add_key_frame(t, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));
    }
    session.train_iatf(IatfParams::default());
    // IATF from suggested keys holds a usable F1 everywhere.
    for (i, &t) in data.series.steps().to_vec().iter().enumerate() {
        let tf = session.adaptive_tf_at_step(t).unwrap().unwrap();
        let f1 = session.extract_with_tf(t, &tf, 0.5).f1(data.truth_frame(i));
        assert!(f1 > 0.5, "t={t}: F1 {f1}");
    }
}

#[test]
fn pruned_classifier_network_still_extracts() {
    // The Section 6 loop end-to-end: train with a superfluous input, find it,
    // drop it, and verify behaviour is preserved (zero-input equivalence).
    let data = ifet_sim::reionization(Dims3::cube(24), 0xEA);
    let t = 310;
    let fi = data.series.index_of_step(t).unwrap();
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let mut oracle = PaintOracle::new(0xEA);
    session
        .add_paints(oracle.paint_from_truth(t, data.truth_frame(fi), 150, 150))
        .unwrap();
    session
        .train_classifier(
            FeatureSpec {
                position: true, // superfluous here
                shell_radius: 3.0,
                ..Default::default()
            },
            ClassifierParams::default(),
        )
        .unwrap();
    let net = session.classifier().unwrap().network();
    let ranked = introspect::rank_inputs(net);
    let (least, _) = *ranked.last().unwrap();
    let smaller = introspect::drop_input(net, least);
    // Agreement when the dropped input is zeroed.
    let mut probe = vec![0.3f32; net.input_size()];
    probe[least] = 0.0;
    let full_out = net.forward(&probe)[0];
    let mut small_probe = probe.clone();
    small_probe.remove(least);
    let small_out = smaller.forward(&small_probe)[0];
    assert!((full_out - small_out).abs() < 1e-6);
}
