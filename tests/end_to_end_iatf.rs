//! End-to-end integration: the transfer-function-space workflow
//! (paper Section 4.2) on the argon-bubble analog, spanning
//! ifet-sim → ifet-volume → ifet-nn → ifet-tf → ifet-core → ifet-render.

use ifet_core::prelude::*;
use ifet_sim::shock_bubble::ring_value_band;

fn setup() -> (ifet_sim::LabeledSeries, VisSession) {
    let data = ifet_sim::shock_bubble(Dims3::cube(32), 0xE2E);
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let (glo, ghi) = session.series().global_range();
    for (t, tn) in [(195u32, 0.0f32), (225, 0.5), (255, 1.0)] {
        let (lo, hi) = ring_value_band(tn);
        session.add_key_frame(t, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));
    }
    session.train_iatf(IatfParams::default());
    (data, session)
}

#[test]
fn iatf_beats_static_tf_on_drifted_frames() {
    let (data, session) = setup();
    let first_tf = session.key_frames()[0].1.clone();
    // Away from the first key frame, the static TF collapses; the IATF holds.
    for (i, &t) in data.series.steps().to_vec().iter().enumerate().skip(2) {
        let truth = data.truth_frame(i);
        let static_f1 = session.extract_with_tf(t, &first_tf, 0.5).f1(truth);
        let tf = session.adaptive_tf_at_step(t).unwrap().unwrap();
        let iatf_f1 = session.extract_with_tf(t, &tf, 0.5).f1(truth);
        assert!(
            iatf_f1 > static_f1 + 0.3,
            "t={t}: IATF {iatf_f1} should dominate static {static_f1}"
        );
        assert!(iatf_f1 > 0.6, "t={t}: IATF F1 {iatf_f1} too low");
    }
}

#[test]
fn iatf_beats_lerp_at_unseen_steps() {
    // Key frames only at the endpoints; the middle frames are unseen.
    let data = ifet_sim::shock_bubble(Dims3::cube(32), 0xE2F);
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let (glo, ghi) = session.series().global_range();
    for (t, tn) in [(195u32, 0.0f32), (255, 1.0)] {
        let (lo, hi) = ring_value_band(tn);
        session.add_key_frame(t, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));
    }
    session.train_iatf(IatfParams::default());

    let t = 225;
    let fi = data.series.index_of_step(t).unwrap();
    let truth = data.truth_frame(fi);
    let lerp_f1 = session
        .extract_with_tf(t, &session.lerp_tf_at_step(t).unwrap(), 0.5)
        .f1(truth);
    let iatf_f1 = session
        .extract_with_tf(t, &session.adaptive_tf_at_step(t).unwrap().unwrap(), 0.5)
        .f1(truth);
    assert!(
        iatf_f1 > lerp_f1 + 0.2,
        "IATF {iatf_f1} must clearly beat lerp {lerp_f1} at the unseen middle step"
    );
}

#[test]
fn trained_network_survives_serialization() {
    // The paper ships the IATF to "parallel systems or remote machines for
    // rendering" — the network must serialize losslessly.
    let (data, session) = setup();
    let iatf = session.iatf().unwrap();
    let json = serde_json::to_string(iatf).expect("serialize");
    let restored: Iatf = serde_json::from_str(&json).expect("deserialize");
    let frame = data.series.frame_at_step(225).unwrap();
    assert_eq!(iatf.generate(225, frame), restored.generate(225, frame));
}

#[test]
fn adaptive_render_shows_the_ring() {
    let (_, session) = setup();
    let img = session.render_adaptive(225, 64, 64).unwrap().unwrap();
    assert!(
        img.mean_luminance() > 0.01,
        "adaptive render should not be black"
    );
    // And a transparent TF renders black (sanity of the comparison).
    let (glo, ghi) = session.series().global_range();
    let empty = TransferFunction1D::transparent(glo, ghi);
    let black = session.render_with_tf(225, &empty, 64, 64);
    assert!(black.mean_luminance() < 1e-6);
}

#[test]
fn adaptive_tfs_cover_every_frame() {
    let (data, session) = setup();
    let tfs = session.adaptive_tfs().unwrap().unwrap();
    assert_eq!(tfs.len(), data.series.len());
    for tf in &tfs {
        assert!(
            tf.support(0.5).is_some(),
            "each frame's adaptive TF must keep a visible band"
        );
    }
}
