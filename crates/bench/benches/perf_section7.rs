//! Criterion benches for the Section 7 performance table: per-frame IATF
//! table generation, shaded DVR, the tracking-overlay pass, and data-space
//! classification. Sizes are scaled down from the paper's 256³/512² so a
//! bench run stays in minutes; `perf_table` (a bin) runs the full sizes once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ifet_core::prelude::*;
use ifet_sim::shock_bubble::{ring_value_band, shock_bubble_with, ShockBubbleParams};
use std::hint::black_box;

fn setup(n: usize) -> (ifet_sim::LabeledSeries, VisSession) {
    let data = shock_bubble_with(ShockBubbleParams {
        dims: Dims3::cube(n),
        ..Default::default()
    });
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let (glo, ghi) = session.series().global_range();
    for (t, tn) in [(195u32, 0.0f32), (255, 1.0)] {
        let (lo, hi) = ring_value_band(tn);
        session.add_key_frame(t, TransferFunction1D::band(glo, ghi, lo, hi, 1.0));
    }
    session.train_iatf(IatfParams {
        epochs: 200,
        ..Default::default()
    });
    (data, session)
}

fn bench_iatf_table_gen(c: &mut Criterion) {
    let (data, session) = setup(64);
    let iatf = session.iatf().unwrap().clone();
    let frame = data.series.frame_at_step(225).unwrap().clone();
    c.bench_function("iatf_table_gen_64c", |b| {
        b.iter(|| black_box(iatf.generate(225, &frame)))
    });
}

fn bench_render(c: &mut Criterion) {
    let (_, session) = setup(64);
    let tf = session.adaptive_tf_at_step(225).unwrap().unwrap();
    let mut g = c.benchmark_group("render_dvr");
    g.sample_size(10);
    for &wh in &[128usize, 256] {
        g.bench_with_input(BenchmarkId::new("shaded_64c", wh), &wh, |b, &wh| {
            b.iter(|| black_box(session.render_with_tf(225, &tf, wh, wh)))
        });
    }
    g.finish();
}

fn bench_tracking_overlay(c: &mut Criterion) {
    let (_, session) = setup(64);
    let tf = session.adaptive_tf_at_step(225).unwrap().unwrap();
    let tracked = session.extract_with_tf(225, &tf, 0.5);
    let mut g = c.benchmark_group("render_tracking_overlay");
    g.sample_size(10);
    g.bench_function("overlay_64c_256px", |b| {
        b.iter(|| black_box(session.render_tracked(225, &tracked, &tf, &tf, 256, 256)))
    });
    g.finish();
}

fn bench_dataspace_classify(c: &mut Criterion) {
    let (data, _) = setup(64);
    let t = 225;
    let fi = data.series.index_of_step(t).unwrap();
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let mut oracle = PaintOracle::new(3);
    session
        .add_paints(oracle.paint_from_truth(t, data.truth_frame(fi), 150, 150))
        .unwrap();
    session
        .train_classifier(FeatureSpec::default(), ClassifierParams::default())
        .unwrap();
    let mut g = c.benchmark_group("dataspace_classify");
    g.sample_size(10);
    g.bench_function("classify_64c", |b| {
        b.iter(|| black_box(session.extract_data_space(t, 0.5).unwrap().unwrap()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_iatf_table_gen,
    bench_render,
    bench_tracking_overlay,
    bench_dataspace_classify
);
criterion_main!(benches);
