//! Data-space classification of one frame: the batched predictor (x-rows in
//! fixed-width runs, fresh buffers per z-slab task) against the per-voxel
//! reference, and whole-series classification.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ifet_core::prelude::*;
use std::hint::black_box;

fn trained_classifier(dim: usize) -> (LabeledSeries, DataSpaceClassifier) {
    let data = ifet_sim::reionization(Dims3::cube(dim), 0x77);
    let step = data.series.steps()[0];
    let mut oracle = PaintOracle::new(0x77);
    let paints = vec![oracle.paint_from_truth(step, data.truth_frame(0), 60, 60)];
    let clf = DataSpaceClassifier::train(
        FeatureExtractor::new(FeatureSpec::default()),
        &data.series,
        &paints,
        ClassifierParams {
            epochs: 40,
            ..Default::default()
        },
    )
    .unwrap();
    (data, clf)
}

fn bench_classify_scratch(c: &mut Criterion) {
    let mut g = c.benchmark_group("classify_scratch");
    for &dim in &[16usize, 32] {
        let (data, clf) = trained_classifier(dim);
        let (_, frame) = data.series.iter().next().unwrap();
        g.bench_with_input(BenchmarkId::new("batched", dim), &clf, |b, clf| {
            b.iter(|| black_box(clf.classify_frame(frame, 0.0)))
        });
        g.bench_with_input(BenchmarkId::new("per_voxel", dim), &clf, |b, clf| {
            b.iter(|| black_box(clf.classify_frame_uncached(frame, 0.0)))
        });
    }
    g.finish();
}

fn bench_classify_series(c: &mut Criterion) {
    let mut g = c.benchmark_group("classify_series");
    let (data, clf) = trained_classifier(24);
    g.bench_function("series_24c", |b| {
        b.iter(|| black_box(clf.classify_series(&data.series)))
    });
    g.finish();
}

criterion_group!(benches, bench_classify_scratch, bench_classify_series);
criterion_main!(benches);
