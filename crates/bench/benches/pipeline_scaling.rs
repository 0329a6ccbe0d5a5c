//! Per-time-step parallel fan-out (paper Conclusion: each time step is
//! independent, so a cluster — here, a thread pool — processes frames
//! concurrently). Measures classification of a multi-frame series at
//! 1/2/4/8 workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ifet_core::pipeline::pool_with_threads;
use ifet_core::prelude::*;
use ifet_volume::map_frames_windowed;
use std::hint::black_box;

fn bench_scaling(c: &mut Criterion) {
    let data =
        ifet_sim::shock_bubble::shock_bubble_with(ifet_sim::shock_bubble::ShockBubbleParams {
            dims: Dims3::cube(32),
            stride: 5, // 13 frames
            ..Default::default()
        });
    let t0 = data.series.steps()[0];
    let fi = 0;
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let mut oracle = PaintOracle::new(1);
    session
        .add_paints(oracle.paint_from_truth(t0, data.truth_frame(fi), 120, 120))
        .unwrap();
    session
        .train_classifier(FeatureSpec::default(), ClassifierParams::default())
        .unwrap();
    let clf = session.classifier().unwrap().clone();
    let series = data.series.clone();

    let mut g = c.benchmark_group("pipeline_scaling");
    g.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("classify_13_frames", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let sweep = || {
                        map_frames_windowed(&series, |_, t, frame| {
                            // Sequential, buffer-reusing inner work so only the
                            // frame fan-out scales (per-slice classification is
                            // the UI feedback path and allocates once per slice).
                            let tn = series.normalized_time(t);
                            let d = frame.dims();
                            let mut acc = 0.0f32;
                            for z in 0..d.nz {
                                let (_, _, slice) = clf.classify_slice_z(frame, z, tn);
                                acc += slice.iter().sum::<f32>();
                            }
                            acc
                        })
                    };
                    black_box(pool_with_threads(threads).install(sweep).unwrap())
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
