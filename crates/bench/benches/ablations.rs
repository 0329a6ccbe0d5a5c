//! Micro-benchmarks for the design choices DESIGN.md calls out: shell
//! descriptor cost, octree encoding, 4D region growing, and neural-network
//! throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ifet_core::prelude::*;
use ifet_nn::mlp::Scratch;
use ifet_track::components::{ComponentLabels, Connectivity};
use ifet_track::FeatureOctree;
use ifet_volume::shell::ShellOffsets;
use std::hint::black_box;

fn bench_shell_sampling(c: &mut Criterion) {
    let vol = ScalarVolume::from_fn(Dims3::cube(64), |x, y, z| (x + y + z) as f32);
    let mut g = c.benchmark_group("shell_sampling");
    let fib = ShellOffsets::fibonacci(4.0, 26);
    let mut buf = Vec::new();
    g.bench_function("fibonacci_26_samples", |b| {
        b.iter(|| {
            buf.clear();
            fib.sample_into(&vol, 32, 32, 32, &mut buf);
            black_box(buf.len())
        })
    });
    // Per-voxel statistics next to one 64-voxel run of the lane kernel;
    // both report voxels/s so the axes compare directly.
    let mut run = [[0.0f32; 4]; 64];
    for &r in &[2.0f32, 4.0, 6.0] {
        let shell = ShellOffsets::full(r);
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(BenchmarkId::new("full_stats", r as u32), &shell, |b, s| {
            b.iter(|| black_box(s.sample_stats(&vol, 32, 32, 32)))
        });
        g.throughput(Throughput::Elements(run.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("stats_run_64", r as u32),
            &shell,
            |b, s| {
                b.iter(|| {
                    s.sample_stats_run(&vol, 0, 32, 32, &mut run);
                    black_box(run[63])
                })
            },
        );
    }
    g.finish();
}

fn bench_mlp_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("mlp_forward");
    for &(n_in, hidden) in &[(3usize, 16usize), (6, 12), (30, 16)] {
        let net = Mlp::three_layer(n_in, hidden, 0);
        let input = vec![0.5f32; n_in];
        let mut scratch = Scratch::for_net(&net);
        g.bench_with_input(
            BenchmarkId::new("predict1", format!("{n_in}x{hidden}")),
            &net,
            |b, net| b.iter(|| black_box(net.predict1(&input, &mut scratch))),
        );
    }
    g.finish();
}

fn bench_octree(c: &mut Criterion) {
    let data = ifet_sim::turbulent_vortex(Dims3::cube(48), 1);
    let mask = data.truth_frame(0).clone();
    let mut g = c.benchmark_group("octree");
    g.bench_function("encode_48c_feature", |b| {
        b.iter(|| black_box(FeatureOctree::from_mask(&mask)))
    });
    let tree = FeatureOctree::from_mask(&mask);
    g.bench_function("decode_48c_feature", |b| {
        b.iter(|| black_box(tree.to_mask()))
    });
    g.finish();
}

fn bench_region_grow_and_components(c: &mut Criterion) {
    let data = ifet_sim::turbulent_vortex(Dims3::cube(48), 1);
    let session = VisSession::new(data.series.clone()).unwrap();
    let truth0 = data.truth_frame(0);
    let (mut cx, mut cy, mut cz, mut n) = (0usize, 0usize, 0usize, 0usize);
    for (x, y, z) in truth0.set_coords() {
        cx += x;
        cy += y;
        cz += z;
        n += 1;
    }
    let seeds: Vec<Seed4> = vec![(0, cx / n, cy / n, cz / n)];

    let mut g = c.benchmark_group("tracking");
    g.sample_size(10);
    g.bench_function("grow_4d_13_frames_48c", |b| {
        b.iter(|| black_box(session.track_fixed(&seeds, 0.5, 10.0)))
    });
    let masks = session.track_fixed(&seeds, 0.5, 10.0).unwrap().masks;
    g.bench_function("label_components_48c", |b| {
        b.iter(|| black_box(ComponentLabels::label(&masks[0], Connectivity::TwentySix)))
    });
    g.finish();
}

fn bench_multires_tracking(c: &mut Criterion) {
    use ifet_track::grow_4d_multires;
    // A large-ish volume where the tracked feature is compact: the coarse
    // pass should pay off.
    let data = ifet_sim::turbulent_vortex(Dims3::cube(64), 2);
    let (glo, ghi) = data.series.global_range();
    let _ = (glo, ghi);
    let criterion_band = FixedBandCriterion::new(0.5, 10.0, data.series.len()).unwrap();
    let truth0 = data.truth_frame(0);
    let (mut cx, mut cy, mut cz, mut n) = (0usize, 0usize, 0usize, 0usize);
    for (x, y, z) in truth0.set_coords() {
        cx += x;
        cy += y;
        cz += z;
        n += 1;
    }
    let seeds: Vec<Seed4> = vec![(0, cx / n, cy / n, cz / n)];

    let mut g = c.benchmark_group("multires_tracking");
    g.sample_size(10);
    g.bench_function("exact_64c", |b| {
        b.iter(|| black_box(grow_4d(&data.series, &criterion_band, &seeds)))
    });
    for &factor in &[2usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("multires_64c", factor),
            &factor,
            |b, &f| {
                b.iter(|| black_box(grow_4d_multires(&data.series, &criterion_band, &seeds, f)))
            },
        );
    }
    g.finish();
}

fn bench_svm_vs_nn_prediction(c: &mut Criterion) {
    use ifet_nn::{Svm, SvmParams};
    // Cost per prediction: the Section 3 "cost and performance tradeoffs
    // remain to be evaluated" comparison.
    let inputs: Vec<Vec<f32>> = (0..200)
        .map(|i| vec![(i % 20) as f32 / 20.0, (i / 20) as f32 / 10.0, 0.5])
        .collect();
    let labels: Vec<f32> = inputs
        .iter()
        .map(|x| if x[0] + x[1] > 1.0 { 1.0 } else { 0.0 })
        .collect();
    let svm = Svm::train(&inputs, &labels, SvmParams::default());
    let net = Mlp::three_layer(3, 12, 0);
    let mut scratch = Scratch::for_net(&net);
    let probe = [0.4f32, 0.6, 0.5];

    let mut g = c.benchmark_group("engine_prediction");
    g.bench_function("nn_3x12", |b| {
        b.iter(|| black_box(net.predict1(&probe, &mut scratch)))
    });
    g.bench_function(
        format!("svm_{}sv", svm.num_support_vectors()).as_str(),
        |b| b.iter(|| black_box(svm.predict(&probe))),
    );
    g.finish();
}

criterion_group!(
    benches,
    bench_shell_sampling,
    bench_mlp_forward,
    bench_octree,
    bench_region_grow_and_components,
    bench_multires_tracking,
    bench_svm_vs_nn_prediction
);
criterion_main!(benches);
