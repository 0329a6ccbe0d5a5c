//! Micro-benchmarks for the design choices DESIGN.md calls out: shell
//! descriptor cost, 4D region growing, and neural-network throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ifet_core::prelude::*;
use ifet_nn::mlp::Scratch;
use ifet_track::components::{ComponentLabels, Connectivity};
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

criterion_group!(
    benches,
    bench_shell_sampling,
    bench_mlp_forward,
    bench_region_grow_and_components
);
criterion_main!(benches);
