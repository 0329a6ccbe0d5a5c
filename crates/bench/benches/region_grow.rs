//! Region-growing benchmarks: the level-synchronous grower (`grow_4d`, one
//! thread, per-frame acceptance tables) next to the FIFO oracle
//! (`grow_4d_serial`, a criterion call per visited edge), plus the cost of
//! criterion table precomputation on its own, with adaptive tables of one
//! to 64 accepted value bands. The series is 64³ × 8 frames with a region
//! that spans every frame, so the temporal exchange between rounds is
//! exercised.

use criterion::{criterion_group, criterion_main, Criterion};
use ifet_tf::tf1d::TF_ENTRIES;
use ifet_tf::TransferFunction1D;
use ifet_track::criterion::{AdaptiveTfCriterion, FixedBandCriterion};
use ifet_track::{grow_4d, grow_4d_serial, GrowthCriterion, Seed4};
use ifet_volume::{Dims3, ScalarVolume, TimeSeries};
use std::hint::black_box;

/// 8 frames of 64³: a sphere of high values drifting along x, so the grown
/// region spans every frame and the temporal exchange is exercised.
fn drifting_sphere_series() -> TimeSeries {
    let d = Dims3::cube(64);
    let frames = (0..8u32)
        .map(|t| {
            let cx = 20.0 + 3.0 * t as f32;
            let vol = ScalarVolume::from_fn(d, |x, y, z| {
                let dx = x as f32 - cx;
                let dy = y as f32 - 32.0;
                let dz = z as f32 - 32.0;
                let r = (dx * dx + dy * dy + dz * dz).sqrt();
                (1.0 - r / 18.0).max(0.0)
            });
            (t, vol)
        })
        .collect();
    TimeSeries::from_frames(frames)
}

fn bench_grow(c: &mut Criterion) {
    let series = drifting_sphere_series();
    let criterion = FixedBandCriterion::new(0.25, 2.0, series.len()).unwrap();
    let seeds: Vec<Seed4> = vec![(0, 20, 32, 32)];

    // Sanity: the two paths agree before we time them.
    assert_eq!(
        grow_4d(&series, &criterion, &seeds).unwrap(),
        grow_4d_serial(&series, &criterion, &seeds).unwrap()
    );

    let mut g = c.benchmark_group("grow_4d_64c_8f");
    g.sample_size(10);
    g.bench_function("grow_4d_serial", |b| {
        b.iter(|| black_box(grow_4d_serial(&series, &criterion, &seeds).unwrap()))
    });
    g.bench_function("grow_4d", |b| {
        b.iter(|| black_box(grow_4d(&series, &criterion, &seeds).unwrap()))
    });
    g.finish();
}

fn bench_criterion_precompute(c: &mut Criterion) {
    let series = drifting_sphere_series();
    let n = series.len();
    let band = FixedBandCriterion::new(0.25, 2.0, n).unwrap();
    let tfs = (0..n)
        .map(|_| TransferFunction1D::band(0.0, 1.0, 0.25, 1.0, 1.0))
        .collect::<Vec<_>>();
    let adaptive = AdaptiveTfCriterion::new(tfs, 0.5).unwrap();

    // The per-voxel virtual-call path the tables replace: one full frame of
    // `accept` calls vs. one `precompute_frame` table build.
    let frame = series.frame(0);
    let d = frame.dims();
    let mut g = c.benchmark_group("criterion_precompute_64c");
    g.sample_size(10);
    g.bench_function("fixed_band_accept_per_voxel", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for z in 0..d.nz {
                for y in 0..d.ny {
                    for x in 0..d.nx {
                        if band.accept(0, frame, x, y, z) {
                            hits += 1;
                        }
                    }
                }
            }
            black_box(hits)
        })
    });
    g.bench_function("fixed_band_table", |b| {
        b.iter(|| black_box(band.precompute_frame(0, frame)))
    });
    g.bench_function("adaptive_tf_table", |b| {
        b.iter(|| black_box(adaptive.precompute_frame(0, frame)))
    });
    // Tables that cross `tau` several times: compare passes over the value
    // bands up to the kernel's cut-off (3 bands), one entry lookup per voxel
    // past it.
    for runs in [3, 4, 64] {
        let mut table = vec![0.0; TF_ENTRIES];
        for r in 0..runs {
            let start = r * TF_ENTRIES / runs + 1;
            table[start..start + 2].fill(1.0);
        }
        let tfs = vec![TransferFunction1D::from_table(0.0, 1.0, table); n];
        let many = AdaptiveTfCriterion::new(tfs, 0.5).unwrap();
        g.bench_function(format!("adaptive_tf_table_{runs}_bands"), |b| {
            b.iter(|| black_box(many.precompute_frame(0, frame)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_grow, bench_criterion_precompute);
criterion_main!(benches);
