//! Out-of-core paging benchmarks: what does running against an N-frame LRU
//! cache cost relative to a fully resident series?
//!
//! Two access patterns are measured over a 64³ × 16 series (the in-core
//! copy is ~16 MiB, so every configuration fits in RAM and the numbers
//! isolate paging overhead, not disk bandwidth):
//! 1. A sequential full sweep (sum every voxel of every frame). The plain
//!    frame-by-frame walk is the schedule of `classify_series`, which pages
//!    one frame at a time and fans each frame's z-slabs across the pool;
//!    the windowed sweep is the schedule of IATF generation, which fans out
//!    over the frames of a residency window. Capacity 1 is the worst case
//!    (every frame is a miss); at full capacity the second and later
//!    iterations are pure hits.
//! 2. 4D region growing, whose frontier revisits frames out of order and so
//!    exercises eviction and re-paging at small capacities.
//!
//! `IFET_QUICK=1` shrinks the series to 16³ × 8 for a CI smoke-run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ifet_track::{grow_4d, FixedBandCriterion, Seed4};
use ifet_volume::io::{write_series, write_series_with};
use ifet_volume::{
    map_frames_windowed, CacheBudgetHandle, Dims3, OutOfCoreSeries, ScalarVolume, TimeSeries,
};
use std::hint::black_box;
use std::path::PathBuf;

fn quick() -> bool {
    std::env::var("IFET_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn shape() -> (usize, usize) {
    if quick() {
        (16, 8)
    } else {
        (64, 16)
    }
}

/// A sphere of high values drifting along x so the grown region spans every
/// frame (same structure as the region-growing benchmarks).
fn drifting_sphere_series(n: usize, frames: usize) -> TimeSeries {
    let d = Dims3::cube(n);
    let c = n as f32 / 2.0;
    let r0 = n as f32 * 0.28;
    TimeSeries::from_frames(
        (0..frames as u32)
            .map(|t| {
                let cx = n as f32 * 0.3 + (n as f32 * 0.05) * t as f32;
                let vol = ScalarVolume::from_fn(d, move |x, y, z| {
                    let dx = x as f32 - cx;
                    let dy = y as f32 - c;
                    let dz = z as f32 - c;
                    let r = (dx * dx + dy * dy + dz * dz).sqrt();
                    (1.0 - r / r0).max(0.0)
                });
                (t, vol)
            })
            .collect(),
    )
}

/// The series written to disk once per process; benches reopen it at each
/// capacity under test.
fn on_disk() -> (TimeSeries, Vec<PathBuf>) {
    let (n, frames) = shape();
    let series = drifting_sphere_series(n, frames);
    let dir = std::env::temp_dir().join(format!("ifet_bench_ooc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths = write_series(&dir, "bench", &series).unwrap();
    (series, paths)
}

fn sum_in_core(series: &TimeSeries) -> f64 {
    series
        .iter()
        .map(|(_, f)| f.as_slice().iter().map(|&v| v as f64).sum::<f64>())
        .sum()
}

fn sum_paged(series: &OutOfCoreSeries) -> f64 {
    (0..series.len())
        .map(|i| {
            let f = series.frame(i).unwrap();
            f.as_slice().iter().map(|&v| v as f64).sum::<f64>()
        })
        .sum()
}

/// Windowed sweep via [`map_frames_windowed`] — the pattern that issues
/// prefetch hints for the next window while the current one computes.
fn sum_windowed(series: &OutOfCoreSeries) -> f64 {
    map_frames_windowed(series, |_, _, f| {
        f.as_slice().iter().map(|&v| v as f64).sum::<f64>()
    })
    .unwrap()
    .into_iter()
    .sum()
}

fn bench_sequential_sweep(c: &mut Criterion) {
    let (series, paths) = on_disk();
    let frames = series.len();
    let frame_bytes = series.dims().len() as u64 * 4;

    let mut g = c.benchmark_group("ooc_sweep");
    g.sample_size(10);
    g.bench_function("in_core", |b| b.iter(|| black_box(sum_in_core(&series))));
    for &cap in &[1usize, 2, 4, frames] {
        let ooc = OutOfCoreSeries::open(paths.clone(), cap).unwrap();
        assert_eq!(sum_paged(&ooc), sum_in_core(&series), "paging changed data");
        g.bench_with_input(BenchmarkId::new("cache", cap), &cap, |b, _| {
            b.iter(|| black_box(sum_paged(&ooc)))
        });
    }
    // Byte-budget axis: the same sweep with the budget counted in bytes.
    for &capf in &[1u64, 2, 4] {
        let budget = CacheBudgetHandle::bytes(capf * frame_bytes);
        let ooc = OutOfCoreSeries::open_with(paths.clone(), &budget, 0).unwrap();
        assert_eq!(sum_paged(&ooc), sum_in_core(&series), "paging changed data");
        g.bench_with_input(BenchmarkId::new("cache_bytes", capf), &capf, |b, _| {
            b.iter(|| black_box(sum_paged(&ooc)))
        });
    }
    g.finish();
}

/// Prefetch axis: a windowed sweep at cache capacity 2, with background
/// read-ahead depths 0 (off) through 4. Depth > 0 overlaps the next
/// window's disk reads with the current window's compute — a wall-clock win
/// only when a spare core can run the worker; on a single-core host the
/// overlap serializes and the numbers document that.
fn bench_prefetch_axis(c: &mut Criterion) {
    let (series, paths) = on_disk();
    let expected = sum_in_core(&series);

    let mut g = c.benchmark_group("ooc_prefetch");
    g.sample_size(10);
    for &depth in &[0usize, 1, 2, 4] {
        let budget = CacheBudgetHandle::frames(2);
        let ooc = OutOfCoreSeries::open_with(paths.clone(), &budget, depth).unwrap();
        assert_eq!(sum_windowed(&ooc), expected, "prefetch changed data");
        g.bench_with_input(BenchmarkId::new("depth", depth), &depth, |b, _| {
            b.iter(|| black_box(sum_windowed(&ooc)))
        });
    }
    g.finish();
}

fn bench_grow_paged(c: &mut Criterion) {
    let (series, paths) = on_disk();
    let (n, frames) = shape();
    let criterion = FixedBandCriterion::new(0.25, 2.0, frames).unwrap();
    let seeds: Vec<Seed4> = vec![(0, (n as f32 * 0.3) as usize, n / 2, n / 2)];
    let reference = grow_4d(&series, &criterion, &seeds).unwrap();

    let mut g = c.benchmark_group("ooc_grow_4d");
    g.sample_size(10);
    g.bench_function("in_core", |b| {
        b.iter(|| black_box(grow_4d(&series, &criterion, &seeds).unwrap()))
    });
    for &cap in &[1usize, 2, frames] {
        let ooc = OutOfCoreSeries::open(paths.clone(), cap).unwrap();
        assert_eq!(
            grow_4d(&ooc, &criterion, &seeds).unwrap(),
            reference,
            "paging changed growth"
        );
        g.bench_with_input(BenchmarkId::new("cache", cap), &cap, |b, _| {
            b.iter(|| black_box(grow_4d(&ooc, &criterion, &seeds).unwrap()))
        });
    }
    g.finish();
}

/// Storage-flavor axis: the sequential sweep over raw copying reads and
/// compressed (`.rawz`) frames decoded on page-in, both at cache capacity 2. Setup doubles as the `--compress` density
/// smoke: charged at compressed size, the same byte budget must page at
/// least twice the frames the raw series does on this sphere fixture.
fn bench_storage_flavors(c: &mut Criterion) {
    let (series, raw_paths) = on_disk();
    let zdir = std::env::temp_dir().join(format!("ifet_bench_oocz_{}", std::process::id()));
    std::fs::create_dir_all(&zdir).unwrap();
    let zpaths = write_series_with(&zdir, "bench", &series, true).unwrap();
    let expected = sum_in_core(&series);
    let frame_bytes = series.dims().len() as u64 * 4;

    // Frames-per-byte: the worst compressed frame must fit twice in one
    // raw frame's bytes...
    let zmax = zpaths
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .max()
        .unwrap();
    assert!(
        zmax * 2 <= frame_bytes,
        "compressed frames too large ({zmax} of {frame_bytes} raw bytes): \
         a byte budget would not hold 2x the frames"
    );
    // ...and the paged high-water must confirm it end to end: under the
    // same two-raw-frame byte budget, the compressed series keeps at least
    // twice as many frames resident.
    let budget = 2 * frame_bytes;
    let raw = OutOfCoreSeries::open_with(raw_paths.clone(), &CacheBudgetHandle::bytes(budget), 0)
        .unwrap();
    assert_eq!(sum_paged(&raw), expected, "raw paging changed data");
    let z =
        OutOfCoreSeries::open_with(zpaths.clone(), &CacheBudgetHandle::bytes(budget), 0).unwrap();
    assert_eq!(sum_paged(&z), expected, "codec changed data");
    let (rhw, zhw) = (
        raw.stats().resident_high_water,
        z.stats().resident_high_water,
    );
    assert!(
        zhw >= 2 * rhw,
        "same {budget}-byte budget held {zhw} compressed frames vs {rhw} raw — \
         expected at least 2x"
    );

    let mut g = c.benchmark_group("ooc_storage");
    g.sample_size(10);
    let flavors: [(&str, OutOfCoreSeries); 2] = [
        ("raw", OutOfCoreSeries::open(raw_paths, 2).unwrap()),
        ("compressed", OutOfCoreSeries::open(zpaths, 2).unwrap()),
    ];
    for (label, ooc) in flavors {
        assert_eq!(sum_paged(&ooc), expected, "{label} flavor changed data");
        g.bench_function(label, |b| b.iter(|| black_box(sum_paged(&ooc))));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sequential_sweep,
    bench_prefetch_axis,
    bench_grow_paged,
    bench_storage_flavors
);
criterion_main!(benches);
