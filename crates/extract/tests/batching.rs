//! The batching gate: classification runs each x-row in fixed-width batched
//! runs, and must be bit-identical to the per-voxel scalar path. The x
//! extent decides how a row splits into runs (one voxel, one short run, an
//! exact run, a run plus a one-voxel tail, several runs), so the gate varies
//! the frame's x extent — the edge cases plus random extents — at 1, 2 and
//! 4 worker threads, through the frame, series and slice entry points.

use ifet_extract::{
    ClassifierParams, DataSpaceClassifier, FeatureExtractor, FeatureSpec, PaintOracle,
};
use ifet_volume::{Dims3, Mask3, ScalarVolume, TimeSeries};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A classifier trained on a two-ball scene, built once and shared:
/// training is the expensive part and every case only re-classifies.
fn trained() -> &'static DataSpaceClassifier {
    static CELL: OnceLock<DataSpaceClassifier> = OnceLock::new();
    CELL.get_or_init(|| {
        let d = Dims3::cube(14);
        let ball = |x: usize, y: usize, z: usize, cx: f32, r: f32| {
            ((x as f32 - cx).powi(2) + (y as f32 - 7.0).powi(2) + (z as f32 - 7.0).powi(2)).sqrt()
                < r
        };
        let vol = ScalarVolume::from_fn(d, |x, y, z| {
            if ball(x, y, z, 4.0, 3.0) || ball(x, y, z, 10.0, 1.5) {
                1.0
            } else {
                0.0
            }
        });
        let truth = Mask3::from_fn(d, |x, y, z| ball(x, y, z, 4.0, 3.0));
        let series = TimeSeries::from_frames(vec![(0, vol)]);
        let mut oracle = PaintOracle::new(11);
        oracle.slice_stride = 2;
        let paints = oracle.paint_from_truth(0, &truth, 80, 80);
        let fx = FeatureExtractor::new(FeatureSpec {
            shell_radius: 3.0,
            position: true,
            ..Default::default()
        });
        DataSpaceClassifier::train(
            fx,
            &series,
            &[paints],
            ClassifierParams {
                epochs: 60,
                ..Default::default()
            },
        )
        .unwrap()
    })
}

/// A two-frame series `nx` voxels wide and a few rows and slices deep; the
/// frames differ, so each one sees its own values and normalized time.
fn strip_series(nx: usize) -> TimeSeries {
    let d = Dims3::new(nx, 3, 4);
    let frame = |k: usize| {
        ScalarVolume::from_fn(d, move |x, y, z| {
            ((x * 7 + y * 13 + z * 29 + k * 3) % 11) as f32 / 10.0
        })
    };
    TimeSeries::from_frames(vec![(0, frame(0)), (10, frame(1))])
}

/// The first voxel where `got` and `want` differ bit-wise, if any.
fn first_divergence(got: &[f32], want: &[f32]) -> Option<usize> {
    if got.len() != want.len() {
        return Some(got.len().min(want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
}

/// Classify a strip series `nx` wide on `threads` workers through every
/// batched entry point, and report the first path that diverges from the
/// per-voxel reference.
fn divergence(nx: usize, threads: usize) -> Option<String> {
    let clf = trained();
    let series = strip_series(nx);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let all = clf.classify_series(&series).unwrap();
        for (i, (t, frame)) in series.iter().enumerate() {
            let tn = series.normalized_time(t);
            let reference = clf.classify_frame_uncached(frame, tn);
            let want = reference.as_slice();
            let framed = clf.classify_frame(frame, tn);
            if let Some(v) = first_divergence(framed.as_slice(), want) {
                return Some(format!("classify_frame, frame {i}, voxel {v}"));
            }
            if let Some(v) = first_divergence(all[i].as_slice(), want) {
                return Some(format!("classify_series, frame {i}, voxel {v}"));
            }
            let slab = nx * 3;
            for k in 0..4 {
                let (_, _, slice) = clf.classify_slice_z(frame, k, tn);
                if let Some(v) = first_divergence(&slice, &want[k * slab..(k + 1) * slab]) {
                    return Some(format!("classify_slice_z, frame {i}, slice {k}, voxel {v}"));
                }
            }
        }
        None
    })
}

/// The extents at the run boundaries: a single voxel, one voxel short of a
/// run, exactly one run, one voxel past it, and two runs plus a tail.
#[test]
fn run_boundary_extents_are_bit_identical() {
    for nx in [1usize, 63, 64, 65, 130] {
        for threads in [1usize, 2, 4] {
            assert_eq!(divergence(nx, threads), None, "nx {nx}, threads {threads}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched ≡ scalar, bit for bit, at any x extent and worker count.
    #[test]
    fn batched_classification_is_bit_identical(
        nx in 1usize..=200,
        threads in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let diverged = divergence(nx, threads);
        prop_assert!(
            diverged.is_none(),
            "nx {} threads {}: {:?}",
            nx,
            threads,
            diverged
        );
    }
}
