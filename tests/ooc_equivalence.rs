//! Out-of-core equivalence suite: every pipeline stage must produce results
//! byte-identical to the in-core path when run against an [`OutOfCoreSeries`]
//! at any cache capacity. Paging is allowed to change *when* frames are
//! resident, never *what* any stage computes — this file pins that contract
//! at capacities 1 (worst case: every access may page), 2 (the ISSUE's
//! bounded-memory target), and full (cache never evicts).

use ifet_core::persist::save_session_bytes;
use ifet_core::prelude::*;
use ifet_tf::IatfBuilder;
use ifet_track::FixedBandCriterion;
use ifet_volume::{CacheBudget, CacheBudgetHandle, FrameSource, OutOfCoreSeries};
use std::path::PathBuf;

mod support;
use support::{series, FRAMES, FRAME_BYTES};

/// The in-core series written to disk once; each test reopens it at the
/// capacity under test.
fn on_disk(tag: &str) -> (TimeSeries, Vec<PathBuf>) {
    support::on_disk_as(&format!("ooc_eq_{tag}"), "eq", false)
}

fn capacities() -> [usize; 3] {
    [1, 2, FRAMES]
}

/// The prefetch × budget matrix: read-ahead depths {0, 1, 2, 4} against a
/// two-frame budget expressed both ways (frame-counted and byte-counted).
fn budget_matrix() -> Vec<(CacheBudget, usize)> {
    let mut m = Vec::new();
    for budget in [CacheBudget::Frames(2), CacheBudget::Bytes(2 * FRAME_BYTES)] {
        for prefetch in [0usize, 1, 2, 4] {
            m.push((budget, prefetch));
        }
    }
    m
}

fn open_with(paths: &[PathBuf], budget: CacheBudget, prefetch: usize) -> OutOfCoreSeries {
    OutOfCoreSeries::open_with(paths.to_vec(), &CacheBudgetHandle::new(budget), prefetch).unwrap()
}

/// The bounded-memory witness for either budget kind, including in-flight
/// prefetch reads (the high-water marks count those too).
fn assert_budget_held(ooc: &OutOfCoreSeries, budget: CacheBudget) {
    let st = ooc.stats();
    match budget {
        CacheBudget::Frames(n) => assert!(
            st.resident_high_water <= n,
            "frame high-water {} exceeds budget {n}",
            st.resident_high_water
        ),
        CacheBudget::Bytes(b) => assert!(
            st.resident_high_water_bytes <= b,
            "byte high-water {} exceeds budget {b}",
            st.resident_high_water_bytes
        ),
    }
}

#[test]
fn trait_queries_match_across_sources() {
    let (s, paths) = on_disk("queries");
    for cap in capacities() {
        let ooc = OutOfCoreSeries::open(paths.clone(), cap).unwrap();
        assert_eq!(FrameSource::dims(&ooc), s.dims());
        assert_eq!(FrameSource::steps(&ooc), s.steps());
        assert_eq!(FrameSource::global_range(&ooc).unwrap(), s.global_range());
        assert_eq!(
            FrameSource::cumulative_histograms(&ooc, 64).unwrap(),
            s.cumulative_histograms(64)
        );
        for i in 0..s.len() {
            assert_eq!(&*FrameSource::frame(&ooc, i).unwrap(), s.frame(i));
        }
        assert!(ooc.stats().resident_high_water <= cap);
    }
}

#[test]
fn grow_4d_is_identical_at_every_capacity() {
    let (s, paths) = on_disk("grow");
    let criterion = FixedBandCriterion::new(0.9, 3.0, s.len()).unwrap();
    let seeds = [(0usize, 3usize, 6usize, 6usize)];
    let reference = grow_4d(&s, &criterion, &seeds).unwrap();
    assert!(reference[0].count() > 0, "seed must land in the ball");
    for cap in capacities() {
        let ooc = OutOfCoreSeries::open(paths.clone(), cap).unwrap();
        let masks = grow_4d(&ooc, &criterion, &seeds).unwrap();
        assert_eq!(masks, reference, "grow_4d diverged at capacity {cap}");
        assert!(ooc.stats().resident_high_water <= cap);
    }
}

#[test]
fn classify_series_is_identical_at_every_capacity() {
    let (s, paths) = on_disk("classify");
    // Paint the ball vs background on frame 0 from its ground truth and
    // train once; the same classifier then runs against every source.
    let truth = Mask3::threshold(s.frame(0), 1.0);
    let mut oracle = PaintOracle::new(11);
    oracle.slice_stride = 1;
    let paints = vec![oracle.paint_from_truth(0, &truth, 60, 60)];
    let clf = DataSpaceClassifier::train(
        FeatureExtractor::new(FeatureSpec::default()),
        &s,
        &paints,
        ClassifierParams {
            epochs: 40,
            ..Default::default()
        },
    )
    .unwrap();
    let reference = clf.classify_series(&s).unwrap();
    for cap in capacities() {
        let ooc = OutOfCoreSeries::open(paths.clone(), cap).unwrap();
        let out = clf.classify_series(&ooc).unwrap();
        assert_eq!(out, reference, "classification diverged at capacity {cap}");
        assert!(ooc.stats().resident_high_water <= cap);
    }
}

#[test]
fn iatf_training_and_generation_are_identical_at_every_capacity() {
    let (s, paths) = on_disk("iatf");
    let (glo, ghi) = s.global_range();
    let keys: Vec<(u32, TransferFunction1D)> = [0u32, 35, 75]
        .iter()
        .map(|&t| (t, TransferFunction1D::band(glo, ghi, 0.9, 1.8, 1.0)))
        .collect();
    let params = IatfParams {
        epochs: 60,
        ..Default::default()
    };
    let train = |src: &dyn Fn(&mut IatfBuilder)| {
        let mut b = IatfBuilder::new(params);
        for (t, tf) in &keys {
            b.add_key_frame(*t, tf.clone());
        }
        src(&mut b);
        b
    };
    let b = train(&|_| {});
    let reference = b.train(&s);
    let ref_json = serde_json::to_string(&reference).unwrap();
    let ref_tfs: Vec<TransferFunction1D> = s
        .iter()
        .map(|(t, frame)| reference.generate(t, frame))
        .collect();
    for cap in capacities() {
        let ooc = OutOfCoreSeries::open(paths.clone(), cap).unwrap();
        let b = train(&|_| {});
        let iatf = b.train(&ooc);
        assert_eq!(
            serde_json::to_string(&iatf).unwrap(),
            ref_json,
            "IATF training diverged at capacity {cap}"
        );
        let tfs: Vec<TransferFunction1D> =
            ifet_volume::map_frames_windowed(&ooc, |_, t, frame| iatf.generate(t, frame)).unwrap();
        assert_eq!(tfs, ref_tfs, "IATF generation diverged at capacity {cap}");
        assert!(ooc.stats().resident_high_water <= cap);
    }
}

#[test]
fn session_track_artifacts_are_byte_identical() {
    let (s, paths) = on_disk("artifact");
    let spec = CriterionSpec::FixedBand { lo: 0.9, hi: 3.0 };
    let seeds = [(0usize, 3usize, 6usize, 6usize)];
    let mut reference = VisSession::new(s).unwrap();
    assert_eq!(
        reference.run_track(spec.clone(), &seeds, None).unwrap(),
        TrackStatus::Completed
    );
    let ref_bytes = save_session_bytes(&reference);
    for cap in capacities() {
        let ooc = OutOfCoreSeries::open(paths.clone(), cap).unwrap();
        let mut sess = VisSession::new(ooc).unwrap();
        assert_eq!(
            sess.run_track(spec.clone(), &seeds, None).unwrap(),
            TrackStatus::Completed
        );
        assert_eq!(
            save_session_bytes(&sess),
            ref_bytes,
            "artifact bytes diverged at capacity {cap}"
        );
        assert!(sess.series().stats().resident_high_water <= cap);
    }
}

// ---------------------------------------------------------------------------
// Prefetch × budget × threads matrix: background read-ahead and byte-counted
// eviction may change paging order and overlap, never a single output byte.
// ---------------------------------------------------------------------------

#[test]
fn grow_4d_is_identical_across_prefetch_budget_and_threads() {
    let (s, paths) = on_disk("grow_matrix");
    let criterion = FixedBandCriterion::new(0.9, 3.0, s.len()).unwrap();
    let seeds = [(0usize, 3usize, 6usize, 6usize)];
    let reference = grow_4d(&s, &criterion, &seeds).unwrap();
    for threads in [1usize, 2, 4] {
        let pool = pipeline::pool_with_threads(threads);
        for (budget, prefetch) in budget_matrix() {
            let ooc = open_with(&paths, budget, prefetch);
            let masks = pool.install(|| grow_4d(&ooc, &criterion, &seeds)).unwrap();
            assert_eq!(
                masks, reference,
                "grow_4d diverged at threads {threads}, {budget:?}, prefetch {prefetch}"
            );
            assert_budget_held(&ooc, budget);
        }
    }
}

#[test]
fn classify_series_is_identical_across_prefetch_budget_and_threads() {
    let (s, paths) = on_disk("classify_matrix");
    let truth = Mask3::threshold(s.frame(0), 1.0);
    let mut oracle = PaintOracle::new(11);
    oracle.slice_stride = 1;
    let paints = vec![oracle.paint_from_truth(0, &truth, 60, 60)];
    let clf = DataSpaceClassifier::train(
        FeatureExtractor::new(FeatureSpec::default()),
        &s,
        &paints,
        ClassifierParams {
            epochs: 40,
            ..Default::default()
        },
    )
    .unwrap();
    let reference = clf.classify_series(&s).unwrap();
    for threads in [1usize, 2, 4] {
        let pool = pipeline::pool_with_threads(threads);
        for (budget, prefetch) in budget_matrix() {
            let ooc = open_with(&paths, budget, prefetch);
            let out = pool.install(|| clf.classify_series(&ooc)).unwrap();
            assert_eq!(
                out, reference,
                "classification diverged at threads {threads}, {budget:?}, prefetch {prefetch}"
            );
            assert_budget_held(&ooc, budget);
        }
    }
}

#[test]
fn iatf_is_identical_across_prefetch_budget_and_threads() {
    let (s, paths) = on_disk("iatf_matrix");
    let (glo, ghi) = s.global_range();
    let keys: Vec<(u32, TransferFunction1D)> = [0u32, 35, 75]
        .iter()
        .map(|&t| (t, TransferFunction1D::band(glo, ghi, 0.9, 1.8, 1.0)))
        .collect();
    let params = IatfParams {
        epochs: 60,
        ..Default::default()
    };
    let build = || {
        let mut b = IatfBuilder::new(params);
        for (t, tf) in &keys {
            b.add_key_frame(*t, tf.clone());
        }
        b
    };
    let reference = build().train(&s);
    let ref_json = serde_json::to_string(&reference).unwrap();
    let ref_tfs: Vec<TransferFunction1D> = s
        .iter()
        .map(|(t, frame)| reference.generate(t, frame))
        .collect();
    for threads in [1usize, 2, 4] {
        let pool = pipeline::pool_with_threads(threads);
        for (budget, prefetch) in budget_matrix() {
            let ooc = open_with(&paths, budget, prefetch);
            let iatf = pool.install(|| build().train(&ooc));
            assert_eq!(
                serde_json::to_string(&iatf).unwrap(),
                ref_json,
                "IATF training diverged at threads {threads}, {budget:?}, prefetch {prefetch}"
            );
            let tfs: Vec<TransferFunction1D> = pool
                .install(|| {
                    ifet_volume::map_frames_windowed(&ooc, |_, t, frame| iatf.generate(t, frame))
                })
                .unwrap();
            assert_eq!(
                tfs, ref_tfs,
                "IATF generation diverged at threads {threads}, {budget:?}, prefetch {prefetch}"
            );
            assert_budget_held(&ooc, budget);
        }
    }
}

#[test]
fn session_artifacts_are_identical_across_prefetch_budget_and_threads() {
    let (s, paths) = on_disk("artifact_matrix");
    let spec = CriterionSpec::FixedBand { lo: 0.9, hi: 3.0 };
    let seeds = [(0usize, 3usize, 6usize, 6usize)];
    let mut reference = VisSession::new(s).unwrap();
    assert_eq!(
        reference.run_track(spec.clone(), &seeds, None).unwrap(),
        TrackStatus::Completed
    );
    let ref_bytes = save_session_bytes(&reference);
    for threads in [1usize, 2, 4] {
        let pool = pipeline::pool_with_threads(threads);
        for (budget, prefetch) in budget_matrix() {
            let ooc = open_with(&paths, budget, prefetch);
            let mut sess = VisSession::new(ooc).unwrap();
            assert_eq!(
                pool.install(|| sess.run_track(spec.clone(), &seeds, None))
                    .unwrap(),
                TrackStatus::Completed
            );
            assert_eq!(
                save_session_bytes(&sess),
                ref_bytes,
                "artifact bytes diverged at threads {threads}, {budget:?}, prefetch {prefetch}"
            );
            assert_budget_held(sess.series(), budget);
        }
    }
}

// ---------------------------------------------------------------------------
// Storage flavor matrix: the same contract across on-disk formats and read
// paths. {raw, compressed} × {frame budget, byte budget} × prefetch {0, 2}
// at capacities 1, 2, and full — the codec may change how bytes reach
// memory, never a single output byte. Compressed series additionally charge
// the byte budget at *compressed* size, and the byte high-water must stay
// under the budget in those smaller units.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flavor {
    Raw,
    Compressed,
}

const FLAVORS: [Flavor; 2] = [Flavor::Raw, Flavor::Compressed];

/// Write the fixture once per (tag, flavor).
fn on_disk_flavor(tag: &str, flavor: Flavor) -> (TimeSeries, Vec<PathBuf>) {
    support::on_disk_as(
        &format!("ooc_eq_{tag}_{flavor:?}"),
        "eq",
        flavor == Flavor::Compressed,
    )
}

/// Budgets for the flavor sweep: the acceptance capacities {1, 2, full}
/// plus a two-raw-frame byte budget (compressed frames are charged at
/// their smaller on-disk size against the same byte count).
fn flavor_matrix() -> Vec<(CacheBudget, usize)> {
    let mut m = Vec::new();
    for budget in [
        CacheBudget::Frames(1),
        CacheBudget::Frames(2),
        CacheBudget::Frames(FRAMES),
        CacheBudget::Bytes(2 * FRAME_BYTES),
    ] {
        for prefetch in [0usize, 2] {
            m.push((budget, prefetch));
        }
    }
    m
}

#[test]
fn grow_4d_is_identical_across_storage_flavors() {
    let criterion = FixedBandCriterion::new(0.9, 3.0, FRAMES).unwrap();
    let seeds = [(0usize, 3usize, 6usize, 6usize)];
    let reference = grow_4d(&series(), &criterion, &seeds).unwrap();
    for flavor in FLAVORS {
        let (_, paths) = on_disk_flavor("grow", flavor);
        for (budget, prefetch) in flavor_matrix() {
            let ooc = open_with(&paths, budget, prefetch);
            let masks = grow_4d(&ooc, &criterion, &seeds).unwrap();
            assert_eq!(
                masks, reference,
                "grow_4d diverged at {flavor:?}, {budget:?}, prefetch {prefetch}"
            );
            assert_budget_held(&ooc, budget);
        }
    }
}

#[test]
fn classify_series_is_identical_across_storage_flavors() {
    let s = series();
    let truth = Mask3::threshold(s.frame(0), 1.0);
    let mut oracle = PaintOracle::new(11);
    oracle.slice_stride = 1;
    let paints = vec![oracle.paint_from_truth(0, &truth, 60, 60)];
    let clf = DataSpaceClassifier::train(
        FeatureExtractor::new(FeatureSpec::default()),
        &s,
        &paints,
        ClassifierParams {
            epochs: 40,
            ..Default::default()
        },
    )
    .unwrap();
    let reference = clf.classify_series(&s).unwrap();
    for flavor in FLAVORS {
        let (_, paths) = on_disk_flavor("classify", flavor);
        for (budget, prefetch) in flavor_matrix() {
            let ooc = open_with(&paths, budget, prefetch);
            let out = clf.classify_series(&ooc).unwrap();
            assert_eq!(
                out, reference,
                "classification diverged at {flavor:?}, {budget:?}, prefetch {prefetch}"
            );
            assert_budget_held(&ooc, budget);
        }
    }
}

#[test]
fn iatf_is_identical_across_storage_flavors() {
    let s = series();
    let (glo, ghi) = s.global_range();
    let keys: Vec<(u32, TransferFunction1D)> = [0u32, 35, 75]
        .iter()
        .map(|&t| (t, TransferFunction1D::band(glo, ghi, 0.9, 1.8, 1.0)))
        .collect();
    let params = IatfParams {
        epochs: 60,
        ..Default::default()
    };
    let build = || {
        let mut b = IatfBuilder::new(params);
        for (t, tf) in &keys {
            b.add_key_frame(*t, tf.clone());
        }
        b
    };
    let reference = build().train(&s);
    let ref_json = serde_json::to_string(&reference).unwrap();
    let ref_tfs: Vec<TransferFunction1D> = s
        .iter()
        .map(|(t, frame)| reference.generate(t, frame))
        .collect();
    for flavor in FLAVORS {
        let (_, paths) = on_disk_flavor("iatf", flavor);
        for (budget, prefetch) in flavor_matrix() {
            let ooc = open_with(&paths, budget, prefetch);
            let iatf = build().train(&ooc);
            assert_eq!(
                serde_json::to_string(&iatf).unwrap(),
                ref_json,
                "IATF training diverged at {flavor:?}, {budget:?}, prefetch {prefetch}"
            );
            let tfs: Vec<TransferFunction1D> =
                ifet_volume::map_frames_windowed(&ooc, |_, t, frame| iatf.generate(t, frame))
                    .unwrap();
            assert_eq!(
                tfs, ref_tfs,
                "IATF generation diverged at {flavor:?}, {budget:?}, prefetch {prefetch}"
            );
            assert_budget_held(&ooc, budget);
        }
    }
}

#[test]
fn session_artifacts_are_identical_across_storage_flavors() {
    let spec = CriterionSpec::FixedBand { lo: 0.9, hi: 3.0 };
    let seeds = [(0usize, 3usize, 6usize, 6usize)];
    let mut reference = VisSession::new(series()).unwrap();
    assert_eq!(
        reference.run_track(spec.clone(), &seeds, None).unwrap(),
        TrackStatus::Completed
    );
    let ref_bytes = save_session_bytes(&reference);
    for flavor in FLAVORS {
        let (_, paths) = on_disk_flavor("artifact", flavor);
        for (budget, prefetch) in flavor_matrix() {
            let ooc = open_with(&paths, budget, prefetch);
            let mut sess = VisSession::new(ooc).unwrap();
            assert_eq!(
                sess.run_track(spec.clone(), &seeds, None).unwrap(),
                TrackStatus::Completed
            );
            assert_eq!(
                save_session_bytes(&sess),
                ref_bytes,
                "artifact bytes diverged at {flavor:?}, {budget:?}, prefetch {prefetch}"
            );
            assert_budget_held(sess.series(), budget);
        }
    }
}

#[test]
fn compressed_byte_budget_admits_more_frames_than_raw() {
    // A quantized fixture (few distinct voxel values, so the shuffled delta
    // planes RLE away) compresses far below raw size; charged at compressed
    // size, a single raw frame's worth of byte budget must hold several
    // compressed frames at once — while the compressed-byte high-water
    // stays under the budget.
    let d = Dims3::cube(12);
    let quantized = TimeSeries::from_frames(
        (0..FRAMES)
            .map(|k| {
                let vol = ScalarVolume::from_fn(d, move |x, y, z| ((x + y + z + k) / 6) as f32);
                (k as u32 * 5, vol)
            })
            .collect(),
    );
    let dir = std::env::temp_dir().join(format!("ifet_ooc_eq_charge_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let zpaths = ifet_volume::io::write_series_with(&dir, "eq", &quantized, true).unwrap();
    let zsize = std::fs::metadata(&zpaths[0]).unwrap().len();
    assert!(
        zsize * 2 <= FRAME_BYTES,
        "fixture stopped compressing ({zsize} of {FRAME_BYTES} raw bytes); \
         the charging assertions below would be vacuous"
    );
    let budget = CacheBudget::Bytes(FRAME_BYTES);
    let ooc = open_with(&zpaths, budget, 0);
    for i in 0..FRAMES {
        FrameSource::frame(&ooc, i).unwrap();
    }
    let st = ooc.stats();
    assert!(
        st.resident_high_water >= 2,
        "one raw frame of byte budget held only {} compressed frames",
        st.resident_high_water
    );
    assert!(
        st.resident_high_water_bytes <= FRAME_BYTES,
        "compressed-byte high-water {} exceeds budget {FRAME_BYTES}",
        st.resident_high_water_bytes
    );

    let (_, rpaths) = on_disk_flavor("charge_raw", Flavor::Raw);
    let raw = open_with(&rpaths, budget, 0);
    for i in 0..FRAMES {
        FrameSource::frame(&raw, i).unwrap();
    }
    assert_eq!(
        raw.stats().resident_high_water,
        1,
        "raw frames charge full size: the same budget holds exactly one"
    );
}

// ---------------------------------------------------------------------------
// Particle tracing: RK4 pathline advection walks consecutive frame *pairs*
// of three velocity-component series in lockstep, each component behind its
// own cache. The serialized pathline artifact bytes must be identical to the
// in-core run at every capacity, for every storage flavor, and across thread
// counts — and the per-component residency bound must hold even though the
// walker pins a frame pair per component.
// ---------------------------------------------------------------------------

mod trace {
    use super::*;
    use ifet_trace::{advect, pathlines_to_bytes, seed_grid, TraceParams};
    use support::{flow_on_disk, FLOW_FRAMES};

    fn advect_bytes<S: FrameSource>(u: &S, v: &S, w: &S) -> Vec<u8> {
        let seeds = seed_grid(FrameSource::dims(u), 3);
        let set = advect(u, v, w, &seeds, &TraceParams { rk4_dt: 0.5 }).unwrap();
        pathlines_to_bytes(&set)
    }

    #[test]
    fn pathline_bytes_identical_at_every_capacity_and_flavor() {
        let ([u, v, w], raw_paths) = flow_on_disk("trace_eq_raw", false);
        let (_, z_paths) = flow_on_disk("trace_eq_z", true);
        let reference = advect_bytes(&u, &v, &w);

        for cap in [1usize, 2, FLOW_FRAMES] {
            for flavor in FLAVORS {
                let paths = match flavor {
                    Flavor::Raw => &raw_paths,
                    Flavor::Compressed => &z_paths,
                };
                let comps: Vec<OutOfCoreSeries> = paths
                    .iter()
                    .map(|p| open_with(p, CacheBudget::Frames(cap), 0))
                    .collect();
                let got = advect_bytes(&comps[0], &comps[1], &comps[2]);
                assert_eq!(
                    got, reference,
                    "pathline bytes diverged ({flavor:?}, capacity {cap})"
                );
                for (c, name) in comps.iter().zip(["u", "v", "w"]) {
                    assert!(
                        c.stats().resident_high_water <= cap,
                        "{name} high-water {} exceeds capacity {cap} ({flavor:?})",
                        c.stats().resident_high_water
                    );
                }
            }
        }
    }

    #[test]
    fn pathline_bytes_identical_across_thread_counts_and_prefetch() {
        let ([u, v, w], paths) = flow_on_disk("trace_eq_threads", false);
        let reference = advect_bytes(&u, &v, &w);
        for threads in [1usize, 2, 4] {
            let got = pipeline::pool_with_threads(threads).install(|| advect_bytes(&u, &v, &w));
            assert_eq!(
                got, reference,
                "pathline bytes diverged at {threads} threads"
            );
            // And the paged path at the same thread count, with read-ahead.
            let comps: Vec<OutOfCoreSeries> = paths
                .iter()
                .map(|p| open_with(p, CacheBudget::Frames(2), 2))
                .collect();
            let got = pipeline::pool_with_threads(threads)
                .install(|| advect_bytes(&comps[0], &comps[1], &comps[2]));
            assert_eq!(
                got, reference,
                "paged pathline bytes diverged at {threads} threads"
            );
            for c in &comps {
                assert!(c.stats().resident_high_water <= 2);
            }
        }
    }
}
