//! Out-of-core equivalence suite: every pipeline stage must produce results
//! byte-identical to the in-core path when run against an [`OutOfCoreSeries`]
//! at any cache capacity. Paging is allowed to change *when* frames are
//! resident, never *what* any stage computes — this file pins that contract
//! at capacities 1 (worst case: every access may page), 2 (the ISSUE's
//! bounded-memory target), and full (cache never evicts).

use ifet_core::obs;
use ifet_core::persist::save_session_bytes;
use ifet_core::prelude::*;
use ifet_tf::IatfBuilder;
use ifet_track::FixedBandCriterion;
use ifet_volume::{
    CacheBudget, CacheBudgetHandle, FrameHandle, FrameSink, FrameSource, OutOfCoreSeries,
    OutOfCoreSink, SeriesError, TimeSeriesSink,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

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

/// Paint the ball vs background on frame 0 from its ground truth and train
/// once; the same classifier then runs against every source.
fn ball_classifier(s: &TimeSeries) -> DataSpaceClassifier {
    let truth = Mask3::threshold(s.frame(0), 1.0);
    let mut oracle = PaintOracle::new(11);
    oracle.slice_stride = 1;
    let paints = vec![oracle.paint_from_truth(0, &truth, 60, 60)];
    DataSpaceClassifier::train(
        FeatureExtractor::new(FeatureSpec::default()),
        s,
        &paints,
        ClassifierParams {
            epochs: 40,
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn classify_series_is_identical_at_every_capacity() {
    let (s, paths) = on_disk("classify");
    let clf = ball_classifier(&s);
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
    let ref_bytes = save_session_bytes(&reference).unwrap();
    for cap in capacities() {
        let ooc = OutOfCoreSeries::open(paths.clone(), cap).unwrap();
        let mut sess = VisSession::new(ooc).unwrap();
        assert_eq!(
            sess.run_track(spec.clone(), &seeds, None).unwrap(),
            TrackStatus::Completed
        );
        assert_eq!(
            save_session_bytes(&sess).unwrap(),
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
    let clf = ball_classifier(&s);
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
    let ref_bytes = save_session_bytes(&reference).unwrap();
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
                save_session_bytes(&sess).unwrap(),
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
    let clf = ball_classifier(&s);
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

/// Every written file of `dir`, by name, with its bytes.
fn written_files(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn classify_series_into_compressed_sink_is_byte_identical() {
    let (s, paths) = on_disk_flavor("classify_into", Flavor::Compressed);
    let clf = ball_classifier(&s);
    let out = support::temp_dir("ooc_eq_classify_into_out");
    let ref_dir = out.join("reference");
    let mut sink = OutOfCoreSink::with_compression(&ref_dir, "certainty", true).unwrap();
    for (t, cert) in s.steps().iter().zip(clf.classify_series(&s).unwrap()) {
        sink.put(*t, cert).unwrap();
    }
    let reference = written_files(&ref_dir);
    assert_eq!(
        reference.len(),
        2 * FRAMES,
        "a payload and a sidecar per frame"
    );
    for threads in [1usize, 2, 4] {
        let pool = pipeline::pool_with_threads(threads);
        for frames in [1usize, 2, 4] {
            let budget = CacheBudget::Frames(frames);
            for prefetch in [0usize, 1] {
                let ooc = open_with(&paths, budget, prefetch);
                let dir = out.join(format!("t{threads}_f{frames}_p{prefetch}"));
                let mut sink = OutOfCoreSink::with_compression(&dir, "certainty", true).unwrap();
                pool.install(|| clf.classify_series_into(&ooc, &mut sink))
                    .unwrap();
                assert!(
                    written_files(&dir) == reference,
                    "streamed certainty files diverged at threads {threads}, \
                     {budget:?}, prefetch {prefetch}"
                );
                assert_budget_held(&ooc, budget);
            }
        }
    }
    std::fs::remove_dir_all(&out).ok();
}

/// One schedule event: a frame paged by the consumer, or a step written.
#[derive(Debug, PartialEq)]
enum Event {
    Page(usize),
    Put(u32),
}

/// Forwards to a paged series, logs each demand, and hands out its own copy
/// of every frame so it can count the frames the consumer still holds.
struct ScheduleProbe<'a> {
    inner: &'a OutOfCoreSeries,
    log: &'a Mutex<Vec<Event>>,
    handed_out: Mutex<Vec<Weak<ScalarVolume>>>,
    held_high_water: AtomicUsize,
}

impl FrameSource for ScheduleProbe<'_> {
    fn dims(&self) -> Dims3 {
        FrameSource::dims(self.inner)
    }

    fn len(&self) -> usize {
        FrameSource::len(self.inner)
    }

    fn steps(&self) -> &[u32] {
        FrameSource::steps(self.inner)
    }

    fn frame(&self, i: usize) -> Result<FrameHandle<'_>, SeriesError> {
        let copy = Arc::new((*FrameSource::frame(self.inner, i)?).clone());
        let mut handed_out = self.handed_out.lock().unwrap();
        handed_out.retain(|w| w.strong_count() > 0);
        handed_out.push(Arc::downgrade(&copy));
        self.held_high_water
            .fetch_max(handed_out.len(), Ordering::Relaxed);
        self.log.lock().unwrap().push(Event::Page(i));
        Ok(FrameHandle::Shared(copy))
    }

    fn residency_bound(&self) -> Option<usize> {
        FrameSource::residency_bound(self.inner)
    }

    fn prefetch_hint(&self, upcoming: &[usize]) {
        FrameSource::prefetch_hint(self.inner, upcoming)
    }
}

/// Logs each step the classifier writes.
struct LogSink<'a>(&'a Mutex<Vec<Event>>);

impl FrameSink for LogSink<'_> {
    fn put(&mut self, t: u32, _vol: ScalarVolume) -> Result<(), SeriesError> {
        self.0.lock().unwrap().push(Event::Put(t));
        Ok(())
    }

    fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }
}

/// The frame-at-a-time contract behind `analyze` latency: under a two-frame
/// budget without read-ahead, each frame misses exactly once and is written
/// before the next one is paged, and the classifier never holds more than
/// one input frame.
#[test]
fn classify_series_into_pages_one_frame_at_a_time() {
    let (s, paths) = on_disk("classify_schedule");
    let clf = ball_classifier(&s);
    let ooc = open_with(&paths, CacheBudget::Frames(2), 0);
    let log = Mutex::new(Vec::new());
    let probe = ScheduleProbe {
        inner: &ooc,
        log: &log,
        handed_out: Default::default(),
        held_high_water: Default::default(),
    };
    clf.classify_series_into(&probe, &mut LogSink(&log))
        .unwrap();
    let expect: Vec<Event> = s
        .steps()
        .iter()
        .enumerate()
        .flat_map(|(i, &t)| [Event::Page(i), Event::Put(t)])
        .collect();
    assert_eq!(*log.lock().unwrap(), expect);
    assert_eq!(
        probe.held_high_water.load(Ordering::Relaxed),
        1,
        "the classifier held more than one input frame at once"
    );
    let st = ooc.stats();
    assert_eq!((st.misses, st.hits), (FRAMES as u64, 0), "{st:?}");
}

/// Sum of a counter over every span of a trace.
fn counter_total(span: &obs::Span, name: &str) -> u64 {
    span.counter(name).unwrap_or(0)
        + span
            .children
            .iter()
            .map(|c| counter_total(c, name))
            .sum::<u64>()
}

/// The slab workers join the caller's capture: the stable trace is the same
/// at every thread count, and the run-width fill counter, which only the
/// workers emit, adds up to every voxel of every frame.
#[test]
fn classify_series_into_capture_counts_every_worker() {
    let (s, paths) = on_disk("classify_capture");
    let clf = ball_classifier(&s);
    let mut stable = Vec::new();
    for threads in [1usize, 2, 4] {
        let ooc = open_with(&paths, CacheBudget::Frames(2), 0);
        let mut sink = TimeSeriesSink::new();
        let (r, trace) = pipeline::pool_with_threads(threads)
            .install(|| obs::capture("classify", || clf.classify_series_into(&ooc, &mut sink)));
        r.unwrap();
        assert_eq!(
            counter_total(&trace.root, "extract.batch.fill"),
            (FRAMES * s.dims().len()) as u64,
            "batch fill lost worker counters at threads {threads}"
        );
        stable.push(trace.to_stable().to_json_pretty());
    }
    assert_eq!(stable[0], stable[1], "stable trace differs at 2 threads");
    assert_eq!(stable[0], stable[2], "stable trace differs at 4 threads");
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
    let ref_bytes = save_session_bytes(&reference).unwrap();
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
                save_session_bytes(&sess).unwrap(),
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
