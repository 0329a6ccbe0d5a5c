//! Integration tests for the observability layer (`ifet_core::obs`):
//! the counter-determinism contract (stable traces byte-identical across
//! thread counts), the versioned trace schema (strict fixture reader fails
//! on unannounced field changes), and the artifact TRACE section (skippable,
//! verbatim round-trip, corruption detected at load).
//!
//! Every test that executes instrumented pipeline code does so inside
//! `obs::capture`, which sees only its own call tree — so concurrently
//! running tests cannot leak counters into each other's span trees.

use ifet_core::obs;
use ifet_core::persist::{
    load_session_bytes, save_session_bytes, ArtifactReader, ArtifactWriter, PersistError,
};
use ifet_core::prelude::*;
use proptest::prelude::*;

/// A seed in the hottest voxel of frame 0 plus a band around its value, so
/// fixed-band growth always has a non-empty region to fill.
fn hot_seed_band(series: &TimeSeries) -> (Seed4, (f32, f32)) {
    let (_, frame) = series.iter().next().unwrap();
    let (mut best_i, mut best_v) = (0usize, f32::MIN);
    for (i, &v) in frame.as_slice().iter().enumerate() {
        if v > best_v {
            best_v = v;
            best_i = i;
        }
    }
    let (x, y, z) = series.dims().coords(best_i);
    let (glo, ghi) = series.global_range();
    ((0, x, y, z), (best_v - 0.25 * (ghi - glo), ghi))
}

/// One representative run of the whole pipeline — paint → classifier
/// training (nn counters), series classification (extract counters),
/// 4D growth (track counters), artifact save (persist counters) — captured
/// under `threads` rayon workers. Returns the trace.
fn traced_pipeline(threads: usize) -> obs::Trace {
    let data = ifet_sim::shock_bubble(Dims3::cube(16), 0x21);
    let (_, trace) = obs::capture("test.pipeline", || {
        pipeline::pool_with_threads(threads).install(|| {
            let mut session = VisSession::new(data.series.clone()).unwrap();
            let step0 = data.series.steps()[0];
            let mut oracle = PaintOracle::new(5);
            session
                .add_paints(oracle.paint_from_truth(step0, &data.truth[0], 60, 60))
                .unwrap();
            session
                .train_classifier(
                    FeatureSpec {
                        shell: ShellMode::None,
                        ..Default::default()
                    },
                    ClassifierParams {
                        epochs: 30,
                        ..Default::default()
                    },
                )
                .unwrap();
            let certainty = session
                .classifier()
                .unwrap()
                .classify_series(session.series())
                .unwrap();
            assert_eq!(certainty.len(), session.series().len());

            let (seed, (lo, hi)) = hot_seed_band(session.series());
            session
                .run_track(CriterionSpec::FixedBand { lo, hi }, &[seed], None)
                .unwrap();
            save_session_bytes(&session).unwrap().len()
        })
    });
    trace
}

#[test]
fn stable_counters_identical_across_thread_counts() {
    let t1 = traced_pipeline(1);
    let t2 = traced_pipeline(2);
    let t4 = traced_pipeline(4);

    // The full traces differ (timings, runtime counters); their stable
    // renderings must not — that is the determinism contract.
    let s1 = t1.to_stable().to_json();
    let s2 = t2.to_stable().to_json();
    let s4 = t4.to_stable().to_json();
    assert_eq!(s1, s2, "stable trace must not depend on thread count");
    assert_eq!(s1, s4, "stable trace must not depend on thread count");

    // The golden counters the stage instrumentation promises are present and
    // non-trivial: grown voxels, classified voxels, per-round frontier sizes,
    // per-epoch losses, and per-section artifact bytes.
    let root = &t4.root;
    let grow = root.find("track.grow_rounds").expect("grow span");
    assert!(grow.counter("grown_voxels").unwrap() > 0);
    assert!(grow.counter("rounds").unwrap() > 0);
    let mut rounds = Vec::new();
    root.find_all("track.round", &mut rounds);
    assert!(!rounds.is_empty(), "growth must record per-round spans");
    assert!(rounds
        .iter()
        .any(|r| r.counter("frontier").unwrap_or(0) > 0));
    let classify = root.find("extract.classify_series").expect("classify span");
    assert_eq!(classify.counter("frames").unwrap(), 5);
    assert!(classify.counter("voxels_classified").unwrap() >= 5 * 16 * 16 * 16);
    let mut epochs = Vec::new();
    root.find_all("nn.epoch", &mut epochs);
    assert_eq!(epochs.len(), 30, "one span per classifier training epoch");
    assert!(epochs.iter().all(|e| e.counter("samples").unwrap() == 120));
    let save = root.find("persist.save").expect("save span");
    assert!(save.find("persist.section.TRACKS").is_some());
    let to_bytes = root.find("persist.to_bytes").expect("to_bytes span");
    assert!(to_bytes.counter("bytes").unwrap() > 0);

    // Timings live only in the full rendering; stable zeroes them and drops
    // scheduling-dependent counters entirely.
    let stable = t4.to_stable();
    fn assert_stable(s: &obs::Span) {
        assert_eq!(s.dur_ns, 0);
        assert!(s.counters.iter().all(|c| !c.runtime));
        s.children.iter().for_each(assert_stable);
    }
    assert_stable(&stable.root);
}

// ---------------------------------------------------------------------------
// Trace schema stability
// ---------------------------------------------------------------------------

/// A hand-written v1 document. If the emitter or the strict reader drifts
/// (field added, removed, renamed, or reordered) without a schema bump, the
/// fixture stops parsing and this test names the drift.
const FIXTURE_V1: &str = r#"{"trace_schema":1,"mode":"stable","root":{"name":"r","dur_ns":0,"counters":[{"name":"c","value":3,"runtime":false}],"children":[{"name":"k","dur_ns":0,"counters":[],"children":[]}]}}"#;

#[test]
fn trace_schema_v1_fixture_parses() {
    assert_eq!(obs::TRACE_SCHEMA_VERSION, 1, "schema bump: update fixtures");
    let t = obs::Trace::from_json(FIXTURE_V1).unwrap();
    assert_eq!(t.schema, 1);
    assert_eq!(t.mode, obs::TraceMode::Stable);
    assert_eq!(t.root.counter("c"), Some(3));
    assert_eq!(t.root.children.len(), 1);
    // Emitting the parsed document reproduces the fixture byte-for-byte.
    assert_eq!(t.to_json(), FIXTURE_V1);
}

#[test]
fn trace_schema_drift_is_rejected() {
    // A newer schema version is refused outright.
    let newer = FIXTURE_V1.replace("\"trace_schema\":1", "\"trace_schema\":2");
    assert!(obs::Trace::from_json(&newer)
        .unwrap_err()
        .0
        .contains("newer"));

    // An unannounced extra field anywhere in the tree is refused.
    let extra_top = FIXTURE_V1.replace("\"mode\"", "\"extra\":0,\"mode\"");
    assert!(obs::Trace::from_json(&extra_top).is_err());
    let extra_span = FIXTURE_V1.replace("\"name\":\"k\"", "\"name\":\"k\",\"extra\":0");
    assert!(obs::Trace::from_json(&extra_span).is_err());
    let extra_counter = FIXTURE_V1.replace("\"runtime\":false", "\"runtime\":false,\"x\":1");
    assert!(obs::Trace::from_json(&extra_counter).is_err());

    // Field order is part of the schema (the emitter is deterministic);
    // silently reordering fields is also an unannounced change.
    let reordered = FIXTURE_V1.replace(
        "\"trace_schema\":1,\"mode\":\"stable\"",
        "\"mode\":\"stable\",\"trace_schema\":1",
    );
    assert!(obs::Trace::from_json(&reordered).is_err());

    // Wrong types and unknown modes are refused.
    let bad_mode = FIXTURE_V1.replace("\"stable\"", "\"fancy\"");
    assert!(obs::Trace::from_json(&bad_mode).is_err());
    let bad_dur = FIXTURE_V1.replace(
        "\"dur_ns\":0,\"counters\":[{",
        "\"dur_ns\":-1,\"counters\":[{",
    );
    assert!(obs::Trace::from_json(&bad_dur).is_err());
}

#[test]
fn emitted_traces_parse_under_the_strict_reader() {
    let (_, trace) = obs::capture("test.emit", || {
        let _s = obs::span("inner");
        obs::counter("det", 7);
        obs::counter_runtime("sched", 1);
    });
    for t in [trace.clone(), trace.to_stable()] {
        let back = obs::Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        // Pretty output parses to the same document.
        assert_eq!(obs::Trace::from_json(&t.to_json_pretty()).unwrap(), t);
    }
}

// ---------------------------------------------------------------------------
// Artifact TRACE section
// ---------------------------------------------------------------------------

fn small_session() -> VisSession {
    let data = ifet_sim::shock_bubble(Dims3::cube(12), 0x31);
    let mut sess = VisSession::new(data.series).unwrap();
    let (seed, (lo, hi)) = hot_seed_band(sess.series());
    sess.run_track(CriterionSpec::FixedBand { lo, hi }, &[seed], None)
        .unwrap();
    sess
}

#[test]
fn artifact_trace_section_roundtrips_verbatim() {
    let (mut sess, trace) = obs::capture("test.artifact", small_session);

    // Without a summary no TRACE section is written at all.
    let plain = save_session_bytes(&sess).unwrap();
    let r = ArtifactReader::parse(&plain).unwrap();
    assert!(!r.tags().any(|t| t == "TRACE"));

    let summary = trace.to_stable().to_json();
    sess.set_trace_summary(summary.clone()).unwrap();
    let bytes = save_session_bytes(&sess).unwrap();
    let r = ArtifactReader::parse(&bytes).unwrap();
    assert_eq!(r.section("TRACE"), Some(summary.as_bytes()));

    // load → the summary comes back verbatim; re-save is byte-identical.
    let loaded = load_session_bytes(sess.series().clone(), &bytes).unwrap();
    assert_eq!(loaded.trace_summary(), Some(summary.as_str()));
    assert_eq!(save_session_bytes(&loaded).unwrap(), bytes);

    // Clearing drops the section again.
    let mut cleared = loaded;
    cleared.clear_trace_summary();
    assert_eq!(save_session_bytes(&cleared).unwrap(), plain);

    // Invalid JSON is refused at attach time, so it can never be saved.
    assert!(sess.set_trace_summary("{not json".into()).is_err());
}

#[test]
fn corrupt_trace_section_fails_loudly_at_load() {
    let (mut sess, trace) = obs::capture("test.corrupt", small_session);
    sess.set_trace_summary(trace.to_stable().to_json()).unwrap();
    let bytes = save_session_bytes(&sess).unwrap();

    // Rebuild the artifact with the TRACE payload replaced by garbage (the
    // CRCs are recomputed by the writer, so only the trace itself is bad).
    let r = ArtifactReader::parse(&bytes).unwrap();
    for garbage in [&b"\xff\xfe"[..], &b"{\"trace_schema\":99}"[..]] {
        let mut w = ArtifactWriter::new();
        for tag in r.tags() {
            let payload = if tag == "TRACE" {
                garbage.to_vec()
            } else {
                r.section(tag).unwrap().to_vec()
            };
            w.add(tag, payload);
        }
        let err = load_session_bytes(sess.series().clone(), &w.to_bytes()).unwrap_err();
        match err {
            PersistError::Malformed { section, .. } => assert_eq!(section, "TRACE"),
            other => panic!("expected Malformed(TRACE), got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Multivariate classifier persistence
// ---------------------------------------------------------------------------

fn joint_scene(n: usize) -> (MultiSeries, Mask3) {
    let d = Dims3::cube(n);
    let third = n / 3;
    let var0 = ScalarVolume::from_fn(d, |x, _, _| if x < 2 * third { 1.0 } else { 0.0 });
    let var1 = ScalarVolume::from_fn(d, |x, _, _| if x >= third { 1.0 } else { 0.0 });
    let truth = Mask3::from_fn(d, |x, _, _| x >= third && x < 2 * third);
    let mut mv = MultiVolume::new(d);
    mv.add("a", var0);
    mv.add("b", var1);
    (MultiSeries::from_frames(vec![(0, mv)]), truth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `train_multi` models ride through the session artifact: save → load →
    /// save is byte-identical and the reloaded classifier predicts the same.
    #[test]
    fn multi_classifier_sessions_roundtrip_byte_identically(
        paint_seed in 1u64..1000,
        hidden in 4usize..10,
        epochs in 5usize..40,
    ) {
        let (ms, truth) = joint_scene(12);
        let mut oracle = PaintOracle::new(paint_seed);
        oracle.slice_stride = 2;
        let paints = oracle.paint_from_truth(0, &truth, 40, 40);
        let fx = FeatureExtractor::new(FeatureSpec {
            shell: ShellMode::None,
            ..Default::default()
        });
        let clf = DataSpaceClassifier::train_multi(
            fx,
            &ms,
            &[paints],
            ClassifierParams { hidden, epochs, ..Default::default() },
        )
        .unwrap();
        prop_assert_eq!(clf.multi_vars(), Some(2));

        // Host the model in a session over a scalar series of the same dims.
        let data = ifet_sim::shock_bubble(Dims3::cube(12), 0x41);
        let mut sess = VisSession::new(data.series).unwrap();
        sess.adopt_classifier(clf.clone());

        let bytes = save_session_bytes(&sess).unwrap();
        let loaded = load_session_bytes(sess.series().clone(), &bytes).unwrap();
        prop_assert_eq!(save_session_bytes(&loaded).unwrap(), bytes);

        let back = loaded.classifier().unwrap();
        prop_assert_eq!(back.multi_vars(), Some(2));
        let reloaded_out = back.classify_frame_multi(ms.frame(0), 0.0);
        let original_out = clf.classify_frame_multi(ms.frame(0), 0.0);
        prop_assert_eq!(reloaded_out.as_slice(), original_out.as_slice());
    }
}
