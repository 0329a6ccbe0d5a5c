//! Integration tests for the versioned session artifact (`ifet_core::persist`):
//! round-trip fidelity for arbitrary session states, corruption injection
//! (truncation at section boundaries, single-byte flips, version bumps),
//! forward compatibility with unknown sections, and the checkpoint/resume
//! guarantee that an interrupted tracking run finishes with exactly the
//! result an uninterrupted run produces.

use ifet_core::persist::{crc32, ArtifactWriter, SESSION_FORMAT_VERSION};
use ifet_core::prelude::*;
use ifet_extract::PaintSet;
use proptest::prelude::*;
use std::sync::OnceLock;

// Container layout constants, restated here independently of the
// implementation so the tests aim corruption at exact byte ranges.
const FIXED_HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 28;
const TAG_LEN: usize = 8;

/// `(tag, payload offset, payload len)` for every table entry, parsed by
/// hand rather than through `ArtifactReader` (the code under test).
fn section_table(bytes: &[u8]) -> Vec<(String, usize, usize)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let e = FIXED_HEADER_LEN + i * TABLE_ENTRY_LEN;
            let tag = String::from_utf8(bytes[e..e + TAG_LEN].to_vec())
                .unwrap()
                .trim_end()
                .to_string();
            let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
            (tag, off, len)
        })
        .collect()
}

/// First byte past the fixed header + table + header checksum.
fn header_end(bytes: &[u8]) -> usize {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    FIXED_HEADER_LEN + count * TABLE_ENTRY_LEN + 4
}

/// A seed inside the hottest voxel of frame 0 plus a value band around it,
/// so fixed-band tracking always grows a non-empty region.
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

/// A session exercising every version-1 section: two key frames + trained
/// IATF, paints + trained classifier, one completed track, and one paused
/// track whose checkpoint rides along. Built once; every corruption test
/// reuses the same artifact bytes.
fn rich_artifact() -> &'static (TimeSeries, Vec<u8>) {
    static CACHE: OnceLock<(TimeSeries, Vec<u8>)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let data = ifet_sim::shock_bubble(Dims3::cube(12), 0x51);
        let mut sess = VisSession::new(data.series.clone()).unwrap();
        let steps = data.series.steps().to_vec();
        let (glo, ghi) = data.series.global_range();
        let (b0, b1) = ifet_sim::shock_bubble::ring_value_band(0.0);
        sess.add_key_frame(steps[0], TransferFunction1D::band(glo, ghi, b0, b1, 1.0));
        let (b0, b1) = ifet_sim::shock_bubble::ring_value_band(1.0);
        sess.add_key_frame(
            *steps.last().unwrap(),
            TransferFunction1D::band(glo, ghi, b0, b1, 1.0),
        );
        sess.train_iatf(IatfParams {
            epochs: 60,
            ..Default::default()
        });
        let mut oracle = PaintOracle::new(0x51);
        sess.add_paints(oracle.paint_from_truth(steps[0], data.truth_frame(0), 40, 40))
            .unwrap();
        sess.train_classifier(
            FeatureSpec::default(),
            ClassifierParams {
                epochs: 40,
                ..Default::default()
            },
        )
        .unwrap();
        let (seed, (lo, hi)) = hot_seed_band(&data.series);
        let status = sess
            .run_track(CriterionSpec::FixedBand { lo, hi }, &[seed], None)
            .unwrap();
        assert_eq!(status, TrackStatus::Completed);
        let status = sess
            .run_track(CriterionSpec::FixedBand { lo, hi }, &[seed], Some(0))
            .unwrap();
        assert!(matches!(status, TrackStatus::Paused { .. }));
        (data.series.clone(), save_session_bytes(&sess).unwrap())
    })
}

/// Re-emit the rich artifact through `ArtifactWriter`, keeping only the
/// sections `keep` admits and splicing in any `(tag, payload)` extras after
/// the IATF section.
fn rebuild(bytes: &[u8], keep: impl Fn(&str) -> bool, extras: &[(&str, Vec<u8>)]) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    for (tag, off, len) in section_table(bytes) {
        if keep(&tag) {
            w.add(&tag, bytes[off..off + len].to_vec());
        }
        if tag == "IATF" {
            for (etag, payload) in extras {
                w.add(etag, payload.clone());
            }
        }
    }
    w.to_bytes()
}

// ---- Round trips ----

#[test]
fn rich_artifact_has_every_version1_section() {
    let (_, bytes) = rich_artifact();
    let tags: Vec<String> = section_table(bytes)
        .into_iter()
        .map(|(t, _, _)| t)
        .collect();
    assert_eq!(
        tags,
        ["META", "KEYFRAME", "IATF", "PAINTS", "CLASSIFY", "TRACKS", "CHECKPT"]
    );
}

#[test]
fn save_load_save_is_byte_identical() {
    let (series, bytes) = rich_artifact();
    let loaded = load_session_bytes(series.clone(), bytes).unwrap();
    assert_eq!(loaded.key_frames().len(), 2);
    assert!(loaded.iatf().is_some());
    assert_eq!(loaded.paints().len(), 1);
    assert!(loaded.classifier().is_some());
    assert_eq!(loaded.tracks().len(), 1);
    assert!(loaded.pending_track().is_some());
    assert_eq!(&save_session_bytes(&loaded).unwrap(), bytes);
}

#[test]
fn reloaded_models_predict_identically() {
    let (series, bytes) = rich_artifact();
    let loaded = load_session_bytes(series.clone(), bytes).unwrap();
    let fresh = load_session_bytes(series.clone(), bytes).unwrap();
    let t = series.steps()[1];
    assert_eq!(loaded.adaptive_tf_at_step(t), fresh.adaptive_tf_at_step(t));
    assert!(loaded.adaptive_tf_at_step(t).unwrap().is_some());
    assert_eq!(
        loaded.extract_data_space(t, 0.5),
        fresh.extract_data_space(t, 0.5)
    );
}

// ---- Corruption injection ----

#[test]
fn truncation_inside_the_header_is_typed() {
    let (series, bytes) = rich_artifact();
    for cut in 0..FIXED_HEADER_LEN {
        match load_session_bytes(series.clone(), &bytes[..cut]) {
            Err(PersistError::TruncatedHeader { got, .. }) => assert_eq!(got, cut),
            other => panic!("cut at {cut}: expected TruncatedHeader, got {other:?}"),
        }
    }
    // Anywhere inside the table / header checksum.
    for cut in [FIXED_HEADER_LEN, header_end(bytes) - 1] {
        assert!(matches!(
            load_session_bytes(series.clone(), &bytes[..cut]),
            Err(PersistError::TruncatedHeader { .. })
        ));
    }
}

#[test]
fn truncation_at_every_section_boundary_names_the_section() {
    let (series, bytes) = rich_artifact();
    for (tag, off, len) in section_table(bytes) {
        // Payload entirely absent, and payload one byte short: both must be
        // reported against this section, not a later one and not a panic.
        for cut in [off, off + len - 1] {
            match load_session_bytes(series.clone(), &bytes[..cut]) {
                Err(PersistError::TruncatedSection { section, .. }) => {
                    assert_eq!(section, tag, "cut at {cut}")
                }
                other => panic!("cut at {cut}: expected TruncatedSection({tag}), got {other:?}"),
            }
        }
    }
}

#[test]
fn byte_flip_in_every_section_payload_is_a_checksum_mismatch() {
    let (series, bytes) = rich_artifact();
    for (tag, off, len) in section_table(bytes) {
        for pos in [off, off + len / 2, off + len - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            match load_session_bytes(series.clone(), &bad) {
                Err(PersistError::ChecksumMismatch { section }) => {
                    assert_eq!(section, tag, "flip at {pos}")
                }
                other => panic!("flip at {pos}: expected ChecksumMismatch({tag}), got {other:?}"),
            }
        }
    }
}

#[test]
fn header_byte_flips_are_typed() {
    let (series, bytes) = rich_artifact();
    let load = |b: &[u8]| load_session_bytes(series.clone(), b);

    let mut bad = bytes.clone();
    bad[0] ^= 0x01; // magic
    assert_eq!(load(&bad).unwrap_err(), PersistError::BadMagic);

    let mut bad = bytes.clone();
    bad[9] ^= 0x01; // version field
    assert!(matches!(
        load(&bad),
        Err(PersistError::UnsupportedVersion { .. })
    ));

    let mut bad = bytes.clone();
    bad[FIXED_HEADER_LEN] ^= 0x01; // first tag byte: must not silently skip
    assert_eq!(
        load(&bad).unwrap_err(),
        PersistError::HeaderChecksumMismatch
    );

    let mut bad = bytes.clone();
    bad[header_end(bytes) - 1] ^= 0x01; // stored header checksum itself
    assert_eq!(
        load(&bad).unwrap_err(),
        PersistError::HeaderChecksumMismatch
    );

    // Section count: whatever the flip turns it into, the reader must reject
    // the file as a header-level problem rather than misparse the table.
    let mut bad = bytes.clone();
    bad[12] ^= 0x01;
    assert!(matches!(
        load(&bad),
        Err(PersistError::TruncatedHeader { .. } | PersistError::HeaderChecksumMismatch)
    ));
}

#[test]
fn version_bump_is_rejected_even_with_valid_checksums() {
    // A well-formed file from a hypothetical format 2: every checksum valid,
    // only the version differs. The reader must refuse on version alone.
    let (series, bytes) = rich_artifact();
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&2u32.to_le_bytes());
    let table_end = header_end(&future) - 4;
    let fixed_crc = crc32(&future[..table_end]);
    future[table_end..table_end + 4].copy_from_slice(&fixed_crc.to_le_bytes());
    assert_eq!(
        load_session_bytes(series.clone(), &future).unwrap_err(),
        PersistError::UnsupportedVersion {
            found: 2,
            supported: SESSION_FORMAT_VERSION
        }
    );
}

#[test]
fn sampled_byte_flip_sweep_never_panics() {
    // The per-section tests above aim at known offsets; this sweep walks the
    // whole artifact at a prime stride as a belt-and-braces check that *any*
    // single-byte flip yields Err, never a panic or a silent success.
    let (series, bytes) = rich_artifact();
    for pos in (0..bytes.len()).step_by(97) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x01;
        assert!(
            load_session_bytes(series.clone(), &bad).is_err(),
            "flip at byte {pos} was not detected"
        );
    }
}

// ---- Forward / cross-file compatibility ----

#[test]
fn unknown_sections_from_the_future_are_skipped() {
    let (series, bytes) = rich_artifact();
    let future = rebuild(
        bytes,
        |_| true,
        &[("FUTUREXT", vec![0xDE, 0xAD, 0xBE, 0xEF])],
    );
    let loaded = load_session_bytes(series.clone(), &future).unwrap();
    // The unknown section is ignored; re-saving reproduces the version-1
    // artifact exactly (the extra section is dropped, nothing else changes).
    assert_eq!(&save_session_bytes(&loaded).unwrap(), bytes);
}

#[test]
fn each_missing_required_section_is_typed() {
    let (series, bytes) = rich_artifact();
    for required in ["META", "KEYFRAME", "IATF", "PAINTS", "CLASSIFY", "TRACKS"] {
        let gutted = rebuild(bytes, |t| t != required, &[]);
        match load_session_bytes(series.clone(), &gutted) {
            Err(PersistError::MissingSection { section }) => assert_eq!(section, required),
            other => panic!("without {required}: expected MissingSection, got {other:?}"),
        }
    }
    // CHECKPT is optional: dropping it just loses the pending run.
    let no_ckpt = rebuild(bytes, |t| t != "CHECKPT", &[]);
    let loaded = load_session_bytes(series.clone(), &no_ckpt).unwrap();
    assert!(loaded.pending_track().is_none());
    assert_eq!(loaded.tracks().len(), 1);
}

#[test]
fn an_unknown_learning_engine_is_typed() {
    // Only the neural network is a classifier engine; a CLASSIFY section
    // naming any other (such as an SVM) loads as a typed error.
    let (series, bytes) = rich_artifact();
    let (_, off, len) = section_table(bytes)
        .into_iter()
        .find(|(t, _, _)| t == "CLASSIFY")
        .unwrap();
    let json = std::str::from_utf8(&bytes[off..off + len]).unwrap();
    assert!(json.contains("{\"NeuralNet\":["), "{json}");
    let svm = json.replacen("{\"NeuralNet\":[", "{\"SupportVector\":[", 1);
    let swapped = rebuild(
        bytes,
        |t| t != "CLASSIFY",
        &[("CLASSIFY", svm.into_bytes())],
    );
    match load_session_bytes(series.clone(), &swapped) {
        Err(PersistError::Malformed { section, reason }) => {
            assert_eq!(section, "CLASSIFY");
            assert!(reason.contains("SupportVector"), "{reason}");
        }
        other => panic!("expected a malformed CLASSIFY section, got {other:?}"),
    }
}

#[test]
fn attaching_to_the_wrong_series_is_typed() {
    let (series, bytes) = rich_artifact();

    let other_dims = ifet_sim::shock_bubble(Dims3::cube(10), 0x51);
    assert!(matches!(
        load_session_bytes(other_dims.series.clone(), bytes),
        Err(PersistError::SeriesMismatch { .. })
    ));

    // Same dims, shifted step labels.
    let relabeled = TimeSeries::from_frames(
        series
            .iter()
            .map(|(t, frame)| (t + 1, frame.clone()))
            .collect(),
    );
    assert!(matches!(
        load_session_bytes(relabeled, bytes),
        Err(PersistError::SeriesMismatch { .. })
    ));
}

// ---- Checkpoint / resume ----

#[test]
fn resume_after_reload_matches_an_uninterrupted_run() {
    let data = ifet_sim::shock_bubble(Dims3::cube(12), 0x52);
    let (seed, (lo, hi)) = hot_seed_band(&data.series);
    let spec = CriterionSpec::FixedBand { lo, hi };

    let mut full = VisSession::new(data.series.clone()).unwrap();
    assert_eq!(
        full.run_track(spec.clone(), &[seed], None).unwrap(),
        TrackStatus::Completed
    );

    // Interrupt immediately, persist the checkpoint, reload in a "new
    // process", and finish from there.
    let mut interrupted = VisSession::new(data.series.clone()).unwrap();
    assert_eq!(
        interrupted.run_track(spec, &[seed], Some(0)).unwrap(),
        TrackStatus::Paused { rounds: 0 }
    );
    let bytes = save_session_bytes(&interrupted).unwrap();
    let mut reloaded = load_session_bytes(data.series.clone(), &bytes).unwrap();
    let resumed = reloaded.resume_track().unwrap().clone();

    assert_eq!(resumed, full.tracks()[0].result);
    assert!(resumed.report.voxels_per_frame.iter().sum::<usize>() > 0);
    // And the two finished sessions serialize byte-identically.
    assert_eq!(
        save_session_bytes(&reloaded).unwrap(),
        save_session_bytes(&full).unwrap()
    );
}

#[test]
fn resume_without_a_checkpoint_is_typed() {
    let (series, bytes) = rich_artifact();
    let no_ckpt = rebuild(bytes, |t| t != "CHECKPT", &[]);
    let mut loaded = load_session_bytes(series.clone(), &no_ckpt).unwrap();
    assert_eq!(
        loaded.resume_track().unwrap_err(),
        PersistError::NoCheckpoint
    );
}

// ---- Property: arbitrary partial session states round-trip ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn arbitrary_session_states_roundtrip(
        seed in 1u64..500,
        n_keys in 0usize..3,
        train in any::<bool>(),
        with_paint in any::<bool>(),
        track_mode in 0u8..3,
    ) {
        let data = ifet_sim::shock_bubble(Dims3::cube(8), seed);
        let series = data.series.clone();
        let steps = series.steps().to_vec();
        let (glo, ghi) = series.global_range();

        let mut sess = VisSession::new(series.clone()).unwrap();
        for (k, &step) in steps.iter().take(n_keys).enumerate() {
            let frac = k as f32 / 2.0;
            let lo = glo + frac * 0.3 * (ghi - glo);
            sess.add_key_frame(step, TransferFunction1D::band(glo, ghi, lo, ghi, 0.9));
        }
        if train && n_keys > 0 {
            sess.train_iatf(IatfParams { hidden: 4, bins: 32, epochs: 8, ..Default::default() });
        }
        if with_paint {
            let mut p = PaintSet::new(steps[0]);
            p.paint((1, 1, 1), true);
            p.paint((0, 0, 0), false);
            sess.add_paints(p).unwrap();
        }
        let (track_seed, (lo, hi)) = hot_seed_band(&series);
        match track_mode {
            1 => {
                let s = sess.run_track(CriterionSpec::FixedBand { lo, hi }, &[track_seed], None).unwrap();
                prop_assert_eq!(s, TrackStatus::Completed);
            }
            2 => {
                let s = sess.run_track(CriterionSpec::FixedBand { lo, hi }, &[track_seed], Some(0)).unwrap();
                prop_assert_eq!(s, TrackStatus::Paused { rounds: 0 });
            }
            _ => {}
        }

        let bytes = save_session_bytes(&sess).unwrap();
        let loaded = load_session_bytes(series.clone(), &bytes).unwrap();
        prop_assert_eq!(save_session_bytes(&loaded).unwrap(), bytes);
        prop_assert_eq!(loaded.key_frames().len(), n_keys);
        prop_assert_eq!(loaded.paints(), sess.paints());
        prop_assert_eq!(loaded.tracks(), sess.tracks());
        prop_assert_eq!(loaded.pending_track(), sess.pending_track());
        prop_assert_eq!(loaded.iatf().is_some(), sess.iatf().is_some());
        if sess.iatf().is_some() {
            prop_assert_eq!(
                loaded.adaptive_tf_at_step(steps[0]),
                sess.adaptive_tf_at_step(steps[0])
            );
        }
    }
}
