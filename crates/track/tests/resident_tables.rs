//! Resident acceptance tables: the adaptive criterion resolved in one pass
//! over the series (`adaptive_tables`) equals the per-frame
//! `AdaptiveTfCriterion::precompute_frame` tables, and the grower adopts a
//! criterion's resident tables without paging a frame. Also the typed errors
//! on that path: a bad `tau` before any page-in, a bad transfer-function
//! domain named by its real frame, and tables whose dims differ from the
//! series, at `Grower::start` and `Grower::resume`.

use ifet_tf::tf1d::TF_ENTRIES;
use ifet_tf::TransferFunction1D;
use ifet_track::criterion::AcceptedValues;
use ifet_track::{
    adaptive_tables, grow_4d, grow_4d_serial, AdaptiveTfCriterion, CriterionError, GrowError,
    Grower, GrowthCriterion, MaskCriterion, ResolveError,
};
use ifet_volume::{Dims3, FrameHandle, FrameSource, Mask3, ScalarVolume, SeriesError, TimeSeries};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// An in-core series that counts the frames its consumers request.
struct Counting {
    inner: TimeSeries,
    requests: AtomicUsize,
}

impl Counting {
    fn new(inner: TimeSeries) -> Self {
        Self {
            inner,
            requests: AtomicUsize::new(0),
        }
    }

    /// Frames requested since the last call.
    fn take_requests(&self) -> usize {
        self.requests.swap(0, Ordering::Relaxed)
    }
}

impl FrameSource for Counting {
    fn dims(&self) -> Dims3 {
        self.inner.dims()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn steps(&self) -> &[u32] {
        self.inner.steps()
    }

    fn frame(&self, i: usize) -> Result<FrameHandle<'_>, SeriesError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        FrameSource::frame(&self.inner, i)
    }
}

/// Frames of values spread past `[-2, 22]`, seeded with NaN, ±inf, ±0 and
/// the exact entry edges of a `[0, 20]` table.
fn hostile_series(frames: usize) -> TimeSeries {
    let mut rng = SmallRng::seed_from_u64(5);
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 20.0];
    TimeSeries::from_frames(
        (0..frames as u32)
            .map(|t| {
                let vol = ScalarVolume::from_fn(Dims3::new(11, 7, 5), |_, _, _| {
                    match rng.gen_range(0u32..10) {
                        0 => specials[rng.gen_range(0..specials.len())],
                        1 => rng.gen_range(0..TF_ENTRIES) as f32 * (20.0 / TF_ENTRIES as f32),
                        _ => rng.gen_range(-2.0f32..22.0),
                    }
                });
                (10 * t, vol)
            })
            .collect(),
    )
}

/// Per-frame transfer functions over `[0, 20]`: even frames a single band
/// (the compare-pass kernel), odd frames a random table with many separate
/// accepted runs (the entry-lookup kernel), one with NaN accepted.
fn mixed_tfs(frames: usize) -> Vec<TransferFunction1D> {
    let mut rng = SmallRng::seed_from_u64(9);
    (0..frames)
        .map(|fi| {
            if fi % 2 == 0 {
                let lo = 2.0 + fi as f32;
                TransferFunction1D::band(0.0, 20.0, lo, lo + 4.0, 1.0)
            } else {
                let mut table: Vec<f32> = (0..TF_ENTRIES)
                    .map(|_| rng.gen_range(0.0f32..1.0))
                    .collect();
                table[0] = if fi == 1 { 0.9 } else { 0.1 };
                TransferFunction1D::from_table(0.0, 20.0, table)
            }
        })
        .collect()
}

/// The transfer function `tfs` holds for a series step `10 * fi`.
fn tf_at(tfs: &[TransferFunction1D], t: u32) -> TransferFunction1D {
    tfs[t as usize / 10].clone()
}

#[test]
fn fused_tables_equal_precompute_frame_on_every_frame() {
    const FRAMES: usize = 6;
    let series = hostile_series(FRAMES);
    let tfs = mixed_tfs(FRAMES);
    let tau = 0.5;
    // Both kernels run: some frames have at most 3 accepted bands, some more.
    let bands: Vec<usize> = tfs
        .iter()
        .map(|tf| AcceptedValues::of(tf, tau).bands.len())
        .collect();
    assert!(bands.iter().any(|&b| b <= 3), "{bands:?}");
    assert!(bands.iter().any(|&b| b > 3), "{bands:?}");
    assert!(AcceptedValues::of(&tfs[1], tau).nan);

    let fused = adaptive_tables(&series, tau, |t, _| tf_at(&tfs, t)).unwrap();
    let reference = AdaptiveTfCriterion::new(tfs.clone(), tau).unwrap();
    let tables = fused.tables().expect("resolved tables are resident");
    assert_eq!(tables.len(), FRAMES);
    assert_eq!(fused.num_frames(), FRAMES);
    for (fi, table) in tables.iter().enumerate() {
        let frame = series.frame(fi);
        assert_eq!(table, &reference.precompute_frame(fi, frame), "frame {fi}");
        assert!(frame.as_slice().iter().any(|v| v.is_nan()));
        assert!(frame.as_slice().iter().any(|v| v.is_infinite()));
    }

    // Growing under either criterion gives the FIFO oracle's masks.
    let d = series.dims();
    let seeds: Vec<_> = (0..FRAMES)
        .filter_map(|fi| tables[fi].set_indices().next().map(|i| d.coords(i)))
        .enumerate()
        .map(|(fi, (x, y, z))| (fi, x, y, z))
        .collect();
    let oracle = grow_4d_serial(&series, &reference, &seeds).unwrap();
    assert_eq!(grow_4d(&series, &fused, &seeds).unwrap(), oracle);
    assert_eq!(grow_4d(&series, &reference, &seeds).unwrap(), oracle);
}

#[test]
fn resolving_reads_each_frame_once_and_growing_reads_none() {
    const FRAMES: usize = 4;
    let series = Counting::new(hostile_series(FRAMES));
    let tfs = mixed_tfs(FRAMES);
    let criterion = adaptive_tables(&series, 0.5, |t, _| tf_at(&tfs, t)).unwrap();
    assert_eq!(series.take_requests(), FRAMES);

    let d = series.dims();
    let (x, y, z) = d.coords(criterion.tables().unwrap()[0].set_indices().next().unwrap());
    let masks = grow_4d(&series, &criterion, &[(0, x, y, z)]).unwrap();
    assert!(masks[0].get(x, y, z));
    assert_eq!(series.take_requests(), 0, "grow_4d paged a frame");

    // A criterion without resident tables still pages every frame once.
    let windowed = AdaptiveTfCriterion::new(tfs, 0.5).unwrap();
    assert_eq!(grow_4d(&series, &windowed, &[(0, x, y, z)]).unwrap(), masks);
    assert_eq!(series.take_requests(), FRAMES);
}

#[test]
fn bad_tau_is_rejected_before_any_frame_is_paged() {
    let series = Counting::new(hostile_series(3));
    let tfs = mixed_tfs(3);
    for tau in [1.5, -0.1, f32::NAN] {
        let err = adaptive_tables(&series, tau, |t, _| tf_at(&tfs, t)).unwrap_err();
        match err {
            ResolveError::Criterion(CriterionError::TauOutOfRange { tau: got }) => {
                assert_eq!(got.to_bits(), tau.to_bits())
            }
            other => panic!("tau {tau}: {other:?}"),
        }
        assert_eq!(series.take_requests(), 0, "tau {tau}");
    }
}

#[test]
fn invalid_domain_names_its_own_frame() {
    let series = hostile_series(4);
    let ok = TransferFunction1D::band(0.0, 20.0, 2.0, 6.0, 1.0);
    let opacity = serde_json::to_string(ok.table()).unwrap();
    // The TF constructors assert `hi > lo`; a deserialized TF does not.
    let inverted: TransferFunction1D = serde_json::from_str(&format!(
        r#"{{"lo": 8.0, "hi": 3.0, "opacity": {opacity}}}"#
    ))
    .unwrap();
    for bad in [2usize, 3] {
        let err = adaptive_tables(&series, 0.5, |t, _| {
            if t as usize / 10 >= bad {
                inverted.clone()
            } else {
                ok.clone()
            }
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                ResolveError::Criterion(CriterionError::InvalidDomain {
                    frame,
                    lo: 8.0,
                    hi: 3.0
                }) if frame == bad
            ),
            "first bad frame {bad}: {err:?}"
        );
        assert_eq!(
            err.to_string(),
            CriterionError::InvalidDomain {
                frame: bad,
                lo: 8.0,
                hi: 3.0
            }
            .to_string()
        );
    }
}

#[test]
fn wrong_dims_tables_are_typed_errors_at_start_and_resume() {
    let series = hostile_series(3);
    let d = series.dims();
    let full = |dims: Dims3| Mask3::from_fn(dims, |_, _, _| true);
    let good = MaskCriterion::new(vec![full(d); 3]).unwrap();
    let mut g = Grower::start(&series, &good, &[(0, 0, 0, 0)]).unwrap();
    g.run(Some(1));
    let ckpt = g.checkpoint();

    let wrong = Dims3::new(d.nx, d.ny, d.nz + 1);
    let bad = MaskCriterion::new(vec![full(d), full(wrong), full(d)]).unwrap();
    let want = GrowError::TableDimsMismatch {
        frame: 1,
        table: wrong,
        series: d,
    };
    assert_eq!(
        Grower::start(&series, &bad, &[(0, 0, 0, 0)]).err(),
        Some(want.clone())
    );
    assert_eq!(
        Grower::resume(&series, &bad, ckpt.clone()).err(),
        Some(want.clone())
    );
    assert_eq!(grow_4d(&series, &bad, &[]).unwrap_err(), want);
    assert_eq!(grow_4d_serial(&series, &bad, &[]).unwrap_err(), want);
    assert!(want.to_string().contains("frame 1"), "{want}");
    assert!(Grower::resume(&series, &good, ckpt).is_ok());
}
