//! Chaos suite: the paging layer under hostile scheduling. A wrapper source
//! injects randomized per-read delays, and the out-of-core read path is fed
//! transient I/O failures through its fault hook. Under every combination
//! the contract of `tests/ooc_equivalence.rs` must still hold: delays,
//! retries, and prefetch races may change *when* bytes move, never *what*
//! any stage computes — outputs and stable traces stay byte-identical to
//! the clean in-core run.

use ifet_core::obs;
use ifet_core::prelude::*;
use ifet_track::FixedBandCriterion;
use ifet_volume::io::frame_paths;
use ifet_volume::{
    CacheBudget, CacheBudgetHandle, FrameHandle, FrameSource, OutOfCoreSeries, ReadFault,
    SeriesError,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

mod support;
use support::{chaos_hook, mix, FRAMES, FRAME_BYTES};

fn on_disk(tag: &str) -> (TimeSeries, Vec<PathBuf>) {
    support::on_disk_as(&format!("ooc_chaos_{tag}"), "chaos", false)
}

fn open_with(paths: &[PathBuf], budget: CacheBudget, prefetch: usize) -> OutOfCoreSeries {
    OutOfCoreSeries::open_with(paths.to_vec(), &CacheBudgetHandle::new(budget), prefetch).unwrap()
}

/// A [`FrameSource`] test double that forwards to a paged series but sleeps
/// a pseudo-random amount on a third of reads, perturbing the interleaving
/// of demand reads, prefetch completions, and evictions.
struct ChaosSource<'a> {
    inner: &'a OutOfCoreSeries,
    seed: u64,
    reads: AtomicU64,
}

impl<'a> ChaosSource<'a> {
    fn new(inner: &'a OutOfCoreSeries, seed: u64) -> Self {
        Self {
            inner,
            seed,
            reads: AtomicU64::new(0),
        }
    }
}

impl FrameSource for ChaosSource<'_> {
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
        let n = self.reads.fetch_add(1, Ordering::Relaxed);
        let r = mix(self.seed ^ (n << 20) ^ i as u64);
        if r % 3 == 0 {
            std::thread::sleep(Duration::from_micros(r % 400));
        }
        FrameSource::frame(self.inner, i)
    }

    fn residency_bound(&self) -> Option<usize> {
        FrameSource::residency_bound(self.inner)
    }

    fn prefetch_hint(&self, upcoming: &[usize]) {
        FrameSource::prefetch_hint(self.inner, upcoming)
    }
}

/// Track through a source under span capture; returns the masks and the
/// canonical stable-trace JSON.
fn tracked<S: FrameSource>(src: &S) -> (Vec<Mask3>, String) {
    let criterion = FixedBandCriterion::new(0.9, 3.0, FrameSource::len(src)).unwrap();
    let seeds = [(0usize, 3usize, 6usize, 6usize)];
    let (masks, trace) = obs::capture("chaos.track", || grow_4d(src, &criterion, &seeds));
    (masks.unwrap(), trace.to_stable().to_json_pretty())
}

#[test]
fn chaos_delays_never_change_outputs_or_stable_traces() {
    let (s, paths) = on_disk("delays");
    let (reference, ref_trace) = tracked(&s);
    assert!(reference[0].count() > 0, "seed must land in the ball");
    for seed in [1u64, 7, 23] {
        for prefetch in [0usize, 2, 4] {
            let ooc = open_with(&paths, CacheBudget::Frames(2), prefetch);
            let chaos = ChaosSource::new(&ooc, seed);
            let (masks, trace) = tracked(&chaos);
            assert_eq!(
                masks, reference,
                "outputs diverged under delay chaos (seed {seed}, prefetch {prefetch})"
            );
            assert_eq!(
                trace, ref_trace,
                "stable trace diverged under delay chaos (seed {seed}, prefetch {prefetch})"
            );
            assert!(ooc.stats().resident_high_water <= 2);
        }
    }
}

#[test]
fn transient_read_faults_are_retried_and_invisible() {
    let (s, paths) = on_disk("faults");
    let (reference, ref_trace) = tracked(&s);
    for seed in [3u64, 11] {
        for prefetch in [0usize, 2] {
            let ooc = open_with(&paths, CacheBudget::Frames(2), prefetch);
            // Two failures per frame: strictly fewer than the read-path's
            // bounded retries, so every read eventually lands no matter
            // whether demand or prefetch eats the faults.
            ooc.set_read_fault_hook(Some(chaos_hook(seed, 2)));
            let (masks, trace) = tracked(&ooc);
            assert_eq!(
                masks, reference,
                "outputs diverged under fault chaos (seed {seed}, prefetch {prefetch})"
            );
            assert_eq!(
                trace, ref_trace,
                "stable trace diverged under fault chaos (seed {seed}, prefetch {prefetch})"
            );
            let st = ooc.stats();
            assert!(
                st.read_retries >= 2 * FRAMES as u64,
                "every frame's injected faults must show up as retries, got {}",
                st.read_retries
            );
            assert!(st.resident_high_water <= 2);
        }
    }
}

#[test]
fn prefetch_under_chaos_respects_byte_budget_and_stats_algebra() {
    let (s, paths) = on_disk("budget");
    let criterion = FixedBandCriterion::new(0.9, 3.0, s.len()).unwrap();
    let seeds = [(0usize, 3usize, 6usize, 6usize)];
    let reference = grow_4d(&s, &criterion, &seeds).unwrap();
    let budget = 2 * FRAME_BYTES;
    for seed in [5u64, 17, 41] {
        for prefetch in [1usize, 4] {
            let ooc = open_with(&paths, CacheBudget::Bytes(budget), prefetch);
            ooc.set_read_fault_hook(Some(chaos_hook(seed, 1)));
            let masks = grow_4d(&ChaosSource::new(&ooc, seed), &criterion, &seeds).unwrap();
            assert_eq!(
                masks, reference,
                "outputs diverged (seed {seed}, prefetch {prefetch})"
            );
            let st = ooc.stats();
            assert!(
                st.resident_high_water_bytes <= budget,
                "byte high-water {} exceeds budget {budget} \
                 (seed {seed}, prefetch {prefetch})",
                st.resident_high_water_bytes
            );
            assert!(
                st.prefetch_wasted <= st.prefetched,
                "wasted {} > prefetched {}",
                st.prefetch_wasted,
                st.prefetched
            );
            assert!(
                st.hits + st.misses >= FRAMES as u64,
                "every frame is demanded at least once"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Storage-flavor chaos: the same hostile schedules against the compressed
// decode path. Faults injected under the retry loop hit the decoding read,
// so delays and transient errors exercise decode-after-read — and must
// remain invisible except as `read_retries`.
// ---------------------------------------------------------------------------

fn on_disk_compressed(tag: &str) -> (TimeSeries, Vec<PathBuf>) {
    support::on_disk_as(&format!("ooc_chaos_{tag}z"), "chaos", true)
}

#[test]
fn chaos_over_compressed_frames_never_changes_outputs_or_traces() {
    let (s, paths) = on_disk_compressed("decode");
    let (reference, ref_trace) = tracked(&s);
    for seed in [3u64, 11, 29] {
        for prefetch in [0usize, 2] {
            let ooc = open_with(&paths, CacheBudget::Frames(2), prefetch);
            ooc.set_read_fault_hook(Some(chaos_hook(seed, 2)));
            let (masks, trace) = tracked(&ChaosSource::new(&ooc, seed));
            assert_eq!(
                masks, reference,
                "compressed outputs diverged (seed {seed}, prefetch {prefetch})"
            );
            assert_eq!(
                trace, ref_trace,
                "compressed stable trace diverged (seed {seed}, prefetch {prefetch})"
            );
            let st = ooc.stats();
            assert!(
                st.read_retries >= 2 * FRAMES as u64,
                "decode-path faults must surface as retries, got {}",
                st.read_retries
            );
            assert!(st.resident_high_water <= 2);
        }
    }
}

/// A read that keeps failing past the retry budget reaches the session's
/// single-step queries as a typed `SessionError::Series`, never a panic.
#[test]
fn session_queries_report_failed_reads_as_typed_errors() {
    let fx = support::serve_fixture("chaos_session_err", 0.0);
    let ooc = open_with(
        &frame_paths(&fx.data_dir).unwrap(),
        CacheBudget::Frames(1),
        0,
    );
    let sess = VisSession::load(ooc, &fx.artifact).unwrap();
    // Make frame 0 the one resident frame, then fail every read after it.
    sess.series().frame(0).unwrap();
    sess.series()
        .set_read_fault_hook(Some(std::sync::Arc::new(|_, _| Some(ReadFault::Error))));
    let step = support::STEP_STRIDE * 5;
    let tf = sess.adaptive_tf_at_step(step);
    assert!(matches!(tf, Err(SessionError::Series { .. })), "{tf:?}");
    let mask = sess.extract_data_space(step, 0.5);
    assert!(matches!(mask, Err(SessionError::Series { .. })), "{mask:?}");
    let img = sess.render_classified(step, 8, 8);
    assert!(matches!(img, Err(SessionError::Series { .. })), "{img:?}");
    std::fs::remove_dir_all(&fx.data_dir).ok();
}

/// Saving needs the series' global range, which a fresh paged series must
/// read every frame for. When every read fails, `save` reports the failed
/// read as a typed error and writes nothing, never panicking.
#[test]
fn session_save_reports_failed_reads_as_typed_errors() {
    let (_, paths) = on_disk("save_err");
    let ooc = open_with(&paths, CacheBudget::Frames(1), 0);
    ooc.set_read_fault_hook(Some(std::sync::Arc::new(|_, _| Some(ReadFault::Error))));
    let sess = VisSession::new(ooc).unwrap();
    let out = support::temp_dir("ooc_chaos_save_err_out").join("session.ifet");
    let saved = sess.save(&out);
    assert!(
        matches!(saved, Err(ifet_core::persist::PersistError::Series { .. })),
        "{saved:?}"
    );
    assert!(!out.exists(), "a failed save must write no artifact");
}

// ---------------------------------------------------------------------------
// Serve-layer chaos: the same read delays and transient I/O faults, injected
// under a multi-tenant engine while client threads race. The service contract
// is the ooc contract one layer up: responses and stable traces stay
// byte-identical to a clean serial run, and the faults are visible only as
// `read_retries` on the shared series — never in any reply.
// ---------------------------------------------------------------------------

mod serve_chaos {
    use super::support::{serve_fixture, ServeFixture, STEP_STRIDE};
    use super::*;
    use ifet_serve::{
        encode_request, Axis, Request, ServeConfig, ServeEngine, Verb, WireCriterion,
    };
    use std::sync::Barrier;

    fn engine(budget: CacheBudget) -> ServeEngine {
        ServeEngine::new(ServeConfig {
            budget,
            max_inflight_per_tenant: 16,
            prefetch: 0,
            tenant_quota_bytes: None,
        })
    }

    /// A fixed per-tenant request log touching every frame-reading verb.
    /// No `close`: the session stays resident so the test can read the
    /// shared series' retry counters afterwards.
    fn log(tenant: u32, fx: &ServeFixture) -> Vec<Request> {
        let verbs = vec![
            Verb::Open {
                artifact: fx.artifact.display().to_string(),
                data_dir: fx.data_dir.display().to_string(),
            },
            Verb::Classify { step: 0, tau: 0.5 },
            Verb::RenderSlice {
                step: 2 * STEP_STRIDE,
                axis: Axis::Z,
                k: 6,
                adaptive: false,
            },
            Verb::Track {
                criterion: WireCriterion::FixedBand { lo: 0.9, hi: 3.0 },
                seeds: vec![(0, 3, 6, 6)],
            },
            Verb::Classify {
                step: 7 * STEP_STRIDE,
                tau: 0.65,
            },
            Verb::RenderSlice {
                step: 0,
                axis: Axis::X,
                k: 3,
                adaptive: true,
            },
        ];
        verbs
            .into_iter()
            .enumerate()
            .map(|(i, verb)| Request {
                request_id: (u64::from(tenant) << 32) | i as u64,
                tenant,
                verb,
            })
            .collect()
    }

    fn run_log(eng: &ServeEngine, log: &[Request]) -> Vec<Vec<u8>> {
        log.iter()
            .map(|r| eng.handle_wire(&encode_request(r)))
            .collect()
    }

    #[test]
    fn serve_responses_survive_fault_chaos_byte_identical() {
        let fx = serve_fixture("srv_chaos", 0.0);
        let key = fx.artifact.display().to_string();
        let logs: Vec<Vec<Request>> = (0..3).map(|t| log(t, &fx)).collect();

        // Clean serial reference, per client (responses carry tenant ids).
        let clean = engine(CacheBudget::Frames(2));
        let reference: Vec<Vec<Vec<u8>>> = logs.iter().map(|l| run_log(&clean, l)).collect();
        drop(clean);

        for seed in [3u64, 11] {
            for budget in [CacheBudget::Frames(2), CacheBudget::Bytes(2 * FRAME_BYTES)] {
                let eng = engine(budget);
                // Registered before any open, so the hook rides along from
                // the very first frame read of the shared series.
                eng.set_read_fault_hook(&key, Some(chaos_hook(seed, 2)));
                let barrier = Barrier::new(logs.len());
                let got: Vec<Vec<Vec<u8>>> = std::thread::scope(|s| {
                    let handles: Vec<_> = logs
                        .iter()
                        .map(|l| {
                            let eng = eng.clone();
                            let barrier = &barrier;
                            s.spawn(move || {
                                barrier.wait();
                                run_log(&eng, l)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                assert_eq!(
                    got, reference,
                    "served bytes diverged under fault chaos (seed {seed}, {budget:?})"
                );
                let shared = eng
                    .resident(&key)
                    .expect("session stays resident without close");
                let st = shared.series().stats();
                assert!(
                    st.read_retries >= 2 * FRAMES as u64,
                    "injected faults must surface as retries, got {}",
                    st.read_retries
                );
            }
        }
    }

    #[test]
    fn serve_stable_traces_survive_fault_chaos_byte_identical() {
        let fx = serve_fixture("srv_chaos_trace", 0.0);
        let key = fx.artifact.display().to_string();
        let open = log(0, &fx).remove(0);
        let track = Request {
            request_id: 99,
            tenant: 0,
            verb: Verb::Track {
                criterion: WireCriterion::FixedBand { lo: 0.9, hi: 3.0 },
                seeds: vec![(0, 3, 6, 6)],
            },
        };

        let capture_track = |eng: &ServeEngine| {
            let (rsp, trace) = obs::capture("serve.chaos.track", || eng.handle(track.clone()));
            (
                ifet_serve::encode_response(&rsp),
                trace.to_stable().to_json_pretty(),
            )
        };

        let clean = engine(CacheBudget::Frames(2));
        clean.handle(open.clone());
        let (ref_bytes, ref_trace) = capture_track(&clean);
        drop(clean);

        for seed in [5u64, 17] {
            let eng = engine(CacheBudget::Frames(2));
            eng.set_read_fault_hook(&key, Some(chaos_hook(seed, 2)));
            eng.handle(open.clone());
            let (bytes, trace) = capture_track(&eng);
            assert_eq!(bytes, ref_bytes, "served bytes diverged (seed {seed})");
            assert_eq!(
                trace, ref_trace,
                "serve-layer stable trace diverged under fault chaos (seed {seed})"
            );
        }
    }
}

#[test]
fn chaos_byte_budgets_hold_in_compressed_units() {
    // Byte-budgeted paging over compressed frames under fault + delay
    // chaos: outputs still byte-identical, and the high-water stays under
    // the budget measured in *compressed* bytes.
    let (s, paths) = on_disk_compressed("zbudget");
    let criterion = FixedBandCriterion::new(0.9, 3.0, s.len()).unwrap();
    let seeds = [(0usize, 3usize, 6usize, 6usize)];
    let reference = grow_4d(&s, &criterion, &seeds).unwrap();
    let budget = 2 * FRAME_BYTES;
    for seed in [7u64, 19] {
        for prefetch in [1usize, 4] {
            let ooc = open_with(&paths, CacheBudget::Bytes(budget), prefetch);
            ooc.set_read_fault_hook(Some(chaos_hook(seed, 1)));
            let masks = grow_4d(&ChaosSource::new(&ooc, seed), &criterion, &seeds).unwrap();
            assert_eq!(
                masks, reference,
                "compressed outputs diverged (seed {seed}, prefetch {prefetch})"
            );
            let st = ooc.stats();
            assert!(
                st.resident_high_water_bytes <= budget,
                "compressed-byte high-water {} exceeds budget {budget} \
                 (seed {seed}, prefetch {prefetch})",
                st.resident_high_water_bytes
            );
            assert!(st.prefetch_wasted <= st.prefetched);
        }
    }
}

// ---------------------------------------------------------------------------
// Particle-tracing chaos: the frame-pair walker drives three velocity
// components through hostile schedules at once — per-component fault hooks
// plus randomized read delays perturbing how the three caches interleave.
// Pathline artifact bytes and the stable trace must match the clean in-core
// run exactly; the injected faults surface only as `read_retries`.
// ---------------------------------------------------------------------------

mod trace_chaos {
    use super::*;
    use ifet_trace::{advect, pathlines_to_bytes, seed_grid, TraceParams};
    use support::{flow_on_disk, FLOW_FRAMES};

    fn traced<S: FrameSource>(u: &S, v: &S, w: &S) -> (Vec<u8>, String) {
        let seeds = seed_grid(FrameSource::dims(u), 3);
        let (set, trace) = obs::capture("chaos.trace", || {
            advect(u, v, w, &seeds, &TraceParams { rk4_dt: 0.5 })
        });
        (
            pathlines_to_bytes(&set.unwrap()),
            trace.to_stable().to_json_pretty(),
        )
    }

    #[test]
    fn chaos_never_changes_pathline_bytes_or_stable_traces() {
        let ([u, v, w], paths) = flow_on_disk("trace_chaos", false);
        let (reference, ref_trace) = traced(&u, &v, &w);
        for seed in [3u64, 11] {
            for prefetch in [0usize, 2] {
                let comps: Vec<OutOfCoreSeries> = paths
                    .iter()
                    .map(|p| open_with(p, CacheBudget::Frames(2), prefetch))
                    .collect();
                for (k, c) in comps.iter().enumerate() {
                    // Distinct fault streams per component: the three caches
                    // retry and recover on unrelated schedules.
                    c.set_read_fault_hook(Some(chaos_hook(seed ^ ((k as u64) << 16), 2)));
                }
                let chaos: Vec<ChaosSource> = comps
                    .iter()
                    .enumerate()
                    .map(|(k, c)| ChaosSource::new(c, seed ^ k as u64))
                    .collect();
                let (bytes, trace) = traced(&chaos[0], &chaos[1], &chaos[2]);
                assert_eq!(
                    bytes, reference,
                    "pathline bytes diverged under chaos (seed {seed}, prefetch {prefetch})"
                );
                assert_eq!(
                    trace, ref_trace,
                    "stable trace diverged under chaos (seed {seed}, prefetch {prefetch})"
                );
                for (c, name) in comps.iter().zip(["u", "v", "w"]) {
                    let st = c.stats();
                    assert!(
                        st.read_retries >= 2 * FLOW_FRAMES as u64,
                        "{name}: injected faults must surface as retries, got {}",
                        st.read_retries
                    );
                    assert!(st.resident_high_water <= 2, "{name} over budget");
                }
            }
        }
    }
}
