//! Fairness and backpressure, deterministically: a greedy tenant saturates
//! its in-flight bound while its frame reads are *held at a gate* (a
//! blocking fault hook the test controls), so there is no timing guesswork
//! — the engine's state is pinned exactly when the assertions run.
//!
//! Contract under a starved byte budget:
//! - the greedy tenant gets its bounded amount of in-flight work, then an
//!   immediate typed `Overloaded` for everything beyond it — rejected at
//!   admission, never queued;
//! - a light tenant on another artifact keeps completing the whole time,
//!   whether the greedy lane is wedged on `track` or on MLP work
//!   (`classify`);
//! - the counter algebra holds for both: `accepted + rejected == sent`.

use ifet_serve::{
    Axis, ErrorCode, Request, ResponseBody, ServeConfig, ServeEngine, Verb, WireCriterion,
};
use ifet_volume::{CacheBudget, ReadFaultHook};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

#[path = "../../../tests/support/mod.rs"]
mod support;
use support::{serve_fixture, ServeFixture, FRAME_BYTES, STEP_STRIDE};

const BOUND: usize = 2;
const EXTRA: u64 = 6;

struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    arrivals: AtomicU64,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            open: Mutex::new(false),
            cv: Condvar::new(),
            arrivals: AtomicU64::new(0),
        })
    }

    /// A fault hook that blocks every read of the hooked artifact until
    /// [`Gate::release`] — the test's handle on "work is in flight *now*".
    fn hook(self: &Arc<Self>) -> ReadFaultHook {
        let gate = Arc::clone(self);
        Arc::new(move |_frame, _attempt| {
            gate.arrivals.fetch_add(1, Ordering::SeqCst);
            let mut open = gate.open.lock().unwrap();
            while !*open {
                open = gate.cv.wait(open).unwrap();
            }
            None
        })
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

fn open_req(id: u64, tenant: u32, fx: &ServeFixture) -> Request {
    Request {
        request_id: id,
        tenant,
        verb: Verb::Open {
            artifact: fx.artifact.display().to_string(),
            data_dir: fx.data_dir.display().to_string(),
        },
    }
}

fn track_req(id: u64, tenant: u32) -> Request {
    Request {
        request_id: id,
        tenant,
        verb: Verb::Track {
            criterion: WireCriterion::FixedBand { lo: 0.9, hi: 3.0 },
            seeds: vec![(0, 3, 6, 6)],
        },
    }
}

fn classify_req(id: u64, tenant: u32) -> Request {
    Request {
        request_id: id,
        tenant,
        verb: Verb::Classify { step: 0, tau: 0.5 },
    }
}

/// The verb the greedy tenant wedges its lane on. Both read frame 0 first,
/// so every gated request of the lane waits on the same single read.
#[derive(Clone, Copy, Debug)]
enum Wedge {
    Track,
    Classify,
}

impl Wedge {
    fn req(self, id: u64, tenant: u32) -> Request {
        match self {
            Wedge::Track => track_req(id, tenant),
            Wedge::Classify => classify_req(id, tenant),
        }
    }

    fn answered(self, body: &ResponseBody) -> bool {
        match (self, body) {
            (
                Wedge::Track,
                ResponseBody::TrackOk {
                    voxels_per_frame, ..
                },
            ) => voxels_per_frame[0] > 0,
            (Wedge::Classify, ResponseBody::ClassifyOk { voxels, .. }) => *voxels > 0,
            _ => false,
        }
    }
}

/// Poll tenant counters until `pred` holds (bounded; the gate guarantees
/// the state can't regress once reached).
fn wait_until(engine: &ServeEngine, tenant: u32, pred: impl Fn(u64, u64) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let st = engine.tenant_stats(tenant);
        if pred(st.accepted, st.completed) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for tenant {tenant} counters: {st:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn greedy_tenant_is_bounded_while_light_tenant_completes() {
    greedy_lane_is_bounded_while_light_tenant_completes(Wedge::Track);
}

#[test]
fn greedy_classify_lane_is_bounded_while_light_tenant_completes() {
    greedy_lane_is_bounded_while_light_tenant_completes(Wedge::Classify);
}

/// How long the light tenant's whole session may take while the greedy
/// lane is wedged. Generous: unwedged, it takes milliseconds.
const LIGHT_DEADLINE: Duration = Duration::from_secs(10);

fn greedy_lane_is_bounded_while_light_tenant_completes(wedge: Wedge) {
    let tag = format!("{wedge:?}").to_lowercase();
    let fx_greedy = serve_fixture(&format!("fair_greedy_{tag}"), 0.0);
    let fx_light = serve_fixture(&format!("fair_light_{tag}"), 0.25);
    let gate = Gate::new();

    // Starved shared budget: two frames' worth of bytes for everyone. The
    // greedy tenant's gated read holds part of it in flight the whole time,
    // so the light tenant pages its single-frame verbs through what's left.
    let engine = ServeEngine::new(ServeConfig {
        budget: CacheBudget::Bytes(2 * FRAME_BYTES),
        max_inflight_per_tenant: BOUND,
        prefetch: 0,
        tenant_quota_bytes: None,
    });
    let greedy_key = fx_greedy.artifact.display().to_string();
    engine.set_read_fault_hook(&greedy_key, Some(gate.hook()));

    // Greedy opens (metadata only — no frame reads, so no gate).
    match engine.handle(open_req(1, 0, &fx_greedy)).body {
        ResponseBody::OpenOk { .. } => {}
        other => panic!("greedy open failed: {other:?}"),
    }

    std::thread::scope(|s| {
        // Fill the greedy tenant's bound with requests that stop at the
        // gate on their first frame read.
        let blocked: Vec<_> = (0..BOUND as u64)
            .map(|i| {
                let engine = engine.clone();
                s.spawn(move || engine.handle(wedge.req(10 + i, 0)))
            })
            .collect();
        // Both are in flight once accepted == 1 open + BOUND requests with
        // only the open completed; admission counts them before execution,
        // so from here every further greedy request sees a full lane.
        wait_until(&engine, 0, |accepted, completed| {
            accepted == 1 + BOUND as u64 && completed == 1
        });

        // The greedy burst beyond the bound: rejected immediately and
        // typed, while the lane is still blocked — never queued behind it.
        for i in 0..EXTRA {
            let rsp = engine.handle(wedge.req(100 + i, 0));
            match rsp.body {
                ResponseBody::Err { code, message } => {
                    assert_eq!(code, ErrorCode::Overloaded, "burst {i}: {message}");
                }
                other => panic!("burst {i} was not rejected: {other:?}"),
            }
        }
        let st = engine.tenant_stats(0);
        assert_eq!(st.rejected, EXTRA);
        assert_eq!(st.accepted, 1 + BOUND as u64);
        assert_eq!(st.accepted + st.rejected, st.sent);
        assert_eq!(st.completed, 1, "rejections must not wait on the lane");

        // The light tenant's whole session completes while the greedy lane
        // is wedged: opens, classifies, renders, closes — zero rejections.
        let light = [
            open_req(50, 1, &fx_light),
            Request {
                request_id: 51,
                tenant: 1,
                verb: Verb::Classify {
                    step: 3 * STEP_STRIDE,
                    tau: 0.5,
                },
            },
            Request {
                request_id: 52,
                tenant: 1,
                verb: Verb::RenderSlice {
                    step: STEP_STRIDE,
                    axis: Axis::Z,
                    k: 6,
                    adaptive: false,
                },
            },
            Request {
                request_id: 53,
                tenant: 1,
                verb: Verb::Close,
            },
        ];
        // Run on its own thread so a light request stuck behind the wedged
        // lane fails the test instead of hanging it.
        let (tx, rx) = mpsc::channel();
        {
            let engine = engine.clone();
            s.spawn(move || {
                let replies: Vec<_> = light.into_iter().map(|req| engine.handle(req)).collect();
                let _ = tx.send(replies);
            });
        }
        let replies = match rx.recv_timeout(LIGHT_DEADLINE) {
            Ok(replies) => replies,
            Err(_) => {
                // Unwedge the greedy lane so the scope can join, then fail.
                gate.release();
                panic!(
                    "light tenant blocked behind the greedy {wedge:?} lane for {LIGHT_DEADLINE:?}"
                );
            }
        };
        for rsp in replies {
            if let ResponseBody::Err { code, message } = rsp.body {
                panic!(
                    "light request {} failed: {code:?} {message}",
                    rsp.request_id
                )
            }
        }
        let lt = engine.tenant_stats(1);
        assert_eq!(lt.rejected, 0, "light tenant must never be rejected");
        assert_eq!(lt.accepted, 4);
        assert_eq!(lt.completed, 4);
        assert_eq!(lt.accepted + lt.rejected, lt.sent);

        // Open the gate: the blocked requests finish as real answers — the
        // bound delayed them, it never corrupted them.
        gate.release();
        for h in blocked {
            let body = h.join().unwrap().body;
            assert!(
                wedge.answered(&body),
                "gated {wedge:?} failed after release: {body:?}"
            );
        }
    });

    let st = engine.tenant_stats(0);
    assert_eq!(st.sent, 1 + BOUND as u64 + EXTRA);
    assert_eq!(st.accepted, 1 + BOUND as u64);
    assert_eq!(st.rejected, EXTRA);
    assert_eq!(
        st.completed, st.accepted,
        "every accepted request completed"
    );
    assert_eq!(st.accepted + st.rejected, st.sent);
    assert!(
        st.max_depth as usize > BOUND,
        "the burst must have probed past the bound"
    );
    assert!(
        gate.arrivals.load(Ordering::SeqCst) > 0,
        "gated reads must actually have hit the gate"
    );
}

#[test]
fn tenant_quota_evicts_own_frames_and_leaves_neighbours_resident() {
    // Residency fairness: under a roomy *global* budget, a tenant that
    // pages past its own `--tenant-quota-bytes` must reclaim its OWN
    // least-recent frames — the neighbour's working set stays resident and
    // untouched. Both bounds (global high-water AND per-tenant quota) must
    // hold simultaneously.
    let fx_a = serve_fixture("fair_quota_a", 0.0);
    let fx_b = serve_fixture("fair_quota_b", 0.25);
    let engine = ServeEngine::new(ServeConfig {
        budget: CacheBudget::Frames(8),
        max_inflight_per_tenant: 4,
        prefetch: 0,
        tenant_quota_bytes: Some(2 * FRAME_BYTES),
    });
    assert!(matches!(
        engine.handle(open_req(1, 0, &fx_a)).body,
        ResponseBody::OpenOk { .. }
    ));
    assert!(matches!(
        engine.handle(open_req(2, 1, &fx_b)).body,
        ResponseBody::OpenOk { .. }
    ));

    let classify = |id: u64, tenant: u32, frame: u32| Request {
        request_id: id,
        tenant,
        verb: Verb::Classify {
            step: frame * STEP_STRIDE,
            tau: 0.5,
        },
    };
    // The neighbour fills its quota first: two frames resident.
    for frame in 0..2 {
        match engine
            .handle(classify(10 + u64::from(frame), 1, frame))
            .body
        {
            ResponseBody::ClassifyOk { .. } => {}
            other => panic!("neighbour classify failed: {other:?}"),
        }
    }
    // The paging tenant walks four distinct frames through a two-frame
    // quota: frames 0 and 1 must be evicted — by the quota-local phase,
    // from its own set — even though the global budget (8 frames) still
    // has room for all six.
    for frame in 0..4 {
        match engine
            .handle(classify(20 + u64::from(frame), 0, frame))
            .body
        {
            ResponseBody::ClassifyOk { .. } => {}
            other => panic!("paging classify failed: {other:?}"),
        }
    }

    let key_a = fx_a.artifact.display().to_string();
    let key_b = fx_b.artifact.display().to_string();
    let shared_a = engine.resident(&key_a).expect("a stays resident");
    let shared_b = engine.resident(&key_b).expect("b stays resident");
    let ga = engine.budget().group_stats(shared_a.residency_group());
    let gb = engine.budget().group_stats(shared_b.residency_group());

    // Per-tenant bound: the paging tenant never exceeded its quota and
    // paid exactly the overflow in quota-local evictions.
    assert!(
        ga.high_water_bytes <= 2 * FRAME_BYTES,
        "tenant quota breached: high-water {} > {}",
        ga.high_water_bytes,
        2 * FRAME_BYTES
    );
    assert_eq!(ga.resident_bytes, 2 * FRAME_BYTES);
    assert_eq!(ga.quota_evictions, 2, "4 frames through a 2-frame quota");

    // The neighbour was untouched: still at quota, zero evictions — both
    // in its group account and on its own series.
    assert_eq!(gb.resident_bytes, 2 * FRAME_BYTES);
    assert_eq!(gb.quota_evictions, 0);
    assert_eq!(
        shared_b.series().stats().evictions,
        0,
        "quota pressure on tenant 0 must never evict tenant 1's frames"
    );

    // Global bound holds at the same time, and every eviction was
    // quota-local — the global budget never had to act.
    let st = engine.budget().stats();
    assert!(st.high_water_frames <= 8);
    assert_eq!(st.evictions, 2);
    assert_eq!(st.quota_evictions, 2);
    assert_eq!(st.idle_evictions, 0);

    // The counters surface over the wire too (`report-stats`).
    match engine
        .handle(Request {
            request_id: 90,
            tenant: 0,
            verb: Verb::ReportStats,
        })
        .body
    {
        ResponseBody::StatsOk(report) => {
            assert_eq!(report.evictions, 2);
            assert_eq!(report.quota_evictions, 2);
            assert_eq!(report.idle_evictions, 0);
        }
        other => panic!("report-stats failed: {other:?}"),
    }
}

#[test]
fn rejection_is_per_tenant_not_global() {
    // Two tenants over the *same* artifact: one wedged at its bound must
    // not consume the other's admission lane — the bound is per-tenant even
    // when the resident session is shared.
    let fx = serve_fixture("fair_shared", 0.0);
    let gate = Gate::new();
    let engine = ServeEngine::new(ServeConfig {
        budget: CacheBudget::Frames(4),
        max_inflight_per_tenant: 1,
        prefetch: 0,
        tenant_quota_bytes: None,
    });
    let key = fx.artifact.display().to_string();
    engine.set_read_fault_hook(&key, Some(gate.hook()));
    assert!(matches!(
        engine.handle(open_req(1, 0, &fx)).body,
        ResponseBody::OpenOk { .. }
    ));
    assert!(matches!(
        engine.handle(open_req(2, 1, &fx)).body,
        ResponseBody::OpenOk { .. }
    ));

    std::thread::scope(|s| {
        let blocked = {
            let engine = engine.clone();
            s.spawn(move || engine.handle(track_req(10, 0)))
        };
        wait_until(&engine, 0, |accepted, completed| {
            accepted == 2 && completed == 1
        });
        // Tenant 0 is full; its next request bounces.
        assert!(matches!(
            engine.handle(track_req(11, 0)).body,
            ResponseBody::Err {
                code: ErrorCode::Overloaded,
                ..
            }
        ));
        // Tenant 1 still has its own lane — its request is *accepted* and
        // merely waits at the gate like any real reader would.
        let other = {
            let engine = engine.clone();
            s.spawn(move || engine.handle(track_req(12, 1)))
        };
        wait_until(&engine, 1, |accepted, completed| {
            accepted == 2 && completed == 1
        });
        assert_eq!(engine.tenant_stats(1).rejected, 0);

        gate.release();
        assert!(matches!(
            blocked.join().unwrap().body,
            ResponseBody::TrackOk { .. }
        ));
        assert!(matches!(
            other.join().unwrap().body,
            ResponseBody::TrackOk { .. }
        ));
    });
}
