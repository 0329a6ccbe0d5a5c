//! The serve-layer equivalence gate: concurrent multi-client serving must
//! be **byte-identical** to serial execution.
//!
//! N client threads each drive a seeded pseudo-random schedule of verbs
//! against one shared [`ServeEngine`] through the byte-in/byte-out entry
//! point (`handle_wire`), racing over shared resident sessions and one
//! contended cache budget. A fresh engine then replays every client's
//! request log serially, client by client. Every response a client saw in
//! the concurrent run must equal — byte for byte — the response the serial
//! replay produces, for every seed and every budget shape.
//!
//! `report-stats` is deliberately absent from the schedules: it is the one
//! verb specified to report scheduling (the response analog of runtime
//! counters, which stable traces strip).

use ifet_core::prelude::*;
use ifet_serve::{encode_request, Axis, Request, ServeConfig, ServeEngine, Verb, WireCriterion};
use ifet_volume::CacheBudget;
use std::sync::Barrier;

mod support;
use support::{mix, serve_fixture, ServeFixture, FRAMES, FRAME_BYTES, STEP_STRIDE};

const CLIENTS: u32 = 4;
const REQUESTS_PER_CLIENT: usize = 8;

fn open_verb(fx: &ServeFixture) -> Verb {
    Verb::Open {
        artifact: fx.artifact.display().to_string(),
        data_dir: fx.data_dir.display().to_string(),
    }
}

/// The seeded per-client request log. Every choice — verb, step, slice
/// axis, thresholds, when to close and rebind — derives from `mix(seed,
/// client, i)`, so a schedule is a pure function of its seed and replays
/// exactly. Clients alternate between two artifacts so schedules exercise
/// both shared-session reuse (same artifact) and budget contention
/// (different artifacts).
fn schedule(seed: u64, client: u32, fixtures: &[ServeFixture]) -> Vec<Request> {
    let fx = &fixtures[client as usize % fixtures.len()];
    let step = |r: u64| (r as u32 / 7 % FRAMES as u32) * STEP_STRIDE;
    let mut reqs = Vec::new();
    let mut bound = false;
    for i in 0..REQUESTS_PER_CLIENT {
        let r = mix(seed ^ ((u64::from(client) + 1) << 32) ^ i as u64);
        let verb = if !bound {
            bound = true;
            open_verb(fx)
        } else {
            match r % 10 {
                0..=3 => Verb::Classify {
                    step: step(r >> 8),
                    tau: if r & 4 == 0 { 0.5 } else { 0.65 },
                },
                4..=6 => Verb::RenderSlice {
                    step: step(r >> 8),
                    axis: match (r >> 4) % 3 {
                        0 => Axis::X,
                        1 => Axis::Y,
                        _ => Axis::Z,
                    },
                    k: (r >> 16) as u32 % 12,
                    adaptive: false,
                },
                7 => Verb::RenderSlice {
                    step: step(r >> 8),
                    axis: Axis::Z,
                    k: 6,
                    adaptive: true,
                },
                8 => Verb::Track {
                    criterion: WireCriterion::FixedBand { lo: 0.9, hi: 3.0 },
                    seeds: vec![(0, 3, 6, 6)],
                },
                _ => {
                    bound = false;
                    Verb::Close
                }
            }
        };
        reqs.push(Request {
            request_id: (u64::from(client) << 32) | i as u64,
            tenant: client,
            verb,
        });
    }
    reqs
}

/// Drive one client's log through the engine sequentially, returning the
/// raw response bytes (requests within a client are ordered; only the
/// cross-client interleaving is up for grabs).
fn run_client(engine: &ServeEngine, log: &[Request]) -> Vec<Vec<u8>> {
    log.iter()
        .map(|req| engine.handle_wire(&encode_request(req)))
        .collect()
}

fn engine_with(budget: CacheBudget) -> ServeEngine {
    ServeEngine::new(ServeConfig {
        budget,
        max_inflight_per_tenant: 16,
        prefetch: 0,
        tenant_quota_bytes: None,
    })
}

/// Concurrent run: all clients start behind one barrier and race.
fn run_concurrent(budget: CacheBudget, logs: &[Vec<Request>]) -> (ServeEngine, Vec<Vec<Vec<u8>>>) {
    let engine = engine_with(budget);
    let barrier = Barrier::new(logs.len());
    let responses = std::thread::scope(|s| {
        let handles: Vec<_> = logs
            .iter()
            .map(|log| {
                let engine = engine.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    run_client(&engine, log)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (engine, responses)
}

/// Serial replay: a fresh engine, every client's log in client order.
fn run_serial(budget: CacheBudget, logs: &[Vec<Request>]) -> (ServeEngine, Vec<Vec<Vec<u8>>>) {
    let engine = engine_with(budget);
    let responses = logs.iter().map(|log| run_client(&engine, log)).collect();
    (engine, responses)
}

#[test]
fn concurrent_serving_is_byte_identical_to_serial_replay() {
    let fixtures = [
        serve_fixture("srv_eq_a", 0.0),
        serve_fixture("srv_eq_b", 0.25),
    ];
    // Three budget shapes: frame-counted, byte-counted with headroom, and
    // byte-counted *contended* — two artifacts' frames thrash through a
    // two-frame budget, maximizing eviction races between clients.
    let budgets = [
        CacheBudget::Frames(4),
        CacheBudget::Bytes(3 * FRAME_BYTES),
        CacheBudget::Bytes(2 * FRAME_BYTES),
    ];
    for seed in [1u64, 9] {
        let logs: Vec<Vec<Request>> = (0..CLIENTS).map(|c| schedule(seed, c, &fixtures)).collect();
        for budget in budgets {
            let (concurrent_engine, concurrent) = run_concurrent(budget, &logs);
            let (_, serial) = run_serial(budget, &logs);
            for (client, (got, want)) in concurrent.iter().zip(&serial).enumerate() {
                for (i, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        g, w,
                        "client {client} response {i} diverged from serial replay \
                         (seed {seed}, budget {budget:?})"
                    );
                }
            }
            // The shared budget's high-water mark must hold no matter how
            // the clients interleaved.
            let st = concurrent_engine.budget().stats();
            match budget {
                CacheBudget::Frames(n) => assert!(
                    st.high_water_frames <= n,
                    "frame high-water {} exceeds budget {n} (seed {seed})",
                    st.high_water_frames
                ),
                CacheBudget::Bytes(b) => assert!(
                    st.high_water_bytes <= b,
                    "byte high-water {} exceeds budget {b} (seed {seed})",
                    st.high_water_bytes
                ),
            }
        }
    }
}

/// A seeded log of *commuting* read-only verbs for the pipelined matrix:
/// no `open`/`close` (session binding is established synchronously before
/// pipelining starts), so any interleaving of the log is response-
/// equivalent and replies may legally complete out of order.
fn pipelined_schedule(seed: u64, client: u32) -> Vec<Request> {
    let step = |r: u64| (r as u32 / 7 % FRAMES as u32) * STEP_STRIDE;
    (0..REQUESTS_PER_CLIENT)
        .map(|i| {
            let r = mix(seed ^ ((u64::from(client) + 1) << 40) ^ i as u64);
            let verb = match r % 8 {
                0..=3 => Verb::Classify {
                    step: step(r >> 8),
                    tau: if r & 4 == 0 { 0.5 } else { 0.65 },
                },
                4..=5 => Verb::RenderSlice {
                    step: step(r >> 8),
                    axis: match (r >> 4) % 3 {
                        0 => Axis::X,
                        1 => Axis::Y,
                        _ => Axis::Z,
                    },
                    k: (r >> 16) as u32 % 12,
                    adaptive: false,
                },
                6 => Verb::RenderSlice {
                    step: step(r >> 8),
                    axis: Axis::Z,
                    k: 6,
                    adaptive: true,
                },
                _ => Verb::Track {
                    criterion: WireCriterion::FixedBand { lo: 0.9, hi: 3.0 },
                    seeds: vec![(0, 3, 6, 6)],
                },
            };
            Request {
                request_id: (u64::from(client) << 32) | (i as u64 + 2),
                tenant: client,
                verb,
            }
        })
        .collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates off `mix`), so clients
/// await their pipelined replies in an order unrelated to submission.
fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed ^ (i as u64) << 16) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The pipelined matrix: 4 clients × 8 outstanding requests over real
/// sockets, against a worker-pool server. Replies may come back in any
/// completion order, but every request id's reply must be byte-identical
/// (after re-encoding) to a serial in-process replay of the same logs —
/// reordering never crosses request ids — and every tenant's admission
/// algebra (`accepted + rejected == sent`) must hold under the pool.
#[test]
#[cfg(unix)]
fn pipelined_multiplexing_is_byte_identical_per_request_id() {
    use ifet_serve::{encode_response, serve_unix, Client, ServerOpts};

    let fixtures = [
        serve_fixture("srv_pipe_eq_a", 0.0),
        serve_fixture("srv_pipe_eq_b", 0.25),
    ];
    let budgets = [CacheBudget::Frames(4), CacheBudget::Bytes(2 * FRAME_BYTES)];
    for seed in [1u64, 9] {
        for budget in budgets {
            let opens: Vec<Request> = (0..CLIENTS)
                .map(|c| Request {
                    request_id: (u64::from(c) << 32) | 1,
                    tenant: c,
                    verb: open_verb(&fixtures[c as usize % fixtures.len()]),
                })
                .collect();
            let logs: Vec<Vec<Request>> =
                (0..CLIENTS).map(|c| pipelined_schedule(seed, c)).collect();

            // Serial in-process reference: fresh engine, each client's open
            // then its log, client by client.
            let serial_engine = engine_with(budget);
            let mut want: std::collections::HashMap<u64, Vec<u8>> = Default::default();
            for (open, log) in opens.iter().zip(&logs) {
                want.insert(
                    open.request_id,
                    serial_engine.handle_wire(&encode_request(open)),
                );
                for req in log {
                    want.insert(
                        req.request_id,
                        serial_engine.handle_wire(&encode_request(req)),
                    );
                }
            }

            // Multiplexed run: every client opens synchronously, negotiates
            // pipelined mode, fires its whole log without awaiting, then
            // collects replies in a seeded shuffled order.
            let dir = support::temp_dir(&format!("srv_pipe_eq_{seed}_{budget:?}"));
            let sock = dir.join("ifet.sock");
            let engine = engine_with(budget);
            let total = u64::from(CLIENTS) * (2 + REQUESTS_PER_CLIENT as u64);
            let server = {
                let sock = sock.clone();
                let engine = engine.clone();
                std::thread::spawn(move || {
                    serve_unix(
                        &sock,
                        &engine,
                        ServerOpts {
                            max_requests: Some(total),
                            workers: 4,
                        },
                    )
                })
            };
            let barrier = Barrier::new(CLIENTS as usize);
            let got: Vec<Vec<(u64, Vec<u8>)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let sock = &sock;
                        let open = &opens[c as usize];
                        let log = &logs[c as usize];
                        let barrier = &barrier;
                        s.spawn(move || {
                            let mut client = None;
                            for _ in 0..500 {
                                match Client::connect(sock) {
                                    Ok(cl) => {
                                        client = Some(cl);
                                        break;
                                    }
                                    Err(_) => {
                                        std::thread::sleep(std::time::Duration::from_millis(2))
                                    }
                                }
                            }
                            let mut client = client.expect("server never came up");
                            let mut out = Vec::new();
                            let rsp = client.call(open).unwrap();
                            out.push((open.request_id, encode_response(&rsp)));
                            let granted = client.hello(REQUESTS_PER_CLIENT as u32).unwrap();
                            assert_eq!(granted, REQUESTS_PER_CLIENT as u32);
                            // All clients pipeline their full burst together.
                            barrier.wait();
                            for req in log {
                                client.submit(req).unwrap();
                            }
                            for idx in shuffled(seed ^ u64::from(c), log.len()) {
                                let req = &log[idx];
                                let rsp = client.await_response(req.request_id).unwrap();
                                assert_eq!(rsp.request_id, req.request_id);
                                assert_eq!(rsp.tenant, req.tenant);
                                out.push((req.request_id, encode_response(&rsp)));
                            }
                            out
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let served = server.join().unwrap().unwrap();
            assert_eq!(served, total, "seed {seed}, budget {budget:?}");

            for per_client in &got {
                for (id, bytes) in per_client {
                    let reference = want
                        .get(id)
                        .unwrap_or_else(|| panic!("unknown request id {id:#x}"));
                    // Hello replies aside, every id's bytes must match the
                    // serial replay exactly; reordering across the wire
                    // never leaks into another id's reply.
                    assert_eq!(
                        bytes, reference,
                        "request {id:#x} diverged from serial replay \
                         (seed {seed}, budget {budget:?})"
                    );
                }
            }

            // Admission counter algebra holds per tenant under the pool —
            // and nothing was rejected, so the byte-comparison above was
            // not vacuous.
            for c in 0..CLIENTS {
                let st = engine.tenant_stats(c);
                assert_eq!(
                    st.accepted + st.rejected,
                    st.sent,
                    "tenant {c} counter algebra (seed {seed}, budget {budget:?})"
                );
                assert_eq!(st.rejected, 0, "tenant {c} saw spurious rejections");
            }
            // The contended budget's high-water must hold no matter how the
            // pool interleaved the four pipelines.
            let st = engine.budget().stats();
            match budget {
                CacheBudget::Frames(n) => assert!(st.high_water_frames <= n),
                CacheBudget::Bytes(b) => assert!(st.high_water_bytes <= b),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn served_responses_match_standalone_session() {
    // The engine must add nothing: a served classify/track/render answer
    // equals the same computation on a standalone in-core session built
    // from the same fixture (save → load round-trips are bit-exact, so the
    // in-core trainer is a valid oracle for the loaded artifact).
    let fx = serve_fixture("srv_oracle", 0.0);
    let engine = engine_with(CacheBudget::Frames(3));
    let open = Request {
        request_id: 1,
        tenant: 7,
        verb: open_verb(&fx),
    };
    match engine.handle(open).body {
        ifet_serve::ResponseBody::OpenOk {
            frames,
            dims,
            has_iatf,
            has_classifier,
            tracks,
            ..
        } => {
            assert_eq!(frames as usize, FRAMES);
            assert_eq!(dims, (12, 12, 12));
            assert!(has_iatf && has_classifier);
            assert_eq!(tracks, 1);
        }
        other => panic!("open failed: {other:?}"),
    }

    let step = 2 * STEP_STRIDE;
    let tau = 0.5;
    match engine
        .handle(Request {
            request_id: 2,
            tenant: 7,
            verb: Verb::Classify { step, tau },
        })
        .body
    {
        ifet_serve::ResponseBody::ClassifyOk { voxels, words } => {
            let want = fx.session.extract_data_space(step, tau).unwrap().unwrap();
            assert_eq!(voxels, want.count() as u64);
            assert_eq!(words, want.words().to_vec());
        }
        other => panic!("classify failed: {other:?}"),
    }

    match engine
        .handle(Request {
            request_id: 3,
            tenant: 7,
            verb: Verb::Track {
                criterion: WireCriterion::FixedBand { lo: 0.9, hi: 3.0 },
                seeds: vec![(0, 3, 6, 6)],
            },
        })
        .body
    {
        ifet_serve::ResponseBody::TrackOk {
            voxels_per_frame,
            events,
        } => {
            let want = fx
                .session
                .track_spec(
                    &CriterionSpec::FixedBand { lo: 0.9, hi: 3.0 },
                    &[(0, 3, 6, 6)],
                )
                .unwrap();
            let want_vpf: Vec<u32> = want
                .report
                .voxels_per_frame
                .iter()
                .map(|&v| v as u32)
                .collect();
            assert_eq!(voxels_per_frame, want_vpf);
            assert_eq!(events as usize, want.report.events.len());
        }
        other => panic!("track failed: {other:?}"),
    }

    match engine
        .handle(Request {
            request_id: 4,
            tenant: 7,
            verb: Verb::RenderSlice {
                step,
                axis: Axis::Z,
                k: 6,
                adaptive: false,
            },
        })
        .body
    {
        ifet_serve::ResponseBody::RenderSliceOk { width, height, rgb } => {
            let frame = fx.session.series().frame_at_step(step).unwrap();
            let img =
                ifet_render::render_slice(frame, ifet_render::SliceAxis::Z, 6, fx.session.colormap);
            assert_eq!(
                (width as usize, height as usize),
                (img.width(), img.height())
            );
            let want: Vec<u8> = img
                .as_slice()
                .iter()
                .map(|&c| (c.clamp(0.0, 1.0) * 255.0).round() as u8)
                .collect();
            assert_eq!(rgb, want);
        }
        other => panic!("render failed: {other:?}"),
    }
}

#[test]
fn typed_errors_are_deterministic_responses() {
    // Errors are responses too, and equally schedule-independent: the same
    // bad request always yields the same typed error bytes.
    let fx = serve_fixture("srv_err", 0.0);
    let engine = engine_with(CacheBudget::Frames(2));
    let no_session = Request {
        request_id: 10,
        tenant: 1,
        verb: Verb::Classify { step: 0, tau: 0.5 },
    };
    let a = engine.handle_wire(&encode_request(&no_session));
    let b = engine.handle_wire(&encode_request(&no_session));
    assert_eq!(a, b, "identical bad requests must get identical bytes");
    let rsp = ifet_serve::decode_response(&a).unwrap();
    match rsp.body {
        ifet_serve::ResponseBody::Err { code, .. } => {
            assert_eq!(code, ifet_serve::ErrorCode::NoSession)
        }
        other => panic!("expected NoSession error, got {other:?}"),
    }

    engine.handle(Request {
        request_id: 11,
        tenant: 1,
        verb: open_verb(&fx),
    });
    let bad_step = Request {
        request_id: 12,
        tenant: 1,
        verb: Verb::RenderSlice {
            step: 9999,
            axis: Axis::X,
            k: 0,
            adaptive: false,
        },
    };
    let rsp = ifet_serve::decode_response(&engine.handle_wire(&encode_request(&bad_step))).unwrap();
    match rsp.body {
        ifet_serve::ResponseBody::Err { code, .. } => {
            assert_eq!(code, ifet_serve::ErrorCode::BadRequest)
        }
        other => panic!("expected BadRequest error, got {other:?}"),
    }
    let oob = Request {
        request_id: 13,
        tenant: 1,
        verb: Verb::RenderSlice {
            step: 0,
            axis: Axis::X,
            k: 99,
            adaptive: false,
        },
    };
    let rsp = ifet_serve::decode_response(&engine.handle_wire(&encode_request(&oob))).unwrap();
    match rsp.body {
        ifet_serve::ResponseBody::Err { code, message } => {
            assert_eq!(code, ifet_serve::ErrorCode::BadRequest);
            assert!(message.contains("out of range"), "got: {message}");
        }
        other => panic!("expected BadRequest error, got {other:?}"),
    }
}
