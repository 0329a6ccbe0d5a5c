//! `serve` and `client`: the multi-tenant session service on a Unix socket,
//! and its command-line client.

use crate::data::ooc_budget_opt;
use crate::{parse_band, parse_voxel, Args};
use ifet_serve::{
    serve_unix, Axis, Client, Request, ResponseBody, ServeConfig, ServeEngine, ServerOpts, Verb,
    WireCriterion,
};
use ifet_volume::CacheBudget;
use std::path::Path;

/// `serve` subcommand: run the multi-tenant session service on a Unix
/// socket. Every tenant's frame data pages through one shared cache budget
/// (`--ooc-cache N` / `--ooc-cache-bytes B`, default 8 frames); per-tenant
/// admission is bounded by `--max-inflight` (excess requests get a typed
/// `Overloaded` rejection, never a queue). `--max-requests N` stops the
/// server after N answered requests — a deterministic exit for scripts and
/// tests.
pub(crate) fn cmd_serve(args: &Args) -> Result<String, String> {
    let socket = args.require("socket")?;
    let (budget, prefetch) = match ooc_budget_opt(args)? {
        Some(ooc) => ooc,
        None => (CacheBudget::Frames(8), 0),
    };
    let max_inflight: usize = args.opt_parse("max-inflight", 4usize)?;
    if max_inflight == 0 {
        return Err("--max-inflight must be at least 1".into());
    }
    let max_requests = args.opt_parsed("max-requests")?;
    let workers: usize = args.opt_parse("workers", 0usize)?;
    let tenant_quota_bytes = args.opt_parsed("tenant-quota-bytes")?;
    if tenant_quota_bytes == Some(0) {
        return Err("--tenant-quota-bytes must be at least 1".into());
    }
    let engine = ServeEngine::new(ServeConfig {
        budget,
        max_inflight_per_tenant: max_inflight,
        prefetch,
        tenant_quota_bytes,
    });
    let served = serve_unix(
        Path::new(socket),
        &engine,
        ServerOpts {
            max_requests,
            workers,
        },
    )
    .map_err(|e| format!("serve failed: {e}"))?;
    let b = engine.budget().stats();
    Ok(format!(
        "served {served} requests on {socket}\n\
         paging: resident high-water {} frames / {} bytes, \
         evictions {} ({} quota-local, {} idle-preferred)",
        b.high_water_frames, b.high_water_bytes, b.evictions, b.quota_evictions, b.idle_evictions,
    ))
}

/// `client` subcommand: send one verb to a running `ifet serve` and print
/// the reply. The tenant id travels with the request, so a tenant's session
/// binding persists across invocations.
pub(crate) fn cmd_client(args: &Args) -> Result<String, String> {
    let socket = args.require("socket")?;
    let tenant: u32 = args.opt_parse("tenant", 0u32)?;
    let verb_name = args
        .positional
        .first()
        .ok_or("client needs a verb: open, classify, track, render-slice, report-stats, close")?;
    let verb = match verb_name.as_str() {
        "bench" => return cmd_client_bench(args, socket, tenant),
        "open" => Verb::Open {
            artifact: args.require("artifact")?.to_string(),
            data_dir: args.require("data")?.to_string(),
        },
        "classify" => Verb::Classify {
            step: args.require("step")?.parse().map_err(|_| "bad --step")?,
            tau: args.opt_parse("tau", 0.5f32)?,
        },
        "track" => {
            let (sx, sy, sz) = parse_voxel(args.require("seed")?)?;
            let criterion = if let Some(band) = args.opt("band") {
                let (lo, hi) = parse_band(band)?;
                WireCriterion::FixedBand { lo, hi }
            } else if let Some(tau) = args.opt("dataspace-tau") {
                WireCriterion::DataSpace {
                    tau: tau.parse().map_err(|_| "bad --dataspace-tau")?,
                }
            } else {
                WireCriterion::AdaptiveTf {
                    tau: args.opt_parse("tau", 0.5f32)?,
                }
            };
            Verb::Track {
                criterion,
                seeds: vec![(0, sx as u32, sy as u32, sz as u32)],
            }
        }
        "render-slice" => Verb::RenderSlice {
            step: args.require("step")?.parse().map_err(|_| "bad --step")?,
            axis: match args.opt("axis").unwrap_or("z") {
                "x" => Axis::X,
                "y" => Axis::Y,
                "z" => Axis::Z,
                other => return Err(format!("invalid --axis {other:?} (x, y, or z)")),
            },
            k: args.opt_parse("k", 0u32)?,
            adaptive: args.flag("adaptive"),
        },
        "report-stats" => Verb::ReportStats,
        "close" => Verb::Close,
        other => {
            return Err(format!(
                "unknown client verb {other:?} \
                 (open, classify, track, render-slice, report-stats, close)"
            ))
        }
    };
    let mut client = Client::connect(Path::new(socket))
        .map_err(|e| format!("cannot connect to {socket}: {e}"))?;
    let rsp = client
        .call(&Request {
            request_id: 1,
            tenant,
            verb,
        })
        .map_err(|e| format!("call failed: {e}"))?;
    format_response(args, rsp.body)
}

/// `client bench`: a pipelined load generator against a running `ifet
/// serve`. Opens the artifact, negotiates pipelined mode with a `hello`
/// handshake, then keeps `--depth` seeded read-only requests (classify /
/// render-slice) outstanding until `--requests` have been answered.
/// Reports throughput plus the tenant's admission counter algebra
/// (`accepted + rejected == sent`), which must hold under any executor.
fn cmd_client_bench(args: &Args, socket: &str, tenant: u32) -> Result<String, String> {
    let artifact = args.require("artifact")?.to_string();
    let data = args.require("data")?.to_string();
    let requests: u64 = args.opt_parse("requests", 64u64)?;
    let depth: u32 = args.opt_parse("depth", 8u32)?;
    let seed: u64 = args.opt_parse("seed", 1u64)?;
    if depth == 0 {
        return Err("--depth must be at least 1".into());
    }
    let mut client = Client::connect(Path::new(socket))
        .map_err(|e| format!("cannot connect to {socket}: {e}"))?;

    // Open synchronously (session binding must exist before any pipelined
    // read), then switch the connection to pipelined mode.
    let open = client
        .call(&Request {
            request_id: 1,
            tenant,
            verb: Verb::Open {
                artifact,
                data_dir: data,
            },
        })
        .map_err(|e| format!("open failed: {e}"))?;
    let (frames, dims, first_step, last_step) = match open.body {
        ResponseBody::OpenOk {
            frames,
            dims,
            first_step,
            last_step,
            ..
        } => (frames, dims, first_step, last_step),
        other => return Err(format!("open failed: {other:?}")),
    };
    let stride = if frames > 1 {
        ((last_step - first_step) / (frames - 1)).max(1)
    } else {
        1
    };
    let granted = client
        .hello(depth)
        .map_err(|e| format!("hello failed: {e}"))?;

    // Seeded read-only mix; request ids 2.. are unique so replies can come
    // back in any completion order.
    let verb_for = |i: u64| -> Verb {
        let r = mix(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let step = first_step + (r as u32 % frames) * stride;
        if r % 2 == 0 {
            Verb::Classify { step, tau: 0.5 }
        } else {
            Verb::RenderSlice {
                step,
                axis: Axis::Z,
                k: (r >> 8) as u32 % dims.2,
                adaptive: false,
            }
        }
    };
    let t0 = std::time::Instant::now();
    // Keep `granted` requests outstanding: submit while below the window,
    // otherwise await the oldest reply.
    let (mut sent, mut answered, mut errors) = (0u64, 0u64, 0u64);
    while answered < requests {
        if sent < requests && sent - answered < u64::from(granted) {
            client
                .submit(&Request {
                    request_id: 2 + sent,
                    tenant,
                    verb: verb_for(sent),
                })
                .map_err(|e| format!("submit failed: {e}"))?;
            sent += 1;
        } else {
            let rsp = client
                .await_response(2 + answered)
                .map_err(|e| format!("await failed: {e}"))?;
            errors += u64::from(matches!(rsp.body, ResponseBody::Err { .. }));
            answered += 1;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);

    let stats = client
        .call(&Request {
            request_id: 2 + requests,
            tenant,
            verb: Verb::ReportStats,
        })
        .map_err(|e| format!("report-stats failed: {e}"))?;
    let ResponseBody::StatsOk(st) = stats.body else {
        return Err(format!("report-stats failed: {:?}", stats.body));
    };
    let algebra = st.accepted + st.rejected == st.sent;
    let mut out = format!(
        "bench: {requests} requests, depth {depth} (granted {granted}), \
         {errors} errored, {:.0} req/s\n\
         tenant counters: sent {}, accepted {}, rejected {}, completed {} \
         (accepted + rejected == sent: {algebra})",
        requests as f64 / elapsed,
        st.sent,
        st.accepted,
        st.rejected,
        st.completed,
    );
    if !algebra {
        out.push_str("\nerror: admission counter algebra violated");
        return Err(out);
    }
    Ok(out)
}

/// splitmix64: the repo's standard cheap deterministic mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn format_response(args: &Args, body: ResponseBody) -> Result<String, String> {
    match body {
        ResponseBody::OpenOk {
            frames,
            dims,
            first_step,
            last_step,
            has_iatf,
            has_classifier,
            tracks,
        } => Ok(format!(
            "opened: {frames} frames of {}x{}x{}, steps {first_step}..{last_step}, \
             iatf {}, classifier {}, {tracks} completed tracks",
            dims.0,
            dims.1,
            dims.2,
            if has_iatf { "trained" } else { "absent" },
            if has_classifier { "trained" } else { "absent" },
        )),
        ResponseBody::ClassifyOk { voxels, words } => Ok(format!(
            "classified: {voxels} voxels above tau ({} mask words)",
            words.len()
        )),
        ResponseBody::TrackOk {
            voxels_per_frame,
            events,
        } => {
            let total: u64 = voxels_per_frame.iter().map(|&v| u64::from(v)).sum();
            Ok(format!(
                "tracked: {total} voxels across {} frames, {events} events\nper-frame: {voxels_per_frame:?}",
                voxels_per_frame.len()
            ))
        }
        ResponseBody::RenderSliceOk { width, height, rgb } => {
            if let Some(out) = args.opt("out") {
                let mut ppm = format!("P6\n{width} {height}\n255\n").into_bytes();
                ppm.extend_from_slice(&rgb);
                std::fs::write(out, ppm).map_err(|e| e.to_string())?;
                Ok(format!("rendered {width}x{height} slice -> {out}"))
            } else {
                Ok(format!(
                    "rendered {width}x{height} slice ({} bytes)",
                    rgb.len()
                ))
            }
        }
        ResponseBody::StatsOk(st) => Ok(format!(
            "tenant: sent {}, accepted {}, rejected {}, completed {}, max depth {}\n\
             mlp: {} jobs, {} rows\n\
             paging: {} evictions ({} quota-local, {} idle-preferred)",
            st.sent,
            st.accepted,
            st.rejected,
            st.completed,
            st.max_depth,
            st.batch_jobs,
            st.batch_rows,
            st.evictions,
            st.quota_evictions,
            st.idle_evictions,
        )),
        ResponseBody::HelloOk {
            version,
            max_pipeline,
        } => Ok(format!(
            "hello: protocol v{version}, pipeline depth {max_pipeline} granted"
        )),
        ResponseBody::CloseOk => Ok("closed".into()),
        ResponseBody::Err { code, message } => Err(format!("server error ({code:?}): {message}")),
    }
}
