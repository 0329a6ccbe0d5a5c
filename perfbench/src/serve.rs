//! `serve`: the multi-tenant session service over a real Unix socket. Two
//! tenants, each on its own artifact and connection, drive closed loops
//! pipelined to a fixed depth against one in-process server whose two
//! series share one frame budget, so random steps evict.

use crate::driver::{nproc, Bench, Plan};
use crate::inputs::{frame_files, mix, Rng, Spec, TAU};
use crate::report::{Measured, OpSample, Phase};
use crate::spans::{self, SpanRec};
use crate::stats::{median, ratio};
use crate::timed::Paging;
use ifet_core::prelude::*;
use ifet_serve::{
    encode_response, serve_unix, Axis, Client, Request, Response, ResponseBody, ServeConfig,
    ServeEngine, ServerOpts, StatsReport, Verb, WireCriterion,
};
use ifet_volume::io::read_frame;
use ifet_volume::{CacheBudget, FrameSource};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Outstanding requests per connection after `hello`.
const DEPTH: u32 = 4;

/// The shared frame budget: 8 frames against the tenants' 26.
const BUDGET_FRAMES: usize = 8;

/// A traced phase alternates untraced and traced chunks of requests.
const TRACE_CHUNKS: usize = 8;

/// Tenant ids; each tenant has its own artifact and connection.
const TENANTS: [u32; 2] = [1, 2];

fn config() -> ServeConfig {
    ServeConfig {
        budget: CacheBudget::Frames(BUDGET_FRAMES),
        // Equal to the pipeline depth, so a correct server never answers
        // `Overloaded`.
        max_inflight_per_tenant: DEPTH as usize,
        prefetch: 0,
        tenant_quota_bytes: None,
    }
}

/// A reply's bytes with the request id zeroed: what "byte-identical to the
/// reference" compares.
fn reply_bytes(tenant: u32, body: ResponseBody) -> Vec<u8> {
    encode_response(&Response {
        request_id: 0,
        tenant,
        body,
    })
}

struct Pool {
    tenant: u32,
    artifact: String,
    data: String,
    verbs: Vec<Verb>,
    reference: Vec<Vec<u8>>,
}

pub struct Oracle {
    pools: Vec<Pool>,
    /// The in-process engine the references came from; the traced run
    /// replays the mix through it to time `ServeEngine::handle` alone.
    engine: ServeEngine,
    seed: u64,
}

impl Pool {
    fn open(&self) -> Verb {
        Verb::Open {
            artifact: self.artifact.clone(),
            data_dir: self.data.clone(),
        }
    }
}

/// Build one tenant's seeded request pool: classify 60%, adaptive
/// render-slice 30%, track 10% (at least one). Classify and render-slice
/// requests take the steps in turn from a seeded start, and render-slice
/// the axes in turn, so every seed's pool asks for the same frames and
/// axes; slice positions and track seeds are random. Track seeds are
/// feature voxels (from the ground truth in `truth`) the adaptive criterion
/// accepts.
fn pool_verbs(
    engine: &ServeEngine,
    artifact: &str,
    truth: &Path,
    n: usize,
    seed: u64,
) -> Result<Vec<Verb>, String> {
    let shared = engine.resident(artifact).ok_or("artifact not resident")?;
    let session = shared.session();
    let series = session.series();
    let steps = series.steps().to_vec();
    let d = series.dims();
    let criterion = session
        .resolve_criterion(&CriterionSpec::AdaptiveTf { tau: TAU })
        .map_err(|e| e.to_string())?;
    let truth = frame_files(truth)?;
    let n_classify = n * 6 / 10;
    let n_track = (n / 10).max(1);
    let mut rng = Rng::new(seed);
    let mut verbs = Vec::with_capacity(n);
    let start = rng.below(steps.len());
    for i in 0..n {
        let fi = (start + i) % steps.len();
        let verb = if i < n_classify {
            Verb::Classify {
                step: steps[fi],
                tau: 0.5,
            }
        } else if i < n - n_track {
            let (axis, extent) = match i % 3 {
                0 => (Axis::X, d.nx),
                1 => (Axis::Y, d.ny),
                _ => (Axis::Z, d.nz),
            };
            Verb::RenderSlice {
                step: steps[fi],
                axis,
                k: rng.below(extent) as u32,
                adaptive: true,
            }
        } else {
            let fi = rng.below(steps.len());
            let frame = series.frame(fi).map_err(|e| e.to_string())?;
            let mut table = criterion.precompute_frame(fi, &frame);
            let (t, _) = read_frame(&truth[fi]).map_err(|e| e.to_string())?;
            table.intersect_with(&Mask3::threshold(&t, 0.5));
            let idx: Vec<usize> = table.set_indices().collect();
            if idx.is_empty() {
                return Err(format!("no accepted feature voxel in frame {fi}"));
            }
            let (x, y, z) = d.coords(idx[rng.below(idx.len())]);
            Verb::Track {
                criterion: WireCriterion::AdaptiveTf { tau: TAU },
                seeds: vec![(fi as u32, x as u32, y as u32, z as u32)],
            }
        };
        verbs.push(verb);
    }
    Ok(verbs)
}

/// One tenant's connection.
struct Conn {
    client: Client,
    tenant: u32,
    next_id: u64,
}

/// Per-request record of the last phase: `(tenant index, pool index,
/// latency)`.
type Log = Vec<(usize, usize, f64)>;

/// Servers started in this process; each set-up binds its own socket.
static SERVERS: AtomicUsize = AtomicUsize::new(0);

/// One set-up: a server and a connection per tenant. Dropping it closes the
/// connections; the server, which runs until the process exits, then idles.
pub struct Serve {
    engine: ServeEngine,
    artifacts: Vec<String>,
    conns: Vec<Conn>,
    log: Log,
    mark: (Option<StatsReport>, Paging),
}

impl Serve {
    /// A closed loop per connection, all connections concurrently, each
    /// sending while `more(sent)` allows. Samples come back in completion
    /// order.
    fn drive(
        &mut self,
        o: &Oracle,
        salt: u64,
        more: &(dyn Fn(usize) -> bool + Sync),
    ) -> Result<(Phase, Log), String> {
        let start = Instant::now();
        let results: Vec<Result<_, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(ti, conn)| {
                    let pool = &o.pools[ti];
                    let seed = mix(o.seed ^ salt ^ ((ti as u64) << 32));
                    s.spawn(move || closed_loop(conn, pool, ti, seed, more))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "a client thread panicked".to_string())?
                })
                .collect()
        });
        let mut done = Vec::new();
        let mut log = Log::new();
        for r in results {
            let (samples, l) = r?;
            done.extend(samples);
            log.extend(l);
        }
        done.sort_by_key(|&(at, _)| at);
        let ph = Phase {
            busy_s: start.elapsed().as_secs_f64(),
            samples: done.into_iter().map(|(_, sample)| sample).collect(),
        };
        Ok((ph, log))
    }

    /// A timed stretch: every connection sends `each` requests, or fewer
    /// if `cap` passes first.
    fn drive_n(
        &mut self,
        o: &Oracle,
        salt: u64,
        each: usize,
        cap: Instant,
    ) -> Result<(Phase, Log), String> {
        self.drive(o, salt, &|sent| sent < each && Instant::now() < cap)
    }

    fn call(&mut self, ti: usize, verb: Verb) -> Result<ResponseBody, String> {
        let c = &mut self.conns[ti];
        c.next_id += 1;
        c.client
            .call(&Request {
                request_id: c.next_id,
                tenant: c.tenant,
                verb,
            })
            .map(|r| r.body)
            .map_err(|e| format!("call failed: {e}"))
    }

    /// Engine-wide batch counters plus every tenant's rejections.
    fn stats(&mut self) -> Result<StatsReport, String> {
        let mut total = StatsReport::default();
        for ti in 0..self.conns.len() {
            match self.call(ti, Verb::ReportStats)? {
                ResponseBody::StatsOk(st) => {
                    total.rejected += st.rejected;
                    total.batch_jobs = st.batch_jobs;
                    total.batch_cycles = st.batch_cycles;
                    total.batch_rows = st.batch_rows;
                }
                other => return Err(format!("report-stats failed: {other:?}")),
            }
        }
        Ok(total)
    }

    fn paging(&self) -> Paging {
        let shared: Vec<_> = self
            .artifacts
            .iter()
            .filter_map(|a| self.engine.resident(a))
            .collect();
        let series: Vec<_> = shared.iter().map(|s| s.series()).collect();
        Paging::of(&series, &[self.engine.budget()])
    }
}

/// One connection's closed loop: keeps `DEPTH` requests outstanding while
/// `more(sent)` allows another. Each pass over the pool visits every
/// request once, in a fresh seeded order, so a run sends the pool's exact
/// verb mix.
fn closed_loop(
    conn: &mut Conn,
    pool: &Pool,
    ti: usize,
    seed: u64,
    more: &(dyn Fn(usize) -> bool + Sync),
) -> Result<(Vec<(Instant, OpSample)>, Log), String> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = Vec::new();
    let mut inflight: VecDeque<(u64, usize, Instant)> = VecDeque::new();
    let mut samples = Vec::new();
    let mut log = Log::new();
    let (mut sent, mut sending) = (0, true);
    while sending || !inflight.is_empty() {
        if sending && inflight.len() < DEPTH as usize {
            sending = more(sent);
            if !sending {
                continue;
            }
            if order.is_empty() {
                order = (0..pool.verbs.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
            }
            let idx = order.pop().expect("refilled above");
            conn.next_id += 1;
            let at = Instant::now();
            conn.client
                .submit(&Request {
                    request_id: conn.next_id,
                    tenant: conn.tenant,
                    verb: pool.verbs[idx].clone(),
                })
                .map_err(|e| format!("submit failed: {e}"))?;
            inflight.push_back((conn.next_id, idx, at));
            sent += 1;
            continue;
        }
        let (id, idx, at) = inflight.pop_front().expect("a request is in flight");
        let rsp = conn
            .client
            .await_response(id)
            .map_err(|e| format!("await failed: {e}"))?;
        let done = Instant::now();
        spans::record("serve.request", at, done, id);
        let latency = (done - at).as_secs_f64();
        let ok = reply_bytes(conn.tenant, rsp.body) == pool.reference[idx];
        samples.push((done, OpSample::new(latency, ok)));
        log.push((ti, idx, latency));
    }
    Ok((samples, log))
}

fn connect(sock: &Path) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(sock) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() > deadline => {
                return Err(format!("cannot connect to {}: {e}", sock.display()))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

impl Bench for Serve {
    type Oracle = Oracle;
    const RATE: f64 = 72.0;

    fn prepare(dir: &Path, spec: &Spec) -> Result<Oracle, String> {
        let engine = ServeEngine::new(config());
        let mut pools = Vec::new();
        for (k, (name, &tenant)) in ["a", "b"].iter().zip(&TENANTS).enumerate() {
            let artifact = path_str(&dir.join(name).join("session.ifet"))?;
            let data = path_str(&dir.join(name).join("data"))?;
            let open = engine.handle(Request {
                request_id: 1,
                tenant,
                verb: Verb::Open {
                    artifact: artifact.clone(),
                    data_dir: data.clone(),
                },
            });
            if !matches!(open.body, ResponseBody::OpenOk { .. }) {
                return Err(format!("reference open failed: {:?}", open.body));
            }
            let verbs = pool_verbs(
                &engine,
                &artifact,
                &dir.join(name).join("truth"),
                spec.sizes().serve_pool,
                mix(spec.seed ^ k as u64),
            )?;
            let mut reference = Vec::with_capacity(verbs.len());
            for v in &verbs {
                let rsp = engine.handle(Request {
                    request_id: 0,
                    tenant,
                    verb: v.clone(),
                });
                if let ResponseBody::Err { message, .. } = &rsp.body {
                    return Err(format!("reference {} failed: {message}", v.name()));
                }
                reference.push(reply_bytes(tenant, rsp.body));
            }
            pools.push(Pool {
                tenant,
                artifact,
                data,
                verbs,
                reference,
            });
        }
        Ok(Oracle {
            pools,
            engine,
            seed: spec.seed,
        })
    }

    fn setup(dir: &Path, _spec: &Spec, o: &Oracle) -> Result<Self, String> {
        let engine = ServeEngine::new(config());
        let sock = dir.join(format!(
            "serve-{}.sock",
            SERVERS.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let engine = engine.clone();
            let sock = sock.clone();
            let opts = ServerOpts {
                max_requests: None,
                workers: nproc(),
            };
            std::thread::Builder::new()
                .name("perfbench-server".into())
                .spawn(move || serve_unix(&sock, &engine, opts))
                .map_err(|e| e.to_string())?;
        }
        let mut s = Self {
            engine,
            artifacts: o.pools.iter().map(|p| p.artifact.clone()).collect(),
            conns: Vec::new(),
            log: Log::new(),
            mark: (None, Paging::default()),
        };
        for (ti, p) in o.pools.iter().enumerate() {
            s.conns.push(Conn {
                client: connect(&sock)?,
                tenant: p.tenant,
                next_id: 0,
            });
            let open = s.call(ti, p.open())?;
            if !matches!(open, ResponseBody::OpenOk { .. }) {
                return Err(format!("open failed: {open:?}"));
            }
            s.conns[ti]
                .client
                .hello(DEPTH)
                .map_err(|e| format!("hello failed: {e}"))?;
        }
        // Warm-up: every pool request once per connection, pipelined.
        let warm_n = o.pools[0].verbs.len();
        let (ph, _) = s.drive(o, u64::MAX, &|sent| sent < warm_n)?;
        if ph.failed() > 0 {
            return Err(format!(
                "{} warm-up replies differ from the reference",
                ph.failed()
            ));
        }
        Ok(s)
    }

    fn phase(&mut self, o: &Oracle, plan: Plan, trace: bool) -> Result<Measured, String> {
        let cap = Instant::now() + Duration::from_secs_f64(plan.cap_s);
        let each = plan.ops.div_ceil(self.conns.len());
        let mut m = Measured::default();
        self.log.clear();
        if !trace {
            let (ph, log) = self.drive_n(o, 0, each, cap)?;
            self.log = log;
            m.plain = ph;
            return Ok(m);
        }
        for c in 0..TRACE_CHUNKS {
            let traced = c % 2 == 1;
            spans::set_enabled(traced);
            let r = self.drive_n(o, c as u64, each.div_ceil(TRACE_CHUNKS), cap);
            spans::set_enabled(false);
            let (ph, log) = r?;
            let half = if traced { &mut m.traced } else { &mut m.plain };
            half.busy_s += ph.busy_s;
            half.samples.extend(ph.samples);
            self.log.extend(log);
        }
        Ok(m)
    }

    fn mark(&mut self) {
        self.mark = (self.stats().ok(), self.paging());
    }

    fn layers(
        &mut self,
        o: &Oracle,
        ms: &Measured,
        _all: &[SpanRec],
        m: &mut BTreeMap<&'static str, f64>,
    ) {
        let ops = ms.ops() as f64;
        let before = self.mark.0.unwrap_or_default();
        if let Ok(after) = self.stats() {
            m.insert(
                "serve.jobs_per_cycle",
                ratio(
                    (after.batch_jobs - before.batch_jobs) as f64,
                    (after.batch_cycles - before.batch_cycles) as f64,
                ),
            );
            m.insert(
                "serve.batch_rows",
                ratio((after.batch_rows - before.batch_rows) as f64, ops),
            );
            m.insert("serve.rejected", (after.rejected - before.rejected) as f64);
        }
        self.mark.1.metrics(&self.paging(), ops, m);

        // Client-side latency by verb.
        for (verb, key) in [
            ("classify", "serve.classify_p50_ms"),
            ("render-slice", "serve.render_slice_p50_ms"),
            ("track", "serve.track_p50_ms"),
        ] {
            let lat: Vec<f64> = self
                .log
                .iter()
                .filter(|(ti, idx, _)| o.pools[*ti].verbs[*idx].name() == verb)
                .map(|(_, _, l)| l * 1e3)
                .collect();
            m.insert(key, median(&lat).unwrap_or(0.0));
        }

        // Engine time alone: replay each pool request through the
        // in-process reference engine; the rest of a reply's latency is
        // transport and queue wait.
        let engine_ms: Vec<Vec<f64>> = o
            .pools
            .iter()
            .map(|p| {
                p.verbs
                    .iter()
                    .map(|v| {
                        let t0 = Instant::now();
                        o.engine.handle(Request {
                            request_id: 0,
                            tenant: p.tenant,
                            verb: v.clone(),
                        });
                        t0.elapsed().as_secs_f64() * 1e3
                    })
                    .collect()
            })
            .collect();
        let engine: Vec<f64> = self
            .log
            .iter()
            .map(|&(ti, idx, _)| engine_ms[ti][idx])
            .collect();
        let wait: Vec<f64> = self
            .log
            .iter()
            .map(|&(ti, idx, l)| l * 1e3 - engine_ms[ti][idx])
            .collect();
        m.insert("serve.engine_p50_ms", median(&engine).unwrap_or(0.0));
        m.insert("serve.wait_p50_ms", median(&wait).unwrap_or(0.0));
    }
}

fn path_str(p: &Path) -> Result<String, String> {
    p.to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("non-UTF-8 path {}", p.display()))
}
