//! The multi-tenant serving engine: resident shared sessions, one global
//! cache budget, per-tenant admission control, typed errors.
//!
//! # Residency model
//!
//! Sessions are keyed by `.ifet` artifact path. The first `open` loads the
//! artifact against an [`OutOfCoreSeries`] opened on the engine's *shared*
//! [`CacheBudgetHandle`]; later opens of the same artifact — by any tenant —
//! bind to the same resident [`SharedSession`] (an `Arc`, enabled by the
//! `FrameSource for Arc<S>` passthrough). All verbs take `&self` on the
//! session, so tenants serve concurrently from one copy; a session leaves
//! memory, and its resident frames leave the shared budget, when the last
//! tenant bound to it closes.
//!
//! # Fairness and backpressure
//!
//! Admission is per-tenant: each tenant may have at most
//! [`ServeConfig::max_inflight_per_tenant`] requests executing (or blocked
//! on paging) at once. The bound is checked at entry —
//! a request over the bound is *rejected immediately* with a typed
//! `Overloaded` error rather than queued, so one greedy tenant can saturate
//! only its own lane while the byte budget is contended, never the accept
//! path of others. Counters satisfy `accepted + rejected == sent` at any
//! quiescent point.
//!
//! # Why responses are schedule-independent
//!
//! Every verb except `report-stats` computes from (artifact bytes, request
//! arguments) alone through code whose outputs are pinned bit-identical
//! against paging order, batch width, and thread count by the equivalence
//! suites of PRs 4–7. The engine adds no response state of its own — no
//! timestamps, no sequence numbers — so a concurrent run must produce the
//! same response bytes as a serial replay. `report-stats` is the deliberate
//! exception (it *reports* scheduling), mirroring how runtime counters are
//! stripped from stable traces.

use crate::error::ServeError;
use crate::protocol::{
    Axis, ErrorCode, Request, Response, ResponseBody, StatsReport, Verb, WireCriterion,
};
use ifet_core::prelude::*;
use ifet_obs as obs;
use ifet_render::{render_slice, SliceAxis};
use ifet_volume::io::frame_paths;
use ifet_volume::{CacheBudget, CacheBudgetHandle, FrameSource, OutOfCoreSeries, ReadFaultHook};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Engine-wide policy knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// The single budget every tenant's frame data pages through.
    pub budget: CacheBudget,
    /// Per-tenant in-flight bound; requests beyond it are rejected
    /// `Overloaded`, never queued.
    pub max_inflight_per_tenant: usize,
    /// Read-ahead depth for newly opened series (0 = no prefetch).
    pub prefetch: usize,
    /// Resident-byte quota applied to each opened artifact's residency
    /// group (`None` = unlimited). A tenant whose artifact is over quota
    /// evicts its *own* LRU frames first; tenants sharing an artifact share
    /// its quota. See `CacheBudgetHandle::set_group_quota`.
    pub tenant_quota_bytes: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            budget: CacheBudget::Frames(8),
            max_inflight_per_tenant: 4,
            prefetch: 0,
            tenant_quota_bytes: None,
        }
    }
}

/// One artifact resident in the engine: the paged series and the loaded
/// session, shared by every tenant bound to it.
pub struct SharedSession {
    key: String,
    series: Arc<OutOfCoreSeries>,
    session: VisSession<Arc<OutOfCoreSeries>>,
    /// Residency group this artifact's bytes are attributed to in the shared
    /// budget (assigned at first open; see `ServeConfig::tenant_quota_bytes`).
    group: u64,
}

impl SharedSession {
    /// The artifact path this session was loaded from.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The residency group this artifact pages under.
    pub fn residency_group(&self) -> u64 {
        self.group
    }

    /// The resident session (read-only under serving).
    pub fn session(&self) -> &VisSession<Arc<OutOfCoreSeries>> {
        &self.session
    }

    /// The shared paged series (for cache stats and fault injection).
    pub fn series(&self) -> &OutOfCoreSeries {
        &self.series
    }
}

/// Per-tenant admission state and counters.
#[derive(Default)]
struct Tenant {
    inflight: AtomicUsize,
    sent: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    max_depth: AtomicU64,
    session: Mutex<Option<Arc<SharedSession>>>,
}

impl Tenant {
    fn note_depth(&self, depth: usize) {
        self.max_depth.fetch_max(depth as u64, Ordering::Relaxed);
    }
}

struct Inner {
    cfg: ServeConfig,
    budget: CacheBudgetHandle,
    /// Artifact key → resident session. `Weak` so residency ends with the
    /// last tenant binding, not with the map entry.
    artifacts: Mutex<HashMap<String, Weak<SharedSession>>>,
    tenants: Mutex<BTreeMap<u32, Arc<Tenant>>>,
    /// MLP jobs (classify masks and IATF tables) run by any worker, and the
    /// voxel rows they pushed through the network (`report-stats`).
    mlp_jobs: AtomicU64,
    mlp_rows: AtomicU64,
    /// Fault hooks by artifact key, applied at open time (chaos testing).
    fault_hooks: Mutex<HashMap<String, ReadFaultHook>>,
    /// Residency-group id allocator (0 is the budget's default group, never
    /// handed to an artifact).
    next_group: AtomicU64,
}

/// The multi-tenant serving engine. Cheap to clone (shared state); all
/// methods take `&self`, so one engine serves any number of client threads.
#[derive(Clone)]
pub struct ServeEngine {
    inner: Arc<Inner>,
}

impl ServeEngine {
    pub fn new(cfg: ServeConfig) -> Self {
        let budget = CacheBudgetHandle::new(cfg.budget);
        Self {
            inner: Arc::new(Inner {
                cfg,
                budget,
                artifacts: Mutex::new(HashMap::new()),
                tenants: Mutex::new(BTreeMap::new()),
                mlp_jobs: AtomicU64::new(0),
                mlp_rows: AtomicU64::new(0),
                fault_hooks: Mutex::new(HashMap::new()),
                next_group: AtomicU64::new(1),
            }),
        }
    }

    /// The shared budget every tenant pages through.
    pub fn budget(&self) -> &CacheBudgetHandle {
        &self.inner.budget
    }

    /// Install (or clear) a read-fault hook for an artifact key. Applied to
    /// the artifact's series when it is (re)opened — register before `open`.
    /// Chaos tests use this to inject delays and transient I/O faults.
    pub fn set_read_fault_hook(&self, artifact: &str, hook: Option<ReadFaultHook>) {
        let mut hooks = lock(&self.inner.fault_hooks);
        match hook {
            Some(h) => {
                if let Some(shared) = self.resident(artifact) {
                    shared.series().set_read_fault_hook(Some(h.clone()));
                }
                hooks.insert(artifact.to_string(), h);
            }
            None => {
                if let Some(shared) = self.resident(artifact) {
                    shared.series().set_read_fault_hook(None);
                }
                hooks.remove(artifact);
            }
        }
    }

    /// The resident shared session for an artifact, if any tenant holds it.
    pub fn resident(&self, artifact: &str) -> Option<Arc<SharedSession>> {
        lock(&self.inner.artifacts)
            .get(artifact)
            .and_then(Weak::upgrade)
    }

    /// Handle one decoded request: admission, execution, typed reply.
    pub fn handle(&self, req: Request) -> Response {
        let tenant = self.tenant_entry(req.tenant);
        tenant.sent.fetch_add(1, Ordering::SeqCst);
        let depth = tenant.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        tenant.note_depth(depth);
        if depth > self.inner.cfg.max_inflight_per_tenant {
            tenant.inflight.fetch_sub(1, Ordering::SeqCst);
            tenant.rejected.fetch_add(1, Ordering::SeqCst);
            obs::counter_runtime_dyn(format!("serve.tenant.{}.rejected", req.tenant), 1);
            let err = ServeError::Overloaded {
                tenant: req.tenant,
                inflight: depth - 1,
                bound: self.inner.cfg.max_inflight_per_tenant,
            };
            return error_response(&req, &err);
        }
        tenant.accepted.fetch_add(1, Ordering::SeqCst);
        obs::counter_runtime_dyn(format!("serve.tenant.{}.accepted", req.tenant), 1);
        let body = self.execute(&tenant, &req).unwrap_or_else(|e| err_body(&e));
        tenant.inflight.fetch_sub(1, Ordering::SeqCst);
        tenant.completed.fetch_add(1, Ordering::SeqCst);
        Response {
            request_id: req.request_id,
            tenant: req.tenant,
            body,
        }
    }

    /// Byte-in/byte-out entry: decode a request frame, handle it, encode
    /// the response frame. A malformed frame yields an error response with
    /// `request_id`/`tenant` zero and code `Protocol` — corrupted bytes can
    /// never be attributed to a session (the CRC covers the whole payload).
    pub fn handle_wire(&self, frame: &[u8]) -> Vec<u8> {
        let rsp = match crate::protocol::decode_request(frame) {
            Ok(req) => self.handle(req),
            Err(e) => Response {
                request_id: 0,
                tenant: 0,
                body: ResponseBody::Err {
                    code: ErrorCode::Protocol,
                    message: e.to_string(),
                },
            },
        };
        crate::protocol::encode_response(&rsp)
    }

    /// Snapshot a tenant's counters (test and stats-verb surface).
    pub fn tenant_stats(&self, tenant: u32) -> StatsReport {
        let t = self.tenant_entry(tenant);
        let b = self.inner.budget.stats();
        let mlp_jobs = self.inner.mlp_jobs.load(Ordering::SeqCst);
        StatsReport {
            sent: t.sent.load(Ordering::SeqCst),
            accepted: t.accepted.load(Ordering::SeqCst),
            rejected: t.rejected.load(Ordering::SeqCst),
            completed: t.completed.load(Ordering::SeqCst),
            max_depth: t.max_depth.load(Ordering::SeqCst),
            batch_jobs: mlp_jobs,
            batch_cycles: mlp_jobs,
            batch_rows: self.inner.mlp_rows.load(Ordering::SeqCst),
            evictions: b.evictions,
            quota_evictions: b.quota_evictions,
            idle_evictions: b.idle_evictions,
        }
    }

    fn tenant_entry(&self, id: u32) -> Arc<Tenant> {
        let mut map = lock(&self.inner.tenants);
        Arc::clone(map.entry(id).or_default())
    }

    fn execute(&self, tenant: &Tenant, req: &Request) -> Result<ResponseBody, ServeError> {
        match &req.verb {
            Verb::Open { artifact, data_dir } => {
                let shared = self.open_shared(artifact, data_dir)?;
                let session = shared.session();
                let series = session.series();
                let steps = series.steps();
                let d = series.dims();
                let body = ResponseBody::OpenOk {
                    frames: series.len() as u32,
                    dims: (d.nx as u32, d.ny as u32, d.nz as u32),
                    first_step: steps.first().copied().unwrap_or(0),
                    last_step: steps.last().copied().unwrap_or(0),
                    has_iatf: session.iatf().is_some(),
                    has_classifier: session.classifier().is_some(),
                    tracks: session.tracks().len() as u32,
                };
                *lock(&tenant.session) = Some(shared);
                Ok(body)
            }
            Verb::Classify { step, tau } => {
                let shared = self.bound_session(tenant, req.tenant)?;
                let _active = GroupActivity::enter(&self.inner.budget, shared.group);
                let mask = shared
                    .session()
                    .extract_data_space(*step, *tau)
                    .map_err(session_error)?
                    .ok_or_else(|| classify_refusal(&shared, *step))?;
                self.note_mlp_job(&shared);
                Ok(ResponseBody::ClassifyOk {
                    voxels: mask.count() as u64,
                    words: mask.words().to_vec(),
                })
            }
            Verb::Track { criterion, seeds } => {
                let shared = self.bound_session(tenant, req.tenant)?;
                let _active = GroupActivity::enter(&self.inner.budget, shared.group);
                let spec = match criterion {
                    WireCriterion::FixedBand { lo, hi } => {
                        CriterionSpec::FixedBand { lo: *lo, hi: *hi }
                    }
                    WireCriterion::AdaptiveTf { tau } => CriterionSpec::AdaptiveTf { tau: *tau },
                    WireCriterion::DataSpace { tau } => CriterionSpec::DataSpace { tau: *tau },
                };
                let seeds: Vec<Seed4> = seeds
                    .iter()
                    .map(|&(t, x, y, z)| (t as usize, x as usize, y as usize, z as usize))
                    .collect();
                let result = shared
                    .session()
                    .track_spec(&spec, &seeds)
                    .map_err(|e| match e {
                        SessionError::Grow(_) => ServeError::BadRequest {
                            reason: e.to_string(),
                        },
                        other => session_error(other),
                    })?;
                Ok(ResponseBody::TrackOk {
                    voxels_per_frame: result
                        .report
                        .voxels_per_frame
                        .iter()
                        .map(|&v| v as u32)
                        .collect(),
                    events: result.report.events.len() as u32,
                })
            }
            Verb::RenderSlice {
                step,
                axis,
                k,
                adaptive,
            } => {
                let shared = self.bound_session(tenant, req.tenant)?;
                let _active = GroupActivity::enter(&self.inner.budget, shared.group);
                self.render_slice(&shared, *step, *axis, *k, *adaptive)
            }
            Verb::ReportStats => Ok(ResponseBody::StatsOk(self.tenant_stats(req.tenant))),
            Verb::Close => {
                *lock(&tenant.session) = None;
                Ok(ResponseBody::CloseOk)
            }
            // The handshake is connection-level state owned by the transport
            // (the server flips the connection into pipelined mode when it
            // sees the verb go by); the engine just grants a clamped depth so
            // the reply is deterministic and transport-independent.
            Verb::Hello { max_pipeline } => Ok(ResponseBody::HelloOk {
                version: crate::protocol::PROTOCOL_VERSION,
                max_pipeline: (*max_pipeline).clamp(1, crate::protocol::MAX_PIPELINE),
            }),
        }
    }

    fn render_slice(
        &self,
        shared: &Arc<SharedSession>,
        step: u32,
        axis: Axis,
        k: u32,
        adaptive: bool,
    ) -> Result<ResponseBody, ServeError> {
        let session = shared.session();
        let series = session.series();
        let frame = series
            .frame_at_step(step)
            .map_err(|e| ServeError::Session {
                reason: e.to_string(),
            })?
            .ok_or_else(|| ServeError::BadRequest {
                reason: format!("step {step} not in the series"),
            })?;
        let axis = match axis {
            Axis::X => SliceAxis::X,
            Axis::Y => SliceAxis::Y,
            Axis::Z => SliceAxis::Z,
        };
        let d = frame.dims();
        let extent = match axis {
            SliceAxis::X => d.nx,
            SliceAxis::Y => d.ny,
            SliceAxis::Z => d.nz,
        };
        if k as usize >= extent {
            return Err(ServeError::BadRequest {
                reason: format!("slice index {k} out of range (extent {extent})"),
            });
        }
        let mut img = render_slice(&frame, axis, k as usize, session.colormap);
        if adaptive {
            // IATF-generated opacity modulates the slice; generating it is
            // MLP work and runs on this worker like classification does.
            let tf = session
                .adaptive_tf_at_step(step)
                .map_err(session_error)?
                .ok_or_else(|| generate_refusal(shared, step))?;
            self.note_mlp_job(shared);
            let (w, h, data) = ifet_render::slice_data(&frame, axis, k as usize);
            for y in 0..h {
                for x in 0..w {
                    let o = tf.opacity_at(data[x + w * y]).clamp(0.0, 1.0);
                    let p = img.pixel(x, y);
                    img.set_pixel(x, y, [p[0] * o, p[1] * o, p[2] * o]);
                }
            }
        }
        let (w, h) = (img.width(), img.height());
        let rgb = img
            .as_slice()
            .iter()
            .map(|&c| (c.clamp(0.0, 1.0) * 255.0).round() as u8)
            .collect();
        Ok(ResponseBody::RenderSliceOk {
            width: w as u32,
            height: h as u32,
            rgb,
        })
    }

    /// Count one MLP job (a classify mask or an IATF table) over every voxel
    /// of the session's frame grid.
    fn note_mlp_job(&self, shared: &SharedSession) {
        let rows = shared.session().series().dims().len() as u64;
        self.inner.mlp_jobs.fetch_add(1, Ordering::Relaxed);
        self.inner.mlp_rows.fetch_add(rows, Ordering::Relaxed);
    }

    fn bound_session(&self, tenant: &Tenant, id: u32) -> Result<Arc<SharedSession>, ServeError> {
        lock(&tenant.session)
            .as_ref()
            .map(Arc::clone)
            .ok_or(ServeError::NoSession { tenant: id })
    }

    /// Load (or rebind to) the shared session for an artifact. Holds the
    /// artifact map lock across the load so concurrent first-opens of the
    /// same artifact resolve to one resident copy; loading reads only
    /// sidecars and the artifact file, never frame payloads, so the lock is
    /// held for metadata I/O only.
    fn open_shared(
        &self,
        artifact: &str,
        data_dir: &str,
    ) -> Result<Arc<SharedSession>, ServeError> {
        let mut map = lock(&self.inner.artifacts);
        if let Some(shared) = map.get(artifact).and_then(Weak::upgrade) {
            return Ok(shared);
        }
        let paths = frame_paths(data_dir).map_err(|reason| ServeError::Open { reason })?;
        let series = OutOfCoreSeries::open_with(paths, &self.inner.budget, self.inner.cfg.prefetch)
            .map_err(|e| ServeError::Open {
                reason: e.to_string(),
            })?;
        if let Some(hook) = lock(&self.inner.fault_hooks).get(artifact) {
            series.set_read_fault_hook(Some(hook.clone()));
        }
        // Assign the artifact its residency group before any frame read so
        // every byte it pages is attributed (and quota-bounded) from the
        // start. Loading below reads only the artifact file, never frames.
        let group = self.inner.next_group.fetch_add(1, Ordering::Relaxed);
        series.set_residency_group(group);
        if let Some(q) = self.inner.cfg.tenant_quota_bytes {
            self.inner.budget.set_group_quota(group, Some(q));
        }
        let series = Arc::new(series);
        let session =
            VisSession::load(Arc::clone(&series), artifact).map_err(|e| ServeError::Open {
                reason: e.to_string(),
            })?;
        let shared = Arc::new(SharedSession {
            key: artifact.to_string(),
            series,
            session,
            group,
        });
        map.insert(artifact.to_string(), Arc::downgrade(&shared));
        Ok(shared)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII activity marker for a residency group: while any request against an
/// artifact is executing, the budget's eviction policy deprioritizes that
/// artifact's frames (idle tenants' frames go first).
struct GroupActivity<'a> {
    budget: &'a CacheBudgetHandle,
    group: u64,
}

impl<'a> GroupActivity<'a> {
    fn enter(budget: &'a CacheBudgetHandle, group: u64) -> Self {
        budget.group_enter(group);
        Self { budget, group }
    }
}

impl Drop for GroupActivity<'_> {
    fn drop(&mut self) {
        self.budget.group_exit(self.group);
    }
}

fn session_error(e: SessionError) -> ServeError {
    ServeError::Session {
        reason: e.to_string(),
    }
}

/// Why `extract_data_space` produced no mask: the session has no
/// classifier, or the step is not in the series.
fn classify_refusal(shared: &SharedSession, step: u32) -> ServeError {
    if shared.session().classifier().is_none() {
        ServeError::Session {
            reason: "no trained classifier in this session".into(),
        }
    } else {
        ServeError::BadRequest {
            reason: format!("step {step} not in the series"),
        }
    }
}

/// Why `adaptive_tf_at_step` produced no table: the session has no
/// IATF, or the step is not in the series.
fn generate_refusal(shared: &SharedSession, step: u32) -> ServeError {
    if shared.session().iatf().is_none() {
        ServeError::Session {
            reason: "no trained IATF in this session".into(),
        }
    } else {
        ServeError::BadRequest {
            reason: format!("step {step} not in the series"),
        }
    }
}

fn err_body(e: &ServeError) -> ResponseBody {
    ResponseBody::Err {
        code: e.code(),
        message: e.to_string(),
    }
}

fn error_response(req: &Request, e: &ServeError) -> Response {
    Response {
        request_id: req.request_id,
        tenant: req.tenant,
        body: err_body(e),
    }
}
