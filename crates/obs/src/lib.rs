//! Runtime observability: structured tracing spans and per-stage counters.
//!
//! This crate is the recorder behind `ifet <cmd> --trace/--profile`. It is
//! deliberately dependency-free (only the offline serde shims, for JSON) and
//! designed around three constraints:
//!
//! 1. **Near-zero cost when disabled.** Every entry point starts by reading
//!    one destructor-free thread-local flag; instrumented code reports
//!    *aggregates* (one counter call per slab / frame / round / section,
//!    never per voxel), so the disabled path adds a handful of branches to
//!    work units that each cost milliseconds. The `obs_overhead` bench pins
//!    this below 5%.
//!
//! 2. **Deterministic counters across thread counts.** Counter deltas from
//!    worker threads buffer in the worker's scope and merge into the
//!    capture's inbox when its [`Handle::enter`] guard drops; the owner
//!    folds them into the innermost open span at its next span open or
//!    close (u64 addition commutes, so the merge order does not matter).
//!    Counters are sorted by name at span close. Timings and
//!    scheduling-dependent values (scratch-pool hits, cache misses) are
//!    recorded through [`counter_runtime`] and stripped by
//!    [`Trace::to_stable`], so the *stable* rendering of a trace is
//!    byte-identical across `--threads 1/2/4`.
//!
//! 3. **Independent captures.** Threads reach a capture only through a
//!    thread-local scope, installed by [`capture`] or [`Handle::enter`]. A
//!    thread with no scope is inert, so neither uncaptured work nor a
//!    capture on another thread can reach a trace.
//!
//! Spans form a tree rooted at the name passed to [`capture`]. Only the
//! owner, the thread that called `capture`, opens spans (the rayon shim runs
//! `ThreadPool::install` closures on the calling thread, so pipeline stages
//! always satisfy this); worker threads contribute counters only. A collected
//! tree serializes to a versioned JSON document (schema
//! [`TRACE_SCHEMA_VERSION`]) with a strict reader that rejects unknown fields,
//! mirroring the persistence layer's corruption tests.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use serde::value::Number;
use serde::Value;

/// Version of the emitted trace document. Bump on any field change and
/// extend the schema-stability test in `tests/observability.rs`.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Capture state
// ---------------------------------------------------------------------------

struct OpenSpan {
    name: Cow<'static, str>,
    start: Instant,
    counters: Vec<(String, u64, bool)>,
    children: Vec<Span>,
}

impl OpenSpan {
    fn new(name: Cow<'static, str>) -> Self {
        Self {
            name,
            start: Instant::now(),
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    fn add(&mut self, name: &str, delta: u64, runtime: bool) {
        match self
            .counters
            .iter_mut()
            .find(|(n, _, r)| n == name && *r == runtime)
        {
            Some((_, v, _)) => *v += delta,
            None => self.counters.push((name.to_string(), delta, runtime)),
        }
    }

    fn close(self) -> Span {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        self.finish_with(dur_ns)
    }

    /// Like `close` but non-consuming (snapshots of still-open spans).
    fn clone_open(&self) -> Span {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        OpenSpan {
            name: self.name.clone(),
            start: self.start,
            counters: self.counters.clone(),
            children: self.children.clone(),
        }
        .finish_with(dur_ns)
    }

    fn finish_with(mut self, dur_ns: u64) -> Span {
        self.counters
            .sort_by(|a, b| a.0.cmp(&b.0).then(a.2.cmp(&b.2)));
        Span {
            name: self.name.into_owned(),
            dur_ns,
            counters: self
                .counters
                .into_iter()
                .map(|(name, value, runtime)| Counter {
                    name,
                    value,
                    runtime,
                })
                .collect(),
            children: self.children,
        }
    }
}

/// A counter delta: `(name, delta, runtime)`.
type Entry = (&'static str, u64, bool);

/// The only state a capture shares: counters merged by workers' [`Entered`]
/// guards, waiting for the owner to fold them into the innermost open span.
type Inbox = Mutex<Vec<Entry>>;

fn lock(inbox: &Inbox) -> std::sync::MutexGuard<'_, Vec<Entry>> {
    // Every update is a whole append or drain, so a poisoned inbox still
    // holds whole entries.
    inbox.lock().unwrap_or_else(|p| p.into_inner())
}

/// One thread's part in a capture.
struct Scope {
    inbox: Arc<Inbox>,
    /// Open spans, root first. Empty on a worker, which opens no spans.
    stack: Vec<OpenSpan>,
    /// Counters recorded on this thread since the last fold or merge.
    buf: Vec<Entry>,
}

impl Scope {
    /// Fold this thread's counters and the workers' merged ones into the
    /// innermost open span. Owner only: a worker has no span to fold into.
    fn fold(&mut self) {
        if let Some(top) = self.stack.last_mut() {
            for (name, delta, runtime) in self.buf.drain(..).chain(lock(&self.inbox).drain(..)) {
                top.add(name, delta, runtime);
            }
        }
    }
}

thread_local! {
    /// Whether this thread has a scope. Destructor-free, so reading it is the
    /// whole disabled path; `swap_scope` keeps it in step with `SCOPE`.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// Install `scope` on this thread and return the one it replaces.
fn swap_scope(scope: Option<Scope>) -> Option<Scope> {
    ACTIVE.with(|a| a.set(scope.is_some()));
    SCOPE.with(|s| s.replace(scope))
}

/// Run `f` on this thread's scope; `None` when the thread has none.
fn with_scope<R>(f: impl FnOnce(&mut Scope) -> R) -> Option<R> {
    SCOPE.with(|s| s.borrow_mut().as_mut().map(f))
}

/// Nest `spans`, listed root first, each inside the one before it.
fn nest(spans: impl DoubleEndedIterator<Item = Span>) -> Option<Trace> {
    let root = spans.rev().reduce(|child, mut parent| {
        parent.children.push(child);
        parent
    })?;
    Some(Trace {
        schema: TRACE_SCHEMA_VERSION,
        mode: TraceMode::Full,
        root,
    })
}

// ---------------------------------------------------------------------------
// Public recording API
// ---------------------------------------------------------------------------

/// Whether this thread records into a capture. Use to gate counter
/// *computations* whose value is itself costly (e.g. a mask popcount); plain
/// [`counter`] calls self-gate and do not need this.
#[inline]
pub fn is_enabled() -> bool {
    ACTIVE.with(Cell::get)
}

/// Run `f` under a fresh capture rooted at `root` and return its result with
/// the collected trace. The capture sees this thread and the workers that
/// enter its [`handle`], nothing else, so captures on different threads are
/// independent. A capture already active on this thread is shadowed until
/// `f` returns or panics. Spans still open when `f` returns are closed
/// bottom-up.
pub fn capture<R>(root: &'static str, f: impl FnOnce() -> R) -> (R, Trace) {
    let entered = Entered::new(Some(Scope {
        inbox: Arc::default(),
        stack: vec![OpenSpan::new(Cow::Borrowed(root))],
        buf: Vec::new(),
    }));
    let result = f();
    let trace = with_scope(|s| {
        s.fold();
        nest(s.stack.drain(..).map(OpenSpan::close))
    })
    .flatten()
    .expect("the capture's scope is installed until it returns");
    drop(entered);
    (result, trace)
}

/// The capture this thread records into, for worker threads to
/// [`Handle::enter`]. Inert when this thread records into none.
pub fn handle() -> Handle {
    Handle(with_scope(|s| Arc::downgrade(&s.inbox)).unwrap_or_default())
}

/// Lets worker threads add counters to a capture. Take it on a thread in the
/// capture with [`handle`], move it into the parallel closure, and enter it
/// for each work unit. It keeps the capture alive for no longer than the
/// capture's own call: entered afterwards, it is inert.
#[derive(Clone, Default)]
pub struct Handle(Weak<Inbox>);

impl Handle {
    /// Record this thread's counters into the handle's capture until the
    /// guard drops, then merge them into it. Declare the guard first in a
    /// work unit so it drops after everything else there (drop order is
    /// reverse declaration): `let _obs = handle.enter();`
    ///
    /// Does nothing on a thread already in the same capture, so a work unit
    /// the scheduler runs on the owner keeps the owner's live spans.
    pub fn enter(&self) -> Entered {
        let same = with_scope(|s| std::ptr::eq(Arc::as_ptr(&s.inbox), self.0.as_ptr()));
        let inbox = self.0.upgrade().filter(|_| same != Some(true));
        Entered::new(inbox.map(|inbox| Scope {
            inbox,
            stack: Vec::new(),
            buf: Vec::new(),
        }))
    }
}

/// A thread's membership in a capture, from [`capture`] or
/// [`Handle::enter`]. On drop (unwinding included) it merges the thread's
/// buffered counters into the capture and reinstates the scope it shadowed.
#[must_use = "dropping the guard immediately leaves the capture"]
pub struct Entered {
    /// The scope to reinstate; `None` when `enter` had nothing to do.
    shadowed: Option<Option<Scope>>,
    /// A scope belongs to one thread's locals.
    _thread_bound: PhantomData<*const ()>,
}

impl Entered {
    /// Install `scope`, or do nothing when it is `None`.
    fn new(scope: Option<Scope>) -> Self {
        Entered {
            shadowed: scope.map(|scope| swap_scope(Some(scope))),
            _thread_bound: PhantomData,
        }
    }
}

impl Drop for Entered {
    fn drop(&mut self) {
        let Some(shadowed) = self.shadowed.take() else {
            return;
        };
        if let Some(left) = swap_scope(shadowed) {
            lock(&left.inbox).extend(left.buf);
        }
    }
}

/// Open a timed span. The returned guard closes it on drop. Inert (and
/// branch-cheap) on a thread that is not a capture's owner.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: false };
    }
    span_open(Cow::Borrowed(name))
}

/// [`span`] with a runtime-built name (e.g. a per-section label). Prefer
/// [`span`] anywhere the name is known at compile time.
#[inline]
pub fn span_dyn(name: String) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: false };
    }
    span_open(Cow::Owned(name))
}

fn span_open(name: Cow<'static, str>) -> SpanGuard {
    let active = with_scope(|s| {
        if s.stack.is_empty() {
            return false;
        }
        s.fold();
        s.stack.push(OpenSpan::new(name));
        true
    });
    SpanGuard {
        active: active == Some(true),
    }
}

/// Closes its span on drop. Obtain via [`span`]/[`span_dyn`] or the
/// [`obs_span!`] macro.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        with_scope(|s| {
            // The root span belongs to `capture`; stack depth 1 means this
            // guard outlived the capture that opened it.
            if s.stack.len() > 1 {
                s.fold();
                let span = s.stack.pop().expect("depth > 1").close();
                s.stack.last_mut().expect("depth > 1").children.push(span);
            }
        });
    }
}

/// Open a span for the rest of the enclosing scope:
/// `obs_span!("track.round");`
#[macro_export]
macro_rules! obs_span {
    ($name:literal) => {
        let _obs_span_guard = $crate::span($name);
    };
}

/// Add to a **deterministic** counter: its value must depend only on inputs,
/// never on scheduling. Deterministic counters survive
/// [`Trace::to_stable`] and are pinned byte-identical across thread counts by
/// the observability tests. Buffered on this thread until the owner next
/// opens or closes a span, or a worker's [`Entered`] guard drops; it then
/// lands in the owner's innermost open span.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    add_local(name, delta, false);
}

/// Add to a **runtime** counter: scheduling-dependent values (pool hits,
/// wait times). Stripped by [`Trace::to_stable`].
#[inline]
pub fn counter_runtime(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    add_local(name, delta, true);
}

/// [`counter_runtime`] with a runtime-built name (e.g. a per-tenant label
/// like `serve.tenant.3.rejected`). Names are interned for the process
/// lifetime, so use bounded name sets (tenant ids, shard ids) — not
/// unbounded ones (request ids). Prefer [`counter_runtime`] anywhere the
/// name is known at compile time.
pub fn counter_runtime_dyn(name: String, delta: u64) {
    if !is_enabled() {
        return;
    }
    add_local(intern(name), delta, true);
}

/// Process-lifetime intern table backing [`counter_runtime_dyn`]: the
/// counter buffers key by `&'static str`, so each distinct dynamic name is
/// leaked exactly once and reused thereafter.
fn intern(name: String) -> &'static str {
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut table = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    match table.iter().find(|n| **n == name) {
        Some(n) => n,
        None => {
            let leaked: &'static str = Box::leak(name.into_boxed_str());
            table.push(leaked);
            leaked
        }
    }
}

fn add_local(name: &'static str, delta: u64, runtime: bool) {
    with_scope(|s| {
        match s
            .buf
            .iter_mut()
            .find(|(n, _, r)| *n == name && *r == runtime)
        {
            Some((_, v, _)) => *v += delta,
            None => s.buf.push((name, delta, runtime)),
        }
    });
}

/// Non-destructive snapshot of the capture so far: still-open spans appear
/// with their elapsed-so-far durations. Buffered counters are attributed to
/// the innermost open span (where they would land anyway). `None` on a
/// thread that is not a capture's owner.
pub fn snapshot() -> Option<Trace> {
    if !is_enabled() {
        return None;
    }
    with_scope(|s| {
        s.fold();
        nest(s.stack.iter().map(OpenSpan::clone_open))
    })
    .flatten()
}

/// Fixed-point helper for recording a non-negative float (e.g. a loss) as a
/// deterministic integer counter, in micro-units.
#[inline]
pub fn micros_f32(v: f32) -> u64 {
    if v.is_finite() && v > 0.0 {
        (v as f64 * 1e6).round() as u64
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Trace model
// ---------------------------------------------------------------------------

/// Rendering/redaction mode recorded in the trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Everything: durations and runtime counters included.
    Full,
    /// Deterministic subset: durations zeroed, runtime counters stripped.
    /// Byte-identical across thread counts.
    Stable,
}

impl TraceMode {
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceMode::Full => "full",
            TraceMode::Stable => "stable",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(TraceMode::Full),
            "stable" => Some(TraceMode::Stable),
            _ => None,
        }
    }
}

/// One counter on a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    pub name: String,
    pub value: u64,
    /// Scheduling-dependent (see [`counter_runtime`]); stripped in stable mode.
    pub runtime: bool,
}

/// One node of the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub dur_ns: u64,
    /// Sorted by name (then runtime flag) at close.
    pub counters: Vec<Counter>,
    pub children: Vec<Span>,
}

impl Span {
    /// Counter value by name, searching this span only.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Depth-first search for the first descendant (or self) with `name`.
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// All spans (self and descendants) with `name`, in depth-first order.
    pub fn find_all<'a>(&'a self, name: &str, out: &mut Vec<&'a Span>) {
        if self.name == name {
            out.push(self);
        }
        for c in &self.children {
            c.find_all(name, out);
        }
    }
}

/// A complete versioned trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub schema: u32,
    pub mode: TraceMode,
    pub root: Span,
}

impl Trace {
    /// Deterministic redaction: durations zeroed, runtime counters removed.
    /// The stable rendering of a trace is the part pinned across thread
    /// counts by tests and embedded in `.ifet` artifacts.
    pub fn to_stable(&self) -> Trace {
        fn redact(s: &Span) -> Span {
            Span {
                name: s.name.clone(),
                dur_ns: 0,
                counters: s.counters.iter().filter(|c| !c.runtime).cloned().collect(),
                children: s.children.iter().map(redact).collect(),
            }
        }
        Trace {
            schema: self.schema,
            mode: TraceMode::Stable,
            root: redact(&self.root),
        }
    }

    fn span_to_value(s: &Span) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::String(s.name.clone())),
            ("dur_ns".to_string(), Value::Number(Number::U(s.dur_ns))),
            (
                "counters".to_string(),
                Value::Array(
                    s.counters
                        .iter()
                        .map(|c| {
                            Value::Object(vec![
                                ("name".to_string(), Value::String(c.name.clone())),
                                ("value".to_string(), Value::Number(Number::U(c.value))),
                                ("runtime".to_string(), Value::Bool(c.runtime)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "children".to_string(),
                Value::Array(s.children.iter().map(Self::span_to_value).collect()),
            ),
        ])
    }

    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "trace_schema".to_string(),
                Value::Number(Number::U(self.schema as u64)),
            ),
            (
                "mode".to_string(),
                Value::String(self.mode.as_str().to_string()),
            ),
            ("root".to_string(), Self::span_to_value(&self.root)),
        ])
    }

    /// Compact JSON. Deterministic: object fields are emitted in fixed order
    /// and counters were sorted at span close.
    pub fn to_json(&self) -> String {
        serde_json::write_compact(&self.to_value())
    }

    /// Indented JSON for `--trace` output files.
    pub fn to_json_pretty(&self) -> String {
        serde_json::write_pretty(&self.to_value())
    }

    /// Strict parser: rejects unknown or missing fields, wrong types, and
    /// documents from a newer schema. This is the fixture reader used by the
    /// schema-stability test — any field change must bump
    /// [`TRACE_SCHEMA_VERSION`] and be reflected here.
    pub fn from_json(text: &str) -> Result<Trace, TraceError> {
        let value =
            serde_json::parse_value(text).map_err(|e| TraceError(format!("bad JSON: {e}")))?;
        let pairs = expect_keys(&value, "trace", &["trace_schema", "mode", "root"])?;
        let schema = pairs[0]
            .1
            .as_u64()
            .ok_or_else(|| TraceError("trace_schema must be an unsigned integer".into()))?;
        if schema > TRACE_SCHEMA_VERSION as u64 {
            return Err(TraceError(format!(
                "trace schema {schema} is newer than supported {TRACE_SCHEMA_VERSION}"
            )));
        }
        let mode_str = pairs[1]
            .1
            .as_str()
            .ok_or_else(|| TraceError("mode must be a string".into()))?;
        let mode = TraceMode::parse(mode_str)
            .ok_or_else(|| TraceError(format!("unknown trace mode `{mode_str}`")))?;
        let root = Self::span_from_value(&pairs[2].1)?;
        Ok(Trace {
            schema: schema as u32,
            mode,
            root,
        })
    }

    fn span_from_value(v: &Value) -> Result<Span, TraceError> {
        let pairs = expect_keys(v, "span", &["name", "dur_ns", "counters", "children"])?;
        let name = pairs[0]
            .1
            .as_str()
            .ok_or_else(|| TraceError("span name must be a string".into()))?
            .to_string();
        let dur_ns = pairs[1]
            .1
            .as_u64()
            .ok_or_else(|| TraceError("dur_ns must be an unsigned integer".into()))?;
        let counters = pairs[2]
            .1
            .as_array()
            .ok_or_else(|| TraceError("counters must be an array".into()))?
            .iter()
            .map(Self::counter_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let children = pairs[3]
            .1
            .as_array()
            .ok_or_else(|| TraceError("children must be an array".into()))?
            .iter()
            .map(Self::span_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Span {
            name,
            dur_ns,
            counters,
            children,
        })
    }

    fn counter_from_value(v: &Value) -> Result<Counter, TraceError> {
        let pairs = expect_keys(v, "counter", &["name", "value", "runtime"])?;
        Ok(Counter {
            name: pairs[0]
                .1
                .as_str()
                .ok_or_else(|| TraceError("counter name must be a string".into()))?
                .to_string(),
            value: pairs[1]
                .1
                .as_u64()
                .ok_or_else(|| TraceError("counter value must be an unsigned integer".into()))?,
            runtime: pairs[2]
                .1
                .as_bool()
                .ok_or_else(|| TraceError("counter runtime must be a bool".into()))?,
        })
    }
}

/// Require `v` to be an object with exactly `keys`, in exactly that order.
/// Field order is part of the schema (the emitter is deterministic), so the
/// strict reader checks it too — reordering is an unannounced schema change.
fn expect_keys<'a>(
    v: &'a Value,
    what: &str,
    keys: &[&str],
) -> Result<&'a [(String, Value)], TraceError> {
    let pairs = v
        .as_object()
        .ok_or_else(|| TraceError(format!("{what} must be an object")))?;
    if pairs.len() != keys.len() {
        let got: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        return Err(TraceError(format!(
            "{what} must have exactly fields {keys:?}, got {got:?}"
        )));
    }
    for (i, key) in keys.iter().enumerate() {
        if pairs[i].0 != *key {
            return Err(TraceError(format!(
                "{what} field {i} must be `{key}`, got `{}`",
                pairs[i].0
            )));
        }
    }
    Ok(pairs)
}

/// Error from the strict trace reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace error: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------------------
// Profile summary
// ---------------------------------------------------------------------------

/// Aggregate the span tree by name into a `--profile` table: one row per
/// span name with call count, total/mean duration, and summed counters.
pub fn profile_table(trace: &Trace) -> String {
    struct Row {
        calls: u64,
        total_ns: u64,
        counters: Vec<(String, u64)>,
    }
    fn walk(s: &Span, rows: &mut Vec<(String, Row)>) {
        match rows.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, row)) => {
                row.calls += 1;
                row.total_ns += s.dur_ns;
                for c in &s.counters {
                    match row.counters.iter_mut().find(|(n, _)| *n == c.name) {
                        Some((_, v)) => *v += c.value,
                        None => row.counters.push((c.name.clone(), c.value)),
                    }
                }
            }
            None => rows.push((
                s.name.clone(),
                Row {
                    calls: 1,
                    total_ns: s.dur_ns,
                    counters: s
                        .counters
                        .iter()
                        .map(|c| (c.name.clone(), c.value))
                        .collect(),
                },
            )),
        }
        for c in &s.children {
            walk(c, rows);
        }
    }
    let mut rows: Vec<(String, Row)> = Vec::new();
    walk(&trace.root, &mut rows);

    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>7} {:>12} {:>12}  counters\n",
        "span", "calls", "total_ms", "mean_us"
    ));
    for (name, row) in &rows {
        let total_ms = row.total_ns as f64 / 1e6;
        let mean_us = row.total_ns as f64 / row.calls as f64 / 1e3;
        let counters = row
            .counters
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{name:<28} {:>7} {total_ms:>12.3} {mean_us:>12.1}  {counters}\n",
            row.calls
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn disabled_calls_are_inert() {
        assert!(!is_enabled());
        counter("nope", 1);
        counter_runtime("nope", 1);
        let _g = span("nope");
        drop(_g);
        let _obs = handle().enter();
        assert!(!is_enabled());
        assert!(snapshot().is_none());
    }

    #[test]
    fn capture_builds_nested_tree_with_merged_counters() {
        let ((), trace) = capture("root", || {
            counter("top", 1);
            {
                let _s = span("stage");
                counter("work", 2);
                counter("work", 3);
                counter_runtime("hits", 7);
                {
                    let _inner = span("inner");
                    counter("deep", 1);
                }
            }
            counter("top", 1);
        });
        assert_eq!(trace.schema, TRACE_SCHEMA_VERSION);
        assert_eq!(trace.root.name, "root");
        assert_eq!(trace.root.counter("top"), Some(2));
        let stage = trace.root.find("stage").expect("stage span");
        assert_eq!(stage.counter("work"), Some(5));
        assert_eq!(stage.counter("hits"), Some(7));
        assert_eq!(stage.children.len(), 1);
        assert_eq!(stage.children[0].name, "inner");
        assert_eq!(stage.children[0].counter("deep"), Some(1));
        assert!(!is_enabled());
    }

    #[test]
    fn worker_thread_counters_merge_into_enclosing_span() {
        let ((), trace) = capture("root", || {
            let _s = span("par");
            let obs = handle();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        let _obs = obs.enter();
                        counter("units", 1);
                    });
                }
            });
        });
        let par = trace.root.find("par").expect("par span");
        assert_eq!(par.counter("units"), Some(4));
    }

    #[test]
    fn worker_threads_cannot_open_spans() {
        let ((), trace) = capture("root", || {
            let obs = handle();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _obs = obs.enter();
                    let _s = span("worker-span");
                    counter("c", 1);
                });
            });
        });
        assert!(trace.root.find("worker-span").is_none());
        // The counter still lands (on the root).
        assert_eq!(trace.root.counter("c"), Some(1));
    }

    /// A work unit the scheduler runs on the owner enters the handle there;
    /// the owner's spans must stay live, or the tree would depend on the
    /// thread count.
    #[test]
    fn entering_on_the_owner_keeps_its_spans_live() {
        let ((), trace) = capture("root", || {
            let _obs = handle().enter();
            let _s = span("unit");
            counter("c", 1);
        });
        assert_eq!(trace.root.find("unit").unwrap().counter("c"), Some(1));
    }

    fn solo_trace() -> Trace {
        capture("root", || {
            let _s = span("stage");
            counter("own", 1);
        })
        .1
        .to_stable()
    }

    /// A thread outside the capture counts and opens a span while the
    /// capture runs; nothing of it may reach the trace.
    #[test]
    fn uncaptured_threads_do_not_reach_a_capture() {
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let stranger = thread::spawn(move || {
            go_rx.recv().unwrap();
            counter("leak", 1);
            drop(span("stranger"));
            done_tx.send(()).unwrap();
        });
        let ((), trace) = capture("root", || {
            go_tx.send(()).unwrap();
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            let _s = span("stage");
            counter("own", 1);
        });
        stranger.join().unwrap();
        assert_eq!(trace.to_stable(), solo_trace());
    }

    /// Two captures on two threads overlap: each waits inside its closure
    /// for the other to have started, and each trace holds only its own
    /// counters.
    #[test]
    fn captures_on_different_threads_are_independent() {
        let (a_tx, a_rx) = mpsc::channel::<()>();
        let (b_tx, b_rx) = mpsc::channel::<()>();
        let run = |name: &'static str, tx: mpsc::Sender<()>, rx: mpsc::Receiver<()>| {
            thread::spawn(move || {
                capture("root", || {
                    counter(name, 1);
                    tx.send(()).unwrap();
                    rx.recv_timeout(Duration::from_secs(5))
                        .expect("the other capture runs at the same time");
                    let _s = span("stage");
                    counter(name, 1);
                })
                .1
            })
        };
        let a = run("a", a_tx, b_rx);
        let b = run("b", b_tx, a_rx);
        for (name, other, trace) in [("a", "b", a.join()), ("b", "a", b.join())] {
            let trace = trace.expect("capture thread");
            assert_eq!(trace.root.counter(name), Some(1));
            assert_eq!(trace.root.find("stage").unwrap().counter(name), Some(1));
            assert_eq!(trace.root.counter(other), None);
            assert_eq!(trace.root.find("stage").unwrap().counter(other), None);
        }
    }

    #[test]
    fn handle_entered_after_its_capture_is_inert() {
        let (obs, _) = capture("root", handle);
        let _obs = obs.enter();
        assert!(!is_enabled());
        counter("late", 1);
        drop(span("late"));
        assert!(snapshot().is_none());
    }

    /// A nested capture shadows the outer one and restores it on return and
    /// on panic. Run off the test thread so a capture that cannot nest fails
    /// the test by timeout instead of hanging it.
    #[test]
    fn nested_capture_leaves_the_outer_counters_intact() {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let (inner, outer) = capture("outer", || {
                counter("before", 1);
                let (_, inner) = capture("inner", || counter("nested", 1));
                let panicked = std::panic::catch_unwind(|| {
                    capture("doomed", || {
                        counter("doomed", 1);
                        panic!("inside a nested capture")
                    })
                });
                assert!(panicked.is_err());
                counter("after", 1);
                inner
            });
            tx.send((inner, outer)).unwrap();
        });
        let (inner, outer) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(outer.root.counter("before"), Some(1));
        assert_eq!(outer.root.counter("after"), Some(1));
        assert_eq!(outer.root.counter("nested"), None);
        assert_eq!(outer.root.counter("doomed"), None);
        assert_eq!(inner.root.counter("nested"), Some(1));
        assert_eq!(inner.root.counter("before"), None);
    }

    #[test]
    fn stable_mode_strips_runtime_and_timing() {
        let ((), trace) = capture("root", || {
            let _s = span("stage");
            counter("det", 3);
            counter_runtime("sched", 9);
        });
        let stable = trace.to_stable();
        assert_eq!(stable.mode, TraceMode::Stable);
        assert_eq!(stable.root.dur_ns, 0);
        let stage = stable.root.find("stage").unwrap();
        assert_eq!(stage.dur_ns, 0);
        assert_eq!(stage.counter("det"), Some(3));
        assert_eq!(stage.counter("sched"), None);
        // Full trace keeps both.
        let full_stage = trace.root.find("stage").unwrap();
        assert_eq!(full_stage.counter("sched"), Some(9));
    }

    #[test]
    fn json_round_trip_and_strictness() {
        let ((), trace) = capture("root", || {
            let _s = span("stage");
            counter("b", 1);
            counter("a", 2);
            counter_runtime("a", 3);
        });
        let text = trace.to_json_pretty();
        let back = Trace::from_json(&text).expect("round trip");
        assert_eq!(back, trace);

        // Compact form round-trips too.
        assert_eq!(Trace::from_json(&trace.to_json()).unwrap(), trace);

        // Counters sorted: deterministic ones by name, runtime after its twin.
        let stage = back.root.find("stage").unwrap();
        let order: Vec<(&str, bool)> = stage
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.runtime))
            .collect();
        assert_eq!(order, vec![("a", false), ("a", true), ("b", false)]);
    }

    #[test]
    fn reader_rejects_unknown_fields_and_newer_schema() {
        let good = r#"{"trace_schema":1,"mode":"stable","root":{"name":"r","dur_ns":0,"counters":[],"children":[]}}"#;
        assert!(Trace::from_json(good).is_ok());

        let extra_top = r#"{"trace_schema":1,"mode":"stable","root":{"name":"r","dur_ns":0,"counters":[],"children":[]},"extra":1}"#;
        assert!(Trace::from_json(extra_top).is_err());

        let extra_span = r#"{"trace_schema":1,"mode":"stable","root":{"name":"r","dur_ns":0,"counters":[],"children":[],"self_ns":0}}"#;
        assert!(Trace::from_json(extra_span).is_err());

        let missing =
            r#"{"trace_schema":1,"root":{"name":"r","dur_ns":0,"counters":[],"children":[]}}"#;
        assert!(Trace::from_json(missing).is_err());

        let newer = r#"{"trace_schema":2,"mode":"stable","root":{"name":"r","dur_ns":0,"counters":[],"children":[]}}"#;
        assert!(Trace::from_json(newer).is_err());

        let bad_mode = r#"{"trace_schema":1,"mode":"verbose","root":{"name":"r","dur_ns":0,"counters":[],"children":[]}}"#;
        assert!(Trace::from_json(bad_mode).is_err());
    }

    #[test]
    fn snapshot_is_non_destructive() {
        let ((), trace) = capture("root", || {
            counter("before", 1);
            let snap = snapshot().expect("active capture");
            assert_eq!(snap.root.counter("before"), Some(1));
            counter("after", 1);
        });
        assert_eq!(trace.root.counter("before"), Some(1));
        assert_eq!(trace.root.counter("after"), Some(1));
    }

    #[test]
    fn profile_table_aggregates_by_name() {
        let ((), trace) = capture("root", || {
            for _ in 0..3 {
                let _s = span("round");
                counter("frontier", 10);
            }
        });
        let table = profile_table(&trace);
        assert!(table.contains("round"));
        assert!(table.contains("frontier=30"));
        let round_line = table.lines().find(|l| l.starts_with("round")).unwrap();
        assert!(round_line.contains("      3 "), "3 calls: {round_line}");
    }

    #[test]
    fn micros_helper() {
        assert_eq!(micros_f32(0.25), 250_000);
        assert_eq!(micros_f32(0.0), 0);
        assert_eq!(micros_f32(f32::NAN), 0);
        assert_eq!(micros_f32(-1.0), 0);
    }
}
