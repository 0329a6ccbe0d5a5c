//! Outside-in span recorder.
//!
//! Spans are opened by the benchmark around its calls into the program's
//! public functions (and by the frame source/sink wrappers in `timed`), kept
//! in memory, and written out once the run ends. A span's parent is the
//! innermost span open on the same thread; its op id names the operation it
//! served. Recording is off unless [`set_enabled`] turned it on, and a
//! disabled span costs one relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<SpanRec>> {
    SPANS
        .lock()
        .expect("span store poisoned by a panicking recorder")
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag spans opened on this thread with operation id `op`.
pub fn set_op(op: u64) {
    OP.with(|c| c.set(op));
}

/// Open a span; it closes when the guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let rec = SpanRec {
        name,
        start_ns: now_ns(),
        end_ns: 0,
        parent,
        op: OP.with(Cell::get),
    };
    let id = {
        let mut all = spans();
        all.push(rec);
        all.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard(Some(id))
}

/// Record an interval measured elsewhere (a pipelined request, say) as a
/// root span of operation `op`.
pub fn record(name: &'static str, start: Instant, end: Instant, op: u64) {
    if !enabled() {
        return;
    }
    let ns = |t: Instant| t.saturating_duration_since(epoch()).as_nanos() as u64;
    spans().push(SpanRec {
        name,
        start_ns: ns(start),
        end_ns: ns(end),
        parent: None,
        op,
    });
}

/// Run `f` inside a span named `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = span(name);
    f()
}

pub struct SpanGuard(Option<usize>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            let end = now_ns();
            spans()[id].end_ns = end;
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.last() == Some(&id) {
                    s.pop();
                }
            });
        }
    }
}

/// Drain every recorded span.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *spans())
}

/// Self time of each span: its duration minus the part of its interval that
/// its children cover (overlapping children count once).
pub fn self_ns(all: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); all.len()];
    for s in all {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    all.iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(calls, total self seconds)`.
pub fn self_by_name(all: &[SpanRec]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for (s, ns) in all.iter().zip(self_ns(all)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += ns as f64 * 1e-9;
    }
    out
}

/// Per layer: total self seconds.
pub fn self_by_layer(all: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, ns) in all.iter().zip(self_ns(all)) {
        *out.entry(s.layer()).or_default() += ns as f64 * 1e-9;
    }
    out
}

/// Write spans as JSON lines after a one-line JSON header.
pub fn write_jsonl(path: &Path, header: &str, all: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{header}")?;
    for (i, s) in all.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = vec![
            rec("op", 0, 100, None),
            rec("render.raycast", 10, 60, Some(0)),
            rec("volume.frame", 20, 30, Some(1)),
            // Two overlapping children of the root count once: [70, 95).
            rec("tf.generate", 70, 90, Some(0)),
            rec("tf.generate", 80, 95, Some(0)),
            // A child poking out of its parent is clipped to it.
            rec("volume.frame", 55, 120, Some(1)),
        ];
        let own = self_ns(&all);
        assert_eq!(own[0], 100 - 50 - 25);
        assert_eq!(own[1], 50 - 10 - 5);
        assert_eq!(own[2], 10);
        assert_eq!(own[3], 20);
        let layers = self_by_layer(&all);
        assert!((layers["render"] - 35e-9).abs() < 1e-15);
        assert_eq!(self_by_name(&all)["tf.generate"].0, 2);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_nesting_sets_parents() {
        // One test owns the global recorder so parallel tests cannot race it.
        set_enabled(false);
        drop(span("op"));
        assert!(take().is_empty());

        set_enabled(true);
        set_op(7);
        {
            let _a = span("op");
            timed("render.raycast", || drop(span("volume.frame")));
        }
        set_enabled(false);
        let all = take();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert!(all.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
    }
}
