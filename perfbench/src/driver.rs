//! The measuring process: set-up repetitions, the timed phases, and the
//! metric sets. Workloads plug in through [`Bench`].

use crate::inputs::Spec;
use crate::report::{self, Measured, OpSample, Phase, Report};
use crate::spans::{self, SpanRec};
use crate::stats;
use ifet_core::prelude::pipeline;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// A timed phase runs at least this many ops, so p90 has ten samples
/// beyond it.
pub const MIN_OPS: usize = 100;

/// ... and is cut at this multiple of its planned length, so a run on a
/// starved host (or of a program more than this many times slower) still
/// ends inside the invocation's time limit.
pub const MAX_STRETCH: f64 = 4.0;

/// Layers whose share of op time the traced run reports, with the metric
/// each share goes to. `bench` is the benchmark's own glue between calls.
const SHARES: [(&str, &str); 8] = [
    ("volume", "share.volume_pct"),
    ("tf", "share.tf_pct"),
    ("render", "share.render_pct"),
    ("extract", "share.extract_pct"),
    ("track", "share.track_pct"),
    ("trace", "share.trace_pct"),
    ("serve", "share.serve_pct"),
    ("bench", "share.bench_pct"),
];

/// Every per-layer metric, in emission order: `(name, unit)`. Metrics a
/// workload cannot observe read 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("volume.frame_s", "s/op"),
    ("volume.frame_calls", "count/op"),
    ("volume.miss_ratio", "ratio"),
    ("volume.bytes_paged", "B/op"),
    ("volume.evictions", "count/op"),
    ("volume.read_retries", "count/op"),
    ("volume.sink_put_s", "s/op"),
    ("volume.bytes_written", "B/op"),
    ("volume.high_water_bytes", "B"),
    ("tf.generate_s", "s/op"),
    ("tf.generate_calls", "count/op"),
    ("render.raycast_s", "s/op"),
    ("render.overlay_s", "s/op"),
    ("render.mpixel_per_s", "Mpx/s"),
    ("extract.classify_s", "s/op"),
    ("extract.mvoxel_per_s", "Mvox/s"),
    ("track.grow_s", "s/op"),
    ("track.grown_voxels", "count/op"),
    ("trace.advect_s", "s/op"),
    ("trace.particle_steps", "count/op"),
    ("trace.msteps_per_s", "Msteps/s"),
    ("core.session_load_s", "s"),
    ("core.iatf_train_s", "s"),
    ("serve.classify_p50_ms", "ms"),
    ("serve.render_slice_p50_ms", "ms"),
    ("serve.track_p50_ms", "ms"),
    ("serve.engine_p50_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.jobs_per_cycle", "ratio"),
    ("serve.batch_rows", "count/op"),
    ("serve.rejected", "count"),
    ("share.volume_pct", "%"),
    ("share.tf_pct", "%"),
    ("share.render_pct", "%"),
    ("share.extract_pct", "%"),
    ("share.track_pct", "%"),
    ("share.trace_pct", "%"),
    ("share.serve_pct", "%"),
    ("share.bench_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.traced_ops", "count"),
    ("bench.nproc", "count"),
];

/// Spans whose per-op self time (and call count) become per-layer metrics.
const SPAN_METRICS: [(&str, &str, Option<&str>); 8] = [
    ("volume.frame", "volume.frame_s", Some("volume.frame_calls")),
    ("volume.sink_put", "volume.sink_put_s", None),
    ("tf.generate", "tf.generate_s", Some("tf.generate_calls")),
    ("render.raycast", "render.raycast_s", None),
    ("render.overlay", "render.overlay_s", None),
    ("extract.classify_series", "extract.classify_s", None),
    ("track.grow", "track.grow_s", None),
    ("trace.advect", "trace.advect_s", None),
];

/// Worker threads for every parallel stage: the host's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The length of a timed phase: a fixed number of ops, so `wall_s` is the
/// program's own time for a fixed amount of work.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub ops: usize,
    /// The phase stops early once this many seconds have passed.
    pub cap_s: f64,
}

/// One timed step: busy seconds and the ops it completed.
pub struct Step {
    pub busy_s: f64,
    pub samples: Vec<OpSample>,
}

pub trait Bench: Sized {
    /// Reference results the checks compare against; built once per run
    /// and kept out of `setup_s` and `peak_rss_mb`.
    type Oracle;

    fn prepare(dir: &Path, spec: &Spec) -> Result<Self::Oracle, String>;

    /// Ops per second on the reference host (2 vCPUs): a phase of
    /// `--seconds` runs `--seconds × RATE` ops, and so lasts about
    /// `--seconds` there.
    const RATE: f64;

    /// One complete program set-up, warm-up included.
    fn setup(dir: &Path, spec: &Spec, o: &Self::Oracle) -> Result<Self, String>;

    /// A timed phase of `plan.ops` ops. With `trace`, spans are recorded
    /// for about half of them, interleaved with the other half so both
    /// halves see the same conditions.
    fn phase(&mut self, o: &Self::Oracle, plan: Plan, trace: bool) -> Result<Measured, String>;

    /// Snapshot counters at the start of the traced phase.
    fn mark(&mut self) {}

    /// Workload-specific per-layer metrics of the traced phase `m`: counts
    /// kept only while spans are on are per traced op, counter deltas over
    /// the whole phase are per op of both halves.
    fn layers(
        &mut self,
        o: &Self::Oracle,
        m: &Measured,
        spans: &[SpanRec],
        out: &mut BTreeMap<&'static str, f64>,
    );

    /// Release what set-up started (servers, threads).
    fn finish(self) -> Result<(), String> {
        Ok(())
    }
}

/// Run `step` (one or more ops each) until `plan.ops` ops, rounded up to
/// whole blocks of `block` steps, have completed. With `trace`, spans are
/// recorded for every second block; a workload whose steps follow a cycle
/// passes its cycle length, so both halves see the same mix.
pub fn run_steps(
    plan: Plan,
    trace: bool,
    block: u64,
    mut step: impl FnMut(u64) -> Result<Step, String>,
) -> Result<Measured, String> {
    let start = Instant::now();
    let target = plan.ops.next_multiple_of(block as usize);
    let mut m = Measured::default();
    let mut k = 0;
    while m.ops() < target && start.elapsed().as_secs_f64() < plan.cap_s {
        let traced = trace && (k / block) % 2 == 1;
        spans::set_enabled(traced);
        let s = step(k);
        spans::set_enabled(false);
        let s = s?;
        let ph = if traced { &mut m.traced } else { &mut m.plain };
        ph.busy_s += s.busy_s;
        ph.samples.extend(s.samples);
        k += 1;
    }
    Ok(m)
}

pub struct RunOpts {
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub git_rev: String,
}

pub fn drive<B: Bench>(dir: &Path, spec: &Spec, opts: &RunOpts) -> Result<Report, String> {
    pipeline::pool_with_threads(nproc()).install(|| drive_pinned::<B>(dir, spec, opts))
}

fn drive_pinned<B: Bench>(dir: &Path, spec: &Spec, opts: &RunOpts) -> Result<Report, String> {
    let min_ops = if spec.quick { 20 } else { MIN_OPS };
    let plan = Plan {
        ops: ((opts.seconds * B::RATE).ceil() as usize).max(min_ops),
        cap_s: MAX_STRETCH * opts.seconds,
    };
    let oracle = B::prepare(dir, spec)?;
    report::reset_peak_rss();

    let mut setup_s = Vec::new();
    let mut setup_spans: Vec<Vec<SpanRec>> = Vec::new();
    let mut bench: Option<B> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = bench.take() {
            prev.finish()?;
        }
        spans::set_enabled(opts.trace);
        let t0 = Instant::now();
        let b = B::setup(dir, spec, &oracle)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        spans::set_enabled(false);
        setup_spans.push(spans::take());
        bench = Some(b);
    }
    let mut b = bench.expect("at least one set-up");
    eprintln!(
        "setup_s per repetition: {:?}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    );

    let mut r = Report::default();
    if !opts.trace {
        let ph = b.phase(&oracle, plan, false)?.plain;
        if ph.ops() < plan.ops {
            eprintln!(
                "note: the phase was cut at {:.0} s after {} of {} ops",
                plan.cap_s,
                ph.ops(),
                plan.ops
            );
        }
        report::end_to_end(&mut r, &setup_s, &ph);
        r.attempted = ph.ops() as u64;
        r.failed = ph.failed() as u64;
        eprintln!(
            "{} ops, {} failed, wall {:.3} s",
            ph.ops(),
            ph.failed(),
            ph.busy_s
        );
    } else {
        b.mark();
        let measured = b.phase(&oracle, plan, true)?;
        let (plain, traced) = (&measured.plain, &measured.traced);
        let all = spans::take();
        let mut m = BTreeMap::new();
        span_metrics(&all, &setup_spans, traced, &mut m);
        b.layers(&oracle, &measured, &all, &mut m);
        m.insert(
            "bench.trace_overhead_pct",
            100.0 * (stats::ratio(plain.throughput(), traced.throughput()) - 1.0),
        );
        m.insert("bench.traced_ops", traced.ops() as f64);
        m.insert("bench.nproc", nproc() as f64);
        for (name, unit) in PER_LAYER {
            r.put(name, m.get(name).copied().unwrap_or(0.0), unit);
        }
        r.attempted = measured.ops() as u64;
        r.failed = measured.failed() as u64;
        if let Some(path) = &opts.trace_out {
            let header = format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"git_rev\": \"{}\", \
                 \"traced_ops\": {}, \"untraced_ops\": {}}}",
                spec.workload,
                spec.seed,
                nproc(),
                opts.git_rev,
                traced.ops(),
                plain.ops()
            );
            spans::write_jsonl(path, &header, &all).map_err(|e| e.to_string())?;
        }
    }
    b.finish()?;
    Ok(r)
}

/// Span-derived metrics: per-op self time and calls of the layer spans,
/// layer shares of op time, and set-up spans' median durations.
fn span_metrics(
    all: &[SpanRec],
    setup: &[Vec<SpanRec>],
    ph: &Phase,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let ops = ph.ops() as f64;
    let by_name = spans::self_by_name(all);
    for (span, secs, calls) in SPAN_METRICS {
        let (n, s) = by_name.get(span).copied().unwrap_or((0, 0.0));
        m.insert(secs, stats::ratio(s, ops));
        if let Some(c) = calls {
            m.insert(c, stats::ratio(n as f64, ops));
        }
    }
    // Shares: layer self time over the time the root spans cover.
    let total: f64 = all
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum();
    let by_layer = spans::self_by_layer(all);
    for (layer, key) in SHARES {
        let own = by_layer.get(layer).copied().unwrap_or(0.0);
        m.insert(key, stats::share_pct(own, total));
    }
    for (span, metric) in [
        ("core.session_load", "core.session_load_s"),
        ("core.iatf_train", "core.iatf_train_s"),
    ] {
        let per_rep: Vec<f64> = setup
            .iter()
            .filter_map(|rep| {
                let d: u64 = rep
                    .iter()
                    .filter(|s| s.name == span)
                    .map(SpanRec::dur_ns)
                    .sum();
                (d > 0).then_some(d as f64 * 1e-9)
            })
            .collect();
        m.insert(metric, stats::median(&per_rep).unwrap_or(0.0));
    }
}
