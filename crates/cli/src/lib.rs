//! Argument parsing and dispatch for the `ifet` CLI; see [`USAGE`].
//!
//! Each command family lives in its own module: `generate` (generate,
//! generate-flow), `incore` (info, suggest-keys, train-iatf, render),
//! `track`, `particles` (trace-particles), `session`, `classify`, and
//! `serve` (serve, client; Unix only). The paged commands open their series
//! through the one opener in `data`.
//!
//! Every subcommand additionally honours `--trace FILE` (versioned JSON
//! span tree), `--profile` (per-stage table on stderr), and
//! `--trace-mode full|stable` — see [`run`].

#![forbid(unsafe_code)]

mod classify;
mod data;
mod generate;
mod incore;
mod particles;
#[cfg(unix)]
mod serve;
mod session;
#[cfg(test)]
mod tests;
mod track;

use ifet_core::obs;
use ifet_core::pipeline;
use ifet_volume::FrameSource;
use std::collections::HashMap;
use std::str::FromStr;

/// Options that take no value; `--profile` alone means "print the profile",
/// `--compress` selects bricked compressed frame output, and `--adaptive`
/// asks `client render-slice` for IATF-modulated opacity.
const BOOL_FLAGS: &[&str] = &["profile", "compress", "adaptive", "seed-from-track"];

/// Every valued option some subcommand reads. Any other `--name` is
/// rejected, so a typo cannot silently take the next token as its value.
const VALUE_OPTIONS: &[&str] = &[
    "artifact",
    "axis",
    "band",
    "batch",
    "clf-epochs",
    "clf-hidden",
    "data",
    "dataspace-tau",
    "depth",
    "dims",
    "epochs",
    "flow",
    "frames",
    "hidden",
    "iatf",
    "k",
    "key",
    "max",
    "max-inflight",
    "max-requests",
    "ooc-cache",
    "ooc-cache-bytes",
    "out",
    "paint",
    "paint-seed",
    "prefetch",
    "requests",
    "rk4-dt",
    "rounds",
    "seed",
    "seed-grid",
    "session",
    "size",
    "socket",
    "step",
    "stride",
    "surrogate-epochs",
    "surrogate-hidden",
    "tau",
    "tenant",
    "tenant-quota-bytes",
    "threads",
    "trace",
    "trace-mode",
    "track-seed",
    "workers",
];

/// Parsed command line: subcommand, positional args, `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub command: String,
    pub positional: Vec<String>,
    pub options: HashMap<String, Vec<String>>,
}

/// Parse raw arguments (after the binary name). `--flag v` options may
/// repeat; repeated values accumulate. An option that is neither a known
/// boolean flag nor a known value option is an error.
pub fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut it = raw.iter().peekable();
    let command = it.next().ok_or("missing subcommand")?.clone();
    let mut positional = Vec::new();
    let mut options: HashMap<String, Vec<String>> = HashMap::new();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = if BOOL_FLAGS.contains(&name) {
                "true".to_string()
            } else if VALUE_OPTIONS.contains(&name) {
                it.next()
                    .ok_or_else(|| format!("option --{name} needs a value"))?
                    .clone()
            } else {
                return Err(format!("unknown option --{name}"));
            };
            options.entry(name.to_string()).or_default().push(value);
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Args {
        command,
        positional,
        options,
    })
}

impl Args {
    /// Single-valued option.
    pub(crate) fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .get(name)
            .and_then(|v| v.last())
            .map(|s| s.as_str())
    }

    /// Required single-valued option.
    pub(crate) fn require(&self, name: &str) -> Result<&str, String> {
        self.opt(name)
            .ok_or_else(|| format!("missing required --{name}"))
    }

    /// All values of a repeatable option.
    pub(crate) fn all(&self, name: &str) -> &[String] {
        self.options.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Presence of a valueless flag (see [`BOOL_FLAGS`]).
    pub(crate) fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// Optional single-valued option, parsed.
    pub(crate) fn opt_parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.opt(name)
            .map(|s| s.parse().map_err(|_| format!("invalid --{name}: {s:?}")))
            .transpose()
    }

    pub(crate) fn opt_parse<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt_parsed(name)?.unwrap_or(default))
    }
}

/// Parse `T:LO:HI` key-frame specs.
fn parse_key_spec(s: &str) -> Result<(u32, f32, f32), String> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("key spec must be T:LO:HI, got {s:?}"));
    }
    let t = parts[0].parse().map_err(|_| format!("bad step in {s:?}"))?;
    let lo = parts[1].parse().map_err(|_| format!("bad lo in {s:?}"))?;
    let hi: f32 = parts[2].parse().map_err(|_| format!("bad hi in {s:?}"))?;
    if hi <= lo {
        return Err(format!("key spec {s:?}: hi must exceed lo"));
    }
    Ok((t, lo, hi))
}

/// Parse `STEP:N` oracle-paint specs (paint N positive + N negative voxels
/// from the ground-truth sidecar of time step STEP).
fn parse_paint_spec(s: &str) -> Result<(u32, usize), String> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 2 {
        return Err(format!("paint spec must be STEP:N, got {s:?}"));
    }
    let t = parts[0].parse().map_err(|_| format!("bad step in {s:?}"))?;
    let n: usize = parts[1]
        .parse()
        .map_err(|_| format!("bad count in {s:?}"))?;
    if n == 0 {
        return Err(format!("paint spec {s:?}: count must be positive"));
    }
    Ok((t, n))
}

/// Parse an `X,Y,Z` triple; `what` names it in the error.
fn parse_xyz<T: FromStr>(what: &str, s: &str) -> Result<[T; 3], String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 3 {
        return Err(format!("{what} must be X,Y,Z, got {s:?}"));
    }
    let p = |i: usize| {
        parts[i]
            .parse()
            .map_err(|_| format!("bad coordinate in {s:?}"))
    };
    Ok([p(0)?, p(1)?, p(2)?])
}

/// Parse `X,Y,Z` voxel coordinates.
fn parse_voxel(s: &str) -> Result<(usize, usize, usize), String> {
    let [x, y, z] = parse_xyz("voxel", s)?;
    Ok((x, y, z))
}

/// Parse `LO:HI` bands.
fn parse_band(s: &str) -> Result<(f32, f32), String> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 2 {
        return Err(format!("band must be LO:HI, got {s:?}"));
    }
    let lo = parts[0].parse().map_err(|_| format!("bad lo in {s:?}"))?;
    let hi: f32 = parts[1].parse().map_err(|_| format!("bad hi in {s:?}"))?;
    if hi <= lo {
        return Err(format!("band {s:?}: hi must exceed lo"));
    }
    Ok((lo, hi))
}

/// The `--key T:LO:HI` specs, each checked against the series' steps.
fn key_specs(args: &Args, series: &dyn FrameSource) -> Result<Vec<(u32, f32, f32)>, String> {
    args.all("key")
        .iter()
        .map(|k| match parse_key_spec(k)? {
            (t, ..) if series.index_of_step(t).is_none() => Err(format!("step {t} not in series")),
            key => Ok(key),
        })
        .collect()
}

/// Run `f` on a pool of `--threads N` workers (0 or omitted: default
/// sizing). Output never depends on the worker count.
fn with_threads<T>(args: &Args, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match args.opt_parse("threads", 0usize)? {
        0 => f(),
        n => pipeline::pool_with_threads(n).install(f),
    }
}

/// Dispatch a parsed command, honouring the cross-cutting observability
/// options: `--trace FILE` writes the versioned span tree as JSON,
/// `--profile` prints an aggregate per-span table to stderr, and
/// `--trace-mode full|stable` picks between wall-clock timings and the
/// deterministic-counters-only form (default `full`).
pub fn run(args: &Args) -> Result<String, String> {
    let trace_path = args.opt("trace");
    let profile = args.flag("profile");
    if trace_path.is_none() && !profile {
        return dispatch(args);
    }
    let mode = match args.opt("trace-mode").unwrap_or("full") {
        "full" => obs::TraceMode::Full,
        "stable" => obs::TraceMode::Stable,
        other => return Err(format!("invalid --trace-mode {other:?} (full or stable)")),
    };
    let (result, trace) = obs::capture(command_root(&args.command), || dispatch(args));
    let trace = match mode {
        obs::TraceMode::Full => trace,
        obs::TraceMode::Stable => trace.to_stable(),
    };
    if let Some(path) = trace_path {
        std::fs::write(path, trace.to_json_pretty())
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    }
    if profile {
        eprintln!("{}", obs::profile_table(&trace));
    }
    result
}

/// Root span name for a subcommand ([`obs::capture`] wants a static name).
fn command_root(command: &str) -> &'static str {
    match command {
        "generate" => "ifet.generate",
        "generate-flow" => "ifet.generate-flow",
        "info" => "ifet.info",
        "train-iatf" => "ifet.train-iatf",
        "render" => "ifet.render",
        "track" => "ifet.track",
        "trace-particles" => "ifet.trace-particles",
        "session" => "ifet.session",
        "classify" => "ifet.classify",
        "suggest-keys" => "ifet.suggest-keys",
        "serve" => "ifet.serve",
        "client" => "ifet.client",
        _ => "ifet",
    }
}

fn dispatch(args: &Args) -> Result<String, String> {
    match args.command.as_str() {
        "generate" => generate::cmd_generate(args),
        "generate-flow" => generate::cmd_generate_flow(args),
        "info" => incore::cmd_info(args),
        "train-iatf" => incore::cmd_train_iatf(args),
        "render" => incore::cmd_render(args),
        "track" => track::cmd_track(args),
        "trace-particles" => particles::cmd_trace_particles(args),
        "session" => session::cmd_session(args),
        "classify" => classify::cmd_classify(args),
        "suggest-keys" => incore::cmd_suggest_keys(args),
        #[cfg(unix)]
        "serve" => serve::cmd_serve(args),
        #[cfg(unix)]
        "client" => serve::cmd_client(args),
        "help" | "--help" => Ok(USAGE.to_string()),
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    }
}

/// Usage text.
pub const USAGE: &str = "\
ifet — intelligent feature extraction and tracking for 4D flow data

USAGE:
  ifet generate <dataset> --out DIR [--dims N] [--seed S] [--compress]
  ifet info --data DIR
  ifet train-iatf --data DIR --key T:LO:HI [--key ...] [--epochs N] [--hidden N]
                  --out FILE
  ifet render --data DIR --step T (--iatf FILE | --band LO:HI) [--size N]
              [--batch N] --out FILE.ppm
  ifet track --data DIR --seed X,Y,Z [--threads N] [ooc options]
             (--iatf FILE [--tau V] | --band LO:HI | --session FILE --dataspace-tau V)
  ifet generate-flow <flow> --out DIR [--dims N] [--frames K] [--stride S]
                     [--compress]
  ifet trace-particles --flow DIR (--seed-grid N | --seed X,Y,Z ... |
                       --seed-from-track --data DIR --band LO:HI
                       --track-seed X,Y,Z) [--rk4-dt V] [--out FILE.plz]
                       [--surrogate-epochs N [--surrogate-hidden H]]
                       [--threads N] [ooc options]
  ifet session save --data DIR --out FILE [--key T:LO:HI ...] [--epochs N]
                    [--paint STEP:N ...] [--clf-epochs N] [--clf-hidden N]
                    [--paint-seed S]
                    [--seed X,Y,Z (--band LO:HI | --dataspace-tau V | --tau V)]
                    [--rounds N] [ooc options]
  ifet session load --data DIR --session FILE [ooc options]
  ifet session resume --data DIR --session FILE [--out FILE] [ooc options]
  ifet classify --data DIR --session FILE [--tau V] [--out DIR [--compress]]
                [ooc options]
  ifet suggest-keys --data DIR [--max N]
  ifet serve --socket PATH [--max-inflight N] [--max-requests N] [--workers N]
             [--tenant-quota-bytes B] [ooc options]
  ifet client <verb> --socket PATH [--tenant N] [verb options]

session service (serve / client):
  `serve` keeps many session artifacts resident at once, every tenant's
  frame data paged through ONE shared cache budget (--ooc-cache /
  --ooc-cache-bytes, default 8 frames). Requests from all connections are
  executed by a fixed pool of --workers threads (default 4); per-tenant
  admission is bounded by --max-inflight (default 4); requests beyond the
  bound are rejected with a typed Overloaded error, never queued.
  --tenant-quota-bytes B caps each open artifact's resident frame bytes at
  B on top of the global budget: a tenant over its quota evicts its OWN
  least-recent frames first, and global evictions prefer idle tenants'
  frames over actively-computing ones. --max-requests N exits after N
  answered requests (deterministic shutdown for scripts); a paging summary
  (high-water, evictions split by policy) is appended on exit.
  `client` verbs (tenant id rides with every request):
    open         --artifact FILE.ifet --data DIR
    classify     --step T [--tau V]
    track        --seed X,Y,Z (--band LO:HI | --dataspace-tau V | [--tau V])
    render-slice --step T [--axis x|y|z] [--k K] [--adaptive] [--out FILE.ppm]
    report-stats
    close
    bench        --artifact FILE.ifet --data DIR [--requests N] [--depth D]
                 [--seed S]   pipelined load generator: opens, negotiates a
                 hello handshake, keeps D requests outstanding, reports
                 req/s and the admission counter algebra

particle tracing (generate-flow / trace-particles):
  `generate-flow` writes an analytic velocity field (uniform, rotation, or
  swirl) as three scalar component series — <flow>_u/_v/_w frame files —
  that `trace-particles` advects a particle ensemble through with RK4
  (trilinear in space, linear between frames; --rk4-dt caps the step).
  Seeds come from a regular --seed-grid N (N per axis), explicit repeated
  --seed X,Y,Z positions, and/or --seed-from-track, which grows the feature
  at --track-seed in the scalar series at --data with the fixed --band and
  drops a particle at every voxel of its frame-0 mask. --out FILE writes
  the versioned, CRC-guarded pathline artifact (+ JSON sidecar);
  --surrogate-epochs N trains the MLP flow-map surrogate
  (seed, t0, dt) -> endpoint on the integrated pathlines and reports its
  held-out endpoint error in voxels. Pathline bytes are identical across
  --threads, cache budgets, and storage flavors; with an ooc budget each
  velocity component pages through its own cache of the requested size.

ray packets (render):
  --batch N             samples per ray packet (0 or omitted = auto). Output
                        is bit-identical at every width; this is purely a
                        throughput knob.

out-of-core options (track, trace-particles, session, classify):
  --ooc-cache N         page frames from disk through an N-frame LRU cache
                        instead of loading the series in core; results are
                        byte-identical, and a paging summary (resident
                        high-water in frames and bytes, hits/misses/
                        evictions) is appended
  --ooc-cache-bytes B   same, but the budget is B bytes of frame data
                        (mutually exclusive with --ooc-cache); eviction is
                        charged by actual frame size
  --prefetch D          read up to D upcoming frames in the background while
                        the current window computes; in-flight reads are
                        charged against the cache budget, so the bound holds

compressed frame storage (generate, classify --out):
  --compress            write frames as bricked, CRC-guarded compressed
                        .rawz containers instead of raw .raw payloads; all
                        readers decode them transparently and byte budgets
                        charge frames at their (smaller) compressed size

observability (any subcommand):
  --trace FILE          write a versioned JSON span tree of the run
  --profile             print an aggregate per-span profile table to stderr
  --trace-mode MODE     full (timings, default) or stable (deterministic
                        counters only; timings zeroed, runtime counters dropped)

datasets: shock-bubble, combustion-jet, reionization, turbulent-vortex,
          swirling-flow, qg-turbulence";
