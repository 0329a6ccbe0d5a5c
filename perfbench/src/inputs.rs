//! Input generation and loading.
//!
//! `gen` turns a workload seed into files: frame series, ground truth, a
//! trained `.ifet` artifact where the workload starts from one, and a small
//! `spec.txt`. The measuring process reads only those files, so generation
//! never counts toward set-up time or peak memory.

use ifet_core::prelude::*;
use ifet_sim::flows::{flow_series, FlowKind};
use ifet_sim::shock_bubble::{shock_bubble_with, ShockBubbleParams};
use ifet_volume::io::{write_series, write_series_with};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// splitmix64: a cheap, well-mixed deterministic hash of a seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded sequence of `mix` outputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over the bit patterns of a float slice: "byte-identical" checks
/// compare these digests.
pub fn digest(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Input sizes: the full benchmark, or the self-test's tiny variant.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Grid edge of the playback, analyze and track series.
    pub n: usize,
    /// Grid edge of each serve tenant's series.
    pub serve_n: usize,
    /// Step stride over the shock-bubble range 195..=255.
    pub stride: u32,
    /// Image edge for playback renders.
    pub image: usize,
    pub iatf_epochs: usize,
    pub clf_epochs: usize,
    /// Paint strokes per sign per painted frame.
    pub paints: usize,
    /// Particles seeded per track query, at most.
    pub particles: usize,
    /// Requests in each serve tenant's pool.
    pub serve_pool: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Self {
        if quick {
            Self {
                n: 48,
                serve_n: 16,
                stride: 15,
                image: 32,
                iatf_epochs: 40,
                clf_epochs: 120,
                paints: 60,
                particles: 32,
                serve_pool: 10,
            }
        } else {
            Self {
                n: 64,
                serve_n: 32,
                stride: 5,
                image: 128,
                iatf_epochs: 600,
                clf_epochs: 120,
                paints: 120,
                particles: 512,
                serve_pool: 48,
            }
        }
    }

    pub fn frames(&self) -> usize {
        (60 / self.stride) as usize + 1
    }
}

/// Opacity threshold of every adaptive-TF criterion in the benchmark.
pub const TAU: f32 = 0.5;

/// RK4 target step of the track workload's advection.
pub const RK4_DT: f64 = 1.0;

/// The contents of `spec.txt`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
}

impl Spec {
    pub fn sizes(&self) -> Sizes {
        Sizes::new(self.quick)
    }

    pub fn write(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let text = format!(
            "workload={}\nseed={}\nquick={}\n",
            self.workload,
            self.seed,
            u8::from(self.quick)
        );
        std::fs::write(dir.join("spec.txt"), text).map_err(|e| e.to_string())
    }

    pub fn read(dir: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(dir.join("spec.txt"))
            .map_err(|e| format!("{}: {e} (run `gen` first)", dir.display()))?;
        let kv: BTreeMap<&str, &str> = text.lines().filter_map(|l| l.split_once('=')).collect();
        let get = |k: &str| kv.get(k).copied().ok_or(format!("spec.txt lacks {k}"));
        Ok(Self {
            workload: get("workload")?.to_string(),
            seed: get("seed")?.parse().map_err(|_| "bad seed in spec.txt")?,
            quick: get("quick")? == "1",
        })
    }
}

/// Sorted `.raw`/`.rawz` frame files of a directory.
pub fn frame_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| matches!(p.extension().and_then(|e| e.to_str()), Some("raw" | "rawz")))
        .collect();
    if paths.is_empty() {
        return Err(format!("no frames in {}", dir.display()));
    }
    paths.sort();
    Ok(paths)
}

/// The shock-bubble dataset: the generator's default noise field, or a
/// second one for `variant` 1. The dataset stays fixed across workload
/// seeds, because the work its noise implies (opaque ray samples, feature
/// size) would otherwise swamp what a benchmark run should measure; the seed
/// varies what a user varies instead (see `generate`).
fn bubble(sizes: &Sizes, n: usize, variant: u64) -> (LabeledSeries, ShockBubbleParams) {
    let p = ShockBubbleParams {
        dims: Dims3::cube(n),
        stride: sizes.stride,
        seed: ShockBubbleParams::default().seed ^ variant,
        ..Default::default()
    };
    (shock_bubble_with(p), p)
}

/// The IATF training parameters. Training keeps the library's default
/// seed: the trained network decides how much of each frame is opaque, and
/// across training seeds that moved playback's render time 4x.
pub fn iatf_params(sizes: &Sizes) -> IatfParams {
    IatfParams {
        epochs: sizes.iatf_epochs,
        ..Default::default()
    }
}

/// The user's key frames as `(step, lo, hi)`: the ring's value band at the
/// first and last step.
fn ring_keys(series: &TimeSeries, p: &ShockBubbleParams) -> Vec<(u32, f32, f32)> {
    let steps = series.steps();
    [0usize, steps.len() - 1]
        .iter()
        .map(|&i| {
            let (lo, hi) = p.ring_band(i as f32 / (steps.len() - 1) as f32);
            (steps[i], lo, hi)
        })
        .collect()
}

/// Key frames as band transfer functions over the global value `range`.
pub fn band_tfs(keys: &[(u32, f32, f32)], range: (f32, f32)) -> Vec<(u32, TransferFunction1D)> {
    keys.iter()
        .map(|&(t, lo, hi)| (t, TransferFunction1D::band(range.0, range.1, lo, hi, 1.0)))
        .collect()
}

/// Key frames written as `step lo hi` lines by `generate`.
pub fn read_keys(dir: &Path) -> Result<Vec<(u32, f32, f32)>, String> {
    let text = std::fs::read_to_string(dir.join("keys.txt")).map_err(|e| e.to_string())?;
    text.lines()
        .map(|l| {
            let bad = || format!("bad key line {l:?}");
            let f: Vec<&str> = l.split_whitespace().collect();
            match f[..] {
                [t, lo, hi] => Ok((
                    t.parse().map_err(|_| bad())?,
                    lo.parse().map_err(|_| bad())?,
                    hi.parse().map_err(|_| bad())?,
                )),
                _ => Err(bad()),
            }
        })
        .collect()
}

fn write_truth(dir: &Path, ls: &LabeledSeries, compress: bool) -> Result<(), String> {
    let truth = TimeSeries::from_frames(
        ls.series
            .steps()
            .iter()
            .zip(&ls.truth)
            .map(|(&t, m)| (t, m.to_volume()))
            .collect(),
    );
    write_series_with(dir, "truth", &truth, compress)
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Train and save the artifact a served or loaded session starts from.
fn save_artifact(
    path: &Path,
    ls: &LabeledSeries,
    p: &ShockBubbleParams,
    sizes: &Sizes,
    seed: u64,
    iatf: bool,
    classifier: bool,
) -> Result<(), String> {
    let mut s = VisSession::new(ls.series.clone()).map_err(|e| e.to_string())?;
    if iatf {
        for (t, tf) in band_tfs(&ring_keys(&ls.series, p), ls.series.global_range()) {
            s.add_key_frame(t, tf);
        }
        s.train_iatf(iatf_params(sizes));
    }
    if classifier {
        let mut oracle = PaintOracle::new(mix(seed ^ 0x9A17));
        oracle.slice_stride = 1;
        let steps = ls.series.steps().to_vec();
        for i in [0, steps.len() / 2, steps.len() - 1] {
            let paints =
                oracle.paint_from_truth(steps[i], &ls.truth[i], sizes.paints, sizes.paints);
            s.add_paints(paints).map_err(|e| e.to_string())?;
        }
        s.train_classifier(
            FeatureSpec::default(),
            ClassifierParams {
                epochs: sizes.clf_epochs,
                seed: mix(seed ^ 0xDA7A),
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?;
    }
    s.save(path).map_err(|e| e.to_string())
}

/// Generate every input of `spec.workload` into `dir`. The seed picks the
/// painted voxels and classifier training seed (`analyze`, `serve`); the
/// viewer's path (`playback`), the queries (`track`) and the request pools
/// (`serve`) derive from it at run time.
pub fn generate(dir: &Path, spec: &Spec) -> Result<(), String> {
    let sz = spec.sizes();
    let seed = spec.seed;
    let io = |e: ifet_volume::io::IoError| e.to_string();
    match spec.workload.as_str() {
        "playback" => {
            let (ls, p) = bubble(&sz, sz.n, 0);
            write_series(&dir.join("data"), "bubble", &ls.series).map_err(io)?;
            write_truth(&dir.join("truth"), &ls, false)?;
            let keys: String = ring_keys(&ls.series, &p)
                .iter()
                .map(|(t, lo, hi)| format!("{t} {lo:?} {hi:?}\n"))
                .collect();
            std::fs::write(dir.join("keys.txt"), keys).map_err(|e| e.to_string())?;
        }
        "analyze" => {
            let (ls, p) = bubble(&sz, sz.n, 0);
            write_series_with(&dir.join("data"), "bubble", &ls.series, true).map_err(io)?;
            write_truth(&dir.join("truth"), &ls, true)?;
            save_artifact(&dir.join("session.ifet"), &ls, &p, &sz, seed, false, true)?;
        }
        "track" => {
            let (ls, p) = bubble(&sz, sz.n, 0);
            write_series(&dir.join("data"), "bubble", &ls.series).map_err(io)?;
            write_truth(&dir.join("truth"), &ls, false)?;
            save_artifact(&dir.join("session.ifet"), &ls, &p, &sz, seed, true, false)?;
            let swirl = FlowKind::parse("swirl").expect("swirl is a known flow");
            let flow = flow_series(swirl, Dims3::cube(sz.n), sz.frames(), sz.stride);
            for (name, comp) in ["u", "v", "w"].iter().zip(flow.components()) {
                write_series(&dir.join("flow").join(name), name, comp).map_err(io)?;
            }
        }
        "serve" => {
            for (k, tenant) in ["a", "b"].iter().enumerate() {
                let (ls, p) = bubble(&sz, sz.serve_n, k as u64);
                let tdir = dir.join(tenant);
                write_series(&tdir.join("data"), "bubble", &ls.series).map_err(io)?;
                write_truth(&tdir.join("truth"), &ls, false)?;
                let tseed = mix(seed ^ k as u64);
                save_artifact(&tdir.join("session.ifet"), &ls, &p, &sz, tseed, true, true)?;
            }
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    spec.write(dir)
}
