//! RK4 pathline advection through a streamed 4D velocity series.
//!
//! The velocity field arrives as three scalar component series (u, v, w)
//! behind [`FrameSource`], so advection pages exactly like the rest of the
//! pipeline: frames are walked in ascending time via
//! [`ifet_volume::walk_frame_pairs`], holding only the two bracketing frames
//! of each component (plus a prefetch in flight) no matter how long the
//! series is.
//!
//! Numerics: classical RK4 with velocity sampled by trilinear interpolation
//! in space and linear interpolation in time between the bracketing frames.
//! Particle state is `f64` (field values are `f32`): the integrator's own
//! O(dt⁴) error is the quantity the analytic test battery measures, and it
//! reaches well below `f32` resolution on the rigid-rotation oracle.
//!
//! Determinism: each particle integrates independently from its seed, and
//! per-interval results are collected in particle-index order — so pathline
//! bytes are identical for any thread count, cache capacity, prefetch depth,
//! or storage flavor. Step counts depend only on the step schedule and dt,
//! so `trace.steps` is a *stable* counter; anything schedule-dependent is
//! reported runtime-only.

use crate::TraceError;
use ifet_obs as obs;
use ifet_volume::sample::axis_cell_f64;
use ifet_volume::{walk_frame_pairs, Dims3, FrameSource, ScalarVolume};
use rayon::prelude::*;

/// Integration parameters for [`advect`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceParams {
    /// Target RK4 step, in the units of the series' step labels. Each frame
    /// interval takes `ceil(interval / rk4_dt)` equal substeps, so samples
    /// never straddle a frame pair and the substep schedule is a pure
    /// function of (steps, dt).
    pub rk4_dt: f64,
}

impl Default for TraceParams {
    fn default() -> Self {
        Self { rk4_dt: 1.0 }
    }
}

/// Why a particle stopped where it did. Leaving the domain (or hitting
/// non-finite data) is an expected outcome of advection near boundaries,
/// so it is an *ending*, not an error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParticleEnding {
    /// Integrated through the whole series.
    Completed,
    /// Stepped outside the voxel-index domain `[0, n-1]³` at time `time`
    /// (step-label units); the pathline keeps its last in-domain points.
    LeftDomain { time: f64 },
    /// Produced a non-finite position at time `time` (NaN/∞ in the data).
    NonFinite { time: f64 },
}

/// One particle's trajectory: its seed, the positions recorded at each
/// frame step it survived to, and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct Pathline {
    pub seed: [f64; 3],
    /// `points[k]` is the position at `steps[k]`; `points[0] == seed`.
    /// Shorter than the full schedule iff the particle ended early.
    pub points: Vec<[f64; 3]>,
    pub ending: ParticleEnding,
}

impl Pathline {
    /// The last recorded position (the integrated flow-map endpoint for
    /// completed particles).
    pub fn endpoint(&self) -> [f64; 3] {
        *self.points.last().expect("pathline always holds its seed")
    }
}

/// The result of one advection run over a whole series.
#[derive(Debug, Clone, PartialEq)]
pub struct PathlineSet {
    pub dims: Dims3,
    /// Step labels of the series the particles were advected through.
    pub steps: Vec<u32>,
    /// The RK4 target step the run used.
    pub rk4_dt: f64,
    pub pathlines: Vec<Pathline>,
}

impl PathlineSet {
    /// Particles that integrated through the whole series.
    pub fn completed(&self) -> usize {
        self.pathlines
            .iter()
            .filter(|p| p.ending == ParticleEnding::Completed)
            .count()
    }
}

/// Velocity at an arbitrary point inside one frame interval: trilinear in
/// space per component, linear in time between the bracketing frames.
struct PairSampler<'a> {
    lo: [&'a [f32]; 3],
    hi: [&'a [f32]; 3],
    t0: f64,
    inv_span: f64,
    dims: Dims3,
}

impl<'a> PairSampler<'a> {
    fn new(lo: [&'a ScalarVolume; 3], hi: [&'a ScalarVolume; 3], t0: f64, t1: f64) -> Self {
        Self {
            lo: lo.map(ScalarVolume::as_slice),
            hi: hi.map(ScalarVolume::as_slice),
            t0,
            inv_span: 1.0 / (t1 - t0),
            dims: lo[0].dims(),
        }
    }

    /// The six component frames share one grid, so the cell (computed in
    /// `f64` and clamped to the domain, matching
    /// [`ifet_volume::VectorVolume::trilinear`]'s boundary policy) and its
    /// four row offsets are found once per sample.
    fn velocity(&self, p: [f64; 3], t: f64) -> [f64; 3] {
        let a = ((t - self.t0) * self.inv_span).clamp(0.0, 1.0);
        let Dims3 { nx, ny, nz } = self.dims;
        let (x0, x1, fx) = axis_cell_f64(p[0], nx);
        let (y0, y1, fy) = axis_cell_f64(p[1], ny);
        let (z0, z1, fz) = axis_cell_f64(p[2], nz);
        let row = |y: usize, z: usize| nx * (y + ny * z);
        let (r00, r10, r01, r11) = (row(y0, z0), row(y1, z0), row(y0, z1), row(y1, z1));
        let lerp = |lo: f64, hi: f64, f: f64| lo + (hi - lo) * f;
        let trilinear = |d: &[f32]| {
            let at = |r: usize, x: usize| d[r + x] as f64;
            let c00 = lerp(at(r00, x0), at(r00, x1), fx);
            let c10 = lerp(at(r10, x0), at(r10, x1), fx);
            let c01 = lerp(at(r01, x0), at(r01, x1), fx);
            let c11 = lerp(at(r11, x0), at(r11, x1), fx);
            lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz)
        };
        let mut v = [0.0; 3];
        for (k, vk) in v.iter_mut().enumerate() {
            let early = trilinear(self.lo[k]);
            let late = trilinear(self.hi[k]);
            *vk = early + (late - early) * a;
        }
        v
    }
}

/// Per-particle integration state while the series streams past.
#[derive(Clone)]
struct ParticleState {
    pos: [f64; 3],
    ending: Option<ParticleEnding>,
    /// RK4 substeps this particle has executed (for `trace.steps`).
    steps_taken: u64,
}

fn in_domain(p: [f64; 3], d: Dims3) -> bool {
    p[0] >= 0.0
        && p[0] <= (d.nx - 1) as f64
        && p[1] >= 0.0
        && p[1] <= (d.ny - 1) as f64
        && p[2] >= 0.0
        && p[2] <= (d.nz - 1) as f64
}

/// Advance one particle across the interval `[t0, t1]` in `n` RK4 substeps
/// of size `h`.
fn advance_particle(st: &mut ParticleState, s: &PairSampler<'_>, t0: f64, h: f64, n: usize) {
    if st.ending.is_some() {
        return;
    }
    let mut p = st.pos;
    for k in 0..n {
        let t = t0 + h * k as f64;
        let k1 = s.velocity(p, t);
        let half = h * 0.5;
        let k2 = s.velocity(offset(p, k1, half), t + half);
        let k3 = s.velocity(offset(p, k2, half), t + half);
        let k4 = s.velocity(offset(p, k3, h), t + h);
        let sixth = h / 6.0;
        for a in 0..3 {
            p[a] += sixth * (k1[a] + 2.0 * k2[a] + 2.0 * k3[a] + k4[a]);
        }
        st.steps_taken += 1;
        if !p.iter().all(|c| c.is_finite()) {
            st.ending = Some(ParticleEnding::NonFinite { time: t + h });
            return;
        }
        if !in_domain(p, s.dims) {
            st.ending = Some(ParticleEnding::LeftDomain { time: t + h });
            return;
        }
        st.pos = p;
    }
}

#[inline]
fn offset(p: [f64; 3], v: [f64; 3], h: f64) -> [f64; 3] {
    [p[0] + v[0] * h, p[1] + v[1] * h, p[2] + v[2] * h]
}

/// RK4-advect `seeds` through the velocity series `(u, v, w)` from the first
/// frame to the last, recording each particle's position at every frame
/// step it survives to.
///
/// Seeds must lie inside the voxel-index domain and `rk4_dt` must be a
/// positive finite number — violations are typed [`TraceError`]s, and any
/// paging failure surfaces as [`TraceError::Source`]. Output is
/// bit-identical for any `FrameSource` flavor, cache budget, prefetch
/// depth, or thread count.
pub fn advect<S: FrameSource + ?Sized>(
    u: &S,
    v: &S,
    w: &S,
    seeds: &[[f64; 3]],
    params: &TraceParams,
) -> Result<PathlineSet, TraceError> {
    let _span = obs::span("trace.advect");
    if !(params.rk4_dt.is_finite() && params.rk4_dt > 0.0) {
        return Err(TraceError::InvalidDt { dt: params.rk4_dt });
    }
    if seeds.is_empty() {
        return Err(TraceError::NoSeeds);
    }
    let dims = u.dims();
    for (i, &s) in seeds.iter().enumerate() {
        if !(s.iter().all(|c| c.is_finite()) && in_domain(s, dims)) {
            return Err(TraceError::SeedOutOfDomain { index: i, seed: s });
        }
    }

    let mut states: Vec<ParticleState> = seeds
        .iter()
        .map(|&pos| ParticleState {
            pos,
            ending: None,
            steps_taken: 0,
        })
        .collect();
    let mut pathlines: Vec<Pathline> = seeds
        .iter()
        .map(|&seed| Pathline {
            seed,
            points: vec![seed],
            ending: ParticleEnding::Completed,
        })
        .collect();

    walk_frame_pairs(&[u, v, w], |_i, (s0, lo), (s1, hi)| {
        let sampler = PairSampler::new(
            [&lo[0], &lo[1], &lo[2]],
            [&hi[0], &hi[1], &hi[2]],
            s0 as f64,
            s1 as f64,
        );
        let span = (s1 - s0) as f64;
        let n = (span / params.rk4_dt).ceil().max(1.0) as usize;
        let h = span / n as f64;
        // Fan out over particles; the shim collects per-particle results in
        // index order, so the merge below is schedule-independent.
        let advanced: Vec<ParticleState> = states
            .par_iter()
            .map(|st| {
                let mut st = st.clone();
                advance_particle(&mut st, &sampler, s0 as f64, h, n);
                st
            })
            .collect();
        states = advanced;
        for (st, path) in states.iter().zip(pathlines.iter_mut()) {
            match st.ending {
                None => path.points.push(st.pos),
                Some(e) if path.ending == ParticleEnding::Completed => path.ending = e,
                Some(_) => {}
            }
        }
        Ok::<(), TraceError>(())
    })?;

    let total_steps: u64 = states.iter().map(|s| s.steps_taken).sum();
    obs::counter("trace.particles", seeds.len() as u64);
    obs::counter("trace.steps", total_steps);
    obs::counter(
        "trace.escaped",
        states.iter().filter(|s| s.ending.is_some()).count() as u64,
    );
    // How wide the fan-out ran is a scheduling fact, not a result: keep it
    // out of stable traces so they stay byte-identical across thread counts.
    obs::counter_runtime("trace.threads", rayon::current_num_threads() as u64);

    Ok(PathlineSet {
        dims,
        steps: u.steps().to_vec(),
        rk4_dt: params.rk4_dt,
        pathlines,
    })
}

/// Build a regular `n × n × n` seed lattice strictly inside the domain —
/// the CLI's `--seed-grid` and the benches both use this placement.
pub fn seed_grid(dims: Dims3, n: usize) -> Vec<[f64; 3]> {
    let mut seeds = Vec::with_capacity(n * n * n);
    let place = |extent: usize, k: usize| {
        // n samples at the centers of n equal slabs: inside for any n ≥ 1.
        (extent as f64 - 1.0) * (k as f64 + 0.5) / n as f64
    };
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                seeds.push([place(dims.nx, x), place(dims.ny, y), place(dims.nz, z)]);
            }
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifet_volume::TimeSeries;

    /// A uniform +x flow of speed 0.5, as three component series.
    fn uniform_series(frames: usize) -> (TimeSeries, TimeSeries, TimeSeries) {
        let d = Dims3::cube(8);
        let comp = |val: f32| {
            TimeSeries::from_frames(
                (0..frames as u32)
                    .map(|k| (k, ScalarVolume::filled(d, val)))
                    .collect(),
            )
        };
        (comp(0.5), comp(0.0), comp(0.0))
    }

    #[test]
    fn uniform_flow_is_integrated_exactly() {
        let (u, v, w) = uniform_series(5);
        let set = advect(&u, &v, &w, &[[1.0, 3.0, 3.0]], &TraceParams { rk4_dt: 0.5 }).unwrap();
        let p = &set.pathlines[0];
        assert_eq!(p.ending, ParticleEnding::Completed);
        assert_eq!(p.points.len(), 5);
        // After 4 unit intervals at speed 0.5: x = 1 + 2.
        assert!((p.endpoint()[0] - 3.0).abs() < 1e-12);
        assert_eq!(p.endpoint()[1], 3.0);
    }

    #[test]
    fn particle_leaving_domain_gets_typed_ending() {
        let (u, v, w) = uniform_series(20);
        let set = advect(&u, &v, &w, &[[6.5, 3.0, 3.0]], &TraceParams { rk4_dt: 1.0 }).unwrap();
        let p = &set.pathlines[0];
        assert!(matches!(p.ending, ParticleEnding::LeftDomain { .. }));
        // Pathline retains the in-domain prefix: seed plus one frame.
        assert!(p.points.len() < 20);
        assert!(in_domain(p.endpoint(), Dims3::cube(8)));
    }

    #[test]
    fn bad_seeds_and_dt_are_typed_errors() {
        let (u, v, w) = uniform_series(3);
        let err = advect(&u, &v, &w, &[[9.0, 0.0, 0.0]], &TraceParams::default()).unwrap_err();
        assert!(matches!(err, TraceError::SeedOutOfDomain { index: 0, .. }));
        let err = advect(&u, &v, &w, &[[1.0, 1.0, 1.0]], &TraceParams { rk4_dt: 0.0 }).unwrap_err();
        assert!(matches!(err, TraceError::InvalidDt { .. }));
        let err = advect(&u, &v, &w, &[], &TraceParams::default()).unwrap_err();
        assert!(matches!(err, TraceError::NoSeeds));
    }

    #[test]
    fn seed_grid_stays_inside_any_domain() {
        for n in [1usize, 2, 3, 5] {
            let d = Dims3::new(4, 9, 17);
            for s in seed_grid(d, n) {
                assert!(in_domain(s, d), "seed {s:?} escaped dims {d:?} (n={n})");
            }
        }
        assert_eq!(seed_grid(Dims3::cube(8), 3).len(), 27);
    }
}
