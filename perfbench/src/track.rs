//! `track`: interactive tracking queries (Fig. 9/10 and the
//! `trace-particles --seed-from-track` journey). Each query grows a feature
//! in 4D from a seeded random voxel of the feature that the adaptive
//! criterion accepts (a user clicking on the ring), then
//! advects particles seeded in the grown mask through a swirl flow. Scalar
//! and velocity series both page from disk under their own budgets.

use crate::driver::{run_steps, Bench, Plan, Step};
use crate::inputs::{frame_files, Rng, Spec, RK4_DT, TAU};
use crate::report::{Measured, OpSample};
use crate::spans::{self, SpanRec};
use crate::stats::ratio;
use crate::timed::{Paging, TimedSource};
use ifet_core::prelude::*;
use ifet_trace::{advect, TraceParams};
use ifet_track::GrowthCriterion;
use ifet_volume::io::read_frame;
use ifet_volume::{CacheBudgetHandle, FrameSource};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Query seeds: for each frame, the linear indices of the tracked feature
/// (the generator's ground truth) that the criterion accepts.
pub struct Oracle {
    accepted: Vec<Vec<u32>>,
}

type Paged = TimedSource<OutOfCoreSeries>;

pub struct Track {
    session: VisSession<Paged>,
    criterion: Box<dyn GrowthCriterion>,
    flow: [Paged; 3],
    flow_budget: CacheBudgetHandle,
    seed: u64,
    particles: usize,
    mark: Paging,
    grown: u64,
    steps: u64,
}

fn open(dir: &Path, budget: &CacheBudgetHandle) -> Result<Paged, String> {
    OutOfCoreSeries::open_with(frame_files(dir)?, budget, 0)
        .map(TimedSource::new)
        .map_err(|e| e.to_string())
}

/// Up to `max` voxels of `mask`, evenly strided in scan order.
fn particle_seeds(mask: &Mask3, max: usize) -> Vec<[f64; 3]> {
    let stride = mask.count().div_ceil(max).max(1);
    mask.set_coords()
        .step_by(stride)
        .map(|(x, y, z)| [x as f64, y as f64, z as f64])
        .collect()
}

impl Track {
    fn step(&mut self, o: &Oracle, k: u64) -> Result<Step, String> {
        spans::set_op(k);
        let t0 = Instant::now();
        let ok = {
            let _op = spans::span("bench.op");
            self.query(o, Rng::new(self.seed ^ k.wrapping_mul(0x9e37_79b9)))?
        };
        let busy = t0.elapsed().as_secs_f64();
        Ok(Step {
            busy_s: busy,
            samples: vec![OpSample::new(busy, ok)],
        })
    }

    fn paging(&self) -> Paging {
        let s = self.session.series().inner();
        let [u, v, w] = &self.flow;
        Paging::of(
            &[s, u.inner(), v.inner(), w.inner()],
            &[s.budget(), &self.flow_budget],
        )
    }

    /// One query; `Ok(false)` when its output fails a check.
    fn query(&mut self, o: &Oracle, mut rng: Rng) -> Result<bool, String> {
        let d = self.session.series().dims();
        let fi = loop {
            let fi = rng.below(o.accepted.len());
            if !o.accepted[fi].is_empty() {
                break fi;
            }
        };
        let (x, y, z) = d.coords(o.accepted[fi][rng.below(o.accepted[fi].len())] as usize);
        let result = spans::timed("track.grow", || {
            self.session
                .track_with(self.criterion.as_ref(), &[(fi, x, y, z)])
        })
        .map_err(|e| e.to_string())?;
        let mask = &result.masks[fi];
        let seeds = particle_seeds(mask, self.particles);
        let [u, v, w] = &self.flow;
        let set = spans::timed("trace.advect", || {
            advect(u, v, w, &seeds, &TraceParams { rk4_dt: RK4_DT })
        })
        .map_err(|e| e.to_string())?;

        if spans::enabled() {
            self.grown += result.masks.iter().map(|m| m.count() as u64).sum::<u64>();
            // RK4 steps of the frame intervals each particle completed.
            let substeps: Vec<u64> = u
                .steps()
                .windows(2)
                .map(|p| (f64::from(p[1] - p[0]) / RK4_DT).ceil() as u64)
                .collect();
            for p in &set.pathlines {
                self.steps += substeps[..p.points.len() - 1].iter().sum::<u64>();
            }
        }
        Ok(mask.get(x, y, z)
            && set
                .pathlines
                .iter()
                .all(|p| p.points.iter().flatten().all(|c| c.is_finite())))
    }
}

impl Bench for Track {
    type Oracle = Oracle;
    const RATE: f64 = 9.0;

    fn prepare(dir: &Path, _spec: &Spec) -> Result<Oracle, String> {
        let budget = CacheBudgetHandle::frames(4);
        let series = open(&dir.join("data"), &budget)?;
        let session =
            VisSession::load(series, dir.join("session.ifet")).map_err(|e| e.to_string())?;
        let criterion = session
            .resolve_criterion(&CriterionSpec::AdaptiveTf { tau: TAU })
            .map_err(|e| e.to_string())?;
        let series = session.series();
        let truth = frame_files(&dir.join("truth"))?;
        let accepted = (0..series.len())
            .map(|fi| {
                let frame = series.frame(fi).map_err(|e| e.to_string())?;
                let mut table = criterion.precompute_frame(fi, &frame);
                let (t, _) = read_frame(&truth[fi]).map_err(|e| e.to_string())?;
                table.intersect_with(&Mask3::threshold(&t, 0.5));
                Ok(table.set_indices().map(|i| i as u32).collect())
            })
            .collect::<Result<Vec<Vec<u32>>, String>>()?;
        if accepted.iter().all(Vec::is_empty) {
            return Err("the adaptive criterion accepts no feature voxel in any frame".into());
        }
        Ok(Oracle { accepted })
    }

    fn setup(dir: &Path, spec: &Spec, o: &Oracle) -> Result<Self, String> {
        let budget = CacheBudgetHandle::frames(4);
        let series = open(&dir.join("data"), &budget)?;
        let session = spans::timed("core.session_load", || {
            VisSession::load(series, dir.join("session.ifet"))
        })
        .map_err(|e| e.to_string())?;
        let criterion = session
            .resolve_criterion(&CriterionSpec::AdaptiveTf { tau: TAU })
            .map_err(|e| e.to_string())?;
        let flow_budget = CacheBudgetHandle::frames(6);
        let flow_dir = dir.join("flow");
        let flow = [
            open(&flow_dir.join("u"), &flow_budget)?,
            open(&flow_dir.join("v"), &flow_budget)?,
            open(&flow_dir.join("w"), &flow_budget)?,
        ];
        let mut t = Self {
            session,
            criterion,
            flow,
            flow_budget,
            seed: spec.seed,
            particles: spec.sizes().particles,
            mark: Paging::default(),
            grown: 0,
            steps: 0,
        };
        // Warm-up: a few queries outside the timed sequence, the same for
        // every run seed, so every set-up does the same work.
        for k in 0..5 {
            if !t.query(o, Rng::new(u64::MAX - k))? {
                return Err("a warm-up track query failed its check".into());
            }
        }
        Ok(t)
    }

    fn phase(&mut self, o: &Oracle, plan: Plan, trace: bool) -> Result<Measured, String> {
        run_steps(plan, trace, 1, |k| self.step(o, k))
    }

    fn mark(&mut self) {
        self.mark = self.paging();
        self.grown = 0;
        self.steps = 0;
    }

    fn layers(
        &mut self,
        _o: &Oracle,
        ms: &Measured,
        all: &[SpanRec],
        m: &mut BTreeMap<&'static str, f64>,
    ) {
        let traced = ms.traced.ops() as f64;
        self.mark.metrics(&self.paging(), ms.ops() as f64, m);
        m.insert("track.grown_voxels", ratio(self.grown as f64, traced));
        m.insert("trace.particle_steps", ratio(self.steps as f64, traced));
        let advect_s = spans::self_by_name(all)
            .get("trace.advect")
            .map_or(0.0, |e| e.1);
        m.insert(
            "trace.msteps_per_s",
            ratio(self.steps as f64 * 1e-6, advect_s),
        );
    }
}
