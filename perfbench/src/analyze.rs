//! `analyze`: the Section 7 data-space classification job, run out of core
//! as `ifet classify --compress` runs it. Each pass classifies a compressed
//! series paged under a two-frame budget and streams the certainty volumes
//! to a compressed sink; the op is one frame classified and written.

use crate::driver::{run_steps, Bench, Plan, Step};
use crate::inputs::{digest, frame_files, mix, Spec};
use crate::report::{Measured, OpSample};
use crate::spans::{self, SpanRec};
use crate::stats::ratio;
use crate::timed::{Paging, TimedSink, TimedSource};
use ifet_core::prelude::*;
use ifet_volume::io::{read_frame, read_series};
use ifet_volume::{CacheBudgetHandle, FrameSource, OutOfCoreSink};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Frames per pass whose written certainty is read back and checked.
const CHECKED_PER_PASS: usize = 2;

/// Lowest acceptable F1 of a thresholded certainty frame against the
/// generator's ground truth.
const F1_FLOOR: f64 = 0.5;

pub struct Oracle {
    /// Digest of each frame's in-memory certainty volume.
    digests: Vec<u64>,
    truth: Vec<Mask3>,
}

pub struct Analyze {
    session: VisSession<TimedSource<OutOfCoreSeries>>,
    out: PathBuf,
    mark: Paging,
    bytes_written: u64,
}

impl Analyze {
    fn step(&mut self, o: &Oracle, k: u64) -> Result<Step, String> {
        spans::set_op(k);
        self.session.series().take_requested();
        let t0 = Instant::now();
        let sink = {
            let _op = spans::span("bench.op");
            self.pass()?
        };
        let busy = t0.elapsed().as_secs_f64();

        let requested = self.session.series().take_requested();
        let n = o.digests.len();
        let first = mix(k) as usize % n;
        let checked: Vec<usize> = (0..CHECKED_PER_PASS)
            .map(|j| (first + j * (n / 2)) % n)
            .collect();
        if spans::enabled() {
            self.bytes_written += sink.bytes_written;
        }
        let (puts, paths) = (&sink.puts, sink.paths());
        let steps = self.session.series().steps();
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            // Latency of a frame: from its page-in request to its write.
            let latency = match (requested[i], puts.get(i)) {
                (Some(asked), Some(&(t, done))) if t == steps[i] => Some(done - asked),
                _ => None,
            };
            let mut ok = latency.is_some() && paths.len() == n;
            if ok && checked.contains(&i) {
                ok = match read_frame(&paths[i]) {
                    Ok((vol, _)) => {
                        digest(vol.as_slice()) == o.digests[i]
                            && Mask3::threshold(&vol, 0.5).f1(&o.truth[i]) >= F1_FLOOR
                    }
                    Err(_) => false,
                };
            }
            samples.push(OpSample::new(latency.map_or(busy, |d| d.as_secs_f64()), ok));
        }
        Ok(Step {
            busy_s: busy,
            samples,
        })
    }

    fn artifact(dir: &Path) -> PathBuf {
        dir.join("session.ifet")
    }

    /// One whole-series pass into a fresh sink.
    fn pass(&self) -> Result<TimedSink, String> {
        let clf = self
            .session
            .classifier()
            .ok_or("artifact has no classifier")?;
        let sink = OutOfCoreSink::with_compression(&self.out, "certainty", true)
            .map_err(|e| e.to_string())?;
        let mut sink = TimedSink::new(sink);
        spans::timed("extract.classify_series", || {
            clf.classify_series_into(self.session.series(), &mut sink)
        })
        .map_err(|e| e.to_string())?;
        Ok(sink)
    }

    fn paging(&self) -> Paging {
        let s = self.session.series().inner();
        Paging::of(&[s], &[s.budget()])
    }
}

impl Bench for Analyze {
    type Oracle = Oracle;
    const RATE: f64 = 5.5;

    fn prepare(dir: &Path, _spec: &Spec) -> Result<Oracle, String> {
        let series = read_series(&frame_files(&dir.join("data"))?).map_err(|e| e.to_string())?;
        let session = VisSession::load(series, Self::artifact(dir)).map_err(|e| e.to_string())?;
        let clf = session.classifier().ok_or("artifact has no classifier")?;
        let certainty = clf
            .classify_series(session.series())
            .map_err(|e| e.to_string())?;
        let truth: Vec<Mask3> = frame_files(&dir.join("truth"))?
            .iter()
            .map(|p| read_frame(p).map(|(v, _)| Mask3::threshold(&v, 0.5)))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let f1: Vec<f64> = certainty
            .iter()
            .zip(&truth)
            .map(|(c, t)| Mask3::threshold(c, 0.5).f1(t))
            .collect();
        eprintln!("reference certainty F1 per frame: {f1:.3?}");
        if let Some(i) = f1.iter().position(|&f| f < F1_FLOOR) {
            return Err(format!(
                "reference certainty of frame {i} has F1 {:.3}",
                f1[i]
            ));
        }
        Ok(Oracle {
            digests: certainty.iter().map(|c| digest(c.as_slice())).collect(),
            truth,
        })
    }

    fn setup(dir: &Path, _spec: &Spec, _o: &Oracle) -> Result<Self, String> {
        let budget = CacheBudgetHandle::frames(2);
        let series = OutOfCoreSeries::open_with(frame_files(&dir.join("data"))?, &budget, 0)
            .map_err(|e| e.to_string())?;
        let session = spans::timed("core.session_load", || {
            VisSession::load(TimedSource::new(series), Self::artifact(dir))
        })
        .map_err(|e| e.to_string())?;
        let a = Self {
            session,
            out: dir.join("out"),
            mark: Default::default(),
            bytes_written: 0,
        };
        // Warm-up: one full pass (pages every frame, spawns the workers,
        // fills the classifier's scratch pool).
        a.pass()?;
        Ok(a)
    }

    fn phase(&mut self, o: &Oracle, plan: Plan, trace: bool) -> Result<Measured, String> {
        run_steps(plan, trace, 1, |k| self.step(o, k))
    }

    fn mark(&mut self) {
        self.mark = self.paging();
        self.bytes_written = 0;
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
        m.insert(
            "volume.bytes_written",
            ratio(self.bytes_written as f64, traced),
        );
        let voxels = self.session.series().dims().len() as f64;
        let classify_s = spans::self_by_name(all)
            .get("extract.classify_series")
            .map_or(0.0, |e| e.1);
        m.insert(
            "extract.mvoxel_per_s",
            ratio(voxels * traced * 1e-6, classify_s),
        );
    }
}
