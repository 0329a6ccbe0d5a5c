//! `playback`: the Section 7 display loop. One viewer steps through an
//! in-core series; every displayed frame generates its adaptive transfer
//! function and ray-casts a shaded image, and every fourth frame also draws
//! the tracked-feature overlay. The seed picks where the viewer starts and
//! which way it steps.

use crate::driver::{run_steps, Bench, Plan, Step};
use crate::inputs::{band_tfs, digest, frame_files, iatf_params, read_keys, Spec, TAU};
use crate::report::{Measured, OpSample};
use crate::spans::{self, SpanRec};
use crate::timed::TimedSource;
use ifet_core::prelude::*;
use ifet_volume::io::{read_frame, read_series};
use ifet_volume::FrameSource;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every this many displayed frames, one also draws the tracking overlay.
const OVERLAY_EVERY: u64 = 4;

pub struct Playback {
    session: VisSession<TimedSource<TimeSeries>>,
    base_tf: TransferFunction1D,
    tracked: Vec<Mask3>,
    size: usize,
    /// Digests of the warm-up pass: `(plain, overlay)` per step.
    reference: Vec<(u64, u64)>,
    /// The viewer's path: start frame and direction, from the seed.
    start: usize,
    backward: bool,
    pixels: u64,
}

/// Pixels the compositor touched (any channel off the background).
fn coverage(img: &Image, background: [f32; 3]) -> usize {
    img.as_slice()
        .chunks_exact(3)
        .filter(|p| p.iter().zip(background).any(|(a, b)| *a != b))
        .count()
}

/// Pixels where the red tracking highlight dominates.
fn tracked_pixels(img: &Image) -> usize {
    img.as_slice()
        .chunks_exact(3)
        .filter(|p| p[0] > 0.05 && p[0] > 2.0 * p[1] && p[0] > 2.0 * p[2])
        .count()
}

impl Playback {
    fn step(&mut self, _o: &(), k: u64) -> Result<Step, String> {
        let n = self.reference.len();
        let offset = k as usize % n;
        let i = if self.backward {
            (self.start + n - offset) % n
        } else {
            (self.start + offset) % n
        };
        let overlay = k % OVERLAY_EVERY == OVERLAY_EVERY - 1;
        spans::set_op(k);
        let t0 = Instant::now();
        let (img, over) = {
            let _op = spans::span("bench.op");
            self.render(i, overlay)
        };
        let busy = t0.elapsed().as_secs_f64();

        let bg = self.session.renderer.params.background;
        let (want_img, want_over) = self.reference[i];
        let mut ok = img.width() == self.size
            && img.height() == self.size
            && coverage(&img, bg) > 0
            && digest(img.as_slice()) == want_img;
        let mut renders = 1;
        if let Some(over) = over {
            ok &= digest(over.as_slice()) == want_over
                && (tracked_pixels(&over) > 0 || self.tracked[i].is_empty_mask());
            renders += 1;
        }
        if spans::enabled() {
            self.pixels += renders * (self.size * self.size) as u64;
        }
        Ok(Step {
            busy_s: busy,
            samples: vec![OpSample::new(busy, ok)],
        })
    }

    fn render(&self, i: usize, overlay: bool) -> (Image, Option<Image>) {
        let t = self.session.series().steps()[i];
        let iatf = self.session.iatf().expect("trained in set-up");
        let tf = {
            let frame = self.session.series().frame(i).expect("in-core frame");
            spans::timed("tf.generate", || iatf.generate(t, &frame))
        };
        let (w, h) = (self.size, self.size);
        let img = spans::timed("render.raycast", || {
            self.session.render_with_tf(t, &tf, w, h)
        });
        let over = overlay.then(|| {
            spans::timed("render.overlay", || {
                self.session
                    .render_tracked(t, &self.tracked[i], &self.base_tf, &tf, w, h)
            })
        });
        (img, over)
    }
}

impl Bench for Playback {
    type Oracle = ();
    const RATE: f64 = 16.0;

    fn prepare(_dir: &Path, _spec: &Spec) -> Result<(), String> {
        Ok(())
    }

    fn setup(dir: &Path, spec: &Spec, _o: &()) -> Result<Self, String> {
        let sz = spec.sizes();
        let paths = frame_files(&dir.join("data"))?;
        let series = read_series(&paths).map_err(|e| e.to_string())?;
        let range = series.global_range();
        let keys = read_keys(dir)?;
        // The overlay's context TF: the first key band at low opacity, so
        // the drifting context does not hide the tracked feature.
        let (_, lo, hi) = keys[0];
        let base_tf = TransferFunction1D::band(range.0, range.1, lo, hi, 0.01);
        let keys = band_tfs(&keys, range);
        let mut session = VisSession::new(TimedSource::new(series)).map_err(|e| e.to_string())?;
        session.renderer.params.shading = true;
        for (t, tf) in keys {
            session.add_key_frame(t, tf);
        }
        spans::timed("core.iatf_train", || {
            session.train_iatf(iatf_params(&sz));
        });

        // The tracked feature: grown from the first ground-truth voxel of
        // frame 0 that the adaptive criterion accepts.
        let criterion = session
            .resolve_criterion(&CriterionSpec::AdaptiveTf { tau: TAU })
            .map_err(|e| e.to_string())?;
        let truth_paths = frame_files(&dir.join("truth"))?;
        let (truth0, _) = read_frame(&truth_paths[0]).map_err(|e| e.to_string())?;
        let truth0 = Mask3::threshold(&truth0, 0.5);
        let seed = {
            let frame0 = session.series().frame(0).map_err(|e| e.to_string())?;
            truth0
                .set_coords()
                .find(|&(x, y, z)| criterion.accept(0, &frame0, x, y, z))
                .ok_or("no ground-truth voxel of frame 0 passes the adaptive criterion")?
        };
        let tracked = session
            .track_with(criterion.as_ref(), &[(0, seed.0, seed.1, seed.2)])
            .map_err(|e| e.to_string())?
            .masks;

        let frames = session.series().len();
        let mut pb = Self {
            session,
            base_tf,
            tracked,
            size: sz.image,
            reference: Vec::new(),
            start: (spec.seed % frames as u64) as usize,
            backward: (spec.seed / frames as u64) % 2 == 1,
            pixels: 0,
        };
        // Warm-up pass: every step, plain and overlaid; its images are the
        // reference every later pass must reproduce bit for bit.
        for i in 0..pb.session.series().len() {
            let (img, over) = pb.render(i, true);
            let over = over.expect("overlay requested");
            if tracked_pixels(&over) == 0 && !pb.tracked[i].is_empty_mask() {
                return Err(format!("overlay of frame {i} shows no tracked pixels"));
            }
            pb.reference
                .push((digest(img.as_slice()), digest(over.as_slice())));
        }
        Ok(pb)
    }

    fn phase(&mut self, o: &(), plan: Plan, trace: bool) -> Result<Measured, String> {
        // Whole cycles of (frame, overlay) pairs, so every run and both
        // halves of a traced run display the same mix.
        let frames = self.reference.len() as u64;
        let cycle = (1..=OVERLAY_EVERY)
            .map(|k| k * frames)
            .find(|m| m % OVERLAY_EVERY == 0)
            .expect("OVERLAY_EVERY * frames is a multiple");
        run_steps(plan, trace, cycle, |k| self.step(o, k))
    }

    fn mark(&mut self) {
        self.pixels = 0;
    }

    fn layers(
        &mut self,
        _o: &(),
        _ms: &Measured,
        all: &[SpanRec],
        m: &mut BTreeMap<&'static str, f64>,
    ) {
        let by = spans::self_by_name(all);
        let render_s: f64 = ["render.raycast", "render.overlay"]
            .iter()
            .filter_map(|n| by.get(n).map(|e| e.1))
            .sum();
        m.insert(
            "render.mpixel_per_s",
            crate::stats::ratio(self.pixels as f64 * 1e-6, render_s),
        );
    }
}
