//! The ray caster: front-to-back compositing with transfer-function lookup,
//! gradient shading, early ray termination, and the tracked-feature overlay.

use crate::camera::Camera;
use crate::image::Image;
use ifet_tf::{ColorMap, TransferFunction1D};
use ifet_volume::sample::{nearest_index, normalize3, SampleView};
use ifet_volume::{Mask3, ScalarVolume};
use rayon::prelude::*;

/// Rendering configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderParams {
    /// Sampling step along the ray, in voxels.
    pub step: f32,
    /// Stop compositing when accumulated opacity exceeds this.
    pub early_termination: f32,
    /// Enable gradient (Phong) shading.
    pub shading: bool,
    /// Ambient light factor when shading.
    pub ambient: f32,
    /// Global opacity scale applied to TF lookups (per-sample, corrected for
    /// step length against a reference step of 1 voxel).
    pub opacity_scale: f32,
    /// Background color.
    pub background: [f32; 3],
    /// Samples fetched per packet along each ray (position math, trilinear
    /// fetch, and opacity lookup are batched per packet; compositing stays
    /// serial). `0` = auto. Output is identical at every packet size.
    pub packet: usize,
}

/// Packet width used when [`RenderParams::packet`] is 0 (auto).
pub const AUTO_PACKET: usize = 8;

/// Upper bound on the packet width (packet staging lives on the stack).
pub const MAX_PACKET: usize = 64;

impl Default for RenderParams {
    fn default() -> Self {
        Self {
            step: 0.8,
            early_termination: 0.98,
            shading: true,
            ambient: 0.35,
            opacity_scale: 1.0,
            background: [0.0; 3],
            packet: 0,
        }
    }
}

impl RenderParams {
    /// Effective packet width (auto resolved, clamped to [`MAX_PACKET`]).
    pub fn packet_size(&self) -> usize {
        match self.packet {
            0 => AUTO_PACKET,
            n => n.min(MAX_PACKET),
        }
    }
}

/// Per-sample opacity corrected from the 1-voxel reference step to `step`:
/// transmittance through one sample is `(1-α)^step`, so a homogeneous medium
/// accumulates the same opacity per unit length at any step size. (The
/// first-order form `α·step` over-weights coarse steps — the old bug.)
#[inline]
fn corrected_opacity(base: f32, step: f32) -> f32 {
    1.0 - (1.0 - base.clamp(0.0, 1.0)).powf(step)
}

/// Step-corrected opacity for every TF table entry. The 1D TF is a plain
/// nearest-entry table lookup, so correcting per entry is exact while
/// hoisting the `powf` out of the per-sample loop.
fn corrected_table(tf: &TransferFunction1D, opacity_scale: f32, step: f32) -> Vec<f32> {
    tf.table()
        .iter()
        .map(|&o| corrected_opacity(o * opacity_scale, step))
        .collect()
}

/// A software direct volume renderer.
///
/// Every mode runs on one walker: `cast` fans scanlines out and clips each
/// pixel's ray to the volume, `Ray::march` visits its sample positions a
/// packet at a time, and `composite` shades and blends them front to back.
/// A mode supplies only its packet opacities and sample color, or (MIP) a
/// running max in place of the blend. Each mode resolves its volumes into
/// [`SampleView`]s once per frame, so samples index the voxel slices
/// directly.
#[derive(Debug, Clone, Default)]
pub struct Renderer {
    pub params: RenderParams,
}

impl Renderer {
    pub fn new(params: RenderParams) -> Self {
        Self { params }
    }

    /// Render `vol` through `tf` (opacity) and `cmap` (color by value over
    /// the TF's domain) from `camera` into a `w`×`h` image.
    pub fn render(
        &self,
        vol: &ScalarVolume,
        tf: &TransferFunction1D,
        cmap: ColorMap,
        camera: &Camera,
        w: usize,
        h: usize,
    ) -> Image {
        self.render_tf(vol, tf, cmap, camera, w, h, None)
    }

    /// DVR through the step-corrected table of `tf`, with the tracked-feature
    /// overlay when `overlay` holds the region-grow mask and adaptive TF.
    #[allow(clippy::too_many_arguments)]
    fn render_tf(
        &self,
        vol: &ScalarVolume,
        tf: &TransferFunction1D,
        cmap: ColorMap,
        camera: &Camera,
        w: usize,
        h: usize,
        overlay: Option<(&Mask3, &TransferFunction1D)>,
    ) -> Image {
        let _span = ifet_obs::span("render.raycast");
        let p = &self.params;
        let (tlo, thi) = tf.domain();
        let corr = corrected_table(tf, p.opacity_scale, p.step);
        let overlay =
            overlay.map(|(mask, otf)| (mask, otf, corrected_table(otf, p.opacity_scale, p.step)));
        let view = SampleView::new(vol);
        // Tracked-feature overlay: voxels inside the region-grow mask render
        // red with the adaptive TF's opacity (Section 7).
        let tracked = |q: [f32; 3]| {
            let (mask, otf, ocorr) = overlay.as_ref()?;
            let d = mask.dims();
            let (x, y, z) = (
                nearest_index(q[0], d.nx),
                nearest_index(q[1], d.ny),
                nearest_index(q[2], d.nz),
            );
            mask.get(x, y, z).then_some((otf, ocorr))
        };
        self.composite(
            view,
            camera,
            w,
            h,
            |pos, vals, alphas| {
                for (v, q) in vals.iter_mut().zip(pos) {
                    *v = view.trilinear(q[0], q[1], q[2]);
                }
                for ((a, &v), &q) in alphas.iter_mut().zip(&*vals).zip(pos) {
                    *a = match tracked(q) {
                        Some((otf, ocorr)) => ocorr[otf.entry_of(v)],
                        None => corr[tf.entry_of(v)],
                    };
                }
            },
            |q, v| match tracked(q) {
                Some(_) => [1.0, 0.1, 0.1],
                None => cmap.sample_in(v, tlo, thi),
            },
        )
    }

    /// Render a data-space classification result: "the classified result is
    /// stored as a 3D texture and used to assign opacity to each voxel"
    /// (Section 7). Opacity comes from the certainty field, color from the
    /// original data values — so color still communicates the physics
    /// (Section 7's color-stays-quantitative rule).
    pub fn render_classified(
        &self,
        vol: &ScalarVolume,
        certainty: &ScalarVolume,
        cmap: ColorMap,
        camera: &Camera,
        w: usize,
        h: usize,
    ) -> Image {
        assert_eq!(
            vol.dims(),
            certainty.dims(),
            "certainty field dims mismatch"
        );
        let _span = ifet_obs::span("render.classified");
        let p = &self.params;
        let (vlo, vhi) = vol.value_range();
        let (view, cert) = (SampleView::new(vol), SampleView::new(certainty));
        self.composite(
            view,
            camera,
            w,
            h,
            // Certainty is trilinearly interpolated (continuous), so the step
            // correction is per-sample `powf` here — batched alongside the
            // fetch. The data value is fetched only for visible samples.
            |pos, _, alphas| {
                for (a, q) in alphas.iter_mut().zip(pos) {
                    let c = cert.trilinear(q[0], q[1], q[2]);
                    *a = corrected_opacity(c * p.opacity_scale, p.step);
                }
            },
            |q, _| cmap.sample_in(view.trilinear(q[0], q[1], q[2]), vlo, vhi),
        )
    }

    /// Maximum-intensity projection: each pixel shows the color-mapped
    /// maximum TF-visible value along its ray. A cheap overview mode — no
    /// compositing, no shading — useful for locating features before
    /// committing to a transfer function.
    pub fn render_mip(
        &self,
        vol: &ScalarVolume,
        cmap: ColorMap,
        camera: &Camera,
        w: usize,
        h: usize,
    ) -> Image {
        let _span = ifet_obs::span("render.mip");
        let (vlo, vhi) = vol.value_range();
        let view = SampleView::new(vol);
        self.cast(view, camera, w, h, |ray| {
            let mut best = f32::NEG_INFINITY;
            ray.march(|pos| {
                for q in pos {
                    best = best.max(view.trilinear(q[0], q[1], q[2]));
                }
                true
            });
            if best.is_finite() {
                cmap.sample_in(best, vlo, vhi)
            } else {
                self.params.background
            }
        })
    }

    /// Front-to-back compositing with headlight shading and early ray
    /// termination. Per packet, `opacities(pos, vals, alphas)` fills each
    /// sample's opacity (and any value `color` wants back in `vals`); then
    /// the visible samples are colored by `color(pos, val)`, shaded and
    /// blended serially in sample order.
    fn composite(
        &self,
        view: SampleView<'_>,
        camera: &Camera,
        w: usize,
        h: usize,
        opacities: impl Fn(&[[f32; 3]], &mut [f32], &mut [f32]) + Sync,
        color: impl Fn([f32; 3], f32) -> [f32; 3] + Sync,
    ) -> Image {
        let p = &self.params;
        let light = camera.view_dir(); // headlight
        self.cast(view, camera, w, h, |ray| {
            let mut vals = [0.0f32; MAX_PACKET];
            let mut alphas = [0.0f32; MAX_PACKET];
            let mut rgb = [0.0f32; 3];
            let mut alpha = 0.0f32;
            ray.march(|pos| {
                let m = pos.len();
                opacities(pos, &mut vals[..m], &mut alphas[..m]);
                for (j, &q) in pos.iter().enumerate() {
                    let a = alphas[j];
                    if a > 1e-4 {
                        let mut c = color(q, vals[j]);
                        if p.shading {
                            let g = normalize3(view.gradient(q[0], q[1], q[2]));
                            let ndotl = (g[0] * light[0] + g[1] * light[1] + g[2] * light[2]).abs();
                            let shade = p.ambient + (1.0 - p.ambient) * ndotl;
                            for ch in &mut c {
                                *ch *= shade;
                            }
                        }
                        let wgt = a * (1.0 - alpha);
                        for ch in 0..3 {
                            rgb[ch] += wgt * c[ch];
                        }
                        alpha += wgt;
                        if alpha >= p.early_termination {
                            return false;
                        }
                    }
                }
                true
            });
            [
                rgb[0] + (1.0 - alpha) * p.background[0],
                rgb[1] + (1.0 - alpha) * p.background[1],
                rgb[2] + (1.0 - alpha) * p.background[2],
            ]
        })
    }

    /// The row driver under every mode: scanlines fan out over the pool, and
    /// each pixel's ray is clipped to the volume box and handed to `trace`
    /// (a ray that misses the box shows the background).
    fn cast(
        &self,
        view: SampleView<'_>,
        camera: &Camera,
        w: usize,
        h: usize,
        trace: impl Fn(&Ray) -> [f32; 3] + Sync,
    ) -> Image {
        let p = &self.params;
        let d = view.dims();
        let bounds = [d.nx as f32 - 1.0, d.ny as f32 - 1.0, d.nz as f32 - 1.0];
        let mut img = Image::new(w, h);
        let rows: Vec<(usize, &mut [f32])> = img.rows_mut().enumerate().collect();
        let obs = ifet_obs::handle();
        rows.into_par_iter().for_each(|(py, row)| {
            // Workers may not open spans; per-scanline work is reported as
            // deterministic counters merged when each row finishes.
            let _obs = obs.enter();
            for (px, out) in row.chunks_exact_mut(3).enumerate() {
                let (origin, dir) = camera.ray(px, py, w, h);
                let ray = ray_box(origin, dir, bounds).and_then(|(t_enter, t_exit)| {
                    let t0 = t_enter.max(0.0);
                    (t0 <= t_exit).then(|| Ray {
                        origin,
                        dir,
                        t0,
                        step: p.step,
                        n_steps: ((t_exit - t0) / p.step) as usize + 1,
                        packet: p.packet_size(),
                    })
                });
                let rgb = ray.map_or(p.background, |ray| trace(&ray));
                for (o, c) in out.iter_mut().zip(rgb) {
                    *o = c.clamp(0.0, 1.0);
                }
            }
            ifet_obs::counter("scanlines", 1);
            ifet_obs::counter("pixels", w as u64);
        });
        img
    }
}

/// One pixel's ray, clipped to the volume box: `n_steps` samples from `t0`.
struct Ray {
    origin: [f32; 3],
    dir: [f32; 3],
    t0: f32,
    step: f32,
    n_steps: usize,
    packet: usize,
}

impl Ray {
    /// Visit the sample positions in order, up to `packet` at a time, until
    /// `visit` returns false. Positions are index-based (`t0 + k·step`, never
    /// an accumulated `t += step`), so the sample set is independent of the
    /// packet width.
    fn march(&self, mut visit: impl FnMut(&[[f32; 3]]) -> bool) {
        let mut pos = [[0.0f32; 3]; MAX_PACKET];
        let mut k = 0;
        while k < self.n_steps {
            let m = self.packet.min(self.n_steps - k);
            for (j, q) in pos[..m].iter_mut().enumerate() {
                let t = self.t0 + (k + j) as f32 * self.step;
                *q = [
                    self.origin[0] + self.dir[0] * t,
                    self.origin[1] + self.dir[1] * t,
                    self.origin[2] + self.dir[2] * t,
                ];
            }
            if !visit(&pos[..m]) {
                return;
            }
            k += m;
        }
    }
}

/// Ray / axis-aligned-box intersection over `[0, bounds]³`.
/// Returns the parametric `(t_enter, t_exit)` interval, or None for a miss.
fn ray_box(origin: [f32; 3], dir: [f32; 3], bounds: [f32; 3]) -> Option<(f32, f32)> {
    let mut t0 = f32::NEG_INFINITY;
    let mut t1 = f32::INFINITY;
    for k in 0..3 {
        if dir[k].abs() < 1e-9 {
            if origin[k] < 0.0 || origin[k] > bounds[k] {
                return None;
            }
            continue;
        }
        let inv = 1.0 / dir[k];
        let mut a = -origin[k] * inv;
        let mut b = (bounds[k] - origin[k]) * inv;
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        t0 = t0.max(a);
        t1 = t1.min(b);
    }
    (t0 <= t1).then_some((t0, t1))
}

/// Render the tracked feature highlighted in red over the context volume —
/// "when a voxel's value in the region growing texture is one, its color is
/// set to red and its opacity is set to the opacity in the adaptive transfer
/// function. Otherwise, the color and opacity looked up from the user
/// specified 1D transfer function are shown." (Section 7)
#[allow(clippy::too_many_arguments)]
pub fn render_tracking_overlay(
    renderer: &Renderer,
    vol: &ScalarVolume,
    tracked: &Mask3,
    base_tf: &TransferFunction1D,
    adaptive_tf: &TransferFunction1D,
    cmap: ColorMap,
    camera: &Camera,
    w: usize,
    h: usize,
) -> Image {
    assert_eq!(tracked.dims(), vol.dims());
    renderer.render_tf(
        vol,
        base_tf,
        cmap,
        camera,
        w,
        h,
        Some((tracked, adaptive_tf)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifet_volume::Dims3;

    fn ball_volume(n: usize, r: f32) -> ScalarVolume {
        let c = (n as f32 - 1.0) / 2.0;
        ScalarVolume::from_fn(Dims3::cube(n), |x, y, z| {
            let d =
                ((x as f32 - c).powi(2) + (y as f32 - c).powi(2) + (z as f32 - c).powi(2)).sqrt();
            if d <= r {
                1.0
            } else {
                0.0
            }
        })
    }

    fn setup(n: usize) -> (ScalarVolume, TransferFunction1D, Camera) {
        let vol = ball_volume(n, n as f32 * 0.25);
        let tf = TransferFunction1D::band(0.0, 1.0, 0.5, 1.0, 0.9);
        let cam = Camera::framing(vol.dims(), 0.6, 0.4);
        (vol, tf, cam)
    }

    #[test]
    fn ray_box_hit_and_miss() {
        let b = [9.0, 9.0, 9.0];
        let hit = ray_box([-5.0, 4.5, 4.5], [1.0, 0.0, 0.0], b).unwrap();
        assert!((hit.0 - 5.0).abs() < 1e-5);
        assert!((hit.1 - 14.0).abs() < 1e-5);
        assert!(ray_box([-5.0, 20.0, 4.5], [1.0, 0.0, 0.0], b).is_none());
        // Parallel ray inside the slab.
        assert!(ray_box([4.0, 4.0, -3.0], [0.0, 0.0, 1.0], b).is_some());
    }

    #[test]
    fn ball_renders_bright_center_dark_corner() {
        let (vol, tf, cam) = setup(24);
        let img = Renderer::default().render(&vol, &tf, ColorMap::Grayscale, &cam, 48, 48);
        let center = img.pixel(24, 24);
        let corner = img.pixel(1, 1);
        assert!(
            center[0] > corner[0] + 0.2,
            "center {center:?} vs corner {corner:?}"
        );
    }

    #[test]
    fn transparent_tf_gives_background() {
        let (vol, _, cam) = setup(16);
        let tf = TransferFunction1D::transparent(0.0, 1.0);
        let mut r = Renderer::default();
        r.params.background = [0.2, 0.3, 0.4];
        let img = r.render(&vol, &tf, ColorMap::Grayscale, &cam, 16, 16);
        for y in 0..16 {
            for x in 0..16 {
                let p = img.pixel(x, y);
                assert!((p[0] - 0.2).abs() < 1e-4 && (p[2] - 0.4).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let (vol, tf, cam) = setup(16);
        let r = Renderer::default();
        let a = r.render(&vol, &tf, ColorMap::Rainbow, &cam, 32, 32);
        let b = r.render(&vol, &tf, ColorMap::Rainbow, &cam, 32, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn early_termination_changes_little() {
        let (vol, tf, cam) = setup(20);
        let mut on = Renderer::default();
        on.params.early_termination = 0.95;
        let mut off = Renderer::default();
        off.params.early_termination = 1.1; // never triggers
        let a = on.render(&vol, &tf, ColorMap::Grayscale, &cam, 24, 24);
        let b = off.render(&vol, &tf, ColorMap::Grayscale, &cam, 24, 24);
        assert!(a.mse(&b) < 1e-3, "mse {}", a.mse(&b));
    }

    #[test]
    fn shading_darkens_flat_regions() {
        // With a headlight, faces oblique to the view get darker than the
        // unshaded render; total luminance must drop.
        let (vol, tf, cam) = setup(20);
        let mut shaded = Renderer::default();
        shaded.params.ambient = 0.2;
        let mut flat = Renderer::default();
        flat.params.shading = false;
        let a = shaded.render(&vol, &tf, ColorMap::Grayscale, &cam, 32, 32);
        let b = flat.render(&vol, &tf, ColorMap::Grayscale, &cam, 32, 32);
        assert!(a.mean_luminance() < b.mean_luminance());
    }

    #[test]
    fn overlay_highlights_tracked_feature_in_red() {
        let (vol, tf, cam) = setup(24);
        let tracked = Mask3::threshold(&vol, 0.5);
        let adaptive = TransferFunction1D::band(0.0, 1.0, 0.5, 1.0, 1.0);
        let mut r = Renderer::default();
        r.params.shading = false;
        let img = render_tracking_overlay(
            &r,
            &vol,
            &tracked,
            &tf,
            &adaptive,
            ColorMap::Grayscale,
            &cam,
            48,
            48,
        );
        let center = img.pixel(24, 24);
        assert!(
            center[0] > center[1] * 2.0,
            "tracked feature should be red: {center:?}"
        );
    }

    #[test]
    fn overlay_leaves_background_unchanged() {
        let (vol, tf, cam) = setup(24);
        let empty = Mask3::empty(vol.dims());
        let adaptive = TransferFunction1D::band(0.0, 1.0, 0.5, 1.0, 1.0);
        let r = Renderer::default();
        let with = render_tracking_overlay(
            &r,
            &vol,
            &empty,
            &tf,
            &adaptive,
            ColorMap::Grayscale,
            &cam,
            32,
            32,
        );
        let without = r.render(&vol, &tf, ColorMap::Grayscale, &cam, 32, 32);
        assert!(with.mse(&without) < 1e-9);
    }

    #[test]
    fn classified_render_shows_only_certain_regions() {
        let (vol, _, cam) = setup(24);
        // Certainty = the ball itself vs all-zero certainty.
        let certainty = vol.clone();
        let r = Renderer::default();
        let img = r.render_classified(&vol, &certainty, ColorMap::Grayscale, &cam, 32, 32);
        assert!(img.mean_luminance() > 0.01);
        let none = r.render_classified(
            &vol,
            &ScalarVolume::zeros(vol.dims()),
            ColorMap::Grayscale,
            &cam,
            32,
            32,
        );
        assert!(
            none.mean_luminance() < 1e-6,
            "zero certainty must render black"
        );
    }

    #[test]
    #[should_panic]
    fn classified_render_dims_mismatch_panics() {
        let (vol, _, cam) = setup(8);
        let bad = ScalarVolume::zeros(Dims3::cube(4));
        Renderer::default().render_classified(&vol, &bad, ColorMap::Grayscale, &cam, 8, 8);
    }

    #[test]
    fn mip_brightest_where_feature_is() {
        let (vol, _, cam) = setup(24);
        let img = Renderer::default().render_mip(&vol, ColorMap::Grayscale, &cam, 48, 48);
        // The ball projects to the image center: MIP there sees value 1.0.
        let center = img.pixel(24, 24);
        let corner = img.pixel(1, 1);
        assert!(center[0] > 0.9, "{center:?}");
        assert!(center[0] > corner[0]);
    }

    #[test]
    fn mip_of_constant_volume_is_uniform() {
        let vol = ScalarVolume::filled(Dims3::cube(12), 0.5);
        let cam = Camera::framing(vol.dims(), 0.3, 0.2);
        let img = Renderer::default().render_mip(&vol, ColorMap::Grayscale, &cam, 16, 16);
        // Every ray that hits the box sees the same max (degenerate range
        // maps to the color map's low end).
        let p = img.pixel(8, 8);
        assert_eq!(p[0], p[1]);
    }

    #[test]
    fn opacity_correction_makes_composite_step_invariant() {
        // Compositing a homogeneous medium must converge to the same image
        // regardless of step size once per-sample opacity is corrected to
        // the 1-voxel reference step: a = 1-(1-α)^step. The old linear
        // correction α·step over-weights coarse steps (regression gate).
        let vol = ScalarVolume::filled(Dims3::cube(12), 0.75);
        let tf = TransferFunction1D::band(0.0, 1.0, 0.0, 1.0, 0.15);
        let cam = Camera::framing(vol.dims(), 0.0, 0.0);
        let render_at = |step: f32| {
            let mut r = Renderer::default();
            r.params.step = step;
            r.params.shading = false;
            r.params.early_termination = 1.1; // compare full integrals
            r.render(&vol, &tf, ColorMap::Grayscale, &cam, 16, 16)
        };
        let coarse = render_at(2.5);
        let fine = render_at(0.25);
        // The center pixel's ray crosses the full box; linear correction
        // puts it at 0.678 vs 0.616, the exponent form within ~0.022.
        let diff = (coarse.pixel(8, 8)[0] - fine.pixel(8, 8)[0]).abs();
        assert!(
            diff < 0.04,
            "step-corrected composites disagree: coarse {} vs fine {} (diff {diff})",
            coarse.pixel(8, 8)[0],
            fine.pixel(8, 8)[0]
        );
    }

    #[test]
    fn packet_size_does_not_change_output() {
        // Sample positions are index-based and compositing is serial, so the
        // packet width is a pure throughput knob: images must be identical
        // (not just close) at every width, in every render mode.
        let (vol, tf, cam) = setup(20);
        let tracked = Mask3::threshold(&vol, 0.5);
        let adaptive = TransferFunction1D::band(0.0, 1.0, 0.5, 1.0, 1.0);
        let at = |packet: usize| {
            let mut r = Renderer::default();
            r.params.packet = packet;
            let dvr = r.render(&vol, &tf, ColorMap::Rainbow, &cam, 24, 24);
            let cls = r.render_classified(&vol, &vol, ColorMap::Grayscale, &cam, 24, 24);
            let mip = r.render_mip(&vol, ColorMap::Grayscale, &cam, 24, 24);
            let ovl = render_tracking_overlay(
                &r,
                &vol,
                &tracked,
                &tf,
                &adaptive,
                ColorMap::Grayscale,
                &cam,
                24,
                24,
            );
            (dvr, cls, mip, ovl)
        };
        let reference = at(1);
        for packet in [3usize, 8, 64, 1000] {
            assert_eq!(at(packet), reference, "packet {packet}");
        }
    }

    /// FNV-1a over the f32 bits of every channel of every pixel.
    fn digest(img: &Image) -> u64 {
        img.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    #[test]
    fn every_mode_matches_its_pinned_digest() {
        // Pins each mode's output bits so a reordered shading or blend term
        // shows up even where no visual test would notice. The blob sits off
        // centre, so rays cross it at many depths and angles.
        const PINNED: [(&str, u64); 4] = [
            ("dvr", 0x1ec0_f2b6_3810_4f48),
            ("overlay", 0x120d_00ca_1528_0c9d),
            ("classified", 0xa720_48e5_a077_8ffc),
            ("mip", 0xae4b_4cc4_e67c_54b5),
        ];
        let d = Dims3::cube(24);
        let blob = |x: usize, y: usize, z: usize| {
            let r2 = [(x, 6.0), (y, 5.0), (z, 15.0)]
                .iter()
                .map(|&(c, m)| (c as f32 - m).powi(2))
                .sum::<f32>();
            (-r2 / 20.0).exp()
        };
        let vol = ScalarVolume::from_fn(d, blob);
        // Certainty differs from the data, so opacity and colour come from
        // different fields as they do after classification.
        let certainty = ScalarVolume::from_fn(d, |x, y, z| (1.6 * blob(x, y, z) - 0.1).max(0.0));
        let tracked = Mask3::from_fn(d, |x, y, z| blob(x, y, z) > 0.5);
        let (lo, hi) = vol.value_range();
        let base = TransferFunction1D::band(lo, hi, 0.2, hi, 0.4);
        let adaptive = TransferFunction1D::band(lo, hi, 0.5, hi, 0.9);
        let cam = Camera::framing(d, 0.7, 0.35);
        for packet in [1usize, 8, 64] {
            let mut r = Renderer::default();
            r.params.packet = packet;
            let got = [
                r.render(&vol, &base, ColorMap::Rainbow, &cam, 32, 32),
                render_tracking_overlay(
                    &r,
                    &vol,
                    &tracked,
                    &base,
                    &adaptive,
                    ColorMap::Rainbow,
                    &cam,
                    32,
                    32,
                ),
                r.render_classified(&vol, &certainty, ColorMap::Rainbow, &cam, 32, 32),
                r.render_mip(&vol, ColorMap::Rainbow, &cam, 32, 32),
            ];
            for ((mode, want), img) in PINNED.iter().zip(&got) {
                let lit = img.as_slice().iter().filter(|&&v| v > 0.0).count();
                assert!(lit > 0, "{mode}: nothing in view");
                let got = digest(img);
                assert_eq!(got, *want, "{mode} at packet {packet}: {got:#018x}");
            }
        }
    }

    #[test]
    fn opacity_scale_monotone() {
        let (vol, tf, cam) = setup(16);
        let mut weak = Renderer::default();
        weak.params.opacity_scale = 0.2;
        weak.params.shading = false;
        let mut strong = Renderer::default();
        strong.params.opacity_scale = 1.0;
        strong.params.shading = false;
        let a = weak.render(&vol, &tf, ColorMap::Grayscale, &cam, 24, 24);
        let b = strong.render(&vol, &tf, ColorMap::Grayscale, &cam, 24, 24);
        assert!(a.mean_luminance() < b.mean_luminance());
    }
}
