//! Axis-aligned slice views — the lower row of the paper's multi-view
//! interface (Section 6): the user paints on "three axis-aligned slices",
//! sees classification feedback per slice, and inspects the data in 2D.
//!
//! Headless equivalent: cut a slice along any axis and render it as a
//! grayscale or color-mapped image.

use crate::image::Image;
use ifet_tf::ColorMap;
use ifet_volume::ScalarVolume;

/// Which axis the slice cuts across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceAxis {
    X,
    Y,
    Z,
}

/// Extract slice data for an axis: `(width, height, row-major values)`.
pub fn slice_data(vol: &ScalarVolume, axis: SliceAxis, k: usize) -> (usize, usize, Vec<f32>) {
    match axis {
        SliceAxis::X => vol.slice_x(k),
        SliceAxis::Y => vol.slice_y(k),
        SliceAxis::Z => vol.slice_z(k),
    }
}

/// Render a slice through a color map, normalized to the *volume's* global
/// range so slices are comparable.
pub fn render_slice(vol: &ScalarVolume, axis: SliceAxis, k: usize, cmap: ColorMap) -> Image {
    let (w, h, data) = slice_data(vol, axis, k);
    let (lo, hi) = vol.value_range();
    let mut img = Image::new(w, h);
    for y in 0..h {
        for x in 0..w {
            img.set_pixel(x, y, cmap.sample_in(data[x + w * y], lo, hi));
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifet_volume::Dims3;

    fn ramp() -> ScalarVolume {
        ScalarVolume::from_fn(Dims3::new(6, 8, 10), |x, y, z| (x + y + z) as f32)
    }

    #[test]
    fn slice_dimensions_per_axis() {
        let v = ramp();
        let (w, h, _) = slice_data(&v, SliceAxis::X, 0);
        assert_eq!((w, h), (8, 10));
        let (w, h, _) = slice_data(&v, SliceAxis::Y, 0);
        assert_eq!((w, h), (6, 10));
        let (w, h, _) = slice_data(&v, SliceAxis::Z, 0);
        assert_eq!((w, h), (6, 8));
    }

    #[test]
    fn rendered_slice_uses_global_range() {
        let v = ramp();
        // Slice z=0 has max value 12 while the global max is 21: its
        // brightest pixel must NOT be pure white.
        let img = render_slice(&v, SliceAxis::Z, 0, ColorMap::Grayscale);
        let brightest = img.pixel(5, 7);
        assert!(brightest[0] < 0.99, "{brightest:?}");
        // But the global max voxel on the last slice is white.
        let img_last = render_slice(&v, SliceAxis::Z, 9, ColorMap::Grayscale);
        assert!(img_last.pixel(5, 7)[0] > 0.99);
    }
}
