//! RGB framebuffer and PPM output.

use std::io::{self, Write};
use std::path::Path;

/// A simple RGB image with `f32` channels in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    /// Row-major, 3 floats per pixel.
    data: Vec<f32>,
}

impl Image {
    /// A black image.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0);
        Self {
            width,
            height,
            data: vec![0.0; width * height * 3],
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> [f32; 3] {
        let i = 3 * (x + self.width * y);
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    #[inline]
    pub fn set_pixel(&mut self, x: usize, y: usize, rgb: [f32; 3]) {
        let i = 3 * (x + self.width * y);
        self.data[i] = rgb[0].clamp(0.0, 1.0);
        self.data[i + 1] = rgb[1].clamp(0.0, 1.0);
        self.data[i + 2] = rgb[2].clamp(0.0, 1.0);
    }

    /// Mutable row access for parallel rendering.
    pub fn rows_mut(&mut self) -> std::slice::ChunksMut<'_, f32> {
        self.data.chunks_mut(self.width * 3)
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mean luminance (diagnostic used by tests and benches).
    pub fn mean_luminance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .data
            .chunks_exact(3)
            .map(|p| 0.2126 * p[0] as f64 + 0.7152 * p[1] as f64 + 0.0722 * p[2] as f64)
            .sum();
        (sum / (self.width * self.height) as f64) as f32
    }

    /// Mean squared error against another image of identical size.
    pub fn mse(&self, other: &Image) -> f64 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        let ss: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| ((a - b) as f64).powi(2))
            .sum();
        ss / self.data.len() as f64
    }

    /// Encode as binary PPM (P6).
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.reserve(self.data.len());
        for &c in &self.data {
            out.push((c.clamp(0.0, 1.0) * 255.0).round() as u8);
        }
        out
    }

    /// Write a PPM file.
    pub fn save_ppm(&self, path: &Path) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_ppm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let img = Image::new(4, 3);
        assert_eq!(img.pixel(0, 0), [0.0; 3]);
        assert_eq!(img.mean_luminance(), 0.0);
    }

    #[test]
    fn set_pixel_clamps() {
        let mut img = Image::new(2, 2);
        img.set_pixel(1, 1, [2.0, -1.0, 0.5]);
        assert_eq!(img.pixel(1, 1), [1.0, 0.0, 0.5]);
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::new(5, 7);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n5 7\n255\n"));
        assert_eq!(ppm.len(), 11 + 5 * 7 * 3);
    }

    #[test]
    fn ppm_pixel_values() {
        let mut img = Image::new(1, 1);
        img.set_pixel(0, 0, [1.0, 0.0, 0.5]);
        let ppm = img.to_ppm();
        let body = &ppm[ppm.len() - 3..];
        assert_eq!(body, &[255, 0, 128]);
    }

    #[test]
    fn mse_zero_for_identical() {
        let mut a = Image::new(3, 3);
        a.set_pixel(1, 1, [0.3, 0.6, 0.9]);
        assert_eq!(a.mse(&a.clone()), 0.0);
        let b = Image::new(3, 3);
        assert!(a.mse(&b) > 0.0);
    }

    #[test]
    fn rows_mut_count() {
        let mut img = Image::new(4, 6);
        assert_eq!(img.rows_mut().count(), 6);
    }

    #[test]
    #[should_panic]
    fn zero_size_panics() {
        let _ = Image::new(0, 3);
    }
}
