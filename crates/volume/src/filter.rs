//! Volume filtering: separable Gaussian and box smoothing.
//!
//! Repeated smoothing is the conventional "remove the tiny features" baseline
//! the paper contrasts against in Figure 7 — it removes noise blobs but also
//! destroys fine detail on the large structures.

use crate::volume::ScalarVolume;
use rayon::prelude::*;

/// Build a normalized 1D Gaussian kernel with standard deviation `sigma`,
/// truncated at `3*sigma`.
pub fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    assert!(sigma > 0.0, "sigma must be positive");
    let radius = (3.0 * sigma).ceil().max(1.0) as i64;
    let mut k: Vec<f32> = (-radius..=radius)
        .map(|i| (-(i as f32).powi(2) / (2.0 * sigma * sigma)).exp())
        .collect();
    let sum: f32 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

fn convolve_axis(vol: &ScalarVolume, kernel: &[f32], axis: usize) -> ScalarVolume {
    let d = vol.dims();
    let radius = (kernel.len() / 2) as i64;
    let src = vol.as_slice();

    let mut out = vec![0.0f32; d.len()];
    out.par_chunks_mut(d.nx * d.ny)
        .enumerate()
        .for_each(|(z, slab)| {
            for (i, o) in slab.iter_mut().enumerate() {
                let (x, y) = (i % d.nx, i / d.nx);
                let mut acc = 0.0f32;
                for (ki, &w) in kernel.iter().enumerate() {
                    let off = ki as i64 - radius;
                    let (sx, sy, sz) = match axis {
                        0 => (x as i64 + off, y as i64, z as i64),
                        1 => (x as i64, y as i64 + off, z as i64),
                        _ => (x as i64, y as i64, z as i64 + off),
                    };
                    let (cx, cy, cz) = d.clamp_i(sx, sy, sz);
                    acc += w * src[d.index(cx, cy, cz)];
                }
                *o = acc;
            }
        });

    ScalarVolume::from_vec(d, out)
}

/// Separable 3D Gaussian blur with standard deviation `sigma` (voxels).
pub fn gaussian_blur(vol: &ScalarVolume, sigma: f32) -> ScalarVolume {
    let k = gaussian_kernel(sigma);
    let a = convolve_axis(vol, &k, 0);
    let b = convolve_axis(&a, &k, 1);
    convolve_axis(&b, &k, 2)
}

/// Apply `gaussian_blur` `passes` times — the paper's "repeatedly smooth the
/// data" baseline.
pub fn repeated_blur(vol: &ScalarVolume, sigma: f32, passes: usize) -> ScalarVolume {
    let mut cur = vol.clone();
    for _ in 0..passes {
        cur = gaussian_blur(&cur, sigma);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Dims3;

    #[test]
    fn kernel_is_normalized_and_symmetric() {
        let k = gaussian_kernel(1.5);
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert_eq!(k.len() % 2, 1);
        let n = k.len();
        for i in 0..n / 2 {
            assert!((k[i] - k[n - 1 - i]).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic]
    fn zero_sigma_panics() {
        let _ = gaussian_kernel(0.0);
    }

    #[test]
    fn blur_preserves_constant_field() {
        let v = ScalarVolume::filled(Dims3::cube(8), 3.0);
        let b = gaussian_blur(&v, 1.0);
        for &x in b.as_slice() {
            assert!((x - 3.0).abs() < 1e-4);
        }
    }

    #[test]
    fn blur_preserves_mass_roughly() {
        // With clamped boundaries, interior mass is conserved approximately.
        let mut v = ScalarVolume::zeros(Dims3::cube(16));
        v.set(8, 8, 8, 100.0);
        let b = gaussian_blur(&v, 1.0);
        let total: f32 = b.as_slice().iter().sum();
        assert!((total - 100.0).abs() < 1.0, "{total}");
    }

    #[test]
    fn blur_reduces_peak() {
        let mut v = ScalarVolume::zeros(Dims3::cube(9));
        v.set(4, 4, 4, 1.0);
        let b = gaussian_blur(&v, 1.0);
        assert!(*b.get(4, 4, 4) < 0.5);
        assert!(*b.get(4, 4, 4) > *b.get(0, 0, 0));
    }

    #[test]
    fn repeated_blur_smooths_more() {
        let mut v = ScalarVolume::zeros(Dims3::cube(11));
        v.set(5, 5, 5, 1.0);
        let once = gaussian_blur(&v, 1.0);
        let thrice = repeated_blur(&v, 1.0, 3);
        assert!(*thrice.get(5, 5, 5) < *once.get(5, 5, 5));
    }

    /// Reference for `convolve_axis`: every voxel index in turn, on one thread.
    fn convolve_axis_per_voxel(vol: &ScalarVolume, kernel: &[f32], axis: usize) -> ScalarVolume {
        let d = vol.dims();
        let radius = (kernel.len() / 2) as i64;
        let src = vol.as_slice();
        let out = (0..d.len())
            .map(|idx| {
                let (x, y, z) = d.coords(idx);
                let mut acc = 0.0f32;
                for (ki, &w) in kernel.iter().enumerate() {
                    let off = ki as i64 - radius;
                    let (sx, sy, sz) = match axis {
                        0 => (x as i64 + off, y as i64, z as i64),
                        1 => (x as i64, y as i64 + off, z as i64),
                        _ => (x as i64, y as i64, z as i64 + off),
                    };
                    let (cx, cy, cz) = d.clamp_i(sx, sy, sz);
                    acc += w * src[d.index(cx, cy, cz)];
                }
                acc
            })
            .collect();
        ScalarVolume::from_vec(d, out)
    }

    #[test]
    fn slab_blur_is_bit_identical_to_the_per_voxel_loop() {
        let d = Dims3::new(7, 5, 6);
        let values: Vec<f32> = (0..d.len())
            .map(|i| ((i * 7919) % 101) as f32 * 0.37 - 11.0)
            .collect();
        let vol = ScalarVolume::from_vec(d, values);
        let k = gaussian_kernel(1.3);
        let want = (0..3).fold(vol.clone(), |v, axis| convolve_axis_per_voxel(&v, &k, axis));
        for threads in [1, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| gaussian_blur(&vol, 1.3));
            let bits =
                |v: &ScalarVolume| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "threads {threads}");
        }
    }
}
