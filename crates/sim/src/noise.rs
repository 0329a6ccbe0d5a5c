//! Seeded 3D value noise and fractal Brownian motion.
//!
//! Used to give the procedural datasets plausible turbulent texture while
//! staying fully deterministic (same seed → bit-identical volumes).

/// Deterministic 3D value noise on an integer lattice with trilinear
/// interpolation and smoothstep fade.
#[derive(Debug, Clone, Copy)]
pub struct ValueNoise {
    seed: u64,
}

impl ValueNoise {
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Hash an integer lattice point to `[0, 1)` (SplitMix64 finalizer).
    fn lattice(&self, x: i64, y: i64, z: i64) -> f32 {
        let mut h = self
            .seed
            .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(x as u64))
            .wrapping_add(0xBF58476D1CE4E5B9u64.wrapping_mul(y as u64))
            .wrapping_add(0x94D049BB133111EBu64.wrapping_mul(z as u64));
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58476D1CE4E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D049BB133111EB);
        h ^= h >> 31;
        (h >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Smoothstep-faded trilinear value noise at a continuous point, in `[0, 1)`.
    pub fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        let x0 = x.floor();
        let y0 = y.floor();
        let z0 = z.floor();
        let fade = |t: f32| t * t * (3.0 - 2.0 * t);
        let fx = fade(x - x0);
        let fy = fade(y - y0);
        let fz = fade(z - z0);
        let (xi, yi, zi) = (x0 as i64, y0 as i64, z0 as i64);
        let mut c = [0.0f32; 8];
        for (k, item) in c.iter_mut().enumerate() {
            let dx = (k & 1) as i64;
            let dy = ((k >> 1) & 1) as i64;
            let dz = ((k >> 2) & 1) as i64;
            *item = self.lattice(xi + dx, yi + dy, zi + dz);
        }
        let c00 = c[0] + (c[1] - c[0]) * fx;
        let c10 = c[2] + (c[3] - c[2]) * fx;
        let c01 = c[4] + (c[5] - c[4]) * fx;
        let c11 = c[6] + (c[7] - c[6]) * fx;
        let c0 = c00 + (c10 - c00) * fy;
        let c1 = c01 + (c11 - c01) * fy;
        c0 + (c1 - c0) * fz
    }

    /// Fractal Brownian motion: `octaves` layers of value noise with
    /// lacunarity 2 and the given `gain` per octave, normalized to `[0, 1]`.
    pub fn fbm(&self, x: f32, y: f32, z: f32, octaves: usize, gain: f32) -> f32 {
        let mut amp = 1.0f32;
        let mut freq = 1.0f32;
        let mut total = 0.0f32;
        let mut norm = 0.0f32;
        for _ in 0..octaves.max(1) {
            total += amp * self.sample(x * freq, y * freq, z * freq);
            norm += amp;
            amp *= gain;
            freq *= 2.0;
        }
        total / norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = ValueNoise::new(7);
        let b = ValueNoise::new(7);
        let c = ValueNoise::new(8);
        assert_eq!(a.sample(1.3, 2.7, 0.5), b.sample(1.3, 2.7, 0.5));
        assert_ne!(a.sample(1.3, 2.7, 0.5), c.sample(1.3, 2.7, 0.5));
    }

    #[test]
    fn range_is_unit_interval() {
        let n = ValueNoise::new(42);
        for i in 0..500 {
            let t = i as f32 * 0.173;
            let v = n.sample(t, t * 0.7, t * 1.3);
            assert!((0.0..=1.0).contains(&v), "{v}");
            let f = n.fbm(t, t * 0.7, t * 1.3, 4, 0.5);
            assert!((0.0..=1.0).contains(&f), "{f}");
        }
    }

    #[test]
    fn continuous_at_lattice_points() {
        let n = ValueNoise::new(9);
        let at = n.sample(3.0, 4.0, 5.0);
        let near = n.sample(3.0001, 4.0001, 5.0001);
        assert!((at - near).abs() < 1e-2);
    }

    #[test]
    fn matches_lattice_at_integers() {
        let n = ValueNoise::new(11);
        assert!((n.sample(2.0, 3.0, 4.0) - n.lattice(2, 3, 4)).abs() < 1e-6);
    }

    #[test]
    fn lattice_values_well_distributed() {
        let n = ValueNoise::new(1);
        let mean: f32 = (0..1000)
            .map(|i| n.lattice(i, 2 * i + 1, 3 * i + 7))
            .sum::<f32>()
            / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }
}
