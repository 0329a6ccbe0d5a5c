//! Exact-boundary property test for the adaptive criterion's acceptance
//! tables: the value bands derived from a transfer function, packed 64
//! voxels per word, and the table `precompute_frame` builds (from those
//! bands, or by entry lookup when there are many) must equal `accept`
//! evaluated voxel by voxel — at every derived bound and the floats one ulp
//! either side of it, on NaN, ±inf, ±0 and subnormals, for tables with
//! several separate accepted runs and thresholds equal to table entries.

use ifet_tf::tf1d::TF_ENTRIES;
use ifet_tf::TransferFunction1D;
use ifet_track::criterion::{AcceptedValues, AdaptiveTfCriterion, GrowthCriterion};
use ifet_volume::{Dims3, Mask3, ScalarVolume};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// The neighbouring float one ulp towards `+inf` (`up`) or `-inf`, with
/// `-0` and `+0` as distinct neighbours; saturates at the infinities.
fn ulp_step(v: f32, up: bool) -> f32 {
    if (v == f32::INFINITY && up) || (v == f32::NEG_INFINITY && !up) {
        return v;
    }
    let bits = v.to_bits();
    let positive = bits >> 31 == 0;
    f32::from_bits(match (positive, up) {
        (true, true) | (false, false) => bits + 1,
        (true, false) if bits == 0 => 0x8000_0000,
        (false, true) if bits == 0x8000_0000 => 0,
        _ => bits - 1,
    })
}

/// A table of runs of random length, each at one opacity level: levels
/// repeat, so a threshold drawn from the table splits it into several
/// separate accepted runs, some touching entry 0 or entry 255.
fn run_table(rng: &mut SmallRng) -> Vec<f32> {
    let levels: Vec<f32> = (0..rng.gen_range(2..6))
        .map(|_| match rng.gen_range(0..4) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen_range(0.0f32..1.0),
        })
        .collect();
    let max_run = [1, 4, 40][rng.gen_range(0..3)];
    let mut table = Vec::with_capacity(TF_ENTRIES);
    while table.len() < TF_ENTRIES {
        let level = levels[rng.gen_range(0..levels.len())];
        let run = rng.gen_range(1..=max_run).min(TF_ENTRIES - table.len());
        table.extend(std::iter::repeat(level).take(run));
    }
    table
}

/// A domain `[lo, hi]` with `hi > lo`: ordinary, one ulp wide, a span that
/// overflows to `inf`, or `lo = -inf`.
fn domain(rng: &mut SmallRng) -> (f32, f32) {
    match rng.gen_range(0..5) {
        0 | 1 => {
            let lo = rng.gen_range(-100.0f32..100.0);
            (lo, lo + 10f32.powf(rng.gen_range(-3.0f32..3.0)))
        }
        2 => {
            let lo = [0.0, -0.0, 1.0, -3.5, 1e-40][rng.gen_range(0..5)];
            // From -0 the next float up is +0, which is not above it.
            let hi = ulp_step(lo, true);
            (lo, if hi == lo { ulp_step(hi, true) } else { hi })
        }
        3 => (-3e38, rng.gen_range(1e38f32..3.4e38)),
        _ => (f32::NEG_INFINITY, rng.gen_range(-10.0f32..10.0)),
    }
}

/// Frame values: every derived bound and its one-ulp neighbours, the
/// special values, entry edges and centres, and random values in and
/// around the domain.
fn frame_values(rng: &mut SmallRng, tf: &TransferFunction1D, bands: &AcceptedValues) -> Vec<f32> {
    let mut values = vec![
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_0abc),
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::from_bits(1),
        f32::from_bits(0x8000_0001),
        f32::from_bits(0x007f_ffff),
        f32::from_bits(0x807f_ffff),
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
    ];
    for &(a, b) in &bands.bands {
        for v in [a, b] {
            values.extend([ulp_step(v, false), v, ulp_step(v, true)]);
        }
    }
    let (lo, hi) = tf.domain();
    for _ in 0..64 {
        let e = rng.gen_range(0..TF_ENTRIES);
        let centre = tf.value_of_entry(e);
        let edge = lo + (hi - lo) * e as f32 / TF_ENTRIES as f32;
        values.extend([centre, edge, ulp_step(edge, false), ulp_step(edge, true)]);
        let t = rng.gen_range(-0.2f32..1.2);
        values.push(lo + (hi - lo) * t);
        values.push(rng.gen_range(-1e3f32..1e3));
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interval_tables_match_accept_at_every_boundary(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let table = run_table(&mut rng);
        let tau = match rng.gen_range(0..6) {
            0 => 0.0,
            1 => 1.0,
            // The equality edge: a threshold equal to some entry.
            _ => table[rng.gen_range(0..TF_ENTRIES)],
        };
        let (lo, hi) = domain(&mut rng);
        let tf = TransferFunction1D::from_table(lo, hi, table);
        let bands = AcceptedValues::of(&tf, tau);
        let values = frame_values(&mut rng, &tf, &bands);
        let frame = ScalarVolume::from_vec(Dims3::new(values.len(), 1, 1), values);

        let c = AdaptiveTfCriterion::new(vec![tf.clone()], tau).unwrap();
        let oracle = Mask3::from_fn(frame.dims(), |x, y, z| c.accept(0, &frame, x, y, z));
        // The table `precompute_frame` builds (compare passes over the
        // bands, or an entry lookup past a few bands), and the interval
        // kernel over these bands whatever their number.
        prop_assert_eq!(&c.precompute_frame(0, &frame), &oracle);
        prop_assert_eq!(&Mask3::from_value_bands(&frame, &bands.bands, bands.nan), &oracle);

        // Each band's ends are accepted and the floats just outside are not.
        for &(a, b) in &bands.bands {
            prop_assert!(a <= b);
            prop_assert!(tf.opacity_at(a) >= tau && tf.opacity_at(b) >= tau);
            if a != f32::NEG_INFINITY {
                prop_assert!(tf.opacity_at(ulp_step(a, false)) < tau);
            }
            if b != f32::INFINITY {
                prop_assert!(tf.opacity_at(ulp_step(b, true)) < tau);
            }
        }
        prop_assert_eq!(bands.nan, tf.table()[0] >= tau);
    }
}
