//! Property-based tests for the volume substrate's core invariants.

use ifet_volume::histogram::{CumulativeHistogram, Histogram};
use ifet_volume::mask::MaskWordsError;
use ifet_volume::maskio::{decode_mask, encode_mask};
use ifet_volume::sample::{gradient_at, trilinear};
use ifet_volume::shell::ShellOffsets;
use ifet_volume::{Dims3, Mask3, ScalarVolume};
use proptest::prelude::*;

/// Arbitrary small dims (kept tiny so each case is fast).
fn dims_strategy() -> impl Strategy<Value = Dims3> {
    (1usize..8, 1usize..8, 1usize..8).prop_map(|(x, y, z)| Dims3::new(x, y, z))
}

/// A volume with values in [-10, 10] over arbitrary small dims.
fn volume_strategy() -> impl Strategy<Value = ScalarVolume> {
    dims_strategy().prop_flat_map(|d| {
        proptest::collection::vec(-10.0f32..10.0, d.len())
            .prop_map(move |data| ScalarVolume::from_vec(d, data))
    })
}

proptest! {
    #[test]
    fn index_coords_roundtrip(d in dims_strategy(), idx_frac in 0.0f64..1.0) {
        let idx = ((d.len() - 1) as f64 * idx_frac) as usize;
        let (x, y, z) = d.coords(idx);
        prop_assert!(d.contains(x, y, z));
        prop_assert_eq!(d.index(x, y, z), idx);
    }

    #[test]
    fn trilinear_within_data_bounds(vol in volume_strategy(),
                                    fx in 0.0f32..1.0, fy in 0.0f32..1.0, fz in 0.0f32..1.0) {
        // Interpolation is a convex combination: result must lie within the
        // volume's min/max (allow epsilon for float error).
        let d = vol.dims();
        let x = fx * (d.nx as f32 - 1.0);
        let y = fy * (d.ny as f32 - 1.0);
        let z = fz * (d.nz as f32 - 1.0);
        let v = trilinear(&vol, x, y, z);
        let (lo, hi) = vol.value_range();
        prop_assert!(v >= lo - 1e-3 && v <= hi + 1e-3, "{v} outside [{lo}, {hi}]");
    }

    #[test]
    fn trilinear_at_integer_coords_is_exact(vol in volume_strategy()) {
        let d = vol.dims();
        let (x, y, z) = (d.nx / 2, d.ny / 2, d.nz / 2);
        let v = trilinear(&vol, x as f32, y as f32, z as f32);
        prop_assert!((v - vol.get(x, y, z)).abs() < 1e-4);
    }

    #[test]
    fn gradient_of_constant_volume_is_zero(d in dims_strategy(), c in -5.0f32..5.0) {
        let vol = ScalarVolume::filled(d, c);
        let g = gradient_at(&vol, d.nx / 2, d.ny / 2, d.nz / 2);
        prop_assert_eq!(g, [0.0; 3]);
    }

    #[test]
    fn normalized_is_in_unit_range(vol in volume_strategy()) {
        let n = vol.normalized();
        let (lo, hi) = n.value_range();
        prop_assert!(lo >= -1e-6 && hi <= 1.0 + 1e-6);
    }

    #[test]
    fn histogram_total_counts_all_voxels(vol in volume_strategy(), bins in 1usize..64) {
        let h = Histogram::of_volume(&vol, bins);
        prop_assert_eq!(h.total(), vol.len() as u64);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), vol.len() as u64);
    }

    #[test]
    fn cumulative_fraction_is_monotone(vol in volume_strategy(),
                                       a in -12.0f32..12.0, b in -12.0f32..12.0) {
        let ch = CumulativeHistogram::of_volume(&vol, 32);
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(ch.fraction_at_or_below(lo) <= ch.fraction_at_or_below(hi) + 1e-6);
    }

    #[test]
    fn cumulative_fraction_bounds(vol in volume_strategy(), q in -12.0f32..12.0) {
        let ch = CumulativeHistogram::of_volume(&vol, 32);
        let f = ch.fraction_at_or_below(q);
        prop_assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn cumhist_rank_invariant_under_monotone_shift(vol in volume_strategy(),
                                                   shift in -3.0f32..3.0,
                                                   q in -9.0f32..9.0) {
        // The IATF's foundation: shifting all values by a constant preserves
        // every query's cumulative fraction (up to binning).
        let shifted = vol.map(|&v| v + shift);
        let c0 = CumulativeHistogram::of_volume(&vol, 512);
        let c1 = CumulativeHistogram::of_volume(&shifted, 512);
        let f0 = c0.fraction_at_or_below(q);
        let f1 = c1.fraction_at_or_below(q + shift);
        prop_assert!((f0 - f1).abs() < 0.05, "{f0} vs {f1}");
    }

    #[test]
    fn mask_set_algebra(d in dims_strategy(), seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let bits = |seed: u64| {
            Mask3::from_fn(d, |x, y, z| {
                (seed ^ (x as u64).wrapping_mul(31) ^ (y as u64).wrapping_mul(1009)
                    ^ (z as u64).wrapping_mul(74747)).count_ones() % 2 == 0
            })
        };
        let a = bits(seed_a);
        let b = bits(seed_b);
        // |A ∪ B| + |A ∩ B| = |A| + |B|
        prop_assert_eq!(
            a.union_count(&b) + a.intersection_count(&b),
            a.count() + b.count()
        );
        // Subtraction partitions A.
        let mut diff = a.clone();
        diff.subtract(&b);
        prop_assert_eq!(diff.count() + a.intersection_count(&b), a.count());
        // Double inversion is identity.
        let mut inv = a.clone();
        inv.invert();
        inv.invert();
        prop_assert_eq!(inv, a);
    }

    #[test]
    fn jaccard_dice_relationship(d in dims_strategy(), seed in any::<u64>()) {
        // dice = 2J / (1 + J) for any pair of masks.
        let a = Mask3::from_fn(d, |x, y, z| (x + y + z + seed as usize) % 3 == 0);
        let b = Mask3::from_fn(d, |x, y, z| (x * 2 + y + z) % 4 == 0);
        let j = a.jaccard(&b);
        let dice = a.dice(&b);
        prop_assert!((dice - 2.0 * j / (1.0 + j)).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&j));
    }

    #[test]
    fn dilate_contains_original_erode_contained(d in dims_strategy(), seed in any::<u64>()) {
        let m = Mask3::from_fn(d, |x, y, z| (x ^ y ^ z ^ seed as usize) % 2 == 0);
        let dil = m.dilate6();
        prop_assert_eq!(m.intersection_count(&dil), m.count(), "dilation must contain original");
        let ero = m.erode6();
        prop_assert_eq!(ero.intersection_count(&m), ero.count(), "erosion must be contained");
    }

    #[test]
    fn f1_between_zero_and_one(d in dims_strategy(), ta in 0usize..4, tb in 0usize..4) {
        let a = Mask3::from_fn(d, |x, _, _| x % 4 >= ta);
        let b = Mask3::from_fn(d, |_, y, _| y % 4 >= tb);
        let f1 = a.f1(&b);
        prop_assert!((0.0..=1.0).contains(&f1));
    }

    #[test]
    fn bitset_roundtrips_arbitrary_bools(bm in bool_mask_strategy()) {
        // The packed-word mask must reproduce the reference `Vec<bool>`
        // exactly, bit for bit, through both linear and 3D accessors.
        let (d, bits) = bm;
        let m = mask_of_bools(d, &bits);
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(m.get_linear(i), b);
            let (x, y, z) = d.coords(i);
            prop_assert_eq!(m.get(x, y, z), b);
        }
        let truthy: Vec<usize> =
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        prop_assert_eq!(m.set_indices().collect::<Vec<_>>(), truthy);
        prop_assert_eq!(m.count(), bits.iter().filter(|&&b| b).count());
    }

    #[test]
    fn word_level_set_metrics_match_bool_reference((d, bits_a, bits_b) in bool_mask_pair_strategy()) {
        // Word-level popcount metrics must agree with per-element counting
        // over the old `Vec<bool>` semantics.
        let a = mask_of_bools(d, &bits_a);
        let b = mask_of_bools(d, &bits_b);
        let naive_inter = bits_a.iter().zip(&bits_b).filter(|(&x, &y)| x && y).count();
        let naive_union = bits_a.iter().zip(&bits_b).filter(|(&x, &y)| x || y).count();
        prop_assert_eq!(a.intersection_count(&b), naive_inter);
        prop_assert_eq!(a.union_count(&b), naive_union);

        let mut u = a.clone();
        u.union_with(&b);
        prop_assert_eq!(u.count(), naive_union);
        let mut i = a.clone();
        i.intersect_with(&b);
        prop_assert_eq!(i.count(), naive_inter);
        let mut s = a.clone();
        s.subtract(&b);
        prop_assert_eq!(s.count(), bits_a.iter().zip(&bits_b).filter(|(&x, &y)| x && !y).count());

        // Inversion must respect the tail: exactly the complement, never
        // phantom bits past `dims.len()`.
        let mut inv = a.clone();
        inv.invert();
        prop_assert_eq!(inv.count(), d.len() - a.count());
        prop_assert_eq!(inv.intersection_count(&a), 0);
    }

    #[test]
    fn binary_mask_section_roundtrips_bool_reference(bm in bool_mask_strategy()) {
        // The on-disk mask section must round-trip against the `Vec<bool>`
        // reference model: encode → decode reproduces every bit, and the
        // word image itself is unchanged (bit-identical artifact bytes).
        let (d, bits) = bm;
        let m = mask_of_bools(d, &bits);
        let bytes = encode_mask(&m);
        let (back, used) = decode_mask(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back.dims(), d);
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(back.get_linear(i), b);
        }
        prop_assert_eq!(back.words(), m.words());
        // Re-encoding is byte-identical (no hidden nondeterminism).
        prop_assert_eq!(encode_mask(&back), bytes);
        // from_words accepts exactly the decoded image...
        prop_assert_eq!(&Mask3::from_words(d, back.words().to_vec()).unwrap(), &back);
        // ...and rejects a wrong-length image with a typed error.
        let mut too_long = back.words().to_vec();
        too_long.push(0);
        prop_assert!(matches!(
            Mask3::from_words(d, too_long),
            Err(MaskWordsError::WordCountMismatch { .. })
        ));
    }
}

/// `(dims, bits)` with `bits.len() == dims.len()`, sized to cross u64 word
/// boundaries (up to 9³ = 729 bits ≈ 12 words).
fn bool_mask_strategy() -> impl Strategy<Value = (Dims3, Vec<bool>)> {
    (1usize..10, 1usize..10, 1usize..10)
        .prop_map(|(x, y, z)| Dims3::new(x, y, z))
        .prop_flat_map(|d| {
            proptest::collection::vec(any::<bool>(), d.len()).prop_map(move |bits| (d, bits))
        })
}

/// Two independent bool masks over the same dims.
fn bool_mask_pair_strategy() -> impl Strategy<Value = (Dims3, Vec<bool>, Vec<bool>)> {
    (1usize..10, 1usize..10, 1usize..10)
        .prop_map(|(x, y, z)| Dims3::new(x, y, z))
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(any::<bool>(), d.len()),
                proptest::collection::vec(any::<bool>(), d.len()),
            )
                .prop_map(move |(a, b)| (d, a, b))
        })
}

fn mask_of_bools(d: Dims3, bits: &[bool]) -> Mask3 {
    let mut m = Mask3::empty(d);
    for (i, &b) in bits.iter().enumerate() {
        m.set_linear(i, b);
    }
    m
}

// ---- Shell-statistics lane kernel ----

/// The per-voxel Welford loop `ShellOffsets::sample_stats` ran before the
/// lane kernel, copied verbatim as the oracle: clamped gather, then
/// `delta`/`mean`/`m2` in f64 and `min`/`max` in f32, offset by offset.
fn welford_reference(
    shell: &ShellOffsets,
    vol: &ScalarVolume,
    x: usize,
    y: usize,
    z: usize,
) -> [f32; 4] {
    let (xi, yi, zi) = (x as i64, y as i64, z as i64);
    let mut n = 0u32;
    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &(dx, dy, dz) in shell.offsets() {
        let v = *vol.get_clamped(xi + dx, yi + dy, zi + dz);
        n += 1;
        let delta = v as f64 - mean;
        mean += delta / n as f64;
        m2 += delta * (v as f64 - mean);
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if n == 0 {
        return [0.0; 4];
    }
    let var = if n > 1 { m2 / (n - 1) as f64 } else { 0.0 };
    [mean as f32, lo, hi, var.sqrt() as f32]
}

/// Dims with x up to 19 (so below, at and between multiples of the
/// kernel's 8 lanes) and y/z small enough that every row is checked.
fn shell_volume_strategy() -> impl Strategy<Value = ScalarVolume> {
    (1usize..20, 1usize..5, 1usize..5).prop_flat_map(|(x, y, z)| {
        let d = Dims3::new(x, y, z);
        proptest::collection::vec(-10.0f32..10.0, d.len())
            .prop_map(move |data| ScalarVolume::from_vec(d, data))
    })
}

/// A full shell of radius 1–4, or a Fibonacci shell (unsorted offsets).
fn shell_offsets(radius: u32, fibonacci: bool) -> ShellOffsets {
    if fibonacci {
        ShellOffsets::fibonacci(radius as f32, 26)
    } else {
        ShellOffsets::full(radius as f32)
    }
}

/// Every `(x0, len)` split of every row: run outputs, as bit patterns.
fn for_each_run(
    vol: &ScalarVolume,
    shell: &ShellOffsets,
    mut check: impl FnMut(usize, usize, usize, &[[f32; 4]]),
) {
    let d = vol.dims();
    let mut run = vec![[0.0f32; 4]; d.nx];
    for z in 0..d.nz {
        for y in 0..d.ny {
            for x0 in 0..d.nx {
                for len in 1..=d.nx - x0 {
                    let out = &mut run[..len];
                    shell.sample_stats_run(vol, x0, y, z, out);
                    check(x0, y, z, out);
                }
            }
        }
    }
}

fn bits(s: [f32; 4]) -> [u32; 4] {
    s.map(f32::to_bits)
}

proptest! {
    /// On finite fields the lane kernel reproduces the old per-voxel loop
    /// bit for bit, for every run split, every row (the y/z faces
    /// included) and every x position relative to the lane blocks.
    #[test]
    fn shell_run_bit_identical_to_per_voxel_welford(
        vol in shell_volume_strategy(),
        radius in 1u32..5,
        fibonacci in any::<bool>(),
    ) {
        let shell = shell_offsets(radius, fibonacci);
        for_each_run(&vol, &shell, |x0, y, z, out| {
            for (i, s) in out.iter().enumerate() {
                let want = welford_reference(&shell, &vol, x0 + i, y, z);
                assert_eq!(bits(*s), bits(want), "voxel ({}, {y}, {z}) of run at x0 {x0}", x0 + i);
                assert_eq!(bits(shell.sample_stats(&vol, x0 + i, y, z)), bits(want));
            }
        });
    }

    /// With NaN (any sign and payload) and ±inf voxels injected, one-voxel
    /// and run outputs still agree bit for bit and every NaN is the
    /// canonical `f32::NAN`; against the old loop, NaN positions match and
    /// every non-NaN output matches bit for bit.
    #[test]
    fn shell_run_non_finite_policy(
        vol in shell_volume_strategy(),
        radius in 1u32..5,
        fibonacci in any::<bool>(),
        inject in proptest::collection::vec((any::<usize>(), 0u32..3, any::<u32>()), 1..6),
    ) {
        let mut vol = vol;
        let len = vol.len();
        for &(at, kind, payload) in &inject {
            vol.as_mut_slice()[at % len] = match kind {
                0 => f32::from_bits(0x7f80_0001 | payload),
                1 => f32::INFINITY,
                _ => f32::NEG_INFINITY,
            };
        }
        let shell = shell_offsets(radius, fibonacci);
        for_each_run(&vol, &shell, |x0, y, z, out| {
            for (i, s) in out.iter().enumerate() {
                let x = x0 + i;
                assert_eq!(bits(*s), bits(shell.sample_stats(&vol, x, y, z)), "voxel ({x}, {y}, {z})");
                let old = welford_reference(&shell, &vol, x, y, z);
                for (k, (&got, &want)) in s.iter().zip(&old).enumerate() {
                    assert_eq!(got.is_nan(), want.is_nan(), "stat {k} of voxel ({x}, {y}, {z})");
                    if got.is_nan() {
                        assert_eq!(got.to_bits(), f32::NAN.to_bits());
                    } else {
                        assert_eq!(got.to_bits(), want.to_bits(), "stat {k} of voxel ({x}, {y}, {z})");
                    }
                }
            }
        });
    }
}

// ---- Out-of-core LRU cache properties ----

/// One shared on-disk series for the LRU properties (written once per run).
fn ooc_fixture() -> &'static (ifet_volume::TimeSeries, Vec<std::path::PathBuf>) {
    use std::sync::OnceLock;
    static FIX: OnceLock<(ifet_volume::TimeSeries, Vec<std::path::PathBuf>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let d = Dims3::cube(4);
        let series = ifet_volume::TimeSeries::from_frames(
            (0..OOC_FRAMES)
                .map(|k| {
                    (
                        k as u32 * 3,
                        ScalarVolume::from_fn(d, move |x, y, z| {
                            (x + 2 * y + 4 * z) as f32 + 100.0 * k as f32
                        }),
                    )
                })
                .collect(),
        );
        let dir = std::env::temp_dir().join(format!("ifet_lru_prop_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths = ifet_volume::io::write_series(&dir, "lru", &series).unwrap();
        (series, paths)
    })
}

const OOC_FRAMES: usize = 6;

proptest! {
    /// Random access through the LRU cache is transparent (every frame read
    /// back equals its in-core twin), residency never exceeds capacity, the
    /// hit/miss/evict accounting balances, and the resident set is exactly
    /// the most-recently-used frames.
    #[test]
    fn lru_random_access_is_transparent_and_bounded(
        capacity in 1usize..8,
        accesses in proptest::collection::vec(0usize..OOC_FRAMES, 1..40),
    ) {
        let (series, paths) = ooc_fixture();
        let ooc = ifet_volume::OutOfCoreSeries::open(paths.clone(), capacity).unwrap();
        for &i in &accesses {
            let got = ooc.frame(i).unwrap();
            prop_assert_eq!(&*got, series.frame(i));
            let st = ooc.stats();
            prop_assert!(st.resident <= capacity);
            prop_assert!(st.resident_high_water <= capacity);
        }
        let st = ooc.stats();
        prop_assert_eq!(st.hits + st.misses, accesses.len() as u64);
        let distinct: std::collections::HashSet<usize> = accesses.iter().copied().collect();
        prop_assert!(st.misses >= distinct.len() as u64);
        prop_assert_eq!(st.evictions, st.misses - st.resident as u64);
        prop_assert_eq!(st.bytes_paged, st.misses * series.dims().len() as u64 * 4);

        // LRU order: the last `capacity` distinct frames accessed must still
        // be resident, so touching them again cannot miss.
        let mut mru: Vec<usize> = Vec::new();
        for &i in accesses.iter().rev() {
            if !mru.contains(&i) {
                mru.push(i);
            }
            if mru.len() == capacity.min(distinct.len()) {
                break;
            }
        }
        for &i in &mru {
            let _ = ooc.frame(i).unwrap();
        }
        prop_assert_eq!(ooc.stats().misses, st.misses, "MRU frames must still be resident");
    }

    /// A byte-counted budget shared by two series is never exceeded — not
    /// even transiently by in-flight prefetch reads, which are charged
    /// before their bytes land. The only sanctioned overshoot is the
    /// single-frame floor when the budget is smaller than one frame.
    #[test]
    fn lru_shared_byte_budget_never_exceeded(
        budget_bytes in 1u64..1200,
        ops in proptest::collection::vec((0usize..OOC_FRAMES, any::<bool>(), any::<bool>()), 1..40),
    ) {
        let (series, paths) = ooc_fixture();
        let frame_bytes = series.dims().len() as u64 * 4;
        let budget = ifet_volume::CacheBudgetHandle::bytes(budget_bytes);
        let a = ifet_volume::OutOfCoreSeries::open_with(paths.clone(), &budget, 2).unwrap();
        let b = ifet_volume::OutOfCoreSeries::open_with(paths.clone(), &budget, 2).unwrap();
        let bound = budget_bytes.max(frame_bytes);
        for &(i, use_b, hint) in &ops {
            let ooc = if use_b { &b } else { &a };
            if hint {
                ooc.request_prefetch(&[(i + 1) % OOC_FRAMES, (i + 2) % OOC_FRAMES]);
            }
            let got = ooc.frame(i).unwrap();
            prop_assert_eq!(&*got, series.frame(i));
            let st = budget.stats();
            prop_assert!(
                st.high_water_bytes <= bound,
                "high-water {} exceeds bound {} (budget {})",
                st.high_water_bytes, bound, budget_bytes
            );
        }
        // Per-series byte high-waters are within the shared bound too.
        for ooc in [&a, &b] {
            prop_assert!(ooc.stats().resident_high_water_bytes <= bound);
        }
    }

    /// Stats algebra under prefetch: demand accounting stays exact
    /// (`hits + misses` equals exactly the number of demand reads no matter
    /// how prefetch races them), every paged byte is attributed to a demand
    /// miss or a prefetch load, and a prefetched frame resolves to at most
    /// one of {hit, wasted}.
    #[test]
    fn lru_stats_algebra_holds_under_prefetch(
        capacity in 1usize..4,
        depth in 1usize..4,
        accesses in proptest::collection::vec(0usize..OOC_FRAMES, 1..40),
    ) {
        let (series, paths) = ooc_fixture();
        let frame_bytes = series.dims().len() as u64 * 4;
        let budget = ifet_volume::CacheBudgetHandle::frames(capacity);
        let ooc = ifet_volume::OutOfCoreSeries::open_with(paths.clone(), &budget, depth).unwrap();
        for (k, &i) in accesses.iter().enumerate() {
            if k % 2 == 0 {
                ooc.request_prefetch(&[(i + 1) % OOC_FRAMES]);
            }
            prop_assert_eq!(&*ooc.frame(i).unwrap(), series.frame(i));
        }
        let st = ooc.stats();
        prop_assert_eq!(st.hits + st.misses, accesses.len() as u64);
        prop_assert!(st.prefetch_hits + st.prefetch_wasted <= st.prefetched);
        prop_assert_eq!(st.bytes_paged, (st.misses + st.prefetched) * frame_bytes);
        prop_assert!(st.resident_high_water <= capacity);
    }

    /// Byte-charged eviction is still true LRU: with a budget worth exactly
    /// `capacity` frames, the last `capacity` distinct frames demanded are
    /// resident, so re-touching them cannot miss.
    #[test]
    fn lru_byte_charged_eviction_is_true_lru(
        capacity in 1usize..5,
        accesses in proptest::collection::vec(0usize..OOC_FRAMES, 1..40),
    ) {
        let (series, paths) = ooc_fixture();
        let frame_bytes = series.dims().len() as u64 * 4;
        let budget = ifet_volume::CacheBudgetHandle::bytes(capacity as u64 * frame_bytes);
        let ooc = ifet_volume::OutOfCoreSeries::open_with(paths.clone(), &budget, 0).unwrap();
        for &i in &accesses {
            prop_assert_eq!(&*ooc.frame(i).unwrap(), series.frame(i));
            prop_assert!(ooc.stats().resident_high_water_bytes <= capacity as u64 * frame_bytes);
        }
        let st = ooc.stats();
        let distinct: std::collections::HashSet<usize> = accesses.iter().copied().collect();
        let mut mru: Vec<usize> = Vec::new();
        for &i in accesses.iter().rev() {
            if !mru.contains(&i) {
                mru.push(i);
            }
            if mru.len() == capacity.min(distinct.len()) {
                break;
            }
        }
        for &i in &mru {
            let _ = ooc.frame(i).unwrap();
        }
        prop_assert_eq!(
            ooc.stats().misses, st.misses,
            "byte-charged LRU evicted a most-recently-used frame"
        );
    }
}

proptest! {
    /// One budget-wide recency order: two or three series on one
    /// `Frames(k)` budget behave exactly like a single reference LRU list
    /// over `(series, frame)` keys. After every access each series' hits,
    /// misses, evictions and resident count match the reference; at the end
    /// every frame the reference holds is still resident (re-touching it
    /// cannot miss).
    #[test]
    fn lru_shared_budget_matches_reference_lru(
        capacity in 1usize..6,
        n_series in 2usize..4,
        accesses in proptest::collection::vec((0usize..3, 0usize..OOC_FRAMES), 1..60),
    ) {
        let (series, paths) = ooc_fixture();
        let budget = ifet_volume::CacheBudgetHandle::frames(capacity);
        let members: Vec<_> = (0..n_series)
            .map(|_| ifet_volume::OutOfCoreSeries::open_with(paths.clone(), &budget, 0).unwrap())
            .collect();
        // Least recent first.
        let mut lru: Vec<(usize, usize)> = Vec::new();
        let mut want = vec![(0u64, 0u64, 0u64); n_series]; // (hits, misses, evictions)
        for &(s, i) in &accesses {
            let s = s % n_series;
            if let Some(pos) = lru.iter().position(|&k| k == (s, i)) {
                lru.remove(pos);
                want[s].0 += 1;
            } else {
                want[s].1 += 1;
                if lru.len() == capacity {
                    want[lru.remove(0).0].2 += 1;
                }
            }
            lru.push((s, i));
            prop_assert_eq!(&*members[s].frame(i).unwrap(), series.frame(i));
            for (k, m) in members.iter().enumerate() {
                let st = m.stats();
                prop_assert_eq!((st.hits, st.misses, st.evictions), want[k], "series {}", k);
                let resident = lru.iter().filter(|e| e.0 == k).count();
                prop_assert_eq!(st.resident, resident, "series {}", k);
            }
        }
        for &(s, i) in &lru {
            let misses = members[s].stats().misses;
            let _ = members[s].frame(i).unwrap();
            prop_assert_eq!(members[s].stats().misses, misses, "({}, {}) was evicted", s, i);
        }
    }
}

/// Dropping a series hands its resident frames back to the shared budget.
/// Before, they stayed charged with no evictor able to reach them, so one
/// closed series shrank every other member's budget and the high-water
/// climbed past the limit.
#[test]
fn lru_dropped_series_returns_its_frames_to_shared_budget() {
    let (series, paths) = ooc_fixture();
    let frame_bytes = series.dims().len() as u64 * 4;
    let budget = ifet_volume::CacheBudgetHandle::frames(2);
    let a = ifet_volume::OutOfCoreSeries::open_with(paths.clone(), &budget, 0).unwrap();
    a.set_residency_group(7);
    let _ = a.frame(0).unwrap();
    let _ = a.frame(1).unwrap();
    assert_eq!(budget.group_stats(7).resident_bytes, 2 * frame_bytes);
    drop(a);
    let st = budget.stats();
    assert_eq!((st.resident_frames, st.resident_bytes), (0, 0));
    assert_eq!(budget.group_stats(7).resident_bytes, 0);

    let b = ifet_volume::OutOfCoreSeries::open_with(paths.clone(), &budget, 0).unwrap();
    assert_eq!(&*b.frame(2).unwrap(), series.frame(2));
    let st = budget.stats();
    assert_eq!(st.resident_frames, 1);
    assert_eq!(st.resident_bytes, frame_bytes);
    assert_eq!(st.high_water_frames, 2, "budget of 2 frames exceeded");
    assert_eq!(
        st.evictions, 0,
        "nothing of the dropped series is left to evict"
    );
}
