//! Property-based tests for tracking invariants.

use ifet_track::components::{ComponentLabels, Connectivity};
use ifet_track::criterion::{FixedBandCriterion, MaskCriterion};
use ifet_track::region_grow::{grow_4d, grow_4d_serial};
use ifet_volume::{Dims3, Mask3, ScalarVolume, TimeSeries};
use proptest::prelude::*;

fn dims_strategy() -> impl Strategy<Value = Dims3> {
    (2usize..7, 2usize..7, 2usize..7).prop_map(|(x, y, z)| Dims3::new(x, y, z))
}

fn mask_strategy() -> impl Strategy<Value = Mask3> {
    dims_strategy().prop_flat_map(|d| {
        proptest::collection::vec(any::<bool>(), d.len()).prop_map(move |bits| {
            let mut m = Mask3::empty(d);
            for (i, b) in bits.into_iter().enumerate() {
                m.set_linear(i, b);
            }
            m
        })
    })
}

/// 2–4 frames of random masks over one shared (small) grid — a random 4D
/// acceptance set for grow equivalence tests.
fn multi_frame_masks_strategy() -> impl Strategy<Value = Vec<Mask3>> {
    (dims_strategy(), 2usize..5).prop_flat_map(|(d, n)| {
        proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), d.len()).prop_map(move |bits| {
                let mut m = Mask3::empty(d);
                for (i, b) in bits.into_iter().enumerate() {
                    m.set_linear(i, b);
                }
                m
            }),
            n,
        )
    })
}

proptest! {
    #[test]
    fn component_sizes_partition_mask(m in mask_strategy()) {
        let l = ComponentLabels::label(&m, Connectivity::Six);
        let sizes = l.sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), m.count());
        // Each component's mask is non-empty and labelled consistently.
        for label in 1..=l.count() {
            let cm = l.component_mask(label);
            prop_assert_eq!(cm.count(), sizes[label as usize]);
            prop_assert!(cm.count() > 0);
        }
    }

    #[test]
    fn connectivity26_never_more_components(m in mask_strategy()) {
        let six = ComponentLabels::label(&m, Connectivity::Six).count();
        let tsix = ComponentLabels::label(&m, Connectivity::TwentySix).count();
        prop_assert!(tsix <= six);
    }

    #[test]
    fn filter_small_is_subset_and_monotone(m in mask_strategy(), k in 1usize..5) {
        let l = ComponentLabels::label(&m, Connectivity::Six);
        let big = l.filter_small(k);
        let bigger = l.filter_small(k + 1);
        // Filtered result is a subset of the mask; higher threshold removes more.
        prop_assert_eq!(big.intersection_count(&m), big.count());
        prop_assert!(bigger.count() <= big.count());
    }

    #[test]
    fn region_grow_result_is_subset_of_criterion(m in mask_strategy(), seed_frac in 0.0f64..1.0) {
        let d = m.dims();
        let series = TimeSeries::from_frames(vec![(0, ScalarVolume::zeros(d))]);
        let criterion = MaskCriterion::new(vec![m.clone()]).unwrap();
        let idx = ((d.len() - 1) as f64 * seed_frac) as usize;
        let (x, y, z) = d.coords(idx);
        let grown = grow_4d(&series, &criterion, &[(0, x, y, z)]).unwrap();
        // Whatever grew is inside the allowed mask.
        prop_assert_eq!(grown[0].intersection_count(&m), grown[0].count());
        // And if the seed was allowed, it is in the result, which is exactly
        // the seed's connected component.
        if m.get(x, y, z) {
            prop_assert!(grown[0].get(x, y, z));
            let l = ComponentLabels::label(&m, Connectivity::Six);
            let comp = l.component_mask(l.label_at(x, y, z));
            prop_assert_eq!(&grown[0], &comp);
        } else {
            prop_assert!(grown[0].is_empty_mask());
        }
    }

    #[test]
    fn parallel_grow_matches_serial_on_random_masks(
        masks in multi_frame_masks_strategy(),
        seed_fracs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..4),
    ) {
        // The grower contract: the level-synchronous `grow_4d` must be
        // bit-identical to the FIFO oracle on arbitrary series/criteria/seeds.
        let d = masks[0].dims();
        let n = masks.len();
        let series = TimeSeries::from_frames(
            (0..n).map(|k| (k as u32, ScalarVolume::zeros(d))).collect(),
        );
        let criterion = MaskCriterion::new(masks).unwrap();
        let seeds: Vec<_> = seed_fracs
            .iter()
            .map(|&(ff, vf)| {
                let fi = ((n - 1) as f64 * ff) as usize;
                let (x, y, z) = d.coords(((d.len() - 1) as f64 * vf) as usize);
                (fi, x, y, z)
            })
            .collect();
        let par = grow_4d(&series, &criterion, &seeds).unwrap();
        let ser = grow_4d_serial(&series, &criterion, &seeds).unwrap();
        prop_assert_eq!(par, ser);
    }

    #[test]
    fn parallel_grow_matches_serial_with_value_band(
        frames in proptest::collection::vec(
            proptest::collection::vec(0.0f32..1.0, 64), 2..5),
        lo in 0.0f32..0.6, width in 0.1f32..0.6,
    ) {
        // Same contract under a value-band criterion over random scalar data
        // (exercises `precompute_frame` against per-voxel `accept`).
        let d = Dims3::cube(4);
        let n = frames.len();
        let series = TimeSeries::from_frames(
            frames
                .into_iter()
                .enumerate()
                .map(|(k, data)| (k as u32, ScalarVolume::from_vec(d, data)))
                .collect(),
        );
        let criterion = FixedBandCriterion::new(lo, lo + width, n).unwrap();
        let seeds = [(0usize, 1usize, 2usize, 3usize), (n - 1, 0, 0, 0)];
        let par = grow_4d(&series, &criterion, &seeds).unwrap();
        let ser = grow_4d_serial(&series, &criterion, &seeds).unwrap();
        prop_assert_eq!(par, ser);
    }

    #[test]
    fn more_seeds_grow_at_least_as_much(m in mask_strategy()) {
        let d = m.dims();
        let series = TimeSeries::from_frames(vec![(0, ScalarVolume::zeros(d))]);
        let criterion = MaskCriterion::new(vec![m.clone()]).unwrap();
        let one_seed = grow_4d(&series, &criterion, &[(0, 0, 0, 0)]).unwrap();
        let all_seeds: Vec<_> = (0..d.len())
            .map(|i| {
                let (x, y, z) = d.coords(i);
                (0usize, x, y, z)
            })
            .collect();
        let full = grow_4d(&series, &criterion, &all_seeds).unwrap();
        prop_assert!(full[0].count() >= one_seed[0].count());
        // Seeding everywhere recovers the entire criterion mask.
        prop_assert_eq!(&full[0], &m);
    }
}
