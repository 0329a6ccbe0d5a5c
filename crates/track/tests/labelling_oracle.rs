//! The run labeller and everything built on it (events, attributes, tracks)
//! against the dense path they replaced: a scan-order BFS flood fill into a
//! per-voxel label grid, a full-grid overlap matrix, and a triple-loop
//! attribute sweep. Labels, reports and track sets must agree exactly, and
//! attribute floats bit for bit.

#![allow(clippy::needless_range_loop)] // indexing fixed-size [f64; 3] axes
use ifet_track::components::{ComponentLabels, Connectivity};
use ifet_track::{
    extract_tracks, extract_tracks_from_parts, track_events, Event, EventKind, FeatureAttributes,
    TrackReport, TrackSet,
};
use ifet_volume::{Dims3, Mask3, ScalarVolume};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Row lengths that put run ends on and across word boundaries, and rows of
/// a single voxel.
const NX: [usize; 5] = [1, 37, 64, 65, 130];

// ---- the dense oracle ------------------------------------------------------

/// Scan-order BFS flood fill: one label per voxel (0 = background) and the
/// component count.
fn bfs_labels(mask: &Mask3, conn: Connectivity) -> (Vec<u32>, u32) {
    let d = mask.dims();
    let offsets: Vec<(i64, i64, i64)> = (-1i64..=1)
        .flat_map(|dz| (-1i64..=1).flat_map(move |dy| (-1i64..=1).map(move |dx| (dx, dy, dz))))
        .filter(|&(dx, dy, dz)| match conn {
            Connectivity::Six => dx.abs() + dy.abs() + dz.abs() == 1,
            Connectivity::TwentySix => (dx, dy, dz) != (0, 0, 0),
        })
        .collect();
    let mut labels = vec![0u32; d.len()];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..d.len() {
        if !mask.get_linear(start) || labels[start] != 0 {
            continue;
        }
        next += 1;
        labels[start] = next;
        queue.push_back(start);
        while let Some(i) = queue.pop_front() {
            let (x, y, z) = d.coords(i);
            for &(dx, dy, dz) in &offsets {
                let (nx, ny, nz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                if !d.contains_i(nx, ny, nz) {
                    continue;
                }
                let j = d.index(nx as usize, ny as usize, nz as usize);
                if mask.get_linear(j) && labels[j] == 0 {
                    labels[j] = next;
                    queue.push_back(j);
                }
            }
        }
    }
    (labels, next)
}

fn dense_sizes(labels: &[u32], count: u32) -> Vec<usize> {
    let mut sizes = vec![0usize; count as usize + 1];
    for &l in labels {
        sizes[l as usize] += 1;
    }
    sizes[0] = 0;
    sizes
}

fn dense_mask(d: Dims3, labels: &[u32], keep: impl Fn(u32) -> bool) -> Mask3 {
    let mut m = Mask3::empty(d);
    for (i, &l) in labels.iter().enumerate() {
        if l != 0 && keep(l) {
            m.set_linear(i, true);
        }
    }
    m
}

/// The full-grid overlap matrix and its event reading, as `track_events`
/// computed them over dense label grids.
fn dense_transition(fi: usize, a: &(Vec<u32>, u32), b: &(Vec<u32>, u32)) -> Vec<Event> {
    let (na, nb) = (a.1 as usize, b.1 as usize);
    let mut m = vec![vec![0usize; nb]; na];
    for (&la, &lb) in a.0.iter().zip(&b.0) {
        if la != 0 && lb != 0 {
            m[(la - 1) as usize][(lb - 1) as usize] += 1;
        }
    }
    let succ: Vec<Vec<u32>> = (0..na)
        .map(|i| {
            (0..nb)
                .filter(|&j| m[i][j] > 0)
                .map(|j| j as u32 + 1)
                .collect()
        })
        .collect();
    let pred: Vec<Vec<u32>> = (0..nb)
        .map(|j| {
            (0..na)
                .filter(|&i| m[i][j] > 0)
                .map(|i| i as u32 + 1)
                .collect()
        })
        .collect();
    let event = |kind, before: Vec<u32>, after: Vec<u32>| Event {
        frame: fi,
        kind,
        before,
        after,
    };
    let mut events = Vec::new();
    for (i, s) in succ.iter().enumerate() {
        let label = i as u32 + 1;
        match s.len() {
            0 => events.push(event(EventKind::Death, vec![label], vec![])),
            1 => {
                if pred[(s[0] - 1) as usize].len() == 1 {
                    events.push(event(EventKind::Continuation, vec![label], vec![s[0]]));
                }
            }
            _ => events.push(event(EventKind::Split, vec![label], s.clone())),
        }
    }
    for (j, p) in pred.iter().enumerate() {
        let label = j as u32 + 1;
        match p.len() {
            0 => events.push(event(EventKind::Birth, vec![], vec![label])),
            1 => {}
            _ => events.push(event(EventKind::Merge, p.clone(), vec![label])),
        }
    }
    events
}

fn dense_report(masks: &[Mask3]) -> (TrackReport, Vec<(Vec<u32>, u32)>) {
    let labelings: Vec<_> = masks
        .iter()
        .map(|m| bfs_labels(m, Connectivity::TwentySix))
        .collect();
    let events = (0..masks.len() - 1)
        .flat_map(|fi| dense_transition(fi, &labelings[fi], &labelings[fi + 1]))
        .collect();
    let report = TrackReport {
        components_per_frame: labelings.iter().map(|l| l.1).collect(),
        voxels_per_frame: masks.iter().map(Mask3::count).collect(),
        events,
    };
    (report, labelings)
}

/// The x-y-z triple loop `measure_all` ran over a dense label grid.
fn dense_attributes(
    d: Dims3,
    (labels, count): &(Vec<u32>, u32),
    data: &ScalarVolume,
) -> Vec<FeatureAttributes> {
    let n = *count as usize;
    let mut out: Vec<FeatureAttributes> = (0..n)
        .map(|i| FeatureAttributes {
            label: i as u32 + 1,
            volume: 0,
            mass: 0.0,
            centroid: [0.0; 3],
            bbox: ([usize::MAX; 3], [0; 3]),
        })
        .collect();
    let mut weighted = vec![[0.0f64; 3]; n];
    let mut unweighted = vec![[0.0f64; 3]; n];
    for z in 0..d.nz {
        for y in 0..d.ny {
            for x in 0..d.nx {
                let l = labels[d.index(x, y, z)];
                if l == 0 {
                    continue;
                }
                let li = (l - 1) as usize;
                let v = *data.get(x, y, z) as f64;
                let a = &mut out[li];
                a.volume += 1;
                a.mass += v;
                let c = [x, y, z];
                for k in 0..3 {
                    weighted[li][k] += v * c[k] as f64;
                    unweighted[li][k] += c[k] as f64;
                    a.bbox.0[k] = a.bbox.0[k].min(c[k]);
                    a.bbox.1[k] = a.bbox.1[k].max(c[k]);
                }
            }
        }
    }
    for (i, a) in out.iter_mut().enumerate() {
        if a.mass.abs() > 1e-9 {
            for k in 0..3 {
                a.centroid[k] = weighted[i][k] / a.mass;
            }
        } else if a.volume > 0 {
            for k in 0..3 {
                a.centroid[k] = unweighted[i][k] / a.volume as f64;
            }
        }
    }
    out
}

// ---- comparisons -----------------------------------------------------------

fn assert_labelling_matches(mask: &Mask3, conn: Connectivity) {
    let d = mask.dims();
    let runs = ComponentLabels::label(mask, conn);
    let (dense, count) = bfs_labels(mask, conn);
    assert_eq!(runs.count(), count, "count, {conn:?}");
    assert_eq!(runs.dims(), d);
    for (i, &want) in dense.iter().enumerate() {
        let (x, y, z) = d.coords(i);
        assert_eq!(runs.label_at(x, y, z), want, "label at {:?}", (x, y, z));
    }
    let sizes = dense_sizes(&dense, count);
    assert_eq!(runs.sizes(), sizes);
    assert_eq!(
        runs.largest(),
        (1..=count).max_by_key(|&l| sizes[l as usize])
    );
    for l in 1..=count {
        assert_eq!(runs.component_mask(l), dense_mask(d, &dense, |k| k == l));
    }
    for min in [0, 1, 2, 3, 7, 64] {
        assert_eq!(
            runs.filter_small(min),
            dense_mask(d, &dense, |k| sizes[k as usize] >= min),
            "filter_small({min})"
        );
    }
}

fn assert_attributes_bits(got: &[FeatureAttributes], want: &[FeatureAttributes]) {
    assert_eq!(got, want);
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.mass.to_bits(), w.mass.to_bits(), "mass of {}", g.label);
        for k in 0..3 {
            assert_eq!(g.centroid[k].to_bits(), w.centroid[k].to_bits());
        }
    }
}

/// Run every tracking product of `masks` through both paths; returns the
/// report so callers can tally event kinds.
fn assert_tracking_matches(masks: &[Mask3], frames: &[ScalarVolume]) -> TrackReport {
    let d = masks[0].dims();
    let (report, dense) = dense_report(masks);
    assert_eq!(track_events(masks), report);

    let attrs: Vec<Vec<FeatureAttributes>> = dense
        .iter()
        .zip(frames)
        .map(|(l, f)| dense_attributes(d, l, f))
        .collect();
    for ((m, f), want) in masks.iter().zip(frames).zip(&attrs) {
        let l = ComponentLabels::label(m, Connectivity::TwentySix);
        assert_attributes_bits(&FeatureAttributes::measure_all(&l, f), want);
    }

    let want: TrackSet = extract_tracks_from_parts(&attrs, report.clone());
    let refs: Vec<&ScalarVolume> = frames.iter().collect();
    let got = extract_tracks(masks, &refs);
    assert_eq!(got, want);
    for (g, w) in got.tracks.iter().zip(&want.tracks) {
        assert_attributes_bits(&g.attributes, &w.attributes);
    }
    report
}

// ---- inputs ----------------------------------------------------------------

fn random_dims(rng: &mut SmallRng) -> Dims3 {
    Dims3::new(
        NX[rng.gen_range(0..NX.len())],
        rng.gen_range(1..6),
        rng.gen_range(1..5),
    )
}

fn random_mask(rng: &mut SmallRng, d: Dims3, density: f64) -> Mask3 {
    Mask3::from_fn(d, |_, _, _| rng.gen_bool(density))
}

/// A frame of 0–4 random boxes plus a sprinkle of single voxels: frame
/// after frame, boxes appear, vanish, bridge and break apart, so sequences
/// carry births, deaths, splits, merges and continuations.
fn blob_frame(rng: &mut SmallRng, d: Dims3) -> Mask3 {
    let mut m = random_mask(rng, d, 0.01);
    for _ in 0..rng.gen_range(0..5) {
        let mut axis = |n: usize| {
            let lo = rng.gen_range(0..n);
            (lo, rng.gen_range(lo + 1..=n.min(lo + 1 + n / 2)))
        };
        let ((x0, x1), (y0, y1), (z0, z1)) = (axis(d.nx), axis(d.ny), axis(d.nz));
        m.union_with(&Mask3::from_fn(d, |x, y, z| {
            (x0..x1).contains(&x) && (y0..y1).contains(&y) && (z0..z1).contains(&z)
        }));
    }
    m
}

/// Data to measure against: random values, or all zeros (the geometric
/// centroid fallback) one time in four.
fn random_frame(rng: &mut SmallRng, d: Dims3) -> ScalarVolume {
    if rng.gen_bool(0.25) {
        ScalarVolume::zeros(d)
    } else {
        ScalarVolume::from_fn(d, |_, _, _| rng.gen_range(-2.0f32..10.0))
    }
}

fn random_sequence(rng: &mut SmallRng) -> (Vec<Mask3>, Vec<ScalarVolume>) {
    let d = random_dims(rng);
    let n = rng.gen_range(2..6);
    let masks = (0..n).map(|_| blob_frame(rng, d)).collect();
    let frames = (0..n).map(|_| random_frame(rng, d)).collect();
    (masks, frames)
}

// ---- tests -----------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_labels_match_bfs_on_random_masks(seed in any::<u64>(), density in 0.0f64..1.0) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = random_dims(&mut rng);
        let mask = random_mask(&mut rng, d, density);
        assert_labelling_matches(&mask, Connectivity::Six);
        assert_labelling_matches(&mask, Connectivity::TwentySix);
    }

    #[test]
    fn reports_and_track_sets_match_the_dense_path(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (masks, frames) = random_sequence(&mut rng);
        assert_tracking_matches(&masks, &frames);
    }
}

#[test]
fn empty_and_full_masks_at_every_row_length() {
    for nx in NX {
        for d in [Dims3::new(nx, 1, 1), Dims3::new(nx, 3, 2)] {
            for mask in [Mask3::empty(d), Mask3::full(d)] {
                assert_labelling_matches(&mask, Connectivity::Six);
                assert_labelling_matches(&mask, Connectivity::TwentySix);
            }
            let full = ComponentLabels::label(&Mask3::full(d), Connectivity::Six);
            assert_eq!((full.count(), full.sizes()[1]), (1, d.len()));
        }
    }
}

#[test]
fn runs_touching_only_at_an_edge_or_corner() {
    // Run A sits in row (y, z) = (1, 1); run B in each of the 26 row
    // offsets around it (the same row excluded), ending or starting exactly
    // one voxel past A (gap 0: a diagonal contact) or two (gap 1: apart).
    for nx in [37, 64, 65, 130] {
        let d = Dims3::new(nx, 3, 3);
        for dz in 0..3 {
            for dy in 0..3 {
                if (dy, dz) == (1, 1) {
                    continue;
                }
                for gap in 0..2 {
                    for b in [5 + gap..8 + gap, 0..2 - gap] {
                        let mut m = Mask3::empty(d);
                        for x in 2..5 {
                            m.set(x, 1, 1, true);
                        }
                        for x in b.clone() {
                            m.set(x, dy, dz, true);
                        }
                        let six = ComponentLabels::label(&m, Connectivity::Six);
                        let tsix = ComponentLabels::label(&m, Connectivity::TwentySix);
                        assert_eq!(six.count(), 2, "6-conn, B {b:?} at row {:?}", (dy, dz));
                        let want = if gap == 0 { 1 } else { 2 };
                        assert_eq!(tsix.count(), want, "26-conn, B {b:?} at {:?}", (dy, dz));
                        assert_labelling_matches(&m, Connectivity::Six);
                        assert_labelling_matches(&m, Connectivity::TwentySix);
                    }
                }
            }
        }
    }
}

#[test]
fn seeded_sequences_cover_every_event_kind() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_1abe);
    let mut seen = [0usize; 5];
    for _ in 0..300 {
        let (masks, frames) = random_sequence(&mut rng);
        for e in assert_tracking_matches(&masks, &frames).events {
            seen[e.kind as usize] += 1;
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "event kinds seen: {seen:?}");
}
