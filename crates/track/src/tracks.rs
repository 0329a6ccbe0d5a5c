//! Persistent feature tracks: stitching per-frame components into
//! identity-preserving tracks with attribute time series.
//!
//! The event layer ([`crate::events`]) reports what happened between frame
//! pairs; this module follows each feature through its continuations to give
//! the per-feature story a scientist asks for — "where did *this* vortex go,
//! how did its volume evolve, when did it split" (the Figure 9 narration,
//! and Reinders et al.'s attribute-curve tracking cited in Section 2).

use crate::attributes::FeatureAttributes;
use crate::components::label_masks;
use crate::events::{events_from_labelings, EventKind, TrackReport};
use ifet_volume::{Mask3, ScalarVolume};
use serde::{Deserialize, Serialize};

/// One feature followed through time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Track {
    /// Stable track identifier.
    pub id: u32,
    /// Frame index where the track starts.
    pub start_frame: usize,
    /// Per-frame measurements, one per frame the track lives in.
    pub attributes: Vec<FeatureAttributes>,
    /// Track id of the parent when this track was born from a split.
    pub parent: Option<u32>,
    /// How the track ended.
    pub ending: TrackEnding,
}

/// Why a track stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrackEnding {
    /// Still alive in the final frame.
    SurvivesToEnd,
    /// The feature dissipated (no successor).
    Dissipated,
    /// The feature split; children carry on as new tracks.
    Split,
    /// The feature merged into another track — `into` names the track that
    /// absorbed it, so a feature-seeded analysis (e.g. particles dropped in
    /// a grown mask) can follow its source feature across the merge.
    Merged { into: u32 },
}

impl Track {
    /// Number of frames the track spans.
    pub fn lifetime(&self) -> usize {
        self.attributes.len()
    }

    /// Total centroid travel distance over the track's life.
    pub fn path_length(&self) -> f64 {
        self.attributes
            .windows(2)
            .map(|w| w[0].centroid_distance(&w[1]))
            .sum()
    }
}

/// The full set of tracks extracted from a mask sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackSet {
    pub tracks: Vec<Track>,
    /// The event report the tracks were derived from.
    pub report: TrackReport,
}

impl TrackSet {
    /// Tracks alive at frame `fi`.
    pub fn alive_at(&self, fi: usize) -> impl Iterator<Item = &Track> {
        self.tracks
            .iter()
            .filter(move |t| fi >= t.start_frame && fi < t.start_frame + t.lifetime())
    }
}

/// Build persistent tracks from per-frame masks and the matching data frames
/// (for attribute measurement). `masks.len()` must equal `frames.len()`.
/// Each mask is labeled once; events and attributes share that labeling.
///
/// Needs every frame resident at once; out-of-core callers should label and
/// measure frame-by-frame themselves (e.g. through `map_frames_windowed`)
/// and hand the parts to [`extract_tracks_from_parts`].
pub fn extract_tracks(masks: &[Mask3], frames: &[&ScalarVolume]) -> TrackSet {
    assert_eq!(masks.len(), frames.len(), "masks/frames length mismatch");
    assert!(!masks.is_empty());

    let labelings = label_masks(masks);
    let attrs: Vec<Vec<FeatureAttributes>> = labelings
        .iter()
        .zip(frames)
        .map(|(l, f)| FeatureAttributes::measure_all(l, f))
        .collect();
    extract_tracks_from_parts(&attrs, events_from_labelings(&labelings))
}

/// Stitch tracks from per-frame attribute tables and the event report.
/// `attrs[fi]` must be the `measure_all` result for frame `fi`'s labeling,
/// and `report` the event report of the same labelings.
pub fn extract_tracks_from_parts(
    attrs: &[Vec<FeatureAttributes>],
    report: TrackReport,
) -> TrackSet {
    assert!(!attrs.is_empty());
    assert!(
        attrs
            .iter()
            .map(Vec::len)
            .eq(report.components_per_frame.iter().map(|&c| c as usize)),
        "attrs do not match the report's components per frame"
    );

    // active[label-1] = track index currently carrying that component.
    let mut tracks: Vec<Track> = Vec::new();
    let mut active: Vec<Option<usize>> = vec![None; attrs[0].len()];

    // Frame 0: every component starts a track.
    for (ci, a) in attrs[0].iter().enumerate() {
        active[ci] = Some(tracks.len());
        tracks.push(Track {
            id: tracks.len() as u32,
            start_frame: 0,
            attributes: vec![a.clone()],
            parent: None,
            ending: TrackEnding::SurvivesToEnd,
        });
    }

    for fi in 0..attrs.len() - 1 {
        let mut next_active: Vec<Option<usize>> = vec![None; attrs[fi + 1].len()];

        for e in report.events.iter().filter(|e| e.frame == fi) {
            match e.kind {
                EventKind::Continuation => {
                    let ti = active[(e.before[0] - 1) as usize]
                        .expect("continuation from unknown track");
                    let la = (e.after[0] - 1) as usize;
                    tracks[ti].attributes.push(attrs[fi + 1][la].clone());
                    next_active[la] = Some(ti);
                }
                EventKind::Split => {
                    let ti = active[(e.before[0] - 1) as usize].expect("split from unknown track");
                    tracks[ti].ending = TrackEnding::Split;
                    let parent_id = tracks[ti].id;
                    for &after in &e.after {
                        let la = (after - 1) as usize;
                        next_active[la] = Some(tracks.len());
                        tracks.push(Track {
                            id: tracks.len() as u32,
                            start_frame: fi + 1,
                            attributes: vec![attrs[fi + 1][la].clone()],
                            parent: Some(parent_id),
                            ending: TrackEnding::SurvivesToEnd,
                        });
                    }
                }
                EventKind::Merge => {
                    // Resolve (or create) the absorbing track *first* so the
                    // parents' endings can name it.
                    let la = (e.after[0] - 1) as usize;
                    let result_ti = match next_active[la] {
                        Some(ti) => ti,
                        None => {
                            let ti = tracks.len();
                            next_active[la] = Some(ti);
                            tracks.push(Track {
                                id: ti as u32,
                                start_frame: fi + 1,
                                attributes: vec![attrs[fi + 1][la].clone()],
                                parent: None,
                                ending: TrackEnding::SurvivesToEnd,
                            });
                            ti
                        }
                    };
                    let into = tracks[result_ti].id;
                    for &before in &e.before {
                        if let Some(ti) = active[(before - 1) as usize] {
                            if ti != result_ti {
                                tracks[ti].ending = TrackEnding::Merged { into };
                            }
                        }
                    }
                }
                EventKind::Death => {
                    if let Some(ti) = active[(e.before[0] - 1) as usize] {
                        tracks[ti].ending = TrackEnding::Dissipated;
                    }
                }
                EventKind::Birth => {
                    let la = (e.after[0] - 1) as usize;
                    next_active[la] = Some(tracks.len());
                    tracks.push(Track {
                        id: tracks.len() as u32,
                        start_frame: fi + 1,
                        attributes: vec![attrs[fi + 1][la].clone()],
                        parent: None,
                        ending: TrackEnding::SurvivesToEnd,
                    });
                }
            }
        }
        active = next_active;
    }

    TrackSet { tracks, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifet_volume::Dims3;

    fn ball(d: Dims3, c: (f32, f32, f32), r: f32) -> Mask3 {
        Mask3::from_fn(d, |x, y, z| {
            ((x as f32 - c.0).powi(2) + (y as f32 - c.1).powi(2) + (z as f32 - c.2).powi(2)).sqrt()
                <= r
        })
    }

    fn flat(d: Dims3) -> ScalarVolume {
        ScalarVolume::filled(d, 1.0)
    }

    #[test]
    fn single_moving_feature_is_one_track() {
        let d = Dims3::cube(16);
        let masks = vec![
            ball(d, (4.0, 8.0, 8.0), 2.5),
            ball(d, (6.0, 8.0, 8.0), 2.5),
            ball(d, (8.0, 8.0, 8.0), 2.5),
        ];
        let v = flat(d);
        let frames = vec![&v, &v, &v];
        let set = extract_tracks(&masks, &frames);
        assert_eq!(set.tracks.len(), 1);
        let t = &set.tracks[0];
        assert_eq!(t.lifetime(), 3);
        assert_eq!(t.ending, TrackEnding::SurvivesToEnd);
        assert!(t.path_length() > 3.0, "path {}", t.path_length());
    }

    #[test]
    fn split_creates_children_with_parent() {
        let d = Dims3::cube(20);
        let mut both = ball(d, (4.0, 10.0, 10.0), 2.5);
        both.union_with(&ball(d, (15.0, 10.0, 10.0), 2.5));
        let masks = vec![ball(d, (9.5, 10.0, 10.0), 5.0), both];
        let v = flat(d);
        let set = extract_tracks(&masks, &[&v, &v]);
        assert_eq!(set.tracks.len(), 3);
        assert_eq!(set.tracks[0].ending, TrackEnding::Split);
        let children: Vec<_> = set
            .tracks
            .iter()
            .filter(|t| t.parent == Some(set.tracks[0].id))
            .collect();
        assert_eq!(children.len(), 2);
        for c in children {
            assert_eq!(c.start_frame, 1);
            assert_eq!(c.ending, TrackEnding::SurvivesToEnd);
        }
    }

    #[test]
    fn death_marks_dissipated() {
        let d = Dims3::cube(12);
        let masks = vec![ball(d, (6.0, 6.0, 6.0), 2.0), Mask3::empty(d)];
        let v = flat(d);
        let set = extract_tracks(&masks, &[&v, &v]);
        assert_eq!(set.tracks.len(), 1);
        assert_eq!(set.tracks[0].ending, TrackEnding::Dissipated);
        assert_eq!(set.tracks[0].lifetime(), 1);
    }

    #[test]
    fn birth_starts_new_track() {
        let d = Dims3::cube(12);
        let masks = vec![Mask3::empty(d), ball(d, (6.0, 6.0, 6.0), 2.0)];
        let v = flat(d);
        let set = extract_tracks(&masks, &[&v, &v]);
        assert_eq!(set.tracks.len(), 1);
        assert_eq!(set.tracks[0].start_frame, 1);
    }

    #[test]
    fn merge_ends_both_parents() {
        let d = Dims3::cube(20);
        let mut both = ball(d, (4.0, 10.0, 10.0), 2.5);
        both.union_with(&ball(d, (15.0, 10.0, 10.0), 2.5));
        let masks = vec![both, ball(d, (9.5, 10.0, 10.0), 5.0)];
        let v = flat(d);
        let set = extract_tracks(&masks, &[&v, &v]);
        let merged: Vec<_> = set
            .tracks
            .iter()
            .filter(|t| matches!(t.ending, TrackEnding::Merged { .. }))
            .collect();
        assert_eq!(merged.len(), 2);
        // Plus the merged result as a fresh track.
        assert_eq!(set.tracks.len(), 3);
        // Both parents name the same absorbing track, and it exists and is
        // not itself one of the parents.
        let result_id = set.tracks[2].id;
        for t in merged {
            assert_eq!(t.ending, TrackEnding::Merged { into: result_id });
        }
    }

    #[test]
    fn alive_at_and_longest() {
        let d = Dims3::cube(16);
        let masks = vec![
            ball(d, (4.0, 8.0, 8.0), 2.5),
            ball(d, (6.0, 8.0, 8.0), 2.5),
            ball(d, (8.0, 8.0, 8.0), 2.5),
        ];
        let v = flat(d);
        let set = extract_tracks(&masks, &[&v, &v, &v]);
        assert_eq!(set.alive_at(0).count(), 1);
        assert_eq!(set.alive_at(2).count(), 1);
        assert_eq!(set.tracks.len(), 1);
        assert_eq!(set.tracks[0].lifetime(), 3);
    }

    #[test]
    fn volume_curve_tracks_growth() {
        let d = Dims3::cube(16);
        let masks = vec![
            ball(d, (8.0, 8.0, 8.0), 2.0),
            ball(d, (8.0, 8.0, 8.0), 3.0),
            ball(d, (8.0, 8.0, 8.0), 4.0),
        ];
        let v = flat(d);
        let set = extract_tracks(&masks, &[&v, &v, &v]);
        let curve: Vec<usize> = set.tracks[0].attributes.iter().map(|a| a.volume).collect();
        assert!(curve[0] < curve[1] && curve[1] < curve[2], "{curve:?}");
    }
}
