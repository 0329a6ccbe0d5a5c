//! Overlap-based correspondence and event detection.
//!
//! "Feature tracking is the process of capturing all the events for one or
//! more features" (Section 5). Components of consecutive frames are matched
//! by voxel overlap; the bipartite correspondence then yields the classical
//! event vocabulary: continuation, split, merge, birth (dissipation's
//! inverse) and death.

use crate::components::{label_masks, ComponentLabels, Run};
use ifet_volume::Mask3;
use serde::{Deserialize, Serialize};

/// What happened to features between two consecutive frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// One component maps to exactly one component.
    Continuation,
    /// One component maps to several.
    Split,
    /// Several components map to one.
    Merge,
    /// A component with no predecessor appeared.
    Birth,
    /// A component with no successor vanished.
    Death,
}

/// One detected event at the transition `frame -> frame + 1`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Index of the earlier frame of the transition.
    pub frame: usize,
    pub kind: EventKind,
    /// Labels in the earlier frame involved in the event.
    pub before: Vec<u32>,
    /// Labels in the later frame involved in the event.
    pub after: Vec<u32>,
}

/// Full tracking report over a mask sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackReport {
    /// Component count per frame.
    pub components_per_frame: Vec<u32>,
    /// Voxel count per frame.
    pub voxels_per_frame: Vec<usize>,
    /// All detected events, ordered by frame.
    pub events: Vec<Event>,
}

impl TrackReport {
    /// Events of one kind.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Did the track contain at least one split?
    pub fn has_split(&self) -> bool {
        self.events_of(EventKind::Split).next().is_some()
    }
}

/// Analyze a per-frame mask sequence (e.g. the output of
/// [`crate::region_grow::grow_4d`]) into components and events: label each
/// mask, then [`events_from_labelings`].
pub fn track_events(masks: &[Mask3]) -> TrackReport {
    events_from_labelings(&label_masks(masks))
}

/// The event report of per-frame labelings (one per mask, as
/// [`label_masks`] makes them).
pub fn events_from_labelings(labelings: &[ComponentLabels]) -> TrackReport {
    assert!(!labelings.is_empty());
    let mut events = Vec::new();
    for fi in 0..labelings.len() - 1 {
        events.extend(transition_events(fi, &labelings[fi], &labelings[fi + 1]));
    }

    TrackReport {
        components_per_frame: labelings.iter().map(|l| l.count()).collect(),
        voxels_per_frame: labelings
            .iter()
            .map(|l| l.runs().iter().map(Run::len).sum())
            .collect(),
        events,
    }
}

/// Every label pair `(a, b)` whose components share a voxel, sorted: a merge
/// of the two frames' runs, row by row.
fn overlapping_pairs(a: &ComponentLabels, b: &ComponentLabels) -> Vec<(u32, u32)> {
    let (ra, rb) = (a.runs(), b.runs());
    let (mut i, mut j) = (0, 0);
    let mut pairs = Vec::new();
    while i < ra.len() && j < rb.len() {
        let (p, q) = (ra[i], rb[j]);
        if (p.row, p.x1) <= (q.row, q.x0) {
            i += 1;
        } else if (q.row, q.x1) <= (p.row, p.x0) {
            j += 1;
        } else {
            pairs.push((p.label, q.label));
            if p.x1 <= q.x1 {
                i += 1;
            } else {
                j += 1;
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

fn transition_events(fi: usize, a: &ComponentLabels, b: &ComponentLabels) -> Vec<Event> {
    let mut events = Vec::new();

    // Successors of each `a` component / predecessors of each `b` component,
    // each list ascending (the pairs are sorted by `a`, then `b`).
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); a.count() as usize];
    let mut pred: Vec<Vec<u32>> = vec![Vec::new(); b.count() as usize];
    for (la, lb) in overlapping_pairs(a, b) {
        succ[(la - 1) as usize].push(lb);
        pred[(lb - 1) as usize].push(la);
    }

    for (i, s) in succ.iter().enumerate() {
        let label = i as u32 + 1;
        match s.len() {
            0 => events.push(Event {
                frame: fi,
                kind: EventKind::Death,
                before: vec![label],
                after: vec![],
            }),
            1 => {
                // Only a continuation if the successor isn't a merge target.
                let j = (s[0] - 1) as usize;
                if pred[j].len() == 1 {
                    events.push(Event {
                        frame: fi,
                        kind: EventKind::Continuation,
                        before: vec![label],
                        after: vec![s[0]],
                    });
                }
            }
            _ => events.push(Event {
                frame: fi,
                kind: EventKind::Split,
                before: vec![label],
                after: s.clone(),
            }),
        }
    }

    for (j, p) in pred.iter().enumerate() {
        let label = j as u32 + 1;
        match p.len() {
            0 => events.push(Event {
                frame: fi,
                kind: EventKind::Birth,
                before: vec![],
                after: vec![label],
            }),
            1 => {}
            _ => events.push(Event {
                frame: fi,
                kind: EventKind::Merge,
                before: p.clone(),
                after: vec![label],
            }),
        }
    }

    events
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

    #[test]
    fn continuation_detected() {
        let d = Dims3::cube(16);
        let masks = vec![
            ball(d, (6.0, 8.0, 8.0), 3.0),
            ball(d, (8.0, 8.0, 8.0), 3.0), // overlapping move
        ];
        let r = track_events(&masks);
        assert_eq!(r.components_per_frame, vec![1, 1]);
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].kind, EventKind::Continuation);
    }

    #[test]
    fn split_detected() {
        let d = Dims3::cube(20);
        let mut both = ball(d, (4.0, 10.0, 10.0), 2.5);
        both.union_with(&ball(d, (15.0, 10.0, 10.0), 2.5));
        let masks = vec![
            ball(d, (9.5, 10.0, 10.0), 5.0), // one blob covering both
            both,                            // two blobs
        ];
        let r = track_events(&masks);
        assert_eq!(r.components_per_frame, vec![1, 2]);
        assert!(r.has_split());
        let split = r.events_of(EventKind::Split).next().unwrap();
        assert_eq!(split.after.len(), 2);
    }

    #[test]
    fn merge_detected() {
        let d = Dims3::cube(20);
        let mut both = ball(d, (4.0, 10.0, 10.0), 2.5);
        both.union_with(&ball(d, (15.0, 10.0, 10.0), 2.5));
        let masks = vec![both, ball(d, (9.5, 10.0, 10.0), 5.0)];
        let r = track_events(&masks);
        let merges: Vec<_> = r.events_of(EventKind::Merge).collect();
        assert_eq!(merges.len(), 1);
        assert_eq!(merges[0].before.len(), 2);
    }

    #[test]
    fn birth_and_death_detected() {
        let d = Dims3::cube(16);
        let masks = vec![
            ball(d, (4.0, 4.0, 4.0), 2.0),
            ball(d, (12.0, 12.0, 12.0), 2.0), // disjoint: old dies, new born
        ];
        let r = track_events(&masks);
        assert!(r.events_of(EventKind::Death).next().is_some());
        assert!(r.events_of(EventKind::Birth).next().is_some());
        assert!(r.events_of(EventKind::Continuation).next().is_none());
    }

    #[test]
    fn empty_frames_yield_no_events() {
        let d = Dims3::cube(8);
        let masks = vec![Mask3::empty(d), Mask3::empty(d)];
        let r = track_events(&masks);
        assert!(r.events.is_empty());
        assert_eq!(r.components_per_frame, vec![0, 0]);
    }

    #[test]
    fn single_frame_report() {
        let d = Dims3::cube(8);
        let r = track_events(&[ball(d, (4.0, 4.0, 4.0), 2.0)]);
        assert!(r.events.is_empty());
        assert_eq!(r.components_per_frame, vec![1]);
        assert_eq!(r.voxels_per_frame.len(), 1);
    }

    #[test]
    fn three_frame_split_story() {
        // One blob → still one → two: the Figure 9 storyline
        // ("splits near the end").
        let d = Dims3::cube(20);
        let mut both = ball(d, (5.0, 10.0, 10.0), 2.5);
        both.union_with(&ball(d, (14.0, 10.0, 10.0), 2.5));
        let masks = vec![
            ball(d, (9.5, 10.0, 10.0), 5.0),
            ball(d, (9.5, 10.0, 10.0), 5.5),
            both,
        ];
        let r = track_events(&masks);
        assert_eq!(r.components_per_frame, vec![1, 1, 2]);
        let split = r.events_of(EventKind::Split).next().unwrap();
        assert_eq!(split.frame, 1);
    }
}
