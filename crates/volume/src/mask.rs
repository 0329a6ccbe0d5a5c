//! Boolean voxel masks and the set metrics used to score feature extraction
//! against ground truth.

use crate::dims::{Dims3, Ix3};
use crate::volume::ScalarVolume;
use serde::{Deserialize, Serialize};

const WORD_BITS: usize = 64;

/// A dense boolean mask over a 3D grid, stored as a `u64`-packed bitset.
///
/// Voxel `i` (linear, x-fastest) lives in bit `i % 64` of word `i / 64`.
/// Bits past `dims.len()` in the last word are always zero, so counting and
/// comparing operate on whole words. Set operations (union, intersection,
/// difference, metric counts) run word-at-a-time — 64 voxels per `popcnt` —
/// which is what makes region growing over large series affordable.
///
/// ```
/// use ifet_volume::{Dims3, Mask3, ScalarVolume};
/// let vol = ScalarVolume::from_fn(Dims3::cube(4), |x, _, _| x as f32);
/// let pred = Mask3::threshold(&vol, 2.0);
/// let truth = Mask3::from_fn(Dims3::cube(4), |x, _, _| x >= 1);
/// assert_eq!(pred.count(), 2 * 16);
/// assert!(pred.precision(&truth) == 1.0 && pred.recall(&truth) < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mask3 {
    dims: Dims3,
    words: Vec<u64>,
}

#[inline]
fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// Collapse 64 lanes of 0 or 1 into one mask word (bit `j` is
/// `hits[j]`): each 8 bytes become 8 bits with one multiply.
#[inline]
fn pack_word(hits: &[u8; WORD_BITS]) -> u64 {
    debug_assert!(hits.iter().all(|&h| h <= 1), "lanes must be 0 or 1");
    let mut word = 0u64;
    for (k, lanes) in hits.chunks_exact(8).enumerate() {
        let lanes: [u8; 8] = lanes.try_into().unwrap();
        // Byte `i` (0 or 1) lands on bit `56 + i` and nothing else reaches
        // the top byte, so it holds the 8 bits in order.
        let packed = u64::from_le_bytes(lanes).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        word |= packed << (8 * k);
    }
    word
}

impl Mask3 {
    /// An all-false mask.
    pub fn empty(dims: Dims3) -> Self {
        Self {
            dims,
            words: vec![0; words_for(dims.len())],
        }
    }

    /// An all-true mask.
    pub fn full(dims: Dims3) -> Self {
        let mut m = Self {
            dims,
            words: vec![!0u64; words_for(dims.len())],
        };
        m.clear_tail();
        m
    }

    /// Threshold a scalar volume: voxels with `value >= t` are set.
    pub fn threshold(vol: &ScalarVolume, t: f32) -> Self {
        Self::from_value_bands(vol, &[(t, f32::INFINITY)], false)
    }

    /// Voxels whose value lies inside `[lo, hi]`.
    pub fn value_band(vol: &ScalarVolume, lo: f32, hi: f32) -> Self {
        Self::from_value_bands(vol, &[(lo, hi)], false)
    }

    /// Voxels whose value lies inside any closed band `[lo, hi]` of
    /// `bands` (`lo <= v && v <= hi`, so a NaN voxel is in no band), plus
    /// every NaN voxel when `nan` is set.
    ///
    /// Backs [`Mask3::threshold`], [`Mask3::value_band`] and the adaptive
    /// acceptance tables with few bands: one branch-free compare pass over
    /// each 64 values per band (a loop the compiler vectorises), so the cost
    /// grows with the number of bands.
    pub fn from_value_bands(vol: &ScalarVolume, bands: &[(f32, f32)], nan: bool) -> Self {
        Self::from_value_lanes(vol, |vals, hits| {
            if nan {
                for (h, v) in hits.iter_mut().zip(vals) {
                    *h = u8::from(v.is_nan());
                }
            }
            for &(lo, hi) in bands {
                for (h, &v) in hits.iter_mut().zip(vals) {
                    *h |= u8::from(lo <= v) & u8::from(v <= hi);
                }
            }
        })
    }

    /// The one word-packing kernel: `fill(vals, hits)` sees 64 consecutive
    /// values (x-fastest) and sets each lane of `hits`, zeroed before the
    /// call, to 1 where its voxel is in the mask and leaves it 0 elsewhere;
    /// each 64 lanes then collapse into one word, so a mask costs no
    /// per-bit store. The last word's missing values are padded with `0.0`
    /// and their bits cleared.
    pub fn from_value_lanes(
        vol: &ScalarVolume,
        mut fill: impl FnMut(&[f32; WORD_BITS], &mut [u8; WORD_BITS]),
    ) -> Self {
        let mut word = |vals: &[f32; WORD_BITS]| {
            let mut hits = [0u8; WORD_BITS];
            fill(vals, &mut hits);
            pack_word(&hits)
        };
        let chunks = vol.as_slice().chunks_exact(WORD_BITS);
        let tail = chunks.remainder();
        let mut words: Vec<u64> = Vec::with_capacity(words_for(vol.dims().len()));
        words.extend(chunks.map(|vals| word(vals.try_into().unwrap())));
        if !tail.is_empty() {
            let mut last = [0.0; WORD_BITS];
            last[..tail.len()].copy_from_slice(tail);
            words.push(word(&last) & ((1u64 << tail.len()) - 1));
        }
        Self {
            dims: vol.dims(),
            words,
        }
    }

    /// Build from a predicate over coordinates.
    pub fn from_fn(dims: Dims3, mut f: impl FnMut(usize, usize, usize) -> bool) -> Self {
        let mut words = vec![0u64; words_for(dims.len())];
        let mut i = 0usize;
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    if f(x, y, z) {
                        words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
                    }
                    i += 1;
                }
            }
        }
        Self { dims, words }
    }

    /// Rebuild a mask from its backing words (the inverse of [`Mask3::words`]).
    ///
    /// Rejects inputs that would violate the type's invariants instead of
    /// panicking, so it is safe to feed with untrusted on-disk data: the word
    /// count must be exactly `dims.len().div_ceil(64)` and every bit past
    /// `dims.len()` in the last word must be zero.
    pub fn from_words(dims: Dims3, words: Vec<u64>) -> Result<Self, MaskWordsError> {
        let expected = words_for(dims.len());
        if words.len() != expected {
            return Err(MaskWordsError::WordCountMismatch {
                expected,
                got: words.len(),
            });
        }
        let tail = dims.len() % WORD_BITS;
        if tail != 0 {
            if let Some(&last) = words.last() {
                if last & !((1u64 << tail) - 1) != 0 {
                    return Err(MaskWordsError::TailBitsSet);
                }
            }
        }
        Ok(Self { dims, words })
    }

    #[inline]
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// The backing words; bit `i % 64` of word `i / 64` is voxel `i`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> bool {
        self.get_linear(self.dims.index(x, y, z))
    }

    #[inline]
    pub fn get_linear(&self, i: usize) -> bool {
        assert!(i < self.dims.len(), "mask index {i} out of range");
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 != 0
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: bool) {
        self.set_linear(self.dims.index(x, y, z), v);
    }

    #[inline]
    pub fn set_linear(&mut self, i: usize, v: bool) {
        assert!(i < self.dims.len(), "mask index {i} out of range");
        let bit = 1u64 << (i % WORD_BITS);
        if v {
            self.words[i / WORD_BITS] |= bit;
        } else {
            self.words[i / WORD_BITS] &= !bit;
        }
    }

    /// Set voxel `i`, returning `true` iff it was previously unset.
    ///
    /// The test-and-set primitive frontier BFS is built on: "newly visited"
    /// and "mark visited" in one word access.
    #[inline]
    pub fn insert_linear(&mut self, i: usize) -> bool {
        assert!(i < self.dims.len(), "mask index {i} out of range");
        let w = &mut self.words[i / WORD_BITS];
        let bit = 1u64 << (i % WORD_BITS);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Number of set voxels.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no voxel is set.
    pub fn is_empty_mask(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Linear indices of set voxels.
    pub fn set_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi * WORD_BITS;
            SetBits(w).map(move |b| base + b)
        })
    }

    /// Coordinates of set voxels.
    pub fn set_coords(&self) -> impl Iterator<Item = Ix3> + '_ {
        let dims = self.dims;
        self.set_indices().map(move |i| dims.coords(i))
    }

    /// Zero any bits past `dims.len()` in the last word (the invariant all
    /// whole-word operations rely on).
    fn clear_tail(&mut self) {
        let tail = self.dims.len() % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    fn check_same_dims(&self, other: &Self) {
        assert_eq!(
            self.dims, other.dims,
            "mask dimension mismatch: {} vs {}",
            self.dims, other.dims
        );
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Self) {
        self.check_same_dims(other);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &Self) {
        self.check_same_dims(other);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self AND NOT other`).
    pub fn subtract(&mut self, other: &Self) {
        self.check_same_dims(other);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Complement in place.
    pub fn invert(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// Count of voxels set in both.
    pub fn intersection_count(&self, other: &Self) -> usize {
        self.check_same_dims(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Count of voxels set in either.
    pub fn union_count(&self, other: &Self) -> usize {
        self.check_same_dims(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// Jaccard index (intersection over union); 1.0 for two empty masks.
    pub fn jaccard(&self, other: &Self) -> f64 {
        let u = self.union_count(other);
        if u == 0 {
            return 1.0;
        }
        self.intersection_count(other) as f64 / u as f64
    }

    /// Dice coefficient; 1.0 for two empty masks.
    pub fn dice(&self, other: &Self) -> f64 {
        let a = self.count();
        let b = other.count();
        if a + b == 0 {
            return 1.0;
        }
        2.0 * self.intersection_count(other) as f64 / (a + b) as f64
    }

    /// Precision of `self` as a prediction of ground-truth `truth`.
    pub fn precision(&self, truth: &Self) -> f64 {
        let p = self.count();
        if p == 0 {
            return if truth.is_empty_mask() { 1.0 } else { 0.0 };
        }
        self.intersection_count(truth) as f64 / p as f64
    }

    /// Recall of `self` against ground-truth `truth`.
    pub fn recall(&self, truth: &Self) -> f64 {
        let t = truth.count();
        if t == 0 {
            return 1.0;
        }
        self.intersection_count(truth) as f64 / t as f64
    }

    /// F1 score against ground-truth `truth`.
    pub fn f1(&self, truth: &Self) -> f64 {
        let p = self.precision(truth);
        let r = self.recall(truth);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Convert to a 0/1 scalar volume (useful for rendering masks).
    pub fn to_volume(&self) -> ScalarVolume {
        let mut v = ScalarVolume::filled(self.dims, 0.0);
        let data = v.as_mut_slice();
        for i in self.set_indices() {
            data[i] = 1.0;
        }
        v
    }

    /// Morphological dilation by one voxel (6-connectivity).
    pub fn dilate6(&self) -> Self {
        let mut out = self.clone();
        for (x, y, z) in self.set_coords() {
            for (nx, ny, nz) in self.dims.neighbors6(x, y, z) {
                out.set(nx, ny, nz, true);
            }
        }
        out
    }

    /// Morphological erosion by one voxel (6-connectivity; boundary voxels
    /// survive only if all in-bounds neighbours are set).
    pub fn erode6(&self) -> Self {
        let mut out = Mask3::empty(self.dims);
        for (x, y, z) in self.set_coords() {
            let keep = self
                .dims
                .neighbors6(x, y, z)
                .all(|(a, b, c)| self.get(a, b, c));
            if keep {
                out.set(x, y, z, true);
            }
        }
        out
    }

    /// Count of set voxels with at least one unset 6-neighbour (surface area
    /// proxy, used as the boundary-detail score in the Figure 7 experiment).
    pub fn surface_count(&self) -> usize {
        self.set_coords()
            .filter(|&(x, y, z)| {
                self.dims
                    .neighbors6(x, y, z)
                    .any(|(a, b, c)| !self.get(a, b, c))
            })
            .count()
    }
}

/// Why [`Mask3::from_words`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaskWordsError {
    WordCountMismatch { expected: usize, got: usize },
    TailBitsSet,
}

impl std::fmt::Display for MaskWordsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaskWordsError::WordCountMismatch { expected, got } => {
                write!(f, "word count mismatch: expected {expected}, got {got}")
            }
            MaskWordsError::TailBitsSet => {
                write!(f, "bits set past the end of the voxel range")
            }
        }
    }
}

impl std::error::Error for MaskWordsError {}

/// Iterator over set-bit positions within one word, lowest first.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ball(dims: Dims3, c: (f32, f32, f32), r: f32) -> Mask3 {
        Mask3::from_fn(dims, |x, y, z| {
            let dx = x as f32 - c.0;
            let dy = y as f32 - c.1;
            let dz = z as f32 - c.2;
            (dx * dx + dy * dy + dz * dz).sqrt() <= r
        })
    }

    #[test]
    fn empty_and_full() {
        let d = Dims3::cube(4);
        assert_eq!(Mask3::empty(d).count(), 0);
        assert_eq!(Mask3::full(d).count(), 64);
        assert!(Mask3::empty(d).is_empty_mask());
    }

    #[test]
    fn full_mask_has_clean_tail() {
        // 3*3*3 = 27 bits: one partial word; whole-word ops must not see
        // phantom bits past the end.
        let d = Dims3::cube(3);
        let f = Mask3::full(d);
        assert_eq!(f.count(), 27);
        let mut inv = f.clone();
        inv.invert();
        assert!(inv.is_empty_mask());
        assert_eq!(f.union_count(&f), 27);
    }

    #[test]
    fn threshold_and_band() {
        let v = ScalarVolume::from_fn(Dims3::new(4, 1, 1), |x, _, _| x as f32);
        assert_eq!(Mask3::threshold(&v, 2.0).count(), 2);
        assert_eq!(Mask3::value_band(&v, 1.0, 2.0).count(), 2);
    }

    #[test]
    fn value_bands_match_per_voxel_predicate() {
        // 5*5*5 = 125 voxels: one full word and a ragged tail, whose padded
        // lanes (0.0, inside the second band) must not leak past the end.
        let specials = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let v = ScalarVolume::from_fn(Dims3::cube(5), |x, y, z| match (x + 5 * y + 25 * z) % 11 {
            k @ 0..=4 => specials[k],
            k => k as f32 - 8.0,
        });
        let bands = [(f32::NEG_INFINITY, -2.0), (-0.0, 1.0)];
        for nan in [false, true] {
            let want = Mask3::from_fn(v.dims(), |x, y, z| {
                let x = *v.get(x, y, z);
                (nan && x.is_nan()) || bands.iter().any(|&(lo, hi)| lo <= x && x <= hi)
            });
            assert_eq!(Mask3::from_value_bands(&v, &bands, nan), want, "nan {nan}");
        }
        let tail = Mask3::from_value_bands(&v, &[(f32::NEG_INFINITY, f32::INFINITY)], true);
        assert_eq!(tail, Mask3::full(v.dims()));

        // Any lane filler: each call sees the next 64 values and zeroed
        // lanes, so a filler that only ORs in bits builds the same mask.
        let odd = |x: f32| x.to_bits() & 1 == 1;
        let by_lanes = Mask3::from_value_lanes(&v, |vals, hits| {
            for (h, &x) in hits.iter_mut().zip(vals) {
                *h |= u8::from(odd(x));
            }
        });
        assert_eq!(
            by_lanes,
            Mask3::from_fn(v.dims(), |x, y, z| odd(*v.get(x, y, z)))
        );
    }

    #[test]
    fn set_ops() {
        let d = Dims3::cube(3);
        let a = ball(d, (0.0, 0.0, 0.0), 1.1);
        let b = ball(d, (2.0, 2.0, 2.0), 1.1);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), a.count() + b.count()); // disjoint balls
        let mut i = a.clone();
        i.intersect_with(&b);
        assert!(i.is_empty_mask());
        let mut s = u.clone();
        s.subtract(&b);
        assert_eq!(s, a);
    }

    #[test]
    fn invert_flips_count() {
        let d = Dims3::cube(3);
        let mut m = ball(d, (1.0, 1.0, 1.0), 1.1);
        let c = m.count();
        m.invert();
        assert_eq!(m.count(), 27 - c);
    }

    #[test]
    fn insert_linear_reports_freshness() {
        let d = Dims3::cube(4);
        let mut m = Mask3::empty(d);
        assert!(m.insert_linear(37));
        assert!(!m.insert_linear(37));
        assert!(m.get_linear(37));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn jaccard_dice_identity() {
        let d = Dims3::cube(4);
        let a = ball(d, (1.5, 1.5, 1.5), 1.6);
        assert_eq!(a.jaccard(&a), 1.0);
        assert_eq!(a.dice(&a), 1.0);
        let e = Mask3::empty(d);
        assert_eq!(e.jaccard(&e), 1.0);
        assert_eq!(a.jaccard(&e), 0.0);
    }

    #[test]
    fn precision_recall_f1() {
        let d = Dims3::new(4, 1, 1);
        let truth = Mask3::from_fn(d, |x, _, _| x < 2);
        let pred = Mask3::from_fn(d, |x, _, _| x < 3); // 2 TP, 1 FP
        assert!((pred.precision(&truth) - 2.0 / 3.0).abs() < 1e-12);
        assert!((pred.recall(&truth) - 1.0).abs() < 1e-12);
        let f1 = pred.f1(&truth);
        assert!((f1 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn precision_edge_cases() {
        let d = Dims3::cube(2);
        let e = Mask3::empty(d);
        let f = Mask3::full(d);
        assert_eq!(e.precision(&e), 1.0);
        assert_eq!(e.precision(&f), 0.0);
        assert_eq!(f.recall(&e), 1.0);
        assert_eq!(e.f1(&f), 0.0);
    }

    #[test]
    fn dilate_then_erode_contains_original() {
        let d = Dims3::cube(8);
        let a = ball(d, (3.5, 3.5, 3.5), 2.0);
        let closed = a.dilate6().erode6();
        // Closing is extensive: contains the original.
        assert_eq!(a.intersection_count(&closed), a.count());
    }

    #[test]
    fn erode_shrinks_dilate_grows() {
        let d = Dims3::cube(8);
        let a = ball(d, (3.5, 3.5, 3.5), 2.5);
        assert!(a.erode6().count() < a.count());
        assert!(a.dilate6().count() > a.count());
    }

    #[test]
    fn surface_of_solid_cube() {
        let d = Dims3::cube(5);
        let m = Mask3::from_fn(d, |x, y, z| {
            (1..4).contains(&x) && (1..4).contains(&y) && (1..4).contains(&z)
        });
        // 3x3x3 block: all but the single interior voxel are surface.
        assert_eq!(m.surface_count(), 26);
    }

    #[test]
    fn to_volume_roundtrip() {
        let d = Dims3::cube(3);
        let m = ball(d, (1.0, 1.0, 1.0), 1.1);
        let v = m.to_volume();
        let back = Mask3::threshold(&v, 0.5);
        assert_eq!(m, back);
    }

    #[test]
    fn set_coords_match_get() {
        let d = Dims3::cube(4);
        let m = ball(d, (2.0, 2.0, 2.0), 1.5);
        for (x, y, z) in m.set_coords() {
            assert!(m.get(x, y, z));
        }
        assert_eq!(m.set_coords().count(), m.count());
    }

    #[test]
    fn set_indices_cross_word_boundaries() {
        // 5*5*5 = 125 voxels spans two words; hit bits around 63/64.
        let d = Dims3::cube(5);
        let mut m = Mask3::empty(d);
        for i in [0usize, 1, 62, 63, 64, 65, 124] {
            m.set_linear(i, true);
        }
        let got: Vec<usize> = m.set_indices().collect();
        assert_eq!(got, vec![0, 1, 62, 63, 64, 65, 124]);
    }
}
