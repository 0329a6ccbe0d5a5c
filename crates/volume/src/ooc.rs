//! Out-of-core time series: disk-backed frames with a budgeted LRU cache and
//! background read-ahead.
//!
//! The paper's motivation is terascale data: "when the volume size is large
//! or many time steps are used, it can be time consuming to load the volumes
//! for training since not all the data can fit in core" (Section 4.2.2), and
//! "as the data set grows ... it becomes impractical to load the entire data
//! onto a single computer" (Section 4.2.3). [`OutOfCoreSeries`] keeps only a
//! bounded number of frames resident, paging the rest from the raw-brick
//! files of [`crate::io`]; the IATF workflow needs only the key frames in
//! core, exactly as the paper argues.
//!
//! # Budgets
//!
//! Residency is governed by a [`CacheBudget`] — either a frame count or a
//! byte total — owned by a [`CacheBudgetHandle`]. The handle is cloneable and
//! may be shared across several series (a multi-variable session opens one
//! series per variable). Everything one handle governs sits behind one
//! mutex: the totals, the residency groups, and each member series' resident
//! frames, in-flight reads and statistics. Every touch stamps its frame from
//! one budget-wide clock, and that stamp is the only recency order: eviction
//! takes the least-stamped frame across every member series, charged by its
//! actual byte size. In-flight reads (demand misses and prefetches that have
//! reserved space but not yet committed) count against the budget, so the
//! high-water marks are honest even while the prefetch worker is mid-read.
//! A reader that has to wait — for a frame another reader is loading, or for
//! room — sleeps on the budget's one condvar until a read settles.
//!
//! # Prefetch
//!
//! A series opened with a nonzero prefetch depth starts one background
//! `std::thread` that services read-ahead hints (see
//! `FrameSource::prefetch_hint` in [`crate::source`]) until the series is
//! dropped: while the caller computes on the current window, the worker
//! pages the next window's frames through the same reserve → read → commit
//! path as demand misses. Prefetch is *purely* a warm-cache hint — a failed
//! or skipped prefetch never changes what demand reads return, and prefetch
//! emits no obs spans (only runtime counters), so stable traces are
//! byte-identical whether read-ahead is on or off. Transient read failures
//! are retried a bounded number of times on both paths; the prefetch worker
//! then degrades silently while demand reads surface the error.

use crate::dims::Dims3;
use crate::io::{write_series, IoError};
use crate::series::TimeSeries;
use crate::volume::ScalarVolume;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Paging statistics for one [`OutOfCoreSeries`].
///
/// Mirrored into the obs runtime counter set (`volume.ooc.*`); kept out of
/// stable traces because hit/miss/evict sequences depend on scheduling.
///
/// `hits`/`misses` count *demand* requests only (`hits + misses` is the total
/// number of demand frame accesses); prefetch traffic is reported separately
/// so the algebra stays closed: `prefetch_wasted <= prefetched`, and every
/// successful load (demand miss or prefetch) adds one frame's bytes to
/// `bytes_paged`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// On-disk bytes paged in: raw frames charge `voxels * 4`, compressed
    /// frames charge their (smaller) compressed file size — the same number
    /// the byte budget charges, so "frames per byte" is an honest ratio.
    pub bytes_paged: u64,
    /// Frames resident right now (this series).
    pub resident: usize,
    /// Bytes resident right now (this series).
    pub resident_bytes: u64,
    /// Maximum frames ever resident-or-in-flight at once across the whole
    /// shared budget — the bounded-memory witness.
    pub resident_high_water: usize,
    /// Maximum bytes ever resident-or-in-flight at once across the whole
    /// shared budget.
    pub resident_high_water_bytes: u64,
    /// Frames loaded by the prefetch worker (committed to the cache).
    pub prefetched: u64,
    /// Demand accesses served by a frame the prefetch worker loaded.
    pub prefetch_hits: u64,
    /// Prefetch requests skipped because the frame was already resident or
    /// in flight.
    pub prefetch_misses: u64,
    /// Prefetched frames evicted before any demand access touched them.
    pub prefetch_wasted: u64,
    /// Transient read failures absorbed by the bounded retry loop.
    pub read_retries: u64,
}

/// How much may be resident at once, shared by every series on one
/// [`CacheBudgetHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheBudget {
    /// At most `n` frames resident-or-in-flight (floored at 1).
    Frames(usize),
    /// At most `n` bytes resident-or-in-flight, charged by actual frame byte
    /// size. A budget smaller than one frame still admits a single frame so
    /// progress is always possible.
    Bytes(u64),
}

/// Aggregate accounting for a [`CacheBudgetHandle`], across all member series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetStats {
    pub resident_frames: usize,
    pub resident_bytes: u64,
    pub inflight_frames: usize,
    pub inflight_bytes: u64,
    /// Peak `resident + inflight` frames.
    pub high_water_frames: usize,
    /// Peak `resident + inflight` bytes.
    pub high_water_bytes: u64,
    /// Total evictions driven by this budget (all member series).
    pub evictions: u64,
    /// Evictions performed by the quota-local phase: a group over its own
    /// byte quota reclaiming its own LRU frames.
    pub quota_evictions: u64,
    /// Global evictions redirected away from the globally least-recent frame
    /// because its residency group was active and an idle group's frame was
    /// available instead.
    pub idle_evictions: u64,
}

/// Accounting for one residency group under a [`CacheBudgetHandle`]; see
/// [`OutOfCoreSeries::set_residency_group`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    pub resident_bytes: u64,
    pub inflight_bytes: u64,
    /// Peak `resident + inflight` bytes for this group.
    pub high_water_bytes: u64,
    /// The group's resident-byte quota, if one is set.
    pub quota_bytes: Option<u64>,
    /// Evictions the quota-local phase charged to this group.
    pub quota_evictions: u64,
    /// In-flight activity refcount (see [`CacheBudgetHandle::group_enter`]).
    pub active: usize,
}

/// One resident frame.
struct Slot {
    vol: Arc<ScalarVolume>,
    /// Budget-wide recency stamp: eviction takes the least-stamped frame.
    stamp: u64,
    /// Loaded by the prefetch worker and not yet touched by demand.
    prefetched: bool,
    /// Budget charge of this frame (its on-disk byte size), remembered so
    /// eviction frees exactly what insertion charged.
    bytes: u64,
}

/// One member series' share of its budget's state.
#[derive(Default)]
struct Member {
    frames: HashMap<usize, Slot>,
    /// Frames being read right now: reserved, not yet committed.
    inflight: HashSet<usize>,
    /// Residency group this series' bytes are attributed to (0 = the default
    /// group: no quota, shared with every unassigned series).
    group: u64,
    stats: CacheStats,
    fault: Option<ReadFaultHook>,
}

/// Per-group residency accounting; created lazily on first touch.
#[derive(Default)]
struct GroupState {
    resident_bytes: u64,
    inflight_bytes: u64,
    hw_bytes: u64,
    quota: Option<u64>,
    /// Refcount of in-flight requests touching this group; `0` marks the
    /// group idle, making its frames preferred eviction victims.
    active: usize,
    quota_evictions: u64,
}

/// Everything one budget handle governs.
#[derive(Default)]
struct BudgetState {
    resident_frames: usize,
    resident_bytes: u64,
    inflight_frames: usize,
    inflight_bytes: u64,
    hw_frames: usize,
    hw_bytes: u64,
    evictions: u64,
    quota_evictions: u64,
    idle_evictions: u64,
    /// Recency clock: every touch and every commit takes the next stamp.
    clock: u64,
    groups: HashMap<u64, GroupState>,
    /// Member series by the id [`Budget::register`] handed out.
    members: HashMap<u64, Member>,
    next_member: u64,
}

impl BudgetState {
    fn group_mut(&mut self, g: u64) -> &mut GroupState {
        self.groups.entry(g).or_default()
    }

    /// A member series; registered at open, removed when it is dropped.
    fn member(&mut self, id: u64) -> &mut Member {
        self.members
            .get_mut(&id)
            .expect("a live series is a member of its budget")
    }

    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Demand lookup: on a hit, restamp the frame and settle the prefetch
    /// bookkeeping. Does *not* count misses — the caller decides whether an
    /// absence becomes a miss (it may first wait out an in-flight read).
    fn touch(&mut self, id: u64, frame: usize) -> Option<Arc<ScalarVolume>> {
        let stamp = self.next_stamp();
        let m = self.member(id);
        let s = m.frames.get_mut(&frame)?;
        s.stamp = stamp;
        if s.prefetched {
            s.prefetched = false;
            m.stats.prefetch_hits += 1;
            ifet_obs::counter_runtime("volume.ooc.prefetch_hit", 1);
        }
        m.stats.hits += 1;
        ifet_obs::counter_runtime("volume.ooc.hit", 1);
        Some(s.vol.clone())
    }

    /// Whether `group` can take `frame_bytes` more without crossing its
    /// quota. Groups without a quota always have room.
    fn quota_room(&self, group: u64, frame_bytes: u64) -> bool {
        self.groups.get(&group).map_or(true, |g| {
            g.quota.map_or(true, |q| {
                g.resident_bytes + g.inflight_bytes + frame_bytes <= q
            })
        })
    }

    /// Evict the least-stamped resident frame. `Some(group)` is the
    /// quota-local phase: only that group's frames are candidates. `None`
    /// takes the least-stamped frame of an *idle* group (activity refcount
    /// zero) when there is one, otherwise the least-stamped frame overall.
    /// Returns `false` when no candidate is resident.
    fn evict_one(&mut self, within: Option<u64>) -> bool {
        let idle = |g: u64| self.groups.get(&g).map_or(true, |s| s.active == 0);
        // (stamp, member, frame, group) of every candidate; stamps are unique.
        let candidates = || {
            self.members
                .iter()
                .filter(move |(_, m)| within.map_or(true, |g| g == m.group))
                .flat_map(|(&id, m)| {
                    m.frames
                        .iter()
                        .map(move |(&f, s)| (s.stamp, id, f, m.group))
                })
        };
        let Some(oldest) = candidates().min() else {
            return false;
        };
        let (stamp, id, frame, group) = match within {
            Some(_) => oldest,
            None => candidates().filter(|c| idle(c.3)).min().unwrap_or(oldest),
        };
        let m = self.member(id);
        let slot = m.frames.remove(&frame).expect("candidate is resident");
        m.stats.evictions += 1;
        m.stats.resident_bytes -= slot.bytes;
        ifet_obs::counter_runtime("volume.ooc.evict", 1);
        if slot.prefetched {
            m.stats.prefetch_wasted += 1;
            ifet_obs::counter_runtime("volume.ooc.prefetch_wasted", 1);
        }
        self.resident_frames -= 1;
        self.resident_bytes -= slot.bytes;
        self.evictions += 1;
        let g = self.group_mut(group);
        g.resident_bytes = g.resident_bytes.saturating_sub(slot.bytes);
        if within.is_some() {
            g.quota_evictions += 1;
            self.quota_evictions += 1;
            ifet_obs::counter_runtime("volume.ooc.quota_evict", 1);
        } else if stamp != oldest.0 {
            self.idle_evictions += 1;
            ifet_obs::counter_runtime("volume.ooc.idle_evict", 1);
        }
        true
    }
}

type State<'a> = MutexGuard<'a, BudgetState>;

struct Budget {
    limit: CacheBudget,
    state: Mutex<BudgetState>,
    /// Signalled whenever a wait may be over: a read commits or is abandoned,
    /// a quota changes, a series changes group or is dropped.
    cv: Condvar,
}

impl Budget {
    /// The budget state. Reads run unlocked, so a reader's panic leaves the
    /// lock clean; poison means the bookkeeping itself panicked.
    fn state(&self) -> State<'_> {
        self.state
            .lock()
            .expect("budget bookkeeping panicked under its lock")
    }

    fn wait<'a>(&self, st: State<'a>) -> State<'a> {
        self.cv
            .wait(st)
            .expect("budget bookkeeping panicked under its lock")
    }

    fn fits(&self, st: &BudgetState, frame_bytes: u64) -> bool {
        match self.limit {
            CacheBudget::Frames(n) => st.resident_frames + st.inflight_frames < n.max(1),
            CacheBudget::Bytes(b) => st.resident_bytes + st.inflight_bytes + frame_bytes <= b,
        }
    }

    /// Reserve space for one in-flight read attributed to `group`, evicting
    /// and waiting as needed. Two phases: a group over its own quota evicts
    /// its *own* LRU frames first (never charging its overflow to others),
    /// then the global budget evicts idle-preferred. When nothing is
    /// evictable and nothing else is in flight, the reservation proceeds
    /// anyway so a sub-frame budget (or sub-frame quota) still makes
    /// progress (the single-frame floor, globally and per group).
    fn reserve<'a>(&self, mut st: State<'a>, frame_bytes: u64, group: u64) -> State<'a> {
        loop {
            while !st.quota_room(group, frame_bytes) && st.evict_one(Some(group)) {}
            while !self.fits(&st, frame_bytes) && st.evict_one(None) {}
            let group_floor = st
                .groups
                .get(&group)
                .map_or(true, |g| g.resident_bytes + g.inflight_bytes == 0);
            let quota_ok = st.quota_room(group, frame_bytes) || group_floor;
            let global_ok = self.fits(&st, frame_bytes) || st.inflight_frames == 0;
            if quota_ok && global_ok {
                st.inflight_frames += 1;
                st.inflight_bytes += frame_bytes;
                st.hw_frames = st.hw_frames.max(st.resident_frames + st.inflight_frames);
                st.hw_bytes = st.hw_bytes.max(st.resident_bytes + st.inflight_bytes);
                let g = st.group_mut(group);
                g.inflight_bytes += frame_bytes;
                g.hw_bytes = g.hw_bytes.max(g.resident_bytes + g.inflight_bytes);
                return st;
            }
            // Nothing evictable could make room, so another read is in
            // flight: with none, both floors would admit this one. That
            // read's commit or abandonment signals, so the wait needs no
            // timeout.
            st = self.wait(st);
        }
    }

    /// Add a member series; returns its id.
    fn register(&self) -> u64 {
        let mut st = self.state();
        st.next_member += 1;
        let id = st.next_member;
        st.members.insert(id, Member::default());
        id
    }

    /// Update the budget state, then wake every waiter to re-check. An
    /// abandoned read and a dropped series settle here from `Drop`, which
    /// must not panic, so a poisoned guard is recovered.
    fn signal(&self, f: impl FnOnce(&mut BudgetState)) {
        f(&mut self.state.lock().unwrap_or_else(PoisonError::into_inner));
        self.cv.notify_all();
    }
}

/// A cloneable handle to a shared [`CacheBudget`]. Every
/// [`OutOfCoreSeries`] opened with the same handle draws on the same
/// allowance; eviction picks the globally least-recent frame across all of
/// them, charged by byte size.
#[derive(Clone)]
pub struct CacheBudgetHandle(Arc<Budget>);

impl CacheBudgetHandle {
    pub fn new(limit: CacheBudget) -> Self {
        Self(Arc::new(Budget {
            limit,
            state: Mutex::new(BudgetState::default()),
            cv: Condvar::new(),
        }))
    }

    /// Shorthand for `new(CacheBudget::Frames(n))`.
    pub fn frames(n: usize) -> Self {
        Self::new(CacheBudget::Frames(n))
    }

    /// Shorthand for `new(CacheBudget::Bytes(n))`.
    pub fn bytes(n: u64) -> Self {
        Self::new(CacheBudget::Bytes(n))
    }

    pub fn limit(&self) -> CacheBudget {
        self.0.limit
    }

    /// Aggregate accounting across all member series, including in-flight
    /// reads and the high-water marks.
    pub fn stats(&self) -> BudgetStats {
        let st = self.0.state();
        BudgetStats {
            resident_frames: st.resident_frames,
            resident_bytes: st.resident_bytes,
            inflight_frames: st.inflight_frames,
            inflight_bytes: st.inflight_bytes,
            high_water_frames: st.hw_frames,
            high_water_bytes: st.hw_bytes,
            evictions: st.evictions,
            quota_evictions: st.quota_evictions,
            idle_evictions: st.idle_evictions,
        }
    }

    /// Set (or clear) a resident-byte quota for one residency group. A group
    /// over its quota evicts its *own* least-recent frames before reserving
    /// more; it never spills its overflow onto other groups. A quota smaller
    /// than one frame still admits a single frame (the per-group floor).
    pub fn set_group_quota(&self, group: u64, quota_bytes: Option<u64>) {
        self.0.signal(|st| st.group_mut(group).quota = quota_bytes);
    }

    /// Mark one in-flight request against `group`. While a group's activity
    /// refcount is nonzero its frames are deprioritized as eviction victims:
    /// global eviction takes the LRU frame of an *idle* group when one
    /// exists. Pair every call with [`Self::group_exit`].
    pub fn group_enter(&self, group: u64) {
        self.0.state().group_mut(group).active += 1;
    }

    /// Balance a [`Self::group_enter`]; the group becomes idle (and its
    /// frames become preferred victims) when the refcount reaches zero.
    pub fn group_exit(&self, group: u64) {
        let mut st = self.0.state();
        let g = st.group_mut(group);
        g.active = g.active.saturating_sub(1);
    }

    /// Accounting for one residency group (zeros if never touched).
    pub fn group_stats(&self, group: u64) -> GroupStats {
        match self.0.state().groups.get(&group) {
            Some(g) => GroupStats {
                resident_bytes: g.resident_bytes,
                inflight_bytes: g.inflight_bytes,
                high_water_bytes: g.hw_bytes,
                quota_bytes: g.quota,
                quota_evictions: g.quota_evictions,
                active: g.active,
            },
            None => GroupStats::default(),
        }
    }
}

impl std::fmt::Debug for CacheBudgetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CacheBudgetHandle")
            .field(&self.0.limit)
            .finish()
    }
}

/// Fault injected into one read attempt by a test hook; see
/// [`OutOfCoreSeries::set_read_fault_hook`].
#[derive(Debug, Clone, Copy)]
pub enum ReadFault {
    /// Sleep before performing the real read (scheduling chaos).
    Delay(Duration),
    /// Fail this attempt with a transient I/O error.
    Error,
}

/// Per-attempt fault decision: `(frame index, 1-based attempt) -> fault?`.
pub type ReadFaultHook = Arc<dyn Fn(usize, u32) -> Option<ReadFault> + Send + Sync>;

/// Bounded retry for transient read failures, on both demand and prefetch
/// paths.
const READ_ATTEMPTS: u32 = 3;

struct Inner {
    dims: Dims3,
    steps: Vec<u32>,
    paths: Vec<PathBuf>,
    /// Per-frame budget charge: the on-disk byte size of each frame file.
    /// Raw frames charge `voxels * 4`; compressed frames charge their
    /// (smaller) container size, so a byte budget holds more of them.
    charges: Vec<u64>,
    /// Largest per-frame charge, for the conservative `capacity()` bound.
    max_charge: u64,
    budget: CacheBudgetHandle,
    /// This series' member id under `budget`.
    id: u64,
    /// Memoized global `(min, max)`: one streaming scan, reused thereafter.
    range: OnceLock<(f32, f32)>,
}

/// A reserved read of one frame: the frame is in flight and its charge is on
/// the budget. [`Reservation::commit`] makes the frame resident; dropping
/// the reservation uncommitted — a failed read, or a panic in the reader or
/// the fault hook — abandons it, so the budget gets the charge back and
/// waiters on the frame wake to load it themselves.
struct Reservation<'a> {
    inner: &'a Inner,
    frame: usize,
    bytes: u64,
    /// The group charged at reservation, read once so that reserve and
    /// settle agree even if the series is reassigned mid-read.
    group: u64,
    settled: bool,
}

impl Reservation<'_> {
    fn commit(mut self, vol: Arc<ScalarVolume>, prefetched: bool) {
        self.settle(Some((vol, prefetched)));
    }

    /// Take the frame out of flight, inserting it as resident when loaded.
    fn settle(&mut self, loaded: Option<(Arc<ScalarVolume>, bool)>) {
        self.settled = true;
        let (frame, bytes) = (self.frame, self.bytes);
        let b = &self.inner.budget.0;
        b.signal(|st| {
            st.member(self.inner.id).inflight.remove(&frame);
            st.inflight_frames -= 1;
            st.inflight_bytes -= bytes;
            let g = st.group_mut(self.group);
            g.inflight_bytes = g.inflight_bytes.saturating_sub(bytes);
            let Some((vol, prefetched)) = loaded else {
                return;
            };
            g.resident_bytes += bytes;
            st.resident_frames += 1;
            st.resident_bytes += bytes;
            let stamp = st.next_stamp();
            let m = st.member(self.inner.id);
            let slot = Slot {
                vol,
                stamp,
                prefetched,
                bytes,
            };
            m.frames.insert(frame, slot);
            m.stats.bytes_paged += bytes;
            m.stats.resident_bytes += bytes;
            ifet_obs::counter_runtime("volume.ooc.bytes_paged", bytes);
            if prefetched {
                m.stats.prefetched += 1;
                ifet_obs::counter_runtime("volume.ooc.prefetched", 1);
            }
        });
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if !self.settled {
            self.settle(None);
        }
    }
}

impl Inner {
    /// The physical page-in of one frame: a copying read for raw frames, a
    /// decode for compressed ones.
    fn read_one(&self, i: usize) -> Result<ScalarVolume, IoError> {
        crate::io::read_frame(&self.paths[i]).map(|(v, _)| v)
    }

    /// One logical read with bounded retry; the fault hook (when installed)
    /// may delay or fail individual attempts.
    fn read_frame(&self, i: usize) -> Result<ScalarVolume, IoError> {
        let b = &self.budget.0;
        let hook = b.state().member(self.id).fault.clone();
        let mut attempt = 0;
        loop {
            attempt += 1;
            let injected = hook.as_ref().and_then(|h| h(i, attempt));
            let res = match injected {
                Some(ReadFault::Error) => Err(IoError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient read fault",
                ))),
                Some(ReadFault::Delay(d)) => {
                    std::thread::sleep(d);
                    self.read_one(i)
                }
                None => self.read_one(i),
            };
            match res {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if attempt >= READ_ATTEMPTS {
                        return Err(e);
                    }
                    b.state().member(self.id).stats.read_retries += 1;
                    ifet_obs::counter_runtime("volume.ooc.read_retry", 1);
                }
            }
        }
    }

    /// Demand access: hit, wait out an in-flight read, or load ourselves.
    fn demand_frame(&self, i: usize) -> Result<Arc<ScalarVolume>, IoError> {
        assert!(i < self.paths.len(), "frame {i} out of range");
        let b = &self.budget.0;
        let mut st = b.state();
        loop {
            if let Some(v) = st.touch(self.id, i) {
                return Ok(v);
            }
            if !st.member(self.id).inflight.contains(&i) {
                break;
            }
            // Someone (usually the prefetch worker) is already reading this
            // frame; its commit or abandonment signals.
            st = b.wait(st);
        }
        st.member(self.id).stats.misses += 1;
        ifet_obs::counter_runtime("volume.ooc.miss", 1);
        let reservation = self.begin_read(st, i);
        let vol = Arc::new(self.read_frame(i)?);
        reservation.commit(vol.clone(), false);
        Ok(vol)
    }

    /// Read-ahead: best-effort warm of the cache. Never surfaces errors —
    /// a failed prefetch just leaves the frame for demand to (re)load.
    fn prefetch_frame(&self, i: usize) {
        if i >= self.paths.len() {
            return;
        }
        let mut st = self.budget.0.state();
        let m = st.member(self.id);
        if m.frames.contains_key(&i) || m.inflight.contains(&i) {
            m.stats.prefetch_misses += 1;
            ifet_obs::counter_runtime("volume.ooc.prefetch_miss", 1);
            return;
        }
        let reservation = self.begin_read(st, i);
        if let Ok(vol) = self.read_frame(i) {
            reservation.commit(Arc::new(vol), true);
        }
    }

    /// Mark frame `i` in flight and reserve its charge, evicting or waiting
    /// for room; the lock is released for the read itself.
    fn begin_read<'a>(&'a self, mut st: State<'_>, i: usize) -> Reservation<'a> {
        let m = st.member(self.id);
        m.inflight.insert(i);
        let group = m.group;
        let bytes = self.charges[i];
        drop(self.budget.0.reserve(st, bytes, group));
        Reservation {
            inner: self,
            frame: i,
            bytes,
            group,
            settled: false,
        }
    }
}

impl Drop for Inner {
    /// Leave the budget and hand this series' resident frames back at once:
    /// nothing can touch them again, so left in place they would only hold
    /// memory and crowd the other members until evicted.
    fn drop(&mut self) {
        self.budget.0.signal(|st| {
            let Some(m) = st.members.remove(&self.id) else {
                return;
            };
            let bytes = m.stats.resident_bytes;
            st.resident_frames = st.resident_frames.saturating_sub(m.frames.len());
            st.resident_bytes = st.resident_bytes.saturating_sub(bytes);
            let g = st.group_mut(m.group);
            g.resident_bytes = g.resident_bytes.saturating_sub(bytes);
        });
    }
}

/// The read-ahead thread of one series. It serves batches of frame indices,
/// each with the obs capture of the thread that asked, until `tx` is
/// dropped.
struct PrefetchWorker {
    tx: mpsc::Sender<(Vec<usize>, ifet_obs::Handle)>,
    handle: std::thread::JoinHandle<()>,
}

/// A time series whose frames live on disk, with residency bounded by a
/// (possibly shared) [`CacheBudget`].
pub struct OutOfCoreSeries {
    inner: Arc<Inner>,
    prefetch_depth: usize,
    worker: Option<PrefetchWorker>,
}

impl OutOfCoreSeries {
    /// Write an in-core series to `dir` as raw frames and return the
    /// disk-backed handle with a private `Frames(capacity)` budget.
    pub fn create(
        dir: &Path,
        prefix: &str,
        series: &TimeSeries,
        capacity: usize,
    ) -> Result<Self, IoError> {
        let paths = write_series(dir, prefix, series)?;
        Self::from_parts(
            series.dims(),
            series.steps().to_vec(),
            paths,
            &CacheBudgetHandle::frames(capacity),
            0,
        )
    }

    /// Open from existing frame files with a private `Frames(capacity)`
    /// budget (reads each sidecar for the step label, but no voxel data).
    pub fn open(paths: Vec<PathBuf>, capacity: usize) -> Result<Self, IoError> {
        Self::open_with(paths, &CacheBudgetHandle::frames(capacity), 0)
    }

    /// [`Self::open`] with an explicit (possibly shared) budget and a
    /// prefetch depth (`0` disables read-ahead). Raw and compressed `.rawz`
    /// frames (see [`crate::codec`]) may mix; each is charged its on-disk
    /// size.
    pub fn open_with(
        paths: Vec<PathBuf>,
        budget: &CacheBudgetHandle,
        prefetch: usize,
    ) -> Result<Self, IoError> {
        // Read sidecars only — cheap JSON reads for dims, steps, and dtype.
        let mut metas = Vec::with_capacity(paths.len());
        for p in &paths {
            let meta = crate::io::read_sidecar(p)?;
            if meta.dtype != "f32le" && meta.dtype != crate::codec::DTYPE {
                return Err(IoError::UnsupportedDtype(meta.dtype));
            }
            metas.push((meta, p.clone()));
        }
        let (dims, labelled) = crate::io::in_step_order(&paths, metas)?;
        let (steps, paths) = labelled.into_iter().unzip();
        Self::from_parts(dims, steps, paths, budget, prefetch)
    }

    /// Join `budget` and, with a nonzero `prefetch` depth, start the
    /// read-ahead worker.
    fn from_parts(
        dims: Dims3,
        steps: Vec<u32>,
        paths: Vec<PathBuf>,
        budget: &CacheBudgetHandle,
        prefetch: usize,
    ) -> Result<Self, IoError> {
        let mut charges = Vec::with_capacity(paths.len());
        for p in &paths {
            charges.push(std::fs::metadata(p)?.len());
        }
        let max_charge = charges.iter().copied().max().unwrap_or(1).max(1);
        let inner = Arc::new(Inner {
            dims,
            steps,
            paths,
            charges,
            max_charge,
            budget: budget.clone(),
            id: budget.0.register(),
            range: OnceLock::new(),
        });
        let worker = (prefetch > 0).then(|| {
            let inner = inner.clone();
            let (tx, rx) = mpsc::channel::<(Vec<usize>, ifet_obs::Handle)>();
            let handle = std::thread::Builder::new()
                .name("ifet-ooc-prefetch".into())
                .spawn(move || {
                    for (idxs, obs) in rx {
                        let _obs = obs.enter();
                        for i in idxs {
                            inner.prefetch_frame(i);
                        }
                    }
                })
                .expect("spawn prefetch worker");
            PrefetchWorker { tx, handle }
        });
        Ok(Self {
            inner,
            prefetch_depth: prefetch,
            worker,
        })
    }

    pub fn dims(&self) -> Dims3 {
        self.inner.dims
    }

    pub fn len(&self) -> usize {
        self.inner.paths.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.paths.is_empty()
    }

    pub fn steps(&self) -> &[u32] {
        &self.inner.steps
    }

    /// The frame files backing this series, in step order.
    pub fn paths(&self) -> &[PathBuf] {
        &self.inner.paths
    }

    /// Load frame `i`, from cache when resident. The `Arc` keeps the frame
    /// alive for the caller even after eviction.
    pub fn frame(&self, i: usize) -> Result<Arc<ScalarVolume>, IoError> {
        self.inner.demand_frame(i)
    }

    /// Frame by step label.
    pub fn frame_at_step(&self, t: u32) -> Result<Option<Arc<ScalarVolume>>, IoError> {
        match self.inner.steps.binary_search(&t) {
            Ok(i) => Ok(Some(self.frame(i)?)),
            Err(_) => Ok(None),
        }
    }

    /// Residency bound in frames: the budget expressed as whole frames of
    /// this series. Byte budgets divide by the *largest* per-frame charge
    /// (conservative for mixed compressed sizes), round down, and floor at
    /// one frame.
    pub fn capacity(&self) -> usize {
        match self.inner.budget.0.limit {
            CacheBudget::Frames(n) => n.max(1),
            CacheBudget::Bytes(b) => ((b / self.inner.max_charge) as usize).max(1),
        }
    }

    /// The budget handle this series draws on (shared across clones).
    pub fn budget(&self) -> &CacheBudgetHandle {
        &self.inner.budget
    }

    /// Assign this series to a residency group (`0` is the default group).
    /// All of the series' resident bytes are attributed to the group, which
    /// can carry a byte quota ([`CacheBudgetHandle::set_group_quota`]) and an
    /// activity refcount ([`CacheBudgetHandle::group_enter`]) that steers
    /// eviction. Call before the first frame read; a later reassignment
    /// migrates the bytes already resident but not reads currently in
    /// flight.
    pub fn set_residency_group(&self, group: u64) {
        self.inner.budget.0.signal(|st| {
            let m = st.member(self.inner.id);
            let old = std::mem::replace(&mut m.group, group);
            let moved = m.stats.resident_bytes;
            if old == group || moved == 0 {
                return;
            }
            let og = st.group_mut(old);
            og.resident_bytes = og.resident_bytes.saturating_sub(moved);
            let ng = st.group_mut(group);
            ng.resident_bytes += moved;
            ng.hw_bytes = ng.hw_bytes.max(ng.resident_bytes + ng.inflight_bytes);
        });
    }

    /// The residency group this series is assigned to.
    pub fn residency_group(&self) -> u64 {
        self.inner.budget.0.state().member(self.inner.id).group
    }

    /// Read-ahead depth in frames (`0` = prefetch disabled).
    pub fn prefetch_depth(&self) -> usize {
        self.prefetch_depth
    }

    /// Queue read-ahead for `upcoming` frame indices (clamped to the
    /// configured depth). No-op when prefetch is disabled. Never blocks.
    pub fn request_prefetch(&self, upcoming: &[usize]) {
        let Some(w) = &self.worker else { return };
        let take = self.prefetch_depth.min(upcoming.len());
        let batch: Vec<usize> = upcoming[..take]
            .iter()
            .copied()
            .filter(|&i| i < self.inner.paths.len())
            .collect();
        if !batch.is_empty() {
            let _ = w.tx.send((batch, ifet_obs::handle()));
        }
    }

    /// Install (or clear) a per-read fault hook. Test instrumentation for
    /// the chaos suite: lets a test delay or transiently fail individual
    /// read attempts on both the demand and prefetch paths.
    pub fn set_read_fault_hook(&self, hook: Option<ReadFaultHook>) {
        self.inner.budget.0.state().member(self.inner.id).fault = hook;
    }

    /// Full paging statistics. Per-series traffic counters plus the shared
    /// budget's high-water marks (which include in-flight reads).
    pub fn stats(&self) -> CacheStats {
        let mut st = self.inner.budget.0.state();
        let (hw_frames, hw_bytes) = (st.hw_frames, st.hw_bytes);
        let m = st.member(self.inner.id);
        CacheStats {
            resident: m.frames.len(),
            resident_high_water: hw_frames,
            resident_high_water_bytes: hw_bytes,
            ..m.stats
        }
    }

    /// Global `(min, max)` across all frames, computed by one streaming scan
    /// in ascending frame order and memoized.
    pub(crate) fn global_range_cached(&self) -> Result<(f32, f32), IoError> {
        if let Some(&r) = self.inner.range.get() {
            return Ok(r);
        }
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for i in 0..self.len() {
            let (a, b) = self.frame(i)?.value_range();
            lo = lo.min(a);
            hi = hi.max(b);
        }
        let r = if lo > hi { (0.0, 0.0) } else { (lo, hi) };
        Ok(*self.inner.range.get_or_init(|| r))
    }

    /// Materialize the whole series in core (only for small data / tests).
    pub fn load_all(&self) -> Result<TimeSeries, IoError> {
        let mut frames = Vec::with_capacity(self.len());
        for (i, &t) in self.inner.steps.iter().enumerate() {
            frames.push((t, (*self.frame(i)?).clone()));
        }
        Ok(TimeSeries::from_frames(frames))
    }
}

impl Drop for OutOfCoreSeries {
    /// Stop the read-ahead worker: a closed channel ends it once it has
    /// served what is already queued.
    fn drop(&mut self) {
        if let Some(PrefetchWorker { tx, handle }) = self.worker.take() {
            drop(tx);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_series_with;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn sample_series() -> TimeSeries {
        let d = Dims3::cube(8);
        TimeSeries::from_frames(
            (0..6u32)
                .map(|k| (k * 10, ScalarVolume::filled(d, k as f32)))
                .collect(),
        )
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ifet_ooc_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    const FB: u64 = 8 * 8 * 8 * 4; // bytes per sample_series frame

    /// Write `s` under `dir` (as compressed `.rawz` when `compress`) and page
    /// it through `budget`.
    fn paged(
        dir: &Path,
        s: &TimeSeries,
        budget: &CacheBudgetHandle,
        prefetch: usize,
        compress: bool,
    ) -> OutOfCoreSeries {
        let paths = write_series_with(dir, "f", s, compress).unwrap();
        OutOfCoreSeries::open_with(paths, budget, prefetch).unwrap()
    }

    #[test]
    fn create_and_read_frames() {
        let dir = tmpdir("basic");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 2).unwrap();
        assert_eq!(ooc.len(), 6);
        assert_eq!(ooc.dims(), Dims3::cube(8));
        assert_eq!(ooc.steps(), &[0, 10, 20, 30, 40, 50]);
        for i in 0..6 {
            assert_eq!(ooc.frame(i).unwrap().as_slice()[0], i as f32);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cache_respects_capacity() {
        let dir = tmpdir("cap");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 2).unwrap();
        for i in 0..6 {
            let _ = ooc.frame(i).unwrap();
        }
        assert!(
            ooc.stats().resident <= 2,
            "resident {}",
            ooc.stats().resident
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn repeated_access_hits_cache() {
        let dir = tmpdir("hits");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 3).unwrap();
        let _ = ooc.frame(0).unwrap();
        let _ = ooc.frame(0).unwrap();
        let _ = ooc.frame(0).unwrap();
        let st = ooc.stats();
        assert_eq!(st.misses, 1);
        assert_eq!(st.hits, 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn lru_evicts_oldest() {
        let dir = tmpdir("lru");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 2).unwrap();
        let _ = ooc.frame(0).unwrap();
        let _ = ooc.frame(1).unwrap();
        let _ = ooc.frame(0).unwrap(); // refresh 0
        let _ = ooc.frame(2).unwrap(); // evicts 1
        let h0 = ooc.stats().hits;
        let _ = ooc.frame(0).unwrap(); // still resident -> hit
        assert_eq!(ooc.stats().hits, h0 + 1);
        let m0 = ooc.stats().misses;
        let _ = ooc.frame(1).unwrap(); // was evicted -> miss
        assert_eq!(ooc.stats().misses, m0 + 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_from_paths_matches_created() {
        let dir = tmpdir("open");
        let s = sample_series();
        let created = OutOfCoreSeries::create(&dir, "f", &s, 2).unwrap();
        let paths: Vec<PathBuf> = created.paths().to_vec();
        let opened = OutOfCoreSeries::open(paths, 2).unwrap();
        assert_eq!(opened.steps(), created.steps());
        assert_eq!(opened.load_all().unwrap(), s);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn frame_at_step_lookup() {
        let dir = tmpdir("step");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 2).unwrap();
        assert_eq!(ooc.frame_at_step(30).unwrap().unwrap().as_slice()[0], 3.0);
        assert!(ooc.frame_at_step(31).unwrap().is_none());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_frame_file_is_an_error_not_a_panic() {
        let dir = tmpdir("gone");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 1).unwrap();
        // Delete one raw file behind the cache's back.
        std::fs::remove_file(&ooc.paths()[3]).unwrap();
        assert!(ooc.frame(3).is_err(), "deleted frame must surface as Err");
        // Other frames still load.
        assert!(ooc.frame(0).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupted_frame_is_an_error() {
        let dir = tmpdir("corrupt");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 1).unwrap();
        std::fs::write(&ooc.paths()[2], [1u8, 2, 3]).unwrap(); // truncated
        assert!(ooc.frame(2).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn arc_keeps_evicted_frame_alive() {
        let dir = tmpdir("arc");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 1).unwrap();
        let held = ooc.frame(0).unwrap();
        let _ = ooc.frame(1).unwrap(); // evicts frame 0 from the cache
                                       // The caller's Arc still works even though the cache dropped it.
        assert_eq!(held.as_slice()[0], 0.0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn stats_track_evictions_and_high_water() {
        let dir = tmpdir("stats");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 2).unwrap();
        assert_eq!(ooc.capacity(), 2);
        for i in 0..6 {
            let _ = ooc.frame(i).unwrap();
        }
        let st = ooc.stats();
        assert_eq!(st.hits, 0);
        assert_eq!(st.misses, 6);
        assert_eq!(st.evictions, 4);
        assert_eq!(st.resident, 2);
        assert_eq!(st.resident_high_water, 2);
        assert_eq!(st.bytes_paged, 6 * FB);
        assert_eq!(st.resident_bytes, 2 * FB);
        assert_eq!(st.resident_high_water_bytes, 2 * FB);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn byte_budget_bounds_resident_bytes() {
        let dir = tmpdir("bytebudget");
        let s = sample_series();
        // Room for exactly three frames.
        let budget = CacheBudgetHandle::bytes(3 * FB);
        let ooc = paged(&dir, &s, &budget, 0, false);
        assert_eq!(ooc.capacity(), 3);
        for i in 0..6 {
            let _ = ooc.frame(i).unwrap();
        }
        let st = ooc.stats();
        assert_eq!(st.resident, 3);
        assert_eq!(st.resident_bytes, 3 * FB);
        assert!(st.resident_high_water_bytes <= 3 * FB);
        assert_eq!(st.evictions, 3);
        // True LRU under byte charging: the last three frames are resident.
        let h0 = ooc.stats().hits;
        let _ = ooc.frame(3).unwrap();
        let _ = ooc.frame(4).unwrap();
        let _ = ooc.frame(5).unwrap();
        let st = ooc.stats();
        assert_eq!(st.hits, h0 + 3, "frames 3..6 must all be hits");
        assert_eq!(st.misses, 6);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sub_frame_byte_budget_still_makes_progress() {
        let dir = tmpdir("tiny");
        let s = sample_series();
        let budget = CacheBudgetHandle::bytes(FB / 2);
        let ooc = paged(&dir, &s, &budget, 0, false);
        assert_eq!(ooc.capacity(), 1);
        for i in 0..6 {
            assert_eq!(ooc.frame(i).unwrap().as_slice()[0], i as f32);
        }
        // The single-frame floor: never more than one frame despite the
        // sub-frame budget.
        assert!(ooc.stats().resident_high_water <= 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn shared_budget_evicts_across_series() {
        let dir = tmpdir("shared");
        let s = sample_series();
        let budget = CacheBudgetHandle::new(CacheBudget::Frames(2));
        let a = paged(&dir.join("a"), &s, &budget, 0, false);
        let b = paged(&dir.join("b"), &s, &budget, 0, false);
        let _ = a.frame(0).unwrap();
        let _ = a.frame(1).unwrap();
        assert_eq!(a.stats().resident, 2);
        // Loading into `b` must evict from `a`: the budget is global.
        let _ = b.frame(0).unwrap();
        assert_eq!(a.stats().resident + b.stats().resident, 2);
        assert_eq!(a.stats().evictions, 1, "a's LRU frame paid for b's load");
        let bs = budget.stats();
        assert_eq!(bs.resident_frames, 2);
        assert!(bs.high_water_frames <= 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn group_quota_evicts_own_frames_first() {
        let dir = tmpdir("quota");
        let s = sample_series();
        // Roomy global budget: quota pressure, not global pressure, must
        // drive every eviction in this test.
        let budget = CacheBudgetHandle::frames(8);
        let a = paged(&dir.join("a"), &s, &budget, 0, false);
        let b = paged(&dir.join("b"), &s, &budget, 0, false);
        a.set_residency_group(1);
        b.set_residency_group(2);
        budget.set_group_quota(1, Some(2 * FB));
        // b establishes residency first; a's quota churn must not touch it.
        let _ = b.frame(0).unwrap();
        let _ = b.frame(1).unwrap();
        for i in 0..6 {
            let _ = a.frame(i).unwrap();
        }
        // The per-group bound and the global bound hold simultaneously.
        let ga = budget.group_stats(1);
        assert!(
            ga.high_water_bytes <= 2 * FB,
            "group 1 high-water {} exceeds its quota",
            ga.high_water_bytes
        );
        assert_eq!(ga.resident_bytes, 2 * FB);
        assert_eq!(ga.quota_evictions, 4, "frames 0..4 paid for 2..6");
        let bs = budget.stats();
        assert!(bs.high_water_frames <= 8);
        assert_eq!(bs.quota_evictions, 4);
        // Quota-local, not global: b kept everything, a evicted only its own.
        assert_eq!(b.stats().evictions, 0, "b must be untouched by a's quota");
        assert_eq!(a.stats().evictions, 4);
        assert_eq!(a.stats().resident, 2);
        assert_eq!(b.stats().resident, 2);
        assert_eq!(budget.group_stats(2).quota_evictions, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sub_frame_group_quota_still_makes_progress() {
        let dir = tmpdir("quotafloor");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(8);
        let a = paged(&dir, &s, &budget, 0, false);
        a.set_residency_group(1);
        budget.set_group_quota(1, Some(FB / 2));
        // The per-group single-frame floor: reads proceed, one frame at a
        // time, despite a quota smaller than any frame.
        for i in 0..6 {
            assert_eq!(a.frame(i).unwrap().as_slice()[0], i as f32);
        }
        assert!(budget.group_stats(1).high_water_bytes <= FB);
        assert_eq!(a.stats().resident, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn eviction_prefers_idle_groups_over_active_ones() {
        let dir = tmpdir("idleevict");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(2);
        let a = paged(&dir.join("a"), &s, &budget, 0, false);
        let b = paged(&dir.join("b"), &s, &budget, 0, false);
        a.set_residency_group(1);
        b.set_residency_group(2);
        let _ = a.frame(0).unwrap(); // globally least recent
        let _ = b.frame(0).unwrap();
        // Group 1 is active, group 2 idle: the next eviction must take b's
        // frame even though a holds the global LRU.
        budget.group_enter(1);
        let _ = a.frame(1).unwrap();
        assert_eq!(a.stats().resident, 2, "active group kept its LRU frame");
        assert_eq!(b.stats().resident, 0, "idle group's frame was the victim");
        let bs = budget.stats();
        assert_eq!(bs.idle_evictions, 1, "the eviction was redirected");
        assert!(bs.high_water_frames <= 2, "the global bound still holds");
        // Once group 1 goes idle again, plain global LRU resumes: b's next
        // load takes a's oldest frame.
        budget.group_exit(1);
        let _ = b.frame(0).unwrap();
        assert_eq!(a.stats().resident, 1);
        assert_eq!(b.stats().resident, 1);
        assert_eq!(
            budget.stats().idle_evictions,
            1,
            "no redirect when all idle"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn prefetch_warms_cache_and_counts_hits() {
        let dir = tmpdir("prefetch");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(4);
        let ooc = paged(&dir, &s, &budget, 2, false);
        assert_eq!(ooc.prefetch_depth(), 2);
        ooc.request_prefetch(&[0, 1, 2, 3]); // clamped to depth 2
                                             // Wait for the worker to commit both frames.
        for _ in 0..200 {
            if ooc.stats().prefetched == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let st = ooc.stats();
        assert_eq!(st.prefetched, 2, "depth clamps the request to two frames");
        assert_eq!(st.misses, 0, "prefetch loads are not demand misses");
        let _ = ooc.frame(0).unwrap();
        let _ = ooc.frame(1).unwrap();
        let st = ooc.stats();
        assert_eq!(st.hits, 2);
        assert_eq!(st.prefetch_hits, 2);
        assert_eq!(st.misses, 0);
        // Re-requesting resident frames is a prefetch miss (skip).
        ooc.request_prefetch(&[0]);
        for _ in 0..200 {
            if ooc.stats().prefetch_misses == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ooc.stats().prefetch_misses, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn prefetch_respects_budget_high_water() {
        let dir = tmpdir("prefhw");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(2);
        let ooc = paged(&dir, &s, &budget, 4, false);
        // Walk the series with aggressive read-ahead; the budget (which
        // charges in-flight reads too) must never be exceeded.
        for i in 0..6 {
            ooc.request_prefetch(&[i + 1, i + 2, i + 3, i + 4]);
            let _ = ooc.frame(i).unwrap();
        }
        let st = ooc.stats();
        assert!(
            st.resident_high_water <= 2,
            "high water {} exceeds budget",
            st.resident_high_water
        );
        assert!(st.prefetch_wasted <= st.prefetched);
        assert_eq!(st.hits + st.misses, 6);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fault_hook_retries_transient_errors() {
        let dir = tmpdir("fault");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 2).unwrap();
        // Fail the first two attempts of every read of frame 3.
        ooc.set_read_fault_hook(Some(Arc::new(|frame, attempt| {
            (frame == 3 && attempt <= 2).then_some(ReadFault::Error)
        })));
        assert_eq!(ooc.frame(3).unwrap().as_slice()[0], 3.0);
        assert_eq!(ooc.stats().read_retries, 2);
        // A permanently failing frame still surfaces an error after the
        // bounded retries.
        ooc.set_read_fault_hook(Some(Arc::new(|frame, _| {
            (frame == 4).then_some(ReadFault::Error)
        })));
        assert!(ooc.frame(4).is_err());
        ooc.set_read_fault_hook(None);
        assert!(ooc.frame(4).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn failed_prefetch_degrades_to_demand_load() {
        let dir = tmpdir("prefail");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(3);
        let ooc = paged(&dir, &s, &budget, 2, false);
        // Fail the first three read attempts of frame 1 (exhausting the
        // prefetch worker's retries), then succeed.
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        ooc.set_read_fault_hook(Some(Arc::new(move |frame, _| {
            (frame == 1 && c.fetch_add(1, Ordering::SeqCst) < 3).then_some(ReadFault::Error)
        })));
        ooc.request_prefetch(&[1]);
        // Wait until the worker has given up (three failed attempts).
        for _ in 0..400 {
            if calls.load(Ordering::SeqCst) >= 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Demand still gets the frame; the failed prefetch left no trace
        // beyond retry counters and an unreserved budget.
        assert_eq!(ooc.frame(1).unwrap().as_slice()[0], 1.0);
        let st = ooc.stats();
        assert_eq!(st.prefetched, 0);
        assert_eq!(st.misses, 1);
        let bs = budget.stats();
        assert_eq!(bs.inflight_frames, 0, "failed prefetch must release");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn panicking_read_gives_its_reservation_back() {
        let dir = tmpdir("panic");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(2);
        let ooc = Arc::new(paged(&dir, &s, &budget, 0, false));
        let first = Arc::new(std::sync::atomic::AtomicBool::new(true));
        ooc.set_read_fault_hook(Some(Arc::new(move |frame, _| {
            if frame == 1 && first.swap(false, Ordering::SeqCst) {
                panic!("injected panic in the fault hook");
            }
            None
        })));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ooc.frame(1)));
        assert!(caught.is_err(), "the hook's panic reaches the reader");
        // A later reader of the same frame must not wait on the abandoned
        // read: it loads the frame itself.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = ooc.clone();
        std::thread::spawn(move || {
            let _ = tx.send(reader.frame(1).map(|v| v.as_slice()[0]));
        });
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("frame(1) still blocked on the panicked read");
        assert_eq!(got.unwrap(), 1.0);
        assert_eq!(budget.stats().inflight_frames, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn global_range_cached_scans_once() {
        let dir = tmpdir("range");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 1).unwrap();
        assert_eq!(ooc.global_range_cached().unwrap(), s.global_range());
        let misses_before = ooc.stats().misses;
        assert_eq!(ooc.global_range_cached().unwrap(), s.global_range());
        let misses_after = ooc.stats().misses;
        assert_eq!(misses_before, misses_after, "second call must be memoized");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn load_all_roundtrips() {
        let dir = tmpdir("all");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 1).unwrap();
        assert_eq!(ooc.load_all().unwrap(), s);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compressed_series_charges_compressed_bytes() {
        let dir = tmpdir("zcharge");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(1);
        let ooc = paged(&dir, &s, &budget, 0, true);
        assert_eq!(ooc.load_all().unwrap(), s, "compressed paging is lossless");
        let st = ooc.stats();
        assert!(
            st.bytes_paged < 6 * FB,
            "constant frames must page fewer than raw bytes ({} vs {})",
            st.bytes_paged,
            6 * FB
        );
        // Charges come from the actual file sizes.
        let on_disk: u64 = ooc
            .paths()
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        assert_eq!(st.bytes_paged, on_disk);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn byte_budget_holds_more_compressed_frames() {
        let dir = tmpdir("zmore");
        let s = sample_series();
        // One raw frame's worth of budget holds several compressed frames.
        let budget = CacheBudgetHandle::bytes(FB);
        let ooc = paged(&dir, &s, &budget, 0, true);
        assert!(
            ooc.capacity() > 1,
            "capacity {} should exceed one frame under compression",
            ooc.capacity()
        );
        for i in 0..6 {
            let _ = ooc.frame(i).unwrap();
        }
        let st = ooc.stats();
        assert!(st.resident > 1);
        assert!(st.resident_high_water_bytes <= FB);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupted_compressed_frame_is_typed_codec_error() {
        let dir = tmpdir("zcorrupt");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(1);
        let ooc = paged(&dir, &s, &budget, 0, true);
        let p = ooc.paths()[2].clone();
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x5a;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(ooc.frame(2), Err(IoError::Codec(_))));
        // Other frames still load fine.
        assert!(ooc.frame(0).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }
}
