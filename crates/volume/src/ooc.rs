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
//! series per variable); eviction is then *global*: the least-recently-used
//! frame across every member series is evicted first, charged by its actual
//! byte size. In-flight reads (demand misses and prefetches that have
//! reserved space but not yet committed) count against the budget, so the
//! high-water marks are honest even while the prefetch worker is mid-read.
//!
//! # Prefetch
//!
//! [`OutOfCoreSeries::set_prefetch`] starts a background `std::thread` that
//! services read-ahead hints (see `FrameSource::prefetch_hint` in
//! [`crate::source`]): while the caller computes on the current window, the
//! worker pages the next window's frames through the same reserve → read →
//! commit path as demand misses. Prefetch is *purely* a warm-cache hint — a
//! failed or skipped prefetch never changes what demand reads return, and
//! prefetch emits no obs spans (only runtime counters), so stable traces are
//! byte-identical whether read-ahead is on or off. Transient read failures
//! are retried a bounded number of times on both paths; the prefetch worker
//! then degrades silently while demand reads surface the error.

use crate::dims::Dims3;
use crate::io::{write_series_with, IoError};
use crate::series::TimeSeries;
use crate::volume::ScalarVolume;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};
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

const NIL: usize = usize::MAX;

/// One resident frame, threaded on an intrusive LRU list over slot indices.
struct Slot {
    frame: usize,
    vol: Arc<ScalarVolume>,
    prev: usize,
    next: usize,
    /// Global recency stamp (from the budget's tick) for cross-series LRU.
    stamp: u64,
    /// Loaded by the prefetch worker and not yet touched by demand.
    prefetched: bool,
    /// Budget charge of this frame (its on-disk byte size), remembered so
    /// eviction frees exactly what insertion charged.
    bytes: u64,
}

/// Per-series cache state: a frame-index map into a slot slab whose occupied
/// slots form a doubly-linked recency list (`head` = least recent, `tail` =
/// most recent), plus the set of frame indices currently being read.
struct Cache {
    map: HashMap<usize, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    inflight: HashSet<usize>,
    stats: CacheStats,
}

impl Cache {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            inflight: HashSet::new(),
            stats: CacheStats::default(),
        }
    }

    fn detach(&mut self, s: usize) {
        let (prev, next) = {
            let e = self.slots[s].as_ref().unwrap();
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().unwrap().next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].as_mut().unwrap().prev = prev,
        }
    }

    fn attach_most_recent(&mut self, s: usize) {
        {
            let e = self.slots[s].as_mut().unwrap();
            e.prev = self.tail;
            e.next = NIL;
        }
        match self.tail {
            NIL => self.head = s,
            t => self.slots[t].as_mut().unwrap().next = s,
        }
        self.tail = s;
    }

    /// Demand lookup: on a hit, refresh recency, stamp, and the prefetch
    /// bookkeeping. Does *not* count misses — the caller decides whether an
    /// absence becomes a miss (it may first wait out an in-flight read).
    fn get_resident(&mut self, idx: usize, stamp: u64) -> Option<Arc<ScalarVolume>> {
        let &s = self.map.get(&idx)?;
        self.detach(s);
        self.attach_most_recent(s);
        let e = self.slots[s].as_mut().unwrap();
        e.stamp = stamp;
        if e.prefetched {
            e.prefetched = false;
            self.stats.prefetch_hits += 1;
            ifet_obs::counter_runtime("volume.ooc.prefetch_hit", 1);
        }
        self.stats.hits += 1;
        ifet_obs::counter_runtime("volume.ooc.hit", 1);
        Some(e.vol.clone())
    }

    fn note_miss(&mut self) {
        self.stats.misses += 1;
        ifet_obs::counter_runtime("volume.ooc.miss", 1);
    }

    /// Insert a committed load charged at `bytes`. The budget has already
    /// reserved space; the in-flight guard guarantees no duplicate entry.
    fn insert(
        &mut self,
        idx: usize,
        vol: Arc<ScalarVolume>,
        stamp: u64,
        prefetched: bool,
        bytes: u64,
    ) {
        debug_assert!(!self.map.contains_key(&idx));
        let s = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[s] = Some(Slot {
            frame: idx,
            vol,
            prev: NIL,
            next: NIL,
            stamp,
            prefetched,
            bytes,
        });
        self.attach_most_recent(s);
        self.map.insert(idx, s);
        self.stats.bytes_paged += bytes;
        self.stats.resident_bytes += bytes;
        ifet_obs::counter_runtime("volume.ooc.bytes_paged", bytes);
        if prefetched {
            self.stats.prefetched += 1;
            ifet_obs::counter_runtime("volume.ooc.prefetched", 1);
        }
    }

    /// Evict the least-recently-used slot; returns the bytes freed.
    fn evict_lru(&mut self) -> u64 {
        let lru = self.head;
        debug_assert_ne!(lru, NIL);
        self.detach(lru);
        let e = self.slots[lru].take().unwrap();
        self.map.remove(&e.frame);
        self.free.push(lru);
        self.stats.evictions += 1;
        self.stats.resident_bytes -= e.bytes;
        ifet_obs::counter_runtime("volume.ooc.evict", 1);
        if e.prefetched {
            self.stats.prefetch_wasted += 1;
            ifet_obs::counter_runtime("volume.ooc.prefetch_wasted", 1);
        }
        e.bytes
    }

    /// Recency stamp of the LRU slot, if any frame is resident.
    fn lru_stamp(&self) -> Option<u64> {
        match self.head {
            NIL => None,
            h => Some(self.slots[h].as_ref().unwrap().stamp),
        }
    }
}

/// One series' cache plus the condvar its in-flight waiters sleep on.
struct SeriesCache {
    cache: Mutex<Cache>,
    cv: Condvar,
    /// Residency group this series' bytes are attributed to (0 = the default
    /// group: no quota, shared with every unassigned series).
    group: AtomicU64,
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

/// Shared accounting for every series on one budget handle.
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
    groups: HashMap<u64, GroupState>,
    members: Vec<Weak<SeriesCache>>,
}

impl BudgetState {
    fn group_mut(&mut self, g: u64) -> &mut GroupState {
        self.groups.entry(g).or_default()
    }
}

/// Lock order is strictly budget → cache: the budget lock may be held while
/// member cache locks are taken (eviction, commit), never the reverse.
struct Budget {
    limit: CacheBudget,
    state: Mutex<BudgetState>,
    cv: Condvar,
    /// Global recency clock: every touch stamps its slot so eviction can
    /// order frames across series.
    tick: AtomicU64,
}

impl Budget {
    fn fits(&self, st: &BudgetState, frame_bytes: u64) -> bool {
        match self.limit {
            CacheBudget::Frames(n) => st.resident_frames + st.inflight_frames < n.max(1),
            CacheBudget::Bytes(b) => st.resident_bytes + st.inflight_bytes + frame_bytes <= b,
        }
    }

    /// Account an eviction of `freed` bytes attributed to `group`.
    fn debit_eviction(st: &mut BudgetState, group: u64, freed: u64) {
        st.resident_frames -= 1;
        st.resident_bytes -= freed;
        st.evictions += 1;
        let g = st.group_mut(group);
        g.resident_bytes = g.resident_bytes.saturating_sub(freed);
    }

    /// Evict the least-recent resident frame, preferring frames whose
    /// residency group is *idle* (activity refcount zero) over frames of
    /// active groups. Falls back to the global LRU when every resident frame
    /// belongs to an active group. Returns `false` when nothing is resident.
    fn evict_one(&self, st: &mut BudgetState) -> bool {
        st.members.retain(|w| w.strong_count() > 0);
        // (member index, stamp, group, group is idle) per member LRU head.
        let mut global: Option<(usize, u64, u64)> = None;
        let mut idle: Option<(usize, u64, u64)> = None;
        for (mi, w) in st.members.iter().enumerate() {
            let Some(sc) = w.upgrade() else { continue };
            let c = sc.cache.lock().unwrap();
            let Some(stamp) = c.lru_stamp() else { continue };
            let group = sc.group.load(Ordering::Relaxed);
            if global.map_or(true, |(_, s, _)| stamp < s) {
                global = Some((mi, stamp, group));
            }
            let group_active = st.groups.get(&group).map_or(0, |g| g.active);
            if group_active == 0 && idle.map_or(true, |(_, s, _)| stamp < s) {
                idle = Some((mi, stamp, group));
            }
        }
        let Some((gmi, gstamp, ggroup)) = global else {
            return false;
        };
        let (mi, stamp, group) = idle.unwrap_or((gmi, gstamp, ggroup));
        let Some(sc) = st.members[mi].upgrade() else {
            return false;
        };
        let mut c = sc.cache.lock().unwrap();
        if c.lru_stamp().is_none() {
            return false;
        }
        let freed = c.evict_lru();
        drop(c);
        Self::debit_eviction(st, group, freed);
        if stamp != gstamp {
            st.idle_evictions += 1;
            ifet_obs::counter_runtime("volume.ooc.idle_evict", 1);
        }
        true
    }

    /// Evict the least-recent resident frame *within* one residency group
    /// (the quota-local phase). Returns `false` when the group has nothing
    /// resident.
    fn evict_one_in_group(&self, st: &mut BudgetState, group: u64) -> bool {
        st.members.retain(|w| w.strong_count() > 0);
        let mut best: Option<(usize, u64)> = None;
        for (mi, w) in st.members.iter().enumerate() {
            let Some(sc) = w.upgrade() else { continue };
            if sc.group.load(Ordering::Relaxed) != group {
                continue;
            }
            let c = sc.cache.lock().unwrap();
            if let Some(stamp) = c.lru_stamp() {
                if best.map_or(true, |(_, s)| stamp < s) {
                    best = Some((mi, stamp));
                }
            }
        }
        let Some((mi, _)) = best else { return false };
        let Some(sc) = st.members[mi].upgrade() else {
            return false;
        };
        let mut c = sc.cache.lock().unwrap();
        if c.lru_stamp().is_none() {
            return false;
        }
        let freed = c.evict_lru();
        drop(c);
        Self::debit_eviction(st, group, freed);
        st.quota_evictions += 1;
        st.group_mut(group).quota_evictions += 1;
        ifet_obs::counter_runtime("volume.ooc.quota_evict", 1);
        true
    }

    /// Whether `group` can take `frame_bytes` more without crossing its
    /// quota. Groups without a quota always have room.
    fn quota_room(st: &BudgetState, group: u64, frame_bytes: u64) -> bool {
        match st.groups.get(&group) {
            Some(g) => match g.quota {
                Some(q) => g.resident_bytes + g.inflight_bytes + frame_bytes <= q,
                None => true,
            },
            None => true,
        }
    }

    /// Reserve space for one in-flight read attributed to `group`, evicting
    /// and waiting as needed. Two phases: a group over its own quota evicts
    /// its *own* LRU frames first (never charging its overflow to others),
    /// then the global budget evicts idle-preferred. When nothing is
    /// evictable and nothing else is in flight, the reservation proceeds
    /// anyway so a sub-frame budget (or sub-frame quota) still makes
    /// progress (the single-frame floor, globally and per group).
    fn reserve(&self, frame_bytes: u64, group: u64) {
        let mut st = self.state.lock().unwrap();
        loop {
            while !Self::quota_room(&st, group, frame_bytes)
                && self.evict_one_in_group(&mut st, group)
            {}
            while !self.fits(&st, frame_bytes) && self.evict_one(&mut st) {}
            let group_floor = st
                .groups
                .get(&group)
                .map_or(true, |g| g.resident_bytes + g.inflight_bytes == 0);
            let quota_ok = Self::quota_room(&st, group, frame_bytes) || group_floor;
            let global_ok = self.fits(&st, frame_bytes) || st.inflight_frames == 0;
            if quota_ok && global_ok {
                st.inflight_frames += 1;
                st.inflight_bytes += frame_bytes;
                st.hw_frames = st.hw_frames.max(st.resident_frames + st.inflight_frames);
                st.hw_bytes = st.hw_bytes.max(st.resident_bytes + st.inflight_bytes);
                let g = st.group_mut(group);
                g.inflight_bytes += frame_bytes;
                g.hw_bytes = g.hw_bytes.max(g.resident_bytes + g.inflight_bytes);
                return;
            }
            // Timed wait as a spurious-wakeup / missed-notify guard; the loop
            // re-checks the budget either way.
            let (g, _) = self.cv.wait_timeout(st, Duration::from_millis(50)).unwrap();
            st = g;
        }
    }

    /// Turn a reservation of `bytes` into a resident cache entry. Accounting
    /// and insert happen under the budget lock so the evictor never sees them
    /// disagree. `group` must match the reservation's.
    fn commit_and_insert(
        &self,
        sc: &SeriesCache,
        idx: usize,
        vol: Arc<ScalarVolume>,
        prefetched: bool,
        bytes: u64,
        group: u64,
    ) {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock().unwrap();
        {
            let mut c = sc.cache.lock().unwrap();
            c.insert(idx, vol, stamp, prefetched, bytes);
            c.inflight.remove(&idx);
        }
        st.inflight_frames -= 1;
        st.inflight_bytes -= bytes;
        st.resident_frames += 1;
        st.resident_bytes += bytes;
        let g = st.group_mut(group);
        g.inflight_bytes = g.inflight_bytes.saturating_sub(bytes);
        g.resident_bytes += bytes;
        drop(st);
        self.cv.notify_all();
        sc.cv.notify_all();
    }

    /// Abandon a reservation of `bytes` after a failed read.
    fn release(&self, sc: &SeriesCache, idx: usize, bytes: u64, group: u64) {
        let mut st = self.state.lock().unwrap();
        {
            let mut c = sc.cache.lock().unwrap();
            c.inflight.remove(&idx);
        }
        st.inflight_frames -= 1;
        st.inflight_bytes -= bytes;
        let g = st.group_mut(group);
        g.inflight_bytes = g.inflight_bytes.saturating_sub(bytes);
        drop(st);
        self.cv.notify_all();
        sc.cv.notify_all();
    }

    fn register(&self, sc: &Arc<SeriesCache>) {
        self.state.lock().unwrap().members.push(Arc::downgrade(sc));
    }

    fn stats(&self) -> BudgetStats {
        let st = self.state.lock().unwrap();
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
            tick: AtomicU64::new(0),
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
        self.0.stats()
    }

    /// Set (or clear) a resident-byte quota for one residency group. A group
    /// over its quota evicts its *own* least-recent frames before reserving
    /// more; it never spills its overflow onto other groups. A quota smaller
    /// than one frame still admits a single frame (the per-group floor).
    pub fn set_group_quota(&self, group: u64, quota_bytes: Option<u64>) {
        let mut st = self.0.state.lock().unwrap();
        st.group_mut(group).quota = quota_bytes;
    }

    /// Mark one in-flight request against `group`. While a group's activity
    /// refcount is nonzero its frames are deprioritized as eviction victims:
    /// global eviction takes the LRU frame of an *idle* group when one
    /// exists. Pair every call with [`Self::group_exit`].
    pub fn group_enter(&self, group: u64) {
        let mut st = self.0.state.lock().unwrap();
        st.group_mut(group).active += 1;
    }

    /// Balance a [`Self::group_enter`]; the group becomes idle (and its
    /// frames become preferred victims) when the refcount reaches zero.
    pub fn group_exit(&self, group: u64) {
        let mut st = self.0.state.lock().unwrap();
        let g = st.group_mut(group);
        g.active = g.active.saturating_sub(1);
    }

    /// Accounting for one residency group (zeros if never touched).
    pub fn group_stats(&self, group: u64) -> GroupStats {
        let st = self.0.state.lock().unwrap();
        match st.groups.get(&group) {
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
    sc: Arc<SeriesCache>,
    budget: CacheBudgetHandle,
    /// Memoized global `(min, max)`: one streaming scan, reused thereafter.
    range: Mutex<Option<(f32, f32)>>,
    fault: Mutex<Option<ReadFaultHook>>,
}

impl Inner {
    /// Budget charge of frame `i` (its on-disk byte size).
    fn charge(&self, i: usize) -> u64 {
        self.charges[i]
    }

    /// The physical page-in of one frame: a copying read for raw frames, a
    /// decode for compressed ones.
    fn read_one(&self, i: usize) -> Result<ScalarVolume, IoError> {
        crate::io::read_frame(&self.paths[i]).map(|(v, _)| v)
    }

    /// One logical read with bounded retry; the fault hook (when installed)
    /// may delay or fail individual attempts.
    fn read_frame(&self, i: usize) -> Result<ScalarVolume, IoError> {
        let hook = self.fault.lock().unwrap().clone();
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
                    self.sc.cache.lock().unwrap().stats.read_retries += 1;
                    ifet_obs::counter_runtime("volume.ooc.read_retry", 1);
                }
            }
        }
    }

    /// Demand access: hit, wait out an in-flight read, or load ourselves.
    fn demand_frame(&self, i: usize) -> Result<Arc<ScalarVolume>, IoError> {
        assert!(i < self.paths.len(), "frame {i} out of range");
        let b = &self.budget.0;
        {
            let mut c = self.sc.cache.lock().unwrap();
            loop {
                let stamp = b.tick.fetch_add(1, Ordering::Relaxed);
                if let Some(v) = c.get_resident(i, stamp) {
                    return Ok(v);
                }
                if !c.inflight.contains(&i) {
                    break;
                }
                // Someone (usually the prefetch worker) is already reading
                // this frame; wait for commit or release, then re-check.
                let (g, _) = self
                    .sc
                    .cv
                    .wait_timeout(c, Duration::from_millis(50))
                    .unwrap();
                c = g;
            }
            c.note_miss();
            c.inflight.insert(i);
        }
        let charge = self.charge(i);
        // Group attribution is read once so reserve/commit/release agree even
        // if the series is reassigned mid-read.
        let group = self.sc.group.load(Ordering::Relaxed);
        b.reserve(charge, group);
        match self.read_frame(i) {
            Ok(vol) => {
                let vol = Arc::new(vol);
                b.commit_and_insert(&self.sc, i, vol.clone(), false, charge, group);
                Ok(vol)
            }
            Err(e) => {
                b.release(&self.sc, i, charge, group);
                Err(e)
            }
        }
    }

    /// Read-ahead: best-effort warm of the cache. Never surfaces errors —
    /// a failed prefetch just leaves the frame for demand to (re)load.
    fn prefetch_frame(&self, i: usize) {
        if i >= self.paths.len() {
            return;
        }
        let b = &self.budget.0;
        {
            let mut c = self.sc.cache.lock().unwrap();
            if c.map.contains_key(&i) || c.inflight.contains(&i) {
                c.stats.prefetch_misses += 1;
                ifet_obs::counter_runtime("volume.ooc.prefetch_miss", 1);
                return;
            }
            c.inflight.insert(i);
        }
        let charge = self.charge(i);
        let group = self.sc.group.load(Ordering::Relaxed);
        b.reserve(charge, group);
        match self.read_frame(i) {
            Ok(vol) => b.commit_and_insert(&self.sc, i, Arc::new(vol), true, charge, group),
            Err(_) => b.release(&self.sc, i, charge, group),
        }
    }
}

impl Drop for Inner {
    /// Hand this series' resident frames back to the shared budget. The
    /// budget reaches member caches only through `Weak`s, so frames still
    /// charged when the series goes away could never be evicted: every
    /// other member would page under a budget shrunk by them for good.
    fn drop(&mut self) {
        let b = &self.budget.0;
        let mut st = b.state.lock().unwrap_or_else(|e| e.into_inner());
        // Emptied under both locks (budget → cache order), so an evictor
        // that upgrades the `Weak` before the cache is freed finds nothing
        // left to debit a second time.
        let cache = std::mem::replace(
            &mut *self.sc.cache.lock().unwrap_or_else(|e| e.into_inner()),
            Cache::new(),
        );
        let bytes = cache.stats.resident_bytes;
        st.resident_frames = st.resident_frames.saturating_sub(cache.map.len());
        st.resident_bytes = st.resident_bytes.saturating_sub(bytes);
        let g = st.group_mut(self.sc.group.load(Ordering::Relaxed));
        g.resident_bytes = g.resident_bytes.saturating_sub(bytes);
        drop(st);
        b.cv.notify_all();
    }
}

enum PrefetchMsg {
    /// Frame indices to read ahead, and the capture of the thread that asked.
    Batch(Vec<usize>, ifet_obs::Handle),
    Stop,
}

struct PrefetchWorker {
    tx: mpsc::Sender<PrefetchMsg>,
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
    /// Write an in-core series to `dir` and return the disk-backed handle
    /// with a private `Frames(capacity)` budget.
    pub fn create(
        dir: &Path,
        prefix: &str,
        series: &TimeSeries,
        capacity: usize,
    ) -> Result<Self, IoError> {
        Self::create_with(dir, prefix, series, &CacheBudgetHandle::frames(capacity), 0)
    }

    /// [`Self::create`] with an explicit (possibly shared) budget and a
    /// prefetch depth (`0` disables read-ahead).
    pub fn create_with(
        dir: &Path,
        prefix: &str,
        series: &TimeSeries,
        budget: &CacheBudgetHandle,
        prefetch: usize,
    ) -> Result<Self, IoError> {
        Self::create_opts(dir, prefix, series, budget, prefetch, false)
    }

    /// [`Self::create_with`] with a choice of on-disk format: `compress`
    /// writes bricked compressed `.rawz` containers (see [`crate::codec`]),
    /// which the cache then charges at their smaller compressed size.
    pub fn create_opts(
        dir: &Path,
        prefix: &str,
        series: &TimeSeries,
        budget: &CacheBudgetHandle,
        prefetch: usize,
        compress: bool,
    ) -> Result<Self, IoError> {
        let paths = write_series_with(dir, prefix, series, compress)?;
        Self::from_parts(
            series.dims(),
            series.steps().to_vec(),
            paths,
            budget,
            prefetch,
        )
    }

    /// Open from existing frame files with a private `Frames(capacity)`
    /// budget (reads each sidecar for the step label, but no voxel data).
    pub fn open(paths: Vec<PathBuf>, capacity: usize) -> Result<Self, IoError> {
        Self::open_with(paths, &CacheBudgetHandle::frames(capacity), 0)
    }

    /// [`Self::open`] with an explicit (possibly shared) budget and a
    /// prefetch depth (`0` disables read-ahead).
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
        let sc = Arc::new(SeriesCache {
            cache: Mutex::new(Cache::new()),
            cv: Condvar::new(),
            group: AtomicU64::new(0),
        });
        budget.0.register(&sc);
        let mut s = Self {
            inner: Arc::new(Inner {
                dims,
                steps,
                paths,
                charges,
                max_charge,
                sc,
                budget: budget.clone(),
                range: Mutex::new(None),
                fault: Mutex::new(None),
            }),
            prefetch_depth: 0,
            worker: None,
        };
        s.set_prefetch(prefetch);
        Ok(s)
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
        let b = &self.inner.budget.0;
        let mut st = b.state.lock().unwrap();
        let old = self.inner.sc.group.swap(group, Ordering::Relaxed);
        if old == group {
            return;
        }
        let moved = self.inner.sc.cache.lock().unwrap().stats.resident_bytes;
        if moved > 0 {
            let og = st.group_mut(old);
            og.resident_bytes = og.resident_bytes.saturating_sub(moved);
            let ng = st.group_mut(group);
            ng.resident_bytes += moved;
            ng.hw_bytes = ng.hw_bytes.max(ng.resident_bytes + ng.inflight_bytes);
        }
    }

    /// The residency group this series is assigned to.
    pub fn residency_group(&self) -> u64 {
        self.inner.sc.group.load(Ordering::Relaxed)
    }

    /// Read-ahead depth in frames (`0` = prefetch disabled).
    pub fn prefetch_depth(&self) -> usize {
        self.prefetch_depth
    }

    /// Start (or stop, with `0`) the background read-ahead worker. Hints
    /// from `FrameSource::prefetch_hint` are clamped to `depth` frames.
    pub fn set_prefetch(&mut self, depth: usize) {
        if depth == self.prefetch_depth && (depth == 0) == self.worker.is_none() {
            return;
        }
        self.stop_worker();
        self.prefetch_depth = depth;
        if depth == 0 {
            return;
        }
        let inner = self.inner.clone();
        let (tx, rx) = mpsc::channel::<PrefetchMsg>();
        let handle = std::thread::Builder::new()
            .name("ifet-ooc-prefetch".into())
            .spawn(move || {
                while let Ok(PrefetchMsg::Batch(idxs, obs)) = rx.recv() {
                    let _obs = obs.enter();
                    for i in idxs {
                        inner.prefetch_frame(i);
                    }
                }
            })
            .expect("spawn prefetch worker");
        self.worker = Some(PrefetchWorker { tx, handle });
    }

    /// Queue read-ahead for `upcoming` frame indices (clamped to the
    /// configured depth). No-op when prefetch is disabled. Never blocks.
    pub fn request_prefetch(&self, upcoming: &[usize]) {
        let Some(w) = &self.worker else { return };
        let take = self.prefetch_depth.min(upcoming.len());
        if take == 0 {
            return;
        }
        let batch: Vec<usize> = upcoming[..take]
            .iter()
            .copied()
            .filter(|&i| i < self.inner.paths.len())
            .collect();
        if !batch.is_empty() {
            let _ = w.tx.send(PrefetchMsg::Batch(batch, ifet_obs::handle()));
        }
    }

    /// Install (or clear) a per-read fault hook. Test instrumentation for
    /// the chaos suite: lets a test delay or transiently fail individual
    /// read attempts on both the demand and prefetch paths.
    pub fn set_read_fault_hook(&self, hook: Option<ReadFaultHook>) {
        *self.inner.fault.lock().unwrap() = hook;
    }

    /// `(hits, misses)` so far (demand accesses only).
    pub fn cache_stats(&self) -> (u64, u64) {
        let c = self.inner.sc.cache.lock().unwrap();
        (c.stats.hits, c.stats.misses)
    }

    /// Full paging statistics. Per-series traffic counters plus the shared
    /// budget's high-water marks (which include in-flight reads).
    pub fn stats(&self) -> CacheStats {
        let b = self.inner.budget.stats();
        let c = self.inner.sc.cache.lock().unwrap();
        CacheStats {
            resident: c.map.len(),
            resident_high_water: b.high_water_frames,
            resident_high_water_bytes: b.high_water_bytes,
            ..c.stats
        }
    }

    /// Frames currently resident (this series).
    pub fn resident(&self) -> usize {
        self.inner.sc.cache.lock().unwrap().map.len()
    }

    /// Global `(min, max)` across all frames, computed by one streaming scan
    /// in ascending frame order and memoized.
    pub(crate) fn global_range_cached(&self) -> Result<(f32, f32), IoError> {
        if let Some(r) = *self.inner.range.lock().unwrap() {
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
        *self.inner.range.lock().unwrap() = Some(r);
        Ok(r)
    }

    /// Materialize the whole series in core (only for small data / tests).
    pub fn load_all(&self) -> Result<TimeSeries, IoError> {
        let mut frames = Vec::with_capacity(self.len());
        for (i, &t) in self.inner.steps.iter().enumerate() {
            frames.push((t, (*self.frame(i)?).clone()));
        }
        Ok(TimeSeries::from_frames(frames))
    }

    fn stop_worker(&mut self) {
        if let Some(w) = self.worker.take() {
            let _ = w.tx.send(PrefetchMsg::Stop);
            let _ = w.handle.join();
        }
    }
}

impl Drop for OutOfCoreSeries {
    fn drop(&mut self) {
        self.stop_worker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

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
        assert!(ooc.resident() <= 2, "resident {}", ooc.resident());
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
        let (hits, misses) = ooc.cache_stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 2);
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
        let (h0, _) = ooc.cache_stats();
        let _ = ooc.frame(0).unwrap(); // still resident -> hit
        let (h1, _) = ooc.cache_stats();
        assert_eq!(h1, h0 + 1);
        let (_, m0) = ooc.cache_stats();
        let _ = ooc.frame(1).unwrap(); // was evicted -> miss
        let (_, m1) = ooc.cache_stats();
        assert_eq!(m1, m0 + 1);
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
        let ooc = OutOfCoreSeries::create_with(&dir, "f", &s, &budget, 0).unwrap();
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
        let (h0, _) = ooc.cache_stats();
        let _ = ooc.frame(3).unwrap();
        let _ = ooc.frame(4).unwrap();
        let _ = ooc.frame(5).unwrap();
        let (h1, m) = ooc.cache_stats();
        assert_eq!(h1, h0 + 3, "frames 3..6 must all be hits");
        assert_eq!(m, 6);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sub_frame_byte_budget_still_makes_progress() {
        let dir = tmpdir("tiny");
        let s = sample_series();
        let budget = CacheBudgetHandle::bytes(FB / 2);
        let ooc = OutOfCoreSeries::create_with(&dir, "f", &s, &budget, 0).unwrap();
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
        let a = OutOfCoreSeries::create_with(&dir.join("a"), "f", &s, &budget, 0).unwrap();
        let b = OutOfCoreSeries::create_with(&dir.join("b"), "f", &s, &budget, 0).unwrap();
        let _ = a.frame(0).unwrap();
        let _ = a.frame(1).unwrap();
        assert_eq!(a.resident(), 2);
        // Loading into `b` must evict from `a`: the budget is global.
        let _ = b.frame(0).unwrap();
        assert_eq!(a.resident() + b.resident(), 2);
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
        let a = OutOfCoreSeries::create_with(&dir.join("a"), "f", &s, &budget, 0).unwrap();
        let b = OutOfCoreSeries::create_with(&dir.join("b"), "f", &s, &budget, 0).unwrap();
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
        assert_eq!(a.resident(), 2);
        assert_eq!(b.resident(), 2);
        assert_eq!(budget.group_stats(2).quota_evictions, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sub_frame_group_quota_still_makes_progress() {
        let dir = tmpdir("quotafloor");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(8);
        let a = OutOfCoreSeries::create_with(&dir, "f", &s, &budget, 0).unwrap();
        a.set_residency_group(1);
        budget.set_group_quota(1, Some(FB / 2));
        // The per-group single-frame floor: reads proceed, one frame at a
        // time, despite a quota smaller than any frame.
        for i in 0..6 {
            assert_eq!(a.frame(i).unwrap().as_slice()[0], i as f32);
        }
        assert!(budget.group_stats(1).high_water_bytes <= FB);
        assert_eq!(a.resident(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn eviction_prefers_idle_groups_over_active_ones() {
        let dir = tmpdir("idleevict");
        let s = sample_series();
        let budget = CacheBudgetHandle::frames(2);
        let a = OutOfCoreSeries::create_with(&dir.join("a"), "f", &s, &budget, 0).unwrap();
        let b = OutOfCoreSeries::create_with(&dir.join("b"), "f", &s, &budget, 0).unwrap();
        a.set_residency_group(1);
        b.set_residency_group(2);
        let _ = a.frame(0).unwrap(); // globally least recent
        let _ = b.frame(0).unwrap();
        // Group 1 is active, group 2 idle: the next eviction must take b's
        // frame even though a holds the global LRU.
        budget.group_enter(1);
        let _ = a.frame(1).unwrap();
        assert_eq!(a.resident(), 2, "active group kept its LRU frame");
        assert_eq!(b.resident(), 0, "idle group's frame was the victim");
        let bs = budget.stats();
        assert_eq!(bs.idle_evictions, 1, "the eviction was redirected");
        assert!(bs.high_water_frames <= 2, "the global bound still holds");
        // Once group 1 goes idle again, plain global LRU resumes: b's next
        // load takes a's oldest frame.
        budget.group_exit(1);
        let _ = b.frame(0).unwrap();
        assert_eq!(a.resident(), 1);
        assert_eq!(b.resident(), 1);
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
        let ooc = OutOfCoreSeries::create_with(&dir, "f", &s, &budget, 2).unwrap();
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
        let ooc = OutOfCoreSeries::create_with(&dir, "f", &s, &budget, 4).unwrap();
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
        let ooc = OutOfCoreSeries::create_with(&dir, "f", &s, &budget, 2).unwrap();
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
    fn global_range_cached_scans_once() {
        let dir = tmpdir("range");
        let s = sample_series();
        let ooc = OutOfCoreSeries::create(&dir, "f", &s, 1).unwrap();
        assert_eq!(ooc.global_range_cached().unwrap(), s.global_range());
        let (_, misses_before) = ooc.cache_stats();
        assert_eq!(ooc.global_range_cached().unwrap(), s.global_range());
        let (_, misses_after) = ooc.cache_stats();
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
        let ooc = OutOfCoreSeries::create_opts(&dir, "f", &s, &budget, 0, true).unwrap();
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
        let ooc = OutOfCoreSeries::create_opts(&dir, "f", &s, &budget, 0, true).unwrap();
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
        let ooc = OutOfCoreSeries::create_opts(&dir, "f", &s, &budget, 0, true).unwrap();
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
