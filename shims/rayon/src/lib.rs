//! Offline stand-in for `rayon`.
//!
//! The build environment cannot reach crates.io, so this crate implements
//! the slice of rayon's API the workspace actually uses on top of
//! `std::thread::scope`:
//!
//! - `par_iter()` / `into_par_iter()` / `par_chunks_mut()` producers,
//! - `map` / `enumerate` adaptors and `for_each` / `collect` terminals,
//! - [`ThreadPoolBuilder`] / [`ThreadPool::install`] with an explicit
//!   thread-count override, honoured by every parallel terminal.
//!
//! Terminals split the items into contiguous blocks, several per thread,
//! and spawned workers claim blocks one at a time from a shared cursor, so
//! a thread that draws the expensive items (the scanlines through a
//! feature, the slabs a feature fills) does not hold the others idle. The
//! calling thread runs no block when work fans out. `collect` preserves
//! input order.

#![allow(clippy::type_complexity)]

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod prelude;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`];
    /// 0 means "use the machine default".
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Number of threads parallel terminals will use on this thread.
pub fn current_num_threads() -> usize {
    let n = POOL_THREADS.with(|c| c.get());
    if n > 0 {
        n
    } else {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Run `op` with an explicit thread-count override (0 = default).
fn with_thread_override<R>(n: usize, op: impl FnOnce() -> R) -> R {
    let prev = POOL_THREADS.with(|c| c.replace(n));
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            POOL_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    op()
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type kept for signature compatibility; construction cannot fail.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// 0 means "default parallelism".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A handle carrying a thread-count policy. Threads are spawned scoped per
/// parallel terminal, so the pool itself holds no OS resources.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` so that parallel terminals inside it use this pool's
    /// thread count.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        with_thread_override(self.num_threads, op)
    }
}

/// Split `items` into at most `parts` contiguous chunks of near-equal size.
fn split_vec<T>(mut items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    // Walk from the back so split_off is O(chunk), keeping order overall.
    let mut sizes: Vec<usize> = (0..parts).map(|i| base + usize::from(i < extra)).collect();
    while let Some(size) = sizes.pop() {
        let tail = items.split_off(items.len() - size);
        out.push(tail);
    }
    out.reverse();
    out
}

/// A parallel pipeline: base items plus a per-item transform, executed by
/// the terminal operations. This is the single concrete type behind every
/// producer/adaptor in the shim.
pub struct Par<B, F> {
    base: Vec<B>,
    f: F,
}

/// Entry point used by the producers in [`prelude`].
fn par_from<B: Send>(base: Vec<B>) -> Par<B, impl Fn(B) -> B + Sync> {
    Par { base, f: |b| b }
}

impl<B, I, F> Par<B, F>
where
    B: Send,
    I: Send,
    F: Fn(B) -> I + Sync,
{
    pub fn map<U, G>(self, g: G) -> Par<B, impl Fn(B) -> U + Sync>
    where
        U: Send,
        G: Fn(I) -> U + Sync,
    {
        let f = self.f;
        Par {
            base: self.base,
            f: move |b| g(f(b)),
        }
    }

    pub fn enumerate(self) -> Par<(usize, B), impl Fn((usize, B)) -> (usize, I) + Sync> {
        let f = self.f;
        Par {
            base: self.base.into_iter().enumerate().collect(),
            f: move |(i, b)| (i, f(b)),
        }
    }

    pub fn for_each<G>(self, g: G)
    where
        G: Fn(I) + Sync,
    {
        let f = self.f;
        run_blocks(self.base, |block| block.into_iter().for_each(|b| g(f(b))));
    }

    /// Order-preserving collect.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<I>,
    {
        let f = self.f;
        let blocks = run_blocks(self.base, |block| {
            block.into_iter().map(&f).collect::<Vec<I>>()
        });
        blocks.into_iter().flatten().collect()
    }
}

/// Blocks per thread: enough that the thread drawing the most expensive
/// items does not decide the wall time alone, few enough that claiming
/// stays cheap.
const BLOCKS_PER_THREAD: usize = 8;

/// Execute `work` over contiguous blocks of `items` and return each block's
/// result in input order.
///
/// With more than one thread and more than one item, the items are split
/// into `min(n, BLOCKS_PER_THREAD × threads)` blocks and spawned workers
/// claim the next unclaimed block from a shared cursor until none are left;
/// the calling thread runs none of them. Otherwise the caller runs every
/// item itself as one block. Either way each item runs exactly once.
fn run_blocks<B: Send, R: Send>(items: Vec<B>, work: impl Fn(Vec<B>) -> R + Sync) -> Vec<R> {
    let threads = current_num_threads();
    if threads <= 1 || items.len() <= 1 {
        return vec![work(items)];
    }
    let blocks: Vec<Mutex<Option<Vec<B>>>> = split_vec(items, BLOCKS_PER_THREAD * threads)
        .into_iter()
        .map(|block| Mutex::new(Some(block)))
        .collect();
    let results: Vec<Mutex<Option<R>>> = blocks.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(blocks.len()) {
            s.spawn(|| {
                // `fetch_add` hands each index to one worker, so neither lock
                // is ever contended. `Relaxed` suffices: the cursor publishes
                // no data; items and results pass through the mutexes, and
                // the scope's join orders every result before the caller
                // reads it.
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(block) = blocks.get(i) else { break };
                    let items = block
                        .lock()
                        .expect("no lock is held across `work`")
                        .take()
                        .expect("each block is claimed once");
                    let out = work(items);
                    *results[i].lock().expect("no lock is held across `work`") = Some(out);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("no lock is held across `work`")
                .expect("every block runs")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    fn pool(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    /// Deliberately uneven work: every seventh item spins far longer.
    fn uneven_cost(i: usize) -> u64 {
        let spins = if i.is_multiple_of(7) { 20_000 } else { 50 };
        (0..spins).fold(i as u64, |acc, k| std::hint::black_box(acc ^ k))
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn chunks_mut_enumerate_for_each() {
        let mut data = vec![0u32; 64];
        data.par_chunks_mut(16).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v = i as u32;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[16], 1);
        assert_eq!(data[32], 2);
        assert_eq!(data[48], 3);
    }

    #[test]
    fn pool_install_overrides_thread_count() {
        assert_eq!(pool(3).install(current_num_threads), 3);
    }

    #[test]
    fn split_vec_covers_all() {
        let parts = split_vec((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(parts.len(), 3);
        let flat: Vec<_> = parts.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    /// A slow item holds up only its own block: item 0 waits for every item
    /// outside its block to finish, which the other worker must do on its
    /// own. With one fixed half per thread, items 4..32 queue behind item 0
    /// and the wait times out.
    #[test]
    fn slow_item_does_not_stall_the_rest() {
        const N: usize = 64;
        const THREADS: usize = 2;
        let outside = N - N / (BLOCKS_PER_THREAD * THREADS);
        let (tx, rx) = mpsc::sync_channel::<()>(1);
        let rx = Mutex::new(rx);
        let done = AtomicUsize::new(0);
        let out: Vec<usize> = pool(THREADS).install(|| {
            (0..N)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|i| {
                    if i == 0 {
                        rx.lock()
                            .unwrap()
                            .recv_timeout(Duration::from_secs(10))
                            .expect("item 0 waited 10 s: the other items were stalled behind it");
                    } else if i >= N - outside && done.fetch_add(1, Ordering::SeqCst) + 1 == outside
                    {
                        tx.send(()).unwrap();
                    }
                    i
                })
                .collect()
        });
        assert_eq!(out, (0..N).collect::<Vec<_>>());
    }

    /// `collect` keeps input order and `for_each` and `collect` run every
    /// item exactly once, whatever the item count, thread count and cost.
    #[test]
    fn every_item_runs_once_in_input_order() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for threads in [1usize, 2, 3, 8] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out: Vec<(usize, u64)> = pool(threads).install(|| {
                    (0..n)
                        .collect::<Vec<_>>()
                        .into_par_iter()
                        .map(|i| {
                            runs[i].fetch_add(1, Ordering::SeqCst);
                            (i, uneven_cost(i))
                        })
                        .collect()
                });
                let want: Vec<(usize, u64)> = (0..n).map(|i| (i, uneven_cost(i))).collect();
                assert_eq!(out, want, "n {n} threads {threads}");

                pool(threads).install(|| {
                    runs.par_iter().enumerate().for_each(|(i, r)| {
                        std::hint::black_box(uneven_cost(i));
                        r.fetch_add(1, Ordering::SeqCst);
                    })
                });
                for (i, r) in runs.iter().enumerate() {
                    assert_eq!(
                        r.load(Ordering::SeqCst),
                        2,
                        "item {i}, n {n} threads {threads}"
                    );
                }
            }
        }
    }

    /// Spans are live only on the calling thread, so whether it runs items
    /// must not depend on scheduling: it runs none when work fans out and
    /// all of them otherwise.
    #[test]
    fn caller_runs_items_only_without_fan_out() {
        let caller = thread::current().id();
        let ran_on = |threads: usize, n: usize| -> Vec<ThreadId> {
            pool(threads).install(|| {
                (0..n)
                    .collect::<Vec<_>>()
                    .into_par_iter()
                    .map(|_| thread::current().id())
                    .collect()
            })
        };
        for threads in [2usize, 3, 8] {
            for n in [2usize, 7, 64] {
                let ids = ran_on(threads, n);
                assert_eq!(ids.len(), n);
                assert!(
                    ids.iter().all(|&id| id != caller),
                    "threads {threads} n {n}"
                );
            }
            assert_eq!(ran_on(threads, 1), vec![caller]);
        }
        for n in [1usize, 7, 64] {
            assert_eq!(ran_on(1, n), vec![caller; n]);
        }
    }
}
