//! Per-time-step parallel processing.
//!
//! The paper's conclusion: "the processing of each time step is completely
//! independent of other time steps, it is feasible and desirable to employ a
//! large PC cluster to conduct the final feature extraction and rendering
//! concurrently." On a single machine the same independence lets frames fan
//! out across a thread pool ([`ifet_volume::map_frames_windowed`] run inside
//! one of the cached pools below); the scaling bench measures exactly this.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A process-wide pool per thread count, built on first use.
///
/// Scaling studies and the `--threads` CLI knob request the same counts over
/// and over; spawning a fresh pool's worth of OS threads per call dominates
/// small per-frame workloads, so pools are cached for the process lifetime.
/// `threads == 0` (rayon's default sizing) is also cached under its own key.
pub fn pool_with_threads(threads: usize) -> Arc<rayon::ThreadPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<rayon::ThreadPool>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = pools.lock().expect("thread-pool cache poisoned");
    Arc::clone(map.entry(threads).or_insert_with(|| {
        Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("failed to build thread pool"),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifet_volume::{map_frames_windowed, Dims3, ScalarVolume, TimeSeries};

    /// The windowed fan-out of `f` over `series` on the cached pool for
    /// `threads`.
    fn map_frames_with_threads<T: Send>(
        series: &TimeSeries,
        threads: usize,
        f: impl Fn(u32, &ScalarVolume) -> T + Sync + Send,
    ) -> Vec<T> {
        pool_with_threads(threads)
            .install(|| map_frames_windowed(series, |_, t, frame| f(t, frame)))
            .unwrap()
    }

    /// Sequential oracle for the parallel fan-out.
    fn map_frames_sequential<T>(
        series: &TimeSeries,
        f: impl Fn(u32, &ScalarVolume) -> T,
    ) -> Vec<T> {
        series
            .steps()
            .iter()
            .enumerate()
            .map(|(i, &t)| f(t, series.frame(i)))
            .collect()
    }

    fn series(n_frames: usize) -> TimeSeries {
        let d = Dims3::cube(8);
        TimeSeries::from_frames(
            (0..n_frames)
                .map(|k| (k as u32, ScalarVolume::filled(d, k as f32)))
                .collect(),
        )
    }

    #[test]
    fn parallel_matches_sequential() {
        let s = series(6);
        let f = |t: u32, frame: &ScalarVolume| (t, frame.mean());
        assert_eq!(
            map_frames_with_threads(&s, 2, f),
            map_frames_sequential(&s, f)
        );
    }

    #[test]
    fn order_is_preserved() {
        let s = series(9);
        let out = map_frames_with_threads(&s, 2, |t, _| t);
        assert_eq!(out, (0..9).collect::<Vec<u32>>());
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let s = series(5);
        let f = |_t: u32, frame: &ScalarVolume| frame.sum();
        let one = map_frames_with_threads(&s, 1, f);
        let four = map_frames_with_threads(&s, 4, f);
        let default = map_frames_with_threads(&s, 0, f);
        assert_eq!(one, four);
        assert_eq!(one, default);
    }

    #[test]
    fn pools_are_cached_per_count() {
        let a = pool_with_threads(2);
        let b = pool_with_threads(2);
        assert!(Arc::ptr_eq(&a, &b), "same count must reuse the pool");
        let c = pool_with_threads(3);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
