//! Shared helpers for the figure-reproduction binaries and benches.
//!
//! Every table and figure of the paper's evaluation has a `figN`/`perf`/
//! `ablate` binary in `src/bin/` that regenerates its data series; run them
//! with `cargo run --release -p ifet-bench --bin <name>`. Timing rows come
//! from the Criterion benches in `benches/`.

#![forbid(unsafe_code)]

use std::time::Instant;

/// Time a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Print a Markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a Markdown-style table header with separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Format an f64 with 3 decimals (negative zero normalized).
pub fn f3(v: f64) -> String {
    let v = if v == 0.0 { 0.0 } else { v };
    format!("{v:.3}")
}

/// The standard "smaller grid when quick" switch: `IFET_QUICK=1` shrinks
/// workloads so figure bins finish in seconds (CI mode). Default: full size.
pub fn quick() -> bool {
    std::env::var("IFET_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_result() {
        let (v, s) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(0.12349), "0.123");
    }
}
