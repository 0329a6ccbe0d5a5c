//! Metric collection, the end-to-end metric set, and the result line.

use crate::stats;

/// Metrics in emission order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            !self.metrics.iter().any(|(n, _, _)| n == name),
            "metric {name} emitted twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One completed operation of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub latency_s: f64,
    pub ok: bool,
}

impl OpSample {
    pub fn new(latency_s: f64, ok: bool) -> Self {
        Self { latency_s, ok }
    }
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<OpSample>,
    /// Time spent inside timed operations (checks excluded).
    pub busy_s: f64,
}

impl Phase {
    pub fn ops(&self) -> usize {
        self.samples.len()
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// Ops per second of the whole phase.
    pub fn throughput(&self) -> f64 {
        stats::ratio(self.ops() as f64, self.busy_s)
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_s * 1e3).collect()
    }
}

/// A timed phase's ops, split by whether spans were recorded for them.
#[derive(Debug, Default)]
pub struct Measured {
    pub plain: Phase,
    pub traced: Phase,
}

impl Measured {
    pub fn ops(&self) -> usize {
        self.plain.ops() + self.traced.ops()
    }

    pub fn failed(&self) -> usize {
        self.plain.failed() + self.traced.failed()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak-RSS mark to the current RSS, so memory used before this
/// point (input checks, reference results) does not count.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The end-to-end metrics every workload emits.
pub fn end_to_end(r: &mut Report, setup_s: &[f64], ph: &Phase) {
    let lat = ph.latencies_ms();
    let (p50, tail, pct) = stats::latency_summary(&lat).unwrap_or((0.0, 0.0, 0.0));
    if pct < stats::TAIL_WANTED {
        eprintln!(
            "note: {} ops leave ten samples beyond p{pct:.1} only; latency_p90_ms reports p{pct:.1}",
            lat.len()
        );
    }
    r.put("setup_s", stats::median(setup_s).unwrap_or(0.0), "s");
    r.put("wall_s", ph.busy_s, "s");
    r.put("throughput_per_s", ph.throughput(), "1/s");
    r.put("latency_p50_ms", p50, "ms");
    r.put("latency_p90_ms", tail, "ms");
    r.put(
        "ok_ratio",
        stats::ratio((ph.ops() - ph.failed()) as f64, ph.ops() as f64),
        "ratio",
    );
    r.put("peak_rss_mb", peak_rss_mb(), "MB");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        r.put("latency_ms", 1.25, "ms");
        r.put("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn phase_ratios() {
        let ph = Phase {
            samples: vec![OpSample::new(0.1, true), OpSample::new(0.3, false)],
            busy_s: 0.5,
        };
        assert_eq!(ph.throughput(), 4.0);
        assert_eq!(ph.failed(), 1);
        assert_eq!(ph.latencies_ms(), vec![100.0, 300.0]);
        assert_eq!(Phase::default().throughput(), 0.0);
    }
}
