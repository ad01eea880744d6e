//! The run's result line and the conditions it was measured under.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports: the result line's fields plus human-readable
/// notes printed above it.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Rejected + errored + wrong-output operations.
    pub failed: u64,
    /// False when an output check or an accuracy gate failed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The last line of standard output: `correct`, `attempted`, `failed`
    /// and `metrics`, each metric with every digit of its value. A
    /// non-finite value cannot be written as JSON and marks the run
    /// incorrect.
    pub fn result_line(&self) -> String {
        let mut correct = self.correct;
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The conditions a result was measured under: host cores, the effective
/// worker-thread count (`GRAMC_THREADS` or detected), enabled features,
/// source revision and seed.
pub fn conditions(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env_threads = std::env::var("GRAMC_THREADS").unwrap_or_default();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"threads\": {}, \"GRAMC_THREADS\": \"{env_threads}\", \
         \"parallel\": {}, \"features\": \"parallel,telemetry\", \"revision\": \"{}\"}}",
        gramc_linalg::parallel::max_threads(),
        gramc_linalg::parallel::feature_enabled(),
        revision()
    )
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a git checkout.
fn revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            let packed = read(".git/packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(r))?;
            Some(line.split_whitespace().next()?.to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome { attempted: 10, failed: 1, correct: true, ..Default::default() };
        o.metric("latency_p50_us", 146.25, "us");
        o.metric("setup_s", 0.5, "s");
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 146.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_metric_marks_the_run_incorrect() {
        let mut o = Outcome { attempted: 1, correct: true, ..Default::default() };
        o.metric("x", f64::NAN, "ms");
        assert!(o.result_line().starts_with("{\"correct\": false"));
    }
}
