//! The run's report: the one-line JSON result and the detail line before it.

use crate::measure::Workload;

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric. Non-finite values are reported as zero (and flagged by
    /// the caller's correctness checks where they matter).
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }
}

/// Everything one run prints.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Passes of the job list measured.
    pub passes: usize,
    /// Jobs submitted across all passes.
    pub attempted: usize,
    /// Jobs that failed or were refused.
    pub failed: usize,
    /// Job-latency samples per pass.
    pub latency_samples: usize,
    /// The list digest in canonical order.
    pub digest: Option<u64>,
    /// Auxiliary figures (no bound): calibration, sample counts.
    pub aux: Vec<(&'static str, f64)>,
    /// The metrics of the result line.
    pub metrics: Metrics,
    /// Correctness problems found; empty on a correct run.
    pub problems: Vec<String>,
    /// Whether every check passed (set by [`Report::finish`]).
    pub correct: bool,
}

impl Report {
    /// An empty report.
    pub fn new(workload: Workload, seed: u64) -> Report {
        Report {
            workload,
            seed,
            passes: 0,
            attempted: 0,
            failed: 0,
            latency_samples: 0,
            digest: None,
            aux: Vec::new(),
            metrics: Metrics::default(),
            problems: Vec::new(),
            correct: false,
        }
    }

    /// Settles `correct` from the problems found.
    pub fn finish(&mut self) {
        if self.failed > 0 && self.problems.is_empty() {
            self.problems.push(format!("{} jobs failed", self.failed));
        }
        self.correct = self.problems.is_empty() && self.attempted > 0;
    }

    /// The detail line printed before the result: workload, seed, digest,
    /// sample counts and the auxiliary figures.
    pub fn detail_line(&self) -> String {
        let mut fields = vec![
            format!("\"workload\": \"{}\"", self.workload.name()),
            format!("\"seed\": {}", self.seed),
            format!("\"passes\": {}", self.passes),
            format!("\"latency_samples\": {}", self.latency_samples),
            format!(
                "\"error_rate\": {}",
                self.failed as f64 / self.attempted.max(1) as f64
            ),
        ];
        if let Some(digest) = self.digest {
            fields.push(format!("\"digest\": \"{digest:016x}\""));
        }
        for (name, value) in &self.aux {
            fields.push(format!("\"{name}\": {}", number(*value)));
        }
        format!("{{\"detail\": {{{}}}}}", fields.join(", "))
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn number(value: f64) -> String {
    if !value.is_finite() {
        return "0".into();
    }
    let text = format!("{value}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; zero where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::new(Workload::SweepLanes, 3);
        report.attempted = 2;
        report.metrics.push("setup_s", 0.25, "s");
        report.finish();
        assert_eq!(
            report.result_line(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.0), "1.0");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "0");
    }
}
