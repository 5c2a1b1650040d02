//! One measured pass of a workload, run in a process of its own so that its
//! peak memory and cold state belong to that pass alone: heap that earlier
//! passes left resident in the same process raised later passes' peaks by
//! 20–50 MB.
//!
//! The run starts the benchmark's own executable with `--pass <k> --threads
//! <n>`; the child runs pass `k` on `n` workers, checks it against the
//! goldens and prints a [`PassResult`] as text on standard output.

use crate::golden::{self, Golden};
use crate::measure::{Drain, Prepared, Workload};
use crate::report;
use mcd_dvfs::error::McdError;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// What one pass reports back to the run.
#[derive(Debug, Clone, PartialEq)]
pub struct PassResult {
    /// First submission to last terminal event, in seconds.
    pub wall_s: f64,
    /// Σ over jobs and schemes of the reference-trace instructions.
    pub evaluated_instructions: u64,
    /// Jobs submitted.
    pub attempted: usize,
    /// Jobs that failed or were refused.
    pub failed: usize,
    /// The list digest in canonical order.
    pub digest: u64,
    /// `sim_target_miss_pp` of the pass.
    pub target_miss_pp: f64,
    /// `sim_energy_delay_gain_pct` of the pass.
    pub energy_delay_gain_pct: f64,
    /// Peak resident set of the pass's process, in MB.
    pub peak_rss_mb: f64,
    /// Per-job latency (submission to terminal event), in seconds.
    pub latencies: Vec<f64>,
    /// Correctness problems found in the pass.
    pub problems: Vec<String>,
}

impl PassResult {
    /// Runs pass `pass` of the workload on `threads` workers in this process
    /// (the child's side).
    pub fn measure(
        workload: Workload,
        seed: u64,
        pass: u64,
        threads: usize,
        golden: &Golden,
        cache_dir: Option<PathBuf>,
    ) -> Result<PassResult, McdError> {
        // A one-worker pass measures memory: its streams are drained in turn
        // so that only two threads allocate, which keeps the allocator's
        // layout, and so the peak, the same from run to run.
        let how = if threads == 1 {
            Drain::InTurn
        } else {
            Drain::Timed
        };
        let outcome =
            Prepared::new(workload, seed, pass, threads, cache_dir.as_deref())?.run(how)?;
        outcome.remove_cache();
        let mut problems = Vec::new();
        for (spec, job) in outcome.specs.iter().zip(&outcome.jobs) {
            if let Some(error) = &job.error {
                problems.push(format!("{} at {:.4}: {error}", spec.name, spec.slowdown));
            }
        }
        let (digest, mismatches) = golden::check(golden, workload, seed, &outcome.canonical());
        problems.extend(mismatches);
        // Its streams drained in turn, a one-worker pass's latencies are exact
        // only if the jobs ran one after the other in submission order.
        if threads == 1 && workload.times_one_worker() && !outcome.started_in_submission_order() {
            problems.push("one-worker pass did not run its jobs in submission order".into());
        }
        Ok(PassResult {
            wall_s: outcome.wall.as_secs_f64(),
            evaluated_instructions: outcome.evaluated_instructions(),
            attempted: outcome.jobs.len(),
            failed: outcome.failed(),
            digest,
            target_miss_pp: outcome.target_miss_pp(),
            energy_delay_gain_pct: outcome.energy_delay_gain_pct(),
            peak_rss_mb: report::peak_rss_mb(),
            latencies: outcome.latencies(),
            problems,
        })
    }

    /// Runs pass `pass` on `threads` workers in a child process of this
    /// executable and waits for it (the run's side). The child's standard
    /// error passes through.
    pub fn in_child(
        workload: Workload,
        seed: u64,
        pass: u64,
        threads: usize,
    ) -> Result<PassResult, McdError> {
        let exe = std::env::current_exe()
            .map_err(|e| McdError::InvalidConfig(format!("own executable: {e}")))?;
        let output = Command::new(exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--pass", &pass.to_string()])
            .args(["--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| McdError::InvalidConfig(format!("pass process: {e}")))?;
        if !output.status.success() {
            return Err(McdError::InvalidConfig(format!(
                "pass {pass} process ended with {}",
                output.status
            )));
        }
        PassResult::parse(&String::from_utf8_lossy(&output.stdout))
    }

    /// The text the child prints: one `key value…` line per field, problems
    /// last (a problem is free text to the end of its line).
    pub fn to_text(&self) -> String {
        let latencies: Vec<String> = self.latencies.iter().map(|v| v.to_string()).collect();
        let mut text = format!(
            "wall_s {}\nevaluated_instructions {}\nattempted {}\nfailed {}\ndigest {:016x}\n\
             target_miss_pp {}\nenergy_delay_gain_pct {}\npeak_rss_mb {}\nlatencies {}\n",
            self.wall_s,
            self.evaluated_instructions,
            self.attempted,
            self.failed,
            self.digest,
            self.target_miss_pp,
            self.energy_delay_gain_pct,
            self.peak_rss_mb,
            latencies.join(" ")
        );
        for problem in &self.problems {
            text.push_str(&format!("problem {}\n", problem.replace('\n', " ")));
        }
        text
    }

    /// Parses [`PassResult::to_text`].
    pub fn parse(text: &str) -> Result<PassResult, McdError> {
        let bad = |what: &str| McdError::InvalidConfig(format!("pass output: bad {what}"));
        let mut fields = std::collections::HashMap::new();
        let mut problems = Vec::new();
        for line in text.lines() {
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            if key == "problem" {
                problems.push(value.to_string());
            } else {
                fields.insert(key, value);
            }
        }
        let field = |key: &str| fields.get(key).copied().ok_or_else(|| bad(key));
        let float = |key: &str| field(key)?.parse::<f64>().map_err(|_| bad(key));
        let whole = |key: &str| field(key)?.parse::<u64>().map_err(|_| bad(key));
        Ok(PassResult {
            wall_s: float("wall_s")?,
            evaluated_instructions: whole("evaluated_instructions")?,
            attempted: whole("attempted")? as usize,
            failed: whole("failed")? as usize,
            digest: u64::from_str_radix(field("digest")?, 16).map_err(|_| bad("digest"))?,
            target_miss_pp: float("target_miss_pp")?,
            energy_delay_gain_pct: float("energy_delay_gain_pct")?,
            peak_rss_mb: float("peak_rss_mb")?,
            latencies: field("latencies")?
                .split_whitespace()
                .map(|v| v.parse::<f64>().map_err(|_| bad("latencies")))
                .collect::<Result<_, _>>()?,
            problems,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trips_exactly() {
        let result = PassResult {
            wall_s: 7.123456789012345,
            evaluated_instructions: 31_415_926_535,
            attempted: 102,
            failed: 1,
            digest: 0xbbda372f1e8d0ba9,
            target_miss_pp: 15.555973123,
            energy_delay_gain_pct: 17.2,
            peak_rss_mb: 93.43359375,
            latencies: vec![0.5, 1.0 / 3.0, 6.25],
            problems: vec!["kv store at 0.0200: failed".into(), "second".into()],
        };
        assert_eq!(PassResult::parse(&result.to_text()).unwrap(), result);
    }

    #[test]
    fn missing_fields_are_refused() {
        assert!(PassResult::parse("wall_s 1.0\n").is_err());
    }
}
