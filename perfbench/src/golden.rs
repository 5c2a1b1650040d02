//! The committed reference digests (`golden.txt`).
//!
//! Every job's [`job_digest`](mcd_bench::loadtest::job_digest) is recorded
//! for every target a seed can pick, so any seed's run is checked job by job;
//! the whole-list [`metrics_digest`](mcd_bench::loadtest::metrics_digest) in
//! canonical order is recorded for the default seed. Both sweep workloads
//! check against the same `sweep` entries, so their digests are equal by
//! construction whenever both pass.

use crate::jobs::{self, JobSpec};
use crate::measure::Workload;
use mcd_bench::loadtest::{job_digest, metrics_digest};
use mcd_dvfs::error::McdError;
use mcd_dvfs::evaluation::{BenchmarkEvaluation, EvaluationConfig};
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{EvalJob, Evaluator};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The committed file.
const GOLDEN: &str = include_str!("../golden.txt");

/// The seed whose whole-list digests are committed.
pub const DEFAULT_SEED: u64 = 0;

/// Which golden table a workload checks against.
fn set(workload: Workload) -> &'static str {
    match workload {
        Workload::TournamentCold => "tournament",
        _ => "sweep",
    }
}

/// The parsed golden file.
#[derive(Debug, Default)]
pub struct Golden {
    jobs: BTreeMap<(String, usize, usize), u64>,
    digests: BTreeMap<(String, u64), u64>,
}

impl Golden {
    /// Parses the committed file.
    pub fn committed() -> Result<Golden, McdError> {
        Golden::parse(GOLDEN)
    }

    fn parse(text: &str) -> Result<Golden, McdError> {
        let bad = |line: &str| McdError::InvalidConfig(format!("golden.txt: bad line {line:?}"));
        let hex = |s: &str, line: &str| u64::from_str_radix(s, 16).map_err(|_| bad(line));
        let mut golden = Golden::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["job", set, bench, target, digest] => {
                    let bench = bench.parse().map_err(|_| bad(line))?;
                    let target = target.parse().map_err(|_| bad(line))?;
                    golden
                        .jobs
                        .insert((set.to_string(), bench, target), hex(digest, line)?);
                }
                ["digest", set, seed, digest] => {
                    let seed = seed.parse().map_err(|_| bad(line))?;
                    golden
                        .digests
                        .insert((set.to_string(), seed), hex(digest, line)?);
                }
                _ => return Err(bad(line)),
            }
        }
        Ok(golden)
    }

    /// The committed digest of one job, if recorded.
    pub fn job(&self, workload: Workload, spec: &JobSpec) -> Option<u64> {
        self.jobs
            .get(&(set(workload).to_string(), spec.bench, spec.target))
            .copied()
    }

    /// The committed whole-list digest for `seed`, if recorded.
    pub fn digest(&self, workload: Workload, seed: u64) -> Option<u64> {
        self.digests
            .get(&(set(workload).to_string(), seed))
            .copied()
    }
}

/// Checks one run's evaluations (canonical order) against the goldens.
/// Returns the run's whole-list digest and every mismatch found.
pub fn check(
    golden: &Golden,
    workload: Workload,
    seed: u64,
    canonical: &[(&JobSpec, &BenchmarkEvaluation)],
) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    for (spec, eval) in canonical {
        let got = job_digest(eval);
        match golden.job(workload, spec) {
            Some(want) if want == got => {}
            Some(want) => problems.push(format!(
                "{} at {:.4}: job digest {got:016x}, committed {want:016x}",
                spec.name, spec.slowdown
            )),
            None => problems.push(format!(
                "{} at {:.4}: no committed job digest",
                spec.name, spec.slowdown
            )),
        }
    }
    let evals: Vec<BenchmarkEvaluation> = canonical.iter().map(|(_, e)| (*e).clone()).collect();
    let digest = metrics_digest(&evals);
    if let Some(want) = golden.digest(workload, seed) {
        if want != digest {
            problems.push(format!(
                "list digest {digest:016x}, committed {want:016x} for seed {seed}"
            ));
        }
    } else if seed == DEFAULT_SEED {
        problems.push(format!("no committed list digest for seed {seed}"));
    }
    (digest, problems)
}

/// Regenerates `golden.txt`: every sweep target of every stream benchmark
/// and every tournament benchmark, evaluated through the batched path with
/// the cache off, plus the default seed's whole-list digests.
pub fn regenerate() -> Result<String, McdError> {
    let threads = crate::measure::thread_budget();
    let mut out = String::from(
        "# Reference digests of the benchmark's jobs (see README.md, \"Correctness\").\n\
         # job <set> <benchmark index> <target index> <job digest>\n\
         # digest <set> <seed> <metrics digest of the seed's list in canonical order>\n\
         # Regenerate with `perfbench --write-golden` only alongside the program\n\
         # change that moves the results, and say why in CHANGES.md.\n",
    );
    let sweep = jobs::resolve(&jobs::SWEEP_BENCHMARKS)?;
    let evaluator = Evaluator::builder()
        .config(EvaluationConfig {
            parallelism: threads,
            ..EvaluationConfig::default()
        })
        .workers(threads)
        .build();
    let mut streams = Vec::new();
    for bench in &sweep {
        let members = (0..jobs::SWEEP_POINTS * jobs::CELL_STEPS)
            .map(|t| {
                EvalJob::new(bench.clone())
                    .with_slowdown(jobs::target_of(t))
                    .with_schemes([names::OFFLINE, names::PROFILE])
            })
            .collect();
        streams.push(evaluator.submit_batch(EvalJob::batch(members)?));
    }
    let mut by_target: BTreeMap<(usize, usize), BenchmarkEvaluation> = BTreeMap::new();
    for (b, stream) in streams.into_iter().enumerate() {
        for (t, eval) in stream.collect()?.into_iter().enumerate() {
            let digest = job_digest(&eval);
            writeln!(out, "job sweep {b} {t} {digest:016x}").expect("string write");
            by_target.insert((b, t), eval);
        }
    }

    let tournament = jobs::resolve(&jobs::TOURNAMENT_BENCHMARKS)?;
    let evaluator = Evaluator::builder()
        .config(EvaluationConfig {
            parallelism: threads,
            include_global: true,
            include_zoo: true,
            ..EvaluationConfig::default()
        })
        .workers(threads)
        .build();
    let mut tournament_by_target = BTreeMap::new();
    for t in 0..jobs::TOURNAMENT_TARGETS {
        let streams: Vec<_> = tournament
            .iter()
            .map(|bench| {
                let job = EvalJob::new(bench.clone()).with_slowdown(jobs::tournament_target_of(t));
                Ok(evaluator.submit_batch(EvalJob::batch(vec![job])?))
            })
            .collect::<Result<_, McdError>>()?;
        for (b, stream) in streams.into_iter().enumerate() {
            let eval = stream.collect()?.remove(0);
            tournament_by_target.insert((b, t), eval);
        }
    }
    for ((b, t), eval) in &tournament_by_target {
        writeln!(out, "job tournament {b} {t} {:016x}", job_digest(eval)).expect("string write");
    }

    // The default seed's list digest, folded from the evaluations above in
    // canonical order (benchmark, then target).
    let sweep_evals: Vec<BenchmarkEvaluation> = jobs::sweep_specs(DEFAULT_SEED, 0)
        .iter()
        .map(|s| ((s.bench, s.target), by_target[&(s.bench, s.target)].clone()))
        .collect::<BTreeMap<_, _>>()
        .into_values()
        .collect();
    writeln!(
        out,
        "digest sweep {DEFAULT_SEED} {:016x}",
        metrics_digest(&sweep_evals)
    )
    .expect("string write");
    let tournament_evals: Vec<BenchmarkEvaluation> = jobs::tournament_specs(DEFAULT_SEED)
        .iter()
        .map(|s| tournament_by_target[&(s.bench, s.target)].clone())
        .collect();
    writeln!(
        out,
        "digest tournament {DEFAULT_SEED} {:016x}",
        metrics_digest(&tournament_evals)
    )
    .expect("string write");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_file_covers_every_target_and_the_default_seed() {
        let golden = Golden::committed().unwrap();
        for spec in jobs::sweep_specs(DEFAULT_SEED, 0) {
            assert!(golden.job(Workload::SweepLanes, &spec).is_some());
        }
        for spec in jobs::tournament_specs(DEFAULT_SEED) {
            assert!(golden.job(Workload::TournamentCold, &spec).is_some());
        }
        for workload in Workload::ALL {
            assert!(golden.digest(workload, DEFAULT_SEED).is_some());
        }
        assert_eq!(
            golden.digest(Workload::SweepLanes, DEFAULT_SEED),
            golden.digest(Workload::SerialCached, DEFAULT_SEED),
            "the batched and lone paths share one committed digest"
        );
    }

    #[test]
    fn malformed_lines_are_refused() {
        assert!(Golden::parse("job sweep x 1 00").is_err());
        assert!(Golden::parse("job sweep 1 - 00").is_err());
        assert!(Golden::parse("digest sweep 0").is_err());
        assert!(Golden::parse("# only a comment\n").is_ok());
    }
}
