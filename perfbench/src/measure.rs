//! One untraced pass of a workload through the evaluation service, observed
//! only through its public event stream.

use crate::jobs::{self, JobSpec};
use mcd_dvfs::artifact::{ArtifactCache, CacheStats};
use mcd_dvfs::error::McdError;
use mcd_dvfs::evaluation::{BenchmarkEvaluation, EvaluationConfig};
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{BatchStats, EvalEvent, EvalJob, Evaluator, MemoStats, ResultStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Three stream benchmarks, each one `EvalJob::batch`, cache off.
    SweepLanes,
    /// Twelve benchmarks × the full registry, one single-member batch each,
    /// cache off.
    TournamentCold,
    /// The sweep job list as lone jobs against a fresh artifact cache.
    SerialCached,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SweepLanes,
        Workload::TournamentCold,
        Workload::SerialCached,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepLanes => "sweep_lanes",
            Workload::TournamentCold => "tournament_cold",
            Workload::SerialCached => "serial_cached",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark names the workload's specs index into.
    pub fn benchmark_names(self) -> &'static [&'static str] {
        match self {
            Workload::TournamentCold => &jobs::TOURNAMENT_BENCHMARKS,
            _ => &jobs::SWEEP_BENCHMARKS,
        }
    }

    /// The seeded job list of one pass.
    pub fn specs(self, seed: u64, pass: u64) -> Vec<JobSpec> {
        match self {
            Workload::TournamentCold => jobs::tournament_specs(seed),
            _ => jobs::sweep_specs(seed, pass),
        }
    }

    /// Whether the workload's jobs run every registered scheme.
    pub fn full_registry(self) -> bool {
        self == Workload::TournamentCold
    }

    /// Whether the workload's timed passes run on one worker. On
    /// `tournament_cold`, twelve unequal jobs on two workers finish in an
    /// order that depends on which heavy jobs happen to overlap, which moved
    /// a pass's wall time by ±12% within one run; on one worker the jobs run
    /// in submission order, and every pass, the memory pass too, is timed.
    pub fn times_one_worker(self) -> bool {
        self == Workload::TournamentCold
    }

    /// Evaluator workers of the workload's timed passes.
    pub fn timed_workers(self) -> usize {
        if self.times_one_worker() {
            1
        } else {
            thread_budget()
        }
    }
}

/// The evaluator thread budget: at most two, never more than the host has.
pub fn thread_budget() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// How [`Prepared::run`] drains the result streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drain {
    /// One receiving thread per stream; latencies are exact.
    Timed,
    /// Stream after stream on the calling thread.
    InTurn,
}

/// Everything built before the first submission.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The generated job list, in submission order.
    pub specs: Vec<JobSpec>,
    /// The service jobs, grouped into submissions (one group per
    /// `submit_batch`, or a single group for `submit_all`).
    submissions: Vec<Vec<EvalJob>>,
    /// Spec index of every job, per submission, in submission order.
    pub submitted: Vec<Vec<usize>>,
    /// The evaluator.
    pub evaluator: Evaluator,
    /// The artifact cache (disabled except on `serial_cached`).
    pub cache: Arc<ArtifactCache>,
    cache_dir: Option<PathBuf>,
}

impl Prepared {
    /// Builds the job list, the evaluator with `threads` workers (each
    /// simulating on one thread) and, on `serial_cached`, a fresh empty
    /// cache directory `cache_dir`: the workload's set-up.
    pub fn new(
        workload: Workload,
        seed: u64,
        pass: u64,
        threads: usize,
        cache_dir: Option<&Path>,
    ) -> Result<Prepared, McdError> {
        let specs = workload.specs(seed, pass);
        let benches = jobs::resolve(workload.benchmark_names())?;
        let cache = match (workload, cache_dir) {
            (Workload::SerialCached, Some(dir)) => {
                if dir.exists() {
                    std::fs::remove_dir_all(dir).map_err(|e| io_error(dir, e))?;
                }
                std::fs::create_dir_all(dir).map_err(|e| io_error(dir, e))?;
                Arc::new(ArtifactCache::new(dir))
            }
            (Workload::SerialCached, None) => {
                return Err(McdError::InvalidConfig(
                    "serial_cached needs a cache directory".into(),
                ))
            }
            _ => Arc::new(ArtifactCache::disabled()),
        };
        let config = EvaluationConfig {
            parallelism: threads,
            include_global: workload.full_registry(),
            include_zoo: workload.full_registry(),
            ..EvaluationConfig::default()
        }
        .with_cache(Arc::clone(&cache));
        let evaluator = Evaluator::builder().config(config).workers(threads).build();
        let job = |i: usize| {
            let spec = &specs[i];
            let bench = &benches[spec.bench];
            if workload.full_registry() {
                jobs::tournament_job(spec, bench)
            } else {
                jobs::sweep_job(spec, bench)
            }
        };
        let submitted: Vec<Vec<usize>> = match workload {
            // One batch per stream benchmark, cheapest first; members in the
            // pass's list order.
            Workload::SweepLanes => jobs::SWEEP_BATCH_ORDER
                .iter()
                .map(|&b| (0..specs.len()).filter(|&i| specs[i].bench == b).collect())
                .collect(),
            // One single-member batch per benchmark, as `tournament` submits.
            Workload::TournamentCold => (0..specs.len()).map(|i| vec![i]).collect(),
            // Every job on its own, in the seeded order.
            Workload::SerialCached => vec![(0..specs.len()).collect()],
        };
        let submissions = submitted
            .iter()
            .map(|group| group.iter().map(|&i| job(i)).collect())
            .collect();
        Ok(Prepared {
            workload,
            specs,
            submissions,
            submitted,
            evaluator,
            cache,
            cache_dir: cache_dir.map(Path::to_path_buf),
        })
    }

    /// Submits every job at once (closed loop, one client) and drains the
    /// streams. With `Drain::Timed`, one receiving thread per stream, so each
    /// terminal event is timed when it arrives; with `Drain::InTurn`, the
    /// streams one after the other on this thread, so that only it and the
    /// workers allocate (the latencies are then not meaningful).
    pub fn run(mut self, how: Drain) -> Result<RunOutcome, McdError> {
        let batched = self.workload != Workload::SerialCached;
        let start = Instant::now();
        let mut streams = Vec::with_capacity(self.submissions.len());
        for jobs in std::mem::take(&mut self.submissions) {
            streams.push(if batched {
                self.evaluator.submit_batch(EvalJob::batch(jobs)?)
            } else {
                self.evaluator.submit_all(jobs)
            });
        }
        let drained: Vec<Vec<Observed>> = match how {
            Drain::Timed => std::thread::scope(|scope| {
                let handles: Vec<_> = streams
                    .into_iter()
                    .map(|stream| scope.spawn(move || drain(stream, start)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("stream drain thread panicked"))
                    .collect()
            }),
            Drain::InTurn => streams.into_iter().map(|s| drain(s, start)).collect(),
        };
        let wall = start.elapsed();
        let memo = self.evaluator.memo_stats();
        let batch = self.evaluator.batch_stats();
        let workers = self.evaluator.workers();
        drop(self.evaluator);
        let cache_stats = self.cache.stats();
        let mut jobs: Vec<Option<Observed>> = vec![None; self.specs.len()];
        for (group, observed) in self.submitted.iter().zip(drained) {
            for (&spec, obs) in group.iter().zip(observed) {
                jobs[spec] = Some(obs);
            }
        }
        let jobs = jobs
            .into_iter()
            .map(|o| o.expect("every submitted job is observed"))
            .collect();
        Ok(RunOutcome {
            workload: self.workload,
            specs: self.specs,
            submitted: self.submitted,
            cache_dir: self.cache_dir,
            jobs,
            wall,
            memo,
            batch,
            cache: cache_stats,
            workers,
        })
    }

    /// Tears the set-up down without running it.
    pub fn discard(self) {
        let dir = self.cache_dir.clone();
        drop(self);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn io_error(dir: &Path, e: std::io::Error) -> McdError {
    McdError::InvalidConfig(format!("{}: {e}", dir.display()))
}

/// One job as the stream showed it.
#[derive(Debug, Clone)]
pub struct Observed {
    /// Time from the first submission to the worker picking the job up.
    pub started: Duration,
    /// Time from the first submission to the job's terminal event.
    pub finished: Duration,
    /// Time the job waited in the queue.
    pub queued_for: Duration,
    /// The evaluation, when the job completed.
    pub evaluation: Option<BenchmarkEvaluation>,
    /// The error or rejection, when it did not.
    pub error: Option<String>,
}

/// Drains one stream, returning its jobs in the stream's submission order.
fn drain(stream: ResultStream, start: Instant) -> Vec<Observed> {
    let ids = stream.jobs().to_vec();
    let mut observed: Vec<Observed> = vec![
        Observed {
            started: Duration::ZERO,
            finished: Duration::ZERO,
            queued_for: Duration::ZERO,
            evaluation: None,
            error: Some("no terminal event".into()),
        };
        ids.len()
    ];
    let slot = |job| ids.iter().position(|&id| id == job).expect("own job");
    for event in stream {
        let now = start.elapsed();
        let i = slot(event.job());
        match event {
            EvalEvent::JobStarted { queued_for, .. } => {
                observed[i].queued_for = queued_for;
                observed[i].started = now;
            }
            EvalEvent::JobCompleted { evaluation, .. } => {
                observed[i].finished = now;
                observed[i].evaluation = Some(evaluation);
                observed[i].error = None;
            }
            EvalEvent::JobFailed { error, .. } => {
                observed[i].finished = now;
                observed[i].error = Some(error.to_string());
            }
            EvalEvent::JobRejected { reason, .. } => {
                observed[i].finished = now;
                observed[i].error = Some(format!("rejected: {reason}"));
            }
            _ => {}
        }
    }
    observed
}

/// The result of one pass.
#[derive(Debug)]
pub struct RunOutcome {
    /// The workload.
    pub workload: Workload,
    /// The job list, in submission order.
    pub specs: Vec<JobSpec>,
    /// Spec indices per submission.
    pub submitted: Vec<Vec<usize>>,
    /// The pass's artifact-cache directory, kept until
    /// [`RunOutcome::remove_cache`].
    pub cache_dir: Option<PathBuf>,
    /// Per spec, what the stream showed.
    pub jobs: Vec<Observed>,
    /// First submission to last terminal event.
    pub wall: Duration,
    /// Baseline-memo counters.
    pub memo: MemoStats,
    /// Batched-execution counters.
    pub batch: BatchStats,
    /// Artifact-cache counters.
    pub cache: CacheStats,
    /// Evaluator worker threads.
    pub workers: usize,
}

impl RunOutcome {
    /// Jobs that did not complete (failed or refused).
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.evaluation.is_none()).count()
    }

    /// Evaluated instructions: Σ over jobs and schemes of the reference-trace
    /// instructions.
    pub fn evaluated_instructions(&self) -> u64 {
        self.jobs
            .iter()
            .filter_map(|j| j.evaluation.as_ref())
            .map(|e| e.baseline.instructions * e.schemes.len() as u64)
            .sum()
    }

    /// Per-job latency (submission to terminal event), in seconds.
    pub fn latencies(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.finished.as_secs_f64()).collect()
    }

    /// Whether the service started the jobs in submission order, judged by
    /// the queue wait each `JobStarted` reports (the receive times cannot
    /// tell when the streams are drained in turn).
    pub fn started_in_submission_order(&self) -> bool {
        let order: Vec<Duration> = self
            .submitted
            .iter()
            .flatten()
            .map(|&i| self.jobs[i].queued_for)
            .collect();
        order.windows(2).all(|w| w[1] >= w[0])
    }

    /// The evaluations in canonical order (benchmark, then target).
    pub fn canonical(&self) -> Vec<(&JobSpec, &BenchmarkEvaluation)> {
        jobs::canonical_order(&self.specs)
            .into_iter()
            .filter_map(|i| Some((&self.specs[i], self.jobs[i].evaluation.as_ref()?)))
            .collect()
    }

    /// Mean |achieved − target| slowdown over the off-line and profile
    /// results, in percentage points (simulated).
    pub fn target_miss_pp(&self) -> f64 {
        let mut misses = Vec::new();
        for (spec, eval) in self.canonical() {
            for outcome in &eval.schemes {
                if outcome.name == names::OFFLINE || outcome.name == names::PROFILE {
                    let achieved = outcome.result.metrics.performance_degradation;
                    misses.push((achieved - spec.slowdown).abs() * 100.0);
                }
            }
        }
        mean(&misses)
    }

    /// Mean energy·delay improvement over the MCD baseline across every
    /// scheme result, in percent (simulated).
    pub fn energy_delay_gain_pct(&self) -> f64 {
        let gains: Vec<f64> = self
            .canonical()
            .into_iter()
            .flat_map(|(_, eval)| eval.schemes.iter())
            .map(|o| o.result.metrics.energy_delay_improvement * 100.0)
            .collect();
        mean(&gains)
    }

    /// Deletes the pass's artifact-cache directory, if it had one.
    pub fn remove_cache(&self) {
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Σ over queue entries of the time a worker spent on them: a batch is
    /// one entry from its first member's start to its last member's end.
    pub fn busy_worker_seconds(&self) -> f64 {
        if self.workload != Workload::SerialCached {
            self.submitted
                .iter()
                .map(|group| {
                    let start = group.iter().map(|&i| self.jobs[i].started).min();
                    let end = group.iter().map(|&i| self.jobs[i].finished).max();
                    match (start, end) {
                        (Some(s), Some(e)) => e.saturating_sub(s).as_secs_f64(),
                        _ => 0.0,
                    }
                })
                .sum()
        } else {
            self.jobs
                .iter()
                .map(|j| j.finished.saturating_sub(j.started).as_secs_f64())
                .sum()
        }
    }
}

/// Arithmetic mean (zero for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile of a non-empty sample set.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    mcd_bench::loadtest::percentile(&sorted, q)
}

/// Median of a non-empty sample set.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
