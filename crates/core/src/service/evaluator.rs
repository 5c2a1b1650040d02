//! The long-lived evaluation service: worker pool, baseline memo, submission.

use crate::error::McdError;
use crate::evaluation::{BenchmarkEvaluation, EvaluationConfig};
use crate::fault::{FaultPlan, FaultSite, InjectedPanic};
use crate::scheme::{BatchPool, DvfsScheme, Lane, SchemeContext};
use crate::service::job::{EvalBatch, EvalJob, JobId};
use crate::service::scheduler::{PushOutcome, ShardedScheduler, TokenBucket};
use crate::service::stream::{EvalEvent, ResultStream};
use mcd_sim::config::MachineConfig;
use mcd_sim::fingerprint::{Fingerprint, Fnv1a};
use mcd_sim::simulator::{NullHooks, SimHooks, Simulator};
use mcd_sim::stats::SimStats;
use mcd_sim::trace::PackedTrace;
use mcd_sim::BatchedSimulator;
use mcd_workloads::generator::generate_packed;
use mcd_workloads::suite::Benchmark;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why admission control turned a submission away. Carried by
/// [`EvalEvent::JobRejected`] and [`Admission::Rejected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Admitting the submission would push the queue past its configured
    /// capacity (in jobs). Retry after draining some of the backlog.
    QueueFull {
        /// Queue depth (jobs) at the time of the rejection.
        depth: usize,
        /// The configured bound it would have exceeded.
        capacity: usize,
    },
    /// The token-bucket rate limiter ran dry. Retry after backing off.
    RateLimited,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { depth, capacity } => {
                write!(f, "queue full ({depth} of {capacity} jobs queued)")
            }
            RejectReason::RateLimited => write!(f, "submission rate limit exceeded"),
        }
    }
}

/// The per-job outcome of a capacity-checked submission
/// ([`Evaluator::try_submit_all`] / [`Evaluator::try_submit_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The job was accepted and enqueued.
    Queued {
        /// The job's identity.
        job: JobId,
        /// Queue depth (jobs) just after the job was enqueued.
        depth: usize,
    },
    /// The job was turned away; its stream carries the matching terminal
    /// [`EvalEvent::JobRejected`] and nothing else.
    Rejected {
        /// The job's identity.
        job: JobId,
        /// Why it was turned away.
        reason: RejectReason,
    },
}

impl Admission {
    /// The job this outcome is about.
    pub fn job(&self) -> JobId {
        match self {
            Admission::Queued { job, .. } | Admission::Rejected { job, .. } => *job,
        }
    }

    /// True when the job was accepted.
    pub fn is_queued(&self) -> bool {
        matches!(self, Admission::Queued { .. })
    }
}

/// Counters of the admission front-end, one increment per job (a rejected
/// batch counts each member).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Jobs accepted through the capacity-checked entry points.
    pub accepted: u64,
    /// Jobs rejected because the queue was at capacity.
    pub rejected_queue_full: u64,
    /// Jobs rejected by the rate limiter.
    pub rejected_rate_limited: u64,
}

impl AdmissionStats {
    /// Total rejected jobs across both reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_rate_limited
    }
}

/// Counters of the evaluator's baseline memo.
///
/// A *miss* is a `(benchmark, machine)` pair whose reference trace and
/// full-speed baseline had to be computed; a *hit* is a job that reused them.
/// After a sweep of `n` configurations over `b` benchmarks, `misses == b` and
/// `hits == (n - 1) * b` — each pair was computed exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Jobs served from the memo.
    pub hits: u64,
    /// Jobs that computed (and memoized) their baseline.
    pub misses: u64,
}

impl MemoStats {
    /// Total baseline lookups (one per processed job).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The memoized per-`(benchmark, machine)` artifacts every job on that pair
/// shares: the reference trace and the full-speed MCD baseline statistics.
#[derive(Debug)]
struct BaselineArtifacts {
    trace: PackedTrace,
    baseline: SimStats,
}

/// Counters of batched execution, populated by
/// [`Evaluator::submit_batch`](crate::service::Evaluator::submit_batch).
///
/// After a cold 10-point batch over one benchmark running offline + profile,
/// expect `groups == 1`, `members == 10`, `baselines_computed == 1`,
/// `baselines_reused == 9`, `passes == 1` (every lane of the batch rides one
/// trace pass) and `lanes == 20` — every number a `submit_all` sweep would
/// have paid per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Batch groups processed.
    pub groups: u64,
    /// Member jobs across those groups.
    pub members: u64,
    /// Batches whose first member with a valid registry computed the shared
    /// baseline.
    pub baselines_computed: u64,
    /// Members served by a baseline another job (or batch member) computed.
    pub baselines_reused: u64,
    /// Batched simulation passes: one per batch with at least one lane.
    pub passes: u64,
    /// Configuration lanes across those passes.
    pub lanes: u64,
}

impl BatchStats {
    /// Mean lanes per batched pass (zero when no pass ran).
    pub fn lanes_per_pass(&self) -> f64 {
        if self.passes == 0 {
            0.0
        } else {
            self.lanes as f64 / self.passes as f64
        }
    }
}

/// One queued unit of work: the job plus the event channel of its submission
/// and the enqueue timestamp feeding the queue-latency gauge.
#[derive(Debug)]
struct QueuedJob {
    id: JobId,
    job: EvalJob,
    events: mpsc::Sender<EvalEvent>,
    queued_at: Instant,
}

/// What a worker pops off the queue: a lone job, or a whole batch processed
/// by one worker so its members can share baseline, capture, and trace
/// passes.
#[derive(Debug)]
enum QueuedWork {
    Single(Box<QueuedJob>),
    Batch(Vec<QueuedJob>),
}

/// State shared between the evaluator handle and its worker threads.
#[derive(Debug)]
struct Shared {
    config: EvaluationConfig,
    window_parallelism: usize,
    queue: ShardedScheduler<QueuedWork>,
    /// Bound (in jobs) enforced by the capacity-checked entry points; the
    /// unconditional `submit*` family ignores it.
    queue_capacity: Option<usize>,
    /// Token-bucket limiter of the capacity-checked entry points.
    rate: Option<Mutex<TokenBucket>>,
    admitted: AtomicU64,
    rejected_full: AtomicU64,
    rejected_rate: AtomicU64,
    baselines: Mutex<HashMap<u64, Arc<OnceLock<Arc<BaselineArtifacts>>>>>,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    batch_groups: AtomicU64,
    batch_members: AtomicU64,
    batch_baselines_computed: AtomicU64,
    batch_baselines_reused: AtomicU64,
    batch_passes: AtomicU64,
    batch_lanes: AtomicU64,
    /// Fault-injection plan consulted by the workers
    /// ([`FaultSite::WorkerPanic`] per job or batch member) and shared with
    /// the scheduler; the default plan is disabled.
    faults: Arc<FaultPlan>,
}

impl Shared {
    /// The memoized reference trace and baseline for one benchmark, computing
    /// them exactly once per `(benchmark, machine)` pair — concurrent jobs on
    /// the same pair block on the initializing job instead of recomputing.
    /// Returns the artifacts and whether they came out of the memo.
    fn baseline_for(
        &self,
        bench: &Benchmark,
        machine: &MachineConfig,
    ) -> (Arc<BaselineArtifacts>, bool) {
        let key = baseline_key(bench, machine);
        let slot = {
            let mut map = self.baselines.lock().expect("memo lock never poisoned");
            map.entry(key)
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone()
        };
        let mut computed = false;
        let artifacts = slot
            .get_or_init(|| {
                computed = true;
                // The packed trace itself is an artifact: warm caches load it
                // from disk and skip re-generation entirely (the codec's
                // checksum guards bit-identity; any decode problem falls back
                // to regenerating).
                let cache = &self.config.cache;
                let key = crate::artifact::packed_trace_key(bench.name, &bench.inputs.reference);
                let trace = cache.load_trace(&key).unwrap_or_else(|| {
                    // Publication lock + re-check so concurrent evaluator
                    // processes sharing one cache dir generate each reference
                    // trace exactly once.
                    let _trace_lock = cache.lock_publication(&key);
                    cache.recheck_trace(&key).unwrap_or_else(|| {
                        let trace = generate_packed(&bench.program, &bench.inputs.reference);
                        cache.store_trace(&key, &trace);
                        trace
                    })
                });
                let baseline = Simulator::new(machine.clone())
                    .run(trace.iter(), &mut NullHooks, false)
                    .stats;
                Arc::new(BaselineArtifacts { trace, baseline })
            })
            .clone();
        if computed {
            self.memo_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
        }
        (artifacts, !computed)
    }
}

/// The stable identity of a `(benchmark, machine)` baseline: the same
/// encoding discipline as the artifact-cache keys, so two jobs share a memo
/// entry exactly when their reference traces and baselines are
/// interchangeable.
fn baseline_key(bench: &Benchmark, machine: &MachineConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("baseline");
    h.write_str(bench.name);
    crate::artifact::key::write_input(&mut h, &bench.inputs.reference);
    machine.fingerprint(&mut h);
    h.finish()
}

/// Builds an [`Evaluator`]: machine and analysis parameters (via an
/// [`EvaluationConfig`]), the shared artifact cache, and the thread budget.
///
/// The budget follows the documented [`EvaluationConfig::with_parallelism`]
/// split: `parallelism` is the total; [`workers`](EvaluatorBuilder::workers)
/// job-level threads (default: the whole budget, clamped to it) each hand
/// their jobs the leftover `parallelism / workers` (floor 1) for
/// window-parallel off-line analysis.
#[derive(Debug, Clone, Default)]
pub struct EvaluatorBuilder {
    config: EvaluationConfig,
    workers: Option<usize>,
    queue_capacity: Option<usize>,
    rate_limit: Option<(f64, f64)>,
    shutdown_timeout: Option<Duration>,
    faults: Option<Arc<FaultPlan>>,
}

impl EvaluatorBuilder {
    /// Starts from the default [`EvaluationConfig`].
    pub fn new() -> Self {
        EvaluatorBuilder::default()
    }

    /// Replaces the whole base configuration.
    pub fn config(mut self, config: EvaluationConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the machine model (fixed for the evaluator's lifetime — it is
    /// part of the baseline-memo identity).
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.config.machine = machine;
        self
    }

    /// Sets the shared artifact cache.
    pub fn cache(mut self, cache: Arc<crate::artifact::ArtifactCache>) -> Self {
        self.config.cache = cache;
        self
    }

    /// Sets the total worker-thread budget (floor 1).
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.config = self.config.with_parallelism(parallelism);
        self
    }

    /// Pins the number of job-level worker threads (clamped to `1..=`
    /// the total budget). Without this the whole budget goes to job-level
    /// workers, which is right when jobs outnumber threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Bounds the queue at `capacity` jobs (floor 1) for the
    /// capacity-checked entry points ([`Evaluator::try_submit_all`] /
    /// [`Evaluator::try_submit_batch`]): submissions that would exceed the
    /// bound are rejected with [`RejectReason::QueueFull`] instead of growing
    /// memory without limit. The unconditional `submit*` family is unaffected.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity.max(1));
        self
    }

    /// Installs a token-bucket rate limiter on the capacity-checked entry
    /// points: sustained throughput `per_second` jobs/s with bursts up to
    /// `burst` jobs. Submissions beyond the budget are rejected with
    /// [`RejectReason::RateLimited`].
    pub fn rate_limit(mut self, per_second: f64, burst: f64) -> Self {
        self.rate_limit = Some((per_second, burst));
        self
    }

    /// Installs a fault-injection plan (see [`crate::fault`]) shared by the
    /// scheduler and the workers: pops may stall, and jobs (or batch members)
    /// may be hit by an injected worker panic — which the service must
    /// convert into a clean per-job [`McdError::Fault`] failure. Share the
    /// same plan with the artifact cache
    /// ([`ArtifactCache::with_faults`](crate::artifact::ArtifactCache::with_faults))
    /// so the whole service runs under one seeded schedule. The default plan
    /// is disabled and costs one boolean load per hook.
    pub fn faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Bounds how long dropping the evaluator waits for queued work to drain
    /// before aborting it (default 60 s). Jobs still queued past the deadline
    /// fail with [`McdError::Shutdown`] so their streams terminate cleanly.
    pub fn shutdown_timeout(mut self, timeout: Duration) -> Self {
        self.shutdown_timeout = Some(timeout);
        self
    }

    /// Spawns the worker pool and returns the ready service.
    pub fn build(self) -> Evaluator {
        let total = self.config.parallelism.max(1);
        let workers = self.workers.unwrap_or(total).clamp(1, total);
        let window_parallelism = (total / workers).max(1);
        let faults = self
            .faults
            .unwrap_or_else(|| Arc::new(FaultPlan::disabled()));
        let shared = Arc::new(Shared {
            config: self.config,
            window_parallelism,
            queue: ShardedScheduler::new(workers).with_faults(Arc::clone(&faults)),
            queue_capacity: self.queue_capacity,
            rate: self.rate_limit.map(|(per_second, burst)| {
                Mutex::new(TokenBucket::new(per_second, burst, Instant::now()))
            }),
            admitted: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            rejected_rate: AtomicU64::new(0),
            baselines: Mutex::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            batch_groups: AtomicU64::new(0),
            batch_members: AtomicU64::new(0),
            batch_baselines_computed: AtomicU64::new(0),
            batch_baselines_reused: AtomicU64::new(0),
            batch_passes: AtomicU64::new(0),
            batch_lanes: AtomicU64::new(0),
            faults,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("mcd-eval-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("worker thread spawns")
            })
            .collect();
        Evaluator {
            shared,
            worker_handles: handles,
            worker_count: workers,
            shutdown_timeout: self.shutdown_timeout.unwrap_or(Duration::from_secs(60)),
            next_id: AtomicU64::new(0),
        }
    }
}

/// The job-oriented evaluation service (see the [module docs](crate::service)
/// for the lifecycle).
///
/// Build one with [`Evaluator::builder`], keep it for as long as evaluations
/// are needed, and [`submit`](Evaluator::submit) jobs from any thread; every
/// submission gets its own [`ResultStream`]. Dropping the evaluator drains
/// the queued jobs and joins the workers.
#[derive(Debug)]
pub struct Evaluator {
    shared: Arc<Shared>,
    worker_handles: Vec<JoinHandle<()>>,
    worker_count: usize,
    shutdown_timeout: Duration,
    next_id: AtomicU64,
}

impl Evaluator {
    /// Starts building an evaluator.
    pub fn builder() -> EvaluatorBuilder {
        EvaluatorBuilder::new()
    }

    /// The number of job-level worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// The worker-thread budget each job gets for window-parallel off-line
    /// analysis (`parallelism / workers`, floor 1).
    pub fn window_parallelism(&self) -> usize {
        self.shared.window_parallelism
    }

    /// The base configuration jobs inherit.
    pub fn config(&self) -> &EvaluationConfig {
        &self.shared.config
    }

    /// Snapshot of the baseline-memo counters.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.shared.memo_hits.load(Ordering::Relaxed),
            misses: self.shared.memo_misses.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the batched-execution counters.
    pub fn batch_stats(&self) -> BatchStats {
        BatchStats {
            groups: self.shared.batch_groups.load(Ordering::Relaxed),
            members: self.shared.batch_members.load(Ordering::Relaxed),
            baselines_computed: self.shared.batch_baselines_computed.load(Ordering::Relaxed),
            baselines_reused: self.shared.batch_baselines_reused.load(Ordering::Relaxed),
            passes: self.shared.batch_passes.load(Ordering::Relaxed),
            lanes: self.shared.batch_lanes.load(Ordering::Relaxed),
        }
    }

    /// Current queue depth in jobs (batch members counted individually) —
    /// the saturation gauge producers poll between submissions.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// High-water mark of the queue depth in jobs over the evaluator's
    /// lifetime.
    pub fn peak_queue_depth(&self) -> usize {
        self.shared.queue.peak_depth()
    }

    /// Snapshot of the admission-control counters (the capacity-checked
    /// entry points only; the unconditional `submit*` family bypasses them).
    pub fn admission_stats(&self) -> AdmissionStats {
        AdmissionStats {
            accepted: self.shared.admitted.load(Ordering::Relaxed),
            rejected_queue_full: self.shared.rejected_full.load(Ordering::Relaxed),
            rejected_rate_limited: self.shared.rejected_rate.load(Ordering::Relaxed),
        }
    }

    /// Releases the memoized reference traces and baselines; the counters
    /// are preserved.
    ///
    /// The memo holds every `(benchmark, machine)` pair's reference trace —
    /// the large part — for the evaluator's lifetime, which is exactly what a
    /// sweep wants but grows unboundedly in a service that cycles through
    /// many distinct benchmarks. Call this between batches to cap resident
    /// memory; later jobs recompute (and re-memoize) on demand.
    pub fn clear_baselines(&self) {
        self.shared
            .baselines
            .lock()
            .expect("memo lock never poisoned")
            .clear();
    }

    /// Submits one job; sugar for a one-element [`submit_all`](Evaluator::submit_all).
    pub fn submit(&self, job: EvalJob) -> ResultStream {
        self.submit_all(vec![job])
    }

    /// Submits a batch of jobs sharing one event stream. Jobs start in
    /// per-class submission order as workers free up; their events interleave
    /// on the returned stream. An empty batch returns a stream that is
    /// already finished. Submission is unconditional — for backpressure use
    /// [`try_submit_all`](Evaluator::try_submit_all).
    pub fn submit_all(&self, jobs: Vec<EvalJob>) -> ResultStream {
        let (sender, receiver) = mpsc::channel();
        let mut ids = Vec::with_capacity(jobs.len());
        for job in jobs {
            let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
            ids.push(id);
            let benchmark = job.benchmark.name.to_string();
            let priority = job.priority;
            // Reserve first, then emit `JobQueued`, then land the work: the
            // reservation makes the depth gauge exact and the ordering keeps
            // `JobQueued` ahead of the worker's `JobStarted` on the stream.
            match self.shared.queue.try_reserve(1, None) {
                PushOutcome::Pushed(depth) => {
                    let _ = sender.send(EvalEvent::JobQueued {
                        job: id,
                        benchmark,
                        depth,
                    });
                    self.shared.queue.push_reserved(
                        QueuedWork::Single(Box::new(QueuedJob {
                            id,
                            job,
                            events: sender.clone(),
                            queued_at: Instant::now(),
                        })),
                        priority,
                        1,
                    );
                }
                // Unreachable while the evaluator is alive (close happens in
                // drop), but keeps every job's stream terminating if that
                // changes.
                PushOutcome::Full(_) | PushOutcome::Closed => {
                    let _ = sender.send(EvalEvent::JobFailed {
                        job: id,
                        benchmark,
                        error: McdError::Shutdown,
                    });
                }
            }
        }
        // Dropping the submission's sender leaves one sender clone per queued
        // job; the stream therefore ends exactly when the last job finishes.
        drop(sender);
        ResultStream {
            receiver,
            jobs: ids,
        }
    }

    /// Capacity-checked [`submit_all`](Evaluator::submit_all): each job
    /// passes the rate limiter and the queue bound or is turned away with an
    /// explicit [`Admission::Rejected`] outcome (plus a terminal
    /// [`EvalEvent::JobRejected`] on the stream). Accepted and rejected jobs
    /// share the returned stream, so `collect` surfaces a rejection as
    /// [`McdError::Rejected`] exactly like any other job failure.
    pub fn try_submit_all(&self, jobs: Vec<EvalJob>) -> (ResultStream, Vec<Admission>) {
        let (sender, receiver) = mpsc::channel();
        let mut ids = Vec::with_capacity(jobs.len());
        let mut admissions = Vec::with_capacity(jobs.len());
        for job in jobs {
            let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
            ids.push(id);
            let benchmark = job.benchmark.name.to_string();
            if let Some(reason) = self.admit(1.0) {
                admissions.push(Admission::Rejected { job: id, reason });
                let _ = sender.send(EvalEvent::JobRejected {
                    job: id,
                    benchmark,
                    reason,
                });
                continue;
            }
            let priority = job.priority;
            match self.shared.queue.try_reserve(1, self.shared.queue_capacity) {
                PushOutcome::Pushed(depth) => {
                    self.shared.admitted.fetch_add(1, Ordering::Relaxed);
                    admissions.push(Admission::Queued { job: id, depth });
                    let _ = sender.send(EvalEvent::JobQueued {
                        job: id,
                        benchmark,
                        depth,
                    });
                    self.shared.queue.push_reserved(
                        QueuedWork::Single(Box::new(QueuedJob {
                            id,
                            job,
                            events: sender.clone(),
                            queued_at: Instant::now(),
                        })),
                        priority,
                        1,
                    );
                }
                PushOutcome::Full(depth) => {
                    self.shared.rejected_full.fetch_add(1, Ordering::Relaxed);
                    let reason = RejectReason::QueueFull {
                        depth,
                        capacity: self.shared.queue_capacity.unwrap_or(usize::MAX),
                    };
                    admissions.push(Admission::Rejected { job: id, reason });
                    let _ = sender.send(EvalEvent::JobRejected {
                        job: id,
                        benchmark,
                        reason,
                    });
                }
                PushOutcome::Closed => {
                    let _ = sender.send(EvalEvent::JobFailed {
                        job: id,
                        benchmark,
                        error: McdError::Shutdown,
                    });
                }
            }
        }
        drop(sender);
        (
            ResultStream {
                receiver,
                jobs: ids,
            },
            admissions,
        )
    }

    /// Consults the rate limiter for `tokens` jobs' worth of budget; `Some`
    /// carries the rejection reason, `None` admits.
    fn admit(&self, tokens: f64) -> Option<RejectReason> {
        let rate = self.shared.rate.as_ref()?;
        let admitted = rate
            .lock()
            .expect("rate-limiter lock never poisoned")
            .try_take(tokens, Instant::now());
        if admitted {
            None
        } else {
            self.shared
                .rejected_rate
                .fetch_add(tokens.max(1.0) as u64, Ordering::Relaxed);
            Some(RejectReason::RateLimited)
        }
    }

    /// Submits a validated [`EvalBatch`]: the whole group goes to one worker,
    /// which pays for the shared baseline once and runs every scheme of every
    /// member as a configuration lane of a single batched trace pass (global
    /// DVS, which matches another scheme's outcome, runs on its own after
    /// it). Events, ordering guarantees, and per-member results are exactly
    /// those of [`submit_all`](Evaluator::submit_all) with the same jobs —
    /// batching only changes wall-clock time, counted in
    /// [`batch_stats`](Evaluator::batch_stats).
    pub fn submit_batch(&self, batch: EvalBatch) -> ResultStream {
        let (stream, _) = self.submit_batch_inner(batch, false);
        stream
    }

    /// Capacity-checked [`submit_batch`](Evaluator::submit_batch): the batch
    /// is one schedulable unit, so it is admitted or rejected whole — the
    /// rate limiter is charged one token per member and the queue bound is
    /// checked against the full member count. On rejection every member gets
    /// a terminal [`EvalEvent::JobRejected`] and a matching
    /// [`Admission::Rejected`] entry.
    pub fn try_submit_batch(&self, batch: EvalBatch) -> (ResultStream, Vec<Admission>) {
        self.submit_batch_inner(batch, true)
    }

    fn submit_batch_inner(
        &self,
        batch: EvalBatch,
        checked: bool,
    ) -> (ResultStream, Vec<Admission>) {
        let priority = batch.priority();
        let jobs = batch.jobs.len();
        let (sender, receiver) = mpsc::channel();
        let mut ids = Vec::with_capacity(jobs);
        let mut members = Vec::with_capacity(jobs);
        let queued_at = Instant::now();
        for job in batch.jobs {
            let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
            ids.push(id);
            members.push(QueuedJob {
                id,
                job,
                events: sender.clone(),
                queued_at,
            });
        }

        // The batch is one schedulable unit: admitted or rejected whole.
        let reserved = if checked {
            match self.admit(jobs as f64) {
                Some(reason) => Err(Some(reason)),
                None => match self
                    .shared
                    .queue
                    .try_reserve(jobs, self.shared.queue_capacity)
                {
                    PushOutcome::Pushed(depth) => Ok(depth),
                    PushOutcome::Full(depth) => {
                        self.shared
                            .rejected_full
                            .fetch_add(jobs as u64, Ordering::Relaxed);
                        Err(Some(RejectReason::QueueFull {
                            depth,
                            capacity: self.shared.queue_capacity.unwrap_or(usize::MAX),
                        }))
                    }
                    PushOutcome::Closed => Err(None),
                },
            }
        } else {
            match self.shared.queue.try_reserve(jobs, None) {
                PushOutcome::Pushed(depth) => Ok(depth),
                // Unreachable while the evaluator is alive; keeps streams
                // terminating if that changes.
                PushOutcome::Full(_) | PushOutcome::Closed => Err(None),
            }
        };

        let admissions = match reserved {
            Ok(depth) => {
                if checked {
                    self.shared
                        .admitted
                        .fetch_add(jobs as u64, Ordering::Relaxed);
                }
                let admissions = members
                    .iter()
                    .map(|member| {
                        let _ = sender.send(EvalEvent::JobQueued {
                            job: member.id,
                            benchmark: member.job.benchmark.name.to_string(),
                            depth,
                        });
                        Admission::Queued {
                            job: member.id,
                            depth,
                        }
                    })
                    .collect();
                self.shared
                    .queue
                    .push_reserved(QueuedWork::Batch(members), priority, jobs);
                admissions
            }
            Err(Some(reason)) => members
                .into_iter()
                .map(|member| {
                    let _ = sender.send(EvalEvent::JobRejected {
                        job: member.id,
                        benchmark: member.job.benchmark.name.to_string(),
                        reason,
                    });
                    Admission::Rejected {
                        job: member.id,
                        reason,
                    }
                })
                .collect(),
            Err(None) => {
                for member in members {
                    let _ = sender.send(EvalEvent::JobFailed {
                        job: member.id,
                        benchmark: member.job.benchmark.name.to_string(),
                        error: McdError::Shutdown,
                    });
                }
                Vec::new()
            }
        };
        drop(sender);
        (
            ResultStream {
                receiver,
                jobs: ids,
            },
            admissions,
        )
    }
}

impl Drop for Evaluator {
    /// Graceful shutdown within a bounded timeout: the queue is closed, then
    /// drained for up to [`shutdown_timeout`](EvaluatorBuilder::shutdown_timeout).
    /// Work still queued past the deadline is aborted — each abandoned job
    /// emits a terminal [`EvalEvent::JobFailed`] with [`McdError::Shutdown`]
    /// so its stream still ends — and the workers (which finish their
    /// in-flight item either way) are joined.
    fn drop(&mut self) {
        self.shared.queue.close();
        let deadline = Instant::now() + self.shutdown_timeout;
        if !self.shared.queue.wait_empty(deadline) {
            let fail = |queued: QueuedJob| {
                let _ = queued.events.send(EvalEvent::JobFailed {
                    job: queued.id,
                    benchmark: queued.job.benchmark.name.to_string(),
                    error: McdError::Shutdown,
                });
            };
            for work in self.shared.queue.abort() {
                match work {
                    QueuedWork::Single(queued) => fail(*queued),
                    QueuedWork::Batch(members) => members.into_iter().for_each(fail),
                }
            }
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Maps a caught panic payload to the [`McdError`] its job fails with: an
/// [`InjectedPanic`] (planted by the fault harness) becomes
/// [`McdError::Fault`], anything else is a genuine bug and becomes
/// [`McdError::Panic`] carrying the panic message.
fn panic_error(payload: Box<dyn std::any::Any + Send>) -> McdError {
    if payload.downcast_ref::<InjectedPanic>().is_some() {
        return McdError::Fault {
            site: FaultSite::WorkerPanic,
        };
    }
    let msg = payload
        .downcast_ref::<&'static str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    McdError::Panic(msg)
}

/// A worker: pop work (own shard first, stealing otherwise) until the queue
/// closes and drains. Each popped unit first emits `JobStarted` per job,
/// carrying the queue-latency and depth gauges.
///
/// Job execution runs under `catch_unwind`, so a panic — injected by the
/// fault plan or a genuine bug — poisons only its own job: the job gets a
/// terminal [`EvalEvent::JobFailed`] (so its stream still ends) and the
/// worker thread goes back to popping. The shared state is unwind-safe by
/// construction: no lock is held across job execution, and the baseline
/// memo's `OnceLock` is left uninitialized (not poisoned) when its
/// initializer panics, so a later job simply recomputes.
fn worker_loop(shared: &Shared, worker: usize) {
    while let Some(work) = shared.queue.pop(worker) {
        let depth = shared.queue.depth();
        match work {
            QueuedWork::Single(queued) => {
                let _ = queued.events.send(EvalEvent::JobStarted {
                    job: queued.id,
                    benchmark: queued.job.benchmark.name.to_string(),
                    queued_for: queued.queued_at.elapsed(),
                    depth,
                });
                let id = queued.id;
                let benchmark = queued.job.benchmark.name.to_string();
                let events = queued.events.clone();
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    if shared.faults.should(FaultSite::WorkerPanic) {
                        std::panic::panic_any(InjectedPanic);
                    }
                    process_job(shared, *queued);
                }));
                if let Err(payload) = result {
                    // `process_job` sends its terminal as its very last
                    // action, so an unwound job has not sent one yet.
                    let _ = events.send(EvalEvent::JobFailed {
                        job: id,
                        benchmark,
                        error: panic_error(payload),
                    });
                }
            }
            QueuedWork::Batch(members) => {
                for member in &members {
                    let _ = member.events.send(EvalEvent::JobStarted {
                        job: member.id,
                        benchmark: member.job.benchmark.name.to_string(),
                        queued_for: member.queued_at.elapsed(),
                        depth,
                    });
                }
                // Per-member terminal bookkeeping: `process_batch` marks each
                // member whose terminal event it sent, so if it unwinds
                // mid-batch the backstop fails exactly the members still
                // missing one.
                let terminals: Vec<(JobId, String, mpsc::Sender<EvalEvent>, Arc<AtomicBool>)> =
                    members
                        .iter()
                        .map(|m| {
                            (
                                m.id,
                                m.job.benchmark.name.to_string(),
                                m.events.clone(),
                                Arc::new(AtomicBool::new(false)),
                            )
                        })
                        .collect();
                let flags: Vec<Arc<AtomicBool>> =
                    terminals.iter().map(|(_, _, _, f)| Arc::clone(f)).collect();
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    process_batch(shared, members, &flags);
                }));
                if let Err(payload) = result {
                    let error = panic_error(payload);
                    for (id, benchmark, events, sent) in terminals {
                        if !sent.load(Ordering::Relaxed) {
                            let _ = events.send(EvalEvent::JobFailed {
                                job: id,
                                benchmark,
                                error: error.clone(),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Runs one job end to end, emitting its lifecycle events. Event sends are
/// allowed to fail silently: a caller that dropped its [`ResultStream`] has
/// said it no longer cares about the results.
fn process_job(shared: &Shared, queued: QueuedJob) {
    let QueuedJob {
        id, job, events, ..
    } = queued;
    let config = job.effective_config(&shared.config, shared.window_parallelism);

    // Validate the registry before paying for the baseline: a job with an
    // unknown scheme fails fast and never touches the memo.
    let registry = match job.build_registry(&config) {
        Ok(registry) => registry,
        Err(error) => return send_failure(&events, id, job.benchmark(), error),
    };

    let (artifacts, memo_hit) = shared.baseline_for(job.benchmark(), &config.machine);
    let _ = events.send(EvalEvent::BaselineReady {
        job: id,
        benchmark: job.benchmark().name.to_string(),
        memo_hit,
    });
    complete_job(
        id,
        job.benchmark(),
        &events,
        &registry,
        &config.machine,
        &artifacts,
        |_| None,
    );
}

/// Runs `registry` to its outcomes, streaming one `SchemeFinished` per scheme
/// and then the job's terminal event (its very last action). `simulated(i)`
/// yields scheme `i`'s statistics when a batch pass already ran its lane;
/// otherwise the scheme runs here.
fn complete_job(
    id: JobId,
    benchmark: &Benchmark,
    events: &mpsc::Sender<EvalEvent>,
    registry: &[Box<dyn DvfsScheme>],
    machine: &MachineConfig,
    artifacts: &BaselineArtifacts,
    simulated: impl FnMut(usize) -> Option<SimStats>,
) {
    let outcome = crate::evaluation::run_schemes(
        benchmark,
        machine,
        registry,
        &artifacts.trace,
        &artifacts.baseline,
        simulated,
        |outcome| {
            let _ = events.send(EvalEvent::SchemeFinished {
                job: id,
                benchmark: benchmark.name.to_string(),
                outcome: outcome.clone(),
            });
        },
    );
    match outcome {
        Ok(schemes) => {
            let _ = events.send(EvalEvent::JobCompleted {
                job: id,
                evaluation: BenchmarkEvaluation {
                    name: benchmark.name.to_string(),
                    baseline: artifacts.baseline.clone(),
                    schemes,
                },
            });
        }
        Err(error) => send_failure(events, id, benchmark, error),
    }
}

fn send_failure(
    events: &mpsc::Sender<EvalEvent>,
    id: JobId,
    benchmark: &Benchmark,
    error: McdError,
) {
    let _ = events.send(EvalEvent::JobFailed {
        job: id,
        benchmark: benchmark.name.to_string(),
        error,
    });
}

/// A batch member whose lanes made it into the batch's pass.
struct BatchMember {
    id: JobId,
    job: EvalJob,
    events: mpsc::Sender<EvalEvent>,
    registry: Vec<Box<dyn DvfsScheme>>,
    /// Per scheme, in registry order: its lane's index in the pass, or `None`
    /// for a scheme that runs on its own after the pass.
    slots: Vec<Option<usize>>,
    terminal_sent: Arc<AtomicBool>,
}

/// Runs one batch end to end on this worker, in three steps:
///
/// 1. **Prepare**, member by member: build the registry, obtain the batch's
///    one baseline, and prepare a lane per scheme in registry order — the
///    off-line schedule, the profile plan, the learned table, and fresh
///    on-line, PID and SysScale controllers. Capture and training come from
///    one batch-wide pool, so members that differ only in their slowdown
///    target, and the profile and learned schemes, share them.
/// 2. **Run** every lane of every member in a single batched trace pass.
/// 3. **Record** each member's outcomes in registry order, running the
///    schemes without a lane (global DVS, which matches another scheme's
///    outcome) on their own, then its terminal event.
///
/// Lanes do not affect each other, so per member the event sequence and the
/// statistics are exactly those of [`process_job`]. Failures are isolated: a
/// member whose registry is invalid or whose preparation panics — the
/// injected worker panic is drawn once per member, just before its lanes are
/// prepared — fails alone and contributes no lanes; a scheme error or panic
/// while recording fails only its member. `flags` are the per-member terminal
/// markers (parallel to `queued`) the worker's panic backstop reads.
fn process_batch(shared: &Shared, queued: Vec<QueuedJob>, flags: &[Arc<AtomicBool>]) {
    if queued.is_empty() {
        return;
    }
    shared.batch_groups.fetch_add(1, Ordering::Relaxed);
    shared
        .batch_members
        .fetch_add(queued.len() as u64, Ordering::Relaxed);

    // Jobs cannot override the machine, and EvalJob::batch guaranteed a
    // single benchmark: one baseline serves the whole batch, obtained by the
    // first member whose registry is valid.
    let machine = &shared.config.machine;
    let simulator = Simulator::new(machine.clone());
    let mut baseline: Option<Arc<BaselineArtifacts>> = None;
    let mut pool = BatchPool::default();
    let mut lanes: Vec<Lane> = Vec::new();
    let mut members: Vec<BatchMember> = Vec::with_capacity(queued.len());
    for (
        QueuedJob {
            id, job, events, ..
        },
        terminal_sent,
    ) in queued.into_iter().zip(flags)
    {
        let prepared = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let config = job.effective_config(&shared.config, shared.window_parallelism);
            let registry = job.build_registry(&config)?;
            let memo_hit = baseline.is_some() || {
                let (artifacts, memo_hit) = shared.baseline_for(job.benchmark(), machine);
                baseline = Some(artifacts);
                memo_hit
            };
            let counter = if memo_hit {
                &shared.batch_baselines_reused
            } else {
                &shared.batch_baselines_computed
            };
            counter.fetch_add(1, Ordering::Relaxed);
            let _ = events.send(EvalEvent::BaselineReady {
                job: id,
                benchmark: job.benchmark().name.to_string(),
                memo_hit,
            });
            if shared.faults.should(FaultSite::WorkerPanic) {
                std::panic::panic_any(InjectedPanic);
            }
            let artifacts = baseline.as_deref().expect("obtained above");
            let ctx = SchemeContext {
                benchmark: job.benchmark(),
                machine,
                reference_trace: &artifacts.trace,
                baseline: &artifacts.baseline,
                prior: &[],
            };
            let prepared: Vec<Option<Lane>> = registry
                .iter()
                .map(|scheme| Lane::prepare(scheme.as_ref(), &ctx, &simulator, &mut pool))
                .collect();
            Ok((registry, prepared))
        }));
        let error = match prepared {
            Ok(Ok((registry, prepared))) => {
                let slots = prepared
                    .into_iter()
                    .map(|lane| {
                        lane.map(|lane| {
                            lanes.push(lane);
                            lanes.len() - 1
                        })
                    })
                    .collect();
                members.push(BatchMember {
                    id,
                    job,
                    events,
                    registry,
                    slots,
                    terminal_sent: Arc::clone(terminal_sent),
                });
                continue;
            }
            Ok(Err(error)) => error,
            Err(payload) => panic_error(payload),
        };
        terminal_sent.store(true, Ordering::Relaxed);
        send_failure(&events, id, job.benchmark(), error);
    }
    // The capture and training pools are spent: free them before the pass.
    drop(pool);
    let Some(artifacts) = baseline else {
        return;
    };

    let mut stats = if lanes.is_empty() {
        Vec::new()
    } else {
        shared.batch_passes.fetch_add(1, Ordering::Relaxed);
        shared
            .batch_lanes
            .fetch_add(lanes.len() as u64, Ordering::Relaxed);
        let mut hooks: Vec<Box<dyn SimHooks + '_>> = lanes.iter_mut().map(Lane::hooks).collect();
        let mut hooks: Vec<&mut dyn SimHooks> = hooks.iter_mut().map(|h| &mut **h as _).collect();
        BatchedSimulator::from_simulator(simulator).run(artifacts.trace.iter(), &mut hooks)
    };
    drop(lanes);

    for member in members {
        let recorded = std::panic::catch_unwind(AssertUnwindSafe(|| {
            complete_job(
                member.id,
                member.job.benchmark(),
                &member.events,
                &member.registry,
                machine,
                &artifacts,
                |i| member.slots[i].map(|lane| std::mem::take(&mut stats[lane])),
            );
        }));
        if let Err(payload) = recorded {
            // `complete_job` sends the terminal last, so none went out yet.
            send_failure(
                &member.events,
                member.id,
                member.job.benchmark(),
                panic_error(payload),
            );
        }
        member.terminal_sent.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::TrainingHistogramsArtifact;

    #[test]
    fn builder_applies_the_documented_budget_split() {
        // parallelism / workers, floor 1, workers clamped into 1..=total.
        let evaluator = Evaluator::builder().parallelism(8).workers(3).build();
        assert_eq!(evaluator.workers(), 3);
        assert_eq!(evaluator.window_parallelism(), 2); // 8 / 3 = 2

        let evaluator = Evaluator::builder().parallelism(4).build();
        assert_eq!(evaluator.workers(), 4);
        assert_eq!(evaluator.window_parallelism(), 1);

        let evaluator = Evaluator::builder().parallelism(6).workers(2).build();
        assert_eq!(evaluator.workers(), 2);
        assert_eq!(evaluator.window_parallelism(), 3);
    }

    #[test]
    fn builder_enforces_the_floors_and_clamps() {
        // A zero budget floors to one; workers can neither be zero nor exceed
        // the total budget.
        let evaluator = Evaluator::builder().parallelism(0).build();
        assert_eq!(evaluator.workers(), 1);
        assert_eq!(evaluator.window_parallelism(), 1);

        let evaluator = Evaluator::builder().parallelism(2).workers(0).build();
        assert_eq!(evaluator.workers(), 1);
        assert_eq!(evaluator.window_parallelism(), 2);

        let evaluator = Evaluator::builder().parallelism(2).workers(99).build();
        assert_eq!(evaluator.workers(), 2);
        assert_eq!(evaluator.window_parallelism(), 1);
    }

    #[test]
    fn empty_submission_finishes_immediately() {
        let evaluator = Evaluator::builder().build();
        let stream = evaluator.submit_all(Vec::new());
        assert!(stream.jobs().is_empty());
        let evals = stream.collect().expect("empty batch succeeds");
        assert!(evals.is_empty());
    }

    #[test]
    fn batched_submission_matches_serial_submission_bit_for_bit() {
        use crate::scheme::names;

        let bench = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        let jobs = || {
            vec![
                EvalJob::new(bench.clone())
                    .with_slowdown(0.02)
                    .with_schemes([names::OFFLINE, names::PROFILE]),
                EvalJob::new(bench.clone())
                    .with_slowdown(0.10)
                    .with_schemes([names::OFFLINE, names::PROFILE]),
                EvalJob::new(bench.clone()).with_global(true),
            ]
        };
        let serial = Evaluator::builder()
            .build()
            .submit_all(jobs())
            .collect()
            .expect("serial sweep succeeds");

        let evaluator = Evaluator::builder().build();
        let batched = evaluator
            .submit_batch(EvalJob::batch(jobs()).expect("one benchmark"))
            .collect()
            .expect("batched sweep succeeds");

        assert_eq!(serial.len(), batched.len());
        for (s, b) in serial.iter().zip(&batched) {
            assert_eq!(s.name, b.name);
            assert_eq!(s.schemes.len(), b.schemes.len());
            for (so, bo) in s.schemes.iter().zip(&b.schemes) {
                assert_eq!(so.name, bo.name);
                assert_eq!(so.label, bo.label);
                assert_eq!(so.result.stats.run_time, bo.result.stats.run_time);
                assert_eq!(
                    so.result.stats.total_energy.as_units(),
                    bo.result.stats.total_energy.as_units()
                );
                assert_eq!(
                    so.result.stats.reconfigurations,
                    bo.result.stats.reconfigurations
                );
            }
        }

        let stats = evaluator.batch_stats();
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.members, 3);
        assert_eq!(stats.baselines_computed, 1);
        assert_eq!(stats.baselines_reused, 2);
        // offline (3 lanes), online (1) and profile (3) share one pass;
        // global runs on its own after it.
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.lanes, 7);
        assert!((stats.lanes_per_pass() - 7.0).abs() < 1e-12);
        // One member computed the memoized baseline, two reused it.
        let memo = evaluator.memo_stats();
        assert_eq!(memo.misses, 1);
        assert_eq!(memo.hits, 0);
    }

    /// Asserts that two evaluations of one job agree scheme by scheme, floats
    /// to the bit.
    fn assert_same_evaluation(got: &BenchmarkEvaluation, want: &BenchmarkEvaluation) {
        assert_eq!(got.name, want.name);
        let schemes = |e: &BenchmarkEvaluation| -> Vec<(String, String)> {
            e.schemes
                .iter()
                .map(|o| (o.name.clone(), o.label.clone()))
                .collect()
        };
        assert_eq!(schemes(got), schemes(want));
        for (g, w) in got.schemes.iter().zip(&want.schemes) {
            let (gs, ws) = (&g.result.stats, &w.result.stats);
            assert_eq!(
                gs.run_time.as_ns().to_bits(),
                ws.run_time.as_ns().to_bits(),
                "{}: run time",
                g.name
            );
            assert_eq!(
                gs.total_energy.as_units().to_bits(),
                ws.total_energy.as_units().to_bits(),
                "{}: energy",
                g.name
            );
            assert_eq!(gs.reconfigurations, ws.reconfigurations, "{}", g.name);
            assert_eq!(gs.sync_stalls, ws.sync_stalls, "{}", g.name);
            assert_eq!(gs.instructions, ws.instructions, "{}", g.name);
        }
    }

    /// Each job submitted on its own (no batching, no fault injection).
    fn lone_results(jobs: Vec<EvalJob>) -> Vec<BenchmarkEvaluation> {
        Evaluator::builder()
            .build()
            .submit_all(jobs)
            .collect()
            .expect("lone jobs succeed")
    }

    #[test]
    fn one_member_full_registry_batch_is_one_pass_with_one_training_run() {
        use crate::scheme::names;

        let bench = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        // The full registry, zoo and global included; the default config
        // has the artifact cache disabled.
        let job = || EvalJob::new(bench.clone()).with_zoo(true).with_global(true);
        let evaluator = Evaluator::builder().build();
        assert!(!evaluator.config().cache.is_enabled());
        let batched = evaluator
            .submit_batch(EvalJob::batch(vec![job()]).expect("one benchmark"))
            .collect()
            .expect("batched job succeeds");
        assert_same_evaluation(&batched[0], &lone_results(vec![job()])[0]);
        assert_eq!(batched[0].schemes.len(), 7);
        let stats = evaluator.batch_stats();
        // Six lanes in one pass; global runs after it.
        assert_eq!((stats.passes, stats.lanes), (1, 6));

        // Profile and learned prepare from one pooled training artifact.
        let config = job().effective_config(evaluator.config(), 1);
        let registry = job().build_registry(&config).expect("full registry");
        let (artifacts, _) = evaluator.shared.baseline_for(&bench, &config.machine);
        let ctx = SchemeContext {
            benchmark: &bench,
            machine: &config.machine,
            reference_trace: &artifacts.trace,
            baseline: &artifacts.baseline,
            prior: &[],
        };
        let simulator = Simulator::new(config.machine.clone());
        let mut pool = BatchPool::default();
        let prepare = |name: &str, pool: &mut BatchPool| {
            let scheme = registry.iter().find(|s| s.name() == name).unwrap();
            Lane::prepare(scheme.as_ref(), &ctx, &simulator, pool).expect("a lane")
        };
        prepare(names::PROFILE, &mut pool);
        let trained = Arc::clone(&pool.training.values().next().unwrap().artifact);
        prepare(names::LEARNED, &mut pool);
        assert_eq!(pool.training.len(), 1);
        let pooled = &mut pool.training.values_mut().next().unwrap().artifact;
        assert!(Arc::ptr_eq(pooled, &trained), "learned replaced the entry");

        // And learned reads that entry: with its regions emptied, the learned
        // lane no longer reproduces the batch's learned outcome.
        *pooled = Arc::new(TrainingHistogramsArtifact {
            entries: Vec::new(),
            training_stats: trained.training_stats.clone(),
        });
        let mut lane = prepare(names::LEARNED, &mut pool);
        let emptied = BatchedSimulator::from_simulator(simulator.clone())
            .run(artifacts.trace.iter(), &mut [&mut *lane.hooks()]);
        let learned = &batched[0].schemes[5];
        assert_eq!(learned.name, names::LEARNED);
        assert_ne!(
            emptied[0].run_time.as_ns().to_bits(),
            learned.result.stats.run_time.as_ns().to_bits()
        );
    }

    #[test]
    fn mixed_registry_members_share_one_pass_and_stream_in_registry_order() {
        use crate::scheme::names;

        let bench = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        let jobs = || {
            vec![
                EvalJob::new(bench.clone())
                    .with_slowdown(0.03)
                    .with_schemes([names::OFFLINE]),
                EvalJob::new(bench.clone()).with_schemes([
                    names::ONLINE,
                    names::PID,
                    names::SYSSCALE,
                ]),
                EvalJob::new(bench.clone())
                    .with_slowdown(0.09)
                    .with_schemes([names::PROFILE, names::LEARNED]),
                EvalJob::new(bench.clone())
                    .with_slowdown(0.05)
                    .with_zoo(true)
                    .with_global(true),
            ]
        };
        let lone = lone_results(jobs());

        let evaluator = Evaluator::builder().build();
        let stream = evaluator.submit_batch(EvalJob::batch(jobs()).expect("one benchmark"));
        let ids = stream.jobs().to_vec();
        let mut finished: HashMap<JobId, Vec<String>> = HashMap::new();
        let mut completed: HashMap<JobId, BenchmarkEvaluation> = HashMap::new();
        for event in stream {
            match event {
                EvalEvent::SchemeFinished { job, outcome, .. } => {
                    assert!(!completed.contains_key(&job), "scheme after completion");
                    finished.entry(job).or_default().push(outcome.name);
                }
                EvalEvent::JobCompleted { job, evaluation } => {
                    completed.insert(job, evaluation);
                }
                EvalEvent::JobFailed { error, .. } => panic!("member failed: {error:?}"),
                _ => {}
            }
        }
        let registry_order = |subset: &[&str]| -> Vec<String> {
            crate::scheme::full_registry(true, true)
                .iter()
                .map(|s| s.name().to_string())
                .filter(|n| subset.is_empty() || subset.contains(&n.as_str()))
                .collect()
        };
        let orders = [
            registry_order(&[names::OFFLINE]),
            registry_order(&[names::ONLINE, names::PID, names::SYSSCALE]),
            registry_order(&[names::PROFILE, names::LEARNED]),
            registry_order(&[]),
        ];
        for ((id, want), order) in ids.iter().zip(&lone).zip(&orders) {
            assert_eq!(&finished[id], order, "{id}: SchemeFinished order");
            assert_same_evaluation(&completed[id], want);
        }
        let stats = evaluator.batch_stats();
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.lanes, 1 + 3 + 2 + 6);
    }

    #[test]
    fn batch_members_fail_in_isolation() {
        use crate::scheme::names;

        let bench = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        // An unknown scheme fails its member while the batch prepares its
        // lanes; `global` without its matched scheme fails its member when
        // the outcomes are recorded. Neither sinks the others.
        let jobs = || {
            vec![
                EvalJob::new(bench.clone()).with_schemes([names::ONLINE]),
                EvalJob::new(bench.clone()).with_schemes(["bogus"]),
                EvalJob::new(bench.clone()).with_schemes([names::GLOBAL]),
                EvalJob::new(bench.clone()).with_schemes([names::PID]),
            ]
        };
        let evaluator = Evaluator::builder().build();
        let batch = EvalJob::batch(jobs()).expect("one benchmark");
        let err = evaluator.submit_batch(batch).collect().unwrap_err();
        assert!(matches!(err, McdError::UnknownScheme(name) if name == "bogus"));

        // Per-member streaming still delivered the healthy members' results,
        // from one pass holding only their lanes.
        let evaluator = Evaluator::builder().build();
        let stream = evaluator.submit_batch(EvalJob::batch(jobs()).expect("one benchmark"));
        let ids = stream.jobs().to_vec();
        let mut completed: HashMap<JobId, BenchmarkEvaluation> = HashMap::new();
        let mut failed: HashMap<JobId, McdError> = HashMap::new();
        for event in stream {
            match event {
                EvalEvent::JobCompleted { job, evaluation } => {
                    completed.insert(job, evaluation);
                }
                EvalEvent::JobFailed { job, error, .. } => {
                    failed.insert(job, error);
                }
                _ => {}
            }
        }
        assert!(matches!(failed[&ids[1]], McdError::UnknownScheme(_)));
        assert!(matches!(
            failed[&ids[2]],
            McdError::MissingDependency { .. }
        ));
        assert_eq!((completed.len(), failed.len()), (2, 2));
        let lone = lone_results(vec![jobs().remove(0), jobs().remove(3)]);
        assert_same_evaluation(&completed[&ids[0]], &lone[0]);
        assert_same_evaluation(&completed[&ids[3]], &lone[1]);
        let stats = evaluator.batch_stats();
        assert_eq!((stats.passes, stats.lanes), (1, 2));
    }

    #[test]
    fn panic_payloads_map_to_the_right_error_variant() {
        assert_eq!(
            panic_error(Box::new(InjectedPanic)),
            McdError::Fault {
                site: FaultSite::WorkerPanic
            }
        );
        assert_eq!(
            panic_error(Box::new("boom")),
            McdError::Panic("boom".into())
        );
        assert_eq!(
            panic_error(Box::new(String::from("kaboom"))),
            McdError::Panic("kaboom".into())
        );
        assert_eq!(
            panic_error(Box::new(42u32)),
            McdError::Panic("opaque panic payload".into())
        );
    }

    /// A worker-panic config whose first draw fires and whose next `clean`
    /// draws do not — deterministic, found by probing seeds.
    fn fire_then_clean_panics(clean: usize) -> crate::fault::FaultConfig {
        use crate::fault::FaultConfig;
        let config = |seed| {
            FaultConfig {
                seed,
                ..FaultConfig::default()
            }
            .with_probability(FaultSite::WorkerPanic, 0.5)
        };
        let seed = (0..10_000)
            .find(|&s| {
                let probe = FaultPlan::new(config(s));
                probe.should(FaultSite::WorkerPanic)
                    && (0..clean).all(|_| !probe.should(FaultSite::WorkerPanic))
            })
            .expect("a fire-then-clean seed exists");
        config(seed)
    }

    #[test]
    fn a_panicking_job_fails_alone_and_the_worker_keeps_serving() {
        use crate::scheme::names;
        let bench = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        // One worker processes the jobs in order: the first draw injects a
        // panic, the second job must still complete on the same thread.
        let evaluator = Evaluator::builder()
            .workers(1)
            .faults(Arc::new(FaultPlan::new(fire_then_clean_panics(1))))
            .build();
        let stream = evaluator.submit_all(vec![
            EvalJob::new(bench.clone()).with_schemes([names::ONLINE]),
            EvalJob::new(bench.clone()).with_schemes([names::ONLINE]),
        ]);
        let mut failures = Vec::new();
        let mut completed = 0;
        for event in stream {
            match event {
                EvalEvent::JobFailed { error, .. } => failures.push(error),
                EvalEvent::JobCompleted { .. } => completed += 1,
                _ => {}
            }
        }
        assert_eq!(
            failures,
            vec![McdError::Fault {
                site: FaultSite::WorkerPanic
            }],
            "the injected panic is reported as a Fault, not a generic Panic"
        );
        assert_eq!(completed, 1, "the worker survived and served the next job");
    }

    #[test]
    fn batch_member_panics_are_isolated_to_the_member() {
        use crate::scheme::names;
        let bench = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        let evaluator = Evaluator::builder()
            .workers(1)
            .faults(Arc::new(FaultPlan::new(fire_then_clean_panics(2))))
            .build();
        // The first member draws the injected panic just before its lanes
        // are prepared; it must contribute none of them to the pass.
        let jobs = || {
            vec![
                EvalJob::new(bench.clone()).with_schemes([names::ONLINE, names::PID]),
                EvalJob::new(bench.clone()).with_schemes([names::ONLINE]),
                EvalJob::new(bench.clone()).with_schemes([names::SYSSCALE]),
            ]
        };
        let batch = EvalJob::batch(jobs()).expect("one benchmark");
        let stream = evaluator.submit_batch(batch);
        let jobs_ids = stream.jobs().to_vec();
        let mut terminal_by_job: HashMap<JobId, u32> = HashMap::new();
        let mut faults = Vec::new();
        let mut completed: HashMap<JobId, BenchmarkEvaluation> = HashMap::new();
        for event in stream {
            if event.is_terminal() {
                *terminal_by_job.entry(event.job()).or_default() += 1;
            }
            match event {
                EvalEvent::JobFailed { job, error, .. } => {
                    assert_eq!(
                        error,
                        McdError::Fault {
                            site: FaultSite::WorkerPanic
                        }
                    );
                    faults.push(job);
                }
                EvalEvent::JobCompleted { job, evaluation } => {
                    completed.insert(job, evaluation);
                }
                _ => {}
            }
        }
        assert_eq!(faults, vec![jobs_ids[0]]);
        assert_eq!(completed.len(), 2);
        // Every member reached exactly one terminal event.
        for job in &jobs_ids {
            assert_eq!(terminal_by_job.get(job), Some(&1));
        }
        // The survivors shared one pass of their own two lanes and match
        // their lone results.
        let stats = evaluator.batch_stats();
        assert_eq!((stats.passes, stats.lanes), (1, 2));
        let lone = lone_results(jobs().split_off(1));
        assert_same_evaluation(&completed[&jobs_ids[1]], &lone[0]);
        assert_same_evaluation(&completed[&jobs_ids[2]], &lone[1]);
    }

    #[test]
    fn baseline_keys_separate_benchmarks_and_machines() {
        let a = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        let b = mcd_workloads::suite::benchmark("gsm decode").unwrap();
        let machine = MachineConfig::default();
        assert_eq!(baseline_key(&a, &machine), baseline_key(&a, &machine));
        assert_ne!(baseline_key(&a, &machine), baseline_key(&b, &machine));
        let reseeded = machine.to_builder().seed(7).build().expect("valid");
        assert_ne!(baseline_key(&a, &machine), baseline_key(&a, &reseeded));
    }
}
