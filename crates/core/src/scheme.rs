//! The [`DvfsScheme`] abstraction: every reconfiguration scheme the paper
//! compares — profile-driven, off-line oracle, on-line attack–decay, and
//! global DVS — implemented behind one trait so the evaluation pipeline can
//! iterate a registry instead of hard-coding each comparison point.
//!
//! A scheme receives a [`SchemeContext`] describing one benchmark run: the
//! benchmark itself, the machine model, the pre-generated reference trace, the
//! full-speed MCD baseline statistics, and the outcomes of schemes that ran
//! earlier in the registry (the global-DVS baseline uses this to match the
//! off-line oracle's run time). Schemes drive the shared simulator through
//! [`SimHooks`] — [`SchemeContext::simulate`] is the common path — and report
//! the controlled run's [`SimStats`].

use crate::artifact::{
    self, ArtifactCache, ArtifactKey, TrainingArtifact, TrainingHistogramsArtifact,
};
use crate::error::McdError;
use crate::evaluation::{EvaluationConfig, SchemeResult};
use crate::global_dvs::run_global_dvs;
use crate::histogram::RegionHistograms;
use crate::learned::{LearnedConfig, LearnedPolicy, LearnedTable};
use crate::offline::{OfflineConfig, OfflineSchedule};
use crate::online::{OnlineConfig, OnlineController};
use crate::pid::{PidConfig, PidController};
use crate::pipeline::schedule::{self, ScheduleHooks};
use crate::pipeline::{threshold_windows, AnalysisPipeline};
use crate::profile::{
    self, instrumentation_plan, train, train_with_histograms, ProfilePlan, TrainingConfig,
};
use crate::sysscale::{SysScaleConfig, SysScaleController};
use mcd_profiling::edit::InstrumentationPlan;
use mcd_sim::config::MachineConfig;
use mcd_sim::simulator::{NullHooks, SimHooks, Simulator};
use mcd_sim::stats::SimStats;
use mcd_sim::trace::PackedTrace;
use mcd_workloads::suite::Benchmark;
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Canonical scheme names used by the standard registry.
pub mod names {
    /// The off-line oracle with perfect future knowledge.
    pub const OFFLINE: &str = "offline";
    /// The on-line attack–decay hardware controller.
    pub const ONLINE: &str = "online";
    /// Profile-driven reconfiguration (the paper's contribution).
    pub const PROFILE: &str = "profile";
    /// The whole-chip dynamic voltage scaling baseline.
    pub const GLOBAL: &str = "global";
    /// The PID queue-occupancy controller (controller zoo).
    pub const PID: &str = "pid";
    /// The SysScale-style shared-budget controller (controller zoo).
    pub const SYSSCALE: &str = "sysscale";
    /// The table-driven learned policy (controller zoo).
    pub const LEARNED: &str = "learned";

    /// The controller-zoo scheme names, in full-registry order.
    pub const ZOO: [&str; 3] = [PID, SYSSCALE, LEARNED];
}

/// Everything a scheme needs to evaluate one benchmark.
#[derive(Debug)]
pub struct SchemeContext<'a> {
    /// The benchmark under evaluation (program model plus input pair).
    pub benchmark: &'a Benchmark,
    /// The machine model shared by every scheme in the comparison.
    pub machine: &'a MachineConfig,
    /// The reference-input trace, generated once per benchmark in the packed
    /// encoding. Callers that build a context by hand must pass the canonical
    /// `generate_packed(&benchmark.program, &benchmark.inputs.reference)`
    /// output; cache keys assume the trace is determined by the benchmark and
    /// input (plus the trace length, which guards against truncation).
    pub reference_trace: &'a PackedTrace,
    /// Full-speed MCD baseline statistics on the reference trace.
    pub baseline: &'a SimStats,
    /// Outcomes of the schemes that ran earlier in the registry.
    pub prior: &'a [SchemeOutcome],
}

impl SchemeContext<'_> {
    /// The outcome of an earlier scheme by name, if it ran.
    pub fn prior_outcome(&self, name: &str) -> Option<&SchemeOutcome> {
        self.prior.iter().find(|o| o.name == name)
    }

    /// Runs the reference trace under `hooks` on the shared machine model —
    /// the common controlled-simulation path every scheme uses.
    pub fn simulate(&self, hooks: &mut dyn SimHooks) -> SimStats {
        Simulator::new(self.machine.clone())
            .run(self.reference_trace.iter(), hooks, false)
            .stats
    }
}

/// The result of one scheme on one benchmark, tagged with the scheme identity.
#[derive(Debug, Clone)]
pub struct SchemeOutcome {
    /// Canonical scheme name (see [`names`]).
    pub name: String,
    /// Human-readable label used in tables and figures.
    pub label: String,
    /// Controlled-run statistics and metrics relative to the MCD baseline.
    pub result: SchemeResult,
}

/// One DVFS control scheme in the paper's comparison.
///
/// Implementations are registered in a `Vec<Box<dyn DvfsScheme>>` and run in
/// order by [`crate::evaluation::evaluate_with_registry`]; schemes whose
/// definition depends on another scheme's result (global DVS matches the
/// off-line run time) read it from [`SchemeContext::prior`].
pub trait DvfsScheme: fmt::Debug + Send + Sync {
    /// Canonical machine-readable name, unique within a registry.
    fn name(&self) -> &'static str;

    /// Human-readable label for tables and figures.
    fn label(&self) -> String {
        self.name().to_string()
    }

    /// Absorbs the shared evaluation configuration (slowdown targets, context
    /// policy, controller tuning) before any benchmark runs.
    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        let _ = config;
        Ok(())
    }

    /// Evaluates the scheme on one benchmark, returning the controlled run's
    /// statistics. Implementations normally build their [`SimHooks`] and call
    /// [`SchemeContext::simulate`].
    fn run(&self, ctx: &SchemeContext<'_>) -> Result<SimStats, McdError>;

    /// The scheme as [`Any`], for schemes that support batched (multi-lane)
    /// execution in the [`Evaluator`](crate::service::Evaluator): the batch
    /// worker downcasts to the concrete type to prepare the scheme's lane of
    /// the batch's trace pass. The default (`None`) makes the scheme run on
    /// its own after the pass, which is always correct — batching is purely
    /// a wall-clock optimization.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }
}

/// The off-line oracle scheme (perfect knowledge of the reference run).
///
/// The expensive analysis runs through the staged
/// [`AnalysisPipeline`](crate::pipeline::AnalysisPipeline): the per-window
/// shaker/threshold stage fans out across `parallelism` worker threads, and
/// the resulting schedule is stored in (and transparently reused from) the
/// artifact cache, keyed by `(benchmark, input, machine, config)`.
#[derive(Debug, Clone)]
pub struct OfflineScheme {
    /// Oracle parameters (slowdown target, window length, shaker tuning).
    pub config: OfflineConfig,
    /// Worker threads for the per-window analysis stage (results are
    /// bit-identical for any value; see the pipeline docs).
    pub parallelism: usize,
    /// Artifact cache consulted before analysing and updated after. The
    /// default is a disabled cache (always recompute).
    pub cache: Arc<ArtifactCache>,
}

impl Default for OfflineScheme {
    fn default() -> Self {
        OfflineScheme {
            config: OfflineConfig::default(),
            parallelism: 1,
            cache: Arc::new(ArtifactCache::disabled()),
        }
    }
}

impl DvfsScheme for OfflineScheme {
    fn name(&self) -> &'static str {
        names::OFFLINE
    }

    fn label(&self) -> String {
        "off-line".to_string()
    }

    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        self.config = config.offline;
        self.parallelism = config.parallelism.max(1);
        self.cache = config.cache.clone();
        Ok(())
    }

    fn run(&self, ctx: &SchemeContext<'_>) -> Result<SimStats, McdError> {
        // One simulator serves the capture (on a cache miss) and the replay.
        let simulator = Simulator::new(ctx.machine.clone());
        let schedule = self.schedule_for(ctx, &simulator);
        Ok(schedule::replay_with(
            &simulator,
            ctx.reference_trace,
            &schedule,
            self.config.window_instructions.max(1),
        ))
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

impl OfflineScheme {
    /// Obtains the per-window schedule with a three-level fallback:
    ///
    /// 1. a cached schedule for this exact config replays directly;
    /// 2. cached per-window histograms (keyed *without* the slowdown target)
    ///    re-threshold in microseconds — a slowdown-only sweep point skips
    ///    capture, DAG construction, and shaking entirely;
    /// 3. otherwise the full pipeline runs, persisting both artifacts.
    fn schedule_for(&self, ctx: &SchemeContext<'_>, simulator: &Simulator) -> OfflineSchedule {
        let key = artifact::offline_schedule_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.reference,
            ctx.reference_trace.len() as u64,
            ctx.machine,
            &self.config,
        );
        if let Some(schedule) = self.cache.load_schedule(&key) {
            return schedule;
        }
        if !self.cache.is_enabled() {
            // No cache to feed: skip histogram collection on the capture path.
            return AnalysisPipeline::new(self.config)
                .with_parallelism(self.parallelism)
                .analyze_with(simulator, ctx.reference_trace);
        }
        // Single-writer publication: lock the schedule key, then re-check —
        // a concurrent process may have published it while we waited. Every
        // store below happens under a lock after a confirmed miss, so N cold
        // processes sharing this cache write each key exactly once.
        let _schedule_lock = self.cache.lock_publication(&key);
        if let Some(schedule) = self.cache.recheck_schedule(&key) {
            return schedule;
        }
        let grid = &ctx.machine.grid;
        let histograms_key = artifact::window_histograms_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.reference,
            ctx.reference_trace.len() as u64,
            ctx.machine,
            &self.config,
        );
        if let Some(windows) = self.cache.load_window_histograms(&histograms_key, grid) {
            let schedule = threshold_windows(&windows, self.config.slowdown, grid);
            self.cache.store_schedule(&key, &schedule);
            return schedule;
        }
        // Lock order is always schedule key → histograms key, so concurrent
        // sweep points (distinct schedule keys, one shared histograms key)
        // cannot deadlock.
        let _histograms_lock = self.cache.lock_publication(&histograms_key);
        if let Some(windows) = self.cache.recheck_window_histograms(&histograms_key, grid) {
            let schedule = threshold_windows(&windows, self.config.slowdown, grid);
            self.cache.store_schedule(&key, &schedule);
            return schedule;
        }
        let (schedule, windows, _) = AnalysisPipeline::new(self.config)
            .with_parallelism(self.parallelism)
            .analyze_with_histograms(simulator, ctx.reference_trace);
        self.cache
            .store_window_histograms(&histograms_key, &windows, grid);
        self.cache.store_schedule(&key, &schedule);
        schedule
    }

    /// [`OfflineScheme::schedule_for`] with an additional in-memory histogram
    /// pool shared across the members of one batch: members whose configs
    /// differ only in the slowdown target share one capture/DAG/shaker pass
    /// even when the on-disk cache is disabled. The resulting schedules are
    /// bit-identical to [`OfflineScheme::schedule_for`]'s.
    fn schedule_for_batched(
        &self,
        ctx: &SchemeContext<'_>,
        simulator: &Simulator,
        pool: &mut BatchPool,
    ) -> OfflineSchedule {
        let key = artifact::offline_schedule_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.reference,
            ctx.reference_trace.len() as u64,
            ctx.machine,
            &self.config,
        );
        if let Some(schedule) = self.cache.load_schedule(&key) {
            return schedule;
        }
        // Same single-writer publication protocol (and lock order) as
        // `schedule_for`; for a disabled cache the lock degenerates to `None`
        // and the loads/stores below to no-ops, leaving the pool sharing.
        let _schedule_lock = self.cache.lock_publication(&key);
        if let Some(schedule) = self.cache.recheck_schedule(&key) {
            return schedule;
        }
        let grid = &ctx.machine.grid;
        let histograms_key = artifact::window_histograms_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.reference,
            ctx.reference_trace.len() as u64,
            ctx.machine,
            &self.config,
        );
        if let Some(windows) = pool.windows.get(&histograms_key) {
            let schedule = threshold_windows(windows, self.config.slowdown, grid);
            self.cache.store_schedule(&key, &schedule);
            return schedule;
        }
        if let Some(windows) = self.cache.load_window_histograms(&histograms_key, grid) {
            let schedule = threshold_windows(&windows, self.config.slowdown, grid);
            pool.windows.insert(histograms_key, windows);
            self.cache.store_schedule(&key, &schedule);
            return schedule;
        }
        let _histograms_lock = self.cache.lock_publication(&histograms_key);
        if let Some(windows) = self.cache.recheck_window_histograms(&histograms_key, grid) {
            let schedule = threshold_windows(&windows, self.config.slowdown, grid);
            pool.windows.insert(histograms_key, windows);
            self.cache.store_schedule(&key, &schedule);
            return schedule;
        }
        let (schedule, windows, _) = AnalysisPipeline::new(self.config)
            .with_parallelism(self.parallelism)
            .analyze_with_histograms(simulator, ctx.reference_trace);
        self.cache
            .store_window_histograms(&histograms_key, &windows, grid);
        self.cache.store_schedule(&key, &schedule);
        pool.windows.insert(histograms_key, windows);
        schedule
    }
}

/// The on-line attack–decay controller scheme.
#[derive(Debug, Clone, Default)]
pub struct OnlineScheme {
    /// Controller tuning parameters.
    pub config: OnlineConfig,
}

impl DvfsScheme for OnlineScheme {
    fn name(&self) -> &'static str {
        names::ONLINE
    }

    fn label(&self) -> String {
        "on-line".to_string()
    }

    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        self.config = config.online;
        Ok(())
    }

    fn run(&self, ctx: &SchemeContext<'_>) -> Result<SimStats, McdError> {
        // A fresh controller per run keeps evaluations order-independent.
        let mut controller = OnlineController::new(self.config);
        Ok(ctx.simulate(&mut controller))
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// The profile-driven reconfiguration scheme (the paper's contribution).
///
/// The expensive training phases (the full-speed recording run plus the
/// per-region shaker) are stored in the artifact cache; on a warm hit only
/// the cheap, deterministic instrumentation phase is rebuilt around the
/// cached frequency table.
#[derive(Debug, Clone)]
pub struct ProfileScheme {
    /// Training parameters (context policy, slowdown target, thresholds).
    pub config: TrainingConfig,
    /// Artifact cache consulted before training and updated after. The
    /// default is a disabled cache (always retrain).
    pub cache: Arc<ArtifactCache>,
}

impl Default for ProfileScheme {
    fn default() -> Self {
        ProfileScheme {
            config: TrainingConfig::default(),
            cache: Arc::new(ArtifactCache::disabled()),
        }
    }
}

impl ProfileScheme {
    /// Obtains the training plan with a three-level fallback:
    ///
    /// 1. a cached frequency table for this exact config rebuilds the cheap
    ///    instrumentation plan around it;
    /// 2. cached per-key training histograms (keyed *without* the slowdown
    ///    target) re-threshold the table in microseconds — a slowdown-only
    ///    sweep point skips the recording run and the shaker;
    /// 3. otherwise training runs in full, persisting both artifacts.
    fn plan_for(&self, ctx: &SchemeContext<'_>) -> ProfilePlan {
        let key = self.plan_key(ctx);
        if let Some(cached) = self.cache.load_training(&key) {
            return self.cached_plan(ctx, cached);
        }
        if !self.cache.is_enabled() {
            return train(
                &ctx.benchmark.program,
                &ctx.benchmark.inputs.training,
                ctx.machine,
                &self.config,
            );
        }
        // Single-writer publication, lock order plan key → histograms key
        // (mirroring the off-line scheme's schedule → histograms).
        let _plan_lock = self.cache.lock_publication(&key);
        if let Some(cached) = self.cache.recheck_training(&key) {
            return self.cached_plan(ctx, cached);
        }
        let grid = &ctx.machine.grid;
        let histograms_key = artifact::training_histograms_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.training,
            ctx.machine,
            &self.config,
        );
        if let Some(cached) = self.cache.load_training_histograms(&histograms_key, grid) {
            return self.thresholded_plan(ctx, &key, self.instrumentation(ctx), &cached);
        }
        let _histograms_lock = self.cache.lock_publication(&histograms_key);
        if let Some(cached) = self
            .cache
            .recheck_training_histograms(&histograms_key, grid)
        {
            return self.thresholded_plan(ctx, &key, self.instrumentation(ctx), &cached);
        }
        let (plan, entries) = train_with_histograms(
            &ctx.benchmark.program,
            &ctx.benchmark.inputs.training,
            ctx.machine,
            &self.config,
        );
        self.cache.store_training_histograms(
            &histograms_key,
            &TrainingHistogramsArtifact::from_entries(entries, plan.training_stats.clone()),
            grid,
        );
        self.cache.store_training(
            &key,
            &TrainingArtifact::from_table(&plan.table, plan.training_stats.clone()),
        );
        plan
    }

    /// [`ProfileScheme::plan_for`] drawing the recording run, the shaker and
    /// the instrumentation plan from the batch's training pool, which the
    /// learned scheme shares: members whose configs differ only in the
    /// slowdown target train once even when the on-disk cache is disabled.
    /// The resulting plans are bit-identical to [`ProfileScheme::plan_for`]'s.
    fn plan_for_batched(&self, ctx: &SchemeContext<'_>, pool: &mut BatchPool) -> ProfilePlan {
        let key = self.plan_key(ctx);
        if let Some(cached) = self.cache.load_training(&key) {
            return self.cached_plan(ctx, cached);
        }
        // Same plan → histograms lock order as `plan_for` (the pool takes the
        // histograms lock). A disabled cache yields `None` guards and no-op
        // stores.
        let _plan_lock = self.cache.lock_publication(&key);
        if let Some(cached) = self.cache.recheck_training(&key) {
            return self.cached_plan(ctx, cached);
        }
        let training = pool.training(ctx, &self.config, &self.cache);
        let instrumentation = training
            .instrumentation
            .get_or_insert_with(|| self.instrumentation(ctx))
            .clone();
        self.thresholded_plan(ctx, &key, instrumentation, &training.artifact)
    }

    fn plan_key(&self, ctx: &SchemeContext<'_>) -> ArtifactKey {
        artifact::training_plan_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.training,
            ctx.machine,
            &self.config,
        )
    }

    /// Rebuilds the cheap, deterministic phase-1 plan on the training input;
    /// the node keys it assigns match the ones cached tables were recorded
    /// under.
    fn instrumentation(&self, ctx: &SchemeContext<'_>) -> InstrumentationPlan {
        let trace = mcd_workloads::generator::generate_packed(
            &ctx.benchmark.program,
            &ctx.benchmark.inputs.training,
        );
        instrumentation_plan(&trace, &self.config)
    }

    /// The plan around a cached frequency table.
    fn cached_plan(&self, ctx: &SchemeContext<'_>, cached: TrainingArtifact) -> ProfilePlan {
        ProfilePlan {
            instrumentation: self.instrumentation(ctx),
            table: cached.to_table(),
            training_stats: cached.training_stats,
        }
    }

    /// Thresholds training histograms into this config's plan and publishes
    /// its frequency table under `key`.
    fn thresholded_plan(
        &self,
        ctx: &SchemeContext<'_>,
        key: &ArtifactKey,
        instrumentation: InstrumentationPlan,
        histograms: &TrainingHistogramsArtifact,
    ) -> ProfilePlan {
        let plan = ProfilePlan {
            instrumentation,
            table: profile::threshold_table(
                &histograms.entries,
                self.config.slowdown,
                &ctx.machine.grid,
            ),
            training_stats: histograms.training_stats.clone(),
        };
        self.cache.store_training(
            key,
            &TrainingArtifact::from_table(&plan.table, plan.training_stats.clone()),
        );
        plan
    }
}

impl DvfsScheme for ProfileScheme {
    fn name(&self) -> &'static str {
        names::PROFILE
    }

    fn label(&self) -> String {
        format!("profile {}", self.config.policy.abbreviation())
    }

    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        self.config = config.training;
        self.cache = config.cache.clone();
        Ok(())
    }

    fn run(&self, ctx: &SchemeContext<'_>) -> Result<SimStats, McdError> {
        let plan = self.plan_for(ctx);
        let mut hooks = plan.hooks();
        Ok(ctx.simulate(&mut hooks))
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// The global (whole-chip) DVS baseline, matched to another scheme's run time.
#[derive(Debug, Clone)]
pub struct GlobalDvsScheme {
    /// The scheme whose run time the uniform frequency is chosen to match
    /// (the paper matches the off-line oracle).
    pub match_scheme: &'static str,
}

impl Default for GlobalDvsScheme {
    fn default() -> Self {
        GlobalDvsScheme {
            match_scheme: names::OFFLINE,
        }
    }
}

impl DvfsScheme for GlobalDvsScheme {
    fn name(&self) -> &'static str {
        names::GLOBAL
    }

    fn label(&self) -> String {
        "global".to_string()
    }

    fn run(&self, ctx: &SchemeContext<'_>) -> Result<SimStats, McdError> {
        let matched =
            ctx.prior_outcome(self.match_scheme)
                .ok_or_else(|| McdError::MissingDependency {
                    scheme: self.name().to_string(),
                    requires: self.match_scheme.to_string(),
                })?;
        let result = run_global_dvs(
            ctx.reference_trace,
            ctx.machine,
            ctx.baseline.run_time.as_ns(),
            matched.result.stats.run_time.as_ns(),
        );
        Ok(result.stats)
    }
}

/// The PID queue-occupancy controller scheme (controller zoo).
#[derive(Debug, Clone, Default)]
pub struct PidScheme {
    /// Controller tuning parameters.
    pub config: PidConfig,
}

impl DvfsScheme for PidScheme {
    fn name(&self) -> &'static str {
        names::PID
    }

    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        self.config = config.pid;
        Ok(())
    }

    fn run(&self, ctx: &SchemeContext<'_>) -> Result<SimStats, McdError> {
        // A fresh controller per run keeps evaluations order-independent.
        let mut controller = PidController::new(self.config);
        Ok(ctx.simulate(&mut controller))
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// The SysScale-style shared-budget controller scheme (controller zoo).
#[derive(Debug, Clone, Default)]
pub struct SysScaleScheme {
    /// Controller tuning parameters.
    pub config: SysScaleConfig,
}

impl DvfsScheme for SysScaleScheme {
    fn name(&self) -> &'static str {
        names::SYSSCALE
    }

    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        self.config = config.sysscale;
        Ok(())
    }

    fn run(&self, ctx: &SchemeContext<'_>) -> Result<SimStats, McdError> {
        let mut controller = SysScaleController::new(
            self.config,
            ctx.machine.grid.clone(),
            ctx.machine.voltage_map.clone(),
        );
        Ok(ctx.simulate(&mut controller))
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// The table-driven learned policy scheme (controller zoo).
///
/// Training reuses the profile pipeline's capture artifacts: the per-region
/// histograms recorded on the training input (the slowdown-free
/// `training_histograms` cache entry the profile scheme also feeds on) are
/// turned into a feature → frequency lookup table. A warm cache makes
/// training a pure table rebuild; a cold run records once and publishes the
/// artifact for the profile scheme to reuse, and vice versa.
#[derive(Debug, Clone)]
pub struct LearnedScheme {
    /// Table-policy parameters (feature quantization, slowdown target).
    pub config: LearnedConfig,
    /// Training parameters shared with the profile pipeline (context policy,
    /// thresholds) — they shape the recorded regions the table learns from.
    pub training: TrainingConfig,
    /// Artifact cache consulted for recorded histograms and updated after a
    /// cold recording run. The default is a disabled cache (always record).
    pub cache: Arc<ArtifactCache>,
}

impl Default for LearnedScheme {
    fn default() -> Self {
        LearnedScheme {
            config: LearnedConfig::default(),
            training: TrainingConfig::default(),
            cache: Arc::new(ArtifactCache::disabled()),
        }
    }
}

impl LearnedScheme {
    /// Obtains the trained lookup table from the training `pool`'s entry for
    /// this benchmark, which the profile scheme shares: a cached histograms
    /// artifact rebuilds the table in microseconds; otherwise the profile
    /// pipeline's recording run captures the histograms (publishing them for
    /// the profile scheme to reuse). The table is always built from the
    /// artifact's canonicalized entry order, so cached and freshly-recorded
    /// tables are bit-identical. A lone run passes an empty pool.
    fn table_for(&self, ctx: &SchemeContext<'_>, pool: &mut BatchPool) -> LearnedTable {
        let training = pool.training(ctx, &self.training, &self.cache);
        LearnedTable::from_training(&training.artifact.entries, &self.config, &ctx.machine.grid)
    }
}

impl DvfsScheme for LearnedScheme {
    fn name(&self) -> &'static str {
        names::LEARNED
    }

    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        self.config = config.learned;
        self.training = config.training;
        self.cache = config.cache.clone();
        Ok(())
    }

    fn run(&self, ctx: &SchemeContext<'_>) -> Result<SimStats, McdError> {
        let table = self.table_for(ctx, &mut BatchPool::default());
        let mut policy = LearnedPolicy::new(&self.config, table);
        Ok(ctx.simulate(&mut policy))
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// The in-memory artifacts the members of one batch share, keyed like their
/// cache artifacts (without the slowdown target), so a batch pays for each
/// capture and each training run at most once even with the artifact cache
/// disabled. The evaluator drops the pool before the batch's trace pass.
#[derive(Debug, Default)]
pub(crate) struct BatchPool {
    /// Off-line capture histograms, by `window_histograms_key`.
    windows: HashMap<ArtifactKey, Vec<Option<RegionHistograms>>>,
    /// Profile training, by `training_histograms_key`; the profile and the
    /// learned schemes draw on the same entry.
    pub(crate) training: HashMap<ArtifactKey, SharedTraining>,
}

/// One batch's share of profile training: the (slowdown-free) histograms
/// artifact plus the instrumentation plan, both identical for every scheme
/// whose `training_histograms_key` matches.
#[derive(Debug)]
pub(crate) struct SharedTraining {
    /// Kept from the recording run; built on first use when the histograms
    /// came from the artifact cache.
    instrumentation: Option<InstrumentationPlan>,
    pub(crate) artifact: Arc<TrainingHistogramsArtifact>,
}

impl BatchPool {
    /// The pool's training for `config` on `ctx`'s benchmark: pooled, else
    /// loaded from the artifact cache, else one recording run whose
    /// histograms are published under the single-writer protocol.
    fn training(
        &mut self,
        ctx: &SchemeContext<'_>,
        config: &TrainingConfig,
        cache: &ArtifactCache,
    ) -> &mut SharedTraining {
        let key = artifact::training_histograms_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.training,
            ctx.machine,
            config,
        );
        self.training.entry(key).or_insert_with(|| {
            let grid = &ctx.machine.grid;
            let loaded = |artifact| SharedTraining {
                instrumentation: None,
                artifact: Arc::new(artifact),
            };
            if let Some(cached) = cache.load_training_histograms(&key, grid) {
                return loaded(cached);
            }
            let _lock = cache.lock_publication(&key);
            if let Some(cached) = cache.recheck_training_histograms(&key, grid) {
                return loaded(cached);
            }
            let (plan, entries) = train_with_histograms(
                &ctx.benchmark.program,
                &ctx.benchmark.inputs.training,
                ctx.machine,
                config,
            );
            let artifact = TrainingHistogramsArtifact::from_entries(entries, plan.training_stats);
            cache.store_training_histograms(&key, &artifact, grid);
            SharedTraining {
                instrumentation: Some(plan.instrumentation),
                artifact: Arc::new(artifact),
            }
        })
    }
}

/// One scheme's lane in a batch's trace pass, prepared before the pass.
pub(crate) enum Lane {
    /// The off-line oracle's schedule and its window length.
    Schedule(OfflineSchedule, u64),
    /// The profile scheme's trained plan.
    Plan(Box<ProfilePlan>),
    /// A controller that is its own hooks: on-line, PID, SysScale or the
    /// learned table.
    Controller(Box<dyn SimHooks>),
}

impl Lane {
    /// Prepares `scheme`'s lane on `ctx` as the scheme's own `run` would,
    /// drawing capture and training from `pool`. `None` for a scheme without
    /// a lane — global DVS, which needs another scheme's outcome — which then
    /// runs on its own after the pass.
    pub(crate) fn prepare(
        scheme: &dyn DvfsScheme,
        ctx: &SchemeContext<'_>,
        simulator: &Simulator,
        pool: &mut BatchPool,
    ) -> Option<Lane> {
        let scheme = scheme.as_any()?;
        if let Some(offline) = scheme.downcast_ref::<OfflineScheme>() {
            let schedule = offline.schedule_for_batched(ctx, simulator, pool);
            let window = offline.config.window_instructions.max(1);
            return Some(Lane::Schedule(schedule, window));
        }
        if let Some(profile) = scheme.downcast_ref::<ProfileScheme>() {
            return Some(Lane::Plan(Box::new(profile.plan_for_batched(ctx, pool))));
        }
        // A fresh controller per lane, as in each scheme's `run`.
        let controller: Box<dyn SimHooks> =
            if let Some(online) = scheme.downcast_ref::<OnlineScheme>() {
                Box::new(OnlineController::new(online.config))
            } else if let Some(pid) = scheme.downcast_ref::<PidScheme>() {
                Box::new(PidController::new(pid.config))
            } else if let Some(sysscale) = scheme.downcast_ref::<SysScaleScheme>() {
                Box::new(SysScaleController::new(
                    sysscale.config,
                    ctx.machine.grid.clone(),
                    ctx.machine.voltage_map.clone(),
                ))
            } else {
                let learned = scheme.downcast_ref::<LearnedScheme>()?;
                Box::new(LearnedPolicy::new(
                    &learned.config,
                    learned.table_for(ctx, pool),
                ))
            };
        Some(Lane::Controller(controller))
    }

    /// The hooks that drive this lane through the pass. A controller lane
    /// hands its controller over, so each lane yields its hooks once.
    pub(crate) fn hooks(&mut self) -> Box<dyn SimHooks + '_> {
        match self {
            Lane::Schedule(schedule, window) => Box::new(ScheduleHooks::new(schedule, *window)),
            Lane::Plan(plan) => Box::new(plan.hooks()),
            Lane::Controller(controller) => std::mem::replace(controller, Box::new(NullHooks)),
        }
    }
}

/// An ordered scheme registry that rejects duplicate names — the same
/// shadowing protection [`mcd_workloads::suite::Registry`] applies to
/// benchmark names, applied to schemes. Names are the identity the
/// evaluator's batch families, result tables, and lookups key on, so a
/// second registration under an existing name is an
/// [`McdError::DuplicateScheme`] instead of a silent shadow.
#[derive(Debug, Default)]
pub struct SchemeRegistry {
    schemes: Vec<Box<dyn DvfsScheme>>,
}

impl SchemeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        SchemeRegistry::default()
    }

    /// Registers a scheme, rejecting a name collision (case-insensitive, so
    /// `PID` cannot shadow `pid` in tables that fold case).
    pub fn register(&mut self, scheme: Box<dyn DvfsScheme>) -> Result<(), McdError> {
        if self
            .schemes
            .iter()
            .any(|s| s.name().eq_ignore_ascii_case(scheme.name()))
        {
            return Err(McdError::DuplicateScheme(scheme.name().to_string()));
        }
        self.schemes.push(scheme);
        Ok(())
    }

    /// Number of registered schemes.
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// Whether the registry holds no schemes.
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }

    /// The registered scheme names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.schemes.iter().map(|s| s.name()).collect()
    }

    /// Consumes the registry, yielding the schemes in registration order for
    /// [`crate::evaluation::evaluate_with_registry`].
    pub fn into_schemes(self) -> Vec<Box<dyn DvfsScheme>> {
        self.schemes
    }
}

/// The paper's standard comparison registry, in evaluation order: off-line
/// oracle, on-line controller, profile-driven, and (optionally) global DVS.
pub fn standard_registry(include_global: bool) -> Vec<Box<dyn DvfsScheme>> {
    full_registry(include_global, false)
}

/// The full comparison registry: the paper's schemes, optionally the
/// controller zoo (PID, SysScale-style, learned table), and optionally the
/// global-DVS baseline last (it matches the off-line oracle's run time, so it
/// must run after `offline`). Built through [`SchemeRegistry`], whose
/// duplicate check is statically satisfied here — the names are distinct
/// constants — so the construction cannot fail.
pub fn full_registry(include_global: bool, include_zoo: bool) -> Vec<Box<dyn DvfsScheme>> {
    let mut registry = SchemeRegistry::new();
    let mut add = |scheme: Box<dyn DvfsScheme>| {
        registry
            .register(scheme)
            .expect("standard scheme names are statically unique");
    };
    add(Box::<OfflineScheme>::default());
    add(Box::<OnlineScheme>::default());
    add(Box::<ProfileScheme>::default());
    if include_zoo {
        add(Box::<PidScheme>::default());
        add(Box::<SysScaleScheme>::default());
        add(Box::<LearnedScheme>::default());
    }
    if include_global {
        add(Box::<GlobalDvsScheme>::default());
    }
    registry.into_schemes()
}

/// Builds the full registry per the config's `include_global`/`include_zoo`
/// flags and configures every scheme from `config`.
pub fn configured_registry(
    config: &EvaluationConfig,
) -> Result<Vec<Box<dyn DvfsScheme>>, McdError> {
    let mut registry = full_registry(config.include_global, config.include_zoo);
    for scheme in &mut registry {
        scheme.configure(config)?;
    }
    Ok(registry)
}

/// Builds a configured registry restricted to the named schemes, preserving
/// the standard registry order (the [`Evaluator`](crate::service::Evaluator)
/// uses this for jobs that evaluate a subset of the comparison — a sweep that
/// only reads the on-line series does not have to pay for the off-line
/// analysis).
///
/// Naming [`names::GLOBAL`] implies `include_global` regardless of the
/// config, and naming any controller-zoo scheme likewise implies
/// `include_zoo`; an unrecognised name is an [`McdError::UnknownScheme`].
/// Note that `global` matches the off-line oracle's run time, so a subset
/// containing `global` but not `offline` fails at run time with
/// [`McdError::MissingDependency`].
pub fn subset_registry(
    config: &EvaluationConfig,
    subset: &[String],
) -> Result<Vec<Box<dyn DvfsScheme>>, McdError> {
    let mut config = config.clone();
    config.include_global = config.include_global || subset.iter().any(|n| n == names::GLOBAL);
    config.include_zoo =
        config.include_zoo || subset.iter().any(|n| names::ZOO.contains(&n.as_str()));
    let full = configured_registry(&config)?;
    for name in subset {
        if !full.iter().any(|s| s.name() == name) {
            return Err(McdError::UnknownScheme(name.clone()));
        }
    }
    Ok(full
        .into_iter()
        .filter(|s| subset.iter().any(|n| n == s.name()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_contains_the_papers_schemes_in_order() {
        let registry = standard_registry(true);
        let names: Vec<&str> = registry.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![names::OFFLINE, names::ONLINE, names::PROFILE, names::GLOBAL]
        );
        let without_global = standard_registry(false);
        assert_eq!(without_global.len(), 3);
    }

    #[test]
    fn full_registry_appends_the_zoo_before_global() {
        let registry = full_registry(true, true);
        let names: Vec<&str> = registry.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                names::OFFLINE,
                names::ONLINE,
                names::PROFILE,
                names::PID,
                names::SYSSCALE,
                names::LEARNED,
                names::GLOBAL
            ]
        );
        // Zoo without global, and the paper shape with the zoo off.
        assert_eq!(full_registry(false, true).len(), 6);
        assert_eq!(full_registry(false, false).len(), 3);
    }

    #[test]
    fn scheme_registry_rejects_duplicate_names() {
        let mut registry = SchemeRegistry::new();
        registry
            .register(Box::new(OnlineScheme::default()))
            .expect("first registration succeeds");
        let err = registry
            .register(Box::new(OnlineScheme::default()))
            .unwrap_err();
        assert_eq!(err, McdError::DuplicateScheme(names::ONLINE.to_string()));
        // The failed registration did not shadow or displace the original.
        assert_eq!(registry.names(), vec![names::ONLINE]);
        assert_eq!(registry.into_schemes().len(), 1);
    }

    #[test]
    fn subset_registry_naming_a_zoo_scheme_implies_include_zoo() {
        let config = EvaluationConfig::default();
        assert!(!config.include_zoo);
        let subset =
            subset_registry(&config, &[names::PID.to_string()]).expect("zoo implied by the subset");
        assert_eq!(subset.len(), 1);
        assert_eq!(subset[0].name(), names::PID);
    }

    #[test]
    fn configure_propagates_the_shared_slowdown_target() {
        let config = EvaluationConfig::default().with_slowdown(0.11);
        let registry = configured_registry(&config).expect("standard registry configures");
        // Downcast-free check: re-run configure on concrete types.
        let mut offline = OfflineScheme::default();
        offline.configure(&config).unwrap();
        assert!((offline.config.slowdown - 0.11).abs() < 1e-12);
        let mut profile = ProfileScheme::default();
        profile.configure(&config).unwrap();
        assert!((profile.config.slowdown - 0.11).abs() < 1e-12);
        assert_eq!(registry.len(), 3);
    }

    #[test]
    fn subset_registry_preserves_order_and_rejects_unknown_names() {
        let config = EvaluationConfig::default();
        let subset = subset_registry(
            &config,
            &[names::PROFILE.to_string(), names::OFFLINE.to_string()],
        )
        .expect("known schemes");
        // Standard registry order, not request order.
        let picked: Vec<&str> = subset.iter().map(|s| s.name()).collect();
        assert_eq!(picked, vec![names::OFFLINE, names::PROFILE]);

        // Naming `global` implies include_global even when the config says no.
        let with_global = subset_registry(&config, &[names::GLOBAL.to_string()])
            .expect("global implied by the subset");
        assert_eq!(with_global.len(), 1);
        assert_eq!(with_global[0].name(), names::GLOBAL);

        let err = subset_registry(&config, &["bogus".to_string()]).unwrap_err();
        assert!(matches!(err, McdError::UnknownScheme(name) if name == "bogus"));
    }

    #[test]
    fn global_scheme_requires_its_matched_dependency() {
        let bench = mcd_workloads::suite::benchmark("adpcm decode").expect("known benchmark");
        let machine = MachineConfig::default();
        let trace =
            mcd_workloads::generator::generate_packed(&bench.program, &bench.inputs.training);
        let baseline = Simulator::new(machine.clone())
            .run(trace.iter(), &mut mcd_sim::simulator::NullHooks, false)
            .stats;
        let ctx = SchemeContext {
            benchmark: &bench,
            machine: &machine,
            reference_trace: &trace,
            baseline: &baseline,
            prior: &[],
        };
        let err = GlobalDvsScheme::default().run(&ctx).unwrap_err();
        assert!(matches!(err, McdError::MissingDependency { .. }));
    }
}
