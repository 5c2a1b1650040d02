//! The traced run: the workload once through the service (untraced, for the
//! service metrics and the coverage denominator), then a layer pass that
//! repeats the workload's work by calling each layer's public functions from
//! here, one span around each call. No tracing is added inside the program.
//!
//! Layer spans mirror what the evaluator does for the workload (one trace
//! and baseline per benchmark, one capture/DAG/shaker pass per benchmark,
//! per-target thresholding, batched lanes on `sweep_lanes`, one-lane replays
//! and artifact I/O on `serial_cached`, one `DvfsScheme::run` per scheme on
//! `tournament_cold`); their self times, over the reference run's
//! worker-busy seconds, give `traced.coverage`. Probe spans break a layer
//! span down by calling its parts separately; they repeat work, so coverage
//! leaves them out.

use crate::golden::{self, Golden};
use crate::jobs::{self, JobSpec};
use crate::measure::{median, percentile, Drain, Prepared, RunOutcome, Workload};
use crate::report::{Metrics, Report};
use crate::spans::{SpanId, Tracer};
use mcd_dvfs::artifact::{self, ArtifactCache, TrainingArtifact};
use mcd_dvfs::controller::FrequencyTable;
use mcd_dvfs::dag::DependenceDag;
use mcd_dvfs::error::McdError;
use mcd_dvfs::evaluation::{EvaluationConfig, SchemeResult};
use mcd_dvfs::histogram::RegionHistograms;
use mcd_dvfs::offline::{OfflineConfig, OfflineSchedule};
use mcd_dvfs::pipeline::capture::capture_with;
use mcd_dvfs::pipeline::schedule::{replay_with, ScheduleHooks};
use mcd_dvfs::pipeline::threshold_windows;
use mcd_dvfs::pipeline::window::slice_windows;
use mcd_dvfs::profile::{self, ProfilePlan, TrainingConfig};
use mcd_dvfs::scheme::{configured_registry, SchemeContext, SchemeOutcome};
use mcd_dvfs::shaker::Shaker;
use mcd_dvfs::threshold::SlowdownThreshold;
use mcd_profiling::{CallTree, LongRunningSet};
use mcd_sim::branch::BranchPredictor;
use mcd_sim::cache::CacheHierarchy;
use mcd_sim::config::MachineConfig;
use mcd_sim::domain::Domain;
use mcd_sim::instruction::{BranchInfo, InstrClass, TraceItem};
use mcd_sim::simulator::{NullHooks, SimHooks, Simulator};
use mcd_sim::stats::SimStats;
use mcd_sim::sync::Synchronizer;
use mcd_sim::time::TimeNs;
use mcd_sim::trace::PackedTrace;
use mcd_sim::BatchedSimulator;
use mcd_workloads::generator::generate_packed;
use mcd_workloads::suite::Benchmark;
use std::path::Path;

/// Counts gathered beside the spans.
#[derive(Debug, Default)]
struct Counts {
    instructions: u64,
    trace_bytes: u64,
    baselines: SimStats,
    functional_gap: u64,
    events: u64,
    windows: u64,
    peak_window_events: u64,
    edges: u64,
    call_tree_nodes: u64,
    long_running: u64,
    lane_instructions_1: u64,
    lane_instructions_n: u64,
    lanes_n: u64,
    read_bytes: u64,
    written_bytes: u64,
}

/// Runs the traced mode for `workload`: the reference run, the layer pass,
/// the span file and the per-layer summary under `out_dir`.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    golden: &Golden,
    out_dir: &Path,
) -> Result<Report, McdError> {
    let mut report = Report::new(workload, seed);
    let ref_dir = out_dir.join(format!("cache-ref-{}", std::process::id()));
    let mirror_dir = out_dir.join(format!("cache-mirror-{}", std::process::id()));
    let reference = Prepared::new(workload, seed, 0, workload.timed_workers(), Some(&ref_dir))?
        .run(Drain::Timed)?;
    report.attempted = reference.jobs.len();
    report.failed = reference.failed();
    let (digest, problems) = golden::check(golden, workload, seed, &reference.canonical());
    report.digest = Some(digest);
    report.problems.extend(problems);
    report.passes = 1;
    report.latency_samples = reference.jobs.len();

    let mirror = match workload {
        Workload::SerialCached => {
            let _ = std::fs::remove_dir_all(&mirror_dir);
            std::fs::create_dir_all(&mirror_dir)
                .map_err(|e| McdError::InvalidConfig(format!("{}: {e}", mirror_dir.display())))?;
            Some((
                ArtifactCache::new(&ref_dir),
                ArtifactCache::new(&mirror_dir),
            ))
        }
        _ => None,
    };
    let mut tracer = Tracer::default();
    let mut counts = Counts::default();
    let pass = layer_pass(
        workload,
        &reference.specs,
        mirror.as_ref(),
        &mut tracer,
        &mut counts,
    );
    drop(mirror);
    reference.remove_cache();
    let _ = std::fs::remove_dir_all(&mirror_dir);
    pass?;

    let span_file = out_dir.join(format!("spans-{}-{seed}.json", workload.name()));
    tracer
        .write_chrome(&span_file)
        .map_err(|e| McdError::InvalidConfig(format!("{}: {e}", span_file.display())))?;
    if counts.functional_gap != 0 {
        report.problems.push(format!(
            "functional replay disagrees with the baseline run's SimStats by {} events",
            counts.functional_gap
        ));
    }
    summarize(&reference, &tracer, &counts, &mut report.metrics);
    let summary_file = out_dir.join(format!("layers-{}-{seed}.json", workload.name()));
    let summary = report.result_line();
    std::fs::write(&summary_file, format!("{summary}\n"))
        .map_err(|e| McdError::InvalidConfig(format!("{}: {e}", summary_file.display())))?;
    eprintln!(
        "perfbench: spans in {}, layer summary in {}",
        span_file.display(),
        summary_file.display()
    );
    report.finish();
    Ok(report)
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn summarize(reference: &RunOutcome, tracer: &Tracer, counts: &Counts, metrics: &mut Metrics) {
    let by_name = tracer.by_name();
    let total = |name: &str| by_name.get(name).map_or(0.0, |t| t.0);
    let per = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    let instr = counts.instructions;
    let base = &counts.baselines;

    metrics.push("workloads.generate_s", total("workloads.generate"), "s");
    metrics.push("workloads.trace_minstr", instr as f64 / 1e6, "Minstr");
    metrics.push("workloads.trace_mb", counts.trace_bytes as f64 / 1e6, "MB");

    let baseline_s = total("sim.baseline");
    let functional_s = total("sim.functional");
    let sync_s = total("sim.sync");
    metrics.push("sim.baseline_s", baseline_s, "s");
    metrics.push(
        "sim.baseline_ns_per_instr",
        per(baseline_s * 1e9, instr),
        "ns",
    );
    metrics.push("sim.functional_s", functional_s, "s");
    metrics.push("sim.sync_s", sync_s, "s");
    metrics.push("sim.core_self_s", baseline_s - functional_s - sync_s, "s");
    metrics.push(
        "sim.lane_ns_per_instr_1",
        per(total("sim.lane_pass_1") * 1e9, counts.lane_instructions_1),
        "ns",
    );
    // At one lane per pass (tournament_cold, serial_cached) the workload's
    // lane count is the one-lane pass.
    let lane_n = if counts.lanes_n > 0 {
        per(total("sim.lane_pass_n") * 1e9, counts.lane_instructions_n)
    } else {
        per(total("sim.lane_pass_1") * 1e9, counts.lane_instructions_1)
    };
    metrics.push("sim.lane_ns_per_instr_n", lane_n, "ns");
    let lanes_per_pass = if reference.batch.passes > 0 {
        reference.batch.lanes_per_pass()
    } else {
        1.0
    };
    metrics.push("sim.lanes_per_pass", lanes_per_pass, "lanes");
    metrics.push(
        "sim.l1d_miss_ratio",
        per(base.l1d_misses as f64, base.l1d_accesses),
        "ratio",
    );
    metrics.push(
        "sim.l2_miss_ratio",
        per(base.l2_misses as f64, base.l2_accesses),
        "ratio",
    );
    metrics.push(
        "sim.mispredict_ratio",
        per(base.branch_mispredicts as f64, base.branches),
        "ratio",
    );
    metrics.push(
        "sim.sync_stall_ratio",
        per(base.sync_stalls as f64, base.sync_crossings),
        "ratio",
    );
    metrics.push(
        "sim.functional_miss_gap",
        counts.functional_gap as f64,
        "count",
    );

    metrics.push("pipeline.capture_s", total("pipeline.capture"), "s");
    metrics.push("pipeline.events", counts.events as f64, "count");
    metrics.push("pipeline.windows", counts.windows as f64, "count");
    metrics.push(
        "pipeline.peak_resident_events",
        counts.peak_window_events as f64,
        "count",
    );
    metrics.push("dag.build_s", total("dag.build"), "s");
    metrics.push("dag.edges", counts.edges as f64, "count");
    metrics.push("shaker.shake_s", total("shaker.shake"), "s");
    metrics.push("threshold.apply_s", total("threshold.apply"), "s");
    metrics.push("pipeline.replay_s", total("pipeline.replay"), "s");

    metrics.push("profile.train_s", total("profile.train"), "s");
    metrics.push("profile.instrument_s", total("profile.instrument"), "s");
    metrics.push("profile.replay_s", total("profile.replay"), "s");
    metrics.push("profiling.call_tree_s", total("profiling.call_tree"), "s");
    metrics.push("profiling.nodes", counts.call_tree_nodes as f64, "count");
    metrics.push("profiling.candidates_s", total("profiling.candidates"), "s");
    metrics.push(
        "profiling.long_running",
        counts.long_running as f64,
        "count",
    );

    for scheme in [
        "offline", "online", "profile", "pid", "sysscale", "learned", "global",
    ] {
        let name: &'static str = scheme_span(scheme);
        metrics.push(&format!("{name}_s"), total(name), "s");
    }

    let cache = &reference.cache;
    metrics.push("artifact.load_s", total("artifact.load"), "s");
    metrics.push("artifact.store_s", total("artifact.store"), "s");
    metrics.push("artifact.read_mb", counts.read_bytes as f64 / 1e6, "MB");
    metrics.push(
        "artifact.written_mb",
        counts.written_bytes as f64 / 1e6,
        "MB",
    );
    metrics.push(
        "artifact.hit_ratio",
        per(cache.hits as f64, cache.lookups()),
        "ratio",
    );
    metrics.push("artifact.writes", cache.writes as f64, "count");
    metrics.push("artifact.lock_waits", cache.lock_waits as f64, "count");
    metrics.push("artifact.errors", cache.errors as f64, "count");

    let queue: Vec<f64> = reference
        .jobs
        .iter()
        .map(|j| j.queued_for.as_secs_f64())
        .collect();
    let run: Vec<f64> = reference
        .jobs
        .iter()
        .map(|j| j.finished.saturating_sub(j.started).as_secs_f64())
        .collect();
    let busy = reference.busy_worker_seconds();
    let wall = reference.wall.as_secs_f64();
    let workers = reference.workers.max(1) as f64;
    metrics.push("service.queue_wait_p50_s", percentile(&queue, 50.0), "s");
    metrics.push("service.queue_wait_p90_s", percentile(&queue, 90.0), "s");
    metrics.push("service.job_run_p50_s", median(&run), "s");
    metrics.push(
        "service.memo_hit_ratio",
        per(reference.memo.hits as f64, reference.memo.lookups()),
        "ratio",
    );
    metrics.push("service.overhead_s", (wall * workers - busy) / workers, "s");
    metrics.push("service.wall_s", wall, "s");
    metrics.push("traced.layer_s", tracer.layer_self_seconds(), "s");
    metrics.push(
        "traced.coverage",
        tracer.layer_self_seconds() / busy.max(1e-9),
        "ratio",
    );
}

/// The span name of a scheme's `run`.
fn scheme_span(scheme: &str) -> &'static str {
    match scheme {
        "offline" => "scheme.offline",
        "online" => "scheme.online",
        "profile" => "scheme.profile",
        "pid" => "scheme.pid",
        "sysscale" => "scheme.sysscale",
        "learned" => "scheme.learned",
        "global" => "scheme.global",
        _ => "scheme.other",
    }
}

/// The evaluation configuration a worker applies to one job of the workload
/// (one simulation thread per worker, as the evaluator's budget split gives).
fn job_config(workload: Workload, slowdown: f64) -> EvaluationConfig {
    EvaluationConfig {
        parallelism: 1,
        include_global: workload.full_registry(),
        include_zoo: workload.full_registry(),
        ..EvaluationConfig::default()
    }
    .with_slowdown(slowdown)
}

/// Repeats the workload's work benchmark by benchmark, in canonical order.
fn layer_pass(
    workload: Workload,
    specs: &[JobSpec],
    caches: Option<&(ArtifactCache, ArtifactCache)>,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), McdError> {
    let benches = jobs::resolve(workload.benchmark_names())?;
    let machine = MachineConfig::default();
    for (b, bench) in benches.iter().enumerate() {
        let mine: Vec<(usize, &JobSpec)> = jobs::canonical_order(specs)
            .into_iter()
            .filter(|&i| specs[i].bench == b)
            .map(|i| (i, &specs[i]))
            .collect();
        // Work shared by a benchmark's jobs is caused by its first job.
        let Some(&(b_job, _)) = mine.first() else {
            continue;
        };
        t.job("benchmark", b_job, |t| -> Result<(), McdError> {
            let b = b_job;
            let (trace, _) = t.layer("workloads.generate", b, |_| {
                generate_packed(&bench.program, &bench.inputs.reference)
            });
            counts.instructions += trace.instructions();
            counts.trace_bytes += trace.approx_bytes() as u64;
            let simulator = Simulator::new(machine.clone());
            let (baseline, base_span) = t.layer("sim.baseline", b, |_| {
                simulator.run(trace.iter(), &mut NullHooks, false).stats
            });
            functional_probe(t, b, base_span, &trace, &machine, &baseline, counts);
            sync_probe(t, b, base_span, &machine, &baseline);
            accumulate(&mut counts.baselines, &baseline);
            match workload {
                Workload::SweepLanes => {
                    sweep_benchmark(t, b, bench, &trace, &simulator, &mine, counts)
                }
                Workload::TournamentCold => tournament_benchmark(
                    t,
                    b,
                    bench,
                    mine[0].1.slowdown,
                    &trace,
                    &baseline,
                    &simulator,
                    counts,
                ),
                Workload::SerialCached => {
                    let (reference, mirror) = caches.expect("serial_cached has caches");
                    serial_benchmark(
                        t, b, bench, &trace, &simulator, &mine, reference, mirror, counts,
                    )
                }
            }
        })?;
    }
    Ok(())
}

fn accumulate(total: &mut SimStats, s: &SimStats) {
    total.instructions += s.instructions;
    total.l1d_accesses += s.l1d_accesses;
    total.l1d_misses += s.l1d_misses;
    total.l2_accesses += s.l2_accesses;
    total.l2_misses += s.l2_misses;
    total.branches += s.branches;
    total.branch_mispredicts += s.branch_mispredicts;
    total.sync_crossings += s.sync_crossings;
    total.sync_stalls += s.sync_stalls;
}

/// The functional model alone: the trace through the cache hierarchy and the
/// branch predictor, as the timing core drives them, with the miss and
/// mispredict counts compared against the baseline run's.
fn functional_probe(
    t: &mut Tracer,
    job: usize,
    cause: SpanId,
    trace: &PackedTrace,
    machine: &MachineConfig,
    baseline: &SimStats,
    counts: &mut Counts,
) {
    let (l1d, l2, mispredicts) = t.probe("sim.functional", job, cause, |_| {
        let mut caches = CacheHierarchy::new(machine);
        let mut branch = BranchPredictor::new(&machine.branch);
        let mut mispredicts = 0u64;
        for item in trace.iter() {
            let TraceItem::Instr(instr) = item else {
                continue;
            };
            caches.access_instruction(instr.pc);
            if instr.class.is_memory() {
                caches.access_data(instr.mem_addr.unwrap_or(instr.pc));
            }
            if instr.class == InstrClass::Branch {
                let info = instr.branch.unwrap_or(BranchInfo {
                    taken: false,
                    target: instr.pc + 4,
                });
                if branch
                    .predict_and_update(instr.pc, info.taken, info.target)
                    .mispredicted
                {
                    mispredicts += 1;
                }
            }
        }
        (caches.l1d().misses(), caches.l2().misses(), mispredicts)
    });
    counts.functional_gap += l1d.abs_diff(baseline.l1d_misses)
        + l2.abs_diff(baseline.l2_misses)
        + mispredicts.abs_diff(baseline.branch_mispredicts);
}

/// The clock-domain synchronizer alone: as many crossings as the baseline
/// run made, between two domains at full speed, spread over its run time.
fn sync_probe(
    t: &mut Tracer,
    job: usize,
    cause: SpanId,
    machine: &MachineConfig,
    baseline: &SimStats,
) {
    t.probe("sim.sync", job, cause, |_| {
        let mut sync = Synchronizer::new(
            machine.sync_window_ps,
            machine.jitter_sigma_ps,
            machine.seed,
        );
        let f = machine.grid.max();
        let n = baseline.sync_crossings.max(1);
        let step = baseline.run_time.as_ns() / n as f64;
        let mut stalls = 0u64;
        for i in 0..n {
            let now = TimeNs::new(step * i as f64);
            let (from, to) = if i % 2 == 0 {
                (Domain::FrontEnd, Domain::Integer)
            } else {
                (Domain::Memory, Domain::FrontEnd)
            };
            stalls += sync.crossing(from, f, to, f, now).stalled as u64;
        }
        std::hint::black_box(stalls);
    });
}

/// Capture, window slicing, then the DAG build and the shaker per window:
/// the slowdown-independent half of the off-line analysis.
fn window_analysis(
    t: &mut Tracer,
    job: usize,
    trace: &PackedTrace,
    simulator: &Simulator,
    config: &OfflineConfig,
    counts: &mut Counts,
) -> Vec<Option<RegionHistograms>> {
    let (plan, _) = t.layer("pipeline.capture", job, |_| {
        let captured = capture_with(simulator, trace.iter());
        slice_windows(&captured, config.window_instructions)
    });
    let shaker = Shaker::with_config(config.shaker);
    let grid = &simulator.config().grid;
    counts.windows += plan.len() as u64;
    let mut histograms = Vec::with_capacity(plan.len());
    for slice in &plan.slices {
        counts.events += slice.len() as u64;
        counts.edges += slice.edges().len() as u64;
        counts.peak_window_events = counts.peak_window_events.max(slice.len() as u64);
        if slice.is_empty() {
            histograms.push(None);
            continue;
        }
        let (mut dag, _) = t.layer("dag.build", job, |_| DependenceDag::from_trace(slice));
        let (h, _) = t.layer("shaker.shake", job, |_| {
            shaker.shake_into_histograms(&mut dag, grid, grid.max())
        });
        histograms.push(Some(h));
    }
    histograms
}

/// Profile phase 1 broken into its parts: the training trace, the call tree
/// and the long-running candidates.
fn instrumentation_probes(
    t: &mut Tracer,
    job: usize,
    cause: SpanId,
    bench: &Benchmark,
    config: &TrainingConfig,
    counts: &mut Counts,
) {
    let training = generate_packed(&bench.program, &bench.inputs.training);
    t.probe("profile.instrument", job, cause, |_| {
        std::hint::black_box(profile::instrumentation_plan(&training, config));
    });
    let tree = t.probe("profiling.call_tree", job, cause, |_| {
        CallTree::build_items(training.iter(), config.policy)
    });
    counts.call_tree_nodes += tree.len() as u64;
    let long_running = t.probe("profiling.candidates", job, cause, |_| {
        LongRunningSet::identify_with_threshold(&tree, config.long_running_threshold)
    });
    counts.long_running += long_running.len() as u64;
}

/// One batched pass with a single lane, timed as a probe of `cause`.
fn lane_probe(
    t: &mut Tracer,
    job: usize,
    cause: SpanId,
    simulator: &Simulator,
    trace: &PackedTrace,
    lane: &mut dyn SimHooks,
    counts: &mut Counts,
) {
    let batched = BatchedSimulator::from_simulator(simulator.clone());
    let mut lanes: Vec<&mut dyn SimHooks> = vec![lane];
    t.probe("sim.lane_pass_1", job, cause, |_| {
        std::hint::black_box(batched.run(trace.iter(), &mut lanes));
    });
    counts.lane_instructions_1 += trace.instructions();
}

/// `sweep_lanes`, one benchmark: one capture/DAG/shaker pass, thresholding
/// per target, then one batched pass per scheme family with a lane per job.
fn sweep_benchmark(
    t: &mut Tracer,
    job: usize,
    bench: &Benchmark,
    trace: &PackedTrace,
    simulator: &Simulator,
    mine: &[(usize, &JobSpec)],
    counts: &mut Counts,
) -> Result<(), McdError> {
    let targets: Vec<f64> = mine.iter().map(|(_, s)| s.slowdown).collect();
    let config = job_config(Workload::SweepLanes, targets[0]);
    let window = config.offline.window_instructions;
    let batched = BatchedSimulator::from_simulator(simulator.clone());
    t.layer("scheme.offline", job, |t| {
        let histograms = window_analysis(t, job, trace, simulator, &config.offline, counts);
        let grid = &simulator.config().grid;
        let schedules: Vec<OfflineSchedule> = targets
            .iter()
            .map(|&target| {
                t.layer("threshold.apply", job, |_| {
                    threshold_windows(&histograms, target, grid)
                })
                .0
            })
            .collect();
        let mut hooks: Vec<ScheduleHooks> = schedules
            .iter()
            .map(|s| ScheduleHooks::new(s, window))
            .collect();
        let mut lanes: Vec<&mut dyn SimHooks> =
            hooks.iter_mut().map(|h| h as &mut dyn SimHooks).collect();
        let (_, pass) = t.layer("pipeline.replay", job, |t| {
            t.layer("sim.lane_pass_n", job, |_| {
                batched.run(trace.iter(), &mut lanes)
            })
            .0
        });
        counts.lane_instructions_n += trace.instructions() * targets.len() as u64;
        counts.lanes_n += targets.len() as u64;
        lane_probe(
            t,
            job,
            pass,
            simulator,
            trace,
            &mut ScheduleHooks::new(&schedules[0], window),
            counts,
        );
    });
    t.layer("scheme.profile", job, |t| {
        let (plan, train) = t.layer("profile.train", job, |_| {
            profile::train(
                &bench.program,
                &bench.inputs.training,
                simulator.config(),
                &config.training,
            )
        });
        let mut hooks: Vec<_> = targets.iter().map(|_| plan.hooks()).collect();
        let mut lanes: Vec<&mut dyn SimHooks> =
            hooks.iter_mut().map(|h| h as &mut dyn SimHooks).collect();
        t.layer("profile.replay", job, |_| {
            batched.run(trace.iter(), &mut lanes)
        });
        instrumentation_probes(t, job, train, bench, &config.training, counts);
    });
    Ok(())
}

/// `tournament_cold`, one benchmark: every registered scheme's `run`, then
/// probes that break the off-line and profile runs into their layers.
#[allow(clippy::too_many_arguments)]
fn tournament_benchmark(
    t: &mut Tracer,
    job: usize,
    bench: &Benchmark,
    slowdown: f64,
    trace: &PackedTrace,
    baseline: &SimStats,
    simulator: &Simulator,
    counts: &mut Counts,
) -> Result<(), McdError> {
    let config = job_config(Workload::TournamentCold, slowdown);
    let registry = configured_registry(&config)?;
    let mut prior: Vec<SchemeOutcome> = Vec::new();
    let mut offline_span = None;
    let mut profile_span = None;
    for scheme in &registry {
        let ctx = SchemeContext {
            benchmark: bench,
            machine: simulator.config(),
            reference_trace: trace,
            baseline,
            prior: &prior,
        };
        let (stats, span) = t.layer(scheme_span(scheme.name()), job, |_| scheme.run(&ctx));
        match scheme.name() {
            "offline" => offline_span = Some(span),
            "profile" => profile_span = Some(span),
            _ => {}
        }
        prior.push(SchemeOutcome {
            name: scheme.name().to_string(),
            label: scheme.label(),
            result: SchemeResult::new(stats?, baseline),
        });
    }
    let window = config.offline.window_instructions;
    if let Some(cause) = offline_span {
        // The off-line scheme's `run`, layer by layer.
        let schedule = t.probing(cause, |t| {
            let histograms = window_analysis(t, job, trace, simulator, &config.offline, counts);
            let grid = &simulator.config().grid;
            let (schedule, _) = t.layer("threshold.apply", job, |_| {
                threshold_windows(&histograms, slowdown, grid)
            });
            t.layer("pipeline.replay", job, |_| {
                replay_with(simulator, trace, &schedule, window)
            });
            schedule
        });
        lane_probe(
            t,
            job,
            cause,
            simulator,
            trace,
            &mut ScheduleHooks::new(&schedule, window),
            counts,
        );
    }
    if let Some(cause) = profile_span {
        let plan = t.probe("profile.train", job, cause, |_| {
            profile::train(
                &bench.program,
                &bench.inputs.training,
                simulator.config(),
                &config.training,
            )
        });
        std::hint::black_box(&plan);
        instrumentation_probes(t, job, cause, bench, &config.training, counts);
    }
    Ok(())
}

/// `serial_cached`, one benchmark: the first job computes and publishes the
/// trace and both histogram sets; every job then loads its histograms,
/// thresholds, publishes its schedule and plan, and replays one lane per
/// scheme. Loads read the reference run's artifacts; stores go to a fresh
/// mirror directory.
#[allow(clippy::too_many_arguments)]
fn serial_benchmark(
    t: &mut Tracer,
    job: usize,
    bench: &Benchmark,
    trace: &PackedTrace,
    simulator: &Simulator,
    mine: &[(usize, &JobSpec)],
    reference: &ArtifactCache,
    mirror: &ArtifactCache,
    counts: &mut Counts,
) -> Result<(), McdError> {
    let machine = simulator.config();
    let grid = &machine.grid;
    let base = job_config(Workload::SerialCached, mine[0].1.slowdown);
    let window = base.offline.window_instructions;
    let trace_key = artifact::packed_trace_key(bench.name, &bench.inputs.reference);
    let histograms_key = artifact::window_histograms_key(
        bench.name,
        &bench.inputs.reference,
        trace.len() as u64,
        machine,
        &base.offline,
    );
    let training_key = artifact::training_histograms_key(
        bench.name,
        &bench.inputs.training,
        machine,
        &base.training,
    );
    let written = |key: &artifact::ArtifactKey| {
        mirror
            .path_of(key)
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len())
    };
    let read = |key: &artifact::ArtifactKey| {
        reference
            .path_of(key)
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len())
    };

    // First job of the benchmark: compute and publish.
    t.layer("artifact.store", job, |_| {
        mirror.store_trace(&trace_key, trace)
    });
    counts.written_bytes += written(&trace_key);
    let (first_schedule, first) = t.layer("scheme.offline", job, |t| {
        let histograms = window_analysis(t, job, trace, simulator, &base.offline, counts);
        t.layer("artifact.store", job, |_| {
            mirror.store_window_histograms(&histograms_key, &histograms, grid)
        });
        threshold_windows(&histograms, mine[0].1.slowdown, grid)
    });
    lane_probe(
        t,
        job,
        first,
        simulator,
        trace,
        &mut ScheduleHooks::new(&first_schedule, window),
        counts,
    );
    counts.written_bytes += written(&histograms_key);
    let (_, train) = t.layer("scheme.profile", job, |t| {
        t.layer("profile.train", job, |_| {
            profile::train(
                &bench.program,
                &bench.inputs.training,
                machine,
                &base.training,
            )
        })
        .1
    });
    instrumentation_probes(t, job, train, bench, &base.training, counts);
    let training = t
        .layer("artifact.load", job, |_| {
            reference.load_training_histograms(&training_key, grid)
        })
        .0
        .ok_or_else(|| McdError::Internal(format!("{}: no training histograms", bench.name)))?;
    counts.read_bytes += read(&training_key);
    t.layer("artifact.store", job, |_| {
        mirror.store_training_histograms(&training_key, &training, grid)
    });
    counts.written_bytes += written(&training_key);

    // Every job: load, threshold, publish, replay.
    for &(id, spec) in mine {
        let config = job_config(Workload::SerialCached, spec.slowdown);
        t.job("job", id, |t| -> Result<(), McdError> {
            t.layer("scheme.offline", id, |t| -> Result<(), McdError> {
                let histograms = t
                    .layer("artifact.load", id, |_| {
                        reference.load_window_histograms(&histograms_key, grid)
                    })
                    .0
                    .ok_or_else(|| {
                        McdError::Internal(format!("{}: no window histograms", bench.name))
                    })?;
                counts.read_bytes += read(&histograms_key);
                let (schedule, _) = t.layer("threshold.apply", id, |_| {
                    threshold_windows(&histograms, spec.slowdown, grid)
                });
                let key = artifact::offline_schedule_key(
                    bench.name,
                    &bench.inputs.reference,
                    trace.len() as u64,
                    machine,
                    &config.offline,
                );
                t.layer("artifact.store", id, |_| {
                    mirror.store_schedule(&key, &schedule)
                });
                counts.written_bytes += written(&key);
                t.layer("pipeline.replay", id, |_| {
                    replay_with(simulator, trace, &schedule, window)
                });
                Ok(())
            })
            .0?;
            t.layer("scheme.profile", id, |t| -> Result<(), McdError> {
                let cached = t
                    .layer("artifact.load", id, |_| {
                        reference.load_training_histograms(&training_key, grid)
                    })
                    .0
                    .ok_or_else(|| {
                        McdError::Internal(format!("{}: no training histograms", bench.name))
                    })?;
                counts.read_bytes += read(&training_key);
                let (instrumentation, _) = t.layer("profile.instrument", id, |_| {
                    let training = generate_packed(&bench.program, &bench.inputs.training);
                    profile::instrumentation_plan(&training, &config.training)
                });
                // The program builds this table in a crate-private function;
                // this is the benchmark's copy of it, so its span counts
                // toward coverage but feeds no metric: a change to the
                // program's function would not move it.
                let (table, _) = t.layer("threshold.profile_table", id, |_| {
                    let chooser = SlowdownThreshold::new(spec.slowdown);
                    let mut table = FrequencyTable::new();
                    for (key, histograms) in &cached.entries {
                        table.insert(*key, chooser.choose(histograms).quantized(grid));
                    }
                    table
                });
                let plan = ProfilePlan {
                    instrumentation,
                    table,
                    training_stats: cached.training_stats.clone(),
                };
                let key = artifact::training_plan_key(
                    bench.name,
                    &bench.inputs.training,
                    machine,
                    &config.training,
                );
                t.layer("artifact.store", id, |_| {
                    mirror.store_training(
                        &key,
                        &TrainingArtifact::from_table(&plan.table, plan.training_stats.clone()),
                    )
                });
                counts.written_bytes += written(&key);
                t.layer("profile.replay", id, |_| {
                    simulator.run(trace.iter(), &mut plan.hooks(), false).stats
                });
                Ok(())
            })
            .0
        })?;
    }
    Ok(())
}
