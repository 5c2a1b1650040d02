//! The repository's benchmark: three workloads through the evaluation
//! service, end-to-end host and simulated metrics, and a separate traced run
//! that breaks each workload's time down by layer.
//!
//! ```text
//! perfbench --workload <sweep_lanes|tournament_cold|serial_cached|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --write-golden        # print a fresh golden.txt
//! ```
//!
//! A measured run starts each pass as a process of its own (`--workload W
//! --seed N --pass K --threads T`, see `pass.rs`).
//!
//! Run it from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`); `--workload all` prints one detail and one result line per
//! workload. Scratch files go under `.bench_out/`. See README.md.

mod golden;
mod jobs;
mod layers;
mod measure;
mod pass;
mod report;
mod spans;

use golden::Golden;
use mcd_dvfs::error::McdError;
use mcd_sim::config::MachineConfig;
use mcd_sim::simulator::{NullHooks, Simulator};
use measure::{median, percentile, Prepared, Workload};
use pass::PassResult;
use report::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Where runs put their scratch files (cache directories, span files).
const OUT_DIR: &str = ".bench_out";

/// Set-ups timed in one burst.
const SETUPS_PER_BURST: usize = 100;

/// Two-worker passes per run, at the least.
const MIN_PASSES: usize = 2;

/// Passes per run, at the least, on a workload timed on one worker: over ten
/// seeds, the median of three passes' throughput spread 0.08 where a single
/// pass's spread 0.13.
const MIN_ONE_WORKER_PASSES: usize = 3;

/// Calibration passes per run (median reported).
const CALIBRATE_PASSES: usize = 9;

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run only this pass, in this process, and print its
    /// [`PassResult`] (how a run starts each measured pass).
    pass: Option<u64>,
    /// Internal, with `--pass`: evaluator workers of the pass.
    threads: usize,
}

fn usage() -> McdError {
    McdError::InvalidConfig(
        "usage: perfbench --workload <sweep_lanes|tournament_cold|serial_cached|all> \
         [--seed N] [--seconds S] [--trace 0|1] | --write-golden"
            .into(),
    )
}

fn parse_args(raw: &[String]) -> Result<Args, McdError> {
    let mut workloads = Vec::new();
    let mut seed = golden::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut pass = None;
    let mut threads = measure::thread_budget();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(usage);
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = match Workload::parse(name) {
                    Some(workload) => vec![workload],
                    None if name == "all" => Workload::ALL.to_vec(),
                    None => {
                        return Err(McdError::InvalidConfig(format!(
                            "unknown workload {name:?}"
                        )))
                    }
                };
            }
            "--seed" => seed = value()?.parse().map_err(|_| usage())?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| usage())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(usage());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage()),
                }
            }
            "--pass" => pass = Some(value()?.parse().map_err(|_| usage())?),
            "--threads" => {
                threads = value()?.parse().map_err(|_| usage())?;
                if threads == 0 {
                    return Err(usage());
                }
            }
            _ => return Err(usage()),
        }
    }
    if workloads.is_empty() || (pass.is_some() && (workloads.len() != 1 || trace)) {
        return Err(usage());
    }
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
        pass,
        threads,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--write-golden") {
        return match golden::regenerate() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("error: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let (args, golden) = match parse_args(&raw).and_then(|args| {
        std::fs::create_dir_all(OUT_DIR)
            .map_err(|e| McdError::InvalidConfig(format!("{OUT_DIR}: {e}")))?;
        Ok((args, Golden::committed()?))
    }) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(pass) = args.pass {
        let workload = args.workloads[0];
        return match PassResult::measure(
            workload,
            args.seed,
            pass,
            args.threads,
            &golden,
            cache_dir(workload, "pass"),
        ) {
            Ok(result) => {
                print!("{}", result.to_text());
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("error: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let mut correct = true;
    for &workload in &args.workloads {
        let result = if args.trace {
            layers::traced_run(workload, args.seed, &golden, OUT_DIR.as_ref())
        } else {
            measured_run(workload, &args)
        };
        match result {
            Ok(report) => {
                println!("{}", report.detail_line());
                println!("{}", report.result_line());
                for problem in &report.problems {
                    eprintln!("incorrect: {problem}");
                }
                correct &= report.correct;
            }
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One baseline pass of `adpcm decode` on the default machine: a fixed
/// kernel that changes only when the simulator does. Median of a few passes.
fn calibrate() -> Result<f64, McdError> {
    let bench = mcd_dvfs::error::find_benchmark("adpcm decode")?;
    let trace = mcd_workloads::generator::generate_packed(&bench.program, &bench.inputs.reference);
    let simulator = Simulator::new(MachineConfig::default());
    let times: Vec<f64> = (0..CALIBRATE_PASSES)
        .map(|_| {
            let start = Instant::now();
            let stats = simulator.run(trace.iter(), &mut NullHooks, false).stats;
            std::hint::black_box(stats);
            start.elapsed().as_secs_f64()
        })
        .collect();
    Ok(median(&times))
}

/// The cache directory of a `serial_cached` set-up; `slot` tells apart
/// set-ups that exist at the same time.
fn cache_dir(workload: Workload, slot: &str) -> Option<PathBuf> {
    (workload == Workload::SerialCached)
        .then(|| PathBuf::from(OUT_DIR).join(format!("cache-{}-{slot}", std::process::id())))
}

/// Times a burst of [`SETUPS_PER_BURST`] set-ups of a timed pass (job list,
/// evaluator and, on `serial_cached`, the empty cache directory), one after
/// the other on this thread, and adds their times to `times`.
fn setup_burst(workload: Workload, seed: u64, times: &mut Vec<f64>) -> Result<(), McdError> {
    let dir = cache_dir(workload, "setup");
    for _ in 0..SETUPS_PER_BURST {
        let start = Instant::now();
        let prepared = Prepared::new(workload, seed, 0, workload.timed_workers(), dir.as_deref())?;
        times.push(start.elapsed().as_secs_f64());
        prepared.discard();
    }
    Ok(())
}

/// The untraced run, each pass in a fresh process: one pass on one worker
/// for peak memory, then passes on the full thread budget until `seconds`
/// have been measured in all (at least [`MIN_PASSES`]). A workload timed on
/// one worker runs every pass on one worker and times them all (at least
/// [`MIN_ONE_WORKER_PASSES`]), and its peak memory is the smallest of the
/// first three.
fn measured_run(workload: Workload, args: &Args) -> Result<report::Report, McdError> {
    let one_worker = workload.times_one_worker();
    let min_passes = if one_worker {
        MIN_ONE_WORKER_PASSES
    } else {
        MIN_PASSES
    };
    let calibrate_s = calibrate()?;
    // One set-up burst before every pass and one after the last, so the
    // set-up figure samples the host across the whole run.
    let mut setups = Vec::new();

    let budget = Duration::from_secs_f64(args.seconds);
    let measuring = Instant::now();
    let mut report = report::Report::new(workload, args.seed);
    let (mut throughput, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    let mut sim: Option<(f64, f64)> = None;
    let mut digest = None;
    // Peak memory of each one-worker pass. With two workers a pass's peak
    // depends on whether their heavy phases happen to overlap (per-pass peaks
    // were bimodal, 100 or 135 MB on sweep_lanes); on one worker it repeats
    // within about 1%, except that on tournament_cold about one pass in five
    // lands 13 MB higher (178 instead of 165.5 MB, an allocator layout).
    let mut peaks = Vec::new();
    while peaks.is_empty() || throughput.len() < min_passes || measuring.elapsed() < budget {
        setup_burst(workload, args.seed, &mut setups)?;
        let threads = if peaks.is_empty() {
            1
        } else {
            workload.timed_workers()
        };
        let pass = PassResult::in_child(workload, args.seed, throughput.len() as u64, threads)?;
        report.attempted += pass.attempted;
        report.failed += pass.failed;
        report.problems.extend(pass.problems);
        if digest.is_some_and(|d| d != pass.digest) {
            report
                .problems
                .push("list digest differs between passes of one run".into());
        }
        digest = Some(pass.digest);
        let pass_sim = (pass.target_miss_pp, pass.energy_delay_gain_pct);
        if sim.is_some_and(|s| s != pass_sim) {
            report
                .problems
                .push("simulated metrics differ between passes of one run".into());
        }
        sim = Some(pass_sim);
        let memory_pass = peaks.is_empty();
        if threads == 1 {
            peaks.push(pass.peak_rss_mb);
        }
        if one_worker || !memory_pass {
            throughput.push(pass.evaluated_instructions as f64 / 1e6 / pass.wall_s);
            p50.push(percentile(&pass.latencies, 50.0));
            p90.push(percentile(&pass.latencies, 90.0));
            report.latency_samples += pass.latencies.len();
        }
        report.passes += 1;
        eprintln!(
            "perfbench: {} pass {} on {threads} worker(s): {:.2} s wall, {} jobs, peak {:.1} MB, \
             digest {:016x}",
            workload.name(),
            report.passes,
            pass.wall_s,
            pass.attempted,
            pass.peak_rss_mb,
            pass.digest
        );
    }
    setup_burst(workload, args.seed, &mut setups)?;
    let (target_miss, energy_delay) = sim.expect("at least one pass");
    // The smallest of the first three one-worker passes (the one memory pass
    // on the sweep workloads): on tournament_cold it read 165.3–167.0 MB in
    // all of 30 runs, where the first pass alone read 178 MB or more in 7.
    let peak_rss_mb = peaks
        .iter()
        .take(MIN_ONE_WORKER_PASSES)
        .copied()
        .fold(f64::INFINITY, f64::min);
    let minstr_per_s = median(&throughput);
    report.digest = digest;
    report.aux.push(("calibrate_s", calibrate_s));
    report
        .aux
        .push(("minstr_per_calibrate", minstr_per_s * calibrate_s));
    report.aux.push(("setup_samples", setups.len() as f64));
    report
        .aux
        .push(("threads", workload.timed_workers() as f64));
    let metrics: &mut Metrics = &mut report.metrics;
    metrics.push("setup_s", median(&setups), "s");
    metrics.push("minstr_per_s", minstr_per_s, "Minstr/s");
    metrics.push("job_latency_p50_s", median(&p50), "s");
    metrics.push("job_latency_p90_s", median(&p90), "s");
    metrics.push("peak_rss_mb", peak_rss_mb, "MB");
    metrics.push("sim_target_miss_pp", target_miss, "pp");
    metrics.push("sim_energy_delay_gain_pct", energy_delay, "%");
    report.finish();
    Ok(report)
}
