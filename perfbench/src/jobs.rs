//! Seeded job lists for the three workloads.
//!
//! The seed is the benchmark's only source of variation. On the sweep
//! workloads it picks each sweep point's slowdown target inside its cell of
//! the target range, each job's priority class and the submission order; a
//! run makes several passes over its job list, and every pass keeps the
//! seed's targets but draws its own priorities and order from
//! `(seed, pass)`, so a run's latency figures pool several orders. On the
//! tournament it picks each benchmark's slowdown target around the headline
//! 7%; the tournament keeps the `tournament` binary's submission order,
//! because with twelve unequal jobs on two workers the order decides which
//! heavy jobs overlap, and that alone moves the median latency by ±10% and
//! peak memory by ±25% between seeds. The program under test receives only
//! the generated jobs. The generator is local (splitmix64) so
//! that a change to the program's own random-number code cannot change the
//! benchmark's inputs.

use mcd_dvfs::error::{find_benchmark, McdError};
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{EvalJob, Priority};
use mcd_workloads::suite::Benchmark;

/// The stream benchmarks of the sweep workloads: one per workload tier
/// (batch, server, interactive), the same three the load test replays.
pub const SWEEP_BENCHMARKS: [&str; 3] = ["adpcm decode", "kv store", "sensor hub"];

/// The order `sweep_lanes` submits its three batches in, and the order of
/// the benchmarks within each round of the lone-job list: cheapest batch
/// first (`adpcm decode` ≈ 2.6 s, `sensor hub` ≈ 4 s, `kv store` ≈ 5.7 s
/// on two workers). With three batches on two workers the median job
/// finishes with the second batch; this order keeps the three batches'
/// completions seconds apart, so the median cannot flip between two of them
/// on host noise.
pub const SWEEP_BATCH_ORDER: [usize; 3] = [0, 2, 1];

/// Sweep points per benchmark: 3 × 34 = 102 jobs, so the job-latency p90 has
/// at least ten samples beyond it.
pub const SWEEP_POINTS: usize = 34;

/// Each sweep point owns a 1%-wide cell of the slowdown-target range
/// (2% … 36%); the seed picks one of [`CELL_STEPS`] targets inside it, so
/// every target is `TARGET_BASE + TARGET_STEP × index` with an integer index
/// below `SWEEP_POINTS × CELL_STEPS`. Keying goldens by that index keeps them
/// exact.
pub const CELL_STEPS: usize = 4;
const TARGET_BASE: f64 = 0.02;
const TARGET_STEP: f64 = 0.0025;

/// The tournament's benchmarks: the six-benchmark quick paper subset plus the
/// six second-tier programs, as `tournament --quick` selects them.
pub const TOURNAMENT_BENCHMARKS: [&str; 12] = [
    "adpcm decode",
    "epic encode",
    "jpeg compress",
    "mcf",
    "swim",
    "art",
    "web serve",
    "kv store",
    "media relay",
    "photo edit",
    "sensor hub",
    "speech wake",
];

/// The tournament's targets: 6% … 8% in half-point steps, around the
/// paper's headline 7%.
pub const TOURNAMENT_TARGETS: usize = 5;
const TOURNAMENT_BASE: f64 = 0.06;
const TOURNAMENT_STEP: f64 = 0.005;

/// splitmix64: a tiny, well-mixed generator for the workload seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and a per-use `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated job: what is submitted, plus the identity the goldens and
/// the canonical digest order use.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Index of the benchmark in the workload's benchmark list.
    pub bench: usize,
    /// Benchmark name.
    pub name: &'static str,
    /// Slowdown-target index within the workload's target range.
    pub target: usize,
    /// The slowdown target itself.
    pub slowdown: f64,
    /// Priority class.
    pub priority: Priority,
}

/// The sweep slowdown target with index `index`.
pub fn target_of(index: usize) -> f64 {
    TARGET_BASE + TARGET_STEP * index as f64
}

/// The tournament slowdown target with index `index`.
pub fn tournament_target_of(index: usize) -> f64 {
    TOURNAMENT_BASE + TOURNAMENT_STEP * index as f64
}

fn priority(rng: &mut SplitMix) -> Priority {
    match rng.below(3) {
        0 => Priority::Interactive,
        1 => Priority::Batch,
        _ => Priority::Background,
    }
}

/// The sweep job list shared by `sweep_lanes` and `serial_cached`: every
/// stream benchmark × [`SWEEP_POINTS`] cells with one target per cell drawn
/// from `seed`. The list is 34 rounds of one job per benchmark (in
/// [`SWEEP_BATCH_ORDER`]); `pass` draws which cell each round takes per
/// benchmark and one priority class per round. A class is only an ordering
/// for a client that submits everything at t = 0, so keeping each round
/// whole keeps the benchmarks interleaved whatever the classes: the first
/// job of every benchmark (the one that generates the trace and the
/// histograms) runs in the first round on every seed, instead of a random
/// order deciding which benchmarks' expensive first jobs overlap — which
/// moved median latency by ±12% and peak memory by ±35% between seeds in
/// trial runs.
pub fn sweep_specs(seed: u64, pass: u64) -> Vec<JobSpec> {
    let mut targets = SplitMix::new(seed, 1);
    let mut cells: Vec<Vec<JobSpec>> = SWEEP_BENCHMARKS
        .iter()
        .enumerate()
        .map(|(bench, name)| {
            (0..SWEEP_POINTS)
                .map(|cell| {
                    let target = cell * CELL_STEPS + targets.below(CELL_STEPS);
                    JobSpec {
                        bench,
                        name,
                        target,
                        slowdown: target_of(target),
                        priority: Priority::Batch,
                    }
                })
                .collect()
        })
        .collect();
    let mut rng = SplitMix::new(seed, 0x100 + pass);
    for jobs in &mut cells {
        rng.shuffle(jobs);
    }
    let mut columns: Vec<_> = cells.into_iter().map(Vec::into_iter).collect();
    let mut specs = Vec::with_capacity(SWEEP_BENCHMARKS.len() * SWEEP_POINTS);
    for _round in 0..SWEEP_POINTS {
        let class = priority(&mut rng);
        for &bench in &SWEEP_BATCH_ORDER {
            let spec = columns[bench].next().expect("one cell per round");
            specs.push(JobSpec {
                priority: class,
                ..spec
            });
        }
    }
    specs
}

/// The tournament job list: each benchmark once, in benchmark order, at a
/// target drawn from `seed` (the same for every pass).
pub fn tournament_specs(seed: u64) -> Vec<JobSpec> {
    let mut rng = SplitMix::new(seed, 2);
    TOURNAMENT_BENCHMARKS
        .iter()
        .enumerate()
        .map(|(bench, name)| {
            let target = rng.below(TOURNAMENT_TARGETS);
            JobSpec {
                bench,
                name,
                target,
                slowdown: tournament_target_of(target),
                priority: Priority::Batch,
            }
        })
        .collect()
}

/// Turns sweep specs into service jobs (off-line + profile, cache and
/// parallelism left to the evaluator).
pub fn sweep_job(spec: &JobSpec, bench: &Benchmark) -> EvalJob {
    EvalJob::new(bench.clone())
        .with_slowdown(spec.slowdown)
        .with_schemes([names::OFFLINE, names::PROFILE])
        .with_priority(spec.priority)
}

/// Turns a tournament spec into a service job (the evaluator's configuration
/// carries the full registry: paper schemes, zoo and global).
pub fn tournament_job(spec: &JobSpec, bench: &Benchmark) -> EvalJob {
    EvalJob::new(bench.clone())
        .with_slowdown(spec.slowdown)
        .with_priority(spec.priority)
}

/// Resolves every benchmark of `names` once, in order.
pub fn resolve(names: &[&str]) -> Result<Vec<Benchmark>, McdError> {
    names.iter().map(|name| find_benchmark(name)).collect()
}

/// Canonical order of a job list: benchmark, then target. Digests fold
/// evaluations in this order, so they do not depend on submission order.
pub fn canonical_order(specs: &[JobSpec]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| (specs[i].bench, specs[i].target));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_gives_the_same_job_list() {
        for pass in 0..3 {
            assert_eq!(sweep_specs(7, pass), sweep_specs(7, pass));
        }
        assert_eq!(tournament_specs(7), tournament_specs(7));
    }

    #[test]
    fn two_seeds_give_different_job_lists() {
        assert_ne!(sweep_specs(1, 0), sweep_specs(2, 0));
        assert_ne!(tournament_specs(1), tournament_specs(2));
        let targets = |seed, pass| {
            let specs = sweep_specs(seed, pass);
            canonical_order(&specs)
                .into_iter()
                .map(|i| specs[i].target)
                .collect::<Vec<_>>()
        };
        assert_ne!(
            targets(1, 0),
            targets(2, 0),
            "the seed perturbs the targets"
        );
        assert_eq!(
            targets(1, 0),
            targets(1, 1),
            "passes keep the seed's targets"
        );
        assert_ne!(sweep_specs(1, 0), sweep_specs(1, 1), "passes reorder");
    }

    #[test]
    fn sweep_targets_stay_in_their_cells() {
        let specs = sweep_specs(3, 0);
        assert_eq!(specs.len(), SWEEP_BENCHMARKS.len() * SWEEP_POINTS);
        for bench in 0..SWEEP_BENCHMARKS.len() {
            let mut cells: Vec<usize> = specs
                .iter()
                .filter(|s| s.bench == bench)
                .map(|s| s.target / CELL_STEPS)
                .collect();
            cells.sort_unstable();
            assert_eq!(cells, (0..SWEEP_POINTS).collect::<Vec<_>>());
        }
        let last = target_of(SWEEP_POINTS * CELL_STEPS - 1);
        assert!(target_of(0) >= 0.02 && last < 0.36, "range 2%..36%");
        for spec in tournament_specs(3) {
            assert!(
                (0.06..=0.08 + 1e-12).contains(&spec.slowdown),
                "range 6%..8%"
            );
        }
    }

    #[test]
    fn every_benchmark_resolves() {
        assert_eq!(resolve(&SWEEP_BENCHMARKS).unwrap().len(), 3);
        assert_eq!(resolve(&TOURNAMENT_BENCHMARKS).unwrap().len(), 12);
    }
}
