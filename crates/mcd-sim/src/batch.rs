//! Batched multi-configuration simulation: one trace pass, many timing lanes.
//!
//! A sweep evaluates the same instruction stream under many control
//! configurations. Run serially, every configuration point pays the full
//! trace decode and the full functional model again even though both are
//! identical. [`BatchedSimulator`] instead makes a *single* pass over the
//! trace, split in two stages per instruction:
//!
//! * the **functional stage**, run once: the caches, the branch predictor
//!   and the synchronizer's jitter stream. None of them depends on clock
//!   frequencies, so their outcomes (I-cache and D-cache hit or miss,
//!   mispredicted or not, the instruction's jitter samples) hold for every
//!   lane;
//! * the **timing stage**, run once per lane in lane order: the lane's
//!   domain clocks and DVFS engine, synchronizer window and counters, issue
//!   queues, functional units, rings and energy account.
//!
//! The crossings an instruction evaluates depend only on its class, its
//! dependence distances and its functional outcomes, so every lane reads the
//! same jitter samples in the same order as a lone run would draw them. Lane
//! `i`'s statistics are therefore **bit-identical** to running the trace
//! alone under hooks `i` (see the batched-vs-serial property test in
//! `tests/properties.rs`). Event recording is not supported in batch mode;
//! batched lanes always run with recording off, exactly like
//! [`Simulator::run`] with `record_events == false`.

use crate::config::MachineConfig;
use crate::instruction::TraceItem;
use crate::power::PowerModel;
use crate::simulator::{SimHooks, Simulator};
use crate::stats::SimStats;

/// Runs one trace under many control configurations in a single pass.
///
/// All lanes share one machine configuration and power model — a batch varies
/// the *control policy* (hooks), not the hardware. Configuration points that
/// change the machine itself need separate runs.
///
/// ```
/// use mcd_sim::batch::BatchedSimulator;
/// use mcd_sim::config::MachineConfig;
/// use mcd_sim::instruction::{Instr, InstrClass, TraceItem};
/// use mcd_sim::simulator::{NullHooks, SimHooks};
///
/// let sim = BatchedSimulator::new(MachineConfig::default());
/// let trace: Vec<TraceItem> = (0..100)
///     .map(|i| TraceItem::Instr(Instr::op(0x1000 + i * 4, InstrClass::IntAlu)))
///     .collect();
/// let mut a = NullHooks;
/// let mut b = NullHooks;
/// let mut lanes: Vec<&mut dyn SimHooks> = vec![&mut a, &mut b];
/// let stats = sim.run(trace, &mut lanes);
/// assert_eq!(stats.len(), 2);
/// assert_eq!(stats[0].instructions, 100);
/// assert_eq!(
///     stats[0].run_time.as_ns().to_bits(),
///     stats[1].run_time.as_ns().to_bits()
/// );
/// ```
#[derive(Debug, Clone)]
pub struct BatchedSimulator {
    inner: Simulator,
}

impl BatchedSimulator {
    /// Creates a batched simulator for the given machine configuration, using
    /// the default power model.
    pub fn new(config: MachineConfig) -> Self {
        BatchedSimulator {
            inner: Simulator::new(config),
        }
    }

    /// Creates a batched simulator with an explicit power model.
    pub fn with_power_model(config: MachineConfig, power: PowerModel) -> Self {
        BatchedSimulator {
            inner: Simulator::with_power_model(config, power),
        }
    }

    /// Wraps an existing simulator (sharing its machine and power model).
    pub fn from_simulator(inner: Simulator) -> Self {
        BatchedSimulator { inner }
    }

    /// The underlying single-lane simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.inner
    }

    /// The shared machine configuration.
    pub fn config(&self) -> &MachineConfig {
        self.inner.config()
    }

    /// Runs `trace` once, stepping the shared functional model once per item
    /// and one timing lane per entry of `lanes`; returns each lane's
    /// statistics in lane order. An empty lane
    /// set returns an empty vector without touching the trace.
    pub fn run<I>(&self, trace: I, lanes: &mut [&mut dyn SimHooks]) -> Vec<SimStats>
    where
        I: IntoIterator<Item = TraceItem>,
    {
        if lanes.is_empty() {
            return Vec::new();
        }
        self.inner.run_lanes(trace.into_iter(), lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Domain, PerDomain};
    use crate::instruction::{Instr, InstrClass, LoopId, Marker};
    use crate::reconfig::FrequencySetting;
    use crate::simulator::{HookAction, NullHooks};
    use crate::stats::IntervalStats;
    use crate::time::{MegaHertz, TimeNs};

    fn mixed_trace() -> Vec<TraceItem> {
        let mut items = Vec::new();
        items.push(TraceItem::Marker(Marker::LoopEnter { loop_id: LoopId(1) }));
        for i in 0..400u64 {
            let class = match i % 4 {
                0 => InstrClass::IntAlu,
                1 => InstrClass::FpAdd,
                2 => InstrClass::Load,
                _ => InstrClass::IntMul,
            };
            items.push(TraceItem::Instr(
                Instr::op(0x1000 + i * 4, class).with_dep1(3),
            ));
        }
        items.push(TraceItem::Marker(Marker::LoopExit { loop_id: LoopId(1) }));
        items
    }

    /// A trace that exercises every shared functional outcome: code spread
    /// over four times the L1 I-cache, loads and stores over four times the
    /// L2, data-dependent branches the predictor keeps missing, and operands
    /// produced in other domains at several distances.
    fn functional_trace() -> Vec<TraceItem> {
        let mut items = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..3000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i % 250 == 0 {
                let loop_id = LoopId((i / 250) as u32);
                items.push(TraceItem::Marker(Marker::LoopEnter { loop_id }));
            }
            let pc = 0x40_0000 + (x >> 20) % (256 * 1024) / 4 * 4;
            let addr = 0x1000_0000 + (x >> 8) % (4 * 1024 * 1024);
            let dep = (1 + (x >> 40) % 6) as u16;
            let instr = match i % 7 {
                0 => Instr::load(pc, addr).with_dep1(dep),
                1 => Instr::op(pc, InstrClass::FpMul).with_dep1(1).with_dep2(dep),
                2 => Instr::branch(pc, x & 1 == 1, pc + 64 * (x >> 60)).with_dep1(dep),
                3 => Instr::store(pc, addr ^ 0x40).with_dep1(2),
                4 => Instr::op(pc, InstrClass::FpAdd).with_dep1(dep),
                5 => Instr::op(pc, InstrClass::IntMul).with_dep1(3).with_dep2(1),
                _ => Instr::op(pc, InstrClass::IntAlu).with_dep1(dep),
            };
            items.push(TraceItem::Instr(instr));
            if i % 250 == 249 {
                let loop_id = LoopId((i / 250) as u32);
                items.push(TraceItem::Marker(Marker::LoopExit { loop_id }));
            }
        }
        items
    }

    /// One control hook of each kind the simulator drives.
    enum Control {
        /// Pins every scalable domain to one setting from the start.
        Pinned(FrequencySetting),
        /// Reconfigures and charges instrumentation at every marker.
        Marker { next: bool },
        /// Slows the memory domain whenever its queue ran empty.
        Interval,
        /// Alternates two settings every 256 committed instructions.
        Window,
    }

    fn slow() -> FrequencySetting {
        FrequencySetting::full_speed()
            .with(Domain::Memory, MegaHertz::new(500.0))
            .with(Domain::FloatingPoint, MegaHertz::new(625.0))
    }

    impl SimHooks for Control {
        fn initial_setting(&self) -> Option<FrequencySetting> {
            match self {
                Control::Pinned(setting) => Some(*setting),
                _ => None,
            }
        }

        fn on_marker(&mut self, _marker: &Marker, _now: TimeNs, _i: u64) -> HookAction {
            let Control::Marker { next } = self else {
                return HookAction::none();
            };
            *next = !*next;
            HookAction {
                reconfigure: Some(if *next {
                    slow()
                } else {
                    FrequencySetting::full_speed()
                }),
                overhead_cycles: 24.0,
                set_region: None,
            }
        }

        fn interval_ns(&self) -> Option<f64> {
            matches!(self, Control::Interval).then_some(400.0)
        }

        fn on_interval(&mut self, stats: &IntervalStats, _now: TimeNs) -> Option<FrequencySetting> {
            let idle = stats.queue_utilization[Domain::Memory] < 0.05;
            Some(if idle {
                slow()
            } else {
                FrequencySetting::full_speed()
            })
        }

        fn instruction_window(&self) -> Option<u64> {
            matches!(self, Control::Window).then_some(256)
        }

        fn on_instruction_window(&mut self, index: u64, _now: TimeNs) -> Option<FrequencySetting> {
            Some(if index % 2 == 1 {
                slow()
            } else {
                FrequencySetting::full_speed()
            })
        }
    }

    fn controls(machine: &MachineConfig) -> Vec<Control> {
        let mut controls: Vec<Control> = [1000.0, 750.0, 500.0]
            .iter()
            .map(|f| {
                Control::Pinned(
                    FrequencySetting::uniform(MegaHertz::new(*f)).quantized(&machine.grid),
                )
            })
            .collect();
        controls.push(Control::Marker { next: false });
        controls.push(Control::Interval);
        controls.push(Control::Window);
        controls
    }

    /// Asserts that two runs agree on every statistic, floats to the bit.
    fn assert_bit_identical(got: &SimStats, want: &SimStats, lane: usize) {
        // Destructured so that a new field cannot be left out of the check.
        let SimStats {
            instructions,
            run_time,
            total_energy,
            domain_energy,
            domain_active_cycles,
            sync_crossings,
            sync_stalls,
            branches,
            branch_mispredicts,
            l1d_accesses,
            l1d_misses,
            l2_accesses,
            l2_misses,
            reconfigurations,
            overhead_cycles,
            markers,
        } = want;
        let bits = |v: &PerDomain<f64>| v.map(|_, x| x.to_bits());
        assert_eq!(got.instructions, *instructions, "lane {lane}");
        assert_eq!(
            got.run_time.as_ns().to_bits(),
            run_time.as_ns().to_bits(),
            "lane {lane}"
        );
        assert_eq!(
            got.total_energy.as_units().to_bits(),
            total_energy.as_units().to_bits(),
            "lane {lane}"
        );
        assert_eq!(bits(&got.domain_energy), bits(domain_energy), "lane {lane}");
        assert_eq!(
            bits(&got.domain_active_cycles),
            bits(domain_active_cycles),
            "lane {lane}"
        );
        assert_eq!(got.sync_crossings, *sync_crossings, "lane {lane}");
        assert_eq!(got.sync_stalls, *sync_stalls, "lane {lane}");
        assert_eq!(got.branches, *branches, "lane {lane}");
        assert_eq!(got.branch_mispredicts, *branch_mispredicts, "lane {lane}");
        assert_eq!(got.l1d_accesses, *l1d_accesses, "lane {lane}");
        assert_eq!(got.l1d_misses, *l1d_misses, "lane {lane}");
        assert_eq!(got.l2_accesses, *l2_accesses, "lane {lane}");
        assert_eq!(got.l2_misses, *l2_misses, "lane {lane}");
        assert_eq!(got.reconfigurations, *reconfigurations, "lane {lane}");
        assert_eq!(
            got.overhead_cycles.to_bits(),
            overhead_cycles.to_bits(),
            "lane {lane}"
        );
        assert_eq!(got.markers, *markers, "lane {lane}");
    }

    #[test]
    fn lanes_match_independent_serial_runs_bit_for_bit() {
        let machine = MachineConfig::default();
        let trace = functional_trace();

        let serial: Vec<SimStats> = controls(&machine)
            .iter_mut()
            .map(|control| {
                Simulator::new(machine.clone())
                    .run(trace.iter().copied(), control, false)
                    .stats
            })
            .collect();

        let mut hooks = controls(&machine);
        let mut lanes: Vec<&mut dyn SimHooks> =
            hooks.iter_mut().map(|h| h as &mut dyn SimHooks).collect();
        let batched = BatchedSimulator::new(machine).run(trace.iter().copied(), &mut lanes);

        assert_eq!(batched.len(), serial.len());
        for (lane, (b, s)) in batched.iter().zip(&serial).enumerate() {
            assert_bit_identical(b, s, lane);
        }

        // The trace reaches every shared outcome and every hook kind acts.
        let s = &serial[0];
        assert!(s.l2_accesses > s.l1d_misses, "no I-cache misses");
        assert!(s.l2_misses > 0 && s.branch_mispredicts > 0 && s.sync_stalls > 0);
        assert!(serial[3].reconfigurations > 0 && serial[3].overhead_cycles > 0.0);
        assert!(serial[4].reconfigurations > 0 && serial[5].reconfigurations > 0);
        // Different controls really produce different timings.
        assert_ne!(serial[0].run_time, serial[2].run_time);
        assert_ne!(serial[0].sync_stalls, serial[5].sync_stalls);
    }

    #[test]
    fn empty_lane_set_is_a_no_op() {
        let sim = BatchedSimulator::new(MachineConfig::default());
        let mut lanes: Vec<&mut dyn SimHooks> = Vec::new();
        assert!(sim.run(mixed_trace(), &mut lanes).is_empty());
    }

    #[test]
    fn single_lane_matches_the_plain_simulator() {
        let machine = MachineConfig::default();
        let trace = mixed_trace();
        let solo = Simulator::new(machine.clone())
            .run(trace.iter().copied(), &mut NullHooks, false)
            .stats;
        let mut hooks = NullHooks;
        let mut lanes: Vec<&mut dyn SimHooks> = vec![&mut hooks];
        let batched = BatchedSimulator::new(machine).run(trace.iter().copied(), &mut lanes);
        assert_eq!(batched.len(), 1);
        assert_eq!(
            batched[0].run_time.as_ns().to_bits(),
            solo.run_time.as_ns().to_bits()
        );
        assert_eq!(
            batched[0].total_energy.as_units().to_bits(),
            solo.total_energy.as_units().to_bits()
        );
    }
}
