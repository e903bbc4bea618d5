//! The scheduling entry points: schedule one loop with an
//! [`AlgorithmSpec`].
//!
//! [`schedule_loop`] runs a spec with default options;
//! [`schedule_loop_spec_seeded`] takes explicit partitioner and driver
//! options plus precomputed MII/partition inputs. Both resolve the spec:
//! `list` runs the list scheduler, a portfolio races its candidates
//! ([`crate::portfolio`]), and every other spec climbs the II ladder of
//! [`pipeline::run`] with the spec, falling back to list scheduling when
//! the II cap is exhausted. [`SharedRuns::schedule`] does the same
//! through a memo that lets the units scheduling one loop on one machine
//! share their runs.

use crate::error::SchedError;
use crate::listsched::list_schedule;
use crate::pipeline::{self, Cutoff};
use crate::schedule::Schedule;
use crate::spec::AlgorithmSpec;
use gpsched_ddg::Ddg;
use gpsched_machine::MachineConfig;
use gpsched_partition::{partition_ddg_with, CostEvaluator, Partition, PartitionOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Driver options shared by every scheduling run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverConfig {
    /// Hard II cap; `None` derives `4·MII + 64` per loop.
    pub ii_cap: Option<i64>,
}

/// The II cap of a loop whose ladder starts at `mii`.
pub(crate) fn cap_for(mii: i64, cfg: &DriverConfig) -> i64 {
    cfg.ii_cap.unwrap_or(4 * mii + 64)
}

/// How the final schedule was produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduledWith {
    /// Modulo-scheduled at the reported II.
    Modulo {
        /// Times the partition was recomputed on II growth (0 for
        /// algorithms that never re-partition).
        repartitions: usize,
    },
    /// The II cap was exhausted; the list-scheduling fallback was used
    /// (§4.1: "this happens for just a few loops").
    ListFallback,
    /// List scheduling was requested outright ([`AlgorithmSpec::LIST`]).
    List,
}

/// Result of scheduling one loop.
#[derive(Clone, Debug)]
pub struct LoopResult {
    /// The final schedule.
    pub schedule: Schedule,
    /// Modulo or list-fallback, with driver metadata.
    pub method: ScheduledWith,
    /// The cluster assignment actually used (None for URACAM, which has no
    /// precomputed partition).
    pub partition: Option<Partition>,
    /// Loop name (copied from the DDG).
    pub name: String,
    /// Operations per iteration (original ops only — overhead ops such as
    /// spills and communications are not counted as useful work).
    pub ops: usize,
    /// Trip count used for the cycle accounting.
    pub trips: u64,
    /// For portfolio runs, the fixed spec whose schedule won the race
    /// (re-running it alone reproduces this result exactly). `None` for
    /// fixed-spec runs.
    pub selected: Option<AlgorithmSpec>,
}

impl LoopResult {
    /// Total cycles for the loop's profiled trip count.
    pub fn cycles(&self) -> u64 {
        self.schedule.cycles(self.trips)
    }

    /// Useful instructions per cycle (the paper's metric, prolog/epilog
    /// included).
    pub fn ipc(&self) -> f64 {
        // Saturating: extreme trip counts from `.ddg` input must not wrap.
        (self.ops as u64).saturating_mul(self.trips) as f64 / self.cycles() as f64
    }
}

/// Schedules `ddg` on `machine` with `spec` under default options,
/// falling back to list scheduling if the modulo scheduler exhausts its II
/// budget.
///
/// # Errors
///
/// [`SchedError::Unschedulable`] if the machine lacks functional units for
/// an op class used by the loop.
///
/// # Example
///
/// ```
/// use gpsched_machine::MachineConfig;
/// use gpsched_sched::{schedule_loop, AlgorithmSpec};
/// use gpsched_workloads::kernels;
///
/// let ddg = kernels::fir(500, 8);
/// let machine = MachineConfig::two_cluster(32, 1, 1);
/// let gp = schedule_loop(&ddg, &machine, AlgorithmSpec::GP)?;
/// let ur = schedule_loop(&ddg, &machine, AlgorithmSpec::URACAM)?;
/// assert!(gp.ipc() > 0.0 && ur.ipc() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule_loop(
    ddg: &Ddg,
    machine: &MachineConfig,
    spec: AlgorithmSpec,
) -> Result<LoopResult, SchedError> {
    let cfg = DriverConfig::default();
    schedule_impl(ddg, machine, spec, &cfg, None, Cutoff::default(), None)
}

/// Precomputed scheduling inputs, typically served from a memo cache keyed
/// by DDG content (the engine crate's batch executor builds these).
#[derive(Clone, Debug)]
pub struct SchedSeed {
    /// The loop's MII on the target machine (`mii::mii`).
    pub start_ii: i64,
    /// Initial partition computed at `start_ii`, consumed by the
    /// partition-driven specs (Fixed, GP, portfolio) and ignored by the
    /// others. `None` makes the scheduler compute it.
    pub partition: Option<gpsched_partition::PartitionResult>,
}

/// [`schedule_loop`] with explicit driver options and precomputed
/// MII/partition inputs, so batch drivers that schedule the same loop on
/// the same machine under several specs (or repeatedly across sweeps)
/// skip the shared preprocessing. Every call pays for its own runs;
/// [`SharedRuns::schedule`] shares them between calls. `_popts` carries
/// no settings (see [`PartitionOptions`]).
///
/// # Errors
///
/// See [`schedule_loop`].
///
/// # Example
///
/// A custom II cap with no precomputed partition (the scheduler computes
/// it), on a variant parsed from its textual syntax:
///
/// ```
/// use gpsched_ddg::mii::mii;
/// use gpsched_machine::MachineConfig;
/// use gpsched_partition::PartitionOptions;
/// use gpsched_sched::{schedule_loop_spec_seeded, AlgorithmSpec, DriverConfig, SchedSeed};
/// use gpsched_workloads::kernels;
///
/// let ddg = kernels::fir(500, 8);
/// let machine = MachineConfig::two_cluster(32, 1, 1);
/// let popts = PartitionOptions::default();
/// let cfg = DriverConfig { ii_cap: Some(64) };
/// let seed = SchedSeed { start_ii: mii(&ddg, &machine), partition: None };
/// let gp = schedule_loop_spec_seeded(&ddg, &machine, AlgorithmSpec::GP, &popts, &cfg, &seed)?;
/// let ab = AlgorithmSpec::parse("gp:norepart")?;
/// let ab = schedule_loop_spec_seeded(&ddg, &machine, ab, &popts, &cfg, &seed)?;
/// // The ablation schedules the same loops; how the two variants compare
/// // is an empirical question (see DESIGN.md §7).
/// assert!(gp.ipc() > 0.0 && ab.ipc() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule_loop_spec_seeded(
    ddg: &Ddg,
    machine: &MachineConfig,
    spec: AlgorithmSpec,
    _popts: &PartitionOptions,
    cfg: &DriverConfig,
    seed: &SchedSeed,
) -> Result<LoopResult, SchedError> {
    schedule_impl(ddg, machine, spec, cfg, Some(seed), Cutoff::default(), None)
}

/// Both entry points and [`SharedRuns::schedule`], plus the early `cutoff`
/// only the portfolio race imposes on its challengers. With `shared`, an
/// unconstrained run of a catalog spec is read from (or stored in) the
/// memo, and a portfolio race reads its siblings' runs from it.
pub(crate) fn schedule_impl(
    ddg: &Ddg,
    machine: &MachineConfig,
    spec: AlgorithmSpec,
    cfg: &DriverConfig,
    seed: Option<&SchedSeed>,
    cutoff: Cutoff,
    shared: Option<&SharedRuns>,
) -> Result<LoopResult, SchedError> {
    for kind in gpsched_machine::ResourceKind::ALL {
        if ddg.ops_using(kind) > 0 && machine.total_units(kind) == 0 {
            return Err(SchedError::Unschedulable(format!(
                "machine has no {kind} units"
            )));
        }
    }
    // A catalog spec's unconstrained run goes through the memo; running
    // it reads nothing shared (only a portfolio race does).
    let slot = shared
        .filter(|_| cutoff.is_none())
        .and_then(|s| s.slot(spec));
    if let Some(slot) = slot {
        let run = || schedule_impl(ddg, machine, spec, cfg, seed, cutoff, None);
        return slot.get_or_run(run).clone();
    }

    let base =
        |schedule: Schedule, method: ScheduledWith, partition: Option<Partition>| LoopResult {
            schedule,
            method,
            partition,
            name: ddg.name().to_string(),
            ops: ddg.op_count(),
            trips: ddg.trip_count(),
            selected: None,
        };
    if spec.is_list() {
        let s = list_schedule(ddg, machine);
        return Ok(base(s, ScheduledWith::List, None));
    }

    // Resolve the precomputed inputs, filling the gaps for direct calls.
    let start_ii = seed.map_or_else(|| gpsched_ddg::mii::mii(ddg, machine), |s| s.start_ii);
    let initial = if spec.needs_partition() {
        Some(seed.and_then(|s| s.partition.clone()).unwrap_or_else(|| {
            partition_ddg_with(
                ddg,
                machine,
                start_ii,
                &mut CostEvaluator::new(ddg, machine),
            )
        }))
    } else {
        None
    };

    if spec.is_portfolio() {
        return crate::portfolio::race(ddg, machine, spec, cfg, start_ii, initial, shared);
    }

    match pipeline::run_until(ddg, machine, cfg, start_ii, initial, spec, cutoff) {
        Ok(out) => Ok(base(
            out.schedule,
            ScheduledWith::Modulo {
                repartitions: out.repartitions,
            },
            out.partition.map(|p| p.partition),
        )),
        Err(SchedError::IiLimitExceeded { .. }) => {
            let s = list_schedule(ddg, machine);
            Ok(base(s, ScheduledWith::ListFallback, None))
        }
        Err(e) => Err(e),
    }
}

/// The result of one scheduling run, as the memo holds it.
type RunResult = Result<LoopResult, SchedError>;

/// A memo of the unconstrained fixed-spec runs of one loop on one machine:
/// every unit of a batch that schedules the pair with a catalog spec or a
/// portfolio reads it, so each spec's II ladder is climbed at most once.
///
/// All calls on one memo must pass the same loop, machine, driver options
/// and seed; the engine keeps one per (loop, machine) pair of a sweep. A run
/// is computed by the first unit that asks for it, and a unit asking
/// while it is in flight waits for it. A portfolio race reads its leader,
/// its List floor and every challenger whose run has started from here:
/// a challenger's cut-off outcome is derived from its unconstrained run
/// (DESIGN.md §12, "Shared runs"), and a cut-off run is never stored.
/// Results are byte-identical to scheduling each unit alone.
#[derive(Default)]
pub struct SharedRuns {
    /// One slot per [`AlgorithmSpec::CATALOG`] entry, in catalog order.
    slots: [Slot; AlgorithmSpec::CATALOG.len()],
}

/// One spec's run in [`SharedRuns`].
#[derive(Default)]
struct Slot {
    /// Set by the unit that computes the run, before it starts. Relaxed:
    /// it publishes nothing (the run is read through the `OnceLock`), and
    /// a reader that misses a fresh `true` just runs its candidate itself.
    started: AtomicBool,
    run: OnceLock<RunResult>,
}

impl Slot {
    /// The run, computed by `run` unless some unit has computed it or is
    /// computing it (then this waits for that unit).
    fn get_or_run(&self, run: impl FnOnce() -> RunResult) -> &RunResult {
        self.run.get_or_init(|| {
            self.started.store(true, Ordering::Relaxed);
            run()
        })
    }
}

impl SharedRuns {
    /// [`schedule_loop_spec_seeded`] through this memo: a catalog spec's
    /// run is computed once and then read, and a portfolio race reads
    /// the runs of the candidates it shares with other units.
    ///
    /// # Errors
    ///
    /// See [`schedule_loop`].
    ///
    /// # Example
    ///
    /// ```
    /// use gpsched_ddg::mii::mii;
    /// use gpsched_machine::MachineConfig;
    /// use gpsched_partition::{partition_ddg, PartitionOptions};
    /// use gpsched_sched::{AlgorithmSpec, DriverConfig, SchedSeed, SharedRuns};
    /// use gpsched_workloads::kernels;
    ///
    /// let ddg = kernels::fir(500, 8);
    /// let machine = MachineConfig::four_cluster(32, 1, 2);
    /// let cfg = DriverConfig::default();
    /// let start_ii = mii(&ddg, &machine);
    /// let partition = partition_ddg(&ddg, &machine, start_ii, &PartitionOptions::default());
    /// let seed = SchedSeed { start_ii, partition: Some(partition) };
    /// let runs = SharedRuns::default();
    /// let gp = runs.schedule(&ddg, &machine, AlgorithmSpec::GP, &cfg, &seed)?;
    /// // The race reads GP's ladder instead of climbing it again.
    /// let best = runs.schedule(&ddg, &machine, AlgorithmSpec::PORTFOLIO, &cfg, &seed)?;
    /// assert!(best.cycles() <= gp.cycles());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn schedule(
        &self,
        ddg: &Ddg,
        machine: &MachineConfig,
        spec: AlgorithmSpec,
        cfg: &DriverConfig,
        seed: &SchedSeed,
    ) -> Result<LoopResult, SchedError> {
        let none = Cutoff::default();
        schedule_impl(ddg, machine, spec, cfg, Some(seed), none, Some(self))
    }

    /// `spec`'s slot, if it is a catalog spec.
    fn slot(&self, spec: AlgorithmSpec) -> Option<&Slot> {
        let i = AlgorithmSpec::CATALOG.iter().position(|&s| s == spec)?;
        Some(&self.slots[i])
    }

    /// `spec`'s unconstrained run if some unit has started it, waiting for
    /// it while it is in flight; `None` if no unit has. `run` computes it
    /// only if the unit that started it gave up (panicked).
    pub(crate) fn started(
        &self,
        spec: AlgorithmSpec,
        run: impl FnOnce() -> RunResult,
    ) -> Option<&RunResult> {
        let slot = self.slot(spec)?;
        slot.started
            .load(Ordering::Relaxed)
            .then(|| slot.get_or_run(run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_workloads::kernels;

    #[test]
    fn ipc_is_bounded_by_issue_width() {
        for ddg in kernels::all_kernels(1000) {
            let m = MachineConfig::unified(64);
            let r = schedule_loop(&ddg, &m, AlgorithmSpec::GP).unwrap();
            assert!(r.ipc() <= 12.0, "{}: ipc {}", ddg.name(), r.ipc());
            assert!(r.ipc() > 0.0);
        }
    }

    #[test]
    fn unified_is_an_upper_bound_for_clustered() {
        // The paper's premise: same resources minus communication penalty.
        let mut better = 0usize;
        let mut total = 0usize;
        for ddg in kernels::all_kernels(1000) {
            let u = schedule_loop(&ddg, &MachineConfig::unified(32), AlgorithmSpec::GP).unwrap();
            let c = schedule_loop(
                &ddg,
                &MachineConfig::four_cluster(32, 1, 2),
                AlgorithmSpec::GP,
            )
            .unwrap();
            total += 1;
            if u.ipc() >= c.ipc() - 1e-9 {
                better += 1;
            }
        }
        assert_eq!(better, total, "clustered beat unified somewhere");
    }

    #[test]
    fn algorithm_names() {
        let names = AlgorithmSpec::PAPER.map(|a| a.name());
        assert_eq!(names, ["URACAM", "Fixed", "GP", "List"]);
        assert_eq!(AlgorithmSpec::MODULO.len(), 3);
        for a in AlgorithmSpec::PAPER {
            assert_eq!(AlgorithmSpec::parse(&a.name()), Ok(a), "{a} round-trips");
        }
        assert!(AlgorithmSpec::parse("nope").is_err());
    }

    #[test]
    fn list_algorithm_runs_iterations_back_to_back() {
        let ddg = kernels::daxpy(100);
        let m = MachineConfig::two_cluster(32, 1, 1);
        let r = schedule_loop(&ddg, &m, AlgorithmSpec::LIST).unwrap();
        assert_eq!(r.method, ScheduledWith::List);
        // No pipelining: the II equals the schedule length.
        assert_eq!(r.schedule.ii(), r.schedule.length().max(1));
        // And modulo scheduling should beat it on a parallel kernel.
        let gp = schedule_loop(&ddg, &m, AlgorithmSpec::GP).unwrap();
        assert!(gp.ipc() >= r.ipc());
    }

    #[test]
    fn seeded_schedule_matches_unseeded() {
        use gpsched_partition::partition_ddg;
        let ddg = kernels::stencil5(300);
        let m = MachineConfig::four_cluster(32, 1, 2);
        let popts = PartitionOptions::default();
        let cfg = DriverConfig::default();
        let mii = gpsched_ddg::mii::mii(&ddg, &m);
        let part = partition_ddg(&ddg, &m, mii, &popts);
        for algo in AlgorithmSpec::PAPER {
            let a = schedule_loop(&ddg, &m, algo).unwrap();
            for partition in [Some(part.clone()), None] {
                let seed = SchedSeed {
                    start_ii: mii,
                    partition,
                };
                let b = schedule_loop_spec_seeded(&ddg, &m, algo, &popts, &cfg, &seed).unwrap();
                assert_eq!(a.schedule.ii(), b.schedule.ii(), "{algo}");
                assert_eq!(a.schedule.length(), b.schedule.length(), "{algo}");
                assert_eq!(a.cycles(), b.cycles(), "{algo}");
            }
        }
    }

    /// `spec` under a custom driver config, MII and partition left to the
    /// scheduler.
    fn with_cfg(
        ddg: &Ddg,
        m: &MachineConfig,
        spec: AlgorithmSpec,
        cfg: &DriverConfig,
    ) -> LoopResult {
        let seed = SchedSeed {
            start_ii: gpsched_ddg::mii::mii(ddg, m),
            partition: None,
        };
        schedule_loop_spec_seeded(ddg, m, spec, &PartitionOptions::default(), cfg, &seed).unwrap()
    }

    #[test]
    fn fallback_fires_with_tiny_cap() {
        let ddg = kernels::dot_product(50);
        let m = MachineConfig::two_cluster(32, 1, 1);
        let cfg = DriverConfig { ii_cap: Some(1) };
        let r = with_cfg(&ddg, &m, AlgorithmSpec::URACAM, &cfg);
        assert_eq!(r.method, ScheduledWith::ListFallback);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn result_carries_partition_for_gp_and_fixed() {
        let ddg = kernels::daxpy(100);
        let m = MachineConfig::two_cluster(32, 1, 1);
        let partition = |spec| schedule_loop(&ddg, &m, spec).unwrap().partition;
        assert!(partition(AlgorithmSpec::GP).is_some());
        assert!(partition(AlgorithmSpec::FIXED).is_some());
        assert!(partition(AlgorithmSpec::URACAM).is_none());
    }

    fn machines() -> Vec<MachineConfig> {
        vec![
            MachineConfig::unified(32),
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
        ]
    }

    /// The modulo schedule of `spec`; panics if the list fallback fired.
    fn modulo(ddg: &Ddg, m: &MachineConfig, spec: AlgorithmSpec) -> LoopResult {
        let r = schedule_loop(ddg, m, spec).unwrap();
        assert!(
            matches!(r.method, ScheduledWith::Modulo { .. }),
            "{spec} fell back on {}",
            ddg.name()
        );
        r
    }

    #[test]
    fn all_drivers_schedule_all_kernels() {
        for ddg in kernels::all_kernels(100) {
            for m in machines() {
                for spec in AlgorithmSpec::MODULO {
                    let s = modulo(&ddg, &m, spec).schedule;
                    assert!(s.ii() >= gpsched_ddg::mii::mii(&ddg, &m), "{}", ddg.name());
                    assert_eq!(s.placements().len(), ddg.op_count());
                }
            }
        }
    }

    #[test]
    fn unified_machine_needs_no_transfers() {
        let m = MachineConfig::unified(32);
        for ddg in kernels::all_kernels(100) {
            let s = modulo(&ddg, &m, AlgorithmSpec::URACAM).schedule;
            assert!(s.transfers().is_empty(), "{}", ddg.name());
        }
    }

    #[test]
    fn dot_product_achieves_recurrence_bound() {
        // On the unified machine the reduction's RecMII (3) is achievable.
        let ddg = kernels::dot_product(1000);
        let m = MachineConfig::unified(32);
        assert_eq!(modulo(&ddg, &m, AlgorithmSpec::URACAM).schedule.ii(), 3);
    }

    #[test]
    fn gp_matches_or_beats_fixed_on_kernels() {
        // GP's escape hatch can only help (same partition otherwise).
        let mut gp_wins = 0i32;
        let mut fixed_wins = 0i32;
        for ddg in kernels::all_kernels(500) {
            let m = MachineConfig::four_cluster(32, 1, 1);
            let fc = modulo(&ddg, &m, AlgorithmSpec::FIXED).schedule.cycles(500);
            let gc = modulo(&ddg, &m, AlgorithmSpec::GP).schedule.cycles(500);
            if gc < fc {
                gp_wins += 1;
            }
            if fc < gc {
                fixed_wins += 1;
            }
        }
        assert!(gp_wins >= fixed_wins, "gp {gp_wins} vs fixed {fixed_wins}");
    }

    #[test]
    fn schedules_respect_register_files() {
        for ddg in kernels::all_kernels(200) {
            let m = MachineConfig::four_cluster(32, 1, 1); // 8 regs/cluster
            let g = modulo(&ddg, &m, AlgorithmSpec::GP);
            for (c, &live) in g.schedule.max_live().iter().enumerate() {
                assert!(
                    live <= m.cluster(c).registers as i64,
                    "{}: cluster {c} uses {live} regs",
                    ddg.name()
                );
            }
        }
    }

    #[test]
    fn shared_runs_reproduce_unshared_runs() {
        // Whichever unit reaches the memo first — a fixed spec, or a race
        // that reads the fixed specs' runs — every result must equal
        // scheduling that unit alone, placements included. The portfolio
        // specs race catalog members; `gp:norepart:nospill` has no slot.
        let popts = PartitionOptions::default();
        let cfg = DriverConfig::default();
        let mut specs: Vec<AlgorithmSpec> = AlgorithmSpec::CATALOG.to_vec();
        specs.push(AlgorithmSpec::PORTFOLIO);
        specs.push(AlgorithmSpec::parse("portfolio:5:8").unwrap());
        specs.push(AlgorithmSpec::parse("gp:norepart:nospill").unwrap());
        for ddg in kernels::all_kernels(300) {
            for m in [
                MachineConfig::two_cluster(32, 1, 1),
                MachineConfig::four_cluster(32, 1, 2),
            ] {
                let start_ii = gpsched_ddg::mii::mii(&ddg, &m);
                let partition = Some(gpsched_partition::partition_ddg(&ddg, &m, start_ii, &popts));
                let seed = SchedSeed {
                    start_ii,
                    partition,
                };
                let alone: Vec<LoopResult> = specs
                    .iter()
                    .map(|&s| schedule_loop_spec_seeded(&ddg, &m, s, &popts, &cfg, &seed).unwrap())
                    .collect();
                for portfolio_first in [false, true] {
                    let runs = SharedRuns::default();
                    let mut order: Vec<usize> = (0..specs.len()).collect();
                    if portfolio_first {
                        order.reverse();
                    }
                    for i in order {
                        let got = runs.schedule(&ddg, &m, specs[i], &cfg, &seed);
                        let (got, want) = (got.unwrap(), &alone[i]);
                        let at = format!("{} on {}: {}", ddg.name(), m.short_name(), specs[i]);
                        assert_eq!(got.method, want.method, "{at}");
                        assert_eq!(got.selected, want.selected, "{at}");
                        assert_eq!(got.cycles(), want.cycles(), "{at}");
                        let placements = got.schedule.placements();
                        assert_eq!(placements, want.schedule.placements(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn ii_cap_error_reported() {
        // An impossible cap forces the error path of the II ladder, which
        // the entry points turn into the list fallback.
        let ddg = kernels::dot_product(10);
        let m = MachineConfig::two_cluster(32, 1, 1);
        let cfg = DriverConfig {
            ii_cap: Some(1), // below RecMII=3
        };
        let start = gpsched_ddg::mii::mii(&ddg, &m);
        let spec = AlgorithmSpec::URACAM;
        assert_eq!(
            pipeline::run(&ddg, &m, &cfg, start, None, spec).unwrap_err(),
            SchedError::IiLimitExceeded { limit: 1 }
        );
    }
}
