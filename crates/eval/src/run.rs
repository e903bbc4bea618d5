//! Scheduling a whole program and measuring it.

use gpsched_machine::MachineConfig;
use gpsched_sched::{schedule_loop, AlgorithmSpec, ScheduledWith};
use gpsched_workloads::Program;
use std::time::{Duration, Instant};

/// Per-loop outcome (used by reports and tests).
#[derive(Clone, Debug)]
pub struct LoopOutcome {
    /// Loop name.
    pub name: String,
    /// Achieved initiation interval.
    pub ii: i64,
    /// Total cycles at the loop's trip count.
    pub cycles: u64,
    /// Useful ops per iteration.
    pub ops: usize,
    /// Trip count.
    pub trips: u64,
    /// Whether the list-scheduling fallback fired.
    pub list_fallback: bool,
}

/// Result of scheduling every loop of a program.
#[derive(Clone, Debug)]
pub struct ProgramRun {
    /// Program name.
    pub program: String,
    /// Algorithm display name.
    pub algorithm: String,
    /// Machine short name.
    pub machine: String,
    /// Aggregate IPC: `Σ ops·trips / Σ cycles` over the loops — exactly the
    /// weighting of whole-program measurement (the paper's §4.1: the
    /// scheduled loops cover ~95% of execution time; ours cover 100% by
    /// construction).
    pub ipc: f64,
    /// CPU time spent computing the schedules (Table 2's metric).
    pub sched_time: Duration,
    /// Per-loop details.
    pub loops: Vec<LoopOutcome>,
}

/// Schedules every loop of `program` on `machine` with `algorithm`.
///
/// # Panics
///
/// Panics if some loop cannot be scheduled at all (cannot happen for the
/// bundled workloads on the paper's machines).
pub fn run_program(
    program: &Program,
    machine: &MachineConfig,
    algorithm: AlgorithmSpec,
) -> ProgramRun {
    let start = Instant::now();
    let results: Vec<_> = program
        .loops
        .iter()
        .map(|ddg| {
            schedule_loop(ddg, machine, algorithm).unwrap_or_else(|e| panic!("{}: {e}", ddg.name()))
        })
        .collect();
    let sched_time = start.elapsed();

    let mut total_ops: u128 = 0;
    let mut total_cycles: u128 = 0;
    let loops: Vec<LoopOutcome> = results
        .iter()
        .map(|r| {
            let cycles = r.cycles();
            total_ops += r.ops as u128 * r.trips as u128;
            total_cycles += cycles as u128;
            LoopOutcome {
                name: r.name.clone(),
                ii: r.schedule.ii(),
                cycles,
                ops: r.ops,
                trips: r.trips,
                list_fallback: matches!(r.method, ScheduledWith::ListFallback),
            }
        })
        .collect();

    ProgramRun {
        program: program.name.to_string(),
        algorithm: algorithm.name().to_string(),
        machine: machine.short_name(),
        ipc: total_ops as f64 / total_cycles as f64,
        sched_time,
        loops,
    }
}

/// The unified-machine upper bound for a program (the white bars of
/// Figures 2 and 3). All algorithms coincide on one cluster; GP is used.
pub fn run_unified(program: &Program, registers: u32) -> ProgramRun {
    run_program(
        program,
        &MachineConfig::unified(registers),
        AlgorithmSpec::GP,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_workloads::kernels;

    fn tiny_program() -> Program {
        Program {
            name: "tiny",
            loops: vec![kernels::daxpy(200), kernels::dot_product(150)],
        }
    }

    #[test]
    fn aggregates_over_loops() {
        let p = tiny_program();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let r = run_program(&p, &m, AlgorithmSpec::GP);
        assert_eq!(r.loops.len(), 2);
        assert!(r.ipc > 0.0 && r.ipc <= 12.0);
        assert_eq!(r.algorithm, "GP");
        assert_eq!(r.machine, "c2r32b1l1");
        // Aggregate equals manual recomputation.
        let ops: u128 = r
            .loops
            .iter()
            .map(|l| l.ops as u128 * l.trips as u128)
            .sum();
        let cyc: u128 = r.loops.iter().map(|l| l.cycles as u128).sum();
        assert!((r.ipc - ops as f64 / cyc as f64).abs() < 1e-12);
    }

    #[test]
    fn unified_baseline_dominates() {
        let p = tiny_program();
        let u = run_unified(&p, 32);
        for algo in AlgorithmSpec::PAPER {
            let c = run_program(&p, &MachineConfig::four_cluster(32, 1, 2), algo);
            assert!(
                u.ipc >= c.ipc - 1e-9,
                "unified {} vs {} {}",
                u.ipc,
                c.algorithm,
                c.ipc
            );
        }
    }

    #[test]
    fn timing_is_recorded() {
        let p = tiny_program();
        let r = run_program(
            &p,
            &MachineConfig::two_cluster(32, 1, 1),
            AlgorithmSpec::URACAM,
        );
        assert!(r.sched_time > Duration::ZERO);
    }
}
