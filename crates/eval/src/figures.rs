//! Figures 2 and 3: IPC per program, per configuration, per algorithm.
//!
//! Since the engine rewrite these sweeps run through
//! [`gpsched_engine::run_sweep`], so they use every CPU the host offers
//! and share MII/partition preprocessing across the per-algorithm bars.

use crate::variants::{series_for_specs, IpcTable};
use gpsched_machine::MachineConfig;
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::Program;

/// Builds one figure sub-graph for a clustered machine configuration
/// from two [`series_for_specs`] sweeps: the unified upper bound (GP on
/// one cluster — all algorithms coincide there) and the clustered
/// machine under the three modulo algorithms. Its columns are `unified`
/// (the unified machine with the same total registers), URACAM, Fixed
/// and GP.
pub fn series_for(programs: &[Program], machine: &MachineConfig) -> IpcTable {
    let unified = unified_bound(programs, machine.total_registers());
    with_unified(programs, machine, &unified)
}

/// The unified upper bound: GP on one cluster with `registers` registers.
fn unified_bound(programs: &[Program], registers: u32) -> IpcTable {
    series_for_specs(
        programs,
        &MachineConfig::unified(registers),
        &[AlgorithmSpec::GP],
    )
}

/// [`series_for`] with the unified bound already swept.
fn with_unified(programs: &[Program], machine: &MachineConfig, unified: &IpcTable) -> IpcTable {
    let mut table = series_for_specs(programs, machine, &AlgorithmSpec::MODULO);
    table.columns.insert(0, "unified".to_string());
    // Both tables end with their average row, so zipping them pairs it too.
    for (row, u) in table.rows.iter_mut().zip(&unified.rows) {
        row.ipc.insert(0, u.ipc[0]);
    }
    table
}

fn figure(programs: &[Program], bus_latency: u32) -> Vec<IpcTable> {
    // Machines with the same register total share one unified sweep.
    let mut unified: Vec<(u32, IpcTable)> = Vec::new();
    let mut out = Vec::new();
    for clusters in [2u32, 4] {
        for regs in [32u32, 64] {
            let machine = match clusters {
                2 => MachineConfig::two_cluster(regs, 1, bus_latency),
                _ => MachineConfig::four_cluster(regs, 1, bus_latency),
            };
            let total = machine.total_registers();
            let at = match unified.iter().position(|(r, _)| *r == total) {
                Some(at) => at,
                None => {
                    unified.push((total, unified_bound(programs, total)));
                    unified.len() - 1
                }
            };
            out.push(with_unified(programs, &machine, &unified[at].1));
        }
    }
    out
}

/// **Figure 2**: IPC for 2- and 4-cluster machines, 32 and 64 registers,
/// one bus of latency 1.
pub fn figure2(programs: &[Program]) -> Vec<IpcTable> {
    figure(programs, 1)
}

/// **Figure 3**: the same sweep with a 2-cycle bus.
pub fn figure3(programs: &[Program]) -> Vec<IpcTable> {
    figure(programs, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::IpcRow;
    use gpsched_workloads::kernels;

    fn mini_suite() -> Vec<Program> {
        vec![
            Program {
                name: "alpha",
                loops: vec![kernels::daxpy(200), kernels::stencil5(150)],
            },
            Program {
                name: "beta",
                loops: vec![kernels::dot_product(300), kernels::fir(100, 6)],
            },
        ]
    }

    #[test]
    fn series_has_programs_plus_average() {
        let m = MachineConfig::two_cluster(32, 1, 1);
        let s = series_for(&mini_suite(), &m);
        assert_eq!(s.columns, ["unified", "URACAM", "Fixed", "GP"]);
        assert_eq!(s.rows.len(), 3);
        assert_eq!(s.rows[0].program, "alpha");
        assert_eq!(s.rows[2].program, "average");
        assert!((s.average_of("GP") - (s.rows[0].ipc[3] + s.rows[1].ipc[3]) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn unified_bar_is_highest() {
        let m = MachineConfig::four_cluster(32, 1, 2);
        let s = series_for(&mini_suite(), &m);
        for r in &s.rows {
            for &ipc in &r.ipc[1..] {
                assert!(r.ipc[0] >= ipc - 1e-9, "{}", r.program);
            }
        }
    }

    #[test]
    fn engine_path_matches_direct_scheduling() {
        // The figure numbers must be exactly what per-loop scheduling
        // produces — the engine adds parallelism, not drift.
        let suite = mini_suite();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let s = series_for(&suite, &m);
        let (mut ops, mut cycles) = (0u128, 0u128);
        for ddg in &suite[0].loops {
            let r = gpsched_sched::schedule_loop(ddg, &m, AlgorithmSpec::GP).expect("schedules");
            ops += r.ops as u128 * r.trips as u128;
            cycles += r.cycles() as u128;
        }
        assert!((s.rows[0].ipc[3] - ops as f64 / cycles as f64).abs() < 1e-12);
    }

    #[test]
    fn speedup_helper() {
        let s = IpcTable {
            name: "x".into(),
            columns: ["unified", "URACAM", "Fixed", "GP"]
                .map(String::from)
                .to_vec(),
            rows: vec![IpcRow {
                program: "average".into(),
                ipc: vec![4.0, 2.0, 2.2, 2.5],
            }],
        };
        assert!((s.speedup("GP", "URACAM") - 1.25).abs() < 1e-12);
    }
}
