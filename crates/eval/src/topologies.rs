//! Topology figure: IPC across interconnect shapes on the SPECfp95 set.
//!
//! The paper's machines only vary bus count and latency; with the machine
//! axis open ([`gpsched_machine::Interconnect`]), this report runs the
//! same SPECfp95 aggregation over one reference machine per topology
//! ([`gpsched_machine::topology_presets`]: shared bus, pipelined bus,
//! ring, point-to-point) so the columns isolate what the interconnect
//! itself is worth. `reproduce topologies` renders it; like `stress` it
//! stays out of `reproduce all`, which pins the paper's frozen
//! evaluation.

use crate::variants::{program_rows, IpcTable};
use gpsched_machine::{topology_presets, MachineConfig};
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::Program;

/// Builds the topology comparison: `programs` on every machine in
/// `machines` under `spec`, aggregated per program exactly like the
/// paper's figures (`Σ ops·trips / Σ cycles`), through the engine
/// executor. The table is named after `spec`; each column is labelled
/// `short-name (interconnect kind)`.
pub fn topology_report(
    programs: &[Program],
    machines: &[MachineConfig],
    spec: AlgorithmSpec,
) -> IpcTable {
    let names: Vec<String> = machines.iter().map(MachineConfig::short_name).collect();
    let rows = program_rows(programs, machines, &[spec], &names, |a| &a.machine);
    IpcTable {
        name: spec.name(),
        columns: names
            .iter()
            .zip(machines)
            .map(|(n, m)| format!("{n} ({})", m.interconnect().kind_name()))
            .collect(),
        rows,
    }
}

/// The default comparison: the SPECfp95 suite under GP over the bundled
/// [`topology_presets`].
pub fn default_topology_report() -> IpcTable {
    topology_report(
        &gpsched_workloads::spec_suite(),
        &topology_presets(),
        AlgorithmSpec::parse("gp").expect("bundled spec"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_workloads::kernels;

    #[test]
    fn topology_report_covers_every_column() {
        let programs = vec![
            Program {
                name: "alpha",
                loops: vec![kernels::daxpy(200), kernels::stencil5(150)],
            },
            Program {
                name: "beta",
                loops: vec![kernels::dot_product(300)],
            },
        ];
        let machines = topology_presets();
        let r = topology_report(
            &programs,
            &machines,
            AlgorithmSpec::parse("gp").expect("parses"),
        );
        assert_eq!(r.columns.len(), machines.len());
        assert_eq!(r.rows.len(), 3); // 2 programs + average
        for row in &r.rows {
            assert_eq!(row.ipc.len(), machines.len());
            assert!(row.ipc.iter().all(|&x| x > 0.0), "{}", row.program);
        }
        let text = crate::report::topologies_section(&r);
        assert!(text.contains("average"));
        assert!(text.contains("(ring)"));
        assert!(text.contains("(p2p)"));
    }
}
