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

use crate::variants::{program_rows, VariantRow};
use gpsched_machine::{topology_presets, MachineConfig};
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::Program;

/// The full topology comparison.
#[derive(Clone, Debug)]
pub struct TopologyReport {
    /// Algorithm spec the comparison ran under.
    pub spec: String,
    /// Machine short names, in column order.
    pub machines: Vec<String>,
    /// Interconnect kind tag per machine column.
    pub kinds: Vec<String>,
    /// Per-program rows followed by the `"average"` row, one IPC per
    /// machine.
    pub rows: Vec<VariantRow>,
}

/// Builds the topology report: `programs` on every machine in `machines`
/// under `spec`, aggregated per program exactly like the paper's figures
/// (`Σ ops·trips / Σ cycles`), through the engine executor.
pub fn topology_report(
    programs: &[Program],
    machines: &[MachineConfig],
    spec: AlgorithmSpec,
) -> TopologyReport {
    let names: Vec<String> = machines.iter().map(MachineConfig::short_name).collect();
    let rows = program_rows(programs, machines, &[spec], &names, |a| &a.machine);
    TopologyReport {
        spec: spec.name(),
        machines: names,
        kinds: machines
            .iter()
            .map(|m| m.interconnect().kind_name().to_string())
            .collect(),
        rows,
    }
}

/// The default comparison: the SPECfp95 suite under GP over the bundled
/// [`topology_presets`].
pub fn default_topology_report() -> TopologyReport {
    topology_report(
        &gpsched_workloads::spec_suite(),
        &topology_presets(),
        AlgorithmSpec::parse("gp").expect("bundled spec"),
    )
}

impl TopologyReport {
    /// Plain-text rendering of the table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let widths: Vec<usize> = self.machines.iter().map(|m| m.len().max(8)).collect();
        out.push_str(&format!("{:<10}", "program"));
        for (m, w) in self.machines.iter().zip(&widths) {
            out.push_str(&format!(" {m:>w$}"));
        }
        out.push('\n');
        out.push_str(&format!("{:<10}", ""));
        for (k, w) in self.kinds.iter().zip(&widths) {
            out.push_str(&format!(" {k:>w$}"));
        }
        out.push('\n');
        for row in &self.rows {
            if row.program == "average" {
                let dashes: usize = 10 + widths.iter().map(|w| w + 1).sum::<usize>();
                out.push_str(&"-".repeat(dashes));
                out.push('\n');
            }
            out.push_str(&format!("{:<10}", row.program));
            for (v, w) in row.ipc.iter().zip(&widths) {
                out.push_str(&format!(" {v:>w$.3}"));
            }
            out.push('\n');
        }
        out
    }
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
        assert_eq!(r.machines.len(), machines.len());
        assert_eq!(r.rows.len(), 3); // 2 programs + average
        for row in &r.rows {
            assert_eq!(row.ipc.len(), machines.len());
            assert!(row.ipc.iter().all(|&x| x > 0.0), "{}", row.program);
        }
        let text = r.render();
        assert!(text.contains("average"));
        assert!(text.contains("ring"));
        assert!(text.contains("p2p"));
    }
}
