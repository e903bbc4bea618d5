//! Per-program IPC tables, the one table type behind Figures 2/3, the
//! variant figure and the topology comparison: one row per program plus
//! the `"average"` row, one IPC column per algorithm spec or machine.
//!
//! [`series_for_specs`] opens the paper's aggregation to any
//! [`AlgorithmSpec`] list, so policy variants (`gp:norepart`,
//! `uracam:greedy-merit`, …) land in tables exactly like the paper's
//! algorithms.

use gpsched_engine::{aggregate_by_group, run_sweep, GroupAggregate, JobSpec, SweepOptions};
use gpsched_machine::MachineConfig;
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::Program;

/// One program's row of an [`IpcTable`]: one IPC per column, in column
/// order.
#[derive(Clone, Debug)]
pub struct IpcRow {
    /// Program name (or `"average"`).
    pub program: String,
    /// IPC per column.
    pub ipc: Vec<f64>,
}

/// Per-program IPC: a figure's sub-graph, a variant series or the
/// topology comparison.
#[derive(Clone, Debug)]
pub struct IpcTable {
    /// What every column shares: the machine (figures, variants) or the
    /// algorithm spec (topologies).
    pub name: String,
    /// Column headers, in column order: spec display names, `unified`,
    /// or machine labels.
    pub columns: Vec<String>,
    /// Per-program rows followed by the `"average"` row.
    pub rows: Vec<IpcRow>,
}

impl IpcTable {
    /// The average row.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn average(&self) -> &IpcRow {
        self.rows.last().expect("table has an average row")
    }

    /// Average IPC of the named column.
    ///
    /// # Panics
    ///
    /// Panics if `column` is not a column of this table.
    pub fn average_of(&self, column: &str) -> f64 {
        let col = self.columns.iter().position(|c| c == column);
        let col = col.unwrap_or_else(|| panic!("column `{column}` not in table `{}`", self.name));
        self.average().ipc[col]
    }

    /// Average-IPC ratio of column `a` over column `b` (e.g. `GP` over
    /// `GP:norepart` to price selective re-partitioning).
    ///
    /// # Panics
    ///
    /// Panics if either name is not a column of this table.
    pub fn speedup(&self, a: &str, b: &str) -> f64 {
        self.average_of(a) / self.average_of(b)
    }
}

/// Builds one variant series: `programs` on `machine` under every spec in
/// `specs`, aggregated per program exactly like the paper's figures
/// (`Σ ops·trips / Σ cycles`), through the engine executor.
pub fn series_for_specs(
    programs: &[Program],
    machine: &MachineConfig,
    specs: &[AlgorithmSpec],
) -> IpcTable {
    let names: Vec<String> = specs.iter().map(AlgorithmSpec::name).collect();
    let rows = program_rows(
        programs,
        std::slice::from_ref(machine),
        specs,
        &names,
        |a| &a.algorithm,
    );
    IpcTable {
        name: machine.short_name(),
        columns: names,
        rows,
    }
}

/// Sweeps `programs` × `machines` × `specs` through the engine executor
/// and pivots the per-program aggregates into one row per program plus
/// the `"average"` row, with one IPC per entry of `columns`; `column`
/// reads the aggregate's field the columns name (its algorithm or its
/// machine).
pub(crate) fn program_rows(
    programs: &[Program],
    machines: &[MachineConfig],
    specs: &[AlgorithmSpec],
    columns: &[String],
    column: fn(&GroupAggregate) -> &String,
) -> Vec<IpcRow> {
    let job = JobSpec::new()
        .programs(programs)
        .machines(machines.iter().cloned())
        .algorithms(specs.iter().copied());
    let agg = aggregate_by_group(&run_sweep(&job, &SweepOptions::default(), None).records);
    let ipc_of = |group: &str, name: &str| -> f64 {
        agg.iter()
            .find(|a| a.group == group && column(a) == name)
            .map(|a| a.ipc)
            .expect("sweep covers every (program, column)")
    };
    let mut rows: Vec<IpcRow> = programs
        .iter()
        .map(|p| IpcRow {
            program: p.name.to_string(),
            ipc: columns.iter().map(|c| ipc_of(p.name, c)).collect(),
        })
        .collect();
    let n = rows.len() as f64;
    rows.push(IpcRow {
        program: "average".to_string(),
        ipc: (0..columns.len())
            .map(|i| rows.iter().map(|r| r.ipc[i]).sum::<f64>() / n)
            .collect(),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn variant_series_covers_every_spec_column() {
        let specs = [
            AlgorithmSpec::parse("gp").unwrap(),
            AlgorithmSpec::GP_NOREPART,
            AlgorithmSpec::URACAM_GREEDY,
        ];
        let m = MachineConfig::four_cluster(32, 1, 2);
        let s = series_for_specs(&mini_suite(), &m, &specs);
        assert_eq!(s.columns, vec!["GP", "GP:norepart", "URACAM:greedy-merit"]);
        assert_eq!(s.rows.len(), 3); // 2 programs + average
        for r in &s.rows {
            assert_eq!(r.ipc.len(), 3);
            assert!(r.ipc.iter().all(|&x| x > 0.0), "{}", r.program);
        }
        // The re-partitioning ablation ratio is well-defined and near 1
        // (the direction is corpus-dependent — see DESIGN.md §7).
        let ratio = s.speedup("GP", "GP:norepart");
        assert!(ratio.is_finite() && ratio > 0.5 && ratio < 2.0, "{ratio}");
    }

    #[test]
    fn variant_column_matches_legacy_figure_path() {
        // The bare-GP column of a variant series must equal the GP bar of
        // the figure series: same engine, same aggregation.
        let suite = mini_suite();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let specs = [AlgorithmSpec::parse("gp").unwrap()];
        let v = series_for_specs(&suite, &m, &specs);
        let figure = crate::figures::series_for(&suite, &m);
        assert_eq!(figure.columns[3], "GP");
        for (vr, fr) in v.rows.iter().zip(&figure.rows) {
            assert_eq!(vr.program, fr.program);
            assert!((vr.ipc[0] - fr.ipc[3]).abs() < 1e-12, "{}", vr.program);
        }
    }
}
