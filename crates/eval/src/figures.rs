//! Figures 2 and 3: IPC per program, per configuration, per algorithm.
//!
//! Since the engine rewrite these sweeps run through
//! [`gpsched_engine::run_sweep`], so they use every CPU the host offers
//! and share MII/partition preprocessing across the per-algorithm bars.

use crate::variants::series_for_specs;
use gpsched_machine::MachineConfig;
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::{spec_suite, Program};

/// One program's bars in a figure.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Program name (or `"average"`).
    pub program: String,
    /// Unified-machine IPC (white bar; the upper bound).
    pub unified: f64,
    /// URACAM IPC (light grey bar).
    pub uracam: f64,
    /// Fixed Partition IPC (dark grey bar).
    pub fixed: f64,
    /// GP IPC (black bar).
    pub gp: f64,
}

/// One sub-graph of a figure: a clustered configuration with all its bars.
#[derive(Clone, Debug)]
pub struct FigureSeries {
    /// Machine short name (e.g. `c2r32b1l1`).
    pub machine: String,
    /// Human title matching the paper ("2-cluster, 32 registers").
    pub title: String,
    /// Per-program rows followed by the `"average"` row.
    pub rows: Vec<FigureRow>,
}

impl FigureSeries {
    /// The average row.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty.
    pub fn average(&self) -> &FigureRow {
        self.rows.last().expect("series has an average row")
    }

    /// GP speedup over URACAM on the average row.
    pub fn gp_speedup_over_uracam(&self) -> f64 {
        let avg = self.average();
        avg.gp / avg.uracam
    }
}

/// Builds one figure series for a clustered machine configuration from
/// two [`series_for_specs`] sweeps: the unified upper bound (GP on one
/// cluster — all algorithms coincide there) and the clustered machine
/// under the three modulo algorithms.
pub fn series_for(programs: &[Program], machine: &MachineConfig, title: &str) -> FigureSeries {
    let unified = series_for_specs(
        programs,
        &MachineConfig::unified(machine.total_registers()),
        &[AlgorithmSpec::GP],
    );
    let clustered = series_for_specs(programs, machine, &AlgorithmSpec::MODULO);
    // Both series end with their average row, so zipping them pairs it too.
    let rows = unified
        .rows
        .into_iter()
        .zip(clustered.rows)
        .map(|(u, c)| FigureRow {
            program: u.program,
            unified: u.ipc[0],
            uracam: c.ipc[0],
            fixed: c.ipc[1],
            gp: c.ipc[2],
        })
        .collect();
    FigureSeries {
        machine: machine.short_name(),
        title: title.to_string(),
        rows,
    }
}

fn figure(bus_latency: u32) -> Vec<FigureSeries> {
    let programs = spec_suite();
    let mut out = Vec::new();
    for (clusters, label) in [(2u32, "2-cluster"), (4, "4-cluster")] {
        for regs in [32u32, 64] {
            let machine = match clusters {
                2 => MachineConfig::two_cluster(regs, 1, bus_latency),
                _ => MachineConfig::four_cluster(regs, 1, bus_latency),
            };
            let title = format!("{label}, {regs} registers, 1 bus lat {bus_latency}");
            out.push(series_for(&programs, &machine, &title));
        }
    }
    out
}

/// **Figure 2**: IPC for 2- and 4-cluster machines, 32 and 64 registers,
/// one bus of latency 1.
pub fn figure2() -> Vec<FigureSeries> {
    figure(1)
}

/// **Figure 3**: the same sweep with a 2-cycle bus.
pub fn figure3() -> Vec<FigureSeries> {
    figure(2)
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
    fn series_has_programs_plus_average() {
        let m = MachineConfig::two_cluster(32, 1, 1);
        let s = series_for(&mini_suite(), &m, "2-cluster test");
        assert_eq!(s.rows.len(), 3);
        assert_eq!(s.rows[0].program, "alpha");
        assert_eq!(s.rows[2].program, "average");
        let avg = s.average();
        assert!((avg.gp - (s.rows[0].gp + s.rows[1].gp) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn unified_bar_is_highest() {
        let m = MachineConfig::four_cluster(32, 1, 2);
        let s = series_for(&mini_suite(), &m, "4-cluster test");
        for r in &s.rows {
            assert!(r.unified >= r.gp - 1e-9, "{}", r.program);
            assert!(r.unified >= r.uracam - 1e-9, "{}", r.program);
            assert!(r.unified >= r.fixed - 1e-9, "{}", r.program);
        }
    }

    #[test]
    fn engine_path_matches_direct_scheduling() {
        // The figure numbers must be exactly what per-loop scheduling
        // produces — the engine adds parallelism, not drift.
        let suite = mini_suite();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let s = series_for(&suite, &m, "check");
        let (mut ops, mut cycles) = (0u128, 0u128);
        for ddg in &suite[0].loops {
            let r = gpsched_sched::schedule_loop(ddg, &m, AlgorithmSpec::GP).expect("schedules");
            ops += r.ops as u128 * r.trips as u128;
            cycles += r.cycles() as u128;
        }
        assert!((s.rows[0].gp - ops as f64 / cycles as f64).abs() < 1e-12);
    }

    #[test]
    fn speedup_helper() {
        let s = FigureSeries {
            machine: "x".into(),
            title: "t".into(),
            rows: vec![FigureRow {
                program: "average".into(),
                unified: 4.0,
                uracam: 2.0,
                fixed: 2.2,
                gp: 2.5,
            }],
        };
        assert!((s.gp_speedup_over_uracam() - 1.25).abs() < 1e-12);
    }
}
