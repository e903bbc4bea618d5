//! Table 1 (configurations) and Table 2 (scheduling work).
//!
//! Table 2 counts work instead of timing it. Each (machine, algorithm)
//! pair runs one serial sweep of the suite with the memo cache
//! **disabled**, inside its own trace session: every unit pays its own MII
//! and partitioning work (a cache would siphon Fixed/GP's preprocessing
//! into whichever unit ran first), and the counters of one session belong
//! to one pair. The counts equal `gpsched-engine profile --machines M
//! --algos A --workers 1 --no-cache` for the same suite and repeat
//! exactly on any host; the wall clock, which does not, is kept for the
//! timing appendix.

use crate::profile::traced_sweep;
use gpsched_machine::{table1_configs, MachineConfig};
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::Program;

/// The work one algorithm did scheduling a whole suite on one machine.
#[derive(Clone, Copy, Debug)]
pub struct Work {
    /// Placement trials (`sched.place_trials`): one per (op, cluster,
    /// cycle) the modulo scheduler tried.
    pub place_trials: u64,
    /// II attempts (`sched.ii_attempt` spans).
    pub ii_attempts: u64,
    /// Partition moves evaluated (`partition.moves_evaluated`).
    pub moves_evaluated: u64,
    /// Scheduling wall time per program, milliseconds. Host-dependent:
    /// the timing appendix prints it, the document does not.
    pub ms_per_program: f64,
}

/// One row of Table 2: the work of each modulo algorithm on one
/// configuration.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Machine short name.
    pub machine: String,
    /// URACAM's work.
    pub uracam: Work,
    /// Fixed Partition's work.
    pub fixed: Work,
    /// GP's work.
    pub gp: Work,
}

impl Table2Row {
    /// URACAM's placement trials over the fewer of Fixed's and GP's (the
    /// paper reports a 2–7× CPU-time slowdown).
    pub fn uracam_slowdown(&self) -> f64 {
        self.uracam.place_trials as f64 / self.fixed.place_trials.min(self.gp.place_trials) as f64
    }
}

/// Counts the work of scheduling `programs` on `machine` under `spec` in
/// one traced serial sweep.
fn work(programs: &[Program], machine: &MachineConfig, spec: AlgorithmSpec) -> Work {
    let (result, trace) = traced_sweep(programs, machine, &[spec]);
    let sched_us: u64 = result.records.iter().map(|r| r.sched_time_us).sum();
    Work {
        place_trials: trace.counter("sched.place_trials"),
        ii_attempts: trace
            .summary()
            .phase("sched.ii_attempt")
            .map_or(0, |p| p.count),
        moves_evaluated: trace.counter("partition.moves_evaluated"),
        ms_per_program: sched_us as f64 / programs.len() as f64 / 1e3,
    }
}

/// Table 2 rows for the given machines over `programs`.
pub fn table2_for(programs: &[Program], machines: &[MachineConfig]) -> Vec<Table2Row> {
    machines
        .iter()
        .map(|m| Table2Row {
            machine: m.short_name(),
            uracam: work(programs, m, AlgorithmSpec::URACAM),
            fixed: work(programs, m, AlgorithmSpec::FIXED),
            gp: work(programs, m, AlgorithmSpec::GP),
        })
        .collect()
}

/// **Table 2**: `programs` on every clustered configuration of the
/// paper's evaluation (both bus latencies, both register counts).
pub fn table2(programs: &[Program]) -> Vec<Table2Row> {
    let machines = gpsched_engine::machine_set("clustered").expect("a bundled machine set");
    table2_for(programs, &machines)
}

/// **Table 1** as data: every configuration with its resource shape.
pub fn table1() -> Vec<(String, String)> {
    table1_configs()
        .into_iter()
        .map(|(_, m)| (m.short_name(), m.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_workloads::kernels;

    #[test]
    fn table1_lists_ten_configs() {
        let t = table1();
        assert_eq!(t.len(), 10);
        assert!(t.iter().any(|(n, _)| n == "u-r32"));
        assert!(t.iter().any(|(n, _)| n == "c4r64b1l2"));
    }

    #[test]
    fn table2_rows_positive_and_ordered() {
        let programs = vec![Program {
            name: "mini",
            loops: vec![kernels::daxpy(100), kernels::fir(80, 6)],
        }];
        let machines = vec![
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(32, 1, 1),
        ];
        let rows = table2_for(&programs, &machines);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].machine, "c2r32b1l1");
        // Lower bounds only: other tests' sweeps may add to a session's
        // process-wide counters.
        for r in &rows {
            for w in [r.uracam, r.fixed, r.gp] {
                assert!(w.place_trials > 0 && w.ii_attempts > 0, "{r:?}");
                assert!(w.moves_evaluated > 0 && w.ms_per_program > 0.0, "{r:?}");
            }
            assert!(r.uracam_slowdown() > 0.0);
        }
    }
}
