//! Table 1 (configurations) and Table 2 (scheduling CPU time).
//!
//! Table 2 runs through the engine with the memo cache **disabled**: its
//! metric is the CPU cost of each algorithm, so every unit must pay its
//! own MII and partitioning work (a cache would siphon Fixed/GP's
//! preprocessing into whichever unit ran first and skew the comparison).

use gpsched_engine::{aggregate_by_group, run_sweep, JobSpec, SweepOptions};
use gpsched_machine::{table1_configs, MachineConfig};
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::{spec_suite, Program};

/// One row of Table 2: average CPU milliseconds to compute the schedule of
/// a whole benchmark, per algorithm, on one configuration.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Machine short name.
    pub machine: String,
    /// URACAM average milliseconds.
    pub uracam_ms: f64,
    /// Fixed Partition average milliseconds.
    pub fixed_ms: f64,
    /// GP average milliseconds.
    pub gp_ms: f64,
}

impl Table2Row {
    /// URACAM slowdown vs the faster of Fixed/GP (the paper reports 2–7×).
    pub fn uracam_slowdown(&self) -> f64 {
        self.uracam_ms / self.fixed_ms.min(self.gp_ms)
    }
}

/// Scheduling-time rows for the given machines over `programs`.
pub fn table2_for(programs: &[Program], machines: &[MachineConfig]) -> Vec<Table2Row> {
    let job = JobSpec::new()
        .programs(programs)
        .machines(machines.iter().cloned())
        .algorithms(AlgorithmSpec::MODULO);
    let opts = SweepOptions {
        use_cache: false,
        ..SweepOptions::default()
    };
    let result = run_sweep(&job, &opts, None);
    let agg = aggregate_by_group(&result.records);

    let nprograms = programs.len() as f64;
    let avg_ms = |machine: &str, algo: AlgorithmSpec| -> f64 {
        let total_us: u64 = agg
            .iter()
            .filter(|a| a.machine == machine && a.algorithm == algo.name())
            .map(|a| a.sched_time_us)
            .sum();
        total_us as f64 / nprograms / 1e3
    };
    machines
        .iter()
        .map(|m| {
            let name = m.short_name();
            Table2Row {
                uracam_ms: avg_ms(&name, AlgorithmSpec::URACAM),
                fixed_ms: avg_ms(&name, AlgorithmSpec::FIXED),
                gp_ms: avg_ms(&name, AlgorithmSpec::GP),
                machine: name,
            }
        })
        .collect()
}

/// **Table 2**: the full suite on every clustered configuration of the
/// paper's evaluation (both bus latencies, both register counts).
pub fn table2() -> Vec<Table2Row> {
    let programs = spec_suite();
    let machines: Vec<MachineConfig> = table1_configs()
        .into_iter()
        .map(|(_, m)| m)
        .filter(|m| !m.is_unified())
        .collect();
    table2_for(&programs, &machines)
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
        for r in &rows {
            assert!(r.uracam_ms > 0.0 && r.fixed_ms > 0.0 && r.gp_ms > 0.0);
            assert!(r.uracam_slowdown() > 0.0);
        }
    }
}
