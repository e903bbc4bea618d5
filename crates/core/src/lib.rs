//! # gpsched — graph-partitioning based instruction scheduling
//!
//! A Rust reproduction of *"Graph-Partitioning Based Instruction Scheduling
//! for Clustered Processors"* (Aletà, Codina, Sánchez, González — MICRO-34,
//! 2001).
//!
//! The paper's **GP scheme** generates software-pipelined (modulo) schedules
//! for clustered VLIW processors in two cooperating phases:
//!
//! 1. a **multilevel graph partitioner** assigns every operation of a loop
//!    to a cluster using a global view of the data-dependence graph,
//!    weighting edges by the execution-time cost of cutting them;
//! 2. a **URACAM-derived modulo scheduler** performs instruction
//!    scheduling, register allocation and spill-code generation in a single
//!    phase, following the partition and recomputing it selectively when
//!    the bus-imposed II bound makes that worthwhile.
//!
//! This crate is the facade: it re-exports the subsystem crates and the
//! high-level entry points.
//!
//! ## Quickstart
//!
//! ```
//! use gpsched::prelude::*;
//!
//! // y[i] = a*x[i] + y[i], 1000 iterations.
//! let ddg = kernels::daxpy(1000);
//!
//! // The paper's 2-cluster machine: 2 int / 2 fp / 2 mem units and 16
//! // registers per cluster, one 1-cycle bus.
//! let machine = MachineConfig::two_cluster(32, 1, 1);
//!
//! // Schedule with the proposed GP scheme and with the URACAM baseline.
//! let gp = schedule_loop(&ddg, &machine, AlgorithmSpec::GP)?;
//! let uracam = schedule_loop(&ddg, &machine, AlgorithmSpec::URACAM)?;
//! assert!(gp.ipc() > 0.0 && uracam.ipc() > 0.0);
//!
//! // Validate the GP schedule cycle by cycle.
//! let report = simulate(&ddg, &machine, &gp.schedule, 1000).expect("valid");
//! assert_eq!(report.cycles, gp.schedule.cycles(1000));
//! # Ok::<(), gpsched::SchedError>(())
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`graph`] | graph containers + algorithms (SCC, longest paths, blossom matching) |
//! | [`machine`] | clustered VLIW machine model (Table 1) |
//! | [`ddg`] | loop data-dependence graphs, MII, timing |
//! | [`partition`] | the multilevel partitioner (§3.2) |
//! | [`sched`] | modulo scheduling: GP / Fixed / URACAM / List + list fallback (§3.1, §3.3) |
//! | [`sim`] | cycle-accurate schedule validation |
//! | [`workloads`] | kernels + the synthetic SPECfp95 suite + seeded synthesis |
//! | [`engine`] | parallel batch sweeps, MII/partition memo cache, `.ddg` interchange |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gpsched_ddg as ddg;
pub use gpsched_engine as engine;
pub use gpsched_graph as graph;
pub use gpsched_machine as machine;
pub use gpsched_partition as partition;
pub use gpsched_sched as sched;
pub use gpsched_sim as sim;
pub use gpsched_workloads as workloads;

pub use gpsched_ddg::{Ddg, DdgBuilder, DdgError};
pub use gpsched_engine::{run_sweep, JobSpec, RunRecord, SweepOptions, SweepResult};
pub use gpsched_machine::{LatencyModel, MachineConfig, OpClass, ResourceKind};
pub use gpsched_partition::{partition_ddg, CostEvaluator, Partition, PartitionOptions};
pub use gpsched_sched::{schedule_loop, AlgorithmSpec, LoopResult, SchedError, Schedule};
pub use gpsched_sim::{simulate, SimError, SimReport};

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use gpsched_ddg::{mii, timing, Ddg, DdgBuilder};
    pub use gpsched_engine::{run_sweep, JobSpec, SweepOptions};
    pub use gpsched_machine::{table1_configs, MachineConfig, OpClass};
    pub use gpsched_partition::{partition_ddg, CostEvaluator, Partition, PartitionOptions};
    pub use gpsched_sched::{schedule_loop, AlgorithmSpec, LoopResult, Schedule};
    pub use gpsched_sim::simulate;
    pub use gpsched_workloads::{kernels, spec_suite, synth, SynthProfile};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_coherent() {
        // The facade's types are the subsystem types (no duplication).
        let m: crate::MachineConfig = crate::machine::MachineConfig::unified(32);
        assert!(m.is_unified());
        let ddg = crate::workloads::kernels::daxpy(10);
        let r = crate::schedule_loop(&ddg, &m, crate::AlgorithmSpec::GP).unwrap();
        assert!(r.ipc() > 0.0);
    }
}
