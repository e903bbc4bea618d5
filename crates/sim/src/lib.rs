//! Cycle-accurate validation of clustered-VLIW modulo schedules.
//!
//! The scheduler crate *constructs* schedules; this crate *executes* them.
//! [`simulate`] expands a [`gpsched_sched::Schedule`] into per-iteration
//! instances (prolog, kernel, epilog) and audits, cycle by cycle:
//!
//! * functional-unit capacity per cluster and cycle (including the memory
//!   slots taken by spill code and memory communications);
//! * bus occupancy of the non-pipelined inter-cluster bus(es);
//! * dataflow: every consumer instance reads a *token* `(producer,
//!   iteration − distance)` that has been produced, completed and — for
//!   cross-cluster reads — delivered before the read cycle;
//! * register pressure: empirical per-cycle live counts against each
//!   cluster's register file;
//! * the closed-form cycle count `(trips − 1)·II + SL` against the last
//!   completion observed in execution.
//!
//! This independent re-derivation is the reproduction's substitute for the
//! authors' in-house toolchain validation (see `DESIGN.md` §2, S7).
//!
//! # Example
//!
//! ```
//! use gpsched_machine::MachineConfig;
//! use gpsched_sched::{schedule_loop, AlgorithmSpec};
//! use gpsched_sim::simulate;
//! use gpsched_workloads::kernels;
//!
//! let ddg = kernels::daxpy(100);
//! let machine = MachineConfig::two_cluster(32, 1, 1);
//! let r = schedule_loop(&ddg, &machine, AlgorithmSpec::GP)?;
//! let report = simulate(&ddg, &machine, &r.schedule, 100).expect("valid schedule");
//! assert_eq!(report.cycles, r.schedule.cycles(100));
//! # Ok::<(), gpsched_sched::SchedError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod exec;

pub use error::SimError;
pub use exec::{simulate, SimReport};
