//! Modulo scheduling for clustered VLIW processors.
//!
//! Implements §3.1 and §3.3 of *"Graph-Partitioning Based Instruction
//! Scheduling for Clustered Processors"* (Aletà et al., MICRO-34, 2001) and
//! its URACAM comparator (Codina, Sánchez, González, PACT'01):
//!
//! * [`order`] — the Swing Modulo Scheduling node ordering;
//! * [`mrt`] — per-cluster modulo reservation tables for functional units
//!   and the non-pipelined inter-cluster bus(es);
//! * [`lifetime`] — register lifetimes and per-cluster `MaxLive` pressure;
//! * [`merit`] — the multi-dimensional figure of merit (§3.3.1) that
//!   compares candidate partial schedules;
//! * [`state`] — the partial schedule: op placement, inter-cluster
//!   communication (bus transfer or through-memory), spill-on-overflow;
//! * [`pipeline`] — the scheduling engine every modulo spec runs: SMS
//!   order, window scan, cluster choice, II growth and re-partitioning,
//!   each rule read from the spec where it applies;
//! * [`AlgorithmSpec`] — the algorithm axis: the paper's schedulers
//!   ([`AlgorithmSpec::GP`], [`AlgorithmSpec::FIXED`],
//!   [`AlgorithmSpec::URACAM`]), the [`AlgorithmSpec::LIST`] baseline and
//!   their string-parsable variants (`gp:norepart`,
//!   `uracam:greedy-merit`, …), each a base plus modifier flags;
//! * [`schedule_loop`] and [`schedule_loop_spec_seeded`] — the two entry
//!   points: run a spec, falling back to list scheduling for loops whose
//!   II explodes;
//! * [`portfolio`] — feature-guided spec selection: rank the fixed
//!   catalog by cheap loop/machine features and race the top `k` with a
//!   budget (`portfolio[:k][:budget]`), keeping the best schedule;
//! * [`schedule`] — the final [`Schedule`] with the paper's cycle/IPC
//!   accounting (`cycles = (trips − 1)·II + SL`, prolog/epilog included).
//!
//! # Example
//!
//! ```
//! use gpsched_machine::MachineConfig;
//! use gpsched_sched::{schedule_loop, AlgorithmSpec};
//! use gpsched_workloads::kernels;
//!
//! let ddg = kernels::daxpy(1000);
//! let machine = MachineConfig::two_cluster(32, 1, 1);
//! let result = schedule_loop(&ddg, &machine, AlgorithmSpec::GP).unwrap();
//! assert!(result.schedule.ii() >= 1);
//! assert!(result.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algo;
mod error;
pub mod lifetime;
pub mod listsched;
pub mod merit;
pub mod mrt;
pub mod order;
pub mod pipeline;
pub mod portfolio;
pub mod schedule;
mod spec;
pub mod state;

pub use algo::{
    schedule_loop, schedule_loop_spec_seeded, DriverConfig, LoopResult, SchedSeed, ScheduledWith,
    SharedRuns,
};
pub use error::SchedError;
pub use schedule::Schedule;
pub use spec::{AlgorithmSpec, SpecError};
