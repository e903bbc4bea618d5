//! Experiment harness reproducing every table and figure of the paper.
//!
//! * [`figures`] — Figure 2 (1 bus, latency 1) and Figure 3 (1 bus,
//!   latency 2): IPC per SPECfp95 program and average, columns = unified
//!   / URACAM / Fixed / GP;
//! * [`tables`] — Table 1 (the configuration matrix) and Table 2 (the
//!   work each algorithm does per configuration, counted by traced serial
//!   sweeps);
//! * [`variants`] — [`IpcTable`], the per-program IPC table every figure
//!   shares, opened to arbitrary [`gpsched_sched::AlgorithmSpec`] lists
//!   so policy variants (`gp:norepart`, `uracam:greedy-merit`, …) get
//!   figures too;
//! * [`audited`] — the sim-audited reports behind `reproduce stress` (the
//!   workload axis: the spec catalog over one generated corpus per
//!   `workloads::synth` preset) and `reproduce portfolio` (the selection
//!   axis: feature-guided `portfolio` against every fixed catalog spec
//!   over those corpora *and* SPECfp95, with an exact aggregate dominance
//!   check); every unit passes the conformance audit, and each
//!   (loop, machine) pair shares one seed and its runs between specs;
//! * [`topologies`] — the machine axis opened too: the SPECfp95 set on
//!   one reference machine per interconnect topology (shared bus,
//!   pipelined bus, ring, point-to-point);
//! * [`profile`] — a traced serial sweep (cache off, like Table 2)
//!   reduced to per-phase span counts, counters and self times;
//! * [`report`] — the one Markdown renderer: every section, the shape
//!   checks, and the deterministic `EXPERIMENTS.md`.
//!
//! The figure sweeps execute through the [`gpsched_engine`] batch
//! executor, so they use every CPU the host offers; Table 2 and the
//! profile run serially with the engine's memo cache off, one trace
//! session at a time.
//!
//! Run `cargo run --release -p gpsched-eval --bin reproduce -- all` to
//! regenerate everything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audited;
pub mod figures;
pub mod profile;
pub mod report;
pub mod tables;
pub mod topologies;
pub mod variants;

pub use audited::{audited_report, preset_corpora, AuditedReport, AuditedRow};
pub use figures::{figure2, figure3};
pub use profile::{profile_report, ProfileReport};
pub use tables::{table2, Table2Row, Work};
pub use topologies::{default_topology_report, topology_report};
pub use variants::{series_for_specs, IpcRow, IpcTable};
