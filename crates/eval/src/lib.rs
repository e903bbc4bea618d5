//! Experiment harness reproducing every table and figure of the paper.
//!
//! * [`figures`] — Figure 2 (1 bus, latency 1) and Figure 3 (1 bus,
//!   latency 2): IPC per SPECfp95 program and average, bars = unified /
//!   URACAM / Fixed / GP;
//! * [`tables`] — Table 1 (the configuration matrix) and Table 2 (average
//!   scheduling CPU time per algorithm and configuration);
//! * [`variants`] — the same aggregation opened to arbitrary
//!   [`gpsched_sched::AlgorithmSpec`] lists, so policy variants
//!   (`gp:norepart`, `uracam:greedy-merit`, …) get figures too;
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
//!   reduced to per-phase self-time: where the scheduling wall clock
//!   actually goes, layer by layer;
//! * [`report`] — plain-text and Markdown renderers, including the
//!   shape checks recorded in `EXPERIMENTS.md`.
//!
//! The Figure 2/3 and Table 2 sweeps execute through the
//! [`gpsched_engine`] batch executor, so `reproduce` uses every CPU the
//! host offers (Table 2 disables the engine's memo cache to keep its
//! timing metric honest).
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
pub use figures::{figure2, figure3, FigureRow, FigureSeries};
pub use profile::{profile_report, profile_report_on, ProfileReport};
pub use tables::{table2, Table2Row};
pub use topologies::{default_topology_report, topology_report, TopologyReport};
pub use variants::{series_for_specs, VariantRow, VariantSeries};
