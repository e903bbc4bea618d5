//! # gpsched-engine — parallel batch-scheduling engine
//!
//! The paper's evaluation is a large cross product: every loop of every
//! benchmark × every Table 1 machine × every algorithm. This crate turns
//! that shape into a first-class subsystem:
//!
//! * [`JobSpec`] — a declarative sweep: loops (tagged with aggregation
//!   groups), machines, algorithms, shared options;
//! * [`run_sweep`] — the executor: a `std::thread` worker pool with a
//!   shared work queue, a memoized MII/partition cache keyed by DDG
//!   content hash ([`cache`]), a streaming JSONL sink, and results
//!   returned in deterministic unit order regardless of worker count;
//! * [`record`] — per-unit [`RunRecord`]s, per-group aggregation and
//!   sweep-level [`SweepStats`] (aggregate IPC, scheduling time,
//!   fallback rate, throughput);
//! * [`text`] — the `.ddg` textual interchange format, so external loop
//!   corpora can be ingested and the bundled suites exported
//!   (round-trip tested);
//! * [`machine_text`] — the paired `.machine` interchange format for
//!   machine configurations, so custom machines sweep from text files
//!   too.
//!
//! The algorithm axis is open: [`JobSpec::algorithms`] holds
//! [`AlgorithmSpec`](gpsched_sched::AlgorithmSpec) values, so variants
//! like `gp:norepart` or `uracam:greedy-merit` sweep exactly like the
//! paper's four algorithms (`--algos gp,gp:norepart,…` on the CLI).
//!
//! The `gpsched-engine` binary wraps all of it in a CLI:
//!
//! ```text
//! gpsched-engine sweep --spec --workers 4 --out results.jsonl
//! gpsched-engine export --synth 100 --seed 7 --out corpus.ddg
//! gpsched-engine sweep --corpus corpus.ddg --machines c2r32b1l1,c4r64b1l2
//! ```
//!
//! # Example
//!
//! ```
//! use gpsched_engine::{run_sweep, JobSpec, SweepOptions};
//! use gpsched_machine::MachineConfig;
//! use gpsched_sched::AlgorithmSpec;
//! use gpsched_workloads::kernels;
//!
//! let job = JobSpec::new()
//!     .loop_in("demo", kernels::daxpy(1000))
//!     .machine(MachineConfig::two_cluster(32, 1, 1))
//!     .algorithms([AlgorithmSpec::GP, AlgorithmSpec::URACAM]);
//! let result = run_sweep(&job, &SweepOptions::serial(), None);
//! assert_eq!(result.records.len(), 2);
//! assert!(result.records.iter().all(|r| r.ipc > 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod conformance;
pub mod diskcache;
pub mod gen;
pub mod job;
pub mod machine_text;
pub mod record;
pub mod serve;
pub mod sweep;
pub mod text;
mod textutil;

pub use cache::{ddg_content_hash, machine_key, partitioner_key, CacheKey, SweepCache};
pub use diskcache::DiskCache;
pub use gen::{generate_corpus, generate_corpus_text};
pub use job::{distinct_short_names, machine_from_short_name, machine_set, JobSpec, LoopSpec};
pub use machine_text::{
    parse_machine, parse_machine_corpus, serialize_machine, serialize_machine_corpus,
    MachineTextError,
};
pub use record::{aggregate_by_group, canonical_json_line, GroupAggregate, RunRecord, SweepStats};
pub use serve::{serve, ServeOptions};
pub use sweep::{run_sweep, run_sweep_cached, SweepOptions, SweepResult, UnitFailure};
pub use text::{
    parse_corpus, parse_ddg, same_structure, serialize_corpus, serialize_ddg, TextError,
};
