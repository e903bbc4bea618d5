//! Multilevel graph partitioning of loop DDGs for clustered VLIW processors.
//!
//! Implements §3.2 of *"Graph-Partitioning Based Instruction Scheduling for
//! Clustered Processors"* (Aletà et al., MICRO-34, 2001) — the cluster
//! assignment phase of the GP scheme:
//!
//! 1. **edge weights** ([`weights`]): every dependence is weighted by
//!    `delay(e)·(maxsl+1) + maxsl − slack(e) + 1`, where `delay(e)` is the
//!    estimated execution-time growth if the edge had to cross the bus and
//!    `slack(e)` the cycles it can absorb for free;
//! 2. **coarsening** ([`coarsen`]): maximum-weight matchings (exact blossom
//!    up to [`coarsen::EXACT_MATCH_LIMIT`] nodes, greedy heavy-edge above)
//!    repeatedly fuse the most expensive-to-cut pairs into macro-nodes
//!    until as many nodes as clusters remain;
//! 3. **refinement** ([`refine`]): walking back from the coarsest level,
//!    first rebalance overloaded resources, then greedily apply the single
//!    node move or pair swap that most reduces the estimated execution time
//!    (ties: maximize cut slack, then minimize cut size);
//! 4. **cost estimation** ([`mod@estimate`]): the paper's hypothetical machine —
//!    unlimited registers, perfect memory, realistic memory ports and
//!    interconnect — giving `IIbus`, the effective II and the execution-time
//!    estimate `T = (niter−1)·II + max_path`. The refinement hot path
//!    evaluates candidates through the incremental [`CostEvaluator`]
//!    ([`evaluator`]), which maintains the cut state by O(degree) deltas
//!    and is proven bit-identical to the from-scratch estimate.
//!
//! # Example
//!
//! ```
//! use gpsched_machine::MachineConfig;
//! use gpsched_partition::{partition_ddg, PartitionOptions};
//! use gpsched_workloads::kernels;
//!
//! let ddg = kernels::daxpy(100);
//! let machine = MachineConfig::two_cluster(32, 1, 1);
//! let mii = gpsched_ddg::mii::mii(&ddg, &machine);
//! let result = partition_ddg(&ddg, &machine, mii, &PartitionOptions::default());
//! assert_eq!(result.partition.cluster_count(), 2);
//! // Every op is assigned to a real cluster.
//! assert!(result.partition.assignment().iter().all(|&c| c < 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coarsen;
pub mod comm;
pub mod estimate;
pub mod evaluator;
mod multilevel;
mod partition;
pub mod refine;
pub mod weights;

pub use comm::{comm_cost, ChannelLoad};
pub use estimate::{estimate, estimate_with, PartitionCost};
pub use evaluator::{CostEvaluator, TrialBatch};
pub use multilevel::{partition_ddg, partition_ddg_with, PartitionOptions, PartitionResult};
pub use partition::Partition;
