//! Graph containers and algorithms for the `gpsched` workspace.
//!
//! This crate is the lowest-level substrate of the reproduction of
//! *"Graph-Partitioning Based Instruction Scheduling for Clustered
//! Processors"* (Aletà et al., MICRO-34, 2001). Everything here is
//! implemented from scratch — no external graph crate is used.
//!
//! It provides:
//!
//! * [`DiGraph`]: a directed multigraph with node and edge payloads, the
//!   backing store for loop data-dependence graphs;
//! * [`NodeBitSet`]: a flat bitset over dense node indices, the
//!   allocation-free membership set used by the scheduler's ordering and
//!   the partitioner's inner loops;
//! * [`scc`]: Tarjan's strongly-connected-components algorithm (used to find
//!   recurrences);
//! * [`topo`]: topological ordering of the acyclic (distance-0) sub-DAG;
//! * [`feasibility`]: detection of positive cycles in the modulo-scheduling
//!   constraint graph (edge weight `latency − II·distance`), the engine
//!   behind `RecMII`;
//! * [`matching`]: greedy heavy-edge matching and an exact maximum-weight
//!   matching (blossom algorithm), replacing the paper's use of LEDA;
//! * [`UnionFind`]: disjoint sets, used when contracting matched pairs.
//!
//! # Example
//!
//! ```
//! use gpsched_graph::{DiGraph, scc::tarjan_scc};
//!
//! let mut g: DiGraph<&str, u32> = DiGraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! g.add_edge(a, b, 1);
//! g.add_edge(b, a, 2);
//! let comps = tarjan_scc(&g);
//! assert_eq!(comps.len(), 1); // a and b form one recurrence
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod digraph;
mod ids;
mod unionfind;

pub mod feasibility;
pub mod matching;
pub mod scc;
pub mod topo;

pub use bitset::NodeBitSet;
pub use digraph::DiGraph;
pub use ids::{EdgeId, NodeId};
pub use unionfind::UnionFind;
