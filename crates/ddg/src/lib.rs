//! Loop data-dependence graphs (DDGs) and their timing analysis.
//!
//! A [`Ddg`] models the body of an innermost loop as a directed multigraph:
//! nodes are operations ([`Op`], classed per [`gpsched_machine::OpClass`]),
//! edges are dependences ([`Dep`]) carrying a latency and an *iteration
//! distance* (0 for intra-iteration dependences, ≥ 1 for loop-carried ones).
//!
//! On top of the raw graph this crate provides the analyses every phase of
//! the paper's GP scheme consumes:
//!
//! * [`mii`] — the minimum initiation interval: `ResMII` (resource bound),
//!   `RecMII` (recurrence bound, by binary search over positive-cycle
//!   detection) and their max `MII`;
//! * [`timing`] — ASAP/ALAP times, per-edge slack and the longest
//!   intra-iteration path (`max_path`) under a candidate II, optionally with
//!   extra per-edge delays (the partitioner adds the bus latency to cut
//!   edges this way);
//! * [`Ddg::execution_time`] — the paper's cycle model
//!   `(niter − 1)·II + max_path`.
//!
//! # Example
//!
//! ```
//! use gpsched_ddg::DdgBuilder;
//! use gpsched_machine::{MachineConfig, OpClass};
//!
//! // acc = acc + a[i]  (a loop-carried FP recurrence)
//! let mut b = DdgBuilder::new("acc");
//! let ld = b.op(OpClass::Load, "a[i]");
//! let add = b.op(OpClass::FpAdd, "acc+=");
//! b.flow(ld, add);
//! b.flow_carried(add, add, 1);
//! let ddg = b.trip_count(100).build()?;
//!
//! let machine = MachineConfig::unified(32);
//! // The fp-add latency (3) bounds the recurrence: RecMII = 3.
//! assert_eq!(gpsched_ddg::mii::rec_mii(&ddg), 3);
//! assert_eq!(gpsched_ddg::mii::mii(&ddg, &machine), 3);
//! # Ok::<(), gpsched_ddg::DdgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod ddg;
mod dep;
pub mod mii;
mod op;
pub mod timing;
pub mod unroll;

pub use build::{DdgBuilder, DdgError};
pub use ddg::Ddg;
pub use dep::{Dep, DepKind};
pub use op::Op;

/// Identifier of an operation inside a [`Ddg`] (alias of the graph node id).
pub type OpId = gpsched_graph::NodeId;
/// Identifier of a dependence inside a [`Ddg`] (alias of the graph edge id).
pub type DepId = gpsched_graph::EdgeId;
