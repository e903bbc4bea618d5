//! Minimum initiation interval bounds: `ResMII`, `RecMII`, `MII`.
//!
//! * `ResMII` — resource bound: with `N_r` operations using resource kind
//!   `r` and `U_r` total units of that kind, at least `⌈N_r / U_r⌉` cycles
//!   per iteration are needed.
//! * `RecMII` — recurrence bound: the smallest II such that the constraint
//!   graph with edge weights `latency − II·distance` has no positive cycle,
//!   found by binary search (see [`gpsched_graph::feasibility`]).
//! * `MII = max(ResMII, RecMII)` — the paper's input to the partitioner.

use crate::ddg::Ddg;
use crate::DepId;
use gpsched_graph::feasibility::BfKernel;
use gpsched_machine::{MachineConfig, ResourceKind};

/// Resource-constrained MII for `ddg` on `machine`, treating the machine's
/// units as one pool (the paper computes the partitioning input MII this
/// way; per-cluster pressure is the partitioner's business).
///
/// # Panics
///
/// Panics if the DDG uses a resource kind of which the machine has zero
/// units.
pub fn res_mii(ddg: &Ddg, machine: &MachineConfig) -> i64 {
    let mut bound = 1i64;
    for kind in ResourceKind::ALL {
        let ops = ddg.ops_using(kind) as i64;
        if ops == 0 {
            continue;
        }
        let units = machine.total_units(kind) as i64;
        assert!(
            units > 0,
            "machine has no {kind} units but the loop needs them"
        );
        bound = bound.max((ops + units - 1) / units);
    }
    bound
}

/// Sentinel resource bound of an infeasible assignment: a cluster with
/// zero units of some kind holds operations of that kind, so no II is
/// achievable there. Large enough to dominate every honest bound (which
/// is at most the op count of a loop), small enough that downstream
/// `II · distance` products in the timing analysis stay far from `i64`
/// overflow.
pub const INFEASIBLE_RES_BOUND: i64 = 1 << 40;

/// Per-cluster resource MII given a cluster assignment: the largest
/// `⌈ops in cluster using r / units of r per cluster⌉` over all clusters
/// and resource kinds. Used by the partitioner's workload-balance check.
///
/// A cluster holding ops of a kind it has zero units of yields
/// [`INFEASIBLE_RES_BOUND`] — the bound is effectively infinite, and
/// refinement uses the huge cost to steer ops out of such clusters
/// (heterogeneous `.machine` files make this state reachable from input,
/// so it must not panic).
///
/// `assignment[op] = cluster index`.
///
/// # Panics
///
/// Panics if an assignment index is out of range.
pub fn res_mii_clustered(ddg: &Ddg, machine: &MachineConfig, assignment: &[usize]) -> i64 {
    let nclusters = machine.cluster_count();
    let mut counts = vec![[0i64; 3]; nclusters];
    for op in ddg.op_ids() {
        let c = assignment[op.index()];
        assert!(c < nclusters, "assignment out of range");
        counts[c][ddg.op(op).class.resource().index()] += 1;
    }
    let mut bound = 1i64;
    for (c, per_kind) in counts.iter().enumerate() {
        for kind in ResourceKind::ALL {
            let ops = per_kind[kind.index()];
            if ops == 0 {
                continue;
            }
            let units = machine.cluster(c).units(kind) as i64;
            if units == 0 {
                return INFEASIBLE_RES_BOUND;
            }
            bound = bound.max((ops + units - 1) / units);
        }
    }
    bound
}

/// Recurrence-constrained MII of the raw DDG.
pub fn rec_mii(ddg: &Ddg) -> i64 {
    rec_mii_with(ddg, |_| 0)
}

/// Recurrence-constrained MII with extra per-edge delays (the partitioner
/// charges the bus latency on cut edges this way).
///
/// # Panics
///
/// Panics if no feasible II exists below `total_latency + max extra`; this
/// cannot happen for a validated [`Ddg`] with non-negative extras, whose
/// distance-0 subgraph is acyclic.
pub fn rec_mii_with(ddg: &Ddg, mut extra: impl FnMut(DepId) -> i64) -> i64 {
    let deps = ddg.constraint_deps(&mut extra);
    rec_mii_on(&mut BfKernel::build(ddg.op_count(), &deps), &deps)
}

/// [`rec_mii_with`] on a kernel the caller already built from `deps` (a
/// DDG's [`Ddg::constraint_deps`]): the same binary search over the same
/// bounds, so a caller that goes on probing the kernel builds it once.
///
/// # Panics
///
/// Panics if no feasible II exists below the latency sum (see
/// [`rec_mii_with`]).
pub fn rec_mii_on(kernel: &mut BfKernel, deps: &[(usize, usize, i64, i64)]) -> i64 {
    min_feasible_ii_from(kernel, deps, 1)
}

/// The smallest recurrence-feasible II at or above `lower`, searched up
/// to the latency sum (every II from there on is feasible).
fn min_feasible_ii_from(
    kernel: &mut BfKernel,
    deps: &[(usize, usize, i64, i64)],
    lower: i64,
) -> i64 {
    let upper: i64 = deps.iter().map(|d| d.2.max(0)).sum::<i64>().max(lower);
    kernel
        .min_feasible_ii(lower, upper, None)
        .expect("validated DDG must have a feasible II")
}

/// `MII = max(ResMII, RecMII)` — the partitioner's input (§3.1).
///
/// Found as the smallest recurrence-feasible II at or above ResMII
/// (feasibility is monotone in the II): one probe when the loop is
/// resource-bound, and a binary search only above ResMII otherwise.
pub fn mii(ddg: &Ddg, machine: &MachineConfig) -> i64 {
    let _span = gpsched_trace::span!("ddg.mii");
    let deps = ddg.constraint_deps(|_| 0);
    let mut kernel = BfKernel::build(ddg.op_count(), &deps);
    min_feasible_ii_from(&mut kernel, &deps, res_mii(ddg, machine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DdgBuilder;
    use gpsched_machine::OpClass;

    fn machine() -> MachineConfig {
        MachineConfig::unified(32)
    }

    #[test]
    fn res_mii_counts_resource_pressure() {
        let mut b = DdgBuilder::new("t");
        // 9 loads on 4 memory ports → ceil(9/4) = 3.
        for i in 0..9 {
            b.op(OpClass::Load, format!("ld{i}"));
        }
        // 2 int ops on 4 int units → 1.
        b.op(OpClass::IntAlu, "a");
        b.op(OpClass::IntAlu, "b");
        let ddg = b.build().unwrap();
        assert_eq!(res_mii(&ddg, &machine()), 3);
    }

    #[test]
    fn rec_mii_of_simple_recurrence() {
        let mut b = DdgBuilder::new("t");
        let acc = b.op(OpClass::FpAdd, "acc");
        b.flow_carried(acc, acc, 1); // lat 3 / dist 1
        let ddg = b.build().unwrap();
        assert_eq!(rec_mii(&ddg), 3);
    }

    #[test]
    fn rec_mii_distance_two_halves_bound() {
        let mut b = DdgBuilder::new("t");
        let acc = b.op(OpClass::FpAdd, "acc");
        b.flow_carried(acc, acc, 2); // lat 3 / dist 2 → ceil(3/2) = 2
        let ddg = b.build().unwrap();
        assert_eq!(rec_mii(&ddg), 2);
    }

    #[test]
    fn rec_mii_acyclic_is_one() {
        let mut b = DdgBuilder::new("t");
        let a = b.op(OpClass::Load, "a");
        let c = b.op(OpClass::FpMul, "c");
        b.flow(a, c);
        let ddg = b.build().unwrap();
        assert_eq!(rec_mii(&ddg), 1);
    }

    #[test]
    fn extra_delay_raises_rec_mii() {
        let mut b = DdgBuilder::new("t");
        let a = b.op(OpClass::IntAlu, "a");
        let c = b.op(OpClass::IntAlu, "c");
        let fwd = b.flow(a, c); // lat 1
        b.flow_carried(c, a, 1); // lat 1: cycle lat 2, dist 1 → RecMII 2
        let ddg = b.build().unwrap();
        assert_eq!(rec_mii(&ddg), 2);
        // Charging 2 extra cycles (bus) on the forward edge → RecMII 4.
        assert_eq!(rec_mii_with(&ddg, |e| if e == fwd { 2 } else { 0 }), 4);
    }

    #[test]
    fn mii_takes_max_of_bounds() {
        let mut b = DdgBuilder::new("t");
        let acc = b.op(OpClass::FpAdd, "acc");
        b.flow_carried(acc, acc, 1); // RecMII 3
        for i in 0..17 {
            b.op(OpClass::Load, format!("ld{i}")); // ResMII ceil(17/4)=5
        }
        let ddg = b.build().unwrap();
        let m = machine();
        assert_eq!(res_mii(&ddg, &m), 5);
        assert_eq!(rec_mii(&ddg), 3);
        assert_eq!(mii(&ddg, &m), 5);
    }

    #[test]
    fn clustered_res_mii_sees_imbalance() {
        let m = MachineConfig::two_cluster(32, 1, 1); // 2 mem ports/cluster
        let mut b = DdgBuilder::new("t");
        for i in 0..8 {
            b.op(OpClass::Load, format!("ld{i}"));
        }
        let ddg = b.build().unwrap();
        // All 8 loads in cluster 0: ceil(8/2) = 4.
        assert_eq!(res_mii_clustered(&ddg, &m, &[0; 8]), 4);
        // Balanced: ceil(4/2) = 2.
        let balanced: Vec<usize> = (0..8).map(|i| i % 2).collect();
        assert_eq!(res_mii_clustered(&ddg, &m, &balanced), 2);
    }
}
