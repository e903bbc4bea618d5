//! Edge weights for coarsening (§3.2.1).
//!
//! `weight(e) = delay(e)·(maxsl + 1) + maxsl − slack(e) + 1`, where
//!
//! * `delay(e)` is the execution-time growth if the edge had to cross the
//!   interconnect: `(niter−1)·(II_after − II_before) + (max_path_after −
//!   max_path_before)`. No clusters are assigned yet at coarsening time,
//!   so the charge is the topology's *worst-case* pairwise transfer
//!   latency ([`MachineConfig::max_transfer_latency`] — exactly the bus
//!   latency on the paper's shared bus, where every pair costs the same).
//!   The II term only moves when `e` lies on a recurrence; the `max_path`
//!   term only when `e` is an intra-iteration edge.
//! * `slack(e)` is the delay `e` can absorb for free, `maxsl` the largest
//!   slack in the graph.
//!
//! Any difference in `delay` therefore dominates any difference in slack,
//! and the `+1` keeps every weight strictly positive so that edges are
//! never invisible to the maximum-weight matching.

use gpsched_ddg::timing::TimingWorkspace;
use gpsched_ddg::{mii, Ddg, DepId};
use gpsched_graph::feasibility::BfKernel;
use gpsched_graph::scc::component_index;
use gpsched_machine::MachineConfig;

/// Per-dependence coarsening weights, indexed by `DepId::index()`.
///
/// `ii_input` is the partitioning input interval (MII on the first round);
/// `machine` supplies the interconnect topology being modelled. The
/// timing analysis runs in `ws` (the partitioner lends its evaluator's
/// workspace, already prepared for `ddg`; any workspace gives the same
/// weights).
///
/// Two shortcuts keep this cheap, and both are exact:
///
/// * the analysis at `ii_input` doubles as the RecMII probe. The weights
///   need `ii_base = max(ii_input, RecMII)`, so RecMII is only searched
///   for when that analysis finds `ii_input` infeasible;
/// * each recurrence edge is probed on a kernel of its own strongly
///   connected component. At any II ≥ `ii_base` every cycle of the graph
///   is already feasible, and delaying `e` changes only the cycles
///   through `e`, which all lie inside `e`'s component.
///
/// # Panics
///
/// Panics if `ii_input` is smaller than 1.
pub fn edge_weights(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii_input: i64,
    ws: &mut TimingWorkspace,
) -> Vec<i64> {
    assert!(ii_input >= 1, "ii_input must be positive");
    let bus_lat = machine.max_transfer_latency();
    let niter = ddg.trip_count() as i64;

    let ii_base = if ws.analyze(ddg, ii_input, |_| 0).is_some() {
        ii_input
    } else {
        let rec = mii::rec_mii(ddg);
        ws.analyze(ddg, rec, |_| 0)
            .expect("ii at or above RecMII is feasible");
        rec
    };
    let t = ws.last();
    let maxsl = t.max_slack;

    // II after delaying each dep by `bus_lat`. Only edges inside a
    // strongly connected component lie on a cycle; every other edge keeps
    // `ii_base`. Each component's internal edges form one kernel over
    // local node numbers, probed once per edge over `[ii_base, ii_base +
    // bus_lat]`: one delayed edge raises RecMII by at most `bus_lat`.
    let mut ii_after = vec![ii_base; ddg.dep_count()];
    let (comps, comp) = component_index(ddg.graph());
    let mut local = vec![0usize; ddg.op_count()];
    for members in comps.iter() {
        for (i, v) in members.iter().enumerate() {
            local[v.index()] = i;
        }
    }
    let mut deps: Vec<(usize, usize, i64, i64)> = Vec::new();
    let mut group: Vec<DepId> = Vec::new();
    for (c, members) in comps.iter().enumerate() {
        deps.clear();
        group.clear();
        for &v in members {
            for (e, w) in ddg.graph().out_edges(v) {
                if comp[w.index()] == c {
                    let dep = ddg.dep(e);
                    deps.push((
                        local[v.index()],
                        local[w.index()],
                        dep.latency as i64,
                        dep.distance as i64,
                    ));
                    group.push(e);
                }
            }
        }
        if group.is_empty() {
            continue;
        }
        let mut kernel = BfKernel::build(members.len(), &deps);
        let mut hint = None;
        for (k, e) in group.iter().enumerate() {
            kernel.add_extra(k, bus_lat);
            let after = kernel
                .min_feasible_ii(ii_base, ii_base + bus_lat, hint)
                .expect("RecMII grows by at most the added delay");
            kernel.add_extra(k, -bus_lat);
            hint = Some(after);
            ii_after[e.index()] = after;
        }
    }

    ddg.dep_ids()
        .map(|e| {
            let (s, d) = ddg.dep_endpoints(e);
            let dep = ddg.dep(e);
            // max_path after delaying e (only distance-0 edges stretch it).
            let mp_after = if dep.distance == 0 {
                t.max_path_with_delay(s.index(), d.index(), dep.latency as i64, bus_lat)
            } else {
                t.max_path
            };
            let delay = (niter - 1) * (ii_after[e.index()] - ii_base) + (mp_after - t.max_path);
            delay * (maxsl + 1) + maxsl - t.edge_slack[e.index()] + 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_ddg::DdgBuilder;
    use gpsched_machine::OpClass;

    fn machine() -> MachineConfig {
        MachineConfig::two_cluster(32, 1, 1)
    }

    #[test]
    fn all_weights_positive() {
        let ddg = gpsched_workloads::kernels::all_kernels(100)
            .into_iter()
            .next()
            .unwrap();
        for w in edge_weights(&ddg, &machine(), 1, &mut TimingWorkspace::new()) {
            assert!(w >= 1);
        }
    }

    #[test]
    fn recurrence_edges_outweigh_slack_edges() {
        // Recurrence a↔c (every delay costs (niter-1) cycles) vs a slack
        // side edge.
        let mut b = DdgBuilder::new("t");
        let a = b.op(OpClass::FpAdd, "a");
        let c = b.op(OpClass::FpAdd, "c");
        let side = b.op(OpClass::IntAlu, "side");
        let e_fwd = b.flow(a, c);
        let e_back = b.flow_carried(c, a, 1);
        let e_side = b.flow(a, side);
        b.trip_count(100);
        let ddg = b.build().unwrap();
        let w = edge_weights(&ddg, &machine(), 1, &mut TimingWorkspace::new());
        assert!(w[e_fwd.index()] > w[e_side.index()]);
        assert!(w[e_back.index()] > w[e_side.index()]);
    }

    #[test]
    fn critical_path_edges_outweigh_slack_edges() {
        // Two parallel chains joining: the long chain's edges hurt more.
        let mut b = DdgBuilder::new("t");
        let ld = b.op(OpClass::Load, "ld");
        let dv = b.op(OpClass::FpDiv, "dv"); // lat 8 chain
        let ad = b.op(OpClass::IntAlu, "ad"); // lat 1 chain
        let st = b.op(OpClass::Store, "st");
        let e_crit = b.flow(ld, dv);
        let e_slack = b.flow(ld, ad);
        b.flow(dv, st);
        b.flow(ad, st);
        b.trip_count(100);
        let ddg = b.build().unwrap();
        let w = edge_weights(&ddg, &machine(), 1, &mut TimingWorkspace::new());
        assert!(
            w[e_crit.index()] > w[e_slack.index()],
            "critical {} vs slack {}",
            w[e_crit.index()],
            w[e_slack.index()]
        );
    }

    #[test]
    fn higher_trip_count_amplifies_recurrence_edges() {
        let build = |n: u64| {
            let mut b = DdgBuilder::new("t");
            let a = b.op(OpClass::FpAdd, "a");
            let c = b.op(OpClass::FpAdd, "c");
            let e = b.flow(a, c);
            b.flow_carried(c, a, 1);
            b.trip_count(n);
            (b.build().unwrap(), e)
        };
        let (d_small, e1) = build(10);
        let (d_big, e2) = build(1000);
        let w_small =
            edge_weights(&d_small, &machine(), 1, &mut TimingWorkspace::new())[e1.index()];
        let w_big = edge_weights(&d_big, &machine(), 1, &mut TimingWorkspace::new())[e2.index()];
        assert!(w_big > w_small);
    }

    #[test]
    fn delay_dominates_slack_difference() {
        // An edge with delay ≥ 1 must outweigh ANY zero-delay edge, no
        // matter the slacks (the paper's (maxsl+1) multiplier).
        let mut b = DdgBuilder::new("t");
        // Critical chain: ld → dv → st.
        let ld = b.op(OpClass::Load, "ld");
        let dv = b.op(OpClass::FpDiv, "dv");
        let st = b.op(OpClass::Store, "st");
        let e_delay = b.flow(ld, dv);
        b.flow(dv, st);
        // A totally slack pair.
        let x = b.op(OpClass::IntAlu, "x");
        let y = b.op(OpClass::IntAlu, "y");
        let e_zero = b.flow(x, y);
        b.trip_count(100);
        let ddg = b.build().unwrap();
        let w = edge_weights(&ddg, &machine(), 1, &mut TimingWorkspace::new());
        assert!(w[e_delay.index()] > w[e_zero.index()]);
    }
}
