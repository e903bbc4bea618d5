//! Swing Modulo Scheduling node ordering (Llosa et al., PACT'96; §3.3.3).
//!
//! Nodes are ordered so that each is placed close to its already-placed
//! neighbours, never leaving both a predecessor and a successor unplaced on
//! opposite sides for long. The algorithm:
//!
//! 1. group nodes into *sets*: non-trivial SCCs (recurrences) by decreasing
//!    criticality (their RecMII), then all remaining nodes;
//! 2. traverse each set alternating bottom-up/top-down sweeps, picking the
//!    node with the greatest height (top-down) or depth (bottom-up), with
//!    mobility and id as tie-breakers.

use gpsched_ddg::timing::{Timing, TimingWorkspace};
use gpsched_ddg::{Ddg, OpId};
use gpsched_graph::scc::tarjan_scc;
use gpsched_graph::{NodeBitSet, NodeId};

/// Computes the SMS scheduling order of all ops in `ddg` for interval `ii`
/// (used for the ASAP/ALAP-derived priorities; any `ii ≥ RecMII` gives a
/// valid order).
///
/// # Panics
///
/// Panics if `ii` is below the DDG's recurrence MII.
pub fn sms_order(ddg: &Ddg, ii: i64) -> Vec<OpId> {
    if ddg.op_count() == 0 {
        return Vec::new();
    }
    let mut ws = TimingWorkspace::new();
    let t = ws.analyze(ddg, ii, |_| 0).expect("ii must be >= RecMII");
    sms_order_precomputed(ddg, t, &sms_precompute(ddg))
}

/// The II-independent half of the SMS ordering: recurrence detection,
/// criticality ranking and Llosa's set formation. None of it reads the
/// timing analysis, so the II-raising retry loops compute it once per
/// loop and reorder with [`sms_order_precomputed`] at each II.
#[derive(Clone, Debug)]
pub struct SmsPrecomp {
    /// The node sets to sweep, in processing order (recurrences by
    /// decreasing criticality — each augmented with its connecting
    /// paths — then the remaining nodes).
    sets: Vec<Vec<usize>>,
}

/// Computes the [`SmsPrecomp`] of `ddg` (steps 1 and the set formation of
/// step 2 of the module-level algorithm).
pub fn sms_precompute(ddg: &Ddg) -> SmsPrecomp {
    let n = ddg.op_count();
    if n == 0 {
        return SmsPrecomp { sets: Vec::new() };
    }
    // Sets: recurrences by decreasing RecMII, then everything else.
    let comps = tarjan_scc(ddg.graph());
    let mut rec_sets: Vec<(i64, Vec<usize>)> = Vec::new();
    let mut in_recurrence = vec![false; n];
    for comp in comps.iter() {
        let non_trivial =
            comp.len() > 1 || ddg.graph().out_edges(comp[0]).any(|(_, w)| w == comp[0]);
        if non_trivial {
            let rec = recurrence_mii(ddg, comp);
            let members: Vec<usize> = comp.iter().map(|c| c.index()).collect();
            for &m in &members {
                in_recurrence[m] = true;
            }
            rec_sets.push((rec, members));
        }
    }
    // Decreasing criticality; deterministic tie-break on smallest member.
    rec_sets.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| a.1.iter().min().cmp(&b.1.iter().min()))
    });

    // Llosa's set formation: each recurrence set is augmented with the
    // nodes lying on paths between it and the previously processed sets,
    // so every sweep stays connected to what is already ordered. Nodes of
    // later recurrences are excluded (they arrive with their own set).
    // All membership sets are flat bitsets over the dense op indices —
    // the `HashSet`s this replaced dominated the ordering cost.
    let mut stack: Vec<usize> = Vec::new();
    let mut reach = |starts: &NodeBitSet, forward: bool, seen: &mut NodeBitSet| {
        seen.copy_from(starts);
        stack.clear();
        stack.extend(starts.iter());
        while let Some(v) = stack.pop() {
            let id = NodeId::from_index(v);
            if forward {
                for s in ddg.graph().successors(id) {
                    if seen.insert(s.index()) {
                        stack.push(s.index());
                    }
                }
            } else {
                for p in ddg.graph().predecessors(id) {
                    if seen.insert(p.index()) {
                        stack.push(p.index());
                    }
                }
            }
        }
    };
    let mut sets: Vec<Vec<usize>> = Vec::new();
    let mut processed = NodeBitSet::new(n);
    let mut core_set = NodeBitSet::new(n);
    let mut members = NodeBitSet::new(n);
    let mut later_cores = NodeBitSet::new(n);
    let mut desc_p = NodeBitSet::new(n);
    let mut anc_p = NodeBitSet::new(n);
    let mut desc_r = NodeBitSet::new(n);
    let mut anc_r = NodeBitSet::new(n);
    for (i, (_, core)) in rec_sets.iter().enumerate() {
        core_set.clear();
        for &v in core {
            core_set.insert(v);
        }
        members.copy_from(&core_set);
        if !processed.is_empty() {
            later_cores.clear();
            for v in rec_sets[i + 1..].iter().flat_map(|(_, s)| s.iter()) {
                later_cores.insert(*v);
            }
            reach(&processed, true, &mut desc_p);
            reach(&processed, false, &mut anc_p);
            reach(&core_set, true, &mut desc_r);
            reach(&core_set, false, &mut anc_r);
            for v in 0..n {
                let on_path = (desc_p.contains(v) && anc_r.contains(v))
                    || (desc_r.contains(v) && anc_p.contains(v));
                if on_path && !processed.contains(v) && !later_cores.contains(v) {
                    members.insert(v);
                }
            }
        }
        // Ascending by construction (bitset iteration order).
        let list: Vec<usize> = members.iter().filter(|&v| !processed.contains(v)).collect();
        for &v in &list {
            processed.insert(v);
        }
        sets.push(list);
    }
    let rest: Vec<usize> = (0..n)
        .filter(|&v| !processed.contains(v) && !in_recurrence[v])
        .collect();
    if !rest.is_empty() {
        sets.push(rest);
    }
    SmsPrecomp { sets }
}

/// The ordering itself, from a timing analysis of `ddg` and its set
/// formation already done — the II-dependent sweeps only. `pre` must come
/// from [`sms_precompute`] on the same DDG. The scheduling pipeline
/// analyzes once per attempt, sharing the result between the ordering
/// and the placement windows, and precomputes once per II ladder.
///
/// Each pick maximizes `(ready, primary, −mobility, Reverse(v))`, which
/// is unique per node, so the work list is a set: it is kept as a vector
/// plus membership flags and the pick is swap-removed. Readiness is a
/// per-node count of unordered distance-0 neighbours, lowered once per
/// ordered node.
pub fn sms_order_precomputed(ddg: &Ddg, t: &Timing, pre: &SmsPrecomp) -> Vec<OpId> {
    let n = ddg.op_count();
    if n == 0 {
        return Vec::new();
    }
    let g = ddg.graph();
    // depth = earliest start (longest path in), height = longest path out.
    let depth: &[i64] = &t.asap;
    let span = t.asap.iter().copied().max().unwrap_or(0);
    let height: Vec<i64> = t.alap.iter().map(|&a| span - a).collect();
    let mobility: Vec<i64> = (0..n).map(|v| t.alap[v] - t.asap[v]).collect();

    // Neighbour queries on the whole graph (all distances).
    let preds = |v: usize| g.predecessors(NodeId::from_index(v)).map(|p| p.index());
    let succs = |v: usize| g.successors(NodeId::from_index(v)).map(|s| s.index());

    // Readiness over intra-iteration edges: a node picked before all its
    // distance-0 predecessors (top-down; successors bottom-up) forces
    // those neighbours into both-sided windows later, whose squeeze does
    // not heal with a larger II. Ready nodes come first. `waiting_preds[v]`
    // counts the unordered distance-0 in-edges of `v` from other nodes,
    // `waiting_succs[v]` the out-edges.
    let mut waiting_preds = vec![0u32; n];
    let mut waiting_succs = vec![0u32; n];
    for e in ddg.dep_ids() {
        let (src, dst) = ddg.dep_endpoints(e);
        if src != dst && ddg.dep(e).distance == 0 {
            waiting_succs[src.index()] += 1;
            waiting_preds[dst.index()] += 1;
        }
    }

    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut work: Vec<usize> = Vec::new();
    let mut in_work = vec![false; n];
    let mut sset = NodeBitSet::new(n);
    for set in &pre.sets {
        sset.clear();
        for &v in set {
            sset.insert(v);
        }
        // Work list seeding: prefer connecting to already-ordered nodes.
        let unplaced = set.iter().copied().filter(|&v| !placed[v]);
        let mut bottom_up = true;
        work.extend(unplaced.clone().filter(|&v| succs(v).any(|s| placed[s])));
        if work.is_empty() {
            bottom_up = false;
            work.extend(unplaced.clone().filter(|&v| preds(v).any(|p| placed[p])));
        }
        if work.is_empty() {
            // Fresh component: start from its sources, top-down.
            work.extend(
                unplaced
                    .clone()
                    .filter(|&v| preds(v).all(|p| !sset.contains(p))),
            );
        }
        if work.is_empty() {
            work.extend(unplaced);
        }

        loop {
            for &v in &work {
                in_work[v] = true;
            }
            // Sweep the current work list in the current direction.
            while !work.is_empty() {
                let key = |&(_, &v): &(usize, &usize)| {
                    let (primary, waiting) = if bottom_up {
                        (depth[v], waiting_succs[v])
                    } else {
                        (height[v], waiting_preds[v])
                    };
                    (waiting == 0, primary, -mobility[v], std::cmp::Reverse(v))
                };
                let (i, _) = work
                    .iter()
                    .enumerate()
                    .max_by_key(key)
                    .expect("work list non-empty");
                let pick = work.swap_remove(i);
                in_work[pick] = false;
                placed[pick] = true;
                order.push(pick);
                let id = NodeId::from_index(pick);
                for (e, s) in g.out_edges(id) {
                    if s != id && ddg.dep(e).distance == 0 {
                        waiting_preds[s.index()] -= 1;
                    }
                }
                for (e, p) in g.in_edges(id) {
                    if p != id && ddg.dep(e).distance == 0 {
                        waiting_succs[p.index()] -= 1;
                    }
                }
                let mut enqueue = |v: NodeId| {
                    let v = v.index();
                    if !placed[v] && sset.contains(v) && !in_work[v] {
                        in_work[v] = true;
                        work.push(v);
                    }
                };
                if bottom_up {
                    g.predecessors(id).for_each(&mut enqueue);
                } else {
                    g.successors(id).for_each(&mut enqueue);
                }
            }
            // Flip direction: pick up set nodes adjacent to what's ordered.
            let mut unplaced = set.iter().copied().filter(|&v| !placed[v]);
            let Some(first) = unplaced.next() else {
                break;
            };
            bottom_up = !bottom_up;
            work.extend(std::iter::once(first).chain(unplaced).filter(|&v| {
                if bottom_up {
                    succs(v).any(|s| placed[s])
                } else {
                    preds(v).any(|p| placed[p])
                }
            }));
            if work.is_empty() {
                // Disconnected leftover inside the set.
                work.push(first);
            }
        }
    }

    debug_assert_eq!(order.len(), n);
    order.into_iter().map(NodeId::from_index).collect()
}

/// RecMII of one strongly connected component (restricted subgraph).
fn recurrence_mii(ddg: &Ddg, comp: &[OpId]) -> i64 {
    let mut local: Vec<usize> = comp.iter().map(|c| c.index()).collect();
    local.sort_unstable();
    let is_member = |v: usize| local.binary_search(&v).is_ok();
    let index_of = |v: usize| local.binary_search(&v).expect("member");
    let deps: Vec<(usize, usize, i64, i64)> = ddg
        .dep_ids()
        .filter_map(|e| {
            let (s, d) = ddg.dep_endpoints(e);
            if is_member(s.index()) && is_member(d.index()) {
                let dep = ddg.dep(e);
                Some((
                    index_of(s.index()),
                    index_of(d.index()),
                    dep.latency as i64,
                    dep.distance as i64,
                ))
            } else {
                None
            }
        })
        .collect();
    let upper: i64 = deps.iter().map(|d| d.2.max(0)).sum::<i64>().max(1);
    gpsched_graph::feasibility::min_feasible_ii(local.len(), &deps, 1, upper).unwrap_or(upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_ddg::{mii, DdgBuilder};
    use gpsched_machine::OpClass;
    use gpsched_workloads::kernels;

    fn position(order: &[OpId], op: OpId) -> usize {
        order.iter().position(|&o| o == op).expect("op in order")
    }

    #[test]
    fn covers_every_op_once() {
        for ddg in kernels::all_kernels(100) {
            let ii = mii::rec_mii(&ddg);
            let order = sms_order(&ddg, ii);
            assert_eq!(order.len(), ddg.op_count(), "{}", ddg.name());
            let mut seen: Vec<usize> = order.iter().map(|o| o.index()).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), ddg.op_count(), "{}", ddg.name());
        }
    }

    #[test]
    fn recurrence_nodes_come_first() {
        // dot product: the reduction (acc) is the critical recurrence.
        let ddg = kernels::dot_product(100);
        let ii = mii::rec_mii(&ddg);
        let order = sms_order(&ddg, ii);
        // acc is op index 3 in the builder; it must precede the loads.
        let acc = gpsched_graph::NodeId::from_index(3);
        assert_eq!(position(&order, acc), 0);
    }

    #[test]
    fn neighbours_are_never_isolated() {
        // SMS property: every node (except the first of each connected
        // region) has a graph neighbour among previously ordered nodes.
        for ddg in kernels::all_kernels(50) {
            let ii = mii::rec_mii(&ddg);
            let order = sms_order(&ddg, ii);
            let mut placed = vec![false; ddg.op_count()];
            for &op in &order {
                let has_placed_neighbor = ddg
                    .graph()
                    .predecessors(op)
                    .chain(ddg.graph().successors(op))
                    .any(|n| placed[n.index()]);
                let any_placed_connected = ddg
                    .graph()
                    .predecessors(op)
                    .chain(ddg.graph().successors(op))
                    .count()
                    > 0
                    && placed.iter().any(|&p| p);
                // Either it connects to the placed set, or nothing placed
                // yet is connected to it (start of a region).
                if any_placed_connected && !has_placed_neighbor {
                    // Allowed only when none of its neighbours are placed
                    // anywhere — i.e. its region starts fresh.
                    continue;
                }
                placed[op.index()] = true;
            }
        }
    }

    #[test]
    fn critical_recurrence_precedes_lesser_one() {
        let mut b = DdgBuilder::new("t");
        // Critical: fp mul+add cycle (RecMII 6).
        let m1 = b.op(OpClass::FpMul, "m1");
        let a1 = b.op(OpClass::FpAdd, "a1");
        b.flow(m1, a1);
        b.flow_carried(a1, m1, 1);
        // Lesser: int cycle (RecMII 2).
        let i1 = b.op(OpClass::IntAlu, "i1");
        let i2 = b.op(OpClass::IntAlu, "i2");
        b.flow(i1, i2);
        b.flow_carried(i2, i1, 1);
        let ddg = b.build().unwrap();
        let order = sms_order(&ddg, 6);
        assert!(position(&order, m1) < position(&order, i1));
        assert!(position(&order, a1) < position(&order, i2));
    }

    #[test]
    fn empty_ddg_gives_empty_order() {
        let b = DdgBuilder::new("empty");
        let ddg = b.build().unwrap();
        assert!(sms_order(&ddg, 1).is_empty());
    }

    #[test]
    fn chain_is_ordered_monotonically() {
        // For a pure chain the order must follow the chain (each node has
        // its neighbour already placed).
        let mut b = DdgBuilder::new("chain");
        let ops: Vec<_> = (0..6)
            .map(|i| b.op(OpClass::IntAlu, format!("o{i}")))
            .collect();
        for w in ops.windows(2) {
            b.flow(w[0], w[1]);
        }
        let ddg = b.build().unwrap();
        let order = sms_order(&ddg, 1);
        let positions: Vec<usize> = ops.iter().map(|&o| position(&order, o)).collect();
        let sorted_up = positions.windows(2).all(|w| w[0] < w[1]);
        let sorted_down = positions.windows(2).all(|w| w[0] > w[1]);
        assert!(
            sorted_up || sorted_down,
            "chain order broken: {positions:?}"
        );
    }
}
