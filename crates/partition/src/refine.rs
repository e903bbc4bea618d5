//! Partition refinement (§3.2.2): workload balance + cut-impact reduction.
//!
//! Runs at every level of the coarsening hierarchy, from the coarsest to
//! the finest (Kernighan–Lin/Fiduccia–Mattheyses style, but with the
//! paper's objective: *estimated execution time*, not cut size).
//!
//! The cut pass evaluates candidate moves through the incremental
//! [`CostEvaluator`]'s overlay trials ([`CostEvaluator::trial_moves`]):
//! each candidate is screened against a cheap execution-time lower bound
//! and costed entirely under a hypothetical-assignment overlay — the
//! resident state is only mutated for the one move per round that
//! actually wins. No per-candidate apply/revert cycles, `expand` calls or
//! `Partition` allocations remain.

use crate::coarsen::Level;
use crate::estimate::PartitionCost;
use crate::evaluator::{CostEvaluator, TrialBatch};
use gpsched_ddg::Ddg;
use gpsched_machine::{MachineConfig, ResourceKind};

/// Knobs for the refinement passes (ablation switches).
#[derive(Clone, Copy, Debug)]
pub struct RefineOptions {
    /// Run the workload-balance pass.
    pub balance: bool,
    /// Run the cut-impact pass.
    pub cut: bool,
    /// Upper bound on applied moves per level (safety valve).
    pub max_moves: usize,
    /// How many swap partners to evaluate per blocked move.
    pub swap_candidates: usize,
    /// How many screened candidates receive a full execution-time estimate
    /// per move round.
    pub eval_candidates: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            balance: true,
            cut: true,
            max_moves: 64,
            swap_candidates: 4,
            eval_candidates: 12,
        }
    }
}

/// Expands a per-node assignment at `level` into a per-op assignment.
pub fn expand(level: &Level, assign: &[usize]) -> Vec<usize> {
    let nops: usize = level.members.iter().map(Vec::len).sum();
    let mut out = vec![0usize; nops];
    for (node, ops) in level.members.iter().enumerate() {
        for &op in ops {
            out[op] = assign[node];
        }
    }
    out
}

/// Per-node boundary members: the member ops with a dependence whose
/// other endpoint belongs to a different node. Only they can change
/// communication or cut state when the node moves — the evaluator's
/// overlay trials skip the interior entirely ([`TrialBatch::boundary`]).
fn boundary_members(ddg: &Ddg, level: &Level) -> Vec<Vec<usize>> {
    let mut node_of = vec![0u32; ddg.op_count()];
    for (node, ops) in level.members.iter().enumerate() {
        for &op in ops {
            node_of[op] = node as u32;
        }
    }
    level
        .members
        .iter()
        .map(|ops| {
            ops.iter()
                .copied()
                .filter(|&op| {
                    let id = gpsched_graph::NodeId::from_index(op);
                    let here = node_of[op];
                    ddg.graph()
                        .in_edges(id)
                        .map(|(_, p)| p)
                        .chain(ddg.graph().out_edges(id).map(|(_, d)| d))
                        .any(|n| node_of[n.index()] != here)
                })
                .collect()
        })
        .collect()
}

/// Per-node functional-unit usage: `usage[node][kind]` = ops of that kind.
fn node_usage(ddg: &Ddg, level: &Level) -> Vec<[i64; 3]> {
    level
        .members
        .iter()
        .map(|ops| {
            let mut u = [0i64; 3];
            for &op in ops {
                let id = gpsched_graph::NodeId::from_index(op);
                u[ddg.op(id).class.resource().index()] += 1;
            }
            u
        })
        .collect()
}

/// Per-cluster usage totals under `assign`.
fn cluster_usage(usage: &[[i64; 3]], assign: &[usize], nclusters: usize) -> Vec<[i64; 3]> {
    let mut totals = vec![[0i64; 3]; nclusters];
    for (node, u) in usage.iter().enumerate() {
        for k in 0..3 {
            totals[assign[node]][k] += u[k];
        }
    }
    totals
}

/// Per-cluster capacity at interval `ii`: `units × ii` slots per kind.
fn capacities(machine: &MachineConfig, ii: i64) -> Vec<[i64; 3]> {
    machine
        .clusters()
        .map(|c| {
            let mut cap = [0i64; 3];
            for kind in ResourceKind::ALL {
                cap[kind.index()] = c.units(kind) as i64 * ii;
            }
            cap
        })
        .collect()
}

/// Workload balance (§3.2.2 "Improving Workload Balance"): while some
/// (cluster, resource) is loaded beyond 100% of its `ii` slots, move a node
/// that uses the resource to a cluster where it fits without overloading
/// that resource or any more-saturated one. Returns the number of moves.
/// `usage` must be `node_usage` for this level (the caller shares one
/// table between both refinement passes).
pub fn balance_pass(
    machine: &MachineConfig,
    ii: i64,
    level: &Level,
    usage: &[[i64; 3]],
    assign: &mut [usize],
    max_moves: usize,
) -> usize {
    let caps = capacities(machine, ii);
    let nclusters = machine.cluster_count();
    let mut moves = 0usize;

    // Maintained incrementally across moves (it was recomputed per round).
    let mut totals = cluster_usage(usage, assign, nclusters);
    let mut overloaded: Vec<(usize, usize, f64)> = Vec::new();
    let mut nodes: Vec<usize> = Vec::new();

    while moves < max_moves {
        // Overloaded (cluster, kind), most saturated first.
        overloaded.clear();
        for c in 0..nclusters {
            for k in 0..3 {
                if totals[c][k] > caps[c][k] {
                    let sat = totals[c][k] as f64 / caps[c][k].max(1) as f64;
                    overloaded.push((c, k, sat));
                }
            }
        }
        if overloaded.is_empty() {
            break;
        }
        overloaded.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("saturation is finite"));
        // Kinds ranked by how saturated they are anywhere (for the "more
        // critical resources previously considered" rule).
        let rank_of = |k: usize| overloaded.iter().position(|&(_, k2, _)| k2 == k);

        let mut applied = false;
        'search: for &(cl, kind, _) in &overloaded {
            // Candidate nodes in `cl` that use `kind`, heaviest users first.
            nodes.clear();
            nodes
                .extend((0..level.node_count()).filter(|&v| assign[v] == cl && usage[v][kind] > 0));
            nodes.sort_by_key(|&v| std::cmp::Reverse(usage[v][kind]));
            for &v in &nodes {
                for c2 in 0..nclusters {
                    if c2 == cl {
                        continue;
                    }
                    // Destination must absorb the node without overloading
                    // `kind` or any kind at least as critical.
                    let fits = (0..3).all(|k| {
                        let after = totals[c2][k] + usage[v][k];
                        let critical = k == kind
                            || matches!((rank_of(k), rank_of(kind)),
                                        (Some(rk), Some(rkind)) if rk <= rkind);
                        !critical || after <= caps[c2][k]
                    });
                    if fits {
                        for k in 0..3 {
                            totals[cl][k] -= usage[v][k];
                            totals[c2][k] += usage[v][k];
                        }
                        assign[v] = c2;
                        moves += 1;
                        applied = true;
                        break 'search;
                    }
                }
            }
        }
        if !applied {
            // No beneficial movement: wait for a finer level (paper).
            break;
        }
    }
    gpsched_trace::counter!("partition.balance_moves", moves as u64);
    moves
}

/// Cut-impact refinement (§3.2.2 "Minimizing the Impact of Inter-Cluster
/// Edges"): repeatedly apply the single move or pair swap with the largest
/// execution-time benefit (ties: larger cut slack, then smaller cut).
/// Returns the cost of the final assignment.
///
/// `ev` must belong to the same DDG/machine pair; it is reloaded with
/// `assign` on entry and left holding the final assignment. `prev`, when
/// given, must be the exact cost of the entry assignment at `ii_input` as
/// this evaluator computed it — the multilevel driver's projection leaves
/// the op-level assignment unchanged between levels, so the entry
/// reload-and-recost is skipped whenever the evaluator still holds it.
/// `usage` must be `node_usage` for this level.
#[allow(clippy::too_many_arguments)]
pub fn cut_pass(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii_input: i64,
    level: &Level,
    usage: &[[i64; 3]],
    assign: &mut [usize],
    opts: &RefineOptions,
    ev: &mut CostEvaluator<'_>,
    prev: Option<PartitionCost>,
) -> PartitionCost {
    assert!(
        ev.is_for(ddg, machine),
        "evaluator was built for a different DDG/machine"
    );
    // At the finest level every node is a single op and the conservative
    // "everything is boundary" answer is exact — skip the edge walk.
    let boundary = (level.node_count() < ddg.op_count()).then(|| boundary_members(ddg, level));
    let nclusters = machine.cluster_count();
    let expanded = expand(level, assign);
    let mut current = match prev {
        Some(cost) if ev.ii_input() == ii_input && ev.assignment() == &expanded[..] => {
            debug_assert_eq!(cost, ev.cost(), "stale entry cost passed to cut_pass");
            cost
        }
        _ => {
            ev.reset(ii_input, &expanded);
            ev.cost()
        }
    };
    let mut moves = 0usize;
    // Candidate-evaluation tally, batched per pass (a `Cell` because the
    // `consider` closure and the adoption loop both touch it): one
    // increment per overlay trial was a measurable share of
    // enabled-tracing overhead.
    let evaluated = std::cell::Cell::new(0u64);

    // Buffers hoisted out of the move loop.
    let mut candidates: Vec<(i64, usize, usize)> = Vec::new();
    let mut gain_to: Vec<i64> = vec![0; nclusters];
    let mut gain_clusters: Vec<usize> = Vec::new();
    let mut partners: Vec<usize> = Vec::new();
    let mut changes: Vec<(usize, usize)> = Vec::new();

    // "Enough resources" is judged at the II the current partition
    // actually achieves, not the (possibly smaller) input II. Capacities
    // follow that II across rounds; totals follow the applied moves.
    let mut caps_ii = current.ii_effective.max(1);
    let mut caps = capacities(machine, caps_ii);
    let mut totals = cluster_usage(usage, assign, nclusters);

    while moves < opts.max_moves {
        if current.ii_effective.max(1) != caps_ii {
            caps_ii = current.ii_effective.max(1);
            caps = capacities(machine, caps_ii);
        }
        let caps = &caps;
        let fits_move = |totals: &[[i64; 3]], v: usize, c2: usize| -> bool {
            (0..3).all(|k| totals[c2][k] + usage[v][k] <= caps[c2][k])
        };

        let mut best: Option<(Vec<(usize, usize)>, PartitionCost)> = None;

        // Evaluates `changes` as an overlay trial: screen + estimate
        // against the best so far, without touching the evaluator's
        // resident state. No allocation beyond the (reused) buffers.
        let boundary = &boundary;
        let consider =
            |changes: &[(usize, usize)],
             ev: &mut CostEvaluator<'_>,
             best: &mut Option<(Vec<(usize, usize)>, PartitionCost)>| {
                evaluated.set(evaluated.get() + 1);
                let threshold = best.as_ref().map_or(&current, |(_, b)| b);
                let cost = ev.trial_moves(
                    changes.iter().map(|&(v, c)| TrialBatch {
                        ops: &level.members[v],
                        boundary: boundary.as_ref().map_or(&level.members[v], |b| &b[v]),
                        cluster: c,
                    }),
                    threshold,
                );
                if let Some(cost) = cost {
                    *best = Some((changes.to_vec(), cost));
                }
            };

        // Boundary nodes and their foreign neighbor clusters, screened by
        // the classic KL weight gain (external − internal edge weight).
        // Only the most promising candidates pay for a full execution-time
        // estimate; the §3.2.1 edge weights already encode the time impact,
        // so the screen rarely discards the true best move.
        candidates.clear();
        for v in 0..level.node_count() {
            let cl = assign[v];
            gain_clusters.clear();
            let mut internal = 0i64;
            for (_, w, wt) in level.graph.neighbors(gpsched_graph::NodeId::from_index(v)) {
                let cw = assign[w.index()];
                if cw == cl {
                    internal += wt;
                } else {
                    if gain_to[cw] == 0 && !gain_clusters.contains(&cw) {
                        gain_clusters.push(cw);
                    }
                    gain_to[cw] += wt;
                }
            }
            gain_clusters.sort_unstable();
            for &c2 in &gain_clusters {
                candidates.push((gain_to[c2] - internal, v, c2));
                gain_to[c2] = 0;
            }
        }
        // (gain, v, c2) is a total order, so selecting the top
        // `eval_candidates` before sorting yields the same prefix the full
        // sort would.
        let by_gain = |a: &(i64, usize, usize), b: &(i64, usize, usize)| {
            b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
        };
        if opts.eval_candidates == 0 {
            candidates.clear();
        } else if candidates.len() > opts.eval_candidates {
            candidates.select_nth_unstable_by(opts.eval_candidates - 1, by_gain);
            candidates.truncate(opts.eval_candidates);
        }
        candidates.sort_by(by_gain);
        for &(_, v, c2) in &candidates {
            let cl = assign[v];
            if fits_move(&totals, v, c2) {
                changes.clear();
                changes.push((v, c2));
                consider(&changes, ev, &mut best);
            } else {
                // Try interchanges that make room (§3.2.2).
                partners.clear();
                partners.extend((0..level.node_count()).filter(|&u| assign[u] == c2));
                // Prefer partners whose departure frees the most slots.
                partners.sort_by_key(|&u| std::cmp::Reverse(usage[u].iter().sum::<i64>()));
                partners.truncate(opts.swap_candidates);
                for &u in &partners {
                    // Capacity check with both displacements applied.
                    let ok = (0..3).all(|k| {
                        totals[c2][k] + usage[v][k] - usage[u][k] <= caps[c2][k]
                            && totals[cl][k] - usage[v][k] + usage[u][k] <= caps[cl][k]
                    });
                    if ok {
                        changes.clear();
                        changes.push((v, c2));
                        changes.push((u, cl));
                        consider(&changes, ev, &mut best);
                    }
                }
            }
        }

        match best {
            Some((chosen, cost)) => {
                for (v, c) in chosen {
                    for k in 0..3 {
                        totals[assign[v]][k] -= usage[v][k];
                        totals[c][k] += usage[v][k];
                    }
                    assign[v] = c;
                    ev.apply_many(&level.members[v], c);
                }
                debug_assert_eq!(cost, ev.cost(), "overlay trial diverged from apply");
                current = cost;
                moves += 1;
            }
            None => break,
        }
    }
    gpsched_trace::counter!("partition.moves_evaluated", evaluated.get());
    gpsched_trace::counter!("partition.moves_applied", moves as u64);
    current
}

/// Full refinement of one level: balance, then cut impact. The evaluator
/// carries the timing workspace and cut state across levels and calls;
/// `prev` (the previous level's final cost, when the assignment projected
/// through unchanged) lets the cut pass skip its entry re-evaluation.
#[allow(clippy::too_many_arguments)]
pub fn refine_level(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii_input: i64,
    level: &Level,
    assign: &mut [usize],
    opts: &RefineOptions,
    ev: &mut CostEvaluator<'_>,
    prev: Option<PartitionCost>,
) -> PartitionCost {
    let _span = gpsched_trace::span!("partition.refine", "nodes={}", level.node_count());
    // Both passes consume the same per-node usage table; compute it once.
    let usage = node_usage(ddg, level);
    let mut prev = prev;
    if opts.balance && balance_pass(machine, ii_input, level, &usage, assign, opts.max_moves) > 0 {
        prev = None; // the assignment changed under the carried cost
    }
    if opts.cut {
        cut_pass(
            ddg, machine, ii_input, level, &usage, assign, opts, ev, prev,
        )
    } else {
        ev.reset(ii_input, &expand(level, assign));
        ev.cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::initial_level;
    use crate::estimate::estimate;
    use crate::partition::Partition;
    use crate::weights::edge_weights;
    use gpsched_ddg::timing::TimingWorkspace;
    use gpsched_ddg::DdgBuilder;
    use gpsched_machine::OpClass;

    fn level_of(ddg: &Ddg, machine: &MachineConfig) -> Level {
        let w = edge_weights(ddg, machine, 1, &mut TimingWorkspace::new());
        initial_level(ddg, &w)
    }

    #[test]
    fn balance_moves_overload_out() {
        // 8 loads all in cluster 0 of a 2-cluster machine at II=2:
        // capacity 2 ports × 2 = 4 slots per cluster → must move ~4 loads.
        let mut b = DdgBuilder::new("t");
        for i in 0..8 {
            b.op(OpClass::Load, format!("l{i}"));
        }
        let ddg = b.build().unwrap();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let level = level_of(&ddg, &m);
        let mut assign = vec![0usize; 8];
        let usage = node_usage(&ddg, &level);
        let moves = balance_pass(&m, 2, &level, &usage, &mut assign, 100);
        assert!(moves >= 4);
        let in_c1 = assign.iter().filter(|&&c| c == 1).count();
        assert_eq!(in_c1, 4);
    }

    #[test]
    fn balance_gives_up_when_nothing_fits() {
        // 10 loads at II=1: capacity 2 per cluster, 4 total — impossible.
        let mut b = DdgBuilder::new("t");
        for i in 0..10 {
            b.op(OpClass::Load, format!("l{i}"));
        }
        let ddg = b.build().unwrap();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let level = level_of(&ddg, &m);
        let mut assign = vec![0usize; 10];
        // Must terminate (no infinite loop) even though both clusters stay
        // overloaded.
        let usage = node_usage(&ddg, &level);
        balance_pass(&m, 1, &level, &usage, &mut assign, 100);
    }

    #[test]
    fn cut_pass_heals_a_double_cut_chain() {
        // Three chained ops with the middle one exiled: the start state
        // pays two bus transfers and IIbus = 2. The best reachable state
        // keeps II = 1 by pairing two chain ops and paying ONE transfer
        // (merging all three would force II = 2 on the 2-wide int cluster,
        // which the execution-time model correctly rejects).
        let mut b = DdgBuilder::new("t");
        let x = b.op(OpClass::IntAlu, "x");
        let y = b.op(OpClass::IntAlu, "y");
        let z = b.op(OpClass::IntAlu, "z");
        b.flow(x, y);
        b.flow(y, z);
        b.trip_count(100);
        let ddg = b.build().unwrap();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let level = level_of(&ddg, &m);
        let mut assign = vec![0, 1, 0];
        let before = estimate(&ddg, &m, 1, &Partition::new(assign.clone(), 2));
        assert_eq!(before.comm_count, 2);
        let mut ev = CostEvaluator::new(&ddg, &m);
        let cost = cut_pass(
            &ddg,
            &m,
            1,
            &level,
            &node_usage(&ddg, &level),
            &mut assign,
            &RefineOptions::default(),
            &mut ev,
            None,
        );
        assert!(cost.better_than(&before));
        assert_eq!(cost.comm_count, 1);
        assert_eq!(cost.ii_effective, 1);
        // x and y (or y and z) ended up together.
        assert!(assign[0] == assign[1] || assign[1] == assign[2]);
    }

    #[test]
    fn refine_never_worsens_estimate() {
        for ddg in gpsched_workloads::kernels::all_kernels(100) {
            let m = MachineConfig::two_cluster(32, 1, 1);
            let level = level_of(&ddg, &m);
            // Arbitrary striped starting assignment.
            let mut assign: Vec<usize> = (0..level.node_count()).map(|i| i % 2).collect();
            let before = estimate(&ddg, &m, 1, &Partition::new(expand(&level, &assign), 2));
            let mut ev = CostEvaluator::new(&ddg, &m);
            let after = refine_level(
                &ddg,
                &m,
                1,
                &level,
                &mut assign,
                &RefineOptions::default(),
                &mut ev,
                None,
            );
            assert!(
                !before.better_than(&after),
                "{}: refinement worsened cost",
                ddg.name()
            );
        }
    }

    #[test]
    fn swaps_fire_when_capacity_blocks_moves() {
        // Cluster 1 is mem-saturated; moving a load there requires a swap.
        let mut b = DdgBuilder::new("t");
        // Producer chain in cluster 0 ending in a load consumed in c1.
        let p = b.op(OpClass::Load, "p");
        let q = b.op(OpClass::IntAlu, "q");
        b.flow(p, q);
        // Cluster 1: stuffed with 4 independent loads (capacity 2×II).
        for i in 0..4 {
            b.op(OpClass::Load, format!("m{i}"));
        }
        b.trip_count(50);
        let ddg = b.build().unwrap();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let level = level_of(&ddg, &m);
        let mut assign = vec![0, 1, 1, 1, 1, 1];
        // II=2 → mem capacity per cluster is 4; c1 already holds 4 loads.
        let before = estimate(&ddg, &m, 2, &Partition::new(expand(&level, &assign), 2));
        let mut ev = CostEvaluator::new(&ddg, &m);
        let after = cut_pass(
            &ddg,
            &m,
            2,
            &level,
            &node_usage(&ddg, &level),
            &mut assign,
            &RefineOptions::default(),
            &mut ev,
            None,
        );
        assert!(!before.better_than(&after));
    }
}
