//! Matching-based coarsening (§2.1.2, §3.2.1).
//!
//! Each level fuses pairs of nodes joined by a maximum-weight matching into
//! macro-nodes, summing node weights and merging parallel edges, until as
//! many nodes as clusters remain. The matching is exact (blossom) by
//! default — the paper used LEDA's exact matcher — with a greedy heavy-edge
//! fallback for large graphs and for the ablation study.

use gpsched_ddg::Ddg;
use gpsched_graph::matching::{greedy_matching, maximum_weight_matching, Matching};
use gpsched_graph::{NodeId, UnGraph};

/// How to compute the maximum-weight matching at each coarsening level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchStrategy {
    /// Exact blossom matching (what the paper's LEDA call computed).
    Exact,
    /// Greedy heavy-edge matching (METIS-style ½-approximation).
    Greedy,
    /// Exact up to the given node count, greedy above it.
    Auto(usize),
}

impl Default for MatchStrategy {
    fn default() -> Self {
        // Exact matching is O(V³); DDGs of innermost loops are small, so
        // exact is affordable well past the sizes the suite produces.
        MatchStrategy::Auto(192)
    }
}

impl MatchStrategy {
    fn run(self, n: usize, edges: &[(usize, usize, i64)]) -> Matching {
        match self {
            MatchStrategy::Exact => maximum_weight_matching(n, edges, false),
            MatchStrategy::Greedy => greedy_matching(n, edges),
            MatchStrategy::Auto(limit) => {
                if n <= limit {
                    maximum_weight_matching(n, edges, false)
                } else {
                    greedy_matching(n, edges)
                }
            }
        }
    }
}

/// One level of the coarsening hierarchy.
#[derive(Clone, Debug)]
pub struct Level {
    /// The (undirected, merged-edge) working graph of this level.
    pub graph: UnGraph,
    /// `members[node] = original op indices` fused into that node.
    pub members: Vec<Vec<usize>>,
}

impl Level {
    /// Inverse of `members`: `op index → node index` at this level.
    pub fn op_to_node(&self) -> Vec<usize> {
        let nops: usize = self.members.iter().map(Vec::len).sum();
        let mut map = vec![usize::MAX; nops];
        for (n, ops) in self.members.iter().enumerate() {
            for &op in ops {
                map[op] = n;
            }
        }
        map
    }

    /// Number of nodes at this level.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }
}

/// Builds the finest level: one node per operation, one undirected edge per
/// dependence with the §3.2.1 weight (parallel and antiparallel edges merge
/// by weight addition; self-dependences vanish).
pub fn initial_level(ddg: &Ddg, weights: &[i64]) -> Level {
    assert_eq!(weights.len(), ddg.dep_count(), "one weight per dependence");
    let mut graph = UnGraph::new();
    for _ in 0..ddg.op_count() {
        graph.add_node(1);
    }
    for e in ddg.dep_ids() {
        let (s, d) = ddg.dep_endpoints(e);
        graph.add_edge(
            NodeId::from_index(s.index()),
            NodeId::from_index(d.index()),
            weights[e.index()],
        );
    }
    Level {
        graph,
        members: (0..ddg.op_count()).map(|i| vec![i]).collect(),
    }
}

/// Contracts `level` by fusing the given node pairs (each node may appear in
/// at most one pair). Unmatched nodes survive as singletons.
fn contract(level: &Level, pairs: &[(usize, usize)]) -> Level {
    let n = level.node_count();
    let mut target = vec![usize::MAX; n];
    let mut graph = UnGraph::new();
    let mut members: Vec<Vec<usize>> = Vec::new();

    for &(u, v) in pairs {
        debug_assert!(target[u] == usize::MAX && target[v] == usize::MAX);
        let id = graph.add_node(
            level.graph.node_weight(NodeId::from_index(u))
                + level.graph.node_weight(NodeId::from_index(v)),
        );
        debug_assert_eq!(id.index(), members.len());
        let mut m = level.members[u].clone();
        m.extend_from_slice(&level.members[v]);
        m.sort_unstable();
        members.push(m);
        target[u] = id.index();
        target[v] = id.index();
    }
    for (u, t) in target.iter_mut().enumerate().take(n) {
        if *t == usize::MAX {
            let id = graph.add_node(level.graph.node_weight(NodeId::from_index(u)));
            *t = id.index();
            members.push(level.members[u].clone());
        }
    }
    for e in level.graph.edges() {
        graph.add_edge(
            NodeId::from_index(target[e.u.index()]),
            NodeId::from_index(target[e.v.index()]),
            e.weight,
        );
    }
    Level { graph, members }
}

/// Coarsens `finest` until at most `target` nodes remain; returns the whole
/// hierarchy, finest level first.
///
/// Each level fuses matched pairs, highest edge weight first, but never
/// more pairs than needed to reach `target` (the paper stops exactly at the
/// cluster count). When the matching is empty but more than `target` nodes
/// remain (disconnected graphs), the two nodes with the fewest member ops
/// are fused instead — a documented deviation required for completeness.
///
/// # Panics
///
/// Panics if `target == 0`.
pub fn coarsen_to(finest: Level, target: usize, strategy: MatchStrategy) -> Vec<Level> {
    assert!(target > 0, "target must be positive");
    let mut levels = vec![finest];
    loop {
        let current = levels.last().expect("hierarchy never empty");
        let n = current.node_count();
        if n <= target {
            break;
        }
        let edges: Vec<(usize, usize, i64)> = current
            .graph
            .edges()
            .map(|e| (e.u.index(), e.v.index(), e.weight))
            .collect();
        let matching = {
            let _sp = gpsched_trace::span!("partition.coarsen.match", "n={n}");
            strategy.run(n, &edges)
        };
        // Every matched pair is an edge (both matchers only match along
        // edges) and edges are unique per unordered pair (`UnGraph` merges
        // parallels), so one edge scan recovers the matched pairs with
        // their weights — no hash map. Orientation is normalised to
        // `(min, max)` exactly as [`Matching::pairs`] yields them.
        let mut pairs: Vec<(usize, usize, i64)> = edges
            .iter()
            .filter(|&&(a, b, _)| a != b && matching.mate(a) == Some(b))
            .map(|&(a, b, w)| (a.min(b), a.max(b), w))
            .collect();
        debug_assert_eq!(pairs.len(), matching.pair_count());
        // Heaviest pairs first; fuse only as many as needed. The key
        // `(weight, u)` is unique per pair (`u` is matched exactly once),
        // so the order is independent of the edge scan order above.
        pairs.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        pairs.truncate(n - target);
        let mut chosen: Vec<(usize, usize)> = pairs.iter().map(|&(u, v, _)| (u, v)).collect();

        if chosen.is_empty() {
            // Disconnected leftovers: fuse the smallest nodes pairwise in
            // one batch (one pair per level would create O(n) levels).
            let mut by_size: Vec<usize> = (0..n).collect();
            by_size.sort_by_key(|&v| current.members[v].len());
            let pairs_needed = (n - target).min(n / 2);
            for pair in by_size.chunks(2).take(pairs_needed) {
                if let [u, v] = *pair {
                    chosen.push((u, v));
                }
            }
        }
        let next = {
            let _sp = gpsched_trace::span!("partition.coarsen.contract");
            contract(current, &chosen)
        };
        debug_assert!(next.node_count() < n, "coarsening must make progress");
        levels.push(next);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::edge_weights;
    use gpsched_ddg::timing::TimingWorkspace;
    use gpsched_machine::MachineConfig;
    use gpsched_workloads::kernels;

    fn level_for(ddg: &Ddg) -> Level {
        let m = MachineConfig::two_cluster(32, 1, 1);
        let w = edge_weights(ddg, &m, 1, &mut TimingWorkspace::new());
        initial_level(ddg, &w)
    }

    #[test]
    fn initial_level_mirrors_ddg() {
        let ddg = kernels::daxpy(100);
        let l = level_for(&ddg);
        assert_eq!(l.node_count(), ddg.op_count());
        assert_eq!(l.members.len(), ddg.op_count());
        let map = l.op_to_node();
        for (op, node) in map.iter().enumerate() {
            assert_eq!(*node, op);
        }
    }

    #[test]
    fn total_member_count_is_invariant() {
        let ddg = kernels::fir(100, 12);
        let levels = coarsen_to(level_for(&ddg), 2, MatchStrategy::Exact);
        for l in &levels {
            let total: usize = l.members.iter().map(Vec::len).sum();
            assert_eq!(total, ddg.op_count());
            // Membership is a partition of the ops: no duplicates.
            let mut all: Vec<usize> = l.members.iter().flatten().copied().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), ddg.op_count());
        }
    }

    #[test]
    fn node_weight_conserved() {
        let ddg = kernels::stencil5(100);
        let levels = coarsen_to(level_for(&ddg), 4, MatchStrategy::Greedy);
        let w0 = levels[0].graph.total_node_weight();
        for l in &levels {
            assert_eq!(l.graph.total_node_weight(), w0);
        }
    }

    #[test]
    fn reaches_target_node_count() {
        for target in [2usize, 4] {
            let ddg = kernels::matmul_inner(100);
            let levels = coarsen_to(level_for(&ddg), target, MatchStrategy::default());
            let last = levels.last().unwrap();
            assert!(last.node_count() <= target);
            // The paper fuses only as many pairs as needed, so we land
            // exactly on target while ops remain.
            assert_eq!(last.node_count(), target.min(ddg.op_count()));
        }
    }

    #[test]
    fn coarsens_disconnected_graphs() {
        // 6 isolated ops: matchings are empty, fallback fusion must fire.
        let mut b = gpsched_ddg::DdgBuilder::new("iso");
        for i in 0..6 {
            b.op(gpsched_machine::OpClass::IntAlu, format!("o{i}"));
        }
        let ddg = b.build().unwrap();
        let levels = coarsen_to(level_for(&ddg), 2, MatchStrategy::Exact);
        assert_eq!(levels.last().unwrap().node_count(), 2);
    }

    #[test]
    fn heavy_edges_fuse_first() {
        // A heavy pair and a light pair; coarsening to 3 nodes must fuse
        // the heavy pair.
        let mut b = gpsched_ddg::DdgBuilder::new("t");
        let a = b.op(gpsched_machine::OpClass::FpAdd, "a");
        let c = b.op(gpsched_machine::OpClass::FpAdd, "c");
        b.flow(a, c);
        b.flow_carried(c, a, 1); // heavy recurrence pair
        let x = b.op(gpsched_machine::OpClass::IntAlu, "x");
        let y = b.op(gpsched_machine::OpClass::IntAlu, "y");
        b.flow(x, y); // light pair
        b.trip_count(100);
        let ddg = b.build().unwrap();
        let levels = coarsen_to(level_for(&ddg), 3, MatchStrategy::Exact);
        let last = levels.last().unwrap();
        assert_eq!(last.node_count(), 3);
        assert!(
            last.members.iter().any(|m| m == &vec![0, 1]),
            "recurrence pair must fuse: {:?}",
            last.members
        );
    }
}
