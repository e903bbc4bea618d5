//! Matching-based coarsening (§2.1.2, §3.2.1).
//!
//! Each level fuses pairs of nodes joined by a maximum-weight matching into
//! macro-nodes, merging parallel edges, until as many nodes as clusters
//! remain. The matching is exact (blossom) — the paper used LEDA's exact
//! matcher — up to [`EXACT_MATCH_LIMIT`] nodes, and greedy heavy-edge
//! above it.

use gpsched_ddg::Ddg;
use gpsched_graph::matching::{greedy_matching, Matcher, WeightedEdge};

/// The largest level that gets an exact blossom matching; larger levels
/// use greedy heavy-edge matching (a METIS-style ½-approximation). Exact
/// matching is O(V³), and innermost-loop DDGs are small, so exact is
/// affordable well past the sizes the suite produces.
pub const EXACT_MATCH_LIMIT: usize = 192;

/// One level of the coarsening hierarchy, stored flat: a handful of
/// vectors per level and none per node.
///
/// Its nodes are macro-nodes of fused ops and its edges the undirected
/// dependences between them. Parallel edges merge into one whose weight is
/// the sum (§2.1.2: "they are combined into a single edge whose weight is
/// equal to the sum of the weights of the original edges"), edges inside
/// a node vanish, and each merged edge sits where its pair first appeared.
/// The blossom matcher breaks ties by edge order, so that order is part of
/// the partition.
#[derive(Clone, Debug, Default)]
pub(crate) struct Level {
    /// Member ops, node after node and ascending within each node: a
    /// permutation of every op index.
    ops: Vec<usize>,
    /// Node `v`'s members are `ops[op_start[v]..op_start[v + 1]]`.
    op_start: Vec<usize>,
    /// Merged edges `(u, v, weight)` with `u < v`, in first-insertion order.
    edges: Vec<WeightedEdge>,
    /// Adjacency in edge order: node `v`'s incident edges are
    /// `adj[adj_start[v]..adj_start[v + 1]]`.
    adj_start: Vec<usize>,
    adj: Vec<usize>,
}

/// A dependence on its way into a [`Level`]: `(u, v, insertion sequence,
/// weight)` with `u < v`.
type RawEdge = (usize, usize, usize, i64);

impl Level {
    /// Number of nodes at this level.
    pub(crate) fn node_count(&self) -> usize {
        self.op_start.len() - 1
    }

    /// Number of ops over all nodes.
    pub(crate) fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The ops fused into node `v`, ascending.
    pub(crate) fn members(&self, v: usize) -> &[usize] {
        &self.ops[self.op_start[v]..self.op_start[v + 1]]
    }

    /// The merged edges, in first-insertion order.
    pub(crate) fn edges(&self) -> &[WeightedEdge] {
        &self.edges
    }

    /// The edges incident to `v` as `(other endpoint, weight)`, in edge
    /// order.
    pub(crate) fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.adj[self.adj_start[v]..self.adj_start[v + 1]]
            .iter()
            .map(move |&e| {
                let (a, b, w) = self.edges[e];
                (if a == v { b } else { a }, w)
            })
    }

    /// Fills `node_of[op]` with the node holding each op.
    pub(crate) fn node_of_ops(&self, node_of: &mut Vec<usize>) {
        node_of.clear();
        node_of.resize(self.ops.len(), 0);
        for v in 0..self.node_count() {
            for &op in self.members(v) {
                node_of[op] = v;
            }
        }
    }

    /// Sets the edges from `raw`, listed in insertion order: pairs merge
    /// by weight addition and keep their first position. Uses `raw` as
    /// scratch.
    fn set_edges(&mut self, raw: &mut Vec<RawEdge>) {
        // Group each pair's copies (sequence order within a group), fold
        // every group into its first copy, then restore insertion order.
        raw.sort_unstable();
        let mut kept = 0;
        for i in 0..raw.len() {
            let (u, v, _, w) = raw[i];
            if kept > 0 && (raw[kept - 1].0, raw[kept - 1].1) == (u, v) {
                raw[kept - 1].3 += w;
            } else {
                raw[kept] = raw[i];
                kept += 1;
            }
        }
        raw.truncate(kept);
        raw.sort_unstable_by_key(|r| r.2);
        let n = self.node_count();
        self.edges.clear();
        self.edges.extend(raw.iter().map(|&(u, v, _, w)| (u, v, w)));
        self.adj_start.clear();
        self.adj_start.resize(n + 1, 0);
        for &(u, v, _) in &self.edges {
            self.adj_start[u + 1] += 1;
            self.adj_start[v + 1] += 1;
        }
        for i in 0..n {
            self.adj_start[i + 1] += self.adj_start[i];
        }
        // Fill front to back with `adj_start[v]` as node `v`'s cursor,
        // which leaves each cursor on the next node's start; shift back.
        self.adj.clear();
        self.adj.resize(2 * self.edges.len(), 0);
        for (e, &(u, v, _)) in self.edges.iter().enumerate() {
            for x in [u, v] {
                self.adj[self.adj_start[x]] = e;
                self.adj_start[x] += 1;
            }
        }
        for i in (1..=n).rev() {
            self.adj_start[i] = self.adj_start[i - 1];
        }
        self.adj_start[0] = 0;
    }
}

/// Buffers the coarsening reuses across levels: the blossom matcher and
/// the per-level matching, pair and merge lists.
#[derive(Clone, Debug, Default)]
pub(crate) struct CoarsenBuffers {
    matcher: Matcher,
    mate: Vec<Option<usize>>,
    pairs: Vec<WeightedEdge>,
    chosen: Vec<(usize, usize)>,
    target: Vec<usize>,
    raw: Vec<RawEdge>,
}

/// Fills `bufs.mate` with the maximum-weight matching of one coarsening
/// level with `n` nodes.
fn match_level(n: usize, edges: &[WeightedEdge], bufs: &mut CoarsenBuffers) {
    bufs.mate.clear();
    if n <= EXACT_MATCH_LIMIT {
        bufs.matcher.solve(n, edges, false);
        let matcher = &bufs.matcher;
        bufs.mate.extend((0..n).map(|v| matcher.mate(v)));
    } else {
        let m = greedy_matching(n, edges);
        bufs.mate.extend((0..n).map(|v| m.mate(v)));
    }
}

/// Builds the finest level: one node per operation, one undirected edge per
/// dependence with the §3.2.1 weight (parallel and antiparallel edges merge
/// by weight addition; self-dependences vanish).
pub(crate) fn initial_level(ddg: &Ddg, weights: &[i64], bufs: &mut CoarsenBuffers) -> Level {
    assert_eq!(weights.len(), ddg.dep_count(), "one weight per dependence");
    let n = ddg.op_count();
    let mut level = Level {
        ops: (0..n).collect(),
        op_start: (0..=n).collect(),
        ..Level::default()
    };
    bufs.raw.clear();
    bufs.raw.extend(ddg.dep_ids().filter_map(|e| {
        let (s, d) = ddg.dep_endpoints(e);
        let (s, d) = (s.index(), d.index());
        (s != d).then_some((s.min(d), s.max(d), e.index(), weights[e.index()]))
    }));
    level.set_edges(&mut bufs.raw);
    level
}

/// Contracts `level` by fusing the node pairs in `bufs.chosen` (each node
/// in at most one pair): pairs become the first nodes, in order, then the
/// unmatched nodes survive as singletons in index order.
fn contract(level: &Level, bufs: &mut CoarsenBuffers) -> Level {
    let n = level.node_count();
    let target = &mut bufs.target;
    target.clear();
    target.resize(n, usize::MAX);
    let mut next = Level {
        ops: Vec::with_capacity(level.ops.len()),
        op_start: Vec::with_capacity(n - bufs.chosen.len() + 1),
        ..Level::default()
    };
    next.op_start.push(0);
    for &(u, v) in &bufs.chosen {
        debug_assert!(target[u] == usize::MAX && target[v] == usize::MAX);
        target[u] = next.node_count();
        target[v] = next.node_count();
        let at = next.ops.len();
        next.ops.extend_from_slice(level.members(u));
        next.ops.extend_from_slice(level.members(v));
        next.ops[at..].sort_unstable();
        next.op_start.push(next.ops.len());
    }
    for (u, t) in target.iter_mut().enumerate() {
        if *t == usize::MAX {
            *t = next.node_count();
            next.ops.extend_from_slice(level.members(u));
            next.op_start.push(next.ops.len());
        }
    }
    bufs.raw.clear();
    for (seq, &(a, b, w)) in level.edges.iter().enumerate() {
        let (x, y) = (target[a], target[b]);
        if x != y {
            bufs.raw.push((x.min(y), x.max(y), seq, w));
        }
    }
    next.set_edges(&mut bufs.raw);
    next
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
pub(crate) fn coarsen_to(finest: Level, target: usize, bufs: &mut CoarsenBuffers) -> Vec<Level> {
    assert!(target > 0, "target must be positive");
    let mut levels = vec![finest];
    loop {
        let current = levels.last().expect("hierarchy never empty");
        let n = current.node_count();
        if n <= target {
            break;
        }
        {
            let _sp = gpsched_trace::span!("partition.coarsen.match", "n={n}");
            match_level(n, current.edges(), bufs);
        }
        // Every matched pair is an edge (both matchers only match along
        // edges) and edges are unique per unordered pair, so one edge scan
        // recovers the matched pairs with their weights.
        let mate = &bufs.mate;
        bufs.pairs.clear();
        bufs.pairs.extend(
            current
                .edges()
                .iter()
                .filter(|&&(a, b, _)| mate[a] == Some(b)),
        );
        // Heaviest pairs first; fuse only as many as needed. The key
        // `(weight, u)` is unique per pair (`u` is matched exactly once),
        // so the order is independent of the edge scan order above.
        bufs.pairs.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        bufs.pairs.truncate(n - target);
        bufs.chosen.clear();
        bufs.chosen
            .extend(bufs.pairs.iter().map(|&(u, v, _)| (u, v)));

        if bufs.chosen.is_empty() {
            // Disconnected leftovers: fuse the smallest nodes pairwise in
            // one batch (one pair per level would create O(n) levels).
            let mut by_size: Vec<usize> = (0..n).collect();
            by_size.sort_by_key(|&v| current.members(v).len());
            let pairs_needed = (n - target).min(n / 2);
            for pair in by_size.chunks(2).take(pairs_needed) {
                if let [u, v] = *pair {
                    bufs.chosen.push((u, v));
                }
            }
        }
        let next = {
            let _sp = gpsched_trace::span!("partition.coarsen.contract");
            contract(current, bufs)
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
    use gpsched_workloads::rng::Prng;

    fn level_for(ddg: &Ddg) -> Level {
        let m = MachineConfig::two_cluster(32, 1, 1);
        let w = edge_weights(ddg, &m, 1, &mut TimingWorkspace::new());
        initial_level(ddg, &w, &mut CoarsenBuffers::default())
    }

    fn coarsen(ddg: &Ddg, target: usize) -> Vec<Level> {
        coarsen_to(level_for(ddg), target, &mut CoarsenBuffers::default())
    }

    /// The insertion semantics of the undirected graph the flat levels
    /// replaced (`UnGraph::add_edge`): drop a self-loop; otherwise add the
    /// weight to the pair's edge, found by scanning the shorter adjacency
    /// list, or append a new edge and list it at both endpoints.
    struct InsertionOracle {
        edges: Vec<WeightedEdge>,
        adjacency: Vec<Vec<usize>>,
    }

    impl InsertionOracle {
        fn new(n: usize) -> Self {
            InsertionOracle {
                edges: Vec::new(),
                adjacency: vec![Vec::new(); n],
            }
        }

        fn add_edge(&mut self, u: usize, v: usize, w: i64) {
            if u == v {
                return;
            }
            let (probe, other) = if self.adjacency[u].len() <= self.adjacency[v].len() {
                (u, v)
            } else {
                (v, u)
            };
            let edges = &self.edges;
            if let Some(&e) = self.adjacency[probe]
                .iter()
                .find(|&&e| edges[e].0 == other || edges[e].1 == other)
            {
                self.edges[e].2 += w;
                return;
            }
            self.edges.push((u.min(v), u.max(v), w));
            self.adjacency[u].push(self.edges.len() - 1);
            self.adjacency[v].push(self.edges.len() - 1);
        }

        /// Same edges in the same order, same weights, and the same
        /// neighbor order at every node.
        fn assert_matches(&self, level: &Level) {
            assert_eq!(level.edges(), &self.edges[..]);
            assert_eq!(level.node_count(), self.adjacency.len());
            for v in 0..level.node_count() {
                let flat: Vec<(usize, i64)> = level.neighbors(v).collect();
                let want: Vec<(usize, i64)> = self.adjacency[v]
                    .iter()
                    .map(|&e| {
                        let (a, b, w) = self.edges[e];
                        (if a == v { b } else { a }, w)
                    })
                    .collect();
                assert_eq!(flat, want, "neighbors of node {v}");
            }
        }
    }

    /// The loops the partitioner sees: the kernels, SPECfp95 and two of
    /// every generator preset.
    fn corpus() -> Vec<Ddg> {
        let mut loops = kernels::all_kernels(100);
        for p in gpsched_workloads::spec_suite() {
            loops.extend(p.loops);
        }
        for name in gpsched_workloads::synth::PRESET_NAMES {
            let profile = gpsched_workloads::synth::preset(name).expect("bundled preset");
            loops.extend(gpsched_workloads::synth::corpus(name, &profile, 11, 2));
        }
        loops
    }

    #[test]
    fn flat_levels_merge_edges_in_insertion_order() {
        for ddg in corpus() {
            let levels = coarsen(&ddg, 2);
            // The finest level: one insertion per dependence.
            let m = MachineConfig::two_cluster(32, 1, 1);
            let w = edge_weights(&ddg, &m, 1, &mut TimingWorkspace::new());
            let mut oracle = InsertionOracle::new(ddg.op_count());
            for e in ddg.dep_ids() {
                let (s, d) = ddg.dep_endpoints(e);
                oracle.add_edge(s.index(), d.index(), w[e.index()]);
            }
            oracle.assert_matches(&levels[0]);
            // Every contraction: the finer level's edges, in order,
            // through the fine-to-coarse node map.
            for pair in levels.windows(2) {
                let (finer, coarser) = (&pair[0], &pair[1]);
                let mut node_of = Vec::new();
                coarser.node_of_ops(&mut node_of);
                let mut oracle = InsertionOracle::new(coarser.node_count());
                for &(a, b, w) in finer.edges() {
                    let (x, y) = (node_of[finer.members(a)[0]], node_of[finer.members(b)[0]]);
                    oracle.add_edge(x, y, w);
                }
                oracle.assert_matches(coarser);
            }
        }
    }

    #[test]
    fn flat_levels_merge_random_multigraphs_like_insertion() {
        // Dense random multigraphs: many parallel, antiparallel and
        // self-loop edges, in arbitrary order.
        let mut rng = Prng::seed_from_u64(0x5eed_f1a7);
        for _ in 0..500 {
            let n = rng.gen_range(1..12usize);
            let m = rng.gen_range(0..40usize);
            let raw: Vec<WeightedEdge> = (0..m)
                .map(|_| {
                    (
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                        rng.gen_range(1..50i64),
                    )
                })
                .collect();
            let mut oracle = InsertionOracle::new(n);
            let mut buf = Vec::new();
            for (seq, &(u, v, w)) in raw.iter().enumerate() {
                oracle.add_edge(u, v, w);
                if u != v {
                    buf.push((u.min(v), u.max(v), seq, w));
                }
            }
            let mut level = Level {
                ops: (0..n).collect(),
                op_start: (0..=n).collect(),
                ..Level::default()
            };
            level.set_edges(&mut buf);
            oracle.assert_matches(&level);
        }
    }

    /// A level of `n` singleton nodes with `edges` inserted in order.
    fn level_with(n: usize, edges: &[WeightedEdge]) -> Level {
        let mut level = Level {
            ops: (0..n).collect(),
            op_start: (0..=n).collect(),
            ..Level::default()
        };
        let mut raw: Vec<RawEdge> = edges
            .iter()
            .enumerate()
            .filter(|&(_, &(u, v, _))| u != v)
            .map(|(seq, &(u, v, w))| (u.min(v), u.max(v), seq, w))
            .collect();
        level.set_edges(&mut raw);
        level
    }

    #[test]
    fn merges_parallel_edges() {
        let level = level_with(2, &[(0, 1, 4), (0, 1, 6)]);
        assert_eq!(level.edges(), [(0, 1, 10)]);
    }

    #[test]
    fn antiparallel_edges_merge() {
        // Either direction names the same pair, and the merged edge stays
        // where the pair first appeared.
        let level = level_with(3, &[(1, 2, 1), (0, 1, 3), (2, 1, 5), (1, 0, 7)]);
        assert_eq!(level.edges(), [(1, 2, 6), (0, 1, 10)]);
    }

    #[test]
    fn drops_self_loops() {
        let level = level_with(1, &[(0, 0, 4)]);
        assert!(level.edges().is_empty());
        assert_eq!(level.neighbors(0).count(), 0);
    }

    #[test]
    fn neighbors_report_other_endpoint() {
        let level = level_with(3, &[(0, 1, 1), (2, 0, 2)]);
        let seen: Vec<_> = level.neighbors(0).collect();
        assert_eq!(seen, [(1, 1), (2, 2)]);
        assert_eq!(level.neighbors(1).collect::<Vec<_>>(), [(0, 1)]);
        assert_eq!(level.neighbors(2).collect::<Vec<_>>(), [(0, 2)]);
    }

    #[test]
    fn normalizes_endpoint_order() {
        let level = level_with(2, &[(1, 0, 1)]);
        assert_eq!(level.edges(), [(0, 1, 1)]);
    }

    #[test]
    fn initial_level_mirrors_ddg() {
        let ddg = kernels::daxpy(100);
        let l = level_for(&ddg);
        assert_eq!(l.node_count(), ddg.op_count());
        assert_eq!(l.op_count(), ddg.op_count());
        let mut map = Vec::new();
        l.node_of_ops(&mut map);
        for (op, node) in map.iter().enumerate() {
            assert_eq!(*node, op);
            assert_eq!(l.members(*node), [op]);
        }
    }

    #[test]
    fn total_member_count_is_invariant() {
        let ddg = kernels::fir(100, 12);
        let levels = coarsen(&ddg, 2);
        for l in &levels {
            let total: usize = (0..l.node_count()).map(|v| l.members(v).len()).sum();
            assert_eq!(total, ddg.op_count());
            // Membership is a partition of the ops: no duplicates.
            let mut all: Vec<usize> = (0..l.node_count())
                .flat_map(|v| l.members(v).iter().copied())
                .collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), ddg.op_count());
        }
    }

    #[test]
    fn node_weight_conserved() {
        // A node's weight is its member count: each coarse node weighs
        // exactly what the finer nodes fused into it weighed.
        let ddg = kernels::stencil5(100);
        let levels = coarsen(&ddg, 4);
        for pair in levels.windows(2) {
            let (finer, coarser) = (&pair[0], &pair[1]);
            let mut node_of = Vec::new();
            coarser.node_of_ops(&mut node_of);
            let mut fused = vec![0usize; coarser.node_count()];
            for v in 0..finer.node_count() {
                fused[node_of[finer.members(v)[0]]] += finer.members(v).len();
            }
            for (c, &w) in fused.iter().enumerate() {
                assert_eq!(coarser.members(c).len(), w);
            }
        }
    }

    #[test]
    fn reaches_target_node_count() {
        for target in [2usize, 4] {
            let ddg = kernels::matmul_inner(100);
            let levels = coarsen(&ddg, target);
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
        let levels = coarsen(&ddg, 2);
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
        let levels = coarsen(&ddg, 3);
        let last = levels.last().unwrap();
        assert_eq!(last.node_count(), 3);
        assert!(
            (0..3).any(|v| last.members(v) == [0, 1]),
            "recurrence pair must fuse: {last:?}"
        );
    }
}
