//! Topological ordering of edge-filtered subgraphs.
//!
//! Loop DDGs are cyclic, but the subgraph of *intra-iteration* edges
//! (dependence distance 0) must be acyclic; timing analyses (`max_path`,
//! ASAP/ALAP) run over that sub-DAG. The functions here therefore accept an
//! edge filter.

use crate::digraph::DiGraph;
use crate::ids::{EdgeId, NodeId};

/// Computes a topological order of the subgraph of `g` containing every node
/// and only the edges accepted by `keep_edge` (Kahn's algorithm).
///
/// Returns `None` if that subgraph contains a cycle.
///
/// # Example
///
/// ```
/// use gpsched_graph::{DiGraph, topo::topo_order};
///
/// let mut g: DiGraph<(), u32> = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// g.add_edge(a, b, 0); // intra-iteration
/// g.add_edge(b, a, 1); // loop-carried (distance 1)
/// // Keeping only distance-0 edges yields an acyclic graph.
/// let order = topo_order(&g, |_, &d| d == 0).unwrap();
/// assert_eq!(order, vec![a, b]);
/// // Keeping everything exposes the cycle.
/// assert!(topo_order(&g, |_, _| true).is_none());
/// ```
pub fn topo_order<N, E>(
    g: &DiGraph<N, E>,
    mut keep_edge: impl FnMut(EdgeId, &E) -> bool,
) -> Option<Vec<NodeId>> {
    let n = g.node_count();
    let mut indegree = vec![0usize; n];
    let mut kept = vec![false; g.edge_count()];
    for e in g.edge_ids() {
        if keep_edge(e, g.edge_weight(e)) {
            kept[e.index()] = true;
            indegree[g.edge_target(e).index()] += 1;
        }
    }
    // Always take the smallest ready id, for determinism: `ready` is kept
    // sorted descending, so that id sits at the end.
    let mut ready: Vec<usize> = (0..n).rev().filter(|&v| indegree[v] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = ready.pop() {
        order.push(NodeId::from_index(v));
        let before = ready.len();
        for (e, w) in g.out_edges(NodeId::from_index(v)) {
            if kept[e.index()] {
                indegree[w.index()] -= 1;
                if indegree[w.index()] == 0 {
                    ready.push(w.index());
                }
            }
        }
        if ready.len() > before {
            ready.sort_unstable_by(|a, b| b.cmp(a));
        }
    }
    (order.len() == n).then_some(order)
}

/// Returns `true` if the subgraph selected by `keep_edge` is acyclic.
pub fn is_acyclic<N, E>(g: &DiGraph<N, E>, keep_edge: impl FnMut(EdgeId, &E) -> bool) -> bool {
    topo_order(g, keep_edge).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_a_dag() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        g.add_edge(b, d, ());
        g.add_edge(c, d, ());
        let order = topo_order(&g, |_, _| true).unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
    }

    #[test]
    fn detects_cycles() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert!(topo_order(&g, |_, _| true).is_none());
        assert!(!is_acyclic(&g, |_, _| true));
    }

    #[test]
    fn filter_removes_cycle() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0);
        let back = g.add_edge(b, a, 1);
        let order = topo_order(&g, |e, _| e != back).unwrap();
        assert_eq!(order, vec![a, b]);
    }

    #[test]
    fn isolated_nodes_appear() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let order = topo_order(&g, |_, _| true).unwrap();
        assert_eq!(order, vec![a, b]);
    }

    #[test]
    fn deterministic_order_prefers_small_ids() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        // No edges at all: expect id order.
        let order = topo_order(&g, |_, _| true).unwrap();
        assert_eq!(order, vec![a, b, c]);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert!(topo_order(&g, |_, _| true).is_none());
    }
}
