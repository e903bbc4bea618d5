//! Tarjan's strongly connected components, iteratively implemented.
//!
//! In a loop DDG the non-trivial SCCs are exactly the *recurrences*
//! (loop-carried dependence cycles). The Swing Modulo Scheduler orders
//! recurrences by criticality, and the partitioner's `RecMII` is determined
//! by the worst cycle inside these components.

use crate::digraph::DiGraph;
use crate::ids::NodeId;

/// Strongly connected components as one flat node list: component `c`
/// is `nodes[start[c]..start[c + 1]]`, so computing them allocates per
/// call, not per component.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Components {
    nodes: Vec<NodeId>,
    start: Vec<usize>,
}

impl Components {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Returns `true` if there are no components (the graph is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The nodes of each component, in component order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &[NodeId]> + ExactSizeIterator + '_ {
        self.start.windows(2).map(|w| &self.nodes[w[0]..w[1]])
    }
}

impl std::ops::Index<usize> for Components {
    type Output = [NodeId];

    /// The nodes of component `c`.
    fn index(&self, c: usize) -> &[NodeId] {
        &self.nodes[self.start[c]..self.start[c + 1]]
    }
}

/// Computes the strongly connected components of `g` with Tarjan's
/// algorithm (iterative, so deep graphs cannot overflow the stack).
///
/// Components are returned in reverse topological order of the condensation
/// (every edge of `g` goes from a later component to an earlier one or stays
/// inside a component), and each component lists nodes in discovery order.
///
/// # Example
///
/// ```
/// use gpsched_graph::{DiGraph, scc::tarjan_scc};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let c = g.add_node(());
/// g.add_edge(a, b, ());
/// g.add_edge(b, a, ());
/// g.add_edge(b, c, ());
/// let comps = tarjan_scc(&g);
/// assert_eq!(comps.len(), 2);
/// assert_eq!(&comps[0], &[c][..]); // sink component first
/// ```
pub fn tarjan_scc<N, E>(g: &DiGraph<N, E>) -> Components {
    const UNVISITED: usize = usize::MAX;
    let n = g.node_count();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Components {
        nodes: Vec::with_capacity(n),
        start: vec![0],
    };

    // Successor lists are materialized once, flat, so each DFS step is
    // O(1): node `v`'s successors are `succ[row[v]..row[v + 1]]`.
    let mut row = Vec::with_capacity(n + 1);
    let mut succ = Vec::with_capacity(g.edge_count());
    row.push(0);
    for v in g.node_ids() {
        succ.extend(g.successors(v).map(|w| w.index()));
        row.push(succ.len());
    }

    // Explicit DFS frame: (node, position in its successor list).
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        call.push((root, row[root]));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if *pos < row[v + 1] {
                let w = succ[*pos];
                *pos += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, row[w]));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    // The component is the stack from `v` up, in
                    // discovery order.
                    let at = stack
                        .iter()
                        .rposition(|&w| w == v)
                        .expect("tarjan root is on the stack");
                    for &w in &stack[at..] {
                        on_stack[w] = false;
                        components.nodes.push(NodeId::from_index(w));
                    }
                    stack.truncate(at);
                    components.start.push(components.nodes.len());
                }
            }
        }
    }
    components
}

/// Returns, for every node, the index of its component in the
/// [`Components`] produced by [`tarjan_scc`].
pub fn component_index<N, E>(g: &DiGraph<N, E>) -> (Components, Vec<usize>) {
    let comps = tarjan_scc(g);
    let mut idx = vec![0usize; g.node_count()];
    for (ci, comp) in comps.iter().enumerate() {
        for &n in comp {
            idx[n.index()] = ci;
        }
    }
    (comps, idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_no_loop_is_trivial_component() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        g.add_node(());
        let comps = tarjan_scc(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 1);
    }

    #[test]
    fn two_cycles_bridged() {
        // (a ↔ b) → (c ↔ d)
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        g.add_edge(b, c, ());
        g.add_edge(c, d, ());
        g.add_edge(d, c, ());
        let comps = tarjan_scc(&g);
        assert_eq!(comps.len(), 2);
        // Reverse topological: the {c,d} sink component comes first.
        let first = &comps[0];
        assert!(first.contains(&c) && first.contains(&d));
        assert!(comps[1].contains(&a) && comps[1].contains(&b));
    }

    #[test]
    fn dag_gives_singletons_in_reverse_topo_order() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        let comps = tarjan_scc(&g);
        assert_eq!(
            comps.iter().collect::<Vec<_>>(),
            vec![&[c][..], &[b][..], &[a][..]]
        );
    }

    #[test]
    fn self_loop_is_its_own_component() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        let comps = tarjan_scc(&g);
        assert_eq!(comps.iter().collect::<Vec<_>>(), vec![&[a][..]]);
    }

    #[test]
    fn component_index_is_consistent() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        let c = g.add_node(());
        g.add_edge(b, c, ());
        let (comps, idx) = component_index(&g);
        assert_eq!(idx[a.index()], idx[b.index()]);
        assert_ne!(idx[a.index()], idx[c.index()]);
        assert!(comps[idx[c.index()]].contains(&c));
    }

    #[test]
    fn long_chain_does_not_overflow_stack() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let nodes: Vec<_> = (0..50_000).map(|_| g.add_node(())).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        let comps = tarjan_scc(&g);
        assert_eq!(comps.len(), 50_000);
    }
}
