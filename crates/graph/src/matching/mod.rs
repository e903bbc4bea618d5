//! Maximum-weight matching in general graphs.
//!
//! The paper coarsens the DDG with a *maximum weight matching* "implemented
//! \[with\] the LEDA library" (§3.2.1, footnote). LEDA is proprietary, so this
//! module provides two replacements:
//!
//! * [`greedy_matching`] — the heavy-edge ½-approximation used by METIS-style
//!   multilevel partitioners (sort edges by weight, take greedily);
//! * [`maximum_weight_matching`] — an exact primal–dual blossom algorithm
//!   (Galil's O(V³) formulation, following van Rantwijk's reference
//!   implementation); [`Matcher`] runs it with reusable buffers.
//!
//! The partitioner uses the exact algorithm (matching LEDA) on coarsening
//! levels of up to 192 nodes by default and the greedy one above that.

mod blossom;
mod greedy;

pub use blossom::{maximum_weight_matching, Matcher};
pub use greedy::greedy_matching;

/// A weighted undirected edge `(u, v, weight)` over dense vertex indices.
pub type WeightedEdge = (usize, usize, i64);

/// A matching over `n` vertices: `mate[v]` is the partner of `v`, if any.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    mate: Vec<Option<usize>>,
}

impl Matching {
    /// Creates an empty matching over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Matching {
            mate: vec![None; n],
        }
    }

    /// Builds a matching from a mate vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector is not symmetric (`mate[mate[v]] == v`).
    pub fn from_mates(mate: Vec<Option<usize>>) -> Self {
        for (v, &m) in mate.iter().enumerate() {
            if let Some(m) = m {
                assert_eq!(mate[m], Some(v), "mate vector not symmetric at {v}");
            }
        }
        Matching { mate }
    }

    /// Number of vertices the matching is defined over.
    pub fn len(&self) -> usize {
        self.mate.len()
    }

    /// Returns `true` if defined over zero vertices.
    pub fn is_empty(&self) -> bool {
        self.mate.is_empty()
    }

    /// The partner of `v`, or `None` if `v` is unmatched.
    pub fn mate(&self, v: usize) -> Option<usize> {
        self.mate[v]
    }

    /// Number of matched pairs.
    pub fn pair_count(&self) -> usize {
        self.mate.iter().flatten().count() / 2
    }

    /// Iterates over matched pairs `(u, v)` with `u < v`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.mate
            .iter()
            .enumerate()
            .filter_map(|(u, &m)| m.filter(|&v| u < v).map(|v| (u, v)))
    }

    /// Total weight of this matching with respect to `edges`.
    ///
    /// Parallel duplicates in `edges` are counted once per listed edge only
    /// if matched; an edge `(u,v,w)` contributes iff `mate[u] == v`.
    /// With merged parallel edges (as the partitioner's coarsening levels
    /// guarantee) this is the usual matching weight.
    pub fn weight(&self, edges: &[WeightedEdge]) -> i64 {
        let mut counted = vec![false; self.mate.len()];
        let mut total = 0;
        for &(u, v, w) in edges {
            if u != v && self.mate[u] == Some(v) && !counted[u] && !counted[v] {
                counted[u] = true;
                counted[v] = true;
                total += w;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matching() {
        let m = Matching::empty(3);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.pair_count(), 0);
        assert_eq!(m.pairs().count(), 0);
        assert_eq!(m.weight(&[(0, 1, 5)]), 0);
    }

    #[test]
    fn from_mates_accepts_symmetric() {
        let m = Matching::from_mates(vec![Some(1), Some(0), None]);
        assert_eq!(m.mate(0), Some(1));
        assert_eq!(m.mate(2), None);
        assert_eq!(m.pair_count(), 1);
        assert_eq!(m.pairs().collect::<Vec<_>>(), vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn from_mates_rejects_asymmetric() {
        Matching::from_mates(vec![Some(1), None]);
    }

    #[test]
    fn weight_counts_each_pair_once() {
        let m = Matching::from_mates(vec![Some(1), Some(0)]);
        // Duplicate edge listings must not double-count.
        assert_eq!(m.weight(&[(0, 1, 5), (1, 0, 5)]), 5);
    }
}
