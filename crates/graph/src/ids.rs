//! Typed node and edge identifiers.

use std::fmt;

/// Identifier of a node inside a [`crate::DiGraph`].
///
/// `NodeId`s are dense indices assigned in insertion order; they are stable
/// (nodes are never removed from the containers in this workspace).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// Mostly useful in tests; normal code receives ids from
    /// [`crate::DiGraph::add_node`].
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index overflows u32"))
    }

    /// Returns the dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge inside a [`crate::DiGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    pub fn from_index(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index overflows u32"))
    }

    /// Returns the dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "n42");
        assert_eq!(format!("{id:?}"), "n42");
    }

    #[test]
    fn edge_id_roundtrip() {
        let id = EdgeId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "e7");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
        assert!(EdgeId::from_index(0) < EdgeId::from_index(9));
    }
}
