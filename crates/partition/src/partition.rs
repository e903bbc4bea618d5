//! The cluster-assignment type.

use gpsched_ddg::{Ddg, DepId, DepKind};

/// A cluster assignment of every operation of a loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<usize>,
    nclusters: usize,
}

impl Partition {
    /// Creates a partition from an explicit assignment vector.
    ///
    /// # Panics
    ///
    /// Panics if `nclusters == 0` or any entry is `>= nclusters`.
    pub fn new(assignment: Vec<usize>, nclusters: usize) -> Self {
        assert!(nclusters > 0, "need at least one cluster");
        assert!(
            assignment.iter().all(|&c| c < nclusters),
            "assignment entry out of range"
        );
        Partition {
            assignment,
            nclusters,
        }
    }

    /// The trivial partition that puts every op in cluster 0.
    pub fn single_cluster(nops: usize) -> Self {
        Partition {
            assignment: vec![0; nops],
            nclusters: 1,
        }
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.nclusters
    }

    /// Number of operations covered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Returns `true` if no operations are covered.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Cluster of operation index `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn cluster_of(&self, op: usize) -> usize {
        self.assignment[op]
    }

    /// The raw assignment slice (`assignment[op] = cluster`).
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Dependences of `ddg` whose endpoints live in different clusters.
    pub fn cut_deps<'a>(&'a self, ddg: &'a Ddg) -> impl Iterator<Item = DepId> + 'a {
        ddg.dep_ids().filter(move |&e| {
            let (s, d) = ddg.dep_endpoints(e);
            self.assignment[s.index()] != self.assignment[d.index()]
        })
    }

    /// Number of cut dependences (flow and memory alike — the tie-breaking
    /// metric of the refinement phase).
    pub fn cut_size(&self, ddg: &Ddg) -> usize {
        self.cut_deps(ddg).count()
    }

    /// Number of *values* that must travel over the interconnect: distinct
    /// `(producer, consumer cluster)` pairs over cut flow dependences.
    /// A value sent once to a cluster serves all consumers there, and memory
    /// dependences move no data (the paper's `NComm`).
    pub fn comm_count(&self, ddg: &Ddg) -> usize {
        // Flat sort+dedup over the (few) cut flow deps — cheaper and less
        // allocation-happy than the hash set it replaced.
        let mut pairs: Vec<(usize, usize)> = self
            .cut_deps(ddg)
            .filter(|&e| ddg.dep(e).kind == DepKind::Flow)
            .map(|e| {
                let (s, d) = ddg.dep_endpoints(e);
                (s.index(), self.assignment[d.index()])
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.len()
    }

    /// Operations assigned to `cluster`, in index order.
    pub fn ops_in(&self, cluster: usize) -> impl Iterator<Item = usize> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter(move |&(_, &c)| c == cluster)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_ddg::DdgBuilder;
    use gpsched_machine::OpClass;

    fn two_op_loop() -> Ddg {
        let mut b = DdgBuilder::new("t");
        let a = b.op(OpClass::Load, "a");
        let c = b.op(OpClass::FpAdd, "c");
        let d = b.op(OpClass::FpAdd, "d");
        b.flow(a, c);
        b.flow(a, d);
        b.mem(a, c, 1);
        b.build().unwrap()
    }

    #[test]
    fn construction_and_queries() {
        let p = Partition::new(vec![0, 1, 1], 2);
        assert_eq!(p.cluster_count(), 2);
        assert_eq!(p.len(), 3);
        assert_eq!(p.cluster_of(1), 1);
        assert_eq!(p.ops_in(1).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_assignment() {
        Partition::new(vec![0, 2], 2);
    }

    #[test]
    fn cut_and_comm_counts() {
        let ddg = two_op_loop();
        // All together: nothing cut.
        let p0 = Partition::single_cluster(3);
        assert_eq!(p0.cut_size(&ddg), 0);
        assert_eq!(p0.comm_count(&ddg), 0);

        // a alone: two flow cuts + one mem cut, but only ONE value travels
        // to cluster 1 (a's value serves both consumers).
        let p1 = Partition::new(vec![0, 1, 1], 2);
        assert_eq!(p1.cut_size(&ddg), 3);
        assert_eq!(p1.comm_count(&ddg), 1);

        // Consumers split across clusters: the value travels twice.
        let p2 = Partition::new(vec![0, 1, 0], 2);
        assert_eq!(p2.comm_count(&ddg), 1);
        let p3 = Partition::new(vec![2, 1, 0], 3);
        assert_eq!(p3.comm_count(&ddg), 2);
    }
}
