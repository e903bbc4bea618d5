//! The multilevel partitioning driver (§3.2).

pub use crate::coarsen::MatchStrategy;
use crate::coarsen::{coarsen_to, initial_level, Level};
use crate::estimate::PartitionCost;
use crate::evaluator::CostEvaluator;
use crate::partition::Partition;
use crate::refine::{expand, refine_level, RefineOptions};
use crate::weights::edge_weights;
use gpsched_ddg::Ddg;
use gpsched_machine::MachineConfig;

/// Options of the multilevel partitioner. Every field is part of the
/// engine's seed-cache key.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartitionOptions {
    /// Matching strategy for coarsening.
    pub strategy: MatchStrategy,
    /// Refinement knobs.
    pub refine: RefineOptions,
}

/// Result of [`partition_ddg`].
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// The cluster assignment of every op.
    pub partition: Partition,
    /// Cost estimate of that assignment (contains `IIbus`, the paper's
    /// bus-imposed II bound returned to the GP driver).
    pub cost: PartitionCost,
    /// Number of levels in the coarsening hierarchy (≥ 1).
    pub levels: usize,
}

/// Partitions `ddg` over the clusters of `machine` for the partitioning
/// input interval `ii_input` (the MII on the first call; the raised II on
/// re-partitioning calls from the GP driver).
///
/// For a unified machine this is the trivial single-cluster assignment.
///
/// # Panics
///
/// Panics if `ii_input < 1`.
pub fn partition_ddg(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii_input: i64,
    options: &PartitionOptions,
) -> PartitionResult {
    let mut ev = CostEvaluator::new(ddg, machine);
    partition_ddg_with(ddg, machine, ii_input, options, &mut ev)
}

/// [`partition_ddg`] with a caller-supplied [`CostEvaluator`], so repeated
/// partitioning calls over the same DDG — the GP driver's selective
/// re-partitioning path — reuse the evaluator's cut state buffers and
/// timing workspace instead of reallocating them per call.
///
/// # Panics
///
/// Panics if `ii_input < 1` or `ev` was built for a different DDG/machine.
pub fn partition_ddg_with(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii_input: i64,
    options: &PartitionOptions,
    ev: &mut CostEvaluator<'_>,
) -> PartitionResult {
    assert!(ii_input >= 1, "ii_input must be positive");
    assert!(
        ev.is_for(ddg, machine),
        "evaluator was built for a different DDG/machine"
    );
    let _span = gpsched_trace::span!("partition.run", "ii={ii_input}");
    let nclusters = machine.cluster_count();
    if nclusters == 1 || ddg.op_count() == 0 {
        let partition = Partition::single_cluster(ddg.op_count());
        ev.reset(ii_input, partition.assignment());
        let cost = ev.cost();
        return PartitionResult {
            partition,
            cost,
            levels: 1,
        };
    }

    // 1. Weighted graph + coarsening hierarchy.
    let levels: Vec<Level> = {
        let _span = gpsched_trace::span!("partition.coarsen");
        let weights = edge_weights(ddg, machine, ii_input, ev.timing_workspace());
        let finest = initial_level(ddg, &weights);
        coarsen_to(finest, nclusters, options.strategy)
    };

    // 2. Initial partition of the coarsest level: one node per cluster.
    let coarsest = levels.last().expect("hierarchy never empty");
    let mut assign: Vec<usize> = (0..coarsest.node_count()).map(|i| i % nclusters).collect();

    // 3. Uncoarsen: project and refine level by level.
    let mut cost = refine_level(
        ddg,
        machine,
        ii_input,
        coarsest,
        &mut assign,
        &options.refine,
        ev,
        None,
    );
    for idx in (0..levels.len() - 1).rev() {
        let finer = &levels[idx];
        let coarser = &levels[idx + 1];
        // Project: a finer node inherits the cluster of the coarser node
        // that contains its ops.
        let op_to_coarse = coarser.op_to_node();
        let mut finer_assign = vec![0usize; finer.node_count()];
        for (node, ops) in finer.members.iter().enumerate() {
            let op = ops[0];
            finer_assign[node] = assign[op_to_coarse[op]];
        }
        assign = finer_assign;
        // The projection leaves the op-level assignment unchanged, so the
        // previous level's final cost is this level's entry cost.
        cost = refine_level(
            ddg,
            machine,
            ii_input,
            finer,
            &mut assign,
            &options.refine,
            ev,
            Some(cost),
        );
    }

    let ops = expand(&levels[0], &assign);
    PartitionResult {
        partition: Partition::new(ops, nclusters),
        cost,
        levels: levels.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate;
    use gpsched_ddg::mii;
    use gpsched_workloads::kernels;

    #[test]
    fn unified_machine_is_trivial() {
        let ddg = kernels::daxpy(100);
        let m = MachineConfig::unified(32);
        let r = partition_ddg(&ddg, &m, 2, &PartitionOptions::default());
        assert_eq!(r.partition.cluster_count(), 1);
        assert_eq!(r.cost.comm_count, 0);
        assert_eq!(r.levels, 1);
    }

    #[test]
    fn covers_every_op_exactly_once() {
        for ddg in kernels::all_kernels(100) {
            for m in [
                MachineConfig::two_cluster(32, 1, 1),
                MachineConfig::four_cluster(64, 1, 2),
            ] {
                let ii = mii::mii(&ddg, &m);
                let r = partition_ddg(&ddg, &m, ii, &PartitionOptions::default());
                assert_eq!(r.partition.len(), ddg.op_count(), "{}", ddg.name());
                assert!(r
                    .partition
                    .assignment()
                    .iter()
                    .all(|&c| c < m.cluster_count()));
            }
        }
    }

    #[test]
    fn keeps_recurrences_together() {
        // dot product: the serial fp reduction must not cross clusters.
        let ddg = kernels::dot_product(1000);
        let m = MachineConfig::two_cluster(32, 1, 1);
        let ii = mii::mii(&ddg, &m);
        let r = partition_ddg(&ddg, &m, ii, &PartitionOptions::default());
        // The accumulator self-loop cannot be cut (self edges never are),
        // but the mul → acc chain matters: at most one value crosses.
        assert!(r.cost.comm_count <= 1, "comm {}", r.cost.comm_count);
        // No II inflation from the bus.
        assert_eq!(r.cost.ii_effective, ii);
    }

    #[test]
    fn partition_beats_naive_split_on_kernels() {
        // The multilevel result must be at least as good as a round-robin
        // assignment for every kernel.
        for ddg in kernels::all_kernels(200) {
            let m = MachineConfig::two_cluster(32, 1, 1);
            let ii = mii::mii(&ddg, &m);
            let r = partition_ddg(&ddg, &m, ii, &PartitionOptions::default());
            let naive = Partition::new((0..ddg.op_count()).map(|i| i % 2).collect(), 2);
            let naive_cost = estimate(&ddg, &m, ii, &naive);
            assert!(
                !naive_cost.better_than(&r.cost),
                "{}: naive {:?} beat multilevel {:?}",
                ddg.name(),
                naive_cost.exec_time,
                r.cost.exec_time
            );
        }
    }

    #[test]
    fn four_cluster_partition_spreads_wide_loops() {
        // The stencil is wide and resource-hungry: a good partition uses
        // more than one cluster to avoid saturating FP units.
        let ddg = kernels::stencil5(500);
        let m = MachineConfig::four_cluster(64, 1, 1);
        let ii = mii::mii(&ddg, &m);
        let r = partition_ddg(&ddg, &m, ii, &PartitionOptions::default());
        let used: std::collections::HashSet<usize> =
            r.partition.assignment().iter().copied().collect();
        assert!(used.len() >= 2, "all ops crammed into one cluster");
        // And the estimated II must not exceed what one cluster alone
        // would need (9 fp ops / 1 fp unit = 9).
        assert!(r.cost.ii_effective < 9);
    }

    #[test]
    fn greedy_strategy_also_valid() {
        let ddg = kernels::fir(300, 12);
        let m = MachineConfig::two_cluster(32, 1, 1);
        let ii = mii::mii(&ddg, &m);
        let opts = PartitionOptions {
            strategy: MatchStrategy::Greedy,
            ..PartitionOptions::default()
        };
        let r = partition_ddg(&ddg, &m, ii, &opts);
        assert_eq!(r.partition.len(), ddg.op_count());
    }

    #[test]
    fn repartition_at_higher_ii_is_not_worse() {
        // Raising the input II relaxes capacity, so the estimate cannot
        // degrade (paper: re-partitioning tries to reduce IIbus).
        let ddg = kernels::complex_multiply(400);
        let m = MachineConfig::four_cluster(32, 1, 2);
        let ii = mii::mii(&ddg, &m);
        let a = partition_ddg(&ddg, &m, ii, &PartitionOptions::default());
        let b = partition_ddg(&ddg, &m, ii + 2, &PartitionOptions::default());
        assert!(b.cost.exec_time <= a.cost.exec_time + 2 * (ddg.trip_count() as i64 - 1));
    }
}
