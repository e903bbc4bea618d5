//! Cluster choice: which clusters an op may be placed in, in what order,
//! who arbitrates between them — and when the partition is recomputed.
//!
//! This is the axis the paper's algorithms actually differ on:
//!
//! * URACAM tries *every* cluster and lets the figure of merit decide;
//! * Fixed Partition follows the precomputed partition exactly;
//! * GP tries the assigned cluster first, escapes to the merit-best other
//!   cluster, and selectively re-partitions when the II outgrows the
//!   partition's bus bound.
//!
//! Everything else (SMS order, window scan, transactional placement,
//! spill-on-overflow) is shared engine.
//!
//! Placement mutates the schedule in place through the undo-log trial API
//! ([`PartialSchedule::begin_trial`] and friends): a failed candidate is
//! rolled back in O(its mutations) instead of discarding a clone. Merit
//! arbitration snapshots the handful of aggregate statistics the figure
//! of merit reads *before* trialling, rolls every trial back, and replays
//! the winner — deterministic replay on bit-identical state reproduces
//! the winning trial exactly.

use crate::merit::{Merit, DEFAULT_THRESHOLD};
use crate::spec::{AlgorithmSpec, BaseAlgorithm};
use crate::state::{PartialSchedule, Placement};
use gpsched_ddg::OpId;
use gpsched_partition::{Partition, PartitionResult};

/// Places `op` at one of `times` in a cluster `spec` admits, committing
/// the placement into `ps` and returning it, or `None` if no cluster
/// admits the op (the driver then grows the II; `ps` is left exactly as
/// it was). `partition` is `Some` for the partition-driven bases.
///
/// * URACAM arbitrates every cluster by merit.
/// * Fixed Partition tries only the cluster the partition assigned.
/// * GP tries the assigned cluster, then escapes through merit
///   arbitration over the other clusters.
///
/// `:greedy-merit` replaces merit arbitration, for URACAM and for GP's
/// escape, with the first feasible cluster in index order: cheaper per
/// node, usually worse schedules, and so a measure of what the figure of
/// merit itself is worth.
pub(crate) fn place(
    spec: AlgorithmSpec,
    ps: &mut PartialSchedule<'_>,
    op: OpId,
    times: &[i64],
    partition: Option<&Partition>,
    nclusters: usize,
) -> Option<Placement> {
    let home = || {
        partition
            .expect("partition-driven spec")
            .cluster_of(op.index())
    };
    // Every cluster but `skip`, by merit or by first fit.
    let arbitrate = |ps: &mut PartialSchedule<'_>, skip: Option<usize>| {
        let mut clusters = (0..nclusters).filter(|&c| Some(c) != skip);
        if spec.greedy_merit() {
            clusters.find_map(|c| try_cluster(ps, op, c, times))
        } else {
            pick_by_merit(ps, op, times, clusters, nclusters)
        }
    };
    match spec.base() {
        BaseAlgorithm::Uracam => arbitrate(ps, None),
        BaseAlgorithm::FixedPartition => try_cluster(ps, op, home(), times),
        BaseAlgorithm::Gp => {
            let home = home();
            try_cluster(ps, op, home, times).or_else(|| arbitrate(ps, Some(home)))
        }
        BaseAlgorithm::List | BaseAlgorithm::Portfolio => {
            unreachable!("`{spec}` does not run through the pipeline")
        }
    }
}

/// Whether the partition should be recomputed after the II grew to `ii`.
/// GP's selective rule (§3.1) recomputes iff the partition's bus bound
/// exceeds the new II (`IIbus > II`), since only then can a new partition
/// pay off. Fixed Partition and `gp:norepart` keep the initial partition
/// across all II growth.
pub(crate) fn wants_repartition(spec: AlgorithmSpec, part: &PartitionResult, ii: i64) -> bool {
    spec.base() == BaseAlgorithm::Gp && !spec.norepart() && part.cost.ii_bus > ii
}

/// First feasible placement of `op` in `cluster` along `times`, committed
/// into `ps`. Failed candidates are rolled back before the next is tried.
pub(crate) fn try_cluster(
    ps: &mut PartialSchedule<'_>,
    op: OpId,
    cluster: usize,
    times: &[i64],
) -> Option<Placement> {
    for &t in times {
        if ps.quick_reject(op, cluster, t) {
            continue;
        }
        ps.stats.place_trials.add(1);
        let g = ps.begin_trial();
        if ps.place(op, cluster, t).is_ok() {
            ps.commit_trial(g);
            return Some(Placement { cluster, time: t });
        }
        ps.rollback_trial(g);
    }
    None
}

/// The aggregate statistics the figure of merit compares against,
/// captured once per op before its round of merit trials (they describe
/// the schedule *without* the candidate op).
struct MeritBase {
    net_used: i64,
    net_free: i64,
    /// One flat entry per cluster.
    clusters: Vec<ClusterBase>,
}

/// One cluster's share of a [`MeritBase`].
struct ClusterBase {
    mem_used: i64,
    mem_free: i64,
    max_live: i64,
    reg_headroom: i64,
}

impl MeritBase {
    fn capture(ps: &PartialSchedule<'_>, nclusters: usize) -> Self {
        MeritBase {
            net_used: ps.net_used(),
            net_free: ps.net_free(),
            clusters: (0..nclusters)
                .map(|c| ClusterBase {
                    mem_used: ps.mem_used(c),
                    mem_free: ps.mem_free(c),
                    max_live: ps.max_live(c),
                    reg_headroom: ps.reg_headroom(c),
                })
                .collect(),
        }
    }

    /// Refills `out` with the figure of merit of going from this base to
    /// the trial state `after` (§3.3.1): consumed fraction of remaining
    /// interconnect channel slots, then per-cluster memory slots, then
    /// per-cluster register lifetimes.
    fn merit_into(&self, after: &PartialSchedule<'_>, out: &mut Merit) {
        let net = Merit::fraction(after.net_used() - self.net_used, self.net_free);
        let mem = (self.clusters.iter().enumerate())
            .map(|(c, b)| Merit::fraction(after.mem_used(c) - b.mem_used, b.mem_free));
        let regs = (self.clusters.iter().enumerate())
            .map(|(c, b)| Merit::fraction(after.max_live(c) - b.max_live, b.reg_headroom));
        out.refill(std::iter::once(net).chain(mem).chain(regs));
    }
}

/// First feasible placement of `op` in `cluster` along `times`, evaluated
/// for merit into `out` and rolled back — the schedule is left untouched;
/// only the merit and the winning slot escape.
fn trial_merit(
    ps: &mut PartialSchedule<'_>,
    op: OpId,
    cluster: usize,
    times: &[i64],
    base: &MeritBase,
    out: &mut Merit,
) -> Option<Placement> {
    for &t in times {
        if ps.quick_reject(op, cluster, t) {
            continue;
        }
        ps.stats.place_trials.add(1);
        let g = ps.begin_trial();
        if ps.place(op, cluster, t).is_ok() {
            base.merit_into(ps, out);
            ps.rollback_trial(g);
            return Some(Placement { cluster, time: t });
        }
        ps.rollback_trial(g);
    }
    None
}

/// Evaluates the candidate clusters and commits the merit-best feasible
/// one (trial → rollback per candidate, then a deterministic replay of
/// the winner), comparing figures at the §3.3.1 threshold. Trials fill
/// one reused figure, swapped with the best so far when it wins.
pub(crate) fn pick_by_merit(
    ps: &mut PartialSchedule<'_>,
    op: OpId,
    times: &[i64],
    clusters: impl Iterator<Item = usize>,
    nclusters: usize,
) -> Option<Placement> {
    let base = MeritBase::capture(ps, nclusters);
    let mut cur = Merit::new(Vec::with_capacity(2 * nclusters + 1));
    let mut best = Merit::new(Vec::with_capacity(2 * nclusters + 1));
    let mut best_pl: Option<Placement> = None;
    for c in clusters {
        if let Some(pl) = trial_merit(ps, op, c, times, &base, &mut cur) {
            if best_pl.is_none() || cur.better_than(&best, DEFAULT_THRESHOLD) {
                std::mem::swap(&mut cur, &mut best);
                best_pl = Some(pl);
            }
        }
    }
    let pl = best_pl?;
    // Replay the winning trial: every rollback restored the state
    // bit-identically, so the same (cluster, cycle) must place the same
    // way it did during arbitration.
    let g = ps.begin_trial();
    ps.place(op, pl.cluster, pl.time)
        .expect("winning merit trial must replay");
    ps.commit_trial(g);
    Some(pl)
}
