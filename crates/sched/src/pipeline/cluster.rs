//! Cluster policy: which clusters an op may be placed in, in what order,
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
//! Policies mutate the schedule in place through the undo-log trial API
//! ([`PartialSchedule::begin_trial`] and friends): a failed candidate is
//! rolled back in O(its mutations) instead of discarding a clone. Merit
//! arbitration snapshots the handful of aggregate statistics the figure
//! of merit reads *before* trialling, rolls every trial back, and replays
//! the winner — deterministic replay on bit-identical state reproduces
//! the winning trial exactly.

use crate::merit::{Merit, DEFAULT_THRESHOLD};
use crate::state::{PartialSchedule, Placement};
use gpsched_ddg::OpId;
use gpsched_partition::{Partition, PartitionResult};

/// Everything a cluster policy may consult when placing one op (the
/// schedule itself is passed separately, mutably).
pub struct PlaceCtx<'c> {
    /// The op to place.
    pub op: OpId,
    /// Candidate issue cycles, in scan order (the SMS window).
    pub times: &'c [i64],
    /// The partition in force, if the algorithm keeps one.
    pub partition: Option<&'c Partition>,
    /// Number of clusters of the machine.
    pub nclusters: usize,
}

/// Chooses the cluster of every placement and governs the partition's
/// lifecycle across II growth.
pub trait ClusterPolicy: std::fmt::Debug + Send + Sync {
    /// Whether this policy schedules against a precomputed partition.
    /// When `true`, the pipeline guarantees `PlaceCtx::partition` is
    /// `Some` on clustered machines.
    fn needs_partition(&self) -> bool;

    /// Places `ctx.op` at one of `ctx.times` in some cluster, committing
    /// the placement into `ps` and returning it, or `None` if no cluster
    /// admits the op (the driver then grows the II; `ps` is left exactly
    /// as it was).
    fn place(&self, ps: &mut PartialSchedule<'_>, ctx: &PlaceCtx<'_>) -> Option<Placement>;

    /// Whether the partition should be recomputed after the II grew to
    /// `ii`. Only consulted for partition-carrying policies. The default
    /// (never) is the Fixed Partition rule.
    fn wants_repartition(&self, _part: &PartitionResult, _ii: i64) -> bool {
        false
    }
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

/// URACAM's rule: try every cluster, the figure of merit decides.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeritAllClusters;

impl ClusterPolicy for MeritAllClusters {
    fn needs_partition(&self) -> bool {
        false
    }

    fn place(&self, ps: &mut PartialSchedule<'_>, ctx: &PlaceCtx<'_>) -> Option<Placement> {
        pick_by_merit(ps, ctx.op, ctx.times, 0..ctx.nclusters, ctx.nclusters)
    }
}

/// The greedy URACAM variant: clusters are scanned in index order and the
/// first feasible placement wins — no cross-cluster merit arbitration.
/// Cheaper per node (no N-way trial placement), usually worse schedules;
/// isolates what the figure of merit itself is worth.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyFirstFit;

impl ClusterPolicy for GreedyFirstFit {
    fn needs_partition(&self) -> bool {
        false
    }

    fn place(&self, ps: &mut PartialSchedule<'_>, ctx: &PlaceCtx<'_>) -> Option<Placement> {
        (0..ctx.nclusters).find_map(|c| try_cluster(ps, ctx.op, c, ctx.times))
    }
}

/// Fixed Partition's rule: only the cluster the partition assigned.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartitionOnly;

impl ClusterPolicy for PartitionOnly {
    fn needs_partition(&self) -> bool {
        true
    }

    fn place(&self, ps: &mut PartialSchedule<'_>, ctx: &PlaceCtx<'_>) -> Option<Placement> {
        let part = ctx.partition.expect("partition-driven policy");
        try_cluster(ps, ctx.op, part.cluster_of(ctx.op.index()), ctx.times)
    }
}

/// When a partition-first policy recomputes the partition on II growth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RepartitionRule {
    /// The paper's selective rule (§3.1): recompute iff the partition's
    /// bus bound exceeds the new II (`IIbus > II`) — only then can a new
    /// partition pay off.
    Selective,
    /// Never recompute: keep the initial partition across all II growth.
    /// Isolates the contribution of selective re-partitioning.
    Never,
}

/// GP's rule: the assigned cluster first, then the merit-best *other*
/// cluster as escape hatch; re-partitioning on II growth per `rule`.
#[derive(Clone, Copy, Debug)]
pub struct PartitionFirst {
    /// Re-partitioning rule applied when the II grows.
    pub rule: RepartitionRule,
    /// Whether the escape hatch uses merit arbitration (`false`: first
    /// feasible other cluster in index order).
    pub merit_escape: bool,
}

impl Default for PartitionFirst {
    fn default() -> Self {
        PartitionFirst {
            rule: RepartitionRule::Selective,
            merit_escape: true,
        }
    }
}

impl ClusterPolicy for PartitionFirst {
    fn needs_partition(&self) -> bool {
        true
    }

    fn place(&self, ps: &mut PartialSchedule<'_>, ctx: &PlaceCtx<'_>) -> Option<Placement> {
        let part = ctx.partition.expect("partition-driven policy");
        let home = part.cluster_of(ctx.op.index());
        match try_cluster(ps, ctx.op, home, ctx.times) {
            Some(pl) => Some(pl),
            None if self.merit_escape => pick_by_merit(
                ps,
                ctx.op,
                ctx.times,
                (0..ctx.nclusters).filter(|&c| c != home),
                ctx.nclusters,
            ),
            None => (0..ctx.nclusters)
                .filter(|&c| c != home)
                .find_map(|c| try_cluster(ps, ctx.op, c, ctx.times)),
        }
    }

    fn wants_repartition(&self, part: &PartitionResult, ii: i64) -> bool {
        match self.rule {
            RepartitionRule::Selective => part.cost.ii_bus > ii,
            RepartitionRule::Never => false,
        }
    }
}
