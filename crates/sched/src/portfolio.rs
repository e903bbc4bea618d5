//! Feature-guided portfolio scheduling: pick *which* spec to run.
//!
//! PR 3's ablation showed no [`AlgorithmSpec`] dominates — `gp:norepart`
//! beats `gp` on four-cluster slow-bus machines, `gp:nospill` collapses on
//! long-distance corpora (DESIGN.md §7) — so once the inner loops are
//! fast, the remaining headroom is in spec *selection*. The portfolio
//! meta-spec (`portfolio[:k][:budget]`) closes that gap:
//!
//! 1. **Features** ([`extract_features`]): a cheap, allocation-light pass
//!    over the DDG and machine — recurrence vs. resource bounds, the
//!    loop-carried distance distribution, fan-out skew, a register
//!    pressure estimate through the existing [`PressureTable`] plumbing,
//!    and the seed partition's communication density.
//! 2. **Ranking** ([`rank`]): a deterministic, pure function from the
//!    feature vector to an ordering of the fixed CATALOG specs (the
//!    integer scoring encodes the §7 findings; ties break by catalog
//!    index).
//! 3. **Budgeted racing** (`race`, the crate-internal entry the
//!    scheduler dispatches portfolio specs to): the top `k` candidates run
//!    *sequentially in rank order*. The leader runs unconstrained and
//!    becomes the incumbent; every later challenger is first screened by
//!    the closed-form lower bound `(niter−1)·MII + max_path₀` (the same
//!    bound `CostEvaluator` prunes partitions with) and, if it survives,
//!    runs under a cutoff — the largest II at which it could still beat
//!    the incumbent, plus an attempt budget — so doomed II ladders abort
//!    with [`SchedError::RaceCutoff`] instead of climbing to the cap. A plain list schedule is compared last, so the
//!    portfolio never loses to the non-pipelined baseline.
//!
//! Racing sequentially makes determinism trivial: the outcome is a pure
//! function of `(ddg, machine, spec)`, byte-identical for any worker
//! count, and re-running the winning spec alone reproduces the winner's
//! schedule exactly (a cutoff only turns losing runs into early errors;
//! it never alters a run that succeeds). The sequential-equivalence
//! argument in DESIGN.md §12 leans on that, and so do [`SharedRuns`]: in
//! a batch that also schedules the raced specs, a race reads their
//! unconstrained runs instead of repeating them.

use crate::algo::{schedule_impl, DriverConfig, LoopResult, SharedRuns};
use crate::error::SchedError;
use crate::lifetime::PressureTable;
use crate::pipeline::Cutoff;
use crate::spec::{AlgorithmSpec, BaseAlgorithm};
use crate::SchedSeed;
use gpsched_ddg::timing::TimingWorkspace;
use gpsched_ddg::{Ddg, DepKind};
use gpsched_machine::MachineConfig;
use gpsched_partition::{PartitionOptions, PartitionResult};

/// Cheap shape descriptors of one scheduling unit, extracted in one pass
/// over the DDG (plus one timing analysis at the MII). All fields are
/// integers so [`rank`] is exactly reproducible — no float comparisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FeatureVector {
    /// Operations per iteration.
    pub ops: i64,
    /// Resource-constrained II lower bound.
    pub res_mii: i64,
    /// Recurrence-constrained II lower bound.
    pub rec_mii: i64,
    /// Longest intra-iteration dependence path at `II = MII` — the `SL`
    /// floor of any modulo schedule, and the `max_path₀` term of the
    /// pruning screen.
    pub max_path0: i64,
    /// Largest loop-carried dependence distance.
    pub max_distance: i64,
    /// Number of loop-carried dependences (`distance > 0`).
    pub carried_deps: i64,
    /// Total dependences.
    pub total_deps: i64,
    /// Largest flow fan-out of any op (consumer count).
    pub max_fanout: i64,
    /// Estimated `MaxLive` register pressure: flow lifetimes
    /// `[asap(def), max asap(use) + II·distance]` folded through a
    /// single-cluster [`PressureTable`] at `II = MII`.
    pub pressure: i64,
    /// Per-cluster register file capacity.
    pub registers: i64,
    /// Values crossing the seed partition's cut (`NComm`); 0 when no
    /// partition is in play (unified machines).
    pub comm_count: i64,
    /// The seed partition's interconnect bound (`IIbus`); 1 when no
    /// partition is in play.
    pub ii_bus: i64,
    /// Cluster count of the machine.
    pub clusters: i64,
}

impl FeatureVector {
    /// `MII = max(ResMII, RecMII)`.
    pub fn mii(&self) -> i64 {
        self.res_mii.max(self.rec_mii)
    }
}

/// Extracts the [`FeatureVector`] of one unit. `initial` is the seed
/// partition the candidates will share (its cost block supplies the
/// communication features); `start_ii` is the unit's MII.
pub fn extract_features(
    ddg: &Ddg,
    machine: &MachineConfig,
    initial: Option<&PartitionResult>,
    start_ii: i64,
) -> FeatureVector {
    let ii0 = start_ii.max(1);
    let ops = ddg.op_count() as i64;

    let (mut max_distance, mut carried_deps) = (0i64, 0i64);
    for e in ddg.dep_ids() {
        let d = i64::from(ddg.dep(e).distance);
        if d > 0 {
            carried_deps += 1;
            max_distance = max_distance.max(d);
        }
    }

    let mut max_fanout = 0i64;
    for op in ddg.op_ids() {
        let fanout = ddg
            .graph()
            .out_edges(op)
            .filter(|&(e, s)| s != op && ddg.dep(e).kind == DepKind::Flow)
            .count() as i64;
        max_fanout = max_fanout.max(fanout);
    }

    // One timing analysis at the MII feeds both the critical-path feature
    // and the lifetime estimate. The MII is feasible by construction, but
    // degrade gracefully rather than panic if analysis declines.
    let mut ws = TimingWorkspace::new();
    let (max_path0, pressure) = match ws.analyze(ddg, ii0, |_| 0) {
        Some(t) => {
            let mut pt = PressureTable::new(vec![i64::MAX / 4], ii0);
            for op in ddg.op_ids() {
                let def = t.asap[op.index()];
                let mut last_use: Option<i64> = None;
                for (e, s) in ddg.graph().out_edges(op) {
                    let dep = ddg.dep(e);
                    if s == op || dep.kind != DepKind::Flow {
                        continue;
                    }
                    let u = t.asap[s.index()] + ii0 * i64::from(dep.distance);
                    last_use = Some(last_use.map_or(u, |l: i64| l.max(u)));
                }
                if let Some(lu) = last_use {
                    pt.add(0, def, lu.max(def));
                }
            }
            (t.max_path, pt.max_live(0))
        }
        None => (ops, 0),
    };

    let (comm_count, ii_bus) =
        initial.map_or((0, 1), |p| (p.cost.comm_count as i64, p.cost.ii_bus));

    FeatureVector {
        ops,
        res_mii: gpsched_ddg::mii::res_mii(ddg, machine),
        rec_mii: gpsched_ddg::mii::rec_mii(ddg),
        max_path0,
        max_distance,
        carried_deps,
        total_deps: ddg.dep_ids().len() as i64,
        max_fanout,
        pressure,
        registers: i64::from(machine.cluster(0).registers),
        comm_count,
        ii_bus,
        clusters: machine.cluster_count() as i64,
    }
}

/// The candidate pool: every pipeline spec of the CATALOG (`list` is not
/// a candidate — it is the floor every race compares against at the end).
pub fn candidates() -> impl Iterator<Item = AlgorithmSpec> {
    AlgorithmSpec::CATALOG.into_iter().filter(|s| !s.is_list())
}

/// Scores one candidate against the features: a base prior from the §7
/// ablation (GP and its no-repartition variant lead, the URACAM baseline
/// follows, the stressed variants trail) plus integer adjustments for the
/// regimes where the ablation found the order flips.
fn score(f: &FeatureVector, spec: &AlgorithmSpec) -> i64 {
    use AlgorithmSpec as S;
    let s = *spec;
    let mut v = match s {
        S::GP => 100,
        S::GP_NOREPART => 90,
        S::URACAM => 80,
        S::FIXED => 70,
        S::GP_LINEAR_II => 60,
        S::URACAM_GREEDY => 50,
        S::GP_NOSPILL => 40,
        other => unreachable!("`{other}` is not a portfolio candidate"),
    };
    let mii = f.mii();
    if f.clusters == 1 {
        // No cut to optimize: the integrated scheduler's freedom costs
        // nothing and the partition machinery buys nothing.
        if s.base() == BaseAlgorithm::Uracam {
            v += 25;
        }
    }
    if f.ii_bus > mii {
        // The bus bound exceeds the II: exactly the regime selective
        // re-partitioning exists for.
        if s == S::GP {
            v += 20;
        }
        if s == S::GP_NOREPART {
            v -= 15;
        }
    }
    if f.comm_count * 8 < f.ops {
        // Sparse cut: re-partitioning has nothing to move; skipping its
        // checks is free IPC-neutral speed and occasionally better.
        if s == S::GP_NOREPART {
            v += 20;
        }
    }
    if f.pressure > f.registers {
        // Estimated MaxLive already exceeds one register file: spilling
        // is how such loops close at all.
        if s == S::GP_NOSPILL {
            v -= 60;
        }
        if s == S::URACAM {
            v += 10;
        }
    } else if f.pressure * 2 > f.registers && s == S::GP_NOSPILL {
        // Half the file already live at the estimate: spills are likely.
        v -= 25;
    }
    if f.max_distance >= 4 {
        // Long-distance corpora: the §7 regime where nospill collapses.
        if s == S::GP_NOSPILL {
            v -= 30;
        }
    }
    if f.rec_mii > f.res_mii {
        // Recurrence-bound loop: placement freedom around the cycle
        // matters more than cut quality.
        if s == S::URACAM {
            v += 15;
        }
        if s == S::GP_LINEAR_II {
            v += 10;
        }
    }
    v
}

/// Orders the candidate pool for `f`: descending score, catalog index as
/// the tie-breaker. A pure function of the feature vector — no global
/// state, no floats, no iteration-order dependence — which the property
/// tests pin.
pub fn rank(f: &FeatureVector) -> Vec<AlgorithmSpec> {
    let mut scored: Vec<(i64, usize, AlgorithmSpec)> = AlgorithmSpec::CATALOG
        .into_iter()
        .enumerate()
        .filter(|(_, s)| !s.is_list())
        .map(|(i, s)| (score(f, &s), i, s))
        .collect();
    scored.sort_by_key(|&(v, i, _)| (std::cmp::Reverse(v), i));
    scored.into_iter().map(|(_, _, s)| s).collect()
}

/// The race's total order on schedules: fewer cycles, then lower II, then
/// shorter length. Strictly smaller wins; ties keep the earlier-ranked
/// incumbent, so the outcome never depends on traversal accidents.
fn key(r: &LoopResult) -> (u64, i64, i64) {
    (r.cycles(), r.schedule.ii(), r.schedule.length())
}

/// Runs the portfolio race for one unit. Called by the scheduling entry
/// points when the spec [is a portfolio](AlgorithmSpec::is_portfolio);
/// `start_ii`/`initial` are the unit's resolved MII and seed partition
/// (every candidate shares them). With `shared`, the leader and the List
/// floor are read from (or stored in) the memo, and a candidate whose
/// unconstrained run another unit has started gets its outcome derived
/// from that run instead of running ([`Cutoff::outcome`]).
///
/// # Errors
///
/// [`SchedError::Unschedulable`] when the machine lacks units for the
/// loop — the same condition the fixed specs report.
#[allow(clippy::too_many_arguments)]
pub(crate) fn race(
    ddg: &Ddg,
    machine: &MachineConfig,
    spec: AlgorithmSpec,
    popts: &PartitionOptions,
    cfg: &DriverConfig,
    start_ii: i64,
    initial: Option<PartitionResult>,
    shared: Option<&SharedRuns>,
) -> Result<LoopResult, SchedError> {
    let k = spec.portfolio_k();
    let budget = spec.portfolio_budget();
    let (features, ranked) = {
        let _span = gpsched_trace::span!("portfolio.rank");
        let f = extract_features(ddg, machine, initial.as_ref(), start_ii);
        let order = rank(&f);
        (f, order)
    };
    let seed = SchedSeed {
        start_ii,
        partition: initial,
    };
    let trips = ddg.trip_count();
    let run = |cand, cutoff, shared| {
        schedule_impl(ddg, machine, cand, popts, cfg, Some(&seed), cutoff, shared)
    };

    let mut best: Option<(AlgorithmSpec, LoopResult)> = None;
    for cand in ranked.into_iter().take(k.max(1)) {
        let cutoff = match &best {
            None => Cutoff::default(), // the leader runs unconstrained, fallback included
            Some((_, inc)) => {
                let inc_cycles = inc.cycles();
                // Closed-form screen: even at the MII the challenger's
                // `(niter−1)·II + SL` cannot dip below
                // `(niter−1)·MII + max_path₀`.
                let floor = ddg.execution_time(start_ii, features.max_path0);
                if u64::try_from(floor).unwrap_or(u64::MAX) >= inc_cycles {
                    gpsched_trace::counter!("portfolio.candidates_pruned");
                    continue;
                }
                // Largest II at which the challenger could still win: one
                // more and its lower bound meets the incumbent.
                let cutoff = if trips > 1 {
                    let slack =
                        i64::try_from(inc_cycles).unwrap_or(i64::MAX) - 1 - features.max_path0;
                    Some(slack / i64::try_from(trips - 1).unwrap_or(i64::MAX).max(1))
                } else {
                    None // single-trip cycles don't scale with II
                };
                Cutoff {
                    ii: cutoff,
                    attempts: Some(budget),
                }
            }
        };
        // Another unit's unconstrained run of this candidate answers it.
        // (The closure runs only if the unit computing it panicked.)
        let full = shared.and_then(|s| s.started(cand, || run(cand, Cutoff::default(), None)));
        let result = match full {
            Some(full) => {
                gpsched_trace::counter!("portfolio.shared_runs");
                cutoff.outcome(cand, start_ii, cfg, full)
            }
            None => {
                let _span = gpsched_trace::span!("portfolio.race", "cand={cand}");
                run(cand, cutoff, shared)
            }
        };
        match result {
            Ok(r) => match &best {
                Some((_, inc)) if key(&r) >= key(inc) => {}
                _ => best = Some((cand, r)),
            },
            Err(SchedError::RaceCutoff { .. }) => {
                gpsched_trace::counter!("portfolio.candidates_cut_off");
            }
            Err(e) => return Err(e),
        }
    }

    // The non-pipelined floor: List is compared last, so a portfolio
    // answer never loses to plain list scheduling. A fixed spec can: its
    // fallback fires only at the II cap, so a ladder that succeeds below
    // the cap may still take more cycles than List.
    let list = AlgorithmSpec::LIST;
    let list_result = run(list, Cutoff::default(), shared)?;
    let (selected, mut winner) = match best {
        Some((s, r)) if key(&r) <= key(&list_result) => (s, r),
        _ => (list, list_result),
    };
    winner.selected = Some(selected);
    Ok(winner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule_loop;
    use gpsched_workloads::kernels;

    fn machines() -> Vec<MachineConfig> {
        vec![
            MachineConfig::unified(32),
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(32, 1, 2),
        ]
    }

    fn features_for(ddg: &Ddg, m: &MachineConfig) -> FeatureVector {
        let start = gpsched_ddg::mii::mii(ddg, m);
        let part = gpsched_partition::partition_ddg(ddg, m, start, &PartitionOptions::default());
        extract_features(ddg, m, Some(&part), start)
    }

    #[test]
    fn features_are_deterministic_and_sane() {
        for ddg in kernels::all_kernels(200) {
            for m in machines() {
                let f = features_for(&ddg, &m);
                assert_eq!(f, features_for(&ddg, &m), "{}", ddg.name());
                assert_eq!(f.ops, ddg.op_count() as i64);
                assert!(f.res_mii >= 1 && f.rec_mii >= 1, "{}", ddg.name());
                assert!(f.max_path0 >= 1, "{}", ddg.name());
                assert!(f.pressure >= 0 && f.registers > 0);
                assert!(f.carried_deps <= f.total_deps);
            }
        }
    }

    #[test]
    fn rank_covers_the_pipeline_catalog() {
        let ddg = kernels::fir(500, 8);
        let m = MachineConfig::two_cluster(32, 1, 1);
        let order = rank(&features_for(&ddg, &m));
        assert_eq!(order.len(), candidates().count());
        for s in &order {
            assert!(!s.is_list() && !s.is_portfolio(), "{s}");
        }
        let mut dedup = order.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), order.len(), "ranking must not repeat specs");
    }

    /// The ranker is a pure function of the feature vector: identical
    /// vectors — however they were produced — rank identically, and
    /// repeated calls agree. Vectors come from a seeded LCG so the
    /// property is checked across a broad, reproducible slice of the
    /// feature space, not just vectors real kernels happen to produce.
    #[test]
    fn rank_is_a_pure_function_of_the_features() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move |hi: i64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64).rem_euclid(hi.max(1)) + 1
        };
        for _ in 0..500 {
            let f = FeatureVector {
                ops: next(400),
                res_mii: next(30),
                rec_mii: next(30),
                max_path0: next(200),
                max_distance: next(8) - 1,
                carried_deps: next(50) - 1,
                total_deps: next(600),
                max_fanout: next(40) - 1,
                pressure: next(96) - 1,
                registers: next(64),
                comm_count: next(80) - 1,
                ii_bus: next(40),
                clusters: next(4),
            };
            let copy = f; // a bitwise copy must be indistinguishable
            assert_eq!(rank(&f), rank(&copy));
            assert_eq!(rank(&f), rank(&f), "repeated calls must agree");
        }
    }

    #[test]
    fn portfolio_winner_is_reproducible_from_the_selected_spec() {
        for ddg in kernels::all_kernels(300) {
            for m in machines() {
                let p = schedule_loop(&ddg, &m, AlgorithmSpec::PORTFOLIO).unwrap();
                let sel = p.selected.expect("portfolio must record its winner");
                assert!(!sel.is_portfolio());
                let direct = schedule_loop(&ddg, &m, sel).unwrap();
                assert_eq!(p.cycles(), direct.cycles(), "{}: {sel}", ddg.name());
                assert_eq!(p.schedule.ii(), direct.schedule.ii(), "{}", ddg.name());
                assert_eq!(
                    p.schedule.placements(),
                    direct.schedule.placements(),
                    "{}: re-running {sel} must reproduce the winner",
                    ddg.name()
                );
            }
        }
    }

    #[test]
    fn portfolio_never_loses_to_any_raced_candidate_or_list() {
        for ddg in kernels::all_kernels(300) {
            let m = MachineConfig::four_cluster(32, 1, 1);
            let p = schedule_loop(&ddg, &m, AlgorithmSpec::PORTFOLIO).unwrap();
            let list = schedule_loop(&ddg, &m, AlgorithmSpec::LIST).unwrap();
            assert!(
                p.cycles() <= list.cycles(),
                "{}: portfolio {} vs list {}",
                ddg.name(),
                p.cycles(),
                list.cycles()
            );
            // And against every candidate it actually raced.
            let start = gpsched_ddg::mii::mii(&ddg, &m);
            let part =
                gpsched_partition::partition_ddg(&ddg, &m, start, &PartitionOptions::default());
            let f = extract_features(&ddg, &m, Some(&part), start);
            for cand in rank(&f).into_iter().take(3) {
                let c = schedule_loop(&ddg, &m, cand).unwrap();
                assert!(
                    p.cycles() <= c.cycles(),
                    "{}: portfolio {} lost to raced {cand} {}",
                    ddg.name(),
                    p.cycles(),
                    c.cycles()
                );
            }
        }
    }
}
