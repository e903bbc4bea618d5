//! The scheduling pipeline: the one engine every modulo spec runs.
//!
//! The paper's algorithms (URACAM, Fixed Partition, GP) share one engine —
//! SMS ordering, window scan, transactional placement, the figure of
//! merit, spill-on-overflow, II growth — and differ only in how an op
//! picks its cluster and when the partition is recomputed. [`run`] is that
//! engine, one attempt per II rung climbed in order, and it reads the
//! [`AlgorithmSpec`] where each rule applies:
//!
//! * `cluster::place` — which clusters an op may go to and who arbitrates
//!   between them (one `match` on the base; `:greedy-merit` swaps merit
//!   arbitration for first fit);
//! * `cluster::wants_repartition` — when GP recomputes the partition
//!   (never under `:norepart`);
//! * `AlgorithmSpec::next_ii` — how fast the II rises after failures
//!   (+1 under `:linear-ii`);
//! * [`AlgorithmSpec::spills`] — whether register overflow spills
//!   ([`PartialSchedule::with_spill`]; off under `:nospill`).
//!
//! Every spec orders nodes by Swing Modulo Scheduling ([`crate::order`]).
//! The engine's golden record test pins the paper algorithms' schedules
//! byte-identical to the pre-pipeline monolithic drivers, and the variant
//! digest test pins every modifier's. Trials mutate one schedule in place
//! and roll failures back through the undo log (DESIGN.md §6.5); nothing
//! is cloned per candidate.

mod cluster;

use crate::algo::{cap_for, DriverConfig, LoopResult, ScheduledWith};
use crate::error::SchedError;
use crate::order::{self, SmsPrecomp};
use crate::schedule::Schedule;
use crate::spec::AlgorithmSpec;
use crate::state::PartialSchedule;
use gpsched_ddg::timing::{Timing, TimingWorkspace};
use gpsched_ddg::{Ddg, OpId};
use gpsched_machine::MachineConfig;
use gpsched_partition::{partition_ddg_with, CostEvaluator, Partition, PartitionResult};

/// Outcome of a pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineOutcome {
    /// The final schedule.
    pub schedule: Schedule,
    /// The partition in force when scheduling succeeded. `None` exactly
    /// for URACAM, which schedules without one; the partition-driven
    /// specs carry `Some` even on unified machines (the trivial
    /// single-cluster assignment).
    pub partition: Option<PartitionResult>,
    /// How many times the partition was recomputed.
    pub repartitions: usize,
}

/// How ascending window scans order their candidate slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ScanMode {
    /// Earliest-first (tight schedules, short lifetimes) — the default.
    Tight,
    /// Slots at or above the op's ASAP first. Used as a second chance at
    /// the same II: placing an op below its ASAP while free slots exist
    /// above can strangle the windows of not-yet-placed memory/carried
    /// neighbours, and that failure mode does not heal with a larger II.
    AsapFirst,
}

/// Candidate issue cycles for `op` given its placed neighbours (the SMS
/// window: at most II consecutive cycles, direction depending on which
/// neighbours are placed), written into `times` (cleared first) so one
/// buffer serves every op of an attempt.
///
/// Returns whether [`ScanMode::AsapFirst`] orders this window differently
/// from [`ScanMode::Tight`]: the window scans ascending from `lo` to `hi`
/// and `lo < asap ≤ hi`. Every other window is the same in both modes.
#[allow(clippy::too_many_arguments)]
fn window_into(
    times: &mut Vec<i64>,
    ps: &PartialSchedule<'_>,
    ddg: &Ddg,
    op: OpId,
    asap: &[i64],
    max_path: i64,
    ii: i64,
    mode: ScanMode,
) -> bool {
    times.clear();
    let mut estart: Option<i64> = None;
    let mut lstart: Option<i64> = None;
    for (e, p) in ddg.graph().in_edges(op) {
        if p == op {
            continue; // self-loop constrains nothing within one instance
        }
        if let Some(pp) = ps.placement(p) {
            let dep = ddg.dep(e);
            let cand = pp.time + dep.latency as i64 - ii * dep.distance as i64;
            estart = Some(estart.map_or(cand, |e: i64| e.max(cand)));
        }
    }
    for (e, s) in ddg.graph().out_edges(op) {
        if s == op {
            continue;
        }
        if let Some(sp) = ps.placement(s) {
            let dep = ddg.dep(e);
            let cand = sp.time - dep.latency as i64 + ii * dep.distance as i64;
            lstart = Some(lstart.map_or(cand, |l: i64| l.min(cand)));
        }
    }
    // Every window is clamped below by `asap − max_path`. Bottom-up
    // placements may legitimately dip below ASAP (resource conflicts under
    // a pinned consumer), but never by more than one iteration's critical
    // path; without an II-independent floor, ops anchored only through
    // loop-carried edges drift one iteration earlier per II step and
    // squeeze later both-sided windows empty at *every* II, so raising the
    // II would never converge.
    let a = asap[op.index()];
    let floor = a - max_path;
    let ascending = |times: &mut Vec<i64>, lo: i64, hi: i64| {
        if lo > hi {
            return false;
        }
        match mode {
            ScanMode::Tight => times.extend(lo..=hi),
            ScanMode::AsapFirst => {
                let split = a.clamp(lo, hi + 1);
                times.extend(split..=hi);
                times.extend(lo..split);
            }
        }
        lo < a && a <= hi
    };
    match (estart, lstart) {
        (Some(e), Some(l)) => {
            let e = e.max(floor);
            e <= l && ascending(times, e, l.min(e + ii - 1))
        }
        (Some(e), None) => {
            let e = e.max(floor);
            ascending(times, e, e + ii - 1)
        }
        (None, Some(l)) => {
            times.extend(((l - ii + 1).max(floor)..=l).rev());
            false
        }
        // Fresh regions anchor at ASAP.
        (None, None) => {
            times.extend(a..a + ii);
            false
        }
    }
}

/// One full scheduling attempt at a fixed II. Returns the completed state,
/// or `None` if some op could not be placed (the driver then raises the
/// II). Tries the tight scan first, the ASAP-first scan as a second
/// chance at the same II. Timing and node order depend only on the II
/// (extras are zero here), so both scans share one analysis and one order.
/// `sms` holds the II-independent half of the SMS ordering: the first
/// attempt of a ladder fills it, later rungs reuse it.
///
/// The two scans compute the same windows, and so make the same
/// placements, up to the first op whose window they order differently
/// (DESIGN.md §6.6). The second scan therefore starts at that op, on a
/// replay of the tight scan's committed prefix, and does not run at all
/// when the tight scan failed before reaching such an op.
fn attempt<'a>(
    ddg: &'a Ddg,
    machine: &'a MachineConfig,
    ii: i64,
    partition: Option<&PartitionResult>,
    spec: AlgorithmSpec,
    ws: &mut TimingWorkspace,
    sms: &mut Option<SmsPrecomp>,
) -> Option<PartialSchedule<'a>> {
    // One workspace-backed analysis per II: an infeasible II yields None
    // here, and the same result feeds both the node ordering and the
    // placement windows of both scan modes.
    let t = ws.analyze(ddg, ii, |_| 0)?;
    let order = {
        let _span = gpsched_trace::span!("sched.order");
        let pre = sms.get_or_insert_with(|| order::sms_precompute(ddg));
        order::sms_order_precomputed(ddg, t, pre)
    };
    debug_assert_eq!(order.len(), ddg.op_count(), "order must cover the loop");
    let rung = Rung::new(ddg, machine, ii, partition, spec, t, &order);
    let fresh = || PartialSchedule::with_spill(ddg, machine, ii, spec.spills());
    let mut tight = fresh();
    let diverged = {
        let _span = gpsched_trace::span!("sched.ii_attempt", "ii={ii}");
        match rung.scan(&mut tight, ScanMode::Tight, 0) {
            Ok(()) => return Some(tight),
            Err(diverged) => diverged?,
        }
    };
    let _span = gpsched_trace::span!("sched.ii_attempt", "ii={ii}");
    let mut second = fresh();
    second.replay(order[..diverged].iter().map(|&op| {
        let pl = tight
            .placement(op)
            .expect("the tight scan placed its prefix");
        (op, pl)
    }));
    rung.scan(&mut second, ScanMode::AsapFirst, diverged)
        .ok()
        .map(|()| second)
}

/// What every window scan at one II reads besides the schedule it fills.
struct Rung<'r> {
    ddg: &'r Ddg,
    ii: i64,
    t: &'r Timing,
    order: &'r [OpId],
    partition: Option<&'r Partition>,
    spec: AlgorithmSpec,
    nclusters: usize,
}

impl<'r> Rung<'r> {
    fn new(
        ddg: &'r Ddg,
        machine: &MachineConfig,
        ii: i64,
        partition: Option<&'r PartitionResult>,
        spec: AlgorithmSpec,
        t: &'r Timing,
        order: &'r [OpId],
    ) -> Self {
        Rung {
            ddg,
            ii,
            t,
            order,
            partition: partition.map(|p| &p.partition),
            spec,
            nclusters: machine.cluster_count(),
        }
    }

    /// Places `order[from..]` into `ps` in scan `mode`, stopping at the
    /// first op no cluster admits. On failure, returns the order index of
    /// the first op up to the failing one whose window
    /// [`ScanMode::AsapFirst`] orders differently from [`ScanMode::Tight`],
    /// or `None` when the two modes agree on every window the scan computed.
    fn scan(
        &self,
        ps: &mut PartialSchedule<'_>,
        mode: ScanMode,
        from: usize,
    ) -> Result<(), Option<usize>> {
        let (asap, max_path) = (&self.t.asap, self.t.max_path);
        let mut times = Vec::new();
        let mut diverged = None;
        for (i, &op) in self.order.iter().enumerate().skip(from) {
            if window_into(&mut times, ps, self.ddg, op, asap, max_path, self.ii, mode) {
                diverged.get_or_insert(i);
            }
            if times.is_empty() {
                return Err(diverged);
            }
            let (part, n) = (self.partition, self.nclusters);
            if cluster::place(self.spec, ps, op, &times, part, n).is_none() {
                return Err(diverged);
            }
        }
        Ok(())
    }
}

/// An early stop the portfolio race imposes on a challenger that can no
/// longer win. It never changes *which* schedule a run that completes
/// returns; it only turns runs that could not win into cheap
/// [`SchedError::RaceCutoff`] errors.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Cutoff {
    /// Largest II to try, when below the II cap.
    pub(crate) ii: Option<i64>,
    /// Maximum number of failed II rungs.
    pub(crate) attempts: Option<usize>,
}

impl Cutoff {
    /// Whether this cutoff stops nothing (the default).
    pub(crate) fn is_none(&self) -> bool {
        self.ii.is_none() && self.attempts.is_none()
    }

    /// What scheduling `spec` under this cutoff returns, list fallback
    /// included, derived without scheduling from `full`: the same spec's
    /// unconstrained result on the same loop, machine, seed and options.
    ///
    /// Exact because a cutoff never changes a rung, only where the ladder
    /// stops: the cut-off run attempts the rungs of the full run in the
    /// same order, with the same partitions, and succeeds on the rung
    /// where the full run did. So this walks [`run_until`]'s ladder from
    /// `start_ii` without attempting anything, stopping where
    /// [`run_until`] would.
    pub(crate) fn outcome(
        self,
        spec: AlgorithmSpec,
        start_ii: i64,
        cfg: &DriverConfig,
        full: &Result<LoopResult, SchedError>,
    ) -> Result<LoopResult, SchedError> {
        let full = full.as_ref().map_err(Clone::clone)?;
        let found = match full.method {
            ScheduledWith::Modulo { .. } => Some(full.schedule.ii()),
            _ => None,
        };
        let cap = cap_for(start_ii, cfg);
        let limit = self.ii.map_or(cap, |c| c.min(cap));
        let mut ii = start_ii;
        let mut failures = 0usize;
        while ii <= limit {
            if self.attempts.is_some_and(|b| failures >= b) {
                return Err(SchedError::RaceCutoff { limit: ii });
            }
            if found == Some(ii) {
                return Ok(full.clone());
            }
            ii = spec.next_ii(ii, failures);
            failures += 1;
        }
        if limit < cap {
            Err(SchedError::RaceCutoff { limit })
        } else {
            debug_assert!(found.is_none(), "the full run succeeded off its ladder");
            Ok(full.clone()) // the full run's list fallback
        }
    }
}

/// Runs one loop through the pipeline with `spec`: one attempt per II,
/// the II rising and the partition recomputed as the spec says.
///
/// `start_ii` is the first II to try (the loop's MII, or a memo-cached
/// value); `initial` seeds the partition for the partition-driven specs
/// (computed at `start_ii` when absent). URACAM ignores `initial`.
///
/// # Errors
///
/// [`SchedError::IiLimitExceeded`] when the II cap is reached.
///
/// # Panics
///
/// Panics for `list` and `portfolio` specs, which do not run through the
/// pipeline ([`AlgorithmSpec::is_list`], [`AlgorithmSpec::is_portfolio`]).
pub fn run(
    ddg: &Ddg,
    machine: &MachineConfig,
    cfg: &DriverConfig,
    start_ii: i64,
    initial: Option<PartitionResult>,
    spec: AlgorithmSpec,
) -> Result<PipelineOutcome, SchedError> {
    let none = Cutoff::default();
    run_until(ddg, machine, cfg, start_ii, initial, spec, none)
}

/// [`run`], stopped early with [`SchedError::RaceCutoff`] once `cutoff`
/// says the run cannot win.
pub(crate) fn run_until(
    ddg: &Ddg,
    machine: &MachineConfig,
    cfg: &DriverConfig,
    start_ii: i64,
    initial: Option<PartitionResult>,
    spec: AlgorithmSpec,
    cutoff: Cutoff,
) -> Result<PipelineOutcome, SchedError> {
    assert!(
        !spec.is_list() && !spec.is_portfolio(),
        "`{spec}` does not run through the pipeline"
    );
    let cap = cap_for(start_ii, cfg);
    // The effective ladder top: the II cap, tightened by the cutoff.
    // Crossing `limit` before `cap` is a cutoff, not a scheduling failure
    // — the distinction keeps the list fallback reserved for genuine
    // failures.
    let limit = cutoff.ii.map_or(cap, |c| c.min(cap));
    let mut ws = TimingWorkspace::new();
    let mut sms = None;
    // One incremental evaluator serves every re-partitioning call of this
    // loop: the cut-state buffers and timing workspace persist across the
    // II-raising retries instead of being rebuilt per call.
    let mut ev: Option<CostEvaluator<'_>> = None;
    let mut part: Option<PartitionResult> = if spec.needs_partition() {
        Some(initial.unwrap_or_else(|| {
            partition_ddg_with(
                ddg,
                machine,
                start_ii,
                &mut CostEvaluator::new(ddg, machine),
            )
        }))
    } else {
        None
    };
    let mut repartitions = 0usize;
    let mut ii = start_ii;
    let mut failures = 0usize;
    while ii <= limit {
        if cutoff.attempts.is_some_and(|b| failures >= b) {
            return Err(SchedError::RaceCutoff { limit: ii });
        }
        let found = attempt(ddg, machine, ii, part.as_ref(), spec, &mut ws, &mut sms);
        if let Some(ps) = found {
            return Ok(PipelineOutcome {
                schedule: Schedule::from_partial(ddg, machine, &ps),
                partition: part,
                repartitions,
            });
        }
        let next = spec.next_ii(ii, failures);
        debug_assert!(next > ii, "II growth must make progress");
        gpsched_trace::counter!("sched.ii_growth");
        ii = next;
        failures += 1;
        if let Some(p) = &part {
            if cluster::wants_repartition(spec, p, ii) {
                let _span = gpsched_trace::span!("sched.cluster.repartition", "ii={ii}");
                let ev = ev.get_or_insert_with(|| CostEvaluator::new(ddg, machine));
                part = Some(partition_ddg_with(ddg, machine, ii, ev));
                repartitions += 1;
            }
        }
    }
    if limit < cap {
        Err(SchedError::RaceCutoff { limit })
    } else {
        Err(SchedError::IiLimitExceeded { limit: cap })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_partition::PartitionOptions;
    use gpsched_workloads::kernels;

    #[test]
    fn uracam_policies_match_driver() {
        let cfg = DriverConfig::default();
        for ddg in kernels::all_kernels(200) {
            let m = MachineConfig::two_cluster(32, 1, 1);
            let direct = crate::schedule_loop(&ddg, &m, AlgorithmSpec::URACAM).unwrap();
            let start = gpsched_ddg::mii::mii(&ddg, &m);
            let piped = run(&ddg, &m, &cfg, start, None, AlgorithmSpec::URACAM).unwrap();
            assert_eq!(direct.schedule.ii(), piped.schedule.ii(), "{}", ddg.name());
            let (a, b) = (direct.schedule.length(), piped.schedule.length());
            assert_eq!(a, b, "{}", ddg.name());
            assert!(direct.partition.is_none() && piped.partition.is_none());
        }
    }

    #[test]
    fn window_divergence_flag_is_exact() {
        // `window_into` flags a window exactly when the two scan modes
        // order its cycles differently, for every window shape and every
        // position of the ASAP cycle relative to the window.
        let mut b = gpsched_ddg::DdgBuilder::new("w");
        let p = b.op(gpsched_machine::OpClass::IntAlu, "p");
        let x = b.op(gpsched_machine::OpClass::IntAlu, "x");
        let s = b.op(gpsched_machine::OpClass::IntAlu, "s");
        b.flow(p, x);
        b.flow(x, s);
        let ddg = b.build().unwrap();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let ii = 4;
        let schedule = |placed: &[(OpId, i64)]| {
            let mut ps = PartialSchedule::new(&ddg, &m, ii);
            for &(op, t) in placed {
                ps.place(op, 0, t).unwrap();
            }
            ps
        };
        let mut flagged = 0;
        // Neither neighbour, consumer only, producer only, both: windows
        // (none), (… , 2] descending, [1, 4] and [1, 2] ascending.
        for placed in [vec![], vec![(s, 3)], vec![(p, 0)], vec![(p, 0), (s, 3)]] {
            let ps = schedule(&placed);
            for a in -3..10 {
                let mut asap = vec![0; 3];
                asap[x.index()] = a;
                let (mut tight, mut asap_first) = (Vec::new(), Vec::new());
                let diverges =
                    window_into(&mut tight, &ps, &ddg, x, &asap, 20, ii, ScanMode::Tight);
                window_into(
                    &mut asap_first,
                    &ps,
                    &ddg,
                    x,
                    &asap,
                    20,
                    ii,
                    ScanMode::AsapFirst,
                );
                assert_eq!(
                    diverges,
                    tight != asap_first,
                    "{placed:?}, asap {a}: {tight:?} vs {asap_first:?}"
                );
                flagged += usize::from(diverges);
            }
        }
        assert!(flagged > 0, "no divergent window exercised");
    }

    #[test]
    fn resumed_second_scan_matches_full_rescan() {
        // The second-chance scan resumes at the first window it orders
        // differently, on a replay of the tight scan's prefix, and is
        // skipped when the tight scan failed before any such window. Every
        // rung of the ladder from the MII must return exactly what the
        // tight scan followed by a from-scratch ASAP-first scan returns:
        // the same schedule under `state_eq`, or the same failure.
        let ring = gpsched_machine::topology_presets()
            .into_iter()
            .find(|m| m.short_name() == "c4r64ring1x1")
            .expect("ring reference machine");
        let machines = [
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(32, 1, 2),
            ring,
        ];
        let mut loops = kernels::all_kernels(200);
        for name in gpsched_workloads::PRESET_NAMES {
            let profile = gpsched_workloads::preset(name).expect("bundled preset");
            loops.extend(gpsched_workloads::synth::corpus(name, &profile, 11, 2));
        }
        let cfg = DriverConfig::default();
        let popts = PartitionOptions::default();
        let (mut resumed, mut skipped) = (0usize, 0usize);
        for ddg in &loops {
            for m in &machines {
                let start = gpsched_ddg::mii::mii(ddg, m);
                let part = gpsched_partition::partition_ddg(ddg, m, start, &popts);
                // Every pipeline spec: each cluster rule, growth rule and
                // spill switch the catalog ships.
                for &spec in AlgorithmSpec::CATALOG.iter().filter(|s| !s.is_list()) {
                    let mut ws = TimingWorkspace::new();
                    let mut sms = None;
                    let (mut ii, mut failures) = (start, 0);
                    while ii <= cap_for(start, &cfg) {
                        let got = attempt(ddg, m, ii, Some(&part), spec, &mut ws, &mut sms);
                        let want = ws.analyze(ddg, ii, |_| 0).and_then(|t| {
                            let pre = sms.as_ref().expect("the attempt ordered this II");
                            let order = order::sms_order_precomputed(ddg, t, pre);
                            let rung = Rung::new(ddg, m, ii, Some(&part), spec, t, &order);
                            let full = |mode| {
                                let mut ps = PartialSchedule::with_spill(ddg, m, ii, spec.spills());
                                rung.scan(&mut ps, mode, 0).map(|()| ps)
                            };
                            full(ScanMode::Tight)
                                .or_else(|diverged| {
                                    match diverged {
                                        Some(0) => {}
                                        Some(_) => resumed += 1,
                                        None => skipped += 1,
                                    }
                                    full(ScanMode::AsapFirst)
                                })
                                .ok()
                        });
                        let at = format!(
                            "{} on {} with {spec} at II {ii}",
                            ddg.name(),
                            m.short_name()
                        );
                        match (&got, &want) {
                            (Some(g), Some(w)) => assert!(g.state_eq(w), "{at}: schedules differ"),
                            (None, None) => {}
                            _ => panic!(
                                "{at}: resumed {:?} vs full {:?}",
                                got.is_some(),
                                want.is_some()
                            ),
                        }
                        if got.is_some() {
                            break;
                        }
                        ii = spec.next_ii(ii, failures);
                        failures += 1;
                    }
                }
            }
        }
        // Both shortcuts must actually be taken, or the test is vacuous.
        assert!(resumed > 0, "no second scan resumed mid-order");
        assert!(skipped > 0, "no second scan skipped");
    }

    #[test]
    fn gp_policies_match_driver() {
        let cfg = DriverConfig::default();
        for ddg in kernels::all_kernels(200) {
            let m = MachineConfig::four_cluster(32, 1, 2);
            let direct = crate::schedule_loop(&ddg, &m, AlgorithmSpec::GP).unwrap();
            let start = gpsched_ddg::mii::mii(&ddg, &m);
            let piped = run(&ddg, &m, &cfg, start, None, AlgorithmSpec::GP).unwrap();
            assert_eq!(direct.schedule.ii(), piped.schedule.ii(), "{}", ddg.name());
            let repartitions = match direct.method {
                crate::ScheduledWith::Modulo { repartitions } => repartitions,
                other => panic!("{}: GP fell back ({other:?})", ddg.name()),
            };
            assert_eq!(repartitions, piped.repartitions, "{}", ddg.name());
            assert_eq!(
                direct.partition.as_ref(),
                piped.partition.as_ref().map(|p| &p.partition),
                "{}",
                ddg.name()
            );
        }
    }

    #[test]
    fn cutoff_outcome_matches_a_cut_off_run() {
        // `Cutoff::outcome` derives what a cut-off run returns from the
        // unconstrained run; the portfolio race trusts it instead of
        // running. For every pipeline spec, on loops that succeed at the
        // MII, higher up the ladder or (under a small II cap) only through
        // the list fallback, every cutoff II around the ladder and every
        // attempt budget up to past its length must give exactly what
        // `run_until` under that cutoff gives.
        let ring = gpsched_machine::topology_presets()
            .into_iter()
            .find(|m| m.short_name() == "c4r64ring1x1")
            .expect("ring reference machine");
        let machines = [
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(32, 1, 2),
            ring,
        ];
        let mut loops = kernels::all_kernels(200);
        for name in gpsched_workloads::PRESET_NAMES {
            let mut profile = gpsched_workloads::preset(name).expect("bundled preset");
            // Each preset's shape at kernel size: the grid below runs
            // every loop dozens of times per spec.
            profile.ops = profile.ops.min(24);
            loops.extend(gpsched_workloads::synth::corpus(name, &profile, 5, 2));
        }
        let popts = PartitionOptions::default();
        let specs = AlgorithmSpec::CATALOG.into_iter().filter(|s| !s.is_list());
        let specs: Vec<AlgorithmSpec> = specs.collect();
        // Outcomes seen: modulo above the MII, list fallback, cut off by
        // the budget, cut off by the II limit.
        let (mut climbed, mut fell_back, mut by_budget, mut by_limit) = (0, 0, 0, 0);
        for ddg in &loops {
            for m in &machines {
                let start = gpsched_ddg::mii::mii(ddg, m);
                let seed = crate::SchedSeed {
                    start_ii: start,
                    partition: Some(gpsched_partition::partition_ddg(ddg, m, start, &popts)),
                };
                let cfg = DriverConfig {
                    ii_cap: Some(start + 3),
                };
                for &spec in &specs {
                    let run = |cutoff| {
                        let seed = Some(&seed);
                        crate::algo::schedule_impl(ddg, m, spec, &cfg, seed, cutoff, None)
                    };
                    let full = run(Cutoff::default());
                    let full_run = full.as_ref().expect("schedulable");
                    let top = match full_run.method {
                        ScheduledWith::Modulo { .. } => full_run.schedule.ii(),
                        _ => cap_for(start, &cfg),
                    };
                    // How many rungs of the full run's ladder lie at or
                    // below `limit`.
                    let rungs = |limit: i64| {
                        let (mut n, mut ii) = (0, start);
                        while ii <= limit.min(top) {
                            ii = spec.next_ii(ii, n);
                            n += 1;
                        }
                        n
                    };
                    let iis = std::iter::once(None).chain((start - 1..=top + 1).map(Some));
                    for ii in iis {
                        // Budgets from none to one past every rung the
                        // run could climb under this limit.
                        let most = rungs(ii.unwrap_or(top));
                        let budgets = std::iter::once(None).chain((0..=most + 1).map(Some));
                        for attempts in budgets {
                            let cutoff = Cutoff { ii, attempts };
                            let want = run(cutoff);
                            let got = cutoff.outcome(spec, start, &cfg, &full);
                            let at = format!(
                                "{} on {} with {spec}, cutoff {cutoff:?}",
                                ddg.name(),
                                m.short_name()
                            );
                            match (&want, &got) {
                                (Ok(w), Ok(g)) => {
                                    assert_eq!(w.method, g.method, "{at}");
                                    assert_eq!(w.schedule.ii(), g.schedule.ii(), "{at}");
                                    assert_eq!(w.schedule.length(), g.schedule.length(), "{at}");
                                    assert_eq!(w.cycles(), g.cycles(), "{at}");
                                    match w.method {
                                        ScheduledWith::ListFallback => fell_back += 1,
                                        _ if w.schedule.ii() > start => climbed += 1,
                                        _ => {}
                                    }
                                }
                                (Err(w), Err(g)) => {
                                    assert_eq!(w, g, "{at}");
                                    assert!(matches!(w, SchedError::RaceCutoff { .. }), "{at}");
                                    by_limit += usize::from(attempts.is_none());
                                    by_budget += usize::from(ii.is_none());
                                }
                                _ => panic!("{at}: run {want:?} vs derived {got:?}"),
                            }
                        }
                    }
                }
            }
        }
        assert!(climbed > 0, "no run succeeded above the MII");
        assert!(fell_back > 0, "no run fell back to list scheduling");
        assert!(by_budget > 0, "no run exhausted its budget");
        assert!(by_limit > 0, "no run crossed its II limit");
    }

    fn run_kernel(spec: AlgorithmSpec) {
        let ddg = kernels::daxpy(100);
        let m = MachineConfig::two_cluster(32, 1, 1);
        let start = gpsched_ddg::mii::mii(&ddg, &m);
        let _ = run(&ddg, &m, &DriverConfig::default(), start, None, spec);
    }

    #[test]
    #[should_panic(expected = "does not run through the pipeline")]
    fn run_rejects_list() {
        run_kernel(AlgorithmSpec::LIST);
    }

    #[test]
    #[should_panic(expected = "does not run through the pipeline")]
    fn run_rejects_portfolio() {
        run_kernel(AlgorithmSpec::PORTFOLIO);
    }
}
