//! Timing analysis under a candidate initiation interval.
//!
//! Produces the quantities the partitioner's edge-weight metric needs
//! (§3.2.1 of the paper): ASAP/ALAP times over the modulo constraint system,
//! per-edge *slack* ("delay cycles that could be added to this edge without
//! affecting execution time"), and the intra-iteration longest path
//! `max_path` (the schedule-length estimate used in the execution-time
//! model `T = (niter−1)·II + max_path`).

use crate::ddg::Ddg;
use crate::dep::Dep;
use crate::DepId;
use gpsched_graph::feasibility::BfKernel;

/// Result of [`analyze`].
#[derive(Clone, Debug, Default)]
pub struct Timing {
    /// The initiation interval this analysis assumed.
    pub ii: i64,
    /// Earliest start time of each op (longest path in the constraint
    /// system with weights `lat + extra − II·dist`).
    pub asap: Vec<i64>,
    /// Latest start time of each op such that the overall span does not
    /// grow.
    pub alap: Vec<i64>,
    /// Slack of each dependence: `alap[dst] − asap[src] − w(e)` (≥ 0).
    pub edge_slack: Vec<i64>,
    /// Maximum slack over all edges (the paper's `maxsl`).
    pub max_slack: i64,
    /// Earliest start within one iteration: longest distance-0 path into
    /// each op (edge length `lat + extra`).
    pub start: Vec<i64>,
    /// Completion-inclusive tail: `tail[v] = max(lat(v), max over dist-0
    /// out-edges (len + tail[dst]))`. `start[v] + tail[v] ≤ max_path`.
    pub tail: Vec<i64>,
    /// Schedule-length estimate of one iteration:
    /// `max over ops of (start + op latency)`.
    pub max_path: i64,
}

/// Analyzes `ddg` at initiation interval `ii`, charging `extra(e)`
/// additional delay cycles on each dependence (pass `|_| 0` for the raw
/// graph; the partitioner passes the bus latency for cut edges).
///
/// Returns `None` when `ii` is below the recurrence bound of the delayed
/// graph (the constraint system has a positive cycle).
///
/// # Example
///
/// ```
/// use gpsched_ddg::{timing, DdgBuilder};
/// use gpsched_machine::OpClass;
///
/// let mut b = DdgBuilder::new("t");
/// let ld = b.op(OpClass::Load, "ld");
/// let ml = b.op(OpClass::FpMul, "ml");
/// b.flow(ld, ml);
/// let ddg = b.build()?;
/// let t = timing::analyze(&ddg, 1, |_| 0).unwrap();
/// assert_eq!(t.asap, vec![0, 2]);       // mul waits for the load
/// assert_eq!(t.max_path, 5);            // 2 (load) + 3 (mul completes)
/// # Ok::<(), gpsched_ddg::DdgError>(())
/// ```
pub fn analyze(ddg: &Ddg, ii: i64, extra: impl FnMut(DepId) -> i64) -> Option<Timing> {
    let mut ws = TimingWorkspace::new();
    ws.analyze(ddg, ii, extra).cloned()
}

/// Reusable scratch for [`analyze`]-equivalent computations.
///
/// The partitioner's refinement loop runs a timing analysis per candidate
/// move; the from-scratch [`analyze`] allocates ~8 vectors and re-derives a
/// topological order every call. A workspace hoists all of that: the DDG's
/// shape (constraint tuples, distance-0 topological order, op latencies) is
/// computed once by [`TimingWorkspace::prepare`], and every buffer of the
/// analysis itself is reused, so the steady state allocates nothing.
///
/// Extras reach the kernels through one of two entry points. The closure
/// form ([`TimingWorkspace::analyze`], [`TimingWorkspace::analyze_exec`])
/// evaluates the closure on every dep. The patched form
/// ([`TimingWorkspace::analyze_patched`]) takes the caller's *resident*
/// extras vector plus a short list of overridden deps; it touches only the
/// overridden deps and those of the previous patch, and resyncs every dep
/// once after [`TimingWorkspace::resident_changed`]. Both apply values
/// through one per-dep setter that patches the kernel bases only where the
/// value differs from what is applied, so both produce the same analysis
/// for the same extras.
///
/// A workspace is bound to the DDG most recently passed to `prepare` (or
/// to the first `analyze` call), identified by address plus shape
/// (op/dep counts); analyzing a *different* DDG re-prepares
/// automatically. The shape check backstops address reuse — a fresh DDG
/// allocated where a dropped one lived would otherwise alias the
/// binding — but it cannot tell apart two same-shaped graphs at the same
/// address: callers cycling through short-lived DDGs of one shape must
/// call `prepare` per graph (or keep the graphs alive).
///
/// # Example
///
/// ```
/// use gpsched_ddg::{timing, DdgBuilder};
/// use gpsched_machine::OpClass;
///
/// let mut b = DdgBuilder::new("t");
/// let ld = b.op(OpClass::Load, "ld");
/// let ml = b.op(OpClass::FpMul, "ml");
/// b.flow(ld, ml);
/// let ddg = b.build()?;
/// let mut ws = timing::TimingWorkspace::new();
/// let t = ws.analyze(&ddg, 1, |_| 0).unwrap();
/// assert_eq!(t.max_path, 5);
/// // Second call reuses every buffer.
/// assert!(ws.analyze(&ddg, 2, |_| 0).is_some());
/// # Ok::<(), gpsched_ddg::DdgError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct TimingWorkspace {
    /// Address of the DDG the cached shape was prepared from (0 = none).
    /// Address identity is what the incremental evaluator uses too; it
    /// makes the re-prepare check exact for any live DDG.
    bound: usize,
    nops: usize,
    ndeps: usize,
    /// Per-dep `(src, dst, latency, distance)` in dep-id order.
    shape: Vec<(u32, u32, i64, i64)>,
    /// The distance-0 deps as `(src, dst, latency, dep)`, grouped by
    /// source in topological order of the distance-0 sub-DAG: a forward
    /// walk computes `start`, a backward walk `tail`.
    flat0: Vec<(u32, u32, i64, u32)>,
    /// Prepared forward constraint-graph kernel (asap solves). Bases are
    /// `lat + extra`; the II term is applied inside the kernel, so probing
    /// a new II rebuilds nothing.
    fwd_kernel: BfKernel,
    /// The same for the reversed constraint graph (alap via out-lengths).
    rev_kernel: BfKernel,
    /// Per-dep extras currently applied to both kernels' bases — the
    /// extras of the current analysis. Only [`Self::set_extra`] writes it.
    applied: Vec<i64>,
    /// `applied` equals the patched caller's resident extras everywhere
    /// except at `patched`. False after `prepare`, a closure-form analysis
    /// or [`TimingWorkspace::resident_changed`]; the next patched analysis
    /// then resyncs every dep.
    resident_synced: bool,
    /// Deps the last patched analysis overrode (undone by the next one).
    patched: Vec<u32>,
    /// Per-op latency.
    op_lat: Vec<i64>,
    /// Reverse-solve distances: `alap[v] = span − out_len[v]`.
    out_len: Vec<i64>,
    /// `max(asap)` of the analysis `out_len` belongs to.
    span: i64,
    prepared: bool,
    /// The most recent `analyze` call completed successfully, so `timing`
    /// is coherent and `last()` may serve it.
    analyzed: bool,
    /// The reverse solve of the most recent successful analysis has run,
    /// so [`TimingWorkspace::slack_of`] may answer.
    reverse_done: bool,
    /// `alap`, `edge_slack` and `max_slack` of the most recent successful
    /// analysis have been built (false after
    /// [`TimingWorkspace::analyze_exec`] until
    /// [`TimingWorkspace::complete_slack`] runs).
    slack_done: bool,
    timing: Timing,
    /// Batched `ddg.timing.*` tallies, flushed when the workspace drops.
    /// The refinement screen runs one analysis per candidate move, so a
    /// per-call atomic increment here was a measurable share of
    /// enabled-tracing overhead.
    stats: TimingStats,
}

/// Batched `ddg.timing.*` tallies (see [`gpsched_trace::BatchCounter`]:
/// clones start at zero, drop flushes).
#[derive(Clone, Debug)]
struct TimingStats {
    prepares: gpsched_trace::BatchCounter,
    analyses: gpsched_trace::BatchCounter,
    infeasible: gpsched_trace::BatchCounter,
}

impl Default for TimingStats {
    fn default() -> Self {
        TimingStats {
            prepares: gpsched_trace::BatchCounter::new("ddg.timing.prepares"),
            analyses: gpsched_trace::BatchCounter::new("ddg.timing.analyses"),
            infeasible: gpsched_trace::BatchCounter::new("ddg.timing.infeasible"),
        }
    }
}

impl TimingWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        TimingWorkspace::default()
    }

    /// Rebuilds the cached DDG shape (constraint tuples, distance-0
    /// topological order, op latencies) and clears every applied extra
    /// and patch. The analysis entry points call this automatically
    /// whenever they are handed a DDG other than the one currently bound.
    pub fn prepare(&mut self, ddg: &Ddg) {
        let _span = gpsched_trace::span!("ddg.timing.prepare");
        self.stats.prepares.add(1);
        self.bound = ddg as *const Ddg as usize;
        self.nops = ddg.op_count();
        self.ndeps = ddg.dep_count();
        self.shape.clear();
        self.shape.extend(ddg.dep_ids().map(|e| {
            let (s, d) = ddg.dep_endpoints(e);
            let dep = ddg.dep(e);
            (
                s.index() as u32,
                d.index() as u32,
                dep.latency as i64,
                dep.distance as i64,
            )
        }));
        let graph = ddg.graph();
        let topo0 = gpsched_graph::topo::topo_order(graph, |_, dep: &Dep| dep.distance == 0)
            .expect("distance-0 subgraph is acyclic by construction");
        self.flat0.clear();
        for &v in &topo0 {
            for (e, w) in graph.out_edges(v) {
                let dep = graph.edge_weight(e);
                if dep.distance == 0 {
                    self.flat0.push((
                        v.index() as u32,
                        w.index() as u32,
                        dep.latency as i64,
                        e.index() as u32,
                    ));
                }
            }
        }
        // Prepared CSR kernels for both directions; built once here,
        // reused by every II probe until the workspace rebinds.
        let fwd: Vec<(usize, usize, i64, i64)> = self
            .shape
            .iter()
            .map(|&(s, d, lat, dist)| (s as usize, d as usize, lat, dist))
            .collect();
        self.fwd_kernel = BfKernel::build(self.nops, &fwd);
        let rev: Vec<(usize, usize, i64, i64)> = self
            .shape
            .iter()
            .map(|&(s, d, lat, dist)| (d as usize, s as usize, lat, dist))
            .collect();
        self.rev_kernel = BfKernel::build(self.nops, &rev);
        self.applied.clear();
        self.applied.resize(self.ndeps, 0);
        self.resident_synced = false;
        self.patched.clear();
        self.op_lat.clear();
        self.op_lat
            .extend(ddg.op_ids().map(|v| ddg.op(v).latency as i64));
        self.prepared = true;
        self.analyzed = false;
    }

    /// Prepares for `ddg` unless it is the bound DDG. Rebinds on a
    /// different address *or* a different shape: a DDG allocated where a
    /// dropped one used to live aliases the address check, so the shape
    /// comparison (O(1)) backstops it. Callers cycling through many
    /// same-shaped short-lived DDGs must call `prepare` explicitly (or
    /// keep the DDGs alive).
    fn bind(&mut self, ddg: &Ddg) {
        if !self.prepared
            || self.bound != ddg as *const Ddg as usize
            || self.nops != ddg.op_count()
            || self.ndeps != ddg.dep_count()
        {
            self.prepare(ddg);
        }
    }

    /// Applies extra `x` to dep `d`. The modulo constraint weight is
    /// `lat + extra − II·dist`; the prepared kernels hold `lat` and `dist`
    /// already, so only a changed extra touches their bases.
    #[inline]
    fn set_extra(&mut self, d: usize, x: i64) {
        let delta = x - self.applied[d];
        if delta != 0 {
            self.fwd_kernel.add_extra(d, delta);
            self.rev_kernel.add_extra(d, delta);
            self.applied[d] = x;
        }
    }

    /// Workspace-backed equivalent of [`analyze`]: identical results, no
    /// steady-state allocation. Returns `None` when `ii` is infeasible; the
    /// internal buffers then hold partial data and the next call overwrites
    /// them.
    pub fn analyze(
        &mut self,
        ddg: &Ddg,
        ii: i64,
        extra: impl FnMut(DepId) -> i64,
    ) -> Option<&Timing> {
        self.analyze_exec(ddg, ii, extra)?;
        self.complete_slack();
        Some(&self.timing)
    }

    /// The forward half of [`TimingWorkspace::analyze`]: feasibility, ASAP
    /// times and the `max_path` estimate — everything the execution-time
    /// model `T = (niter−1)·II + max_path` consumes — without the reverse
    /// constraint solve. On success, `asap`, `start`, `tail`, `max_path`
    /// and `ii` of the returned [`Timing`] are valid; `alap`, `edge_slack`
    /// and `max_slack` are **unspecified** until
    /// [`TimingWorkspace::complete_slack`] runs.
    ///
    /// The partitioner's candidate screen lives on this split: most
    /// candidates are rejected on execution time alone, and only the
    /// survivors pay for the reverse solve ([`TimingWorkspace::solve_reverse`])
    /// that the slack tiebreak reads per cut dep through
    /// [`TimingWorkspace::slack_of`].
    pub fn analyze_exec(
        &mut self,
        ddg: &Ddg,
        ii: i64,
        mut extra: impl FnMut(DepId) -> i64,
    ) -> Option<&Timing> {
        self.bind(ddg);
        for e in ddg.dep_ids() {
            let x = extra(e);
            self.set_extra(e.index(), x);
        }
        // The applied extras no longer follow any patched caller's
        // resident vector.
        self.resident_synced = false;
        self.solve_forward(ii)
    }

    /// [`TimingWorkspace::analyze_exec`] with extras `resident[e]` on every
    /// dep except the deps listed in `patch`, which take `patch`'s values.
    ///
    /// `resident` is the caller's own, long-lived extras vector (indexed by
    /// dep id). The workspace assumes it is unchanged since the previous
    /// patched analysis, so only the previous patch's deps are restored to
    /// it and the new patch's deps overridden — O(patch), not O(E). After
    /// the caller changes `resident`, it must call
    /// [`TimingWorkspace::resident_changed`]; the next patched analysis
    /// then resyncs every dep once. A closure-form analysis or a rebind
    /// in between forces that resync too.
    ///
    /// The partitioner's trial probe lives on this: a candidate move
    /// overrides only the deps incident to the moved ops.
    ///
    /// # Panics
    ///
    /// Panics if `resident` does not have one entry per dep.
    pub fn analyze_patched(
        &mut self,
        ddg: &Ddg,
        ii: i64,
        resident: &[i64],
        patch: &[(u32, i64)],
    ) -> Option<&Timing> {
        self.bind(ddg);
        assert_eq!(resident.len(), self.ndeps, "resident extras/ddg mismatch");
        if self.resident_synced {
            for i in 0..self.patched.len() {
                let d = self.patched[i] as usize;
                self.set_extra(d, resident[d]);
            }
        } else {
            for (d, &x) in resident.iter().enumerate() {
                self.set_extra(d, x);
            }
            self.resident_synced = true;
        }
        self.patched.clear();
        for &(d, x) in patch {
            self.set_extra(d as usize, x);
            self.patched.push(d);
        }
        self.solve_forward(ii)
    }

    /// Tells the workspace that the resident extras vector of
    /// [`TimingWorkspace::analyze_patched`] changed: the next patched
    /// analysis resyncs every dep instead of only the patched ones.
    pub fn resident_changed(&mut self) {
        self.resident_synced = false;
    }

    /// The forward solve over the applied extras, plus the
    /// intra-iteration `start`/`tail`/`max_path` passes.
    fn solve_forward(&mut self, ii: i64) -> Option<&Timing> {
        // Counted, not spanned: a refinement pass runs one analysis per
        // candidate move, so a span here would swamp the trace buffers.
        self.stats.analyses.add(1);
        // A failed probe leaves `timing` partially overwritten; it only
        // becomes readable through `last()` again once a probe succeeds.
        self.analyzed = false;
        self.reverse_done = false;
        self.slack_done = false;
        if !self.fwd_kernel.solve(ii, &mut self.timing.asap) {
            self.stats.infeasible.add(1);
            return None;
        }

        // Intra-iteration longest paths (distance-0 sub-DAG), edge length
        // lat + extra. Acyclic by Ddg validation even before extras. The
        // flat list is grouped by source in topological order, so every
        // source's `start` is final before its out-edges are read.
        let n = self.nops;
        let applied = &self.applied;
        let start = &mut self.timing.start;
        start.clear();
        start.resize(n, 0);
        for &(s, d, lat, e) in &self.flat0 {
            let cand = start[s as usize] + lat + applied[e as usize];
            if cand > start[d as usize] {
                start[d as usize] = cand;
            }
        }

        // tail[v] = max(lat(v), max over dist-0 out-edges (len + tail[dst])):
        // the completion-inclusive longest path out of v. Walking the flat
        // list backwards visits sources in reverse topological order, so
        // every destination's `tail` is final when it is read.
        let tail = &mut self.timing.tail;
        tail.clear();
        tail.extend_from_slice(&self.op_lat);
        for &(s, d, lat, e) in self.flat0.iter().rev() {
            let cand = lat + applied[e as usize] + tail[d as usize];
            if cand > tail[s as usize] {
                tail[s as usize] = cand;
            }
        }
        let (start, tail) = (&self.timing.start, &self.timing.tail);
        self.timing.max_path = (0..n).map(|v| start[v] + tail[v]).max().unwrap_or(0).max(0);
        self.timing.ii = ii;
        self.analyzed = true;
        Some(&self.timing)
    }

    /// The reverse constraint solve of the most recent successful forward
    /// analysis, without building `alap`, `edge_slack` or `max_slack`:
    /// afterwards [`TimingWorkspace::slack_of`] answers per dep. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if no forward analysis has succeeded yet. The reverse system
    /// shares its cycles with the forward one, so its solve cannot fail
    /// when the forward solve succeeded (asserted).
    pub fn solve_reverse(&mut self) {
        assert!(self.analyzed, "no successful forward analysis to complete");
        if self.reverse_done {
            return;
        }
        let feasible = self.rev_kernel.solve(self.timing.ii, &mut self.out_len);
        assert!(
            feasible,
            "reverse constraint system disagrees with the forward one"
        );
        self.span = self.timing.asap.iter().copied().max().unwrap_or(0);
        self.reverse_done = true;
    }

    /// Slack of dep `e` (by index) in the most recent analysis:
    /// `alap[dst] − asap[src] − w(e)`, the value
    /// [`TimingWorkspace::complete_slack`] stores in `edge_slack[e]`.
    ///
    /// # Panics
    ///
    /// Panics unless [`TimingWorkspace::solve_reverse`] ran for the most
    /// recent successful analysis.
    #[inline]
    pub fn slack_of(&self, e: usize) -> i64 {
        assert!(self.reverse_done, "slack read before the reverse solve");
        let (s, d, lat, dist) = self.shape[e];
        let w = lat + self.applied[e] - self.timing.ii * dist;
        (self.span - self.out_len[d as usize]) - self.timing.asap[s as usize] - w
    }

    /// Completes the ALAP/slack half of the most recent successful
    /// [`TimingWorkspace::analyze_exec`]: [`TimingWorkspace::solve_reverse`]
    /// plus the `alap`, `edge_slack` and `max_slack` vectors. Idempotent —
    /// a second call (or one after a full [`TimingWorkspace::analyze`]) is
    /// a no-op.
    ///
    /// # Panics
    ///
    /// Panics if no forward analysis has succeeded yet.
    pub fn complete_slack(&mut self) {
        self.solve_reverse();
        if self.slack_done {
            return;
        }
        let span = self.span;
        self.timing.alap.clear();
        self.timing
            .alap
            .extend(self.out_len.iter().map(|&out| span - out));
        self.timing.edge_slack.clear();
        self.timing.max_slack = 0;
        for e in 0..self.ndeps {
            let slack = self.slack_of(e);
            self.timing.edge_slack.push(slack);
            self.timing.max_slack = self.timing.max_slack.max(slack);
        }
        self.slack_done = true;
    }

    /// The result of the most recent *successful* [`TimingWorkspace::analyze`]
    /// call. The II-probing loops use this to read the feasible analysis
    /// after the probe succeeds without re-borrowing through `analyze`.
    ///
    /// # Panics
    ///
    /// Panics if no analysis has succeeded yet, or if the most recent one
    /// failed (its buffers hold partial data).
    pub fn last(&self) -> &Timing {
        assert!(self.analyzed, "no successful analysis to read");
        &self.timing
    }
}

impl Timing {
    /// Schedule-length estimate when `delta` extra cycles are charged on the
    /// distance-0 dependence `e = (src, dst)` with base length `len`
    /// (latency + already-applied extra), without recomputing the analysis:
    /// `max(max_path, start[src] + len + delta + tail[dst])`.
    pub fn max_path_with_delay(&self, src: usize, dst: usize, len: i64, delta: i64) -> i64 {
        self.max_path
            .max(self.start[src] + len + delta + self.tail[dst])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DdgBuilder;
    use gpsched_machine::OpClass;

    #[test]
    fn chain_asap_alap_and_slack() {
        let mut b = DdgBuilder::new("t");
        let ld = b.op(OpClass::Load, "ld"); // lat 2
        let ml = b.op(OpClass::FpMul, "ml"); // lat 3
        let st = b.op(OpClass::Store, "st");
        let e1 = b.flow(ld, ml);
        let e2 = b.flow(ml, st);
        let ddg = b.build().unwrap();
        let t = analyze(&ddg, 1, |_| 0).unwrap();
        assert_eq!(t.asap, vec![0, 2, 5]);
        assert_eq!(t.alap, vec![0, 2, 5]); // critical chain: no slack
        assert_eq!(t.edge_slack[e1.index()], 0);
        assert_eq!(t.edge_slack[e2.index()], 0);
        assert_eq!(t.max_slack, 0);
        assert_eq!(t.max_path, 6); // store completes at 5 + 1
    }

    #[test]
    fn side_branch_has_slack() {
        let mut b = DdgBuilder::new("t");
        let ld = b.op(OpClass::Load, "ld"); // lat 2
        let dv = b.op(OpClass::FpDiv, "dv"); // lat 8
        let ad = b.op(OpClass::IntAlu, "ad"); // lat 1
        let st = b.op(OpClass::Store, "st");
        b.flow(ld, dv);
        let cheap = b.flow(ld, ad);
        b.flow(dv, st);
        let join = b.flow(ad, st);
        let ddg = b.build().unwrap();
        let t = analyze(&ddg, 1, |_| 0).unwrap();
        // Critical: ld(2) → dv(8) → st: asap[st] = 10.
        assert_eq!(t.asap[st.index()], 10);
        // The int branch can slide: each of its edges could absorb the
        // whole 7-cycle gap alone (ld→dv→st is 10, ld→ad→st is 3).
        assert_eq!(t.edge_slack[cheap.index()], 7);
        assert_eq!(t.edge_slack[join.index()], 7);
        assert_eq!(t.max_slack, 7);
    }

    #[test]
    fn infeasible_ii_returns_none() {
        let mut b = DdgBuilder::new("t");
        let acc = b.op(OpClass::FpAdd, "acc"); // lat 3
        b.flow_carried(acc, acc, 1);
        let ddg = b.build().unwrap();
        assert!(analyze(&ddg, 2, |_| 0).is_none());
        assert!(analyze(&ddg, 3, |_| 0).is_some());
    }

    #[test]
    fn carried_edges_do_not_stretch_max_path() {
        let mut b = DdgBuilder::new("t");
        let a = b.op(OpClass::IntAlu, "a");
        let c = b.op(OpClass::IntAlu, "c");
        b.flow(a, c);
        b.flow_carried(c, a, 1);
        let ddg = b.build().unwrap();
        let t = analyze(&ddg, 2, |_| 0).unwrap();
        assert_eq!(t.max_path, 2); // a starts 0, c starts 1, completes at 2
    }

    #[test]
    fn extra_delay_shifts_downstream() {
        let mut b = DdgBuilder::new("t");
        let a = b.op(OpClass::IntAlu, "a");
        let c = b.op(OpClass::IntAlu, "c");
        let e = b.flow(a, c);
        let ddg = b.build().unwrap();
        let t0 = analyze(&ddg, 1, |_| 0).unwrap();
        assert_eq!(t0.asap[c.index()], 1);
        assert_eq!(t0.max_path, 2);
        let t1 = analyze(&ddg, 1, |id| if id == e { 2 } else { 0 }).unwrap();
        assert_eq!(t1.asap[c.index()], 3);
        assert_eq!(t1.max_path, 4);
        // The incremental estimator agrees with the recomputation.
        assert_eq!(
            t0.max_path_with_delay(a.index(), c.index(), 1, 2),
            t1.max_path
        );
    }

    #[test]
    fn workspace_matches_from_scratch() {
        let mut b = DdgBuilder::new("t");
        let ld = b.op(OpClass::Load, "ld");
        let dv = b.op(OpClass::FpDiv, "dv");
        let ad = b.op(OpClass::IntAlu, "ad");
        let st = b.op(OpClass::Store, "st");
        let e0 = b.flow(ld, dv);
        b.flow(ld, ad);
        b.flow(dv, st);
        b.flow(ad, st);
        b.flow_carried(ad, ld, 1);
        b.mem(st, ld, 1);
        let ddg = b.build().unwrap();
        let mut ws = TimingWorkspace::new();
        for ii in 1..=4 {
            for bus in [0i64, 2] {
                let extra = |e: DepId| if e == e0 { bus } else { 0 };
                let a = analyze(&ddg, ii, extra);
                let w = ws.analyze(&ddg, ii, extra).cloned();
                match (a, w) {
                    (None, None) => {}
                    (Some(a), Some(w)) => {
                        assert_eq!(a.ii, w.ii);
                        assert_eq!(a.asap, w.asap);
                        assert_eq!(a.alap, w.alap);
                        assert_eq!(a.edge_slack, w.edge_slack);
                        assert_eq!(a.max_slack, w.max_slack);
                        assert_eq!(a.start, w.start);
                        assert_eq!(a.tail, w.tail);
                        assert_eq!(a.max_path, w.max_path);
                    }
                    (a, w) => panic!("feasibility disagrees: {a:?} vs {w:?}"),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no successful analysis")]
    fn last_panics_after_failed_probe() {
        let mut b = DdgBuilder::new("t");
        let acc = b.op(OpClass::FpAdd, "acc"); // lat 3
        b.flow_carried(acc, acc, 1); // RecMII 3
        let ddg = b.build().unwrap();
        let mut ws = TimingWorkspace::new();
        assert!(ws.analyze(&ddg, 3, |_| 0).is_some());
        // The failed probe invalidates the previous result.
        assert!(ws.analyze(&ddg, 2, |_| 0).is_none());
        ws.last();
    }

    #[test]
    fn workspace_reprepares_for_new_ddg() {
        let mut b = DdgBuilder::new("one");
        let a = b.op(OpClass::IntAlu, "a");
        let c = b.op(OpClass::IntAlu, "c");
        b.flow(a, c);
        let small = b.build().unwrap();
        let mut b = DdgBuilder::new("two");
        let ld = b.op(OpClass::Load, "ld");
        let ml = b.op(OpClass::FpMul, "ml");
        let st = b.op(OpClass::Store, "st");
        b.flow(ld, ml);
        b.flow(ml, st);
        let big = b.build().unwrap();

        // Same op/dep counts as `small`, different latencies.
        let mut b = DdgBuilder::new("three");
        let m1 = b.op(OpClass::FpMul, "m1");
        let m2 = b.op(OpClass::FpMul, "m2");
        b.flow(m1, m2);
        let twin = b.build().unwrap();

        let mut ws = TimingWorkspace::new();
        assert_eq!(ws.analyze(&small, 1, |_| 0).unwrap().max_path, 2);
        // Different shape: auto re-prepares.
        assert_eq!(ws.analyze(&big, 1, |_| 0).unwrap().max_path, 2 + 3 + 1);
        // Same-shaped but different DDG: the address binding re-prepares
        // too — no explicit prepare needed.
        assert_eq!(ws.analyze(&small, 1, |_| 0).unwrap().max_path, 2);
        assert_eq!(ws.analyze(&twin, 1, |_| 0).unwrap().max_path, 3 + 3);
    }

    #[test]
    fn start_and_tail_compose_to_max_path() {
        let mut b = DdgBuilder::new("t");
        let ld = b.op(OpClass::Load, "ld");
        let m1 = b.op(OpClass::FpMul, "m1");
        let m2 = b.op(OpClass::FpMul, "m2");
        b.flow(ld, m1);
        b.flow(m1, m2);
        let ddg = b.build().unwrap();
        let t = analyze(&ddg, 1, |_| 0).unwrap();
        for v in 0..ddg.op_count() {
            assert!(t.start[v] + t.tail[v] <= t.max_path);
        }
        assert_eq!(t.max_path, 2 + 3 + 3);
    }
}
