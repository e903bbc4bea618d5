//! Incremental partition-cost evaluation (the §3.2.2 refinement hot path).
//!
//! The from-scratch [`estimate`](crate::estimate::estimate) walks every
//! dependence to find the cut, rebuilds the communication set, recounts
//! per-cluster resource usage and re-derives the timing analysis — for
//! *every* candidate move the refinement loop considers. Almost all of that
//! is redundant between single-node moves: only the moved node's incident
//! dependences can change cut status.
//!
//! [`CostEvaluator`] therefore keeps the current assignment's cut state
//! resident — per-dep cut flags, the `extra[]` transfer-delay vector, the
//! paper's `NComm` communication count with its per-channel interconnect
//! load ([`crate::ChannelLoad`]) and per-cluster functional-unit
//! totals — and updates it in O(degree) per [`CostEvaluator::apply`]. A
//! full [`CostEvaluator::cost`] then only pays for the timing analysis,
//! which runs through a reusable [`TimingWorkspace`] so the steady state
//! allocates nothing. [`CostEvaluator::cost_if_better`] additionally
//! screens with a cheap execution-time lower bound
//! (`(niter−1)·max(ii_input, ResMII, IIbus) + max_path_lb`, where
//! `max_path_lb` sharpens the assignment-independent `max_path₀` with the
//! cut's own transfer delays) and skips the timing analysis entirely when
//! the candidate provably cannot win.
//!
//! Candidate moves themselves never touch the resident state at all:
//! [`CostEvaluator::trial_moves`] evaluates the would-be cost of a move
//! batch under an epoch-stamped overlay (hypothetical assignment,
//! per-cluster scratch counts, per-dep cut/extra stamps for the deps
//! incident to a moved op) — bit-identical to apply → evaluate → revert,
//! without the two delta applications per rejected candidate. Only the
//! move the refinement loop finally adopts is applied.
//!
//! The evaluator is proven bit-identical to `estimate()` by a seeded
//! property test over random move/swap/revert sequences across bus, ring
//! and point-to-point machines, and `trial_moves` against its
//! apply/evaluate/revert equivalent on the same machines
//! (`tests/evaluator_equiv.rs`).

use crate::comm::ChannelLoad;
use crate::estimate::PartitionCost;
use crate::multilevel::PartitionBuffers;
use gpsched_ddg::timing::TimingWorkspace;
use gpsched_ddg::{Ddg, DepKind};
use gpsched_machine::{MachineConfig, ResourceKind};

/// Delta-maintained cut state of one cluster assignment, able to produce
/// the exact [`PartitionCost`] of the current assignment on demand.
///
/// # Example
///
/// ```
/// use gpsched_machine::MachineConfig;
/// use gpsched_partition::{estimate, CostEvaluator, Partition};
/// use gpsched_workloads::kernels;
///
/// let ddg = kernels::daxpy(100);
/// let machine = MachineConfig::two_cluster(32, 1, 1);
/// let assign: Vec<usize> = (0..ddg.op_count()).map(|i| i % 2).collect();
/// let mut ev = CostEvaluator::new(&ddg, &machine);
/// ev.reset(2, &assign);
/// let from_scratch = estimate(&ddg, &machine, 2, &Partition::new(assign, 2));
/// assert_eq!(ev.cost(), from_scratch);
///
/// // Move op 0 to cluster 1 and back: O(degree) each, state stays exact.
/// ev.apply(0, 1);
/// ev.apply(0, 0);
/// assert_eq!(ev.cost(), from_scratch);
/// ```
#[derive(Debug)]
pub struct CostEvaluator<'a> {
    ddg: &'a Ddg,
    machine: &'a MachineConfig,
    nclusters: usize,
    /// Uniform single-channel interconnect fast path (the shared bus,
    /// pipelined or not): occupancy one communicated value books and the
    /// channel capacity. `net_cap == 0` selects the general per-channel
    /// accounting instead ([`ChannelLoad`], rebuilt on demand).
    net_occ: i64,
    net_cap: i64,
    ii_input: i64,
    /// Per-op cluster assignment.
    assign: Vec<usize>,
    /// Per-dep: endpoints in different clusters.
    cut: Vec<bool>,
    /// The cut deps themselves, unordered (swap-removal), so the
    /// cut-slack sum in [`Self::assemble`] is O(cut) instead of O(E).
    /// The sum is order-independent (exact integer addition), so the
    /// unordered walk is bit-identical to the per-dep scan.
    cut_list: Vec<u32>,
    /// `cut_list` position of each cut dep; `u32::MAX` for uncut ones.
    cut_pos: Vec<u32>,
    /// Per-dep transfer delay charged by the timing analysis (the
    /// topology's pairwise latency on cut flow deps, 0 elsewhere).
    extra: Vec<i64>,
    /// The paper's `NComm`: distinct (producer, consumer-cluster) pairs
    /// over cut flow deps.
    comm_count: usize,
    /// `consumers_in[op · nclusters + c]` = flow out-edges of `op` whose
    /// consumer sits in cluster `c`.
    consumers_in: Vec<u32>,
    /// `counts[cluster][kind]` = assigned ops occupying that resource.
    counts: Vec<[i64; 3]>,
    /// `max_path` of the bus-free DDG — a lower bound on any assignment's
    /// `max_path`, used by the screen.
    base_max_path: i64,
    /// Per-dep longest distance-0 path *through* that dep at zero extras
    /// (`start₀[src] + latency + tail₀[dst]`), or `i64::MIN` for deps that
    /// cannot stretch `max_path` (loop-carried ones). Charging `extra` on
    /// dep `e` lengthens every path through it, so
    /// `max_path ≥ p0[e] + extra[e]` — the screen's per-candidate
    /// sharpening of `base_max_path`.
    p0: Vec<i64>,
    /// The deps worth scanning for that sharpening: near-critical ones,
    /// where even the largest transfer delay the topology can charge
    /// (`p0[e] + max pair latency`) clears `base_max_path`. Sorted by
    /// `p0` descending so uniform-latency machines can stop at the first
    /// cut dep.
    screen_deps: Vec<u32>,
    /// Endpoints of each `screen_deps` entry, resolved once (the overlay
    /// screen would otherwise chase the dep table per candidate).
    screen_ends: Vec<(u32, u32)>,
    /// Per-op resource kind index, resolved once (the move path would
    /// otherwise chase the op table per moved op).
    kind_of: Vec<u8>,
    /// Per-dep `kind == Flow`, resolved once for the same reason.
    is_flow: Vec<bool>,
    /// Scratch: producers whose communication contribution is in flux.
    touched: Vec<usize>,
    /// Epoch stamps deduplicating `touched` without sorting: op `p` is
    /// already collected iff `touch_mark[p] == touch_epoch`.
    touch_mark: Vec<u64>,
    touch_epoch: u64,
    /// Epoch-stamped hypothetical assignment overlay for
    /// [`Self::trial_moves`]: op `p` is pending a move to `move_to[p]`
    /// iff `move_mark[p] == move_epoch`.
    move_mark: Vec<u64>,
    move_to: Vec<u32>,
    move_epoch: u64,
    /// Scratch per-cluster counts for the trial resource bound.
    counts_scratch: Vec<[i64; 3]>,
    /// Epoch-stamped per-dep overlay for [`Self::trial_moves`]: dep `e`
    /// has an overlay cut status iff `dep_mark[e] == dep_epoch`; every
    /// other dep keeps its resident `cut[e]`/`extra[e]`. Only deps
    /// incident to a moved op can differ, so the stamping pass is
    /// O(moved degree).
    dep_mark: Vec<u64>,
    dep_cut: Vec<bool>,
    dep_epoch: u64,
    /// The deps stamped in the current trial (deduplicated via
    /// `dep_mark`) with their overlay transfer delay: the patch the trial
    /// probe hands the timing workspace, and the list the cut-slack/
    /// cut-size fixup in [`Self::assemble_overlay`] walks.
    deps_touched: Vec<(u32, i64)>,
    /// Timing workspace whose patched analyses read `extra` as the
    /// resident extras; every change to `extra` outside a trial is
    /// reported through [`TimingWorkspace::resident_changed`].
    ws: TimingWorkspace,
    /// Per-channel interconnect load of those pairs (the generalized
    /// `IIbus` is its [`ChannelLoad::bound`]).
    chan: ChannelLoad,
    /// Row-major pairwise transfer latencies (`pair_lat[from·n + to]`),
    /// resolved once so cut refreshes index instead of dispatching.
    pair_lat: Vec<i64>,
    /// When every cross-cluster pair has the same latency (shared bus,
    /// uniform p2p), that scalar; −1 for asymmetric topologies. Keeps the
    /// per-edge cut refresh a register read on the paper's machines.
    uniform_lat: i64,
    /// The multilevel driver's level buffers, kept here so every
    /// partitioning call through this evaluator reuses them.
    pub(crate) buffers: PartitionBuffers,
    /// Batched `partition.*` screen tallies, flushed when the evaluator
    /// drops. The refinement screen rejects tens of thousands of
    /// candidates per run; per-rejection atomic counters were a
    /// measurable share of enabled-tracing overhead.
    stats: EvalStats,
}

/// Batched `partition.*` tallies (see [`gpsched_trace::BatchCounter`]:
/// clones start at zero, drop flushes).
#[derive(Clone, Debug)]
struct EvalStats {
    screen_rejected: gpsched_trace::BatchCounter,
    exec_rejected: gpsched_trace::BatchCounter,
}

impl Default for EvalStats {
    fn default() -> Self {
        EvalStats {
            screen_rejected: gpsched_trace::BatchCounter::new("partition.screen_rejected"),
            exec_rejected: gpsched_trace::BatchCounter::new("partition.exec_rejected"),
        }
    }
}

/// Per-cluster resource MII of `counts` on `machine` (mirrors
/// [`gpsched_ddg::mii::res_mii_clustered`], including its
/// [`INFEASIBLE_RES_BOUND`](gpsched_ddg::mii::INFEASIBLE_RES_BOUND)
/// sentinel for clusters holding ops they have no units for).
fn res_bound_of(machine: &MachineConfig, counts: &[[i64; 3]]) -> i64 {
    let mut bound = 1i64;
    for (c, per_kind) in counts.iter().enumerate() {
        for kind in ResourceKind::ALL {
            let ops = per_kind[kind.index()];
            if ops == 0 {
                continue;
            }
            let units = machine.cluster(c).units(kind) as i64;
            if units == 0 {
                // Infeasible assignment: ops of a kind the cluster cannot
                // execute. Report the sentinel bound so refinement sees a
                // dominating cost and moves the ops out, instead of
                // panicking (reachable via heterogeneous `.machine` input).
                return gpsched_ddg::mii::INFEASIBLE_RES_BOUND;
            }
            bound = bound.max((ops + units - 1) / units);
        }
    }
    bound
}

/// One move batch for [`CostEvaluator::trial_moves`]: every op in `ops`
/// hypothetically moves to `cluster`.
///
/// `boundary` lets callers that move *groups* of co-resident ops (the
/// refinement loop's coarse macro-nodes) exempt the group's interior from
/// the overlay's edge walks: it must contain every op of `ops` that has a
/// dependence endpoint outside the batch's co-moving, co-resident group.
/// An op all of whose dependence neighbors sit in the same batch, move to
/// the same destination and share the op's resident cluster can change
/// neither its communication contribution nor any incident dep's cut
/// status — only its resource slot moves. Callers without that structure
/// pass `boundary = ops`.
#[derive(Clone, Copy, Debug)]
pub struct TrialBatch<'m> {
    /// Every op of the batch.
    pub ops: &'m [usize],
    /// The subset of `ops` with a dependence leaving the co-moving group
    /// (see above). Must not contain duplicates.
    pub boundary: &'m [usize],
    /// Destination cluster for the whole batch.
    pub cluster: usize,
}

/// The common cross-cluster latency of `machine`, or −1 when pairs
/// differ (ring, non-uniform p2p).
fn uniform_lat(machine: &MachineConfig) -> i64 {
    let n = machine.cluster_count();
    let mut common = None;
    for from in 0..n {
        for to in 0..n {
            if from == to {
                continue;
            }
            let l = machine.transfer_latency(from, to);
            match common {
                None => common = Some(l),
                Some(c) if c == l => {}
                Some(_) => return -1,
            }
        }
    }
    common.unwrap_or(0)
}

impl<'a> CostEvaluator<'a> {
    /// Creates an evaluator for `ddg` on `machine`, initially with every op
    /// in cluster 0 and `ii_input = 1`; call [`CostEvaluator::reset`] to
    /// load a real assignment.
    pub fn new(ddg: &'a Ddg, machine: &'a MachineConfig) -> Self {
        let mut ws = TimingWorkspace::new();
        ws.prepare(ddg);
        // `max_path` does not depend on the II (only distance-0 edges
        // contribute), so probe at the always-feasible total latency.
        let (base_max_path, p0) = {
            let t = ws
                .analyze_exec(ddg, ddg.total_latency(), |_| 0)
                .expect("total latency is always recurrence-feasible");
            let p0: Vec<i64> = ddg
                .dep_ids()
                .map(|e| {
                    let dep = ddg.dep(e);
                    if dep.distance != 0 {
                        return i64::MIN;
                    }
                    let (s, d) = ddg.dep_endpoints(e);
                    t.start[s.index()] + dep.latency as i64 + t.tail[d.index()]
                })
                .collect();
            (t.max_path, p0)
        };
        let is_flow: Vec<bool> = ddg
            .dep_ids()
            .map(|e| ddg.dep(e).kind == DepKind::Flow)
            .collect();
        let max_lat = machine
            .transfer_latency_table()
            .into_iter()
            .max()
            .unwrap_or(0);
        // Only flow deps ever carry an extra, so only they can sharpen.
        // Sorted by `p0` descending: on uniform-latency machines every cut
        // dep sharpens by the same constant, so the scan can stop at the
        // first cut one — the maximum is decided there.
        let mut screen_deps: Vec<u32> = (0..p0.len())
            .filter(|&e| is_flow[e] && p0[e] != i64::MIN && p0[e] + max_lat > base_max_path)
            .map(|e| e as u32)
            .collect();
        screen_deps.sort_by_key(|&e| std::cmp::Reverse(p0[e as usize]));
        let screen_ends: Vec<(u32, u32)> = screen_deps
            .iter()
            .map(|&e| {
                let (s, d) = ddg.dep_endpoints(gpsched_graph::EdgeId::from_index(e as usize));
                (s.index() as u32, d.index() as u32)
            })
            .collect();
        let chan = ChannelLoad::new(machine);
        let (net_occ, net_cap) = chan.uniform_single_channel().unwrap_or((0, 0));
        let mut ev = CostEvaluator {
            ddg,
            machine,
            nclusters: machine.cluster_count(),
            net_occ,
            net_cap,
            ii_input: 1,
            stats: EvalStats::default(),
            assign: Vec::new(),
            cut: Vec::new(),
            cut_list: Vec::new(),
            cut_pos: vec![u32::MAX; ddg.dep_count()],
            extra: Vec::new(),
            comm_count: 0,
            chan,
            pair_lat: machine.transfer_latency_table(),
            uniform_lat: uniform_lat(machine),
            consumers_in: Vec::new(),
            counts: Vec::new(),
            base_max_path,
            p0,
            screen_deps,
            screen_ends,
            kind_of: ddg
                .op_ids()
                .map(|op| ddg.op(op).class.resource().index() as u8)
                .collect(),
            is_flow,
            touched: Vec::new(),
            touch_mark: vec![0; ddg.op_count()],
            touch_epoch: 0,
            move_mark: vec![0; ddg.op_count()],
            move_to: vec![0; ddg.op_count()],
            move_epoch: 0,
            counts_scratch: Vec::new(),
            dep_mark: vec![0; ddg.dep_count()],
            dep_cut: vec![false; ddg.dep_count()],
            dep_epoch: 0,
            deps_touched: Vec::new(),
            ws,
            buffers: PartitionBuffers::default(),
        };
        let zeros = vec![0usize; ddg.op_count()];
        ev.reset(1, &zeros);
        ev
    }

    /// Reloads the evaluator with a fresh assignment and partitioning input
    /// interval, reusing every buffer. O(V·nclusters + E).
    ///
    /// # Panics
    ///
    /// Panics if `assign` does not cover the DDG's ops, an entry is out of
    /// cluster range, or `ii_input < 1`.
    pub fn reset(&mut self, ii_input: i64, assign: &[usize]) {
        assert_eq!(assign.len(), self.ddg.op_count(), "partition/ddg mismatch");
        assert!(ii_input >= 1, "ii_input must be positive");
        assert!(
            assign.iter().all(|&c| c < self.nclusters),
            "assignment entry out of range"
        );
        self.ii_input = ii_input;
        self.assign.clear();
        self.assign.extend_from_slice(assign);

        self.counts.clear();
        self.counts.resize(self.nclusters, [0i64; 3]);
        for op in self.ddg.op_ids() {
            let k = self.ddg.op(op).class.resource().index();
            self.counts[assign[op.index()]][k] += 1;
        }

        self.consumers_in.clear();
        self.consumers_in
            .resize(self.ddg.op_count() * self.nclusters, 0);
        self.cut.clear();
        self.extra.clear();
        self.cut_list.clear();
        self.cut_pos.fill(u32::MAX);
        for e in self.ddg.dep_ids() {
            let (s, d) = self.ddg.dep_endpoints(e);
            let dep = self.ddg.dep(e);
            let cut = assign[s.index()] != assign[d.index()];
            self.cut.push(cut);
            self.extra.push(if cut && dep.kind == DepKind::Flow {
                if self.uniform_lat >= 0 {
                    self.uniform_lat
                } else {
                    self.pair_lat[assign[s.index()] * self.nclusters + assign[d.index()]]
                }
            } else {
                0
            });
            if cut {
                self.cut_pos[e.index()] = self.cut_list.len() as u32;
                self.cut_list.push(e.index() as u32);
            }
            if dep.kind == DepKind::Flow {
                self.consumers_in[s.index() * self.nclusters + assign[d.index()]] += 1;
            }
        }
        self.comm_count = (0..self.ddg.op_count()).map(|p| self.comm_contrib(p)).sum();
        self.ws.resident_changed();
    }

    /// The partitioning input interval of the current load.
    pub fn ii_input(&self) -> i64 {
        self.ii_input
    }

    /// Returns `true` if this evaluator was built for exactly this
    /// DDG/machine pair (pointer identity — the evaluator's resident state
    /// is meaningless against any other graph).
    pub fn is_for(&self, ddg: &Ddg, machine: &MachineConfig) -> bool {
        std::ptr::eq(self.ddg, ddg) && std::ptr::eq(self.machine, machine)
    }

    /// The current per-op assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assign
    }

    /// Lends out the evaluator's timing workspace, already prepared for
    /// its DDG (the coarsening weights analyze the same graph). The
    /// borrower may leave any extras applied, so the evaluator's next
    /// analysis resyncs every dep.
    pub fn timing_workspace(&mut self) -> &mut TimingWorkspace {
        self.ws.resident_changed();
        &mut self.ws
    }

    /// Clusters the producer `p` must send its value to (everything except
    /// its own cluster counts — a value sent once to a cluster serves all
    /// consumers there).
    #[inline]
    fn comm_contrib(&self, p: usize) -> usize {
        let row = &self.consumers_in[p * self.nclusters..(p + 1) * self.nclusters];
        let home = self.assign[p];
        row.iter()
            .enumerate()
            .filter(|&(c, &n)| n > 0 && c != home)
            .count()
    }

    /// The cluster op `op` sits in under the [`Self::trial_moves`] overlay
    /// at epoch `ep`.
    #[inline]
    fn overlay_cluster(&self, op: usize, ep: u64) -> usize {
        if self.move_mark[op] == ep {
            self.move_to[op] as usize
        } else {
            self.assign[op]
        }
    }

    /// [`Self::comm_contrib`] under the [`Self::trial_moves`] overlay at
    /// epoch `ep`: `p`'s consumer clusters are recounted from its flow
    /// out-edges with pending moves applied. O(out-degree), read-only.
    fn comm_contrib_overlay(&self, p: usize, ep: u64) -> usize {
        let home = self.overlay_cluster(p, ep);
        let mut mask: u64 = 0;
        for (e, d) in self
            .ddg
            .graph()
            .out_edges(gpsched_graph::NodeId::from_index(p))
        {
            if self.is_flow[e.index()] {
                let c = self.overlay_cluster(d.index(), ep);
                if c != home {
                    mask |= 1 << c;
                }
            }
        }
        mask.count_ones() as usize
    }

    /// The interconnect-imposed II bound of the current communication —
    /// the generalized `IIbus`. On uniform single-channel topologies (the
    /// paper's bus) it is a closed form over the resident `NComm`, so the
    /// refinement hot path pays nothing for the open machine axis; other
    /// topologies rebuild the per-channel loads from the resident
    /// consumer table.
    #[inline]
    fn interconnect_bound(&mut self) -> i64 {
        if self.net_cap > 0 {
            ((self.comm_count as i64 * self.net_occ + self.net_cap - 1) / self.net_cap).max(1)
        } else {
            self.channel_bound_general()
        }
    }

    /// The general per-channel bound: every (producer, consumer-cluster)
    /// value books its route on [`ChannelLoad`]. O(V · nclusters).
    #[cold]
    fn channel_bound_general(&mut self) -> i64 {
        gpsched_trace::counter!("partition.evaluator_rebuilds");
        self.chan.clear();
        for p in 0..self.ddg.op_count() {
            let home = self.assign[p];
            for c in 0..self.nclusters {
                if c != home && self.consumers_in[p * self.nclusters + c] > 0 {
                    self.chan.add_pair(home, c);
                }
            }
        }
        self.chan.bound()
    }

    /// Moves op `op` to `cluster`, updating all resident state in
    /// O(degree · nclusters). Moving an op to its current cluster is a
    /// no-op; applying the inverse move restores the previous state
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics if `op` or `cluster` is out of range.
    pub fn apply(&mut self, op: usize, cluster: usize) {
        self.apply_many(std::slice::from_ref(&op), cluster);
    }

    /// Moves every op in `ops` to `cluster` — equivalent to applying them
    /// one by one (the resident state is a pure function of the
    /// assignment), but the communication recount and cut refreshes are
    /// shared across the batch. This is what refinement moves of coarse
    /// macro-nodes (whole member sets at once) go through.
    ///
    /// # Panics
    ///
    /// Panics if an op or `cluster` is out of range.
    pub fn apply_many(&mut self, ops: &[usize], cluster: usize) {
        assert!(cluster < self.nclusters, "cluster out of range");
        // Producers whose (producer, consumer-cluster) set may shift: the
        // moving ops (their home cluster changes) and their flow producers
        // (a consumer moves). Epoch stamps deduplicate without sorting.
        self.touch_epoch += 1;
        let ep = self.touch_epoch;
        self.touched.clear();
        for &op in ops {
            if self.assign[op] == cluster {
                continue;
            }
            if self.touch_mark[op] != ep {
                self.touch_mark[op] = ep;
                self.touched.push(op);
            }
            for (e, p) in self
                .ddg
                .graph()
                .in_edges(gpsched_graph::NodeId::from_index(op))
            {
                if self.is_flow[e.index()] && self.touch_mark[p.index()] != ep {
                    self.touch_mark[p.index()] = ep;
                    self.touched.push(p.index());
                }
            }
        }
        if self.touched.is_empty() {
            return; // every move was a no-op
        }
        for i in 0..self.touched.len() {
            self.comm_count -= self.comm_contrib(self.touched[i]);
        }
        for &op in ops {
            let old = self.assign[op];
            if old == cluster {
                continue;
            }
            let k = self.kind_of[op] as usize;
            self.counts[old][k] -= 1;
            self.counts[cluster][k] += 1;
            for (e, p) in self
                .ddg
                .graph()
                .in_edges(gpsched_graph::NodeId::from_index(op))
            {
                if self.is_flow[e.index()] {
                    self.consumers_in[p.index() * self.nclusters + old] -= 1;
                    self.consumers_in[p.index() * self.nclusters + cluster] += 1;
                }
            }
            self.assign[op] = cluster;
        }
        for i in 0..self.touched.len() {
            self.comm_count += self.comm_contrib(self.touched[i]);
        }

        // Cut status of incident deps, refreshed once every assignment has
        // settled (edges inside the batch come up twice; the refresh is
        // idempotent). Self-loops are handled once, in the in-edge pass;
        // they are never cut.
        for &op in ops {
            let opid = gpsched_graph::NodeId::from_index(op);
            for (e, p) in self.ddg.graph().in_edges(opid) {
                self.refresh_cut(e.index(), p.index(), op);
            }
            for (e, d) in self.ddg.graph().out_edges(opid) {
                if d.index() != op {
                    self.refresh_cut(e.index(), op, d.index());
                }
            }
        }
        self.ws.resident_changed();
    }

    #[inline]
    fn refresh_cut(&mut self, e: usize, s: usize, d: usize) {
        let now = self.assign[s] != self.assign[d];
        let was = self.cut[e];
        if was != now {
            self.cut[e] = now;
            if now {
                self.cut_pos[e] = self.cut_list.len() as u32;
                self.cut_list.push(e as u32);
            } else {
                let pos = self.cut_pos[e] as usize;
                self.cut_list.swap_remove(pos);
                if let Some(&moved) = self.cut_list.get(pos) {
                    self.cut_pos[moved as usize] = pos as u32;
                }
                self.cut_pos[e] = u32::MAX;
            }
        }
        self.extra[e] = if now && self.is_flow[e] {
            if self.uniform_lat >= 0 {
                self.uniform_lat
            } else {
                self.pair_lat[self.assign[s] * self.nclusters + self.assign[d]]
            }
        } else {
            0
        };
    }

    /// Per-cluster resource MII of the current assignment (mirrors
    /// [`gpsched_ddg::mii::res_mii_clustered`], from the resident counts,
    /// including the infeasible-cluster sentinel).
    fn res_bound(&self) -> i64 {
        res_bound_of(self.machine, &self.counts)
    }

    /// The exact [`PartitionCost`] of the current assignment — bit-identical
    /// to `estimate(ddg, machine, ii_input, partition)`, but the cut metrics
    /// come from the resident state and the timing probe runs through the
    /// reusable workspace.
    pub fn cost(&mut self) -> PartitionCost {
        let ii_bus = self.interconnect_bound();
        let lower = self.ii_input.max(self.res_bound()).max(ii_bus);
        let ii = self.probe_ii(lower, &[]);
        self.assemble(ii_bus, ii)
    }

    /// First feasible II at or above `lower` with the resident extras
    /// overridden by `patch`, probing with the forward-only analysis (the
    /// slack half stays pending until [`Self::assemble`] needs it).
    fn probe_ii(&mut self, lower: i64, patch: &[(u32, i64)]) -> i64 {
        let mut ii = lower;
        loop {
            if self
                .ws
                .analyze_patched(self.ddg, ii, &self.extra, patch)
                .is_some()
            {
                return ii;
            }
            ii += 1;
        }
    }

    /// Builds the [`PartitionCost`] for the analysis [`Self::probe_ii`]
    /// left resident, running its reverse solve on demand.
    fn assemble(&mut self, ii_bus: i64, ii: i64) -> PartitionCost {
        self.ws.solve_reverse();
        let ws = &self.ws;
        let cut_slack: i64 = self.cut_list.iter().map(|&e| ws.slack_of(e as usize)).sum();
        let t = ws.last();
        PartitionCost {
            comm_count: self.comm_count,
            ii_bus,
            ii_effective: ii,
            max_path: t.max_path,
            exec_time: self.ddg.execution_time(ii, t.max_path),
            cut_slack,
            cut_size: self.cut_list.len(),
        }
    }

    /// [`CostEvaluator::cost`], but screened: returns the cost only when the
    /// current assignment is strictly [better than](PartitionCost::better_than)
    /// `than`, and skips the timing analysis whenever the cheap lower bound
    /// `(niter−1)·max(ii_input, ResMII, IIbus) + max_path_lb` already
    /// exceeds `than.exec_time` (the candidate then cannot win: its
    /// `exec_time` is at least the bound). `max_path_lb` sharpens the
    /// assignment-independent `max_path₀` with the resident cut's transfer
    /// delays: every extra charged on a distance-0 dep lengthens the paths
    /// through it, so `max_path ≥ p0[e] + extra[e]` for each such dep.
    pub fn cost_if_better(&mut self, than: &PartitionCost) -> Option<PartitionCost> {
        let ii_bus = self.interconnect_bound();
        let lower = self.ii_input.max(self.res_bound()).max(ii_bus);
        let mut max_path_lb = self.base_max_path;
        for &e in &self.screen_deps {
            let x = self.extra[e as usize];
            if x > 0 {
                max_path_lb = max_path_lb.max(self.p0[e as usize] + x);
                if self.uniform_lat >= 0 {
                    // Descending `p0` and a constant sharpening term: the
                    // first cut dep decides the maximum.
                    break;
                }
            }
        }
        if self.ddg.execution_time(lower, max_path_lb) > than.exec_time {
            self.stats.screen_rejected.add(1);
            return None;
        }
        // Forward-only probe: when the exact execution time already loses,
        // the lexicographic comparison is decided and the reverse solve
        // behind the slack tiebreak never runs.
        let ii = self.probe_ii(lower, &[]);
        if self.ddg.execution_time(ii, self.ws.last().max_path) > than.exec_time {
            self.stats.exec_rejected.add(1);
            return None;
        }
        let cost = self.assemble(ii_bus, ii);
        cost.better_than(than).then_some(cost)
    }

    /// [`Self::cost_if_better`] of a *hypothetical* assignment: the current
    /// one with the given move batches applied — evaluated entirely under
    /// an epoch-stamped overlay, without mutating the resident state.
    /// Bit-identical to apply → [`Self::cost_if_better`] → revert (the
    /// cost is a pure function of the assignment), but a rejected
    /// candidate costs one read-only pass instead of two full delta
    /// applications:
    ///
    /// * the resource bound comes from scratch per-cluster counts, and
    ///   rejects together with the path bound *before* any edge is
    ///   walked;
    /// * `NComm` swaps the boundary ops' (and their flow producers')
    ///   contributions for an overlay recount;
    /// * the timing probe and the cut-slack tiebreak read per-dep overlay
    ///   cut/extra values stamped for the deps incident to a boundary
    ///   op — every other dep resolves to the resident state.
    ///
    /// Callers that adopt the winning candidate still apply it (e.g. via
    /// [`Self::apply_many`]); the replay lands on exactly the evaluated
    /// cost. Machines with more than 64 clusters overflow the overlay
    /// masks and take a resident apply/evaluate/revert fallback instead.
    pub fn trial_moves<'m>(
        &mut self,
        moves: impl IntoIterator<Item = TrialBatch<'m>>,
        than: &PartitionCost,
    ) -> Option<PartitionCost> {
        if self.nclusters > 64 {
            return self.trial_moves_fallback(moves, than);
        }
        self.move_epoch += 1;
        let ep = self.move_epoch;
        self.touch_epoch += 1;
        let rows_ep = self.touch_epoch;
        self.counts_scratch.clone_from(&self.counts);
        self.touched.clear();
        let mut any_change = false;
        for TrialBatch {
            ops,
            boundary,
            cluster,
        } in moves
        {
            debug_assert!(cluster < self.nclusters, "cluster out of range");
            for &op in ops {
                self.move_mark[op] = ep;
                self.move_to[op] = cluster as u32;
                let old = self.assign[op];
                if old != cluster {
                    // Pre-marking each *moving* batch op exempts the
                    // interior ones (their communication provably cannot
                    // change) from the producer recount below and keeps
                    // the boundary ones from being swapped twice. A no-op
                    // member (`old == cluster`) must NOT be exempted: it
                    // never enters `touched`, so the producer walk is the
                    // only place its contribution gets re-counted when a
                    // consumer in the batch moves away from it.
                    self.touch_mark[op] = rows_ep;
                    let k = self.kind_of[op] as usize;
                    self.counts_scratch[old][k] -= 1;
                    self.counts_scratch[cluster][k] += 1;
                    any_change = true;
                }
            }
            for &op in boundary {
                if self.assign[op] != cluster {
                    self.touched.push(op);
                }
            }
        }
        if !any_change {
            // Every move was a no-op: the trial assignment is the current
            // one, which is never *strictly* better than the threshold.
            return None;
        }

        // Resource + critical-path screen, before any edge is walked: the
        // execution-time bound only tightens once the interconnect term
        // joins, so a candidate rejected here is rejected either way.
        let lower0 = self
            .ii_input
            .max(res_bound_of(self.machine, &self.counts_scratch));
        let mut max_path_lb = self.base_max_path;
        for (&e, &(s, d)) in self.screen_deps.iter().zip(&self.screen_ends) {
            let (cs, cd) = (
                self.overlay_cluster(s as usize, ep),
                self.overlay_cluster(d as usize, ep),
            );
            if cs != cd {
                let x = if self.uniform_lat >= 0 {
                    self.uniform_lat
                } else {
                    self.pair_lat[cs * self.nclusters + cd]
                };
                if x > 0 {
                    max_path_lb = max_path_lb.max(self.p0[e as usize] + x);
                    if self.uniform_lat >= 0 {
                        // Descending `p0`, constant term: decided here.
                        break;
                    }
                }
            }
        }
        if self.ddg.execution_time(lower0, max_path_lb) > than.exec_time {
            self.stats.screen_rejected.add(1);
            return None;
        }

        // Interconnect term: only the boundary ops and their flow
        // producers can change communication, so the trial `NComm` is the
        // resident count with their contributions swapped for an overlay
        // recount. `touch_mark` afterwards stamps exactly the ops whose
        // consumer table rows are stale under the overlay.
        let mut comm = self.comm_count;
        for i in 0..self.touched.len() {
            let op = self.touched[i];
            comm = comm - self.comm_contrib(op) + self.comm_contrib_overlay(op, ep);
            for (e, p) in self
                .ddg
                .graph()
                .in_edges(gpsched_graph::NodeId::from_index(op))
            {
                if self.is_flow[e.index()] && self.touch_mark[p.index()] != rows_ep {
                    self.touch_mark[p.index()] = rows_ep;
                    comm = comm - self.comm_contrib(p.index())
                        + self.comm_contrib_overlay(p.index(), ep);
                }
            }
        }
        let ii_bus = if self.net_cap > 0 {
            ((comm as i64 * self.net_occ + self.net_cap - 1) / self.net_cap).max(1)
        } else {
            self.channel_bound_overlay(ep, rows_ep)
        };
        if self.ddg.execution_time(lower0.max(ii_bus), max_path_lb) > than.exec_time {
            self.stats.screen_rejected.add(1);
            return None;
        }
        let lower = lower0.max(ii_bus);

        // Per-dep overlay for the timing probe: only deps incident to a
        // boundary op can change cut status or transfer delay (interior
        // deps keep both endpoints co-resident).
        self.dep_epoch += 1;
        let dep_ep = self.dep_epoch;
        self.deps_touched.clear();
        for i in 0..self.touched.len() {
            let op = self.touched[i];
            let id = gpsched_graph::NodeId::from_index(op);
            for (e, p) in self.ddg.graph().in_edges(id) {
                self.stamp_dep(e.index(), p.index(), op, ep, dep_ep);
            }
            for (e, d) in self.ddg.graph().out_edges(id) {
                if d.index() != op {
                    self.stamp_dep(e.index(), op, d.index(), ep, dep_ep);
                }
            }
        }

        // The stamped deps are the probe's patch over the resident extras.
        let patch = std::mem::take(&mut self.deps_touched);
        let ii = self.probe_ii(lower, &patch);
        self.deps_touched = patch;
        if self.ddg.execution_time(ii, self.ws.last().max_path) > than.exec_time {
            self.stats.exec_rejected.add(1);
            return None;
        }
        let cost = self.assemble_overlay(ii_bus, ii, comm, dep_ep);
        cost.better_than(than).then_some(cost)
    }

    /// Stamps dep `e` (endpoints `s → d`) into the trial overlay with its
    /// cut status and transfer delay under move epoch `ep`, once per trial
    /// (`dep_mark` deduplicates deps seen from both endpoints).
    fn stamp_dep(&mut self, e: usize, s: usize, d: usize, ep: u64, dep_ep: u64) {
        if self.dep_mark[e] == dep_ep {
            return;
        }
        self.dep_mark[e] = dep_ep;
        let (cs, cd) = (self.overlay_cluster(s, ep), self.overlay_cluster(d, ep));
        let now = cs != cd;
        self.dep_cut[e] = now;
        let extra = if now && self.is_flow[e] {
            if self.uniform_lat >= 0 {
                self.uniform_lat
            } else {
                self.pair_lat[cs * self.nclusters + cd]
            }
        } else {
            0
        };
        self.deps_touched.push((e as u32, extra));
    }

    /// [`Self::channel_bound_general`] under the trial overlay: producers
    /// whose consumer rows are stale (`touch_mark == rows_ep`) are
    /// recounted from their flow out-edges; everyone else books straight
    /// from the resident consumer table.
    #[cold]
    fn channel_bound_overlay(&mut self, ep: u64, rows_ep: u64) -> i64 {
        gpsched_trace::counter!("partition.evaluator_rebuilds");
        self.chan.clear();
        for p in 0..self.ddg.op_count() {
            if self.touch_mark[p] == rows_ep {
                let home = self.overlay_cluster(p, ep);
                let mut mask: u64 = 0;
                for (e, d) in self
                    .ddg
                    .graph()
                    .out_edges(gpsched_graph::NodeId::from_index(p))
                {
                    if self.is_flow[e.index()] {
                        let c = self.overlay_cluster(d.index(), ep);
                        if c != home {
                            mask |= 1 << c;
                        }
                    }
                }
                while mask != 0 {
                    let c = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    self.chan.add_pair(home, c);
                }
            } else {
                let home = self.assign[p];
                for c in 0..self.nclusters {
                    if c != home && self.consumers_in[p * self.nclusters + c] > 0 {
                        self.chan.add_pair(home, c);
                    }
                }
            }
        }
        self.chan.bound()
    }

    /// [`Self::assemble`] for a trial: the resident cut list drives the
    /// slack sum, then the stamped deps whose overlay cut status differs
    /// fix up the slack and the cut size.
    fn assemble_overlay(
        &mut self,
        ii_bus: i64,
        ii: i64,
        comm: usize,
        dep_ep: u64,
    ) -> PartitionCost {
        self.ws.solve_reverse();
        let ws = &self.ws;
        let mut cut_slack: i64 = self.cut_list.iter().map(|&e| ws.slack_of(e as usize)).sum();
        let mut cut_size = self.cut_list.len();
        for &(e, _) in &self.deps_touched {
            let e = e as usize;
            debug_assert_eq!(self.dep_mark[e], dep_ep);
            let (was, now) = (self.cut[e], self.dep_cut[e]);
            if was != now {
                if now {
                    cut_slack += ws.slack_of(e);
                    cut_size += 1;
                } else {
                    cut_slack -= ws.slack_of(e);
                    cut_size -= 1;
                }
            }
        }
        let t = ws.last();
        PartitionCost {
            comm_count: comm,
            ii_bus,
            ii_effective: ii,
            max_path: t.max_path,
            exec_time: self.ddg.execution_time(ii, t.max_path),
            cut_slack,
            cut_size,
        }
    }

    /// Resident-state fallback for [`Self::trial_moves`] on machines whose
    /// cluster count overflows the u64 overlay masks: apply the batches,
    /// evaluate, revert. Same result, not overlay-cheap.
    #[cold]
    fn trial_moves_fallback<'m>(
        &mut self,
        moves: impl IntoIterator<Item = TrialBatch<'m>>,
        than: &PartitionCost,
    ) -> Option<PartitionCost> {
        let mut saved: Vec<(usize, usize)> = Vec::new();
        for TrialBatch { ops, cluster, .. } in moves {
            for &op in ops {
                saved.push((op, self.assign[op]));
            }
            self.apply_many(ops, cluster);
        }
        let cost = self.cost_if_better(than);
        // Reverse order restores ops moved by multiple batches exactly.
        for &(op, old) in saved.iter().rev() {
            self.apply(op, old);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate;
    use crate::partition::Partition;
    use gpsched_ddg::DdgBuilder;
    use gpsched_machine::OpClass;

    fn chain_ddg() -> Ddg {
        let mut b = DdgBuilder::new("t");
        let x = b.op(OpClass::Load, "x");
        let y = b.op(OpClass::FpMul, "y");
        let z = b.op(OpClass::FpAdd, "z");
        let w = b.op(OpClass::Store, "w");
        b.flow(x, y);
        b.flow(y, z);
        b.flow(z, w);
        b.flow_carried(z, y, 1);
        b.mem(w, x, 1);
        b.trip_count(100);
        b.build().unwrap()
    }

    #[test]
    fn matches_estimate_on_fixed_assignments() {
        let ddg = chain_ddg();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let mut ev = CostEvaluator::new(&ddg, &m);
        for assign in [
            vec![0, 0, 0, 0],
            vec![0, 1, 1, 0],
            vec![1, 0, 1, 0],
            vec![0, 0, 1, 1],
        ] {
            ev.reset(1, &assign);
            let p = Partition::new(assign.clone(), 2);
            assert_eq!(ev.cost(), estimate(&ddg, &m, 1, &p), "{assign:?}");
        }
    }

    #[test]
    fn moves_track_estimate_exactly() {
        let ddg = chain_ddg();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let mut ev = CostEvaluator::new(&ddg, &m);
        let mut assign = vec![0usize, 0, 0, 0];
        ev.reset(2, &assign);
        for (op, c) in [(1, 1), (2, 1), (1, 0), (3, 1), (1, 1), (2, 0)] {
            ev.apply(op, c);
            assign[op] = c;
            let p = Partition::new(assign.clone(), 2);
            assert_eq!(ev.cost(), estimate(&ddg, &m, 2, &p), "after {op}->{c}");
        }
    }

    #[test]
    fn move_and_inverse_restore_state() {
        let ddg = chain_ddg();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let mut ev = CostEvaluator::new(&ddg, &m);
        ev.reset(1, &[0, 1, 0, 1]);
        let before = ev.cost();
        ev.apply(2, 1);
        ev.apply(2, 0);
        assert_eq!(ev.cost(), before);
        assert_eq!(ev.assignment(), &[0, 1, 0, 1]);
    }

    #[test]
    fn screen_rejects_hopeless_candidates_cheaply() {
        let ddg = chain_ddg();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let mut ev = CostEvaluator::new(&ddg, &m);
        ev.reset(1, &[0, 0, 0, 0]);
        let together = ev.cost();
        // Cutting the recurrence is strictly worse: screened or fully
        // evaluated, the answer must be "not better".
        ev.apply(2, 1);
        assert!(ev.cost_if_better(&together).is_none());
        assert!(!ev.cost().better_than(&together));
    }

    #[test]
    fn cost_if_better_returns_improvements() {
        let ddg = chain_ddg();
        let m = MachineConfig::two_cluster(32, 1, 1);
        let mut ev = CostEvaluator::new(&ddg, &m);
        ev.reset(1, &[0, 1, 1, 1]);
        let split = ev.cost();
        ev.apply(0, 1);
        let better = ev.cost_if_better(&split).expect("healing the cut wins");
        assert!(better.better_than(&split));
        assert_eq!(better, ev.cost());
    }

    #[test]
    #[should_panic(expected = "partition/ddg mismatch")]
    fn reset_rejects_wrong_length() {
        let ddg = chain_ddg();
        let m = MachineConfig::two_cluster(32, 1, 1);
        CostEvaluator::new(&ddg, &m).reset(1, &[0, 1]);
    }
}
