//! Positive-cycle detection in modulo-scheduling constraint graphs.
//!
//! For a candidate initiation interval `II`, every dependence edge
//! `u → v` with latency `lat` and iteration distance `dist` induces the
//! constraint `t(v) ≥ t(u) + lat − II·dist`. An II is *recurrence-feasible*
//! iff the constraint graph with edge weight `lat − II·dist` has no positive
//! cycle. `RecMII` is the smallest feasible II; the DDG crate finds it by
//! binary search over this predicate.

use crate::NodeBitSet;

/// A constraint edge `(src, dst, weight)` over dense node indices.
pub type ConstraintEdge = (usize, usize, i64);

/// Returns `true` if the directed graph given by `edges` over `n` nodes
/// contains a cycle of strictly positive total weight.
///
/// Runs Bellman–Ford in longest-path mode from a virtual super-source: after
/// `n` rounds any still-relaxable edge proves a positive cycle. `O(n·m)`.
///
/// # Example
///
/// ```
/// use gpsched_graph::feasibility::has_positive_cycle;
///
/// // Cycle a→b→a with weights 2 and −1: total +1 → positive cycle.
/// assert!(has_positive_cycle(2, &[(0, 1, 2), (1, 0, -1)]));
/// // Total 0 → fine.
/// assert!(!has_positive_cycle(2, &[(0, 1, 1), (1, 0, -1)]));
/// ```
pub fn has_positive_cycle(n: usize, edges: &[ConstraintEdge]) -> bool {
    longest_from_all_sources(n, edges).is_none()
}

/// Longest distances from a virtual source connected to every node with a
/// 0-weight edge, or `None` if a positive cycle exists.
///
/// The result is the least vector `d` with `d[v] ≥ 0` and
/// `d[v] ≥ d[u] + w` for every edge — i.e., valid earliest start times for
/// the modulo constraint system.
pub fn longest_from_all_sources(n: usize, edges: &[ConstraintEdge]) -> Option<Vec<i64>> {
    let mut dist = Vec::new();
    longest_from_all_sources_into(n, edges, &mut dist).then_some(dist)
}

/// Allocation-free variant of [`longest_from_all_sources`]: fills `dist`
/// (cleared and resized to `n`) in place and returns `false` when a positive
/// cycle exists. Hot paths reuse `dist` across calls so the steady state
/// allocates nothing.
pub fn longest_from_all_sources_into(
    n: usize,
    edges: &[ConstraintEdge],
    dist: &mut Vec<i64>,
) -> bool {
    dist.clear();
    dist.resize(n, 0);
    // Bellman-Ford: at most n-1 relaxation rounds, plus one to detect cycles.
    // Work is tallied in locals and flushed through one gated trace call at
    // the end — the relaxation loop itself stays free of atomics.
    let mut rounds = 0u64;
    let mut relaxations = 0u64;
    let mut feasible = true;
    for round in 0..=n {
        rounds += 1;
        let mut changed = false;
        for &(u, v, w) in edges {
            let cand = dist[u] + w;
            if cand > dist[v] {
                dist[v] = cand;
                relaxations += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if round == n {
            feasible = false;
            break;
        }
    }
    gpsched_trace::counter!("graph.bf.runs");
    gpsched_trace::counter!("graph.bf.rounds", rounds);
    gpsched_trace::counter!("graph.bf.edges_scanned", rounds * edges.len() as u64);
    gpsched_trace::counter!("graph.bf.relaxations", relaxations);
    feasible
}

/// Finds the smallest `ii ≥ lower` such that
/// `has_positive_cycle(n, edges(ii)) == false`, where `edges(ii)` assigns
/// weight `lat − ii·dist` to each `(src, dst, lat, dist)` tuple.
///
/// `upper` bounds the search; returns `None` if even `upper` is infeasible
/// (which cannot happen if `upper ≥ Σ lat` and every cycle has positive
/// total distance — i.e., the distance-0 subgraph is acyclic).
///
/// Callers probing many II values over the same graph should build a
/// [`BfKernel`] once and use [`BfKernel::min_feasible_ii`] directly; this
/// free function is the one-shot convenience wrapper.
pub fn min_feasible_ii(
    n: usize,
    deps: &[(usize, usize, i64, i64)],
    lower: i64,
    upper: i64,
) -> Option<i64> {
    BfKernel::build(n, deps).min_feasible_ii(lower, upper, None)
}

/// A prepared longest-path / positive-cycle kernel over a fixed constraint
/// graph, reusable across II probes.
///
/// [`longest_from_all_sources_into`] rebuilds nothing but scans *every* edge
/// every round; profiles show most rounds touch only a shrinking frontier
/// around recurrence back-edges. This kernel prepares, once per graph:
///
/// * a **CSR layout grouped by source node**, sources ordered by their
///   distance-0 topological level (Kahn layers), so one in-order sweep
///   propagates an entire distance-0 chain in a single pass;
/// * per-edge `(latency, distance)` kept separately, so the weight
///   `lat + extra − II·dist` is computed on the fly — **probing a new II
///   rescales nothing and rebuilds nothing**;
/// * a [`NodeBitSet`]-backed **active worklist indexed by level rank**:
///   a pass scans only words with active bits (64 nodes skipped per zero
///   word), relaxations forward of the scan cursor cascade *within* the
///   same pass, and only backward (recurrence) marks cost another pass.
///
/// The relaxation fixed point is order-independent, so `solve` returns
/// distances element-identical to the naive sweep (property-tested); only
/// the work needed to reach the fixed point changes.
///
/// # Example
///
/// ```
/// use gpsched_graph::feasibility::BfKernel;
///
/// // a →(lat 3, dist 0) b →(lat 1, dist 1) a: RecMII 4.
/// let deps = [(0, 1, 3, 0), (1, 0, 1, 1)];
/// let mut k = BfKernel::build(2, &deps);
/// assert_eq!(k.min_feasible_ii(1, 100, None), Some(4));
/// let mut dist = Vec::new();
/// assert!(k.solve(4, &mut dist));
/// assert_eq!(dist, vec![0, 3]);
/// assert!(!k.solve(3, &mut dist)); // positive cycle below RecMII
/// ```
#[derive(Clone, Debug, Default)]
pub struct BfKernel {
    n: usize,
    /// Level rank → node index (distance-0 Kahn order; nodes on distance-0
    /// cycles — impossible for validated DDGs, allowed for raw graphs —
    /// are appended in index order; ordering is a convergence hint only).
    order: Vec<u32>,
    /// CSR row starts indexed by *source level rank*, length `n + 1`.
    row: Vec<u32>,
    /// CSR edge records grouped by source rank.
    edges: Vec<KernelEdge>,
    /// Per CSR edge: the input dep index it came from.
    dep: Vec<u32>,
    /// Input dep index → CSR edge position (for per-dep base updates).
    pos: Vec<u32>,
    /// Rank-indexed worklist of the current pass.
    active: NodeBitSet,
    /// Rank-indexed worklist of the next pass (backward marks only).
    next: NodeBitSet,
    /// Scratch distances for probe-style calls ([`Self::feasible`]).
    scratch: Vec<i64>,
    /// Batched work tallies, flushed to the `graph.bf.*` counters when the
    /// kernel drops. [`Self::solve`] runs tens of thousands of times per
    /// scheduling pass; per-run atomic increments were a measurable share
    /// of enabled-tracing overhead.
    stats: BfStats,
}

/// Batched `graph.bf.*` tallies (see [`gpsched_trace::BatchCounter`]:
/// clones start at zero, drop flushes).
#[derive(Clone, Debug)]
struct BfStats {
    runs: gpsched_trace::BatchCounter,
    rounds: gpsched_trace::BatchCounter,
    edges_scanned: gpsched_trace::BatchCounter,
    relaxations: gpsched_trace::BatchCounter,
}

impl Default for BfStats {
    fn default() -> Self {
        BfStats {
            runs: gpsched_trace::BatchCounter::new("graph.bf.runs"),
            rounds: gpsched_trace::BatchCounter::new("graph.bf.rounds"),
            edges_scanned: gpsched_trace::BatchCounter::new("graph.bf.edges_scanned"),
            relaxations: gpsched_trace::BatchCounter::new("graph.bf.relaxations"),
        }
    }
}

/// The work one [`BfKernel::solve`] did: passes, edges scanned and
/// successful relaxations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct BfWork {
    rounds: u64,
    scanned: u64,
    relaxations: u64,
}

/// One CSR edge of a [`BfKernel`], kept as a record so the hot relaxation
/// loop touches one contiguous 32-byte stride per edge.
#[derive(Clone, Copy, Debug, Default)]
struct KernelEdge {
    /// Destination node index (distance array slot).
    dst: u32,
    /// Destination level rank (worklist marking).
    dst_rank: u32,
    /// Current weight base (`lat + extra`); the II term is applied on the
    /// fly in [`BfKernel::solve`].
    base: i64,
    /// Iteration distance.
    dist: i64,
    /// Immutable base latency from `build` (what `base` resets to).
    lat: i64,
}

impl BfKernel {
    /// Prepares the kernel for the graph given by `(src, dst, lat, dist)`
    /// tuples over `n` nodes. Edge weights start at `lat` (no extra delay).
    pub fn build(n: usize, deps: &[(usize, usize, i64, i64)]) -> Self {
        let m = deps.len();
        // Kahn's algorithm on the distance-0 subgraph; the growing `order`
        // vector doubles as the work queue, so the result is level order.
        let mut indeg = vec![0u32; n];
        let mut out0_row = vec![0u32; n + 1];
        for &(s, d, _, dist) in deps {
            if dist == 0 {
                indeg[d] += 1;
                out0_row[s + 1] += 1;
            }
        }
        for i in 0..n {
            out0_row[i + 1] += out0_row[i];
        }
        let m0 = out0_row[n] as usize;
        let mut out0 = vec![0u32; m0];
        let mut cursor: Vec<u32> = out0_row[..n].to_vec();
        for &(s, d, _, dist) in deps {
            if dist == 0 {
                out0[cursor[s] as usize] = d as u32;
                cursor[s] += 1;
            }
        }
        let mut order: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let u = order[head] as usize;
            head += 1;
            for &succ in &out0[out0_row[u] as usize..out0_row[u + 1] as usize] {
                let v = succ as usize;
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    order.push(v as u32);
                }
            }
        }
        if order.len() < n {
            // Distance-0 cycles: no topological order exists for the rest;
            // append them in index order (correctness never depends on the
            // order, and such a graph is infeasible at every II anyway).
            let mut placed = vec![false; n];
            for &v in &order {
                placed[v as usize] = true;
            }
            order.extend((0..n as u32).filter(|&v| !placed[v as usize]));
        }
        let mut rank = vec![0u32; n];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i as u32;
        }

        // CSR grouped by source rank (counting sort; stable within a source).
        let mut row = vec![0u32; n + 1];
        for &(s, _, _, _) in deps {
            row[rank[s] as usize + 1] += 1;
        }
        for i in 0..n {
            row[i + 1] += row[i];
        }
        let mut cursor: Vec<u32> = row[..n].to_vec();
        let mut edges = vec![KernelEdge::default(); m];
        let (mut dep, mut pos) = (vec![0u32; m], vec![0u32; m]);
        for (k, &(s, d, l, dist)) in deps.iter().enumerate() {
            let r = rank[s] as usize;
            let i = cursor[r] as usize;
            cursor[r] += 1;
            edges[i] = KernelEdge {
                dst: d as u32,
                dst_rank: rank[d],
                base: l,
                dist,
                lat: l,
            };
            dep[i] = k as u32;
            pos[k] = i as u32;
        }
        BfKernel {
            n,
            order,
            row,
            edges,
            dep,
            pos,
            active: NodeBitSet::new(n),
            next: NodeBitSet::new(n),
            scratch: Vec::new(),
            stats: BfStats::default(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Sets every edge's weight base back to `lat + extra(dep)`, where
    /// `dep` is the edge's index in the `deps` slice passed to `build`.
    /// One linear sweep in CSR order; pass `|_| 0` to reset.
    pub fn apply_extras(&mut self, mut extra: impl FnMut(usize) -> i64) {
        for (e, &k) in self.edges.iter_mut().zip(&self.dep) {
            e.base = e.lat + extra(k as usize);
        }
    }

    /// Adds `delta` to the weight base of input dep `k`. The cheap path for
    /// "probe with one edge delayed, then restore" callers: bump by `+d`,
    /// probe, bump by `−d`.
    pub fn add_extra(&mut self, k: usize, delta: i64) {
        self.edges[self.pos[k] as usize].base += delta;
    }

    /// `true` if the graph has no positive cycle at initiation interval
    /// `ii` (distances go to an internal scratch buffer).
    pub fn feasible(&mut self, ii: i64) -> bool {
        let mut scratch = std::mem::take(&mut self.scratch);
        let ok = self.solve(ii, &mut scratch);
        self.scratch = scratch;
        ok
    }

    /// Longest distances from the all-sources virtual root at initiation
    /// interval `ii` (edge weight `base − ii·dist`), filled into `dist`
    /// (cleared and resized to `n`) — element-identical to
    /// [`longest_from_all_sources_into`] over the same weighted edges.
    /// Returns `false` when a positive cycle exists.
    pub fn solve(&mut self, ii: i64, dist: &mut Vec<i64>) -> bool {
        let (feasible, work) = self.solve_counted(ii, dist);
        self.stats.runs.add(1);
        self.stats.rounds.add(work.rounds);
        self.stats.edges_scanned.add(work.scanned);
        self.stats.relaxations.add(work.relaxations);
        feasible
    }

    /// [`Self::solve`] without the stats flush: the feasibility verdict
    /// plus the work this solve did.
    fn solve_counted(&mut self, ii: i64, dist: &mut Vec<i64>) -> (bool, BfWork) {
        let n = self.n;
        dist.clear();
        dist.resize(n, 0);
        let mut rounds = 0u64;
        let mut scanned = 0u64;
        let mut relaxations = 0u64;
        let mut feasible = true;
        if n > 0 && !self.edges.is_empty() {
            // A positive-cycle exit leaves pending marks in `active`; both
            // worklists start empty so no solve rescans another's nodes.
            self.active.clear();
            self.next.clear();
            // Pass 0 is dense: every node starts live, so bit tracking
            // would only add overhead. Sweeping sources in level-rank order
            // lets forward improvements cascade within this single pass;
            // only improvements at or behind the sweep cursor — recurrence
            // back-edges — seed the sparse worklist.
            rounds += 1;
            scanned += self.edges.len() as u64;
            let mut have_backward = false;
            for r in 0..n {
                let u = self.order[r] as usize;
                let du = dist[u];
                let (s, e) = (self.row[r] as usize, self.row[r + 1] as usize);
                for edge in &self.edges[s..e] {
                    let cand = du + edge.base - ii * edge.dist;
                    let v = edge.dst as usize;
                    if cand > dist[v] {
                        dist[v] = cand;
                        relaxations += 1;
                        let rv = edge.dst_rank as usize;
                        if rv <= r {
                            self.next.words_mut()[rv / 64] |= 1u64 << (rv % 64);
                            have_backward = true;
                        }
                    }
                }
            }
            // Sparse passes drain the worklist in ascending rank order: an
            // improvement *forward* of the scan cursor is re-marked into
            // `active` and absorbed by the same pass (the cursor only moves
            // forward, so in-pass work terminates), while a backward mark
            // goes to `next`. Each pass dominates one classic relaxation
            // round, so the classic bound holds: a graph with no positive
            // cycle quiesces within `n` further passes, and a still
            // non-empty worklist after that proves a positive cycle.
            if have_backward {
                std::mem::swap(&mut self.active, &mut self.next);
                for pass in 1..=n + 1 {
                    rounds += 1;
                    let nwords = self.active.words().len();
                    for wi in 0..nwords {
                        loop {
                            let word = self.active.words()[wi];
                            if word == 0 {
                                break;
                            }
                            self.active.words_mut()[wi] = 0;
                            let mut bits = word;
                            while bits != 0 {
                                let b = bits.trailing_zeros() as usize;
                                bits &= bits - 1;
                                let r = wi * 64 + b;
                                let u = self.order[r] as usize;
                                let du = dist[u];
                                let (s, e) = (self.row[r] as usize, self.row[r + 1] as usize);
                                scanned += (e - s) as u64;
                                for edge in &self.edges[s..e] {
                                    let cand = du + edge.base - ii * edge.dist;
                                    let v = edge.dst as usize;
                                    if cand > dist[v] {
                                        dist[v] = cand;
                                        relaxations += 1;
                                        let rv = edge.dst_rank as usize;
                                        if rv > r {
                                            self.active.words_mut()[rv / 64] |= 1u64 << (rv % 64);
                                        } else {
                                            self.next.words_mut()[rv / 64] |= 1u64 << (rv % 64);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    // The pass drained `active`; the backward marks in
                    // `next` are the next pass's worklist.
                    std::mem::swap(&mut self.active, &mut self.next);
                    if self.active.is_empty() {
                        break;
                    }
                    if pass == n + 1 {
                        feasible = false;
                        break;
                    }
                }
            }
        }
        let work = BfWork {
            rounds,
            scanned,
            relaxations,
        };
        (feasible, work)
    }

    /// Kernel-backed [`min_feasible_ii`]: smallest feasible `ii` in
    /// `[lower, upper]`, or `None`. Requires feasibility monotone in `ii`
    /// (all iteration distances ≥ 0, as in modulo constraint graphs).
    ///
    /// `hint` seeds the binary search — pass the previous related query's
    /// answer (e.g. the preceding edge's delayed RecMII) and the search
    /// brackets it instead of bisecting the whole range from scratch.
    pub fn min_feasible_ii(&mut self, lower: i64, upper: i64, hint: Option<i64>) -> Option<i64> {
        if lower > upper {
            return None;
        }
        if self.feasible(lower) {
            return Some(lower);
        }
        // Invariant from here: lo infeasible, hi feasible.
        let (mut lo, mut hi);
        match hint.filter(|&h| h > lower && h < upper) {
            Some(h) => {
                if self.feasible(h) {
                    (lo, hi) = (lower, h);
                } else if self.feasible(upper) {
                    (lo, hi) = (h, upper);
                } else {
                    return None;
                }
            }
            None => {
                if !self.feasible(upper) {
                    return None;
                }
                (lo, hi) = (lower, upper);
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_cycle() {
        assert!(!has_positive_cycle(0, &[]));
        assert!(!has_positive_cycle(3, &[]));
    }

    #[test]
    fn zero_weight_cycle_is_fine() {
        assert!(!has_positive_cycle(3, &[(0, 1, 5), (1, 2, -2), (2, 0, -3)]));
    }

    #[test]
    fn positive_self_loop() {
        assert!(has_positive_cycle(1, &[(0, 0, 1)]));
        assert!(!has_positive_cycle(1, &[(0, 0, 0)]));
        assert!(!has_positive_cycle(1, &[(0, 0, -2)]));
    }

    #[test]
    fn distances_satisfy_constraints() {
        let edges = [(0, 1, 3), (1, 2, 2), (0, 2, 4)];
        let d = longest_from_all_sources(3, &edges).unwrap();
        for &(u, v, w) in &edges {
            assert!(d[v] >= d[u] + w);
        }
        assert_eq!(d, vec![0, 3, 5]);
    }

    #[test]
    fn min_feasible_ii_simple_recurrence() {
        // a → b (lat 3, dist 0); b → a (lat 1, dist 1).
        // Cycle latency 4, distance 1 → RecMII = 4.
        let deps = [(0, 1, 3, 0), (1, 0, 1, 1)];
        assert_eq!(min_feasible_ii(2, &deps, 1, 100), Some(4));
    }

    #[test]
    fn min_feasible_ii_respects_lower_bound() {
        let deps = [(0, 1, 3, 0), (1, 0, 1, 1)];
        assert_eq!(min_feasible_ii(2, &deps, 7, 100), Some(7));
    }

    #[test]
    fn min_feasible_ii_multiple_recurrences_takes_worst() {
        // Cycle A: lat 6 over dist 2 → needs II ≥ 3.
        // Cycle B: lat 5 over dist 1 → needs II ≥ 5.
        let deps = [(0, 1, 3, 0), (1, 0, 3, 2), (2, 3, 4, 0), (3, 2, 1, 1)];
        assert_eq!(min_feasible_ii(4, &deps, 1, 100), Some(5));
    }

    #[test]
    fn min_feasible_ii_infeasible_when_distance_zero_cycle() {
        // A distance-0 cycle can never be scheduled at any II.
        let deps = [(0, 1, 1, 0), (1, 0, 1, 0)];
        assert_eq!(min_feasible_ii(2, &deps, 1, 64), None);
    }

    #[test]
    fn acyclic_graph_feasible_at_lower() {
        let deps = [(0, 1, 9, 0), (1, 2, 9, 0)];
        assert_eq!(min_feasible_ii(3, &deps, 1, 64), Some(1));
    }

    /// Tiny deterministic xorshift for the property tests (no external
    /// crates in this workspace).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// Random constraint graph over `n` nodes. Distance-0 edges only go
    /// forward (so the dist-0 subgraph is a DAG, like a validated DDG);
    /// carried edges go anywhere. With `broken`, a backward distance-0
    /// edge may appear — a graph no II can schedule.
    fn random_deps(rng: &mut Rng, n: usize, broken: bool) -> Vec<(usize, usize, i64, i64)> {
        let m = rng.below(4 * n as u64) as usize;
        let mut deps = Vec::with_capacity(m);
        for _ in 0..m {
            let lat = rng.below(8) as i64;
            let (u, v) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
            match rng.below(if broken { 3 } else { 2 }) {
                0 if u != v => {
                    // Forward distance-0 edge.
                    deps.push((u.min(v), u.max(v), lat, 0));
                }
                1 => {
                    deps.push((u, v, lat, 1 + rng.below(3) as i64));
                }
                _ => {
                    // Arbitrary distance-0 edge: may close a dist-0 cycle.
                    deps.push((u, v, lat.max(1), 0));
                }
            }
        }
        deps
    }

    fn naive_solve(n: usize, deps: &[(usize, usize, i64, i64)], ii: i64) -> Option<Vec<i64>> {
        let edges: Vec<ConstraintEdge> = deps
            .iter()
            .map(|&(u, v, lat, dist)| (u, v, lat - ii * dist))
            .collect();
        longest_from_all_sources(n, &edges)
    }

    #[test]
    fn kernel_matches_naive_on_random_graphs() {
        let mut rng = Rng(0x9e3779b97f4a7c15);
        for case in 0..300 {
            let n = 1 + rng.below(40) as usize;
            let broken = case % 5 == 4;
            let deps = random_deps(&mut rng, n, broken);
            let mut kernel = BfKernel::build(n, &deps);
            let mut dist = Vec::new();
            // Random II sequence, including values below RecMII (positive
            // cycle probes) and repeats — the warm-start path.
            for _ in 0..6 {
                let ii = 1 + rng.below(12) as i64;
                let expect = naive_solve(n, &deps, ii);
                let got = kernel.solve(ii, &mut dist).then(|| dist.clone());
                assert_eq!(
                    expect, got,
                    "case {case}: n={n} ii={ii} deps={deps:?} disagree"
                );
            }
        }
    }

    #[test]
    fn kernel_min_feasible_ii_matches_free_function_with_any_hint() {
        let mut rng = Rng(0xdeadbeefcafef00d);
        for case in 0..200 {
            let n = 1 + rng.below(24) as usize;
            let deps = random_deps(&mut rng, n, case % 7 == 6);
            let upper: i64 = deps.iter().map(|d| d.2.max(0)).sum::<i64>().max(1);
            let lower = 1 + rng.below(3) as i64;
            let expect = min_feasible_ii(n, &deps, lower, upper);
            let mut kernel = BfKernel::build(n, &deps);
            for hint in [None, Some(lower), Some(upper), Some((lower + upper) / 2)] {
                assert_eq!(
                    kernel.min_feasible_ii(lower, upper, hint),
                    expect,
                    "case {case}: hint {hint:?} changes the answer"
                );
            }
        }
    }

    #[test]
    fn kernel_extras_shift_weights() {
        // a →(lat 3) b, b →(lat 1, dist 1) a: RecMII 4; delaying the
        // forward edge by 2 pushes it to 6.
        let deps = [(0, 1, 3, 0), (1, 0, 1, 1)];
        let mut k = BfKernel::build(2, &deps);
        assert_eq!(k.min_feasible_ii(1, 100, None), Some(4));
        k.add_extra(0, 2);
        assert_eq!(k.min_feasible_ii(1, 100, Some(4)), Some(6));
        k.add_extra(0, -2);
        assert_eq!(k.min_feasible_ii(1, 100, Some(6)), Some(4));
        k.apply_extras(|d| if d == 0 { 1 } else { 0 });
        assert_eq!(k.min_feasible_ii(1, 100, None), Some(5));
        k.apply_extras(|_| 0);
        assert_eq!(k.min_feasible_ii(1, 100, None), Some(4));
    }

    #[test]
    fn kernel_handles_distance_zero_cycle() {
        // Positive-weight dist-0 cycle: infeasible at every II, and Kahn
        // leaves both nodes unordered — the fallback path.
        let deps = [(0, 1, 1, 0), (1, 0, 1, 0)];
        let mut k = BfKernel::build(2, &deps);
        assert!(!k.feasible(1));
        assert!(!k.feasible(1000));
        assert_eq!(k.min_feasible_ii(1, 64, Some(32)), None);
    }

    #[test]
    fn kernel_empty_and_edgeless() {
        let mut k = BfKernel::build(0, &[]);
        let mut dist = Vec::new();
        assert!(k.solve(1, &mut dist));
        assert!(dist.is_empty());
        let mut k = BfKernel::build(3, &[]);
        assert!(k.solve(1, &mut dist));
        assert_eq!(dist, vec![0, 0, 0]);
    }

    #[test]
    fn infeasible_solve_leaves_no_work_behind() {
        // A recurrence (RecMII 4) whose positive cycle at II 2 leaves
        // marks pending, plus an acyclic carried edge 3 → 2 that goes
        // backward in level order and still relaxes at II 4, so the
        // feasible solve runs sparse passes that would pick stale marks up.
        let deps = [(0, 1, 3, 0), (1, 0, 1, 1), (3, 2, 6, 1)];
        let mut dist = Vec::new();
        let mut fresh = BfKernel::build(4, &deps);
        let (ok, expect) = fresh.solve_counted(4, &mut dist);
        assert!(ok);
        assert!(
            expect.rounds > 1,
            "the feasible solve must run a sparse pass"
        );
        let fresh_dist = dist.clone();
        let mut reused = BfKernel::build(4, &deps);
        assert!(!reused.solve_counted(2, &mut dist).0);
        let (ok, work) = reused.solve_counted(4, &mut dist);
        assert!(ok);
        assert_eq!(dist, fresh_dist);
        assert_eq!(work, expect, "stale worklist bits were rescanned");
    }

    #[test]
    fn kernel_positive_self_loop() {
        let mut k = BfKernel::build(1, &[(0, 0, 1, 0)]);
        assert!(!k.feasible(5));
        let mut k = BfKernel::build(1, &[(0, 0, 3, 1)]);
        assert!(!k.feasible(2));
        assert!(k.feasible(3));
    }
}
