//! Exact maximum-weight matching via the blossom algorithm.
//!
//! This is a faithful port of Joris van Rantwijk's reference implementation
//! of Galil's O(V³) primal–dual method ("Efficient algorithms for finding
//! maximum matching in graphs", ACM Computing Surveys, 1986). The paper used
//! LEDA's exact maximum-weight matching for coarsening; this module plays
//! that role.
//!
//! Weights are doubled internally so that all dual variables stay integral
//! (`delta3 = slack/2` would otherwise be half-integral).

use super::{Matching, WeightedEdge};

const NONE: isize = -1;

/// Computes an exact maximum-weight matching of the given edges over `n`
/// vertices.
///
/// Self-loops and edges with non-positive weight are ignored (a maximum
/// *weight* matching never uses them). Parallel edges are allowed; only the
/// heaviest parallel edge can matter.
///
/// If `max_cardinality` is `true`, the matching is additionally constrained
/// to have maximum cardinality among all matchings (the paper's coarsening
/// wants maximum weight only, so it passes `false`).
///
/// # Example
///
/// ```
/// use gpsched_graph::matching::maximum_weight_matching;
///
/// // 0 -5- 1 -6- 2 -5- 3 : optimum pairs the outer edges (weight 10).
/// let m = maximum_weight_matching(4, &[(0, 1, 5), (1, 2, 6), (2, 3, 5)], false);
/// assert_eq!(m.mate(0), Some(1));
/// assert_eq!(m.mate(2), Some(3));
/// ```
pub fn maximum_weight_matching(
    n: usize,
    edges: &[WeightedEdge],
    max_cardinality: bool,
) -> Matching {
    let mut m = Matcher::new();
    m.solve(n, edges, max_cardinality);
    Matching::from_mates((0..n).map(|v| m.mate(v)).collect())
}

/// A reusable exact maximum-weight matcher: the state behind
/// [`maximum_weight_matching`], kept between calls. [`Matcher::solve`]
/// resets its buffers rather than allocating new ones, so a caller that
/// matches many small graphs — the partitioner, once per coarsening
/// level — pays for them once.
///
/// # Example
///
/// ```
/// use gpsched_graph::matching::Matcher;
///
/// let mut m = Matcher::new();
/// m.solve(4, &[(0, 1, 5), (1, 2, 6), (2, 3, 5)], false);
/// assert_eq!(m.mate(0), Some(1));
/// m.solve(3, &[(0, 1, 6), (1, 2, 5), (0, 2, 4)], false);
/// assert_eq!(m.mate(2), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Matcher {
    nvertex: usize,
    edges: Vec<WeightedEdge>,
    max_cardinality: bool,
    /// `endpoint[p]` = vertex at endpoint `p` (edge `p/2`, side `p%2`).
    endpoint: Vec<usize>,
    /// CSR over vertices: `neighbend[neighbend_row[v]..neighbend_row[v + 1]]`
    /// are the endpoints `p` such that `endpoint[p]` is the *remote* end of
    /// an edge incident to `v`, in edge order.
    neighbend_row: Vec<usize>,
    neighbend: Vec<usize>,
    /// Scratch fill cursors for building `neighbend`.
    cursor: Vec<usize>,
    /// `mate[v]` = remote endpoint of the matched edge, or −1.
    mate: Vec<isize>,
    /// Label per (top-level) vertex/blossom: 0 free, 1 S, 2 T
    /// (5 is a temporary breadcrumb used by `scan_blossom`).
    label: Vec<i64>,
    /// Endpoint through which the label was assigned, or −1.
    labelend: Vec<isize>,
    /// Top-level blossom containing each vertex.
    inblossom: Vec<usize>,
    blossomparent: Vec<isize>,
    blossomchilds: Vec<Option<Vec<usize>>>,
    blossombase: Vec<isize>,
    blossomendps: Vec<Option<Vec<isize>>>,
    /// Least-slack edge to a different S-blossom, per vertex/blossom.
    bestedge: Vec<isize>,
    blossombestedges: Vec<Option<Vec<usize>>>,
    unusedblossoms: Vec<usize>,
    dualvar: Vec<i64>,
    allowedge: Vec<bool>,
    queue: Vec<usize>,
    /// Scratch for the leaf walk in [`Self::assign_label`].
    leaf_stack: Vec<usize>,
    /// Scratch for the breadcrumb trail in [`Self::scan_blossom`].
    scan_path: Vec<usize>,
}

impl Matcher {
    /// Creates a matcher with empty buffers; they grow on first use.
    pub fn new() -> Self {
        Matcher::default()
    }

    /// Computes an exact maximum-weight matching of `edges` over `n`
    /// vertices, with the contract of [`maximum_weight_matching`] (same
    /// matching for the same input); read it with [`Matcher::mate`].
    pub fn solve(&mut self, n: usize, edges: &[WeightedEdge], max_cardinality: bool) {
        self.reset(n, edges, max_cardinality);
        if n > 0 && !self.edges.is_empty() {
            self.run();
        }
    }

    /// The partner of `v` in the most recent [`Matcher::solve`], or
    /// `None` if `v` is unmatched.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of that graph.
    pub fn mate(&self, v: usize) -> Option<usize> {
        let p = self.mate[v];
        (p != NONE).then(|| self.endpoint[p as usize])
    }

    /// Loads a new graph: self-loops and non-positive edges dropped,
    /// weights doubled to keep the duals integral, and every other buffer
    /// put in its initial state.
    fn reset(&mut self, nvertex: usize, edges: &[WeightedEdge], max_cardinality: bool) {
        self.nvertex = nvertex;
        self.max_cardinality = max_cardinality;
        self.edges.clear();
        self.edges.extend(
            edges
                .iter()
                .copied()
                .filter(|&(u, v, w)| u != v && w > 0)
                .map(|(u, v, w)| (u, v, w.checked_mul(2).expect("matching weight overflow"))),
        );
        let nedge = self.edges.len();
        let maxweight = self.edges.iter().map(|e| e.2).max().unwrap_or(0).max(0);
        self.endpoint.clear();
        for &(i, j, _) in &self.edges {
            self.endpoint.push(i);
            self.endpoint.push(j);
        }
        // Stable counting sort by vertex: each vertex keeps its incident
        // endpoints in edge order.
        self.neighbend_row.clear();
        self.neighbend_row.resize(nvertex + 1, 0);
        for &(i, j, _) in &self.edges {
            self.neighbend_row[i + 1] += 1;
            self.neighbend_row[j + 1] += 1;
        }
        for v in 0..nvertex {
            self.neighbend_row[v + 1] += self.neighbend_row[v];
        }
        self.cursor.clear();
        self.cursor
            .extend_from_slice(&self.neighbend_row[..nvertex]);
        self.neighbend.clear();
        self.neighbend.resize(2 * nedge, 0);
        for (k, &(i, j, _)) in self.edges.iter().enumerate() {
            self.neighbend[self.cursor[i]] = 2 * k + 1;
            self.cursor[i] += 1;
            self.neighbend[self.cursor[j]] = 2 * k;
            self.cursor[j] += 1;
        }
        self.mate.clear();
        self.mate.resize(nvertex, NONE);
        self.label.clear();
        self.label.resize(2 * nvertex, 0);
        self.labelend.clear();
        self.labelend.resize(2 * nvertex, NONE);
        self.inblossom.clear();
        self.inblossom.extend(0..nvertex);
        self.blossomparent.clear();
        self.blossomparent.resize(2 * nvertex, NONE);
        self.blossomchilds.clear();
        self.blossomchilds.resize(2 * nvertex, None);
        self.blossombase.clear();
        self.blossombase.extend(0..nvertex as isize);
        self.blossombase.resize(2 * nvertex, NONE);
        self.blossomendps.clear();
        self.blossomendps.resize(2 * nvertex, None);
        self.bestedge.clear();
        self.bestedge.resize(2 * nvertex, NONE);
        self.blossombestedges.clear();
        self.blossombestedges.resize(2 * nvertex, None);
        self.unusedblossoms.clear();
        self.unusedblossoms.extend(nvertex..2 * nvertex);
        self.dualvar.clear();
        self.dualvar.resize(nvertex, maxweight);
        self.dualvar.resize(2 * nvertex, 0);
        self.allowedge.clear();
        self.allowedge.resize(nedge, false);
        self.queue.clear();
        self.leaf_stack.clear();
        self.scan_path.clear();
    }

    fn slack(&self, k: usize) -> i64 {
        let (i, j, wt) = self.edges[k];
        self.dualvar[i] + self.dualvar[j] - 2 * wt
    }

    /// The endpoints whose remote end is adjacent to vertex `v`.
    fn neighbends(&self, v: usize) -> &[usize] {
        &self.neighbend[self.neighbend_row[v]..self.neighbend_row[v + 1]]
    }

    fn blossom_leaves(&self, b: usize) -> Vec<usize> {
        let mut out = Vec::new();
        push_leaves(
            &self.blossomchilds,
            self.nvertex,
            b,
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    fn assign_label(&mut self, w: usize, t: i64, p: isize) {
        let b = self.inblossom[w];
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        self.labelend[w] = p;
        self.labelend[b] = p;
        self.bestedge[w] = NONE;
        self.bestedge[b] = NONE;
        if t == 1 {
            if b < self.nvertex {
                self.queue.push(b);
            } else {
                push_leaves(
                    &self.blossomchilds,
                    self.nvertex,
                    b,
                    &mut self.leaf_stack,
                    &mut self.queue,
                );
            }
        } else if t == 2 {
            let base = self.blossombase[b] as usize;
            let mate_base = self.mate[base];
            debug_assert!(mate_base >= 0);
            let next = self.endpoint[mate_base as usize];
            self.assign_label(next, 1, mate_base ^ 1);
        }
    }

    /// Traces back from the endpoints of edge `(v, w)` to discover either a
    /// common ancestor (new blossom base) or an augmenting path.
    fn scan_blossom(&mut self, v: usize, w: usize) -> isize {
        let mut path = std::mem::take(&mut self.scan_path);
        path.clear();
        let mut base = NONE;
        let mut v = v as isize;
        let mut w = w as isize;
        while v != NONE || w != NONE {
            if v != NONE {
                let b = self.inblossom[v as usize];
                if self.label[b] & 4 != 0 {
                    base = self.blossombase[b];
                    break;
                }
                debug_assert_eq!(self.label[b], 1);
                path.push(b);
                self.label[b] = 5;
                debug_assert_eq!(self.labelend[b], self.mate[self.blossombase[b] as usize]);
                if self.labelend[b] == NONE {
                    v = NONE;
                } else {
                    let t = self.endpoint[self.labelend[b] as usize];
                    let bt = self.inblossom[t];
                    debug_assert_eq!(self.label[bt], 2);
                    debug_assert!(self.labelend[bt] >= 0);
                    v = self.endpoint[self.labelend[bt] as usize] as isize;
                }
            }
            if w != NONE {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for &b in &path {
            self.label[b] = 1;
        }
        self.scan_path = path;
        base
    }

    /// Constructs a new blossom with the given base, through edge `k`.
    fn add_blossom(&mut self, base: usize, k: usize) {
        let (mut v, mut w, _) = self.edges[k];
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        let b = self.unusedblossoms.pop().expect("ran out of blossom slots");
        self.blossombase[b] = base as isize;
        self.blossomparent[b] = NONE;
        self.blossomparent[bb] = b as isize;

        let mut path = Vec::new();
        let mut endps = Vec::new();
        while bv != bb {
            self.blossomparent[bv] = b as isize;
            path.push(bv);
            endps.push(self.labelend[bv]);
            debug_assert!(self.labelend[bv] >= 0);
            v = self.endpoint[self.labelend[bv] as usize];
            bv = self.inblossom[v];
        }
        path.push(bb);
        path.reverse();
        endps.reverse();
        endps.push(2 * k as isize);
        while bw != bb {
            self.blossomparent[bw] = b as isize;
            path.push(bw);
            endps.push(self.labelend[bw] ^ 1);
            debug_assert!(self.labelend[bw] >= 0);
            w = self.endpoint[self.labelend[bw] as usize];
            bw = self.inblossom[w];
        }

        // Children/endpoints must be registered before blossom_leaves(b).
        self.blossomchilds[b] = Some(path.clone());
        self.blossomendps[b] = Some(endps);
        debug_assert_eq!(self.label[bb], 1);
        self.label[b] = 1;
        self.labelend[b] = self.labelend[bb];
        self.dualvar[b] = 0;
        for leaf in self.blossom_leaves(b) {
            if self.label[self.inblossom[leaf]] == 2 {
                self.queue.push(leaf);
            }
            self.inblossom[leaf] = b;
        }

        // Compute least-slack edges to neighbouring S-blossoms.
        let mut bestedgeto = vec![NONE; 2 * self.nvertex];
        for &bv in &path {
            let nblists: Vec<Vec<usize>> = match self.blossombestedges[bv].take() {
                Some(list) => vec![list],
                None => self
                    .blossom_leaves(bv)
                    .into_iter()
                    .map(|leaf| self.neighbends(leaf).iter().map(|&p| p / 2).collect())
                    .collect(),
            };
            for nblist in nblists {
                for k in nblist {
                    let (mut i, mut j, _) = self.edges[k];
                    if self.inblossom[j] == b {
                        std::mem::swap(&mut i, &mut j);
                    }
                    let _ = i;
                    let bj = self.inblossom[j];
                    if bj != b
                        && self.label[bj] == 1
                        && (bestedgeto[bj] == NONE
                            || self.slack(k) < self.slack(bestedgeto[bj] as usize))
                    {
                        bestedgeto[bj] = k as isize;
                    }
                }
            }
            self.bestedge[bv] = NONE;
        }
        let best: Vec<usize> = bestedgeto
            .into_iter()
            .filter(|&k| k != NONE)
            .map(|k| k as usize)
            .collect();
        self.bestedge[b] = NONE;
        for &k in &best {
            if self.bestedge[b] == NONE || self.slack(k) < self.slack(self.bestedge[b] as usize) {
                self.bestedge[b] = k as isize;
            }
        }
        self.blossombestedges[b] = Some(best);
    }

    /// Expands blossom `b`, either at the end of a stage (`endstage`) or
    /// because its dual variable hit zero during a stage.
    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        let childs = self.blossomchilds[b].clone().expect("expanding a leaf");
        for &s in &childs {
            self.blossomparent[s] = NONE;
            if s < self.nvertex {
                self.inblossom[s] = s;
            } else if endstage && self.dualvar[s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                for leaf in self.blossom_leaves(s) {
                    self.inblossom[leaf] = s;
                }
            }
        }
        if !endstage && self.label[b] == 2 {
            // The blossom was reached through an edge; relabel its children
            // along the path from the entry child to the base.
            debug_assert!(self.labelend[b] >= 0);
            let entrychild = self.inblossom[self.endpoint[(self.labelend[b] ^ 1) as usize]];
            let childs_len = childs.len() as isize;
            let mut j = childs
                .iter()
                .position(|&c| c == entrychild)
                .expect("entry child not found") as isize;
            let (jstep, endptrick): (isize, isize) = if j & 1 != 0 {
                j -= childs_len;
                (1, 0)
            } else {
                (-1, 1)
            };
            let endps = self.blossomendps[b].clone().expect("blossom without endps");
            let idx = |j: isize| -> usize {
                let m = childs_len;
                (((j % m) + m) % m) as usize
            };
            let mut p = self.labelend[b];
            while j != 0 {
                // Relabel the T-sub-blossom.
                self.label[self.endpoint[(p ^ 1) as usize]] = 0;
                let q = endps[idx(j - endptrick)] ^ endptrick ^ 1;
                self.label[self.endpoint[q as usize]] = 0;
                let ep = self.endpoint[(p ^ 1) as usize];
                self.assign_label(ep, 2, p);
                self.allowedge[(endps[idx(j - endptrick)] / 2) as usize] = true;
                j += jstep;
                p = endps[idx(j - endptrick)] ^ endptrick;
                self.allowedge[(p / 2) as usize] = true;
                j += jstep;
            }
            // Relabel the base T-sub-blossom.
            let bv = childs[idx(j)];
            let ep = self.endpoint[(p ^ 1) as usize];
            self.label[ep] = 2;
            self.label[bv] = 2;
            self.labelend[ep] = p;
            self.labelend[bv] = p;
            self.bestedge[bv] = NONE;
            // Continue along the blossom until we get back to entrychild,
            // relabelling sub-blossoms that are reachable from outside.
            j += jstep;
            while childs[idx(j)] != entrychild {
                let bv = childs[idx(j)];
                if self.label[bv] == 1 {
                    j += jstep;
                    continue;
                }
                let mut vfound = None;
                for leaf in self.blossom_leaves(bv) {
                    if self.label[leaf] != 0 {
                        vfound = Some(leaf);
                        break;
                    }
                }
                if let Some(v) = vfound {
                    debug_assert_eq!(self.label[v], 2);
                    debug_assert_eq!(self.inblossom[v], bv);
                    self.label[v] = 0;
                    let base = self.blossombase[bv] as usize;
                    self.label[self.endpoint[self.mate[base] as usize]] = 0;
                    let le = self.labelend[v];
                    self.assign_label(v, 2, le);
                }
                j += jstep;
            }
        }
        // Recycle the blossom slot.
        self.label[b] = NONE as i64;
        self.labelend[b] = NONE;
        self.blossomchilds[b] = None;
        self.blossomendps[b] = None;
        self.blossombase[b] = NONE;
        self.blossombestedges[b] = None;
        self.bestedge[b] = NONE;
        self.unusedblossoms.push(b);
    }

    /// Swaps matched/unmatched edges over the alternating path through
    /// blossom `b` between its base and vertex `v`.
    fn augment_blossom(&mut self, b: usize, v: usize) {
        let mut t = v;
        while self.blossomparent[t] != b as isize {
            t = self.blossomparent[t] as usize;
        }
        if t >= self.nvertex {
            self.augment_blossom(t, v);
        }
        let childs = self.blossomchilds[b].clone().expect("augmenting a leaf");
        let endps = self.blossomendps[b].clone().expect("blossom without endps");
        let childs_len = childs.len() as isize;
        let i = childs.iter().position(|&c| c == t).expect("child missing") as isize;
        let mut j = i;
        let (jstep, endptrick): (isize, isize) = if i & 1 != 0 {
            j -= childs_len;
            (1, 0)
        } else {
            (-1, 1)
        };
        let idx = |j: isize| -> usize {
            let m = childs_len;
            (((j % m) + m) % m) as usize
        };
        while j != 0 {
            j += jstep;
            let t = childs[idx(j)];
            let p = endps[idx(j - endptrick)] ^ endptrick;
            if t >= self.nvertex {
                let ep = self.endpoint[p as usize];
                self.augment_blossom(t, ep);
            }
            j += jstep;
            let t = childs[idx(j)];
            if t >= self.nvertex {
                let ep = self.endpoint[(p ^ 1) as usize];
                self.augment_blossom(t, ep);
            }
            self.mate[self.endpoint[p as usize]] = p ^ 1;
            self.mate[self.endpoint[(p ^ 1) as usize]] = p;
        }
        // Rotate childs/endps so the new base is first.
        let i = i as usize;
        let mut new_childs = childs[i..].to_vec();
        new_childs.extend_from_slice(&childs[..i]);
        let mut new_endps = endps[i..].to_vec();
        new_endps.extend_from_slice(&endps[..i]);
        self.blossombase[b] = self.blossombase[new_childs[0]];
        self.blossomchilds[b] = Some(new_childs);
        self.blossomendps[b] = Some(new_endps);
        debug_assert_eq!(self.blossombase[b], v as isize);
    }

    /// Augments the matching along the path through edge `k`.
    fn augment_matching(&mut self, k: usize) {
        let (v, w, _) = self.edges[k];
        for (s0, p0) in [(v, 2 * k + 1), (w, 2 * k)] {
            let mut s = s0;
            let mut p = p0 as isize;
            loop {
                let bs = self.inblossom[s];
                debug_assert_eq!(self.label[bs], 1);
                debug_assert_eq!(self.labelend[bs], self.mate[self.blossombase[bs] as usize]);
                if bs >= self.nvertex {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = p;
                if self.labelend[bs] == NONE {
                    break;
                }
                let t = self.endpoint[self.labelend[bs] as usize];
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label[bt], 2);
                debug_assert!(self.labelend[bt] >= 0);
                s = self.endpoint[self.labelend[bt] as usize];
                let j = self.endpoint[(self.labelend[bt] ^ 1) as usize];
                debug_assert_eq!(self.blossombase[bt], t as isize);
                if bt >= self.nvertex {
                    self.augment_blossom(bt, j);
                }
                self.mate[j] = self.labelend[bt];
                p = self.labelend[bt] ^ 1;
            }
        }
    }

    fn run(&mut self) {
        for _stage in 0..self.nvertex {
            // Reset stage state.
            self.label.iter_mut().for_each(|l| *l = 0);
            self.bestedge.iter_mut().for_each(|e| *e = NONE);
            for b in self.nvertex..2 * self.nvertex {
                self.blossombestedges[b] = None;
            }
            self.allowedge.iter_mut().for_each(|a| *a = false);
            self.queue.clear();
            for v in 0..self.nvertex {
                if self.mate[v] == NONE && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, 1, NONE);
                }
            }
            let mut augmented = false;
            loop {
                while let Some(v) = self.queue.pop() {
                    debug_assert_eq!(self.label[self.inblossom[v]], 1);
                    let mut did_augment = false;
                    // Index-based scan: `neighbend` is immutable after
                    // construction, and indexing per step avoids cloning
                    // the adjacency list on every queue pop.
                    for i in self.neighbend_row[v]..self.neighbend_row[v + 1] {
                        let p = self.neighbend[i];
                        let k = p / 2;
                        let w = self.endpoint[p];
                        if self.inblossom[v] == self.inblossom[w] {
                            continue;
                        }
                        let mut kslack = 0;
                        if !self.allowedge[k] {
                            kslack = self.slack(k);
                            if kslack <= 0 {
                                self.allowedge[k] = true;
                            }
                        }
                        if self.allowedge[k] {
                            if self.label[self.inblossom[w]] == 0 {
                                self.assign_label(w, 2, (p ^ 1) as isize);
                            } else if self.label[self.inblossom[w]] == 1 {
                                let base = self.scan_blossom(v, w);
                                if base >= 0 {
                                    self.add_blossom(base as usize, k);
                                } else {
                                    self.augment_matching(k);
                                    augmented = true;
                                    did_augment = true;
                                    break;
                                }
                            } else if self.label[w] == 0 {
                                debug_assert_eq!(self.label[self.inblossom[w]], 2);
                                self.label[w] = 2;
                                self.labelend[w] = (p ^ 1) as isize;
                            }
                        } else if self.label[self.inblossom[w]] == 1 {
                            let b = self.inblossom[v];
                            if self.bestedge[b] == NONE
                                || kslack < self.slack(self.bestedge[b] as usize)
                            {
                                self.bestedge[b] = k as isize;
                            }
                        } else if self.label[w] == 0
                            && (self.bestedge[w] == NONE
                                || kslack < self.slack(self.bestedge[w] as usize))
                        {
                            self.bestedge[w] = k as isize;
                        }
                    }
                    if did_augment {
                        break;
                    }
                }
                if augmented {
                    break;
                }

                // No augmenting path; compute the dual adjustment delta.
                let mut deltatype = -1i32;
                let mut delta = 0i64;
                let mut deltaedge = 0usize;
                let mut deltablossom = 0usize;
                if !self.max_cardinality {
                    deltatype = 1;
                    delta = self.dualvar[..self.nvertex].iter().copied().min().unwrap();
                }
                for v in 0..self.nvertex {
                    if self.label[self.inblossom[v]] == 0 && self.bestedge[v] != NONE {
                        let d = self.slack(self.bestedge[v] as usize);
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 2;
                            deltaedge = self.bestedge[v] as usize;
                        }
                    }
                }
                for b in 0..2 * self.nvertex {
                    if self.blossomparent[b] == NONE
                        && self.label[b] == 1
                        && self.bestedge[b] != NONE
                    {
                        let kslack = self.slack(self.bestedge[b] as usize);
                        debug_assert_eq!(kslack % 2, 0);
                        let d = kslack / 2;
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 3;
                            deltaedge = self.bestedge[b] as usize;
                        }
                    }
                }
                for b in self.nvertex..2 * self.nvertex {
                    if self.blossombase[b] >= 0
                        && self.blossomparent[b] == NONE
                        && self.label[b] == 2
                        && (deltatype == -1 || self.dualvar[b] < delta)
                    {
                        delta = self.dualvar[b];
                        deltatype = 4;
                        deltablossom = b;
                    }
                }
                if deltatype == -1 {
                    // No further improvement possible (max-cardinality);
                    // make the optimum attainable.
                    deltatype = 1;
                    delta = self.dualvar[..self.nvertex]
                        .iter()
                        .copied()
                        .min()
                        .unwrap()
                        .max(0);
                }

                // Apply the delta to the dual variables.
                for v in 0..self.nvertex {
                    match self.label[self.inblossom[v]] {
                        1 => self.dualvar[v] -= delta,
                        2 => self.dualvar[v] += delta,
                        _ => {}
                    }
                }
                for b in self.nvertex..2 * self.nvertex {
                    if self.blossombase[b] >= 0 && self.blossomparent[b] == NONE {
                        match self.label[b] {
                            1 => self.dualvar[b] += delta,
                            2 => self.dualvar[b] -= delta,
                            _ => {}
                        }
                    }
                }

                match deltatype {
                    1 => break,
                    2 => {
                        self.allowedge[deltaedge] = true;
                        let (mut i, j, _) = self.edges[deltaedge];
                        if self.label[self.inblossom[i]] == 0 {
                            i = j;
                        }
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    3 => {
                        self.allowedge[deltaedge] = true;
                        let (i, _, _) = self.edges[deltaedge];
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    4 => self.expand_blossom(deltablossom, false),
                    _ => unreachable!("invalid delta type"),
                }
            }

            if !augmented {
                break;
            }
            // End of stage: expand all S-blossoms with zero dual.
            for b in self.nvertex..2 * self.nvertex {
                if self.blossomparent[b] == NONE
                    && self.blossombase[b] >= 0
                    && self.label[b] == 1
                    && self.dualvar[b] == 0
                {
                    self.expand_blossom(b, true);
                }
            }
        }
    }
}

/// Appends the leaf vertices of blossom `b` to `out` in depth-first order
/// (children pushed in order, popped last-first), using `stack` as scratch
/// (empty on entry, drained on exit). Every leaf walk goes through here,
/// so they all agree on the order.
fn push_leaves(
    blossomchilds: &[Option<Vec<usize>>],
    nvertex: usize,
    b: usize,
    stack: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    stack.push(b);
    while let Some(t) = stack.pop() {
        if t < nvertex {
            out.push(t);
        } else {
            stack.extend(
                blossomchilds[t]
                    .as_ref()
                    .expect("blossom without children")
                    .iter()
                    .copied(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weight_of(m: &Matching, edges: &[WeightedEdge]) -> i64 {
        m.weight(edges)
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(maximum_weight_matching(0, &[], false).len(), 0);
        assert_eq!(maximum_weight_matching(3, &[], false).pair_count(), 0);
    }

    #[test]
    fn single_edge() {
        let m = maximum_weight_matching(2, &[(0, 1, 1)], false);
        assert_eq!(m.mate(0), Some(1));
    }

    #[test]
    fn path_prefers_two_light_edges_over_one_heavy() {
        let edges = [(0, 1, 5), (1, 2, 6), (2, 3, 5)];
        let m = maximum_weight_matching(4, &edges, false);
        assert_eq!(weight_of(&m, &edges), 10);
    }

    #[test]
    fn triangle_takes_heaviest_edge() {
        let edges = [(0, 1, 6), (1, 2, 5), (0, 2, 4)];
        let m = maximum_weight_matching(3, &edges, false);
        assert_eq!(weight_of(&m, &edges), 6);
        assert_eq!(m.mate(2), None);
    }

    #[test]
    fn negative_and_zero_edges_ignored() {
        let m = maximum_weight_matching(2, &[(0, 1, -2), (0, 1, 0)], false);
        assert_eq!(m.pair_count(), 0);
    }

    // The following cases are from van Rantwijk's test suite.

    #[test]
    fn vr_test14_maxcard_matters() {
        // Trivial case where max-cardinality changes the result.
        let edges = [(1, 2, 5), (2, 3, 11), (3, 4, 5)];
        let m = maximum_weight_matching(5, &edges, false);
        assert_eq!(m.mate(2), Some(3));
        assert_eq!(m.mate(1), None);
        let m = maximum_weight_matching(5, &edges, true);
        assert_eq!(m.mate(1), Some(2));
        assert_eq!(m.mate(3), Some(4));
    }

    #[test]
    fn vr_test20_create_blossom() {
        // Creates a blossom and uses it for augmentation.
        let edges = [(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7)];
        let m = maximum_weight_matching(5, &edges, false);
        assert_eq!(m.mate(1), Some(2));
        assert_eq!(m.mate(3), Some(4));
        let edges2 = [
            (1, 2, 8),
            (1, 3, 9),
            (2, 3, 10),
            (3, 4, 7),
            (1, 6, 5),
            (4, 5, 6),
        ];
        let m = maximum_weight_matching(7, &edges2, false);
        assert_eq!(m.mate(1), Some(6));
        assert_eq!(m.mate(2), Some(3));
        assert_eq!(m.mate(4), Some(5));
    }

    #[test]
    fn vr_test21_expand_blossom_t() {
        // Create S-blossom, relabel as T-blossom, use for augmentation.
        let edges = [
            (1, 2, 9),
            (1, 3, 8),
            (2, 3, 10),
            (1, 4, 5),
            (4, 5, 4),
            (1, 6, 3),
        ];
        let m = maximum_weight_matching(7, &edges, false);
        assert_eq!(m.mate(1), Some(6));
        assert_eq!(m.mate(2), Some(3));
        assert_eq!(m.mate(4), Some(5));
        let edges = [
            (1, 2, 9),
            (1, 3, 8),
            (2, 3, 10),
            (1, 4, 5),
            (4, 5, 3),
            (1, 6, 4),
        ];
        let m = maximum_weight_matching(7, &edges, false);
        assert_eq!(m.mate(1), Some(6));
        assert_eq!(m.mate(2), Some(3));
        assert_eq!(m.mate(4), Some(5));
        let edges = [
            (1, 2, 9),
            (1, 3, 8),
            (2, 3, 10),
            (1, 4, 5),
            (4, 5, 3),
            (3, 6, 4),
        ];
        let m = maximum_weight_matching(7, &edges, false);
        assert_eq!(m.mate(1), Some(2));
        assert_eq!(m.mate(3), Some(6));
        assert_eq!(m.mate(4), Some(5));
    }

    #[test]
    fn vr_test22_s_to_t_expand() {
        // Create nested S-blossom, use for augmentation.
        let edges = [
            (1, 2, 9),
            (1, 3, 9),
            (2, 3, 10),
            (2, 4, 8),
            (3, 5, 8),
            (4, 5, 10),
            (5, 6, 6),
        ];
        let m = maximum_weight_matching(7, &edges, false);
        assert_eq!(m.mate(1), Some(3));
        assert_eq!(m.mate(2), Some(4));
        assert_eq!(m.mate(5), Some(6));
    }

    #[test]
    fn vr_test23_s_blossom_relabel_expand() {
        let edges = [
            (1, 2, 10),
            (1, 7, 10),
            (2, 3, 12),
            (3, 4, 20),
            (3, 5, 20),
            (4, 5, 25),
            (5, 6, 10),
            (6, 7, 10),
            (7, 8, 8),
        ];
        let m = maximum_weight_matching(9, &edges, false);
        assert_eq!(m.mate(1), Some(2));
        assert_eq!(m.mate(3), Some(4));
        assert_eq!(m.mate(5), Some(6));
        assert_eq!(m.mate(7), Some(8));
    }

    #[test]
    fn vr_test24_nested_s_blossom_relabel_expand() {
        let edges = [
            (1, 2, 8),
            (1, 3, 8),
            (2, 3, 10),
            (2, 4, 12),
            (3, 5, 12),
            (4, 5, 14),
            (4, 6, 12),
            (5, 7, 12),
            (6, 7, 14),
            (7, 8, 12),
        ];
        let m = maximum_weight_matching(9, &edges, false);
        assert_eq!(m.mate(1), Some(2));
        assert_eq!(m.mate(3), Some(5));
        assert_eq!(m.mate(4), Some(6));
        assert_eq!(m.mate(7), Some(8));
    }

    #[test]
    fn vr_test25_s_blossom_expand_t() {
        let edges = [
            (1, 2, 23),
            (1, 5, 22),
            (1, 6, 15),
            (2, 3, 25),
            (3, 4, 22),
            (4, 5, 25),
            (4, 8, 14),
            (5, 7, 13),
        ];
        let m = maximum_weight_matching(9, &edges, false);
        assert_eq!(m.mate(1), Some(6));
        assert_eq!(m.mate(2), Some(3));
        assert_eq!(m.mate(4), Some(8));
        assert_eq!(m.mate(5), Some(7));
    }

    #[test]
    fn vr_test26_s_blossom_forward_expand() {
        let edges = [
            (1, 2, 19),
            (1, 3, 20),
            (1, 8, 8),
            (2, 3, 25),
            (2, 4, 18),
            (3, 5, 18),
            (4, 5, 13),
            (4, 7, 7),
            (5, 6, 7),
        ];
        let m = maximum_weight_matching(9, &edges, false);
        assert_eq!(m.mate(1), Some(8));
        assert_eq!(m.mate(2), Some(3));
        assert_eq!(m.mate(4), Some(7));
        assert_eq!(m.mate(5), Some(6));
    }

    #[test]
    fn vr_test30_nasty_augmenting_path() {
        // Create blossom, relabel as T in more than one way, expand, augment.
        let edges = [
            (1, 2, 45),
            (1, 5, 45),
            (2, 3, 50),
            (3, 4, 45),
            (4, 5, 50),
            (1, 6, 30),
            (3, 9, 35),
            (4, 8, 35),
            (5, 7, 26),
            (9, 10, 5),
        ];
        let m = maximum_weight_matching(11, &edges, false);
        assert_eq!(m.mate(1), Some(6));
        assert_eq!(m.mate(2), Some(3));
        assert_eq!(m.mate(4), Some(8));
        assert_eq!(m.mate(5), Some(7));
        assert_eq!(m.mate(9), Some(10));
    }

    #[test]
    fn vr_test31_similar_with_alternate() {
        let edges = [
            (1, 2, 45),
            (1, 5, 45),
            (2, 3, 50),
            (3, 4, 45),
            (4, 5, 50),
            (1, 6, 30),
            (3, 9, 35),
            (4, 8, 26),
            (5, 7, 40),
            (9, 10, 5),
        ];
        let m = maximum_weight_matching(11, &edges, false);
        assert_eq!(m.mate(1), Some(6));
        assert_eq!(m.mate(2), Some(3));
        assert_eq!(m.mate(4), Some(8));
        assert_eq!(m.mate(5), Some(7));
        assert_eq!(m.mate(9), Some(10));
    }

    #[test]
    fn vr_test32_s_blossom_relabel_expand_augment() {
        let edges = [
            (1, 2, 45),
            (1, 5, 45),
            (2, 3, 50),
            (3, 4, 45),
            (4, 5, 50),
            (1, 6, 30),
            (3, 9, 35),
            (4, 8, 28),
            (5, 7, 26),
            (9, 10, 5),
        ];
        let m = maximum_weight_matching(11, &edges, false);
        assert_eq!(m.mate(1), Some(6));
        assert_eq!(m.mate(2), Some(3));
        assert_eq!(m.mate(4), Some(8));
        assert_eq!(m.mate(5), Some(7));
        assert_eq!(m.mate(9), Some(10));
    }

    #[test]
    fn vr_test33_nested_blossom_expanded_endstage() {
        let edges = [
            (1, 2, 45),
            (1, 7, 45),
            (2, 3, 50),
            (3, 4, 45),
            (4, 5, 95),
            (4, 6, 94),
            (5, 6, 94),
            (6, 7, 50),
            (1, 8, 30),
            (3, 11, 35),
            (5, 9, 36),
            (7, 10, 26),
            (11, 12, 5),
        ];
        let m = maximum_weight_matching(13, &edges, false);
        assert_eq!(m.mate(1), Some(8));
        assert_eq!(m.mate(2), Some(3));
        assert_eq!(m.mate(4), Some(6));
        assert_eq!(m.mate(5), Some(9));
        assert_eq!(m.mate(7), Some(10));
        assert_eq!(m.mate(11), Some(12));
    }

    #[test]
    fn vr_test34_nested_blossom_relabeled_t() {
        let edges = [
            (1, 2, 40),
            (1, 3, 40),
            (2, 3, 60),
            (2, 4, 55),
            (3, 5, 55),
            (4, 5, 50),
            (1, 8, 15),
            (5, 7, 30),
            (7, 6, 10),
            (8, 10, 10),
            (4, 9, 30),
        ];
        let m = maximum_weight_matching(11, &edges, false);
        assert_eq!(m.mate(1), Some(2));
        assert_eq!(m.mate(3), Some(5));
        assert_eq!(m.mate(4), Some(9));
        assert_eq!(m.mate(6), Some(7));
        assert_eq!(m.mate(8), Some(10));
    }

    #[test]
    fn matches_greedy_or_better_on_grids() {
        use crate::matching::greedy_matching;
        // 4x4 grid with position-dependent weights.
        let mut edges = Vec::new();
        let id = |r: usize, c: usize| r * 4 + c;
        for r in 0..4 {
            for c in 0..4 {
                if c + 1 < 4 {
                    edges.push((id(r, c), id(r, c + 1), (1 + r * 3 + c) as i64));
                }
                if r + 1 < 4 {
                    edges.push((id(r, c), id(r + 1, c), (2 + r + c * 2) as i64));
                }
            }
        }
        let exact = maximum_weight_matching(16, &edges, false);
        let greedy = greedy_matching(16, &edges);
        assert!(exact.weight(&edges) >= greedy.weight(&edges));
    }
}
