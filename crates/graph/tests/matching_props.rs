//! Property tests for the matching algorithms: the exact blossom matching is
//! compared against a brute-force optimum on small random graphs, and both
//! algorithms are checked for structural soundness on larger ones.
//!
//! Randomness comes from a tiny inlined SplitMix64 stream (the workspace
//! builds with no external crates), so every case is reproducible from its
//! printed seed.

use gpsched_graph::matching::{greedy_matching, maximum_weight_matching, WeightedEdge};

/// Minimal deterministic generator (SplitMix64); the full-featured version
/// lives in `gpsched_workloads::rng`, which this crate sits below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.next() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }
}

/// Brute-force maximum weight matching by recursive edge enumeration.
fn brute_force_weight(n: usize, edges: &[WeightedEdge]) -> i64 {
    fn go(edges: &[WeightedEdge], used: &mut Vec<bool>, k: usize) -> i64 {
        if k == edges.len() {
            return 0;
        }
        let skip = go(edges, used, k + 1);
        let (u, v, w) = edges[k];
        if u != v && w > 0 && !used[u] && !used[v] {
            used[u] = true;
            used[v] = true;
            let take = w + go(edges, used, k + 1);
            used[u] = false;
            used[v] = false;
            skip.max(take)
        } else {
            skip
        }
    }
    go(edges, &mut vec![false; n], 0)
}

/// Deduplicates parallel edges keeping the max weight (matching semantics).
fn dedup(n: usize, edges: Vec<(usize, usize, i64)>) -> Vec<WeightedEdge> {
    let mut best = std::collections::HashMap::new();
    for (u, v, w) in edges {
        let u = u % n;
        let v = v % n;
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        let e = best.entry(key).or_insert(w);
        *e = (*e).max(w);
    }
    best.into_iter().map(|((u, v), w)| (u, v, w)).collect()
}

/// Random edge list: `m` draws over `n` vertices with weights in
/// `[1, wmax]`, deduplicated.
fn random_graph(rng: &mut Rng, n: usize, m: usize, wmax: i64) -> Vec<WeightedEdge> {
    let raw = (0..m)
        .map(|_| {
            (
                rng.below(n),
                rng.below(n),
                1 + rng.below(wmax as usize) as i64,
            )
        })
        .collect();
    dedup(n, raw)
}

#[test]
fn blossom_matches_brute_force() {
    let mut rng = Rng(0x5eed_0001);
    for case in 0..64 {
        let n = rng.range(2, 9);
        let m = rng.below(14);
        let edges = random_graph(&mut rng, n, m, 49);
        let exact = maximum_weight_matching(n, &edges, false);
        assert_eq!(
            exact.weight(&edges),
            brute_force_weight(n, &edges),
            "case {case}: n={n} edges={edges:?}"
        );
    }
}

#[test]
fn blossom_at_least_greedy() {
    let mut rng = Rng(0x5eed_0002);
    for case in 0..64 {
        let n = rng.range(2, 40);
        let m = rng.below(120);
        let edges = random_graph(&mut rng, n, m, 99);
        let exact = maximum_weight_matching(n, &edges, false);
        let greedy = greedy_matching(n, &edges);
        assert!(
            exact.weight(&edges) >= greedy.weight(&edges),
            "case {case}: exact below greedy"
        );
        // Greedy is a 1/2-approximation.
        assert!(
            2 * greedy.weight(&edges) >= exact.weight(&edges),
            "case {case}: greedy below half of exact"
        );
    }
}

#[test]
fn matchings_are_valid() {
    let mut rng = Rng(0x5eed_0003);
    for case in 0..64 {
        let n = rng.range(1, 30);
        let m = rng.below(90);
        let edges = random_graph(&mut rng, n, m, 59);
        let edge_set: std::collections::HashSet<(usize, usize)> = edges
            .iter()
            .map(|&(u, v, _)| (u.min(v), u.max(v)))
            .collect();
        for m in [
            maximum_weight_matching(n, &edges, false),
            greedy_matching(n, &edges),
        ] {
            for v in 0..n {
                if let Some(u) = m.mate(v) {
                    // Symmetric and supported by a real edge.
                    assert_eq!(m.mate(u), Some(v), "case {case}");
                    assert!(edge_set.contains(&(u.min(v), u.max(v))), "case {case}");
                }
            }
        }
    }
}

#[test]
fn max_cardinality_never_smaller() {
    let mut rng = Rng(0x5eed_0004);
    for case in 0..64 {
        let n = rng.range(2, 12);
        let m = rng.below(20);
        let edges = random_graph(&mut rng, n, m, 29);
        let plain = maximum_weight_matching(n, &edges, false);
        let card = maximum_weight_matching(n, &edges, true);
        assert!(card.pair_count() >= plain.pair_count(), "case {case}");
    }
}

/// FNV-1a over a stream of words: the digest the identity tests pin.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A graph built to make the blossom algorithm's tie-breaking visible:
/// odd cycles (triangles, pentagons, heptagons) of equal-weight edges,
/// so blossoms form, joined by random chords drawn from three weights,
/// so many optima tie. Parallel edges are kept; the order of `edges` is
/// part of the input.
fn tie_heavy_graph(rng: &mut Rng) -> (usize, Vec<WeightedEdge>) {
    let n = rng.range(3, 28);
    let mut edges = Vec::new();
    let longest_odd = if n % 2 == 1 { n } else { n - 1 };
    for _ in 0..rng.range(1, 5) {
        let len = [3, 5, 7][rng.below(3)].min(longest_odd);
        let w = rng.range(1, 4) as i64;
        let start = rng.below(n);
        for i in 0..len {
            let v = if i + 1 == len {
                start
            } else {
                (start + i + 1) % n
            };
            edges.push(((start + i) % n, v, w));
        }
    }
    for _ in 0..rng.below(2 * n) {
        let (u, v) = (rng.below(n), rng.below(n));
        edges.push((u, v, rng.range(1, 4) as i64));
    }
    (n, edges)
}

/// Pins every mate the exact matcher picks, not just the optimum weight:
/// any change to its tie-breaking or traversal order (edge scan order,
/// leaf order, queue order) moves the digest, and with it the optimum
/// that coarsening picks among equal-weight ones. A faster matcher must
/// keep the digest.
#[test]
fn blossom_mates_digest_is_pinned() {
    let mut rng = Rng(0x5eed_0005);
    let mut digest = Fnv::new();
    let mut pairs = 0usize;
    for _ in 0..2000 {
        let (n, edges) = tie_heavy_graph(&mut rng);
        for max_cardinality in [false, true] {
            let m = maximum_weight_matching(n, &edges, max_cardinality);
            for v in 0..n {
                digest.word(m.mate(v).map_or(u64::MAX, |u| u as u64));
            }
            pairs += m.pair_count();
        }
    }
    assert!(pairs > 10_000, "graphs too sparse to exercise blossoms");
    assert_eq!(digest.0, 981_944_056_323_103_613, "blossom mates changed");
}
