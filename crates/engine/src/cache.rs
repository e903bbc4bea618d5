//! Content-addressed memoization of per-(loop, machine) preprocessing.
//!
//! Scheduling one unit starts with two pure computations that are shared
//! by every algorithm and by every re-occurrence of the same loop body:
//! the MII and the initial partition. The cache keys them by a content
//! hash of the DDG (FNV-1a over structure — the loop *name* is excluded,
//! so corpora with duplicated bodies hit the cache), a structural hash of
//! the machine, and a hash of the [`PartitionOptions`] in force (two sweeps
//! with different refinement knobs compute different partitions — they must
//! not share entries). Seeds are served to all workers through per-key
//! [`OnceLock`]s so a miss never serializes unrelated work.
//!
//! A cache may additionally be backed by a [`DiskCache`]: on a memory miss
//! the persistent store is consulted before computing, and freshly computed
//! seeds are appended to it. This is what lets `gpsched-serve` restart warm.
//!
//! [`DiskCache`]: crate::diskcache::DiskCache

use crate::diskcache::DiskCache;
use gpsched_ddg::Ddg;
use gpsched_machine::MachineConfig;
use gpsched_partition::{partition_ddg, MatchStrategy, PartitionOptions, PartitionResult};
use gpsched_sched::SchedSeed;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The full memo-cache key:
/// ([`ddg_content_hash`], [`machine_key`], [`popts_key`]).
pub type CacheKey = (u64, u64, u64);

/// FNV-1a, the one hash behind every key and checksum in this module.
/// Integers are mixed as their 8 little-endian bytes.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mix(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// FNV-1a content hash of a DDG's structure.
///
/// Covers trip count, every op's `(class, latency)` and every dep's
/// `(src, dst, kind, latency, distance)` in graph order; excludes the loop
/// and op names so renamed copies of the same body share cache entries.
pub fn ddg_content_hash(ddg: &Ddg) -> u64 {
    let mut h = Fnv1a::new();
    h.mix(ddg.trip_count());
    h.mix(ddg.op_count() as u64);
    for id in ddg.op_ids() {
        let op = ddg.op(id);
        h.mix(op.class as u64);
        h.mix(op.latency as u64);
    }
    h.mix(ddg.dep_count() as u64);
    for e in ddg.dep_ids() {
        let (s, d) = ddg.dep_endpoints(e);
        let dep = ddg.dep(e);
        h.mix(s.index() as u64);
        h.mix(d.index() as u64);
        h.mix(match dep.kind {
            gpsched_ddg::DepKind::Flow => 0,
            gpsched_ddg::DepKind::Mem => 1,
        });
        h.mix(dep.latency as u64);
        h.mix(dep.distance as u64);
    }
    h.0
}

/// FNV-1a over a byte slice (the disk cache uses this as its line checksum).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.0
}

/// FNV-1a hash of every [`PartitionOptions`] field that changes the
/// computed partition. Two sweeps over the same loop and machine but with
/// different matching or refinement knobs produce different seeds, so the
/// options must be part of the cache key — keying on (loop, machine) alone
/// silently serves one configuration's partition to the other.
pub fn popts_key(popts: &PartitionOptions) -> u64 {
    let mut h = Fnv1a::new();
    match popts.strategy {
        MatchStrategy::Exact => h.mix(0),
        MatchStrategy::Greedy => h.mix(1),
        MatchStrategy::Auto(limit) => {
            h.mix(2);
            h.mix(limit as u64);
        }
    }
    let r = &popts.refine;
    h.mix(r.balance as u64);
    h.mix(r.cut as u64);
    h.mix(r.max_moves as u64);
    h.mix(r.swap_candidates as u64);
    h.mix(r.eval_candidates as u64);
    h.0
}

/// FNV-1a hash of everything that distinguishes one machine from another
/// for scheduling purposes: per-cluster unit mix and registers, the
/// interconnect topology and the latency model. `short_name` is *not*
/// sufficient as a cache key — custom machines with different unit mixes
/// (or different p2p latency matrices) can share a short name.
pub fn machine_key(machine: &MachineConfig) -> u64 {
    use gpsched_machine::Interconnect;
    let mut h = Fnv1a::new();
    h.mix(machine.cluster_count() as u64);
    for c in machine.clusters() {
        h.mix(c.int_units as u64);
        h.mix(c.fp_units as u64);
        h.mix(c.mem_units as u64);
        h.mix(c.registers as u64);
    }
    match machine.interconnect() {
        Interconnect::None => h.mix(0),
        Interconnect::SharedBus {
            count,
            latency,
            pipelined,
        } => {
            h.mix(1);
            h.mix(*count as u64);
            h.mix(*latency as u64);
            h.mix(*pipelined as u64);
        }
        Interconnect::PointToPoint { channels, latency } => {
            h.mix(2);
            h.mix(*channels as u64);
            for &l in latency {
                h.mix(l as u64);
            }
        }
        Interconnect::Ring {
            hop_latency,
            links_per_hop,
        } => {
            h.mix(3);
            h.mix(*hop_latency as u64);
            h.mix(*links_per_hop as u64);
        }
    }
    let l = &machine.latencies;
    for lat in [l.int_alu, l.fp_add, l.fp_mul, l.fp_div, l.load, l.store] {
        h.mix(lat as u64);
    }
    h.0
}

/// A lazily computed cache slot, shared across workers.
type SeedCell = Arc<OnceLock<SchedSeed>>;

/// Shared memo cache for one sweep (or one daemon lifetime), keyed by
/// ([`ddg_content_hash`], [`machine_key`], [`popts_key`]).
pub struct SweepCache {
    entries: Mutex<HashMap<CacheKey, SeedCell>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    disk_hits: AtomicUsize,
    disk: Option<Arc<DiskCache>>,
}

impl SweepCache {
    /// An empty in-memory cache.
    pub fn new() -> Self {
        SweepCache {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            disk_hits: AtomicUsize::new(0),
            disk: None,
        }
    }

    /// An in-memory cache backed by a persistent store: memory misses
    /// consult `disk` before computing, and freshly computed seeds are
    /// appended to it (append failures degrade to a warning — the sweep
    /// still completes with correct results).
    pub fn with_disk(disk: Arc<DiskCache>) -> Self {
        let mut cache = Self::new();
        cache.disk = Some(disk);
        cache
    }

    /// The seed (MII + initial partition) for scheduling `ddg` on
    /// `machine` under `popts`, computing it on first request. `hash` must
    /// be [`ddg_content_hash`]`(ddg)` (precomputed once per loop by the
    /// executor). The boolean is `true` on a cache hit — from memory or
    /// from the backing disk store.
    pub fn seed(
        &self,
        hash: u64,
        ddg: &Ddg,
        machine: &MachineConfig,
        popts: &PartitionOptions,
    ) -> (SchedSeed, bool) {
        let key = (hash, machine_key(machine), popts_key(popts));
        let cell = {
            let mut map = self.entries.lock().expect("cache poisoned");
            Arc::clone(map.entry(key).or_insert_with(|| Arc::new(OnceLock::new())))
        };
        #[derive(PartialEq)]
        enum Origin {
            Memory,
            Disk,
            Computed,
        }
        let mut origin = Origin::Memory;
        let seed = cell.get_or_init(|| {
            if let Some(found) = self.disk.as_ref().and_then(|d| d.get(key)) {
                origin = Origin::Disk;
                return found;
            }
            origin = Origin::Computed;
            let computed = compute_seed(ddg, machine, popts);
            if let Some(disk) = &self.disk {
                if let Err(e) = disk.append(key, &computed) {
                    eprintln!(
                        "warning: seed cache append to {} failed: {e}",
                        disk.path().display()
                    );
                }
            }
            computed
        });
        match origin {
            Origin::Computed => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                gpsched_trace::counter!("cache.miss");
                gpsched_trace::counter!("cache.insert");
            }
            Origin::Disk => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                gpsched_trace::counter!("cache.hit");
                gpsched_trace::counter!("cache.disk_hit");
            }
            Origin::Memory => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                gpsched_trace::counter!("cache.hit");
            }
        }
        (seed.clone(), origin != Origin::Computed)
    }

    /// `(hits, misses)` so far. Disk hits count as hits.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// How many hits were served from the backing disk store rather than
    /// memory. Always 0 for a cache without one.
    pub fn disk_hits(&self) -> usize {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Distinct (loop, machine) entries resident in the cache.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache poisoned").len()
    }

    /// `true` if no entry has been created yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SweepCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Computes a seed directly (the cache-off path uses this too).
pub fn compute_seed(ddg: &Ddg, machine: &MachineConfig, popts: &PartitionOptions) -> SchedSeed {
    let start_ii = gpsched_ddg::mii::mii(ddg, machine);
    let partition: Option<PartitionResult> = if machine.cluster_count() > 1 {
        Some(partition_ddg(ddg, machine, start_ii, popts))
    } else {
        None
    };
    SchedSeed {
        start_ii,
        partition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_workloads::kernels;

    #[test]
    fn hash_ignores_names_but_not_structure() {
        let a = kernels::daxpy(100);
        let b = kernels::daxpy(100);
        assert_eq!(ddg_content_hash(&a), ddg_content_hash(&b));
        // Different trip count → different hash.
        let c = kernels::daxpy(101);
        assert_ne!(ddg_content_hash(&a), ddg_content_hash(&c));
        // Different body → different hash.
        let d = kernels::dot_product(100);
        assert_ne!(ddg_content_hash(&a), ddg_content_hash(&d));
    }

    #[test]
    fn cache_hits_on_repeat_and_counts() {
        let cache = SweepCache::new();
        let ddg = kernels::fir(50, 4);
        let m = MachineConfig::two_cluster(32, 1, 1);
        let h = ddg_content_hash(&ddg);
        let popts = PartitionOptions::default();
        let (s1, hit1) = cache.seed(h, &ddg, &m, &popts);
        let (s2, hit2) = cache.seed(h, &ddg, &m, &popts);
        assert!(!hit1 && hit2);
        assert_eq!(s1.start_ii, s2.start_ii);
        assert_eq!(cache.stats(), (1, 1));
        // A different machine is a different entry.
        let m4 = MachineConfig::four_cluster(32, 1, 1);
        let _ = cache.seed(h, &ddg, &m4, &popts);
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn seed_matches_direct_computation() {
        let ddg = kernels::stencil5(200);
        let m = MachineConfig::four_cluster(64, 1, 2);
        let popts = PartitionOptions::default();
        let direct = compute_seed(&ddg, &m, &popts);
        let cache = SweepCache::new();
        let (cached, _) = cache.seed(ddg_content_hash(&ddg), &ddg, &m, &popts);
        assert_eq!(direct.start_ii, cached.start_ii);
        assert_eq!(
            direct
                .partition
                .as_ref()
                .map(|p| p.partition.assignment().to_vec()),
            cached
                .partition
                .as_ref()
                .map(|p| p.partition.assignment().to_vec())
        );
    }

    #[test]
    fn machines_with_same_short_name_do_not_collide() {
        use gpsched_machine::{ClusterConfig, LatencyModel};
        // Two custom 2-cluster machines: same short name (c2r32b1l1),
        // different unit mixes — must occupy distinct cache entries.
        let mk = |units: [(u32, u32, u32); 2]| {
            MachineConfig::custom(
                units
                    .iter()
                    .map(|&(i, f, m)| ClusterConfig {
                        int_units: i,
                        fp_units: f,
                        mem_units: m,
                        registers: 16,
                    })
                    .collect(),
                gpsched_machine::Interconnect::legacy_bus(1, 1),
                LatencyModel::default(),
            )
        };
        let a = mk([(4, 1, 1), (4, 1, 1)]);
        let b = mk([(1, 4, 1), (1, 4, 1)]);
        assert_eq!(a.short_name(), b.short_name());
        assert_ne!(machine_key(&a), machine_key(&b));

        let ddg = kernels::daxpy(64);
        let cache = SweepCache::new();
        let h = ddg_content_hash(&ddg);
        let popts = PartitionOptions::default();
        let (_, hit_a) = cache.seed(h, &ddg, &a, &popts);
        let (_, hit_b) = cache.seed(h, &ddg, &b, &popts);
        assert!(!hit_a && !hit_b, "distinct machines must both miss");
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn unified_machines_need_no_partition() {
        let ddg = kernels::daxpy(10);
        let m = MachineConfig::unified(32);
        let seed = compute_seed(&ddg, &m, &PartitionOptions::default());
        assert!(seed.partition.is_none());
        assert!(seed.start_ii >= 1);
    }

    #[test]
    fn differing_partition_options_do_not_share_entries() {
        // Regression: the key used to be (ddg, machine) only, so a sweep
        // with refinement disabled could be served the refined partition
        // computed by an earlier sweep (or vice versa) — a stale-cache bug.
        let ddg = kernels::stencil5(120);
        let m = MachineConfig::four_cluster(32, 1, 1);
        let h = ddg_content_hash(&ddg);
        let refined = PartitionOptions::default();
        let raw = PartitionOptions {
            refine: gpsched_partition::refine::RefineOptions {
                balance: false,
                cut: false,
                ..refined.refine
            },
            ..refined
        };
        assert_ne!(popts_key(&refined), popts_key(&raw));

        let cache = SweepCache::new();
        let (s_refined, hit1) = cache.seed(h, &ddg, &m, &refined);
        let (s_raw, hit2) = cache.seed(h, &ddg, &m, &raw);
        assert!(!hit1 && !hit2, "distinct options must both miss");
        assert_eq!(cache.stats(), (0, 2));
        // Each entry matches its own direct computation, not the other's.
        let direct_raw = compute_seed(&ddg, &m, &raw);
        let direct_refined = compute_seed(&ddg, &m, &refined);
        let asg = |s: &SchedSeed| {
            s.partition
                .as_ref()
                .map(|p| p.partition.assignment().to_vec())
        };
        assert_eq!(asg(&s_raw), asg(&direct_raw));
        assert_eq!(asg(&s_refined), asg(&direct_refined));
    }

    #[test]
    fn popts_key_covers_every_knob() {
        let base = PartitionOptions::default();
        let mut variants = vec![
            PartitionOptions {
                strategy: MatchStrategy::Exact,
                ..base
            },
            PartitionOptions {
                strategy: MatchStrategy::Greedy,
                ..base
            },
            PartitionOptions {
                strategy: MatchStrategy::Auto(7),
                ..base
            },
        ];
        let r = base.refine;
        for refine in [
            gpsched_partition::refine::RefineOptions {
                balance: !r.balance,
                ..r
            },
            gpsched_partition::refine::RefineOptions { cut: !r.cut, ..r },
            gpsched_partition::refine::RefineOptions {
                max_moves: r.max_moves + 1,
                ..r
            },
            gpsched_partition::refine::RefineOptions {
                swap_candidates: r.swap_candidates + 1,
                ..r
            },
            gpsched_partition::refine::RefineOptions {
                eval_candidates: r.eval_candidates + 1,
                ..r
            },
        ] {
            variants.push(PartitionOptions { refine, ..base });
        }
        let base_key = popts_key(&base);
        for v in &variants {
            assert_ne!(popts_key(v), base_key, "{v:?} must change the key");
        }
    }

    /// Disk-cache lines carry the DDG, machine and options keys plus an
    /// `fnv1a` checksum, so changing any of them orphans every cache file
    /// written before.
    #[test]
    fn persisted_keys_are_pinned() {
        assert_eq!(
            ddg_content_hash(&kernels::daxpy(100)),
            0x6fdf_6c17_3d78_bfcc
        );
        let presets = gpsched_machine::topology_presets();
        let machines = [
            (&presets[0], "c2r32b1l1", 0x0594_eae9_e76b_806c),
            (&presets[2], "c4r64ring1x1", 0x0b34_4372_a20d_c968),
            (&presets[3], "c4r64p2p1x1", 0x1809_3fd7_b3a0_7de8),
            (&MachineConfig::unified(32), "u-r32", 0x2c47_5467_6756_504a),
        ];
        for (m, name, key) in machines {
            assert_eq!(m.short_name(), name);
            assert_eq!(machine_key(m), key, "{name}");
        }
        assert_eq!(
            popts_key(&PartitionOptions::default()),
            0x6fac_fc36_325e_522f
        );
        assert_eq!(fnv1a(b"gpsched"), 0xd07e_260a_e7bf_7ff9);
    }
}
