//! Topology-aware communication accounting, in one place.
//!
//! Three spots used to re-derive the cost of a cross-cluster value from
//! the machine's bus fields independently — the from-scratch estimator,
//! the incremental evaluator and the coarsening edge weights. They now
//! all go through this module:
//!
//! * [`comm_cost`] — the delay a cut flow dependence pays, which is the
//!   topology's end-to-end transfer latency between the two assigned
//!   clusters (and 0 within a cluster);
//! * [`ChannelLoad`] — the per-channel bandwidth accounting behind the
//!   generalized `IIbus`: every communicated value (a distinct
//!   `(producer, consumer-cluster)` pair, the paper's `NComm`) books its
//!   route's occupancy on each channel it crosses, and
//!   [`ChannelLoad::bound`] is the largest `⌈load / capacity⌉` over all
//!   channels — for the paper's shared bus exactly
//!   `⌈NComm · LatBus / NBus⌉`, the §3.1 formula.

use gpsched_machine::MachineConfig;

/// Delay charged on a flow dependence whose producer sits in cluster
/// `from` and consumer in cluster `to`: the interconnect's end-to-end
/// transfer latency, 0 when the endpoints share a cluster.
#[inline]
pub fn comm_cost(machine: &MachineConfig, from: usize, to: usize) -> i64 {
    if from == to {
        0
    } else {
        machine.transfer_latency(from, to)
    }
}

/// Per-channel interconnect load of a set of communicated values.
///
/// Adding (or removing) the pair `(from, to)` books (or releases) the
/// occupancy of every hop of the topology's `from → to` route on its
/// channel — O(route length); [`ChannelLoad::bound`] reads the II bound
/// in O(channel count). The routes are resolved once at construction
/// into a flat per-pair hop table, so updates are pure array walks with
/// no topology dispatch.
///
/// How callers use it is a measured trade-off: the from-scratch
/// estimator builds the table per call, while the incremental
/// [`crate::CostEvaluator`] deliberately does *not* delta-maintain it —
/// on uniform single-channel topologies (every shared bus, i.e. all of
/// the paper's machines) the bound is a closed form over the resident
/// `NComm` and this table is never touched, and on ring/p2p machines
/// the evaluator rebuilds it from its resident consumer table only when
/// the bound is actually read (O(V·nclusters), well below the timing
/// probe that read is screening). Threading updates through the
/// evaluator's per-move hot loop instead measurably regressed the
/// shared-bus refinement path (see DESIGN.md §3.1).
#[derive(Clone, Debug)]
pub struct ChannelLoad {
    caps: Vec<i64>,
    load: Vec<i64>,
    nclusters: usize,
    /// Concatenated `(channel, occupancy)` hops of every ordered pair's
    /// route, sliced by `pair_ranges[from · n + to]`.
    hops: Vec<(u32, i64)>,
    pair_ranges: Vec<(u32, u32)>,
}

impl ChannelLoad {
    /// An empty load table shaped for `machine`'s channels and routes.
    pub fn new(machine: &MachineConfig) -> Self {
        let n = machine.cluster_count();
        let mut hops = Vec::new();
        let mut pair_ranges = Vec::with_capacity(n * n);
        for from in 0..n {
            for to in 0..n {
                let start = hops.len() as u32;
                if from != to {
                    hops.extend(
                        machine
                            .route(from, to)
                            .map(|h| (h.channel as u32, h.occupancy)),
                    );
                }
                pair_ranges.push((start, hops.len() as u32));
            }
        }
        ChannelLoad {
            caps: (0..machine.channel_count())
                .map(|ch| machine.channel_capacity(ch) as i64)
                .collect(),
            load: vec![0; machine.channel_count()],
            nclusters: n,
            hops,
            pair_ranges,
        }
    }

    /// Detects the degenerate interconnects whose bound needs no
    /// per-channel table at all: a single channel every pair loads with
    /// one hop of the same occupancy (the shared bus, pipelined or not).
    /// Returns `(occupancy per value, capacity)`; the evaluator's hot
    /// path then prices communication straight off the paper's `NComm`
    /// counter, exactly like the pre-topology code did.
    pub fn uniform_single_channel(&self) -> Option<(i64, i64)> {
        (self.caps.len() == 1
            && self.pair_ranges.iter().all(|&(s, e)| e - s <= 1)
            && self.hops.windows(2).all(|w| w[0] == w[1]))
        .then(|| (self.hops.first().map_or(1, |&(_, occ)| occ), self.caps[0]))
    }

    /// Clears all booked load (the capacities stay).
    pub fn clear(&mut self) {
        self.load.iter_mut().for_each(|l| *l = 0);
    }

    /// Books one communicated value `from → to`.
    #[inline]
    pub fn add_pair(&mut self, from: usize, to: usize) {
        let (s, e) = self.pair_ranges[from * self.nclusters + to];
        for i in s as usize..e as usize {
            let (ch, occ) = self.hops[i];
            self.load[ch as usize] += occ;
        }
    }

    /// The interconnect-imposed II bound of the booked load: the largest
    /// `⌈load / capacity⌉` over all channels, at least 1. Matches the
    /// paper's `IIbus = ⌈NComm · LatBus / NBus⌉` on a shared bus.
    pub fn bound(&self) -> i64 {
        self.load
            .iter()
            .zip(&self.caps)
            .map(|(&l, &c)| (l + c - 1) / c)
            .max()
            .unwrap_or(1)
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_machine::Interconnect;

    #[test]
    fn shared_bus_bound_matches_paper_formula() {
        // IIbus = ceil(NComm · LatBus / NBus).
        let cases = [
            (MachineConfig::two_cluster(32, 1, 1), 5, 5),
            (MachineConfig::two_cluster(32, 2, 2), 5, 5),
            (MachineConfig::two_cluster(32, 1, 2), 5, 10),
            (MachineConfig::two_cluster(32, 1, 1), 0, 1),
        ];
        for (m, ncomm, expect) in cases {
            let mut load = ChannelLoad::new(&m);
            for _ in 0..ncomm {
                load.add_pair(0, 1);
            }
            assert_eq!(load.bound(), expect, "{}", m.short_name());
        }
    }

    #[test]
    fn unified_machine_has_no_channels_and_bound_one() {
        let m = MachineConfig::unified(32);
        let load = ChannelLoad::new(&m);
        assert_eq!(load.bound(), 1);
    }

    #[test]
    fn ring_load_lands_on_each_hop_link() {
        let m = MachineConfig::homogeneous_with(
            4,
            (1, 1, 1),
            64,
            Interconnect::Ring {
                hop_latency: 2,
                links_per_hop: 1,
            },
        );
        let mut load = ChannelLoad::new(&m);
        // 0 → 2 crosses links 0 and 1, each for 2 cycles.
        load.add_pair(0, 2);
        assert_eq!(load.bound(), 2);
        // A second value over link 0 (0 → 1) stacks on the busiest link.
        load.add_pair(0, 1);
        assert_eq!(load.bound(), 4);
        // Traffic on the opposite side of the ring does not interfere.
        load.add_pair(2, 3);
        assert_eq!(load.bound(), 4);
    }

    #[test]
    fn point_to_point_pairs_do_not_contend() {
        let m = MachineConfig::homogeneous_with(
            4,
            (1, 1, 1),
            64,
            Interconnect::uniform_point_to_point(4, 3, 1),
        );
        let mut load = ChannelLoad::new(&m);
        // Pipelined links: occupancy 1 per departure, whatever the latency.
        for _ in 0..3 {
            load.add_pair(0, 1);
        }
        load.add_pair(1, 0);
        assert_eq!(load.bound(), 3);
    }

    #[test]
    fn comm_cost_is_pairwise_latency() {
        let ring = MachineConfig::homogeneous_with(
            4,
            (1, 1, 1),
            64,
            Interconnect::Ring {
                hop_latency: 2,
                links_per_hop: 1,
            },
        );
        assert_eq!(comm_cost(&ring, 1, 1), 0);
        assert_eq!(comm_cost(&ring, 1, 2), 2);
        assert_eq!(comm_cost(&ring, 2, 1), 6);
        let bus = MachineConfig::two_cluster(32, 1, 2);
        assert_eq!(comm_cost(&bus, 0, 1), 2);
        assert_eq!(comm_cost(&bus, 1, 0), 2);
    }
}
