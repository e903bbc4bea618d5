//! Machine and cluster configuration types.

use crate::interconnect::{Interconnect, RouteIter};
use crate::latency::LatencyModel;
use crate::op::OpClass;
use crate::resources::ResourceKind;
use std::fmt;

/// Resources owned by one cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClusterConfig {
    /// Number of integer ALUs.
    pub int_units: u32,
    /// Number of floating-point ALUs.
    pub fp_units: u32,
    /// Number of memory ports.
    pub mem_units: u32,
    /// Number of registers in this cluster's register file.
    pub registers: u32,
}

impl ClusterConfig {
    /// Number of units of the given kind.
    pub fn units(&self, kind: ResourceKind) -> u32 {
        match kind {
            ResourceKind::IntAlu => self.int_units,
            ResourceKind::FpAlu => self.fp_units,
            ResourceKind::MemPort => self.mem_units,
        }
    }

    /// Total functional units (the cluster's issue width).
    pub fn issue_width(&self) -> u32 {
        self.int_units + self.fp_units + self.mem_units
    }
}

/// A clustered VLIW machine: a set of clusters plus the inter-cluster
/// [`Interconnect`] and the latency model.
///
/// Construct with [`MachineConfig::unified`], [`MachineConfig::two_cluster`],
/// [`MachineConfig::four_cluster`] (the paper's Table 1 presets) or
/// [`MachineConfig::custom`] with any [`Interconnect`] topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    clusters: Vec<ClusterConfig>,
    interconnect: Interconnect,
    /// Operation latencies.
    pub latencies: LatencyModel,
}

impl MachineConfig {
    /// The unified (single-cluster) 12-issue baseline: 4 integer units,
    /// 4 FP units, 4 memory ports and the whole register file. There is
    /// no interconnect ([`Interconnect::None`]) — a unified machine can
    /// never book a transfer, and asking for one panics.
    pub fn unified(total_registers: u32) -> Self {
        MachineConfig {
            clusters: vec![ClusterConfig {
                int_units: 4,
                fp_units: 4,
                mem_units: 4,
                registers: total_registers,
            }],
            interconnect: Interconnect::None,
            latencies: LatencyModel::default(),
        }
    }

    /// The paper's 2-cluster machine: 2 units of each kind and half the
    /// registers per cluster, on `buses` shared non-pipelined buses of
    /// `bus_latency`.
    ///
    /// # Panics
    ///
    /// Panics if `total_registers` is not divisible by 2 or `buses == 0`.
    pub fn two_cluster(total_registers: u32, buses: u32, bus_latency: u32) -> Self {
        Self::homogeneous(2, (2, 2, 2), total_registers, buses, bus_latency)
    }

    /// The paper's 4-cluster machine: 1 unit of each kind and a quarter of
    /// the registers per cluster, on `buses` shared non-pipelined buses of
    /// `bus_latency`.
    ///
    /// # Panics
    ///
    /// Panics if `total_registers` is not divisible by 4 or `buses == 0`.
    pub fn four_cluster(total_registers: u32, buses: u32, bus_latency: u32) -> Self {
        Self::homogeneous(4, (1, 1, 1), total_registers, buses, bus_latency)
    }

    /// A homogeneous clustered machine with `n` identical clusters on the
    /// paper's shared-bus interconnect.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (single-cluster machines use
    /// [`MachineConfig::unified`]), `buses == 0`, `bus_latency == 0`, or
    /// `total_registers` is not divisible by `n`.
    pub fn homogeneous(
        n: u32,
        units: (u32, u32, u32),
        total_registers: u32,
        buses: u32,
        bus_latency: u32,
    ) -> Self {
        Self::homogeneous_with(
            n,
            units,
            total_registers,
            Interconnect::legacy_bus(buses, bus_latency),
        )
    }

    /// A homogeneous clustered machine with an explicit [`Interconnect`]
    /// topology.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `total_registers` is not divisible by `n`, or
    /// the interconnect fails [`Interconnect::validate`].
    pub fn homogeneous_with(
        n: u32,
        (int_units, fp_units, mem_units): (u32, u32, u32),
        total_registers: u32,
        interconnect: Interconnect,
    ) -> Self {
        assert!(
            n >= 2,
            "homogeneous machines are clustered; use `unified` for one cluster"
        );
        assert_eq!(
            total_registers % n,
            0,
            "registers must divide evenly among clusters"
        );
        interconnect.validate(n as usize);
        MachineConfig {
            clusters: (0..n)
                .map(|_| ClusterConfig {
                    int_units,
                    fp_units,
                    mem_units,
                    registers: total_registers / n,
                })
                .collect(),
            interconnect,
            latencies: LatencyModel::default(),
        }
    }

    /// A fully custom machine.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is empty or the interconnect is inconsistent
    /// with the cluster count ([`Interconnect::validate`]: single-cluster
    /// machines take [`Interconnect::None`], clustered machines anything
    /// else).
    pub fn custom(
        clusters: Vec<ClusterConfig>,
        interconnect: Interconnect,
        latencies: LatencyModel,
    ) -> Self {
        assert!(!clusters.is_empty(), "need at least one cluster");
        interconnect.validate(clusters.len());
        MachineConfig {
            clusters,
            interconnect,
            latencies,
        }
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Returns `true` for the single-cluster baseline.
    pub fn is_unified(&self) -> bool {
        self.clusters.len() == 1
    }

    /// Configuration of cluster `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cluster(&self, i: usize) -> &ClusterConfig {
        &self.clusters[i]
    }

    /// Iterates over the clusters.
    pub fn clusters(&self) -> impl ExactSizeIterator<Item = &ClusterConfig> {
        self.clusters.iter()
    }

    /// The inter-cluster interconnect.
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// End-to-end transfer latency from cluster `from` to `to` (0 when
    /// `from == to`).
    #[inline]
    pub fn transfer_latency(&self, from: usize, to: usize) -> i64 {
        self.interconnect.latency(from, to, self.clusters.len())
    }

    /// Number of reservable interconnect channel groups.
    #[inline]
    pub fn channel_count(&self) -> usize {
        self.interconnect.channel_count(self.clusters.len())
    }

    /// Per-cycle capacity of channel group `ch`.
    #[inline]
    pub fn channel_capacity(&self, ch: usize) -> u32 {
        self.interconnect.channel_capacity(ch)
    }

    /// The deterministic route of a transfer `from → to` (see
    /// [`Interconnect::route`]).
    ///
    /// # Panics
    ///
    /// Panics on single-cluster machines ([`Interconnect::None`]) — they
    /// must never book a transfer — or when `from == to`.
    #[inline]
    pub fn route(&self, from: usize, to: usize) -> RouteIter {
        self.interconnect.route(from, to, self.clusters.len())
    }

    /// The largest cross-cluster transfer latency of the topology.
    pub fn max_transfer_latency(&self) -> i64 {
        self.interconnect.max_latency(self.clusters.len())
    }

    /// The full pairwise transfer-latency table, row-major
    /// (`table[from · n + to]`, diagonal 0). Hot paths that consult
    /// latencies per candidate (the scheduler's quick-reject, the
    /// evaluator's cut refresh) resolve the topology once through this
    /// table instead of dispatching per query.
    pub fn transfer_latency_table(&self) -> Vec<i64> {
        let n = self.clusters.len();
        let mut table = vec![0i64; n * n];
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    table[from * n + to] = self.transfer_latency(from, to);
                }
            }
        }
        table
    }

    /// Total issue width across clusters.
    pub fn issue_width(&self) -> u32 {
        self.clusters.iter().map(ClusterConfig::issue_width).sum()
    }

    /// Total units of `kind` across clusters.
    pub fn total_units(&self, kind: ResourceKind) -> u32 {
        self.clusters.iter().map(|c| c.units(kind)).sum()
    }

    /// Total registers across clusters.
    pub fn total_registers(&self) -> u32 {
        self.clusters.iter().map(|c| c.registers).sum()
    }

    /// Latency of an operation class under this machine's latency model.
    pub fn latency(&self, op: OpClass) -> u32 {
        self.latencies.latency(op)
    }

    /// A short identifier used in reports, derived from the shape:
    /// `u-r64` (unified), `c2r32b1l1` (2 clusters, 32 registers, 1 shared
    /// bus of latency 1), `c2r32pb1l2` (pipelined bus),
    /// `c4r64ring2x1` (ring, hop latency 2, 1 link per hop),
    /// `c4r64p2p1x1` (uniform point-to-point, latency 1, 1 channel) or
    /// `c4r64p2p1-3x1` for a non-uniform latency matrix.
    pub fn short_name(&self) -> String {
        if self.is_unified() {
            return format!("u-r{}", self.total_registers());
        }
        let head = format!("c{}r{}", self.cluster_count(), self.total_registers());
        match &self.interconnect {
            Interconnect::None => unreachable!("clustered machines have an interconnect"),
            Interconnect::SharedBus {
                count,
                latency,
                pipelined,
            } => format!(
                "{head}{}{count}l{latency}",
                if *pipelined { "pb" } else { "b" }
            ),
            Interconnect::Ring {
                hop_latency,
                links_per_hop,
            } => format!("{head}ring{hop_latency}x{links_per_hop}"),
            Interconnect::PointToPoint { channels, latency } => {
                let (lo, hi) = latency
                    .iter()
                    .filter(|&&l| l > 0)
                    .fold((u32::MAX, 0u32), |(lo, hi), &l| (lo.min(l), hi.max(l)));
                if lo == hi || lo == u32::MAX {
                    format!("{head}p2p{hi}x{channels}")
                } else {
                    format!("{head}p2p{lo}-{hi}x{channels}")
                }
            }
        }
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unified() {
            let c = &self.clusters[0];
            write!(
                f,
                "unified 12-issue ({}i/{}f/{}m, {} regs)",
                c.int_units, c.fp_units, c.mem_units, c.registers
            )
        } else {
            let c = &self.clusters[0];
            write!(
                f,
                "{} clusters × ({}i/{}f/{}m, {} regs), {}",
                self.clusters.len(),
                c.int_units,
                c.fp_units,
                c.mem_units,
                c.registers,
                self.interconnect
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_preset() {
        let m = MachineConfig::unified(64);
        assert!(m.is_unified());
        assert_eq!(m.issue_width(), 12);
        assert_eq!(m.total_registers(), 64);
        assert_eq!(m.total_units(ResourceKind::FpAlu), 4);
        assert_eq!(m.short_name(), "u-r64");
        // The wart is gone: no placeholder bus, no channels at all.
        assert_eq!(*m.interconnect(), Interconnect::None);
        assert_eq!(m.channel_count(), 0);
        assert_eq!(m.max_transfer_latency(), 0);
    }

    #[test]
    #[should_panic(expected = "never book a transfer")]
    fn unified_machine_refuses_transfers() {
        MachineConfig::unified(32).route(0, 1);
    }

    #[test]
    fn two_cluster_preset() {
        let m = MachineConfig::two_cluster(32, 1, 1);
        assert_eq!(m.cluster_count(), 2);
        assert_eq!(m.issue_width(), 12);
        assert_eq!(m.cluster(1).registers, 16);
        assert_eq!(m.total_units(ResourceKind::IntAlu), 4);
        assert_eq!(m.short_name(), "c2r32b1l1");
        assert_eq!(m.transfer_latency(0, 1), 1);
        assert_eq!(m.channel_count(), 1);
    }

    #[test]
    fn four_cluster_preset() {
        let m = MachineConfig::four_cluster(64, 1, 2);
        assert_eq!(m.cluster_count(), 4);
        assert_eq!(m.issue_width(), 12);
        assert_eq!(m.cluster(3).registers, 16);
        assert_eq!(m.cluster(0).units(ResourceKind::MemPort), 1);
        assert_eq!(m.short_name(), "c4r64b1l2");
    }

    #[test]
    fn topology_short_names() {
        let ring = MachineConfig::homogeneous_with(
            4,
            (1, 1, 1),
            64,
            Interconnect::Ring {
                hop_latency: 2,
                links_per_hop: 1,
            },
        );
        assert_eq!(ring.short_name(), "c4r64ring2x1");
        assert_eq!(ring.transfer_latency(0, 3), 6);
        assert_eq!(ring.transfer_latency(3, 0), 2);

        let p2p = MachineConfig::homogeneous_with(
            4,
            (1, 1, 1),
            64,
            Interconnect::uniform_point_to_point(4, 1, 1),
        );
        assert_eq!(p2p.short_name(), "c4r64p2p1x1");
        assert_eq!(p2p.channel_count(), 16);

        let pb = MachineConfig::homogeneous_with(
            2,
            (2, 2, 2),
            32,
            Interconnect::SharedBus {
                count: 1,
                latency: 2,
                pipelined: true,
            },
        );
        assert_eq!(pb.short_name(), "c2r32pb1l2");
        assert_eq!(pb.route(0, 1).next().unwrap().occupancy, 1);
    }

    #[test]
    fn all_presets_have_equal_total_resources() {
        let u = MachineConfig::unified(32);
        let c2 = MachineConfig::two_cluster(32, 1, 1);
        let c4 = MachineConfig::four_cluster(32, 1, 1);
        for kind in ResourceKind::ALL {
            assert_eq!(u.total_units(kind), c2.total_units(kind));
            assert_eq!(u.total_units(kind), c4.total_units(kind));
        }
        assert_eq!(u.total_registers(), c2.total_registers());
        assert_eq!(u.total_registers(), c4.total_registers());
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn registers_must_divide() {
        MachineConfig::four_cluster(30, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one bus")]
    fn buses_required() {
        MachineConfig::two_cluster(32, 0, 1);
    }

    #[test]
    #[should_panic(expected = "need an interconnect")]
    fn custom_multi_cluster_needs_interconnect() {
        let c = ClusterConfig {
            int_units: 1,
            fp_units: 1,
            mem_units: 1,
            registers: 8,
        };
        MachineConfig::custom(vec![c, c], Interconnect::None, LatencyModel::default());
    }

    #[test]
    fn custom_machine_and_display() {
        let m = MachineConfig::custom(
            vec![
                ClusterConfig {
                    int_units: 3,
                    fp_units: 1,
                    mem_units: 2,
                    registers: 24,
                },
                ClusterConfig {
                    int_units: 1,
                    fp_units: 3,
                    mem_units: 2,
                    registers: 40,
                },
            ],
            Interconnect::legacy_bus(2, 2),
            LatencyModel::default(),
        );
        assert_eq!(m.issue_width(), 12);
        assert_eq!(m.total_registers(), 64);
        assert!(!m.is_unified());
        assert!(m.to_string().contains("2 clusters"));
        assert!(m.to_string().contains("bus"));
        assert!(MachineConfig::unified(32).to_string().contains("unified"));
    }
}
