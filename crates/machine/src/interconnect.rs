//! The inter-cluster interconnect model.
//!
//! The paper evaluates exactly one interconnect shape — a small number of
//! shared, non-pipelined buses with a uniform transfer latency — and that
//! shape used to be hard-coded through every layer of this workspace.
//! [`Interconnect`] opens the axis: a machine now carries one of
//!
//! * [`Interconnect::None`] — single-cluster machines; transfers are
//!   impossible and asking for a route panics;
//! * [`Interconnect::SharedBus`] — the paper's model (`pipelined: false`),
//!   plus a pipelined variant where a transfer occupies a bus only for its
//!   issue cycle while still delivering after the full latency;
//! * [`Interconnect::PointToPoint`] — a dedicated pipelined link per
//!   ordered cluster pair with a per-pair latency matrix;
//! * [`Interconnect::Ring`] — a unidirectional ring of non-pipelined
//!   links; a transfer hops cluster to cluster, occupying each link for
//!   the hop latency.
//!
//! Consumers see the interconnect through a uniform *channel* view: the
//! interconnect exposes `channel_count()` reservable channel groups, each
//! with a per-cycle capacity, and a transfer from `a` to `b` follows the
//! deterministic route [`Interconnect::route`] — a sequence of [`Hop`]s,
//! each naming the channel it books, its start offset relative to the
//! transfer's departure, and how many consecutive cycles it occupies the
//! channel. The scheduler's reservation tables, the partitioner's
//! bandwidth bound and the simulator's occupancy audit all work purely in
//! these terms, so a new topology only has to implement this trait-like
//! surface.

use std::fmt;

/// One hop of a transfer's route: which channel it books, when (relative
/// to the transfer's departure cycle) and for how many consecutive cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// Channel group index, in `0..channel_count()`.
    pub channel: usize,
    /// Start offset relative to the transfer's departure cycle.
    pub offset: i64,
    /// Consecutive cycles the hop occupies one link of the channel.
    pub occupancy: i64,
}

/// The inter-cluster interconnect of a [`crate::MachineConfig`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Interconnect {
    /// No interconnect: the single-cluster machines. Transfers are
    /// impossible; [`Interconnect::route`] panics if asked.
    None,
    /// `count` buses shared by every cluster pair, uniform `latency`.
    /// Non-pipelined buses (`pipelined: false`, the paper's model) are
    /// occupied for the whole latency; pipelined buses accept a new
    /// transfer every cycle and only book the departure cycle.
    SharedBus {
        /// Number of buses.
        count: u32,
        /// End-to-end transfer latency in cycles.
        latency: u32,
        /// Whether a bus accepts a new transfer every cycle.
        pipelined: bool,
    },
    /// A dedicated pipelined link per ordered cluster pair. `latency` is
    /// the row-major `n × n` matrix (`latency[from·n + to]`, diagonal 0);
    /// `channels` parallel transfers may depart on each link per cycle.
    PointToPoint {
        /// Parallel transfers each link accepts per cycle.
        channels: u32,
        /// Row-major per-ordered-pair latency matrix, diagonal zero.
        latency: Vec<u32>,
    },
    /// A unidirectional ring: link `i` connects cluster `i` to
    /// `(i + 1) mod n`. A transfer takes `(to − from) mod n` hops, each
    /// occupying one of the `links_per_hop` links of its hop for
    /// `hop_latency` cycles (ring links are non-pipelined).
    Ring {
        /// Latency (and link occupancy) of one hop.
        hop_latency: u32,
        /// Parallel links per hop.
        links_per_hop: u32,
    },
}

impl Interconnect {
    /// The paper's interconnect: `count` shared non-pipelined buses of
    /// uniform `latency`.
    pub fn legacy_bus(count: u32, latency: u32) -> Self {
        Interconnect::SharedBus {
            count,
            latency,
            pipelined: false,
        }
    }

    /// A uniform point-to-point mesh over `n` clusters: every ordered
    /// pair gets a link of `latency`, `channels` transfers per cycle.
    pub fn uniform_point_to_point(n: usize, latency: u32, channels: u32) -> Self {
        let mut m = vec![latency; n * n];
        for i in 0..n {
            m[i * n + i] = 0;
        }
        Interconnect::PointToPoint {
            channels,
            latency: m,
        }
    }

    /// Validates the interconnect against a cluster count, panicking on
    /// inconsistent shapes. [`crate::MachineConfig::custom`] calls this.
    ///
    /// # Panics
    ///
    /// * `None` with more than one cluster, or any other variant with a
    ///   single cluster;
    /// * `SharedBus` with zero buses or zero latency;
    /// * `PointToPoint` with zero channels, a matrix not `n × n`, a
    ///   non-zero diagonal or a zero off-diagonal latency;
    /// * `Ring` with zero hop latency or zero links per hop.
    pub fn validate(&self, nclusters: usize) {
        match self {
            Interconnect::None => assert!(
                nclusters == 1,
                "multi-cluster machines need an interconnect"
            ),
            _ => assert!(
                nclusters > 1,
                "single-cluster machines take Interconnect::None"
            ),
        }
        match self {
            Interconnect::None => {}
            Interconnect::SharedBus { count, latency, .. } => {
                assert!(*count > 0, "need at least one bus");
                assert!(*latency > 0, "bus latency must be positive");
            }
            Interconnect::PointToPoint { channels, latency } => {
                assert!(*channels > 0, "need at least one channel per link");
                assert_eq!(
                    latency.len(),
                    nclusters * nclusters,
                    "point-to-point latency matrix must be n × n"
                );
                for from in 0..nclusters {
                    for to in 0..nclusters {
                        let l = latency[from * nclusters + to];
                        if from == to {
                            assert_eq!(l, 0, "diagonal latency must be zero");
                        } else {
                            assert!(l > 0, "link latency {from}→{to} must be positive");
                        }
                    }
                }
            }
            Interconnect::Ring {
                hop_latency,
                links_per_hop,
            } => {
                assert!(*hop_latency > 0, "ring hop latency must be positive");
                assert!(*links_per_hop > 0, "ring needs at least one link per hop");
            }
        }
    }

    /// Number of reservable channel groups under `nclusters` clusters:
    /// 0 (`None`), 1 (`SharedBus`), `n²` (`PointToPoint`, channel
    /// `from·n + to`) or `n` (`Ring`, channel `i` = link `i → i+1`).
    #[inline]
    pub fn channel_count(&self, nclusters: usize) -> usize {
        match self {
            Interconnect::None => 0,
            Interconnect::SharedBus { .. } => 1,
            Interconnect::PointToPoint { .. } => nclusters * nclusters,
            Interconnect::Ring { .. } => nclusters,
        }
    }

    /// Parallel links of channel group `ch` (its per-cycle capacity).
    ///
    /// # Panics
    ///
    /// Panics on `Interconnect::None` (it has no channels).
    #[inline]
    pub fn channel_capacity(&self, ch: usize) -> u32 {
        let _ = ch;
        match self {
            Interconnect::None => panic!("no interconnect: no channels exist"),
            Interconnect::SharedBus { count, .. } => *count,
            Interconnect::PointToPoint { channels, .. } => *channels,
            Interconnect::Ring { links_per_hop, .. } => *links_per_hop,
        }
    }

    /// End-to-end transfer latency from cluster `from` to `to` (0 when
    /// `from == to`).
    #[inline]
    pub fn latency(&self, from: usize, to: usize, nclusters: usize) -> i64 {
        if from == to {
            return 0;
        }
        match self {
            Interconnect::None => {
                panic!("no interconnect: single-cluster machines move no values")
            }
            Interconnect::SharedBus { latency, .. } => *latency as i64,
            Interconnect::PointToPoint { latency, .. } => latency[from * nclusters + to] as i64,
            Interconnect::Ring { hop_latency, .. } => {
                let hops = (to + nclusters - from) % nclusters;
                hops as i64 * *hop_latency as i64
            }
        }
    }

    /// The deterministic route of a transfer `from → to`: an
    /// allocation-free iterator over the [`Hop`]s to book.
    ///
    /// # Panics
    ///
    /// Panics on `Interconnect::None` (the single-cluster machines must
    /// never book a transfer) or when `from == to`.
    #[inline]
    pub fn route(&self, from: usize, to: usize, nclusters: usize) -> RouteIter {
        assert_ne!(from, to, "a route needs distinct endpoints");
        match self {
            Interconnect::None => {
                panic!("no interconnect: single-cluster machines must never book a transfer")
            }
            Interconnect::SharedBus {
                latency, pipelined, ..
            } => RouteIter::single(Hop {
                channel: 0,
                offset: 0,
                occupancy: if *pipelined { 1 } else { *latency as i64 },
            }),
            Interconnect::PointToPoint { .. } => RouteIter::single(Hop {
                channel: from * nclusters + to,
                offset: 0,
                occupancy: 1,
            }),
            Interconnect::Ring { hop_latency, .. } => RouteIter {
                kind: RouteKind::Ring {
                    from,
                    nclusters,
                    hop_latency: *hop_latency as i64,
                    hops: (to + nclusters - from) % nclusters,
                    next: 0,
                },
            },
        }
    }

    /// The largest cross-cluster latency of the topology — the worst-case
    /// delay a cut dependence can pay. The coarsening edge weights charge
    /// this as the hypothetical cut cost before cluster placements exist.
    pub fn max_latency(&self, nclusters: usize) -> i64 {
        match self {
            Interconnect::None => 0,
            Interconnect::SharedBus { latency, .. } => *latency as i64,
            Interconnect::PointToPoint { latency, .. } => {
                latency.iter().copied().max().unwrap_or(0) as i64
            }
            Interconnect::Ring { hop_latency, .. } => (nclusters as i64 - 1) * *hop_latency as i64,
        }
    }

    /// A short kebab-case tag of the variant, used in reports and errors.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Interconnect::None => "none",
            Interconnect::SharedBus {
                pipelined: false, ..
            } => "bus",
            Interconnect::SharedBus {
                pipelined: true, ..
            } => "pipelined-bus",
            Interconnect::PointToPoint { .. } => "p2p",
            Interconnect::Ring { .. } => "ring",
        }
    }
}

impl fmt::Display for Interconnect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interconnect::None => write!(f, "no interconnect"),
            Interconnect::SharedBus {
                count,
                latency,
                pipelined,
            } => write!(
                f,
                "{count} {}bus(es) lat {latency}",
                if *pipelined { "pipelined " } else { "" }
            ),
            Interconnect::PointToPoint { channels, latency } => {
                let (lo, hi) = latency
                    .iter()
                    .filter(|&&l| l > 0)
                    .fold((u32::MAX, 0u32), |(lo, hi), &l| (lo.min(l), hi.max(l)));
                if lo == hi || lo == u32::MAX {
                    write!(f, "p2p links lat {} ×{channels}", hi)
                } else {
                    write!(f, "p2p links lat {lo}–{hi} ×{channels}")
                }
            }
            Interconnect::Ring {
                hop_latency,
                links_per_hop,
            } => write!(f, "ring hop lat {hop_latency} ×{links_per_hop}"),
        }
    }
}

enum RouteKind {
    Single(Option<Hop>),
    Ring {
        from: usize,
        nclusters: usize,
        hop_latency: i64,
        hops: usize,
        next: usize,
    },
}

/// Allocation-free iterator over the [`Hop`]s of one route (see
/// [`Interconnect::route`]).
pub struct RouteIter {
    kind: RouteKind,
}

impl RouteIter {
    fn single(hop: Hop) -> Self {
        RouteIter {
            kind: RouteKind::Single(Some(hop)),
        }
    }
}

impl Iterator for RouteIter {
    type Item = Hop;

    #[inline]
    fn next(&mut self) -> Option<Hop> {
        match &mut self.kind {
            RouteKind::Single(h) => h.take(),
            RouteKind::Ring {
                from,
                nclusters,
                hop_latency,
                hops,
                next,
            } => {
                if next < hops {
                    let k = *next;
                    *next += 1;
                    Some(Hop {
                        channel: (*from + k) % *nclusters,
                        offset: k as i64 * *hop_latency,
                        occupancy: *hop_latency,
                    })
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_bus_route_matches_legacy_model() {
        let ic = Interconnect::legacy_bus(1, 2);
        ic.validate(2);
        assert_eq!(ic.channel_count(2), 1);
        assert_eq!(ic.channel_capacity(0), 1);
        assert_eq!(ic.latency(0, 1, 2), 2);
        assert_eq!(ic.latency(1, 1, 2), 0);
        let hops: Vec<Hop> = ic.route(0, 1, 2).collect();
        assert_eq!(
            hops,
            vec![Hop {
                channel: 0,
                offset: 0,
                occupancy: 2
            }]
        );
    }

    #[test]
    fn pipelined_bus_books_one_cycle_but_delivers_late() {
        let ic = Interconnect::SharedBus {
            count: 1,
            latency: 3,
            pipelined: true,
        };
        ic.validate(2);
        assert_eq!(ic.latency(0, 1, 2), 3);
        let hops: Vec<Hop> = ic.route(1, 0, 2).collect();
        assert_eq!(hops[0].occupancy, 1);
    }

    #[test]
    fn point_to_point_uses_per_pair_links() {
        let ic = Interconnect::uniform_point_to_point(3, 2, 1);
        ic.validate(3);
        assert_eq!(ic.channel_count(3), 9);
        assert_eq!(ic.latency(0, 2, 3), 2);
        let hops: Vec<Hop> = ic.route(0, 2, 3).collect();
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].channel, 2);
        assert_eq!(hops[0].occupancy, 1);
        // A different pair books a different channel.
        assert_eq!(ic.route(2, 0, 3).next().unwrap().channel, 6);
    }

    #[test]
    fn ring_hops_around() {
        let ic = Interconnect::Ring {
            hop_latency: 2,
            links_per_hop: 1,
        };
        ic.validate(4);
        assert_eq!(ic.channel_count(4), 4);
        // 3 → 1 wraps: hops on links 3 and 0.
        assert_eq!(ic.latency(3, 1, 4), 4);
        let hops: Vec<Hop> = ic.route(3, 1, 4).collect();
        assert_eq!(
            hops,
            vec![
                Hop {
                    channel: 3,
                    offset: 0,
                    occupancy: 2
                },
                Hop {
                    channel: 0,
                    offset: 2,
                    occupancy: 2
                },
            ]
        );
        // Adjacent transfer: one hop.
        assert_eq!(ic.route(0, 1, 4).count(), 1);
    }

    #[test]
    fn max_latency_per_topology() {
        assert_eq!(Interconnect::None.max_latency(1), 0);
        assert_eq!(Interconnect::legacy_bus(2, 3).max_latency(2), 3);
        assert_eq!(
            Interconnect::uniform_point_to_point(4, 2, 1).max_latency(4),
            2
        );
        assert_eq!(
            Interconnect::Ring {
                hop_latency: 2,
                links_per_hop: 1
            }
            .max_latency(4),
            6
        );
    }

    #[test]
    #[should_panic(expected = "never book a transfer")]
    fn none_refuses_routes() {
        Interconnect::None.route(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "need an interconnect")]
    fn none_requires_single_cluster() {
        Interconnect::None.validate(2);
    }

    #[test]
    #[should_panic(expected = "take Interconnect::None")]
    fn bus_rejects_single_cluster() {
        Interconnect::legacy_bus(1, 1).validate(1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_latency_rejected() {
        Interconnect::legacy_bus(1, 0).validate(2);
    }

    #[test]
    #[should_panic(expected = "n × n")]
    fn p2p_matrix_shape_checked() {
        Interconnect::PointToPoint {
            channels: 1,
            latency: vec![0, 1, 1],
        }
        .validate(2);
    }

    #[test]
    fn display_is_compact() {
        assert!(Interconnect::legacy_bus(1, 2).to_string().contains("bus"));
        assert!(Interconnect::uniform_point_to_point(2, 1, 1)
            .to_string()
            .contains("p2p"));
        assert!(Interconnect::Ring {
            hop_latency: 1,
            links_per_hop: 2
        }
        .to_string()
        .contains("ring"));
    }
}
