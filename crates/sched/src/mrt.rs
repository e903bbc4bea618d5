//! Modulo reservation tables for functional units and interconnect
//! channels.
//!
//! All placement times are absolute cycles (possibly negative during
//! scheduling); a resource used at time `t` occupies kernel slot
//! `t mod II` (Euclidean, so negative times wrap correctly).

use gpsched_machine::{ClusterConfig, MachineConfig, ResourceKind};

/// Euclidean modulo slot of an absolute time.
pub fn slot(t: i64, ii: i64) -> usize {
    t.rem_euclid(ii) as usize
}

/// Reservation table of one cluster's functional units at a fixed II.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterMrt {
    ii: i64,
    caps: [u32; 3],
    /// Row-major usage counts, `used[kind · II + slot]`: one flat row
    /// rather than one vector per resource kind.
    used: Vec<u32>,
    /// Running sum of each kind's row, kept by `place`/`remove` so the
    /// slot totals the figure of merit reads cost O(1).
    totals: [u32; 3],
}

impl ClusterMrt {
    /// Creates an empty table for `cluster` at interval `ii`.
    ///
    /// # Panics
    ///
    /// Panics if `ii < 1`.
    pub fn new(cluster: &ClusterConfig, ii: i64) -> Self {
        assert!(ii >= 1, "ii must be positive");
        let caps = [
            cluster.units(ResourceKind::IntAlu),
            cluster.units(ResourceKind::FpAlu),
            cluster.units(ResourceKind::MemPort),
        ];
        ClusterMrt {
            ii,
            caps,
            used: vec![0; 3 * ii as usize],
            totals: [0; 3],
        }
    }

    /// Can an op of `kind` issue at absolute time `t`?
    pub fn can_place(&self, kind: ResourceKind, t: i64) -> bool {
        self.free_at(kind, t) > 0
    }

    /// Units of `kind` still free at the slot of absolute time `t`.
    pub fn free_at(&self, kind: ResourceKind, t: i64) -> u32 {
        let k = kind.index();
        self.caps[k] - self.used[k * self.ii as usize + slot(t, self.ii)]
    }

    /// Reserves one unit of `kind` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already full.
    pub fn place(&mut self, kind: ResourceKind, t: i64) {
        let k = kind.index();
        let s = slot(t, self.ii);
        let u = &mut self.used[k * self.ii as usize + s];
        assert!(*u < self.caps[k], "slot {s} of {kind} full");
        *u += 1;
        self.totals[k] += 1;
    }

    /// Releases one unit of `kind` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if nothing was reserved there.
    pub fn remove(&mut self, kind: ResourceKind, t: i64) {
        let k = kind.index();
        let s = slot(t, self.ii);
        let u = &mut self.used[k * self.ii as usize + s];
        assert!(*u > 0, "nothing reserved at slot {s} of {kind}");
        *u -= 1;
        self.totals[k] -= 1;
    }

    /// Total slots of `kind` per kernel window (`units × II`).
    pub fn capacity(&self, kind: ResourceKind) -> i64 {
        self.caps[kind.index()] as i64 * self.ii
    }

    /// Slots of `kind` currently used.
    pub fn used_slots(&self, kind: ResourceKind) -> i64 {
        self.totals[kind.index()] as i64
    }

    /// Free slots of `kind`.
    pub fn free_slots(&self, kind: ResourceKind) -> i64 {
        self.capacity(kind) - self.used_slots(kind)
    }
}

/// Reservation table of the inter-cluster interconnect: one modulo row
/// per channel group of the machine's topology (one row for the shared
/// bus(es), one per link for rings and point-to-point meshes; empty on
/// unified machines, which book no transfers).
///
/// A hop occupying a channel for `occ` consecutive cycles is schedulable
/// when every slot of its window has fewer than the channel's capacity
/// hops in flight. (With capacity 1 — every evaluated configuration —
/// this is exact; with more it ignores fragmentation across parallel
/// links, the same documented simplification the bus model made.)
///
/// The occupancy rows are one flat `Vec` (`used[ch · II + slot]`) and the
/// per-channel capacity — uniform across channels in every
/// [`gpsched_machine::Interconnect`] variant (bus count, p2p channels,
/// ring links per hop) — is a single scalar, so a table costs one
/// allocation, exactly like the single-bus table it replaced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelTable {
    ii: i64,
    nch: u32,
    cap: u32,
    used: Vec<u32>,
    /// Running sum of `used`, kept by `reserve`/`release`.
    total: u32,
}

impl ChannelTable {
    /// Creates an empty table shaped for `machine`'s channels.
    ///
    /// # Panics
    ///
    /// Panics if `ii < 1`.
    pub fn new(machine: &MachineConfig, ii: i64) -> Self {
        assert!(ii >= 1, "ii must be positive");
        let nch = machine.channel_count();
        let cap = if nch == 0 {
            0
        } else {
            machine.channel_capacity(0)
        };
        debug_assert!(
            (0..nch).all(|ch| machine.channel_capacity(ch) == cap),
            "channel capacities are uniform per topology"
        );
        ChannelTable {
            ii,
            nch: nch as u32,
            cap,
            used: vec![0; nch * ii as usize],
            total: 0,
        }
    }

    /// Can a hop occupy channel `ch` for `occ` cycles starting at absolute
    /// time `t`?
    ///
    /// Always `false` when `occ` exceeds the II (the window would overlap
    /// itself — a non-pipelined link cannot sustain one transfer per
    /// iteration then).
    #[inline]
    pub fn can_reserve(&self, ch: usize, t: i64, occ: i64) -> bool {
        if occ > self.ii {
            return false;
        }
        let base = ch * self.ii as usize;
        (0..occ).all(|j| self.used[base + slot(t + j, self.ii)] < self.cap)
    }

    /// Reserves channel `ch` for `occ` cycles starting at `t`.
    ///
    /// # Panics
    ///
    /// Panics if the window is not free.
    pub fn reserve(&mut self, ch: usize, t: i64, occ: i64) {
        assert!(
            self.can_reserve(ch, t, occ),
            "channel {ch} window at {t} not free"
        );
        let base = ch * self.ii as usize;
        for j in 0..occ {
            self.used[base + slot(t + j, self.ii)] += 1;
        }
        self.total += occ as u32;
    }

    /// Releases a hop previously reserved on `ch` at `t` for `occ` cycles.
    ///
    /// # Panics
    ///
    /// Panics if the window was not reserved.
    pub fn release(&mut self, ch: usize, t: i64, occ: i64) {
        let base = ch * self.ii as usize;
        for j in 0..occ {
            let s = slot(t + j, self.ii);
            assert!(
                self.used[base + s] > 0,
                "channel {ch} slot {s} not reserved"
            );
            self.used[base + s] -= 1;
        }
        self.total -= occ as u32;
    }

    /// Total interconnect slots per kernel window, over all channels.
    pub fn capacity(&self) -> i64 {
        self.nch as i64 * self.cap as i64 * self.ii
    }

    /// Interconnect slots currently occupied, over all channels.
    pub fn used_slots(&self) -> i64 {
        self.total as i64
    }

    /// Free interconnect slots.
    pub fn free_slots(&self) -> i64 {
        self.capacity() - self.used_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_machine::MachineConfig;

    fn cluster() -> ClusterConfig {
        *MachineConfig::two_cluster(32, 1, 1).cluster(0)
    }

    #[test]
    fn slot_wraps_negative_times() {
        assert_eq!(slot(-1, 4), 3);
        assert_eq!(slot(-5, 4), 3);
        assert_eq!(slot(7, 4), 3);
        assert_eq!(slot(0, 4), 0);
    }

    #[test]
    fn fu_capacity_per_slot() {
        let mut mrt = ClusterMrt::new(&cluster(), 2); // 2 int units
        assert!(mrt.can_place(ResourceKind::IntAlu, 0));
        mrt.place(ResourceKind::IntAlu, 0);
        mrt.place(ResourceKind::IntAlu, 0);
        assert!(!mrt.can_place(ResourceKind::IntAlu, 0));
        // Same slot modulo II.
        assert!(!mrt.can_place(ResourceKind::IntAlu, 2));
        assert!(mrt.can_place(ResourceKind::IntAlu, 1));
        mrt.remove(ResourceKind::IntAlu, 2); // releases slot 0
        assert!(mrt.can_place(ResourceKind::IntAlu, 0));
    }

    #[test]
    fn fu_slot_accounting() {
        let mut mrt = ClusterMrt::new(&cluster(), 3);
        assert_eq!(mrt.capacity(ResourceKind::MemPort), 6);
        assert_eq!(mrt.free_slots(ResourceKind::MemPort), 6);
        mrt.place(ResourceKind::MemPort, 4);
        assert_eq!(mrt.used_slots(ResourceKind::MemPort), 1);
        assert_eq!(mrt.free_slots(ResourceKind::MemPort), 5);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn fu_overflow_panics() {
        let mut mrt = ClusterMrt::new(&cluster(), 1);
        mrt.place(ResourceKind::FpAlu, 0);
        mrt.place(ResourceKind::FpAlu, 0);
        mrt.place(ResourceKind::FpAlu, 0);
    }

    #[test]
    fn bus_channel_occupies_consecutive_slots() {
        let m = MachineConfig::two_cluster(32, 1, 2);
        let mut net = ChannelTable::new(&m, 4);
        assert!(net.can_reserve(0, 1, 2));
        net.reserve(0, 1, 2); // occupies slots 1 and 2
        assert!(!net.can_reserve(0, 0, 2)); // window 0,1 hits slot 1
        assert!(!net.can_reserve(0, 2, 2)); // window 2,3 hits slot 2
        assert!(net.can_reserve(0, 3, 2)); // window 3,0 free
        assert_eq!(net.used_slots(), 2);
        net.release(0, 1, 2);
        assert_eq!(net.used_slots(), 0);
    }

    #[test]
    fn occupancy_longer_than_ii_is_infeasible() {
        let m = MachineConfig::two_cluster(32, 1, 2);
        let net = ChannelTable::new(&m, 1);
        assert!(!net.can_reserve(0, 0, 2));
    }

    #[test]
    fn two_buses_double_capacity() {
        let m = MachineConfig::two_cluster(32, 2, 1);
        let mut net = ChannelTable::new(&m, 2);
        net.reserve(0, 0, 1);
        assert!(net.can_reserve(0, 0, 1));
        net.reserve(0, 0, 1);
        assert!(!net.can_reserve(0, 0, 1));
        assert!(net.can_reserve(0, 1, 1));
        assert_eq!(net.capacity(), 4);
        assert_eq!(net.free_slots(), 2);
    }

    #[test]
    fn ring_channels_are_independent() {
        let m = gpsched_machine::MachineConfig::homogeneous_with(
            4,
            (1, 1, 1),
            64,
            gpsched_machine::Interconnect::Ring {
                hop_latency: 1,
                links_per_hop: 1,
            },
        );
        let mut net = ChannelTable::new(&m, 2);
        net.reserve(0, 0, 1);
        assert!(!net.can_reserve(0, 0, 1));
        assert!(net.can_reserve(1, 0, 1)); // a different link
        assert_eq!(net.capacity(), 4 * 2);
    }

    #[test]
    fn unified_machine_has_an_empty_table() {
        let m = MachineConfig::unified(32);
        let net = ChannelTable::new(&m, 3);
        assert_eq!(net.capacity(), 0);
        assert_eq!(net.free_slots(), 0);
    }
}
