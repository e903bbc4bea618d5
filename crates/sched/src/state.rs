//! The partial modulo schedule: placement, communication, spill.
//!
//! [`PartialSchedule`] owns the reservation tables, the register-pressure
//! table, the inter-cluster transfers and the spills of one scheduling
//! attempt at a fixed II. Placement is transactional through an **undo
//! log**: every mutation on the placement path records its inverse, so a
//! trial is bracketed by [`PartialSchedule::begin_trial`] and either
//! [`PartialSchedule::commit_trial`] (keep, drop the log suffix) or
//! [`PartialSchedule::rollback_trial`] (apply the inverses in reverse,
//! O(mutations of that trial)). This replaces the clone-per-trial model —
//! re-cloning ~10 KB of tables per candidate — while still matching the
//! paper's "no backtracking" design (§3.3.2): committed placements are
//! never unwound, only failed trials are.
//!
//! Every booking table has an exact inverse ([`ClusterMrt::remove`],
//! [`ChannelTable::release`], the signed [`PressureTable`] application),
//! so a rollback restores the state bit-identically; the
//! `GPSCHED_SHADOW_UNDO` environment mode cross-checks each rollback
//! against a shadow clone taken at `begin_trial` (see DESIGN.md §6.5).

use crate::lifetime::PressureTable;
use crate::mrt::{ChannelTable, ClusterMrt};
use gpsched_ddg::{Ddg, DepKind, OpId};
use gpsched_machine::{MachineConfig, OpClass, ResourceKind};
use std::sync::OnceLock;

/// Where and when an op was placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Cluster index.
    pub cluster: usize,
    /// Absolute issue cycle (normalized to ≥ 0 only in the final
    /// [`crate::Schedule`]).
    pub time: i64,
}

/// How a value crosses clusters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommKind {
    /// Directly over the interconnect: departs at `start`, follows the
    /// topology's route (booking every hop's channel) and arrives after
    /// the pair's end-to-end transfer latency.
    Direct {
        /// Transfer departure cycle (register of the producer is read
        /// then).
        start: i64,
    },
    /// Through memory: a store in the source cluster, a load in the
    /// destination cluster (§3.3.2's bus-relief transformation).
    Memory {
        /// Store issue cycle (source cluster memory port).
        store: i64,
        /// Load issue cycle (destination cluster memory port).
        load: i64,
        /// The store is shared with a spill (no separate memory slot).
        reuses_spill: bool,
    },
}

/// One inter-cluster value transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Producing op (index).
    pub producer: usize,
    /// Source cluster.
    pub from: usize,
    /// Destination cluster.
    pub to: usize,
    /// Transport used.
    pub kind: CommKind,
    /// Cycle the producer's register is read in the source cluster.
    pub read_time: i64,
    /// Cycle the value becomes available in the destination cluster.
    pub arrival: i64,
}

/// A reload inserted for a spilled value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillLoad {
    /// Load issue cycle.
    pub time: i64,
    /// The consumer read this reload feeds.
    pub use_time: i64,
}

/// A spilled value: store after definition, loads before late uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spill {
    /// Producing op (index).
    pub producer: usize,
    /// Cluster holding the value.
    pub cluster: usize,
    /// Store issue cycle.
    pub store: i64,
    /// Reloads feeding uses later than the store.
    pub loads: Vec<SpillLoad>,
}

/// Why a placement attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlaceError {
    /// No functional unit of the op's kind free at that slot.
    FunctionalUnit,
    /// An intra-cluster dependence deadline cannot be met at that cycle.
    Timing,
    /// No interconnect or memory path satisfies a cross-cluster
    /// dependence.
    Communication,
    /// Register pressure exceeds the register file even after spilling.
    Registers,
}

/// One inverse entry of the trial undo log. Each mutation on the
/// placement path pushes exactly one entry; [`PartialSchedule::rollback_trial`]
/// pops and applies them in reverse.
#[derive(Clone, Copy, Debug)]
enum Undo {
    /// Release one functional-unit slot.
    Mrt {
        cluster: u32,
        kind: ResourceKind,
        t: i64,
    },
    /// Release one interconnect hop window.
    Net { channel: u32, t: i64, occ: i64 },
    /// Clear a recorded placement.
    Place { op: u32 },
    /// Remove a register interval that was added.
    PressureAdd { cluster: u32, first: i64, last: i64 },
    /// Re-add a register interval that was removed.
    PressureRemove { cluster: u32, first: i64, last: i64 },
    /// Restore a `reg_last` watermark.
    RegLast { op: u32, old: i64 },
    /// Pop the transfer pushed last (with its `transfer_last` entry and
    /// its link in the producer's transfer chain).
    Transfer,
    /// Restore a `transfer_last` watermark.
    TransferLast { ti: u32, old: i64 },
    /// Pop the spill pushed last and clear its producer's `spill_of`.
    Spill,
    /// Pop the reload pushed last onto spill `si`.
    SpillLoad { si: u32 },
}

/// A mark into the undo log bracketing one speculative trial. Obtained
/// from [`PartialSchedule::begin_trial`]; must be resolved by exactly one
/// of [`PartialSchedule::commit_trial`] or
/// [`PartialSchedule::rollback_trial`].
#[derive(Clone, Copy, Debug)]
#[must_use = "a trial must be committed or rolled back"]
pub struct TrialGuard {
    mark: usize,
}

/// Whether `GPSCHED_SHADOW_UNDO` is set (and not `0`): every rollback is
/// then cross-checked against a shadow clone taken at `begin_trial`. Used
/// by the conformance lane; far too slow for production runs.
fn shadow_undo_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("GPSCHED_SHADOW_UNDO").is_some_and(|v| v != "0"))
}

/// End of a `transfer_head`/`transfer_next` chain, and "not spilled" in
/// `spill_of`.
const NONE: u32 = u32::MAX;

/// Spill rounds allowed per placement: a safety valve on the
/// spill-on-overflow loop.
const MAX_SPILL_ROUNDS: usize = 8;

/// A partial modulo schedule at a fixed II.
#[derive(Debug)]
pub struct PartialSchedule<'a> {
    ddg: &'a Ddg,
    machine: &'a MachineConfig,
    ii: i64,
    placements: Vec<Option<Placement>>,
    mrts: Vec<ClusterMrt>,
    net: ChannelTable,
    /// Row-major pairwise transfer latencies (`pair_lat[from·n + to]`),
    /// precomputed once per schedule so the per-candidate quick-reject
    /// indexes instead of dispatching on the topology.
    pair_lat: std::sync::Arc<[i64]>,
    pressure: PressureTable,
    /// Last registered read of each op's source-cluster register interval
    /// (`i64::MIN` when the op has no interval yet). The pressure table is
    /// maintained *incrementally* — every mutation removes the old interval
    /// and adds the extended one — so this mirror is what lets an extension
    /// find the interval to remove without rescanning the graph.
    reg_last: Vec<i64>,
    /// Last cycle of each transfer's destination-cluster interval, parallel
    /// to `transfers` (always ≥ the transfer's arrival).
    transfer_last: Vec<i64>,
    transfers: Vec<Transfer>,
    /// Newest transfer of each op (`NONE` when it has none); with
    /// `transfer_next` it chains each producer's transfers newest first.
    /// Both lists grow and shrink at their ends only, in step with the
    /// undo log, so a rollback pops exactly the chain head it pushed.
    transfer_head: Vec<u32>,
    /// Parallel to `transfers`: the same producer's next older transfer.
    transfer_next: Vec<u32>,
    spills: Vec<Spill>,
    /// Index into `spills` of each op's spill (`NONE` while unspilled; a
    /// value is spilled at most once).
    spill_of: Vec<u32>,
    /// Whether register-file overflow spills (§3.3.2); when `false`, an
    /// overflow fails the placement.
    spill: bool,
    /// The trial undo log: one inverse entry per mutation since the last
    /// commit. [`Self::commit_trial`] truncates it, [`Self::rollback_trial`]
    /// drains it. Never cloned — a clone starts with a clean slate.
    undo: Vec<Undo>,
    /// Shadow clone taken at [`Self::begin_trial`] when
    /// `GPSCHED_SHADOW_UNDO` is set; every rollback asserts full-state
    /// equality against it.
    shadow: Option<Box<PartialSchedule<'a>>>,
    /// Batched `sched.*` trial tallies, flushed when the schedule drops.
    /// Trials run tens of thousands of times per attempt; per-trial atomic
    /// increments were a measurable share of enabled-tracing overhead.
    /// Excluded from [`Self::state_eq`] like the undo log (observability,
    /// not booking state); clones start at zero.
    pub(crate) stats: SchedStats,
}

/// Batched `sched.*` tallies (see [`gpsched_trace::BatchCounter`]: clones
/// start at zero, drop flushes).
#[derive(Clone, Debug)]
pub(crate) struct SchedStats {
    pub(crate) place_trials: gpsched_trace::BatchCounter,
    pub(crate) trial_rollbacks: gpsched_trace::BatchCounter,
    pub(crate) undo_entries: gpsched_trace::BatchCounter,
    pub(crate) transfers_booked: gpsched_trace::BatchCounter,
    /// Why a [`PartialSchedule::try_spill`] call inserted no spill: no
    /// value outlives the II, or every candidate lacked a store or a
    /// reload slot.
    pub(crate) spill_no_candidate: gpsched_trace::BatchCounter,
    pub(crate) spill_no_store_slot: gpsched_trace::BatchCounter,
    pub(crate) spill_no_reload_slot: gpsched_trace::BatchCounter,
}

impl Default for SchedStats {
    fn default() -> Self {
        SchedStats {
            place_trials: gpsched_trace::BatchCounter::new("sched.place_trials"),
            trial_rollbacks: gpsched_trace::BatchCounter::new("sched.trial_rollbacks"),
            undo_entries: gpsched_trace::BatchCounter::new("sched.undo_entries"),
            transfers_booked: gpsched_trace::BatchCounter::new("sched.transfers_booked"),
            spill_no_candidate: gpsched_trace::BatchCounter::new("sched.spill_no_candidate"),
            spill_no_store_slot: gpsched_trace::BatchCounter::new("sched.spill_no_store_slot"),
            spill_no_reload_slot: gpsched_trace::BatchCounter::new("sched.spill_no_reload_slot"),
        }
    }
}

/// A clone copies the booking state and starts outside any trial: empty
/// undo log, no shadow, zeroed stats.
impl<'a> Clone for PartialSchedule<'a> {
    fn clone(&self) -> Self {
        PartialSchedule {
            ddg: self.ddg,
            machine: self.machine,
            ii: self.ii,
            placements: self.placements.clone(),
            mrts: self.mrts.clone(),
            net: self.net.clone(),
            pair_lat: self.pair_lat.clone(),
            pressure: self.pressure.clone(),
            reg_last: self.reg_last.clone(),
            transfer_last: self.transfer_last.clone(),
            transfers: self.transfers.clone(),
            transfer_head: self.transfer_head.clone(),
            transfer_next: self.transfer_next.clone(),
            spills: self.spills.clone(),
            spill_of: self.spill_of.clone(),
            spill: self.spill,
            undo: Vec::new(),
            shadow: None,
            stats: SchedStats::default(),
        }
    }
}

impl<'a> PartialSchedule<'a> {
    /// Creates an empty schedule for `ddg` on `machine` at interval `ii`
    /// that spills on register overflow.
    ///
    /// # Panics
    ///
    /// Panics if `ii < 1`.
    pub fn new(ddg: &'a Ddg, machine: &'a MachineConfig, ii: i64) -> Self {
        Self::with_spill(ddg, machine, ii, true)
    }

    /// [`PartialSchedule::new`] with spilling switched by `spill` (the
    /// pipeline passes [`crate::AlgorithmSpec::spills`]): when `false`,
    /// register overflow fails the placement instead.
    ///
    /// # Panics
    ///
    /// Panics if `ii < 1`.
    pub fn with_spill(ddg: &'a Ddg, machine: &'a MachineConfig, ii: i64, spill: bool) -> Self {
        assert!(ii >= 1, "ii must be positive");
        let mrts = machine.clusters().map(|c| ClusterMrt::new(c, ii)).collect();
        let caps = machine.clusters().map(|c| c.registers as i64).collect();
        PartialSchedule {
            ddg,
            machine,
            ii,
            placements: vec![None; ddg.op_count()],
            mrts,
            net: ChannelTable::new(machine, ii),
            pair_lat: machine.transfer_latency_table().into(),
            pressure: PressureTable::new(caps, ii),
            reg_last: vec![i64::MIN; ddg.op_count()],
            transfer_last: Vec::new(),
            transfers: Vec::new(),
            transfer_head: vec![NONE; ddg.op_count()],
            transfer_next: Vec::new(),
            spills: Vec::new(),
            spill_of: vec![NONE; ddg.op_count()],
            spill,
            undo: Vec::new(),
            shadow: None,
            stats: SchedStats::default(),
        }
    }

    /// Opens a speculative trial: mutations from here on can be unwound by
    /// [`Self::rollback_trial`] with the returned guard, or kept with
    /// [`Self::commit_trial`]. Trials nest (inner guards must resolve
    /// before outer ones), though the placement path never needs to.
    pub fn begin_trial(&mut self) -> TrialGuard {
        if shadow_undo_enabled() {
            let snap = Box::new(self.clone());
            self.shadow = Some(snap);
        }
        TrialGuard {
            mark: self.undo.len(),
        }
    }

    /// Keeps everything the trial did and drops its undo entries.
    pub fn commit_trial(&mut self, g: TrialGuard) {
        self.stats
            .undo_entries
            .add((self.undo.len() - g.mark) as u64);
        self.undo.truncate(g.mark);
        self.shadow = None;
    }

    /// Unwinds every mutation since [`Self::begin_trial`], restoring the
    /// state bit-identically (asserted against a shadow clone when
    /// `GPSCHED_SHADOW_UNDO` is set).
    pub fn rollback_trial(&mut self, g: TrialGuard) {
        self.stats.trial_rollbacks.add(1);
        self.stats
            .undo_entries
            .add((self.undo.len() - g.mark) as u64);
        while self.undo.len() > g.mark {
            let entry = self.undo.pop().expect("entries above the trial mark");
            match entry {
                Undo::Mrt { cluster, kind, t } => self.mrts[cluster as usize].remove(kind, t),
                Undo::Net { channel, t, occ } => self.net.release(channel as usize, t, occ),
                Undo::Place { op } => self.placements[op as usize] = None,
                Undo::PressureAdd {
                    cluster,
                    first,
                    last,
                } => self.pressure.remove(cluster as usize, first, last),
                Undo::PressureRemove {
                    cluster,
                    first,
                    last,
                } => self.pressure.add(cluster as usize, first, last),
                Undo::RegLast { op, old } => self.reg_last[op as usize] = old,
                Undo::Transfer => {
                    let t = self.transfers.pop().expect("a logged transfer");
                    self.transfer_last.pop();
                    self.transfer_head[t.producer] =
                        self.transfer_next.pop().expect("a logged chain link");
                }
                Undo::TransferLast { ti, old } => self.transfer_last[ti as usize] = old,
                Undo::Spill => {
                    let s = self.spills.pop().expect("a logged spill");
                    self.spill_of[s.producer] = NONE;
                }
                Undo::SpillLoad { si } => {
                    self.spills[si as usize].loads.pop();
                }
            }
        }
        if let Some(shadow) = self.shadow.take() {
            assert!(
                self.state_eq(&shadow),
                "undo rollback diverged from the shadow clone"
            );
        }
    }

    /// Full booking-state equality — everything a rollback must restore,
    /// including the per-producer transfer and spill indexes and each
    /// cluster's `MaxLive`. Backs the `GPSCHED_SHADOW_UNDO` assert and the
    /// undo property tests; the undo log itself is deliberately excluded
    /// (a committed trial and a plain mutation leave different logs but
    /// identical bookings).
    pub fn state_eq(&self, other: &Self) -> bool {
        self.ii == other.ii
            && self.placements == other.placements
            && self.mrts == other.mrts
            && self.net == other.net
            && self.pressure == other.pressure
            && self.reg_last == other.reg_last
            && self.transfer_last == other.transfer_last
            && self.transfers == other.transfers
            && self.transfer_head == other.transfer_head
            && self.transfer_next == other.transfer_next
            && self.spills == other.spills
            && self.spill_of == other.spill_of
    }

    /// The initiation interval of this attempt.
    pub fn ii(&self) -> i64 {
        self.ii
    }

    /// Placement of `op`, if placed.
    pub fn placement(&self, op: OpId) -> Option<Placement> {
        self.placements[op.index()]
    }

    /// Number of ops placed so far.
    pub fn placed_count(&self) -> usize {
        self.placements.iter().flatten().count()
    }

    /// The transfers created so far.
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// The spills created so far.
    pub fn spills(&self) -> &[Spill] {
        &self.spills
    }

    /// Free interconnect channel slots (over all channels).
    pub fn net_free(&self) -> i64 {
        self.net.free_slots()
    }

    /// Occupied interconnect channel slots (over all channels).
    pub fn net_used(&self) -> i64 {
        self.net.used_slots()
    }

    /// Free memory slots of `cluster`.
    pub fn mem_free(&self, cluster: usize) -> i64 {
        self.mrts[cluster].free_slots(ResourceKind::MemPort)
    }

    /// Occupied memory slots of `cluster`.
    pub fn mem_used(&self, cluster: usize) -> i64 {
        self.mrts[cluster].used_slots(ResourceKind::MemPort)
    }

    /// Register headroom of `cluster` (capacity − MaxLive).
    pub fn reg_headroom(&self, cluster: usize) -> i64 {
        self.pressure.headroom(cluster)
    }

    /// `MaxLive` of `cluster`.
    pub fn max_live(&self, cluster: usize) -> i64 {
        self.pressure.max_live(cluster)
    }

    /// [`ClusterMrt::place`] with the inverse recorded.
    fn mrt_place(&mut self, cluster: usize, kind: ResourceKind, t: i64) {
        self.mrts[cluster].place(kind, t);
        self.undo.push(Undo::Mrt {
            cluster: cluster as u32,
            kind,
            t,
        });
    }

    /// [`PressureTable::add`] with the inverse recorded.
    fn pressure_add(&mut self, cluster: usize, first: i64, last: i64) {
        self.pressure.add(cluster, first, last);
        self.undo.push(Undo::PressureAdd {
            cluster: cluster as u32,
            first,
            last,
        });
    }

    /// [`PressureTable::remove`] with the inverse recorded.
    fn pressure_remove(&mut self, cluster: usize, first: i64, last: i64) {
        self.pressure.remove(cluster, first, last);
        self.undo.push(Undo::PressureRemove {
            cluster: cluster as u32,
            first,
            last,
        });
    }

    /// Overwrites a `reg_last` watermark with the old value recorded.
    fn set_reg_last(&mut self, op: usize, v: i64) {
        self.undo.push(Undo::RegLast {
            op: op as u32,
            old: self.reg_last[op],
        });
        self.reg_last[op] = v;
    }

    /// Index of `producer`'s spill, if its value is spilled.
    fn spill_index(&self, producer: usize) -> Option<usize> {
        let si = self.spill_of[producer];
        (si != NONE).then_some(si as usize)
    }

    /// Indexes of `producer`'s transfers, newest first.
    fn transfers_of(&self, producer: usize) -> impl Iterator<Item = usize> + '_ {
        let mut ti = self.transfer_head[producer];
        std::iter::from_fn(move || {
            let cur = (ti != NONE).then_some(ti as usize)?;
            ti = self.transfer_next[cur];
            Some(cur)
        })
    }

    /// Appends a transfer with its destination interval's last cycle,
    /// linking it at the head of its producer's chain.
    fn push_transfer(&mut self, t: Transfer, last: i64) {
        self.transfer_next.push(self.transfer_head[t.producer]);
        self.transfer_head[t.producer] = self.transfers.len() as u32;
        self.transfer_last.push(last);
        self.undo.push(Undo::Transfer);
        self.transfers.push(t);
        self.stats.transfers_booked.add(1);
    }

    fn op_latency(&self, op: usize) -> i64 {
        self.ddg.op(gpsched_graph::NodeId::from_index(op)).latency as i64
    }

    fn op_class(&self, op: usize) -> OpClass {
        self.ddg.op(gpsched_graph::NodeId::from_index(op)).class
    }

    fn store_latency(&self) -> i64 {
        self.machine.latencies.store as i64
    }

    fn load_latency(&self) -> i64 {
        self.machine.latencies.load as i64
    }

    /// Searches a free memory slot in `cluster` within `[lo, hi]`
    /// (ascending or descending). The scan is clamped to one II window —
    /// beyond that, slots repeat.
    fn find_mem_slot(&self, cluster: usize, lo: i64, hi: i64, ascending: bool) -> Option<i64> {
        if lo > hi {
            return None;
        }
        let span = (hi - lo + 1).min(self.ii);
        let free = |t: &i64| self.mrts[cluster].can_place(ResourceKind::MemPort, *t);
        if ascending {
            (lo..lo + span).find(free)
        } else {
            (hi - span + 1..=hi).rev().find(free)
        }
    }

    /// Ensures a transfer `producer → to_cluster` arriving by `deadline`.
    /// Reuses an existing transfer when possible. Returns the arrival time.
    fn ensure_transfer(
        &mut self,
        producer: usize,
        to_cluster: usize,
        deadline: i64,
    ) -> Result<i64, PlaceError> {
        let from = self.placements[producer]
            .expect("transfer source must be placed")
            .cluster;
        debug_assert_ne!(from, to_cluster);

        // The oldest transfer that qualifies: the last one on the
        // newest-first chain.
        if let Some(arrival) = self
            .transfers_of(producer)
            .map(|ti| &self.transfers[ti])
            .filter(|t| t.to == to_cluster && t.arrival <= deadline)
            .map(|t| t.arrival)
            .last()
        {
            return Ok(arrival);
        }

        let def = self.placements[producer].expect("placed").time + self.op_latency(producer);
        let net_lat = self.machine.transfer_latency(from, to_cluster);
        let spill_store = self.spill_index(producer).map(|si| self.spills[si].store);

        // 1. Direct over the interconnect: depart at x ∈ [def, deadline −
        //    latency], booking every hop of the topology's route (one
        //    shared-bus window, one point-to-point link slot, each ring
        //    link in turn); if the value is spilled the register dies at
        //    the spill store, so the departure must not come later.
        let net_hi = match spill_store {
            Some(store) => (deadline - net_lat).min(store),
            None => deadline - net_lat,
        };
        let mut x = def;
        let net_scan_end = net_hi.min(def + self.ii - 1);
        while x <= net_scan_end {
            let free = self
                .machine
                .route(from, to_cluster)
                .all(|h| self.net.can_reserve(h.channel, x + h.offset, h.occupancy));
            if free {
                for h in self.machine.route(from, to_cluster) {
                    self.net.reserve(h.channel, x + h.offset, h.occupancy);
                    self.undo.push(Undo::Net {
                        channel: h.channel as u32,
                        t: x + h.offset,
                        occ: h.occupancy,
                    });
                }
                self.extend_reg_last(producer, x);
                let arrival = x + net_lat;
                let last = self.transfer_dest_last(producer, to_cluster, arrival);
                self.pressure_add(to_cluster, arrival, last);
                self.push_transfer(
                    Transfer {
                        producer,
                        from,
                        to: to_cluster,
                        kind: CommKind::Direct { start: x },
                        read_time: x,
                        arrival,
                    },
                    last,
                );
                return Ok(arrival);
            }
            x += 1;
        }

        // 2. Through memory (§3.3.2). A spilled value is already in memory:
        //    only the destination load is needed.
        let (store, store_is_spill) = match spill_store {
            Some(store) => (Some(store), true),
            None => {
                let hi = deadline - self.load_latency() - self.store_latency();
                (self.find_mem_slot(from, def, hi, true), false)
            }
        };
        if let Some(store) = store {
            let lo = store + self.store_latency();
            let hi = deadline - self.load_latency();
            if let Some(load) = self.find_mem_slot(to_cluster, lo, hi, false) {
                if !store_is_spill {
                    self.mrt_place(from, ResourceKind::MemPort, store);
                }
                self.mrt_place(to_cluster, ResourceKind::MemPort, load);
                let arrival = load + self.load_latency();
                if !store_is_spill {
                    self.extend_reg_last(producer, store);
                }
                let last = self.transfer_dest_last(producer, to_cluster, arrival);
                self.pressure_add(to_cluster, arrival, last);
                self.push_transfer(
                    Transfer {
                        producer,
                        from,
                        to: to_cluster,
                        kind: CommKind::Memory {
                            store,
                            load,
                            reuses_spill: store_is_spill,
                        },
                        read_time: store,
                        arrival,
                    },
                    last,
                );
                return Ok(arrival);
            }
            // No load slot; roll nothing back (store not yet reserved).
        }
        Err(PlaceError::Communication)
    }

    /// Cheap feasibility pre-check: `true` if placing `op` in `cluster` at
    /// `time` is certainly impossible (functional unit busy, or an
    /// intra-cluster timing deadline already violated). Used to skip the
    /// trial-and-rollback cycle for hopeless slots.
    pub fn quick_reject(&self, op: OpId, cluster: usize, time: i64) -> bool {
        let idx = op.index();
        let class = self.op_class(idx);
        if !self.mrts[cluster].can_place(class.resource(), time) {
            return true;
        }
        for (e, p) in self.ddg.graph().in_edges(op) {
            if p == op {
                continue;
            }
            if let Some(pp) = self.placements[p.index()] {
                let dep = self.ddg.dep(e);
                let read = time + self.ii * dep.distance as i64;
                let min_extra = if dep.kind == DepKind::Flow && pp.cluster != cluster {
                    // Any transport needs at least the faster of the
                    // interconnect path or store+load latency.
                    self.pair_lat[pp.cluster * self.machine.cluster_count() + cluster]
                        .min(self.store_latency() + self.load_latency())
                } else {
                    0
                };
                if read < pp.time + dep.latency as i64 + min_extra {
                    return true;
                }
            }
        }
        for (e, s) in self.ddg.graph().out_edges(op) {
            if s == op {
                continue;
            }
            if let Some(sp) = self.placements[s.index()] {
                let dep = self.ddg.dep(e);
                let read = sp.time + self.ii * dep.distance as i64;
                let min_extra = if dep.kind == DepKind::Flow && sp.cluster != cluster {
                    self.pair_lat[cluster * self.machine.cluster_count() + sp.cluster]
                        .min(self.store_latency() + self.load_latency())
                } else {
                    0
                };
                if read < time + dep.latency as i64 + min_extra {
                    return true;
                }
            }
        }
        false
    }

    /// Places `op` in `cluster` at absolute cycle `time`.
    ///
    /// On success the op is committed (functional unit, communications for
    /// every placed neighbour, spills if the register file overflowed).
    /// On failure the state is inconsistent — callers must bracket the call
    /// with [`Self::begin_trial`] and unwind it with
    /// [`Self::rollback_trial`] (see the type-level docs).
    ///
    /// # Errors
    ///
    /// [`PlaceError`] describing the blocking resource.
    pub fn place(&mut self, op: OpId, cluster: usize, time: i64) -> Result<(), PlaceError> {
        let idx = op.index();
        debug_assert!(self.placements[idx].is_none(), "op placed twice");
        let class = self.op_class(idx);
        let kind = class.resource();
        if !self.mrts[cluster].can_place(kind, time) {
            return Err(PlaceError::FunctionalUnit);
        }
        self.mrt_place(cluster, kind, time);
        self.placements[idx] = Some(Placement { cluster, time });
        self.undo.push(Undo::Place { op: idx as u32 });

        // The op's own register interval: [def, latest same-cluster read].
        // Consumers placed earlier (including a self-loop, visible now that
        // the placement above is recorded) already pin reads; transfers
        // from this op cannot exist yet.
        if class.defines_value() {
            let def = time + self.op_latency(idx);
            let mut last = def;
            for (e, c) in self.ddg.graph().out_edges(op) {
                let dep = self.ddg.dep(e);
                if dep.kind != DepKind::Flow {
                    continue;
                }
                if let Some(cp) = self.placements[c.index()] {
                    if cp.cluster == cluster {
                        last = last.max(cp.time + self.ii * dep.distance as i64);
                    }
                }
            }
            self.pressure_add(cluster, def, last);
            self.set_reg_last(idx, last);
        }

        // Incoming dependences from placed producers. Copying the `&'a Ddg`
        // out of `self` lets the adjacency iterators borrow the DDG directly
        // instead of being collected to appease the `&mut self` calls below.
        let ddg = self.ddg;
        for (e, p) in ddg.graph().in_edges(op) {
            let Some(pp) = self.placements[p.index()] else {
                continue;
            };
            let dep = *ddg.dep(e);
            let read = time + self.ii * dep.distance as i64;
            match dep.kind {
                DepKind::Mem => {
                    if read < pp.time + dep.latency as i64 {
                        return Err(PlaceError::Timing);
                    }
                }
                DepKind::Flow => {
                    if pp.cluster == cluster {
                        let def = pp.time + dep.latency as i64;
                        if read < def {
                            return Err(PlaceError::Timing);
                        }
                        // Reading a spilled value after its store needs a
                        // reload.
                        let needs_load = self
                            .spill_index(p.index())
                            .filter(|&si| read > self.spills[si].store);
                        if let Some(si) = needs_load {
                            let covered = self.spills[si].loads.iter().any(|l| {
                                l.time + self.load_latency() <= read && l.use_time >= read
                            });
                            if !covered {
                                let lo = self.spills[si].store + self.store_latency();
                                let hi = read - self.load_latency();
                                let Some(l) = self.find_mem_slot(cluster, lo, hi, false) else {
                                    return Err(PlaceError::Communication);
                                };
                                self.mrt_place(cluster, ResourceKind::MemPort, l);
                                self.pressure_add(cluster, l + self.load_latency(), read);
                                self.spills[si].loads.push(SpillLoad {
                                    time: l,
                                    use_time: read,
                                });
                                self.undo.push(Undo::SpillLoad { si: si as u32 });
                            }
                        } else {
                            self.extend_reg_last(p.index(), read);
                        }
                    } else {
                        let arrival = self.ensure_transfer(p.index(), cluster, read)?;
                        debug_assert!(arrival <= read);
                        self.extend_transfer_dest(p.index(), cluster, read);
                    }
                }
            }
        }

        // Outgoing dependences to placed consumers.
        for (e, s) in ddg.graph().out_edges(op) {
            let Some(sp) = self.placements[s.index()] else {
                continue;
            };
            // Self-loops were handled as in-edges above.
            if s == op {
                continue;
            }
            let dep = *ddg.dep(e);
            let read = sp.time + self.ii * dep.distance as i64;
            match dep.kind {
                DepKind::Mem => {
                    if read < time + dep.latency as i64 {
                        return Err(PlaceError::Timing);
                    }
                }
                DepKind::Flow => {
                    if sp.cluster == cluster {
                        if read < time + dep.latency as i64 {
                            return Err(PlaceError::Timing);
                        }
                    } else {
                        let arrival = self.ensure_transfer(idx, sp.cluster, read)?;
                        debug_assert!(arrival <= read);
                        self.extend_transfer_dest(idx, sp.cluster, read);
                    }
                }
            }
        }

        // Register pressure, with spill-on-overflow (§3.3.2). The table was
        // maintained incrementally through the commits above, so only the
        // overflow check remains.
        let mut rounds = 0;
        loop {
            let over: Option<usize> = (0..self.machine.cluster_count())
                .filter(|&c| !self.pressure.fits(c))
                .max_by_key(|&c| self.pressure.max_live(c) - self.pressure.capacity(c));
            let Some(cl) = over else {
                self.debug_check_pressure();
                return Ok(());
            };
            // Spilling needs at least one free memory slot for the store.
            if !self.spill
                || rounds >= MAX_SPILL_ROUNDS
                || self.mem_free(cl) == 0
                || !self.try_spill(cl)
            {
                return Err(PlaceError::Registers);
            }
            rounds += 1;
        }
    }

    /// Re-places `placed` in order, outside any trial: the committed prefix
    /// of an earlier scan at this II, reproduced without a window search.
    /// `place` is deterministic and committed placements are never unwound,
    /// so on a schedule that started empty each call sees exactly the state
    /// the original commit saw and reproduces its bookings (DESIGN.md §6.6).
    ///
    /// # Panics
    ///
    /// Panics if a placement fails — the prefix was not committed on this
    /// schedule's machine and II.
    pub(crate) fn replay(&mut self, placed: impl IntoIterator<Item = (OpId, Placement)>) {
        debug_assert!(self.undo.is_empty(), "replay runs outside any trial");
        for (op, pl) in placed {
            self.place(op, pl.cluster, pl.time)
                .expect("a committed placement replays");
        }
        self.undo.clear();
    }

    /// Extends `producer`'s source-cluster register interval to cover a
    /// read at `read`. No-op for spilled values (their in-register span is
    /// pinned at [def, store]) and for ops without an interval.
    fn extend_reg_last(&mut self, producer: usize, read: i64) {
        let cur = self.reg_last[producer];
        if read <= cur || cur == i64::MIN {
            return;
        }
        if self.spill_index(producer).is_some() {
            return;
        }
        let pl = self.placements[producer].expect("producer with an interval is placed");
        let def = pl.time + self.op_latency(producer);
        self.pressure_remove(pl.cluster, def, cur);
        self.pressure_add(pl.cluster, def, read);
        self.set_reg_last(producer, read);
    }

    /// Extends the destination-cluster intervals of every transfer of
    /// `producer` into `cluster` to cover a consumer read at `read`
    /// (every such transfer keeps the value live until its last reader,
    /// mirroring the authoritative rebuild).
    fn extend_transfer_dest(&mut self, producer: usize, cluster: usize, read: i64) {
        let mut ti = self.transfer_head[producer];
        while ti != NONE {
            let i = ti as usize;
            ti = self.transfer_next[i];
            let (to, arrival) = (self.transfers[i].to, self.transfers[i].arrival);
            let old = self.transfer_last[i];
            if to != cluster || old >= read {
                continue;
            }
            self.pressure_remove(to, arrival, old);
            self.pressure_add(to, arrival, read);
            self.transfer_last[i] = read;
            self.undo.push(Undo::TransferLast { ti: i as u32, old });
        }
    }

    /// The initial destination-cluster lifetime of a new transfer: from its
    /// arrival to the latest already-placed consumer read in that cluster.
    fn transfer_dest_last(&self, producer: usize, to: usize, arrival: i64) -> i64 {
        let pid = gpsched_graph::NodeId::from_index(producer);
        let mut last = arrival;
        for (e, c) in self.ddg.graph().out_edges(pid) {
            let dep = self.ddg.dep(e);
            if dep.kind != DepKind::Flow {
                continue;
            }
            if let Some(cp) = self.placements[c.index()] {
                if cp.cluster == to {
                    last = last.max(cp.time + self.ii * dep.distance as i64);
                }
            }
        }
        last
    }

    /// Debug cross-check: the incrementally maintained table must equal the
    /// authoritative from-scratch rebuild after every successful placement.
    /// Compiled out of release builds.
    #[cfg(debug_assertions)]
    fn debug_check_pressure(&mut self) {
        for c in 0..self.machine.cluster_count() {
            debug_assert_eq!(
                self.pressure.max_live(c),
                self.pressure.live_counts(c).max().unwrap_or(0),
                "incremental MaxLive of cluster {c} diverged from its row"
            );
        }
        let incremental = self.pressure.clone();
        self.rebuild_pressure();
        debug_assert_eq!(
            incremental, self.pressure,
            "incremental pressure table diverged from authoritative rebuild"
        );
    }

    #[cfg(not(debug_assertions))]
    fn debug_check_pressure(&mut self) {}

    /// Latest same-cluster register read of `producer`'s value, or
    /// `i64::MIN` when nothing reads it: the allocation-free reduction of
    /// [`Self::register_reads`] the reference pressure rebuild uses.
    #[cfg(debug_assertions)]
    fn last_register_read(&self, producer: usize, cluster: usize) -> i64 {
        let pid = gpsched_graph::NodeId::from_index(producer);
        let mut last = i64::MIN;
        for (e, c) in self.ddg.graph().out_edges(pid) {
            let dep = self.ddg.dep(e);
            if dep.kind != DepKind::Flow {
                continue;
            }
            if let Some(cp) = self.placements[c.index()] {
                if cp.cluster == cluster {
                    last = last.max(cp.time + self.ii * dep.distance as i64);
                }
            }
        }
        for t in &self.transfers {
            if t.producer == producer {
                last = last.max(t.read_time);
            }
        }
        last
    }

    /// Debug cross-check: for an unspilled value defined at `def`, the
    /// `reg_last` mirror the spill ranking reads must equal the last
    /// register read derived from the graph and the transfer list.
    /// Compiled out of release builds.
    #[cfg(debug_assertions)]
    fn debug_check_reg_last(&self, producer: usize, cluster: usize, def: i64) {
        debug_assert_eq!(
            self.reg_last[producer].max(def),
            self.last_register_read(producer, cluster).max(def),
            "reg_last of op {producer} diverged from its register reads"
        );
    }

    #[cfg(not(debug_assertions))]
    fn debug_check_reg_last(&self, _producer: usize, _cluster: usize, _def: i64) {}

    /// Same-cluster register reads of `producer`'s value: consumer issue
    /// times (+ II·distance) of placed same-cluster consumers, then
    /// transfer read times in transfer order (reloads are created in this
    /// order).
    fn register_reads(&self, producer: usize, cluster: usize) -> Vec<i64> {
        let pid = gpsched_graph::NodeId::from_index(producer);
        let mut reads = Vec::new();
        for (e, c) in self.ddg.graph().out_edges(pid) {
            let dep = self.ddg.dep(e);
            if dep.kind != DepKind::Flow {
                continue;
            }
            if let Some(cp) = self.placements[c.index()] {
                if cp.cluster == cluster {
                    reads.push(cp.time + self.ii * dep.distance as i64);
                }
            }
        }
        let graph_reads = reads.len();
        reads.extend(
            self.transfers_of(producer)
                .map(|ti| self.transfers[ti].read_time),
        );
        reads[graph_reads..].reverse();
        reads
    }

    /// Spills one value in `cluster`; returns `false` when no candidate
    /// works.
    fn try_spill(&mut self, cluster: usize) -> bool {
        let _span = gpsched_trace::span!("sched.spill");
        // Candidates: placed value producers in this cluster, not yet
        // spilled, ranked longest register interval first, ties by the
        // lower op index (§3.3.2). An unspilled value's interval ends at
        // its `reg_last` mirror (DESIGN.md §6.6), so ranking reads no
        // graph; the read list is built only for candidates actually tried.
        let mut cands: Vec<(i64, usize)> = Vec::new();
        for (opi, pl) in self.placements.iter().enumerate() {
            let Some(pl) = pl else { continue };
            if pl.cluster != cluster
                || !self.op_class(opi).defines_value()
                || self.spill_index(opi).is_some()
            {
                continue;
            }
            let def = pl.time + self.op_latency(opi);
            self.debug_check_reg_last(opi, cluster, def);
            let len = self.reg_last[opi].max(def) - def;
            if len > self.ii {
                cands.push((len, opi));
            }
        }
        cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        if cands.is_empty() {
            self.stats.spill_no_candidate.add(1);
            return false;
        }

        // Whether some candidate found a store slot and then lacked a
        // reload slot (the failure tally's cause).
        let mut reload_blocked = false;
        'cand: for (_, opi) in cands {
            let pl = self.placements[opi].expect("candidate is placed");
            let def = pl.time + self.op_latency(opi);
            let last = self.reg_last[opi];
            let reads = self.register_reads(opi, cluster);
            // Transfers read the register directly; the store must come at
            // or after every transfer read.
            let min_store = self
                .transfers_of(opi)
                .map(|ti| self.transfers[ti].read_time)
                .fold(def, i64::max);
            let Some(store) = self.find_mem_slot(cluster, min_store, last - 1, true) else {
                continue;
            };
            // Reloads for same-cluster reads after the store. Slots taken
            // tentatively within this candidate (incl. the store) must be
            // counted on top of the committed table.
            let mut loads: Vec<SpillLoad> = Vec::new();
            let mut reserved: Vec<i64> = vec![store];
            for &u in reads.iter().filter(|&&u| u > store) {
                if loads
                    .iter()
                    .any(|l| l.time + self.load_latency() <= u && l.use_time >= u)
                {
                    continue;
                }
                let lo = store + self.store_latency();
                let hi = u - self.load_latency();
                let mut found = None;
                let span = (hi - lo + 1).min(self.ii);
                if span > 0 {
                    for t in (hi - span + 1..=hi).rev() {
                        let tentative = reserved
                            .iter()
                            .filter(|&&r| {
                                crate::mrt::slot(r, self.ii) == crate::mrt::slot(t, self.ii)
                            })
                            .count() as u32;
                        if self.mrts[cluster].free_at(ResourceKind::MemPort, t) > tentative {
                            found = Some(t);
                            break;
                        }
                    }
                }
                let Some(l) = found else {
                    reload_blocked = true;
                    continue 'cand;
                };
                reserved.push(l);
                loads.push(SpillLoad {
                    time: l,
                    use_time: u,
                });
            }
            // Commit: store + loads take memory slots; the value's register
            // interval shrinks to [def, store] plus one sliver per reload.
            self.mrt_place(cluster, ResourceKind::MemPort, store);
            for l in &loads {
                self.mrt_place(cluster, ResourceKind::MemPort, l.time);
            }
            self.pressure_remove(cluster, def, last);
            self.pressure_add(cluster, def, store.max(def));
            for l in &loads {
                self.pressure_add(cluster, l.time + self.load_latency(), l.use_time);
            }
            self.spill_of[opi] = self.spills.len() as u32;
            self.undo.push(Undo::Spill);
            self.spills.push(Spill {
                producer: opi,
                cluster,
                store,
                loads,
            });
            gpsched_trace::counter!("sched.spills_inserted");
            return true;
        }
        if reload_blocked {
            self.stats.spill_no_reload_slot.add(1);
        } else {
            self.stats.spill_no_store_slot.add(1);
        }
        false
    }

    /// Rebuilds the register-pressure table from the current placements,
    /// transfers and spills: the authoritative recomputation the
    /// incremental maintenance is checked against in debug builds.
    #[cfg(debug_assertions)]
    fn rebuild_pressure(&mut self) {
        // Move the table out and zero it in place (capacities and II are
        // invariants of this schedule), so a rebuild allocates nothing.
        let mut p = std::mem::replace(&mut self.pressure, PressureTable::empty());
        p.reset();

        for (opi, pl) in self.placements.iter().enumerate() {
            let Some(pl) = pl else { continue };
            if !self.op_class(opi).defines_value() {
                continue;
            }
            let def = pl.time + self.op_latency(opi);
            match self.spills.iter().find(|s| s.producer == opi) {
                Some(spill) => {
                    // In-register until the store, then reload slivers.
                    p.add(pl.cluster, def, spill.store.max(def));
                    for l in &spill.loads {
                        p.add(pl.cluster, l.time + self.load_latency(), l.use_time);
                    }
                    // Reads at or before the store are covered by [def, store].
                }
                None => {
                    let last = self.last_register_read(opi, pl.cluster).max(def);
                    p.add(pl.cluster, def, last);
                }
            }
        }

        // Destination-cluster lifetimes of transferred values.
        for t in &self.transfers {
            let pid = gpsched_graph::NodeId::from_index(t.producer);
            let mut last = t.arrival;
            for (e, c) in self.ddg.graph().out_edges(pid) {
                let dep = self.ddg.dep(e);
                if dep.kind != DepKind::Flow {
                    continue;
                }
                if let Some(cp) = self.placements[c.index()] {
                    if cp.cluster == t.to {
                        last = last.max(cp.time + self.ii * dep.distance as i64);
                    }
                }
            }
            p.add(t.to, t.arrival, last);
        }

        self.pressure = p;
    }

    /// All placements (same order as the DDG ops); `None` entries are
    /// unplaced.
    pub fn placements(&self) -> &[Option<Placement>] {
        &self.placements
    }

    /// MaxLive per cluster.
    pub fn max_live_per_cluster(&self) -> Vec<i64> {
        (0..self.machine.cluster_count())
            .map(|c| self.pressure.max_live(c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_ddg::DdgBuilder;
    use gpsched_graph::NodeId;

    fn two_cluster() -> MachineConfig {
        MachineConfig::two_cluster(32, 1, 1)
    }

    #[test]
    fn place_respects_fu_capacity() {
        let mut b = DdgBuilder::new("t");
        for i in 0..3 {
            b.op(OpClass::Load, format!("l{i}"));
        }
        let ddg = b.build().unwrap();
        let m = two_cluster(); // 2 mem ports per cluster
        let mut ps = PartialSchedule::new(&ddg, &m, 1);
        assert!(ps.place(NodeId::from_index(0), 0, 0).is_ok());
        assert!(ps.place(NodeId::from_index(1), 0, 0).is_ok());
        let mut clone = ps.clone();
        assert_eq!(
            clone.place(NodeId::from_index(2), 0, 0),
            Err(PlaceError::FunctionalUnit)
        );
        assert!(ps.place(NodeId::from_index(2), 1, 0).is_ok());
    }

    #[test]
    fn same_cluster_timing_enforced() {
        let mut b = DdgBuilder::new("t");
        let p = b.op(OpClass::Load, "p"); // lat 2
        let c = b.op(OpClass::IntAlu, "c");
        b.flow(p, c);
        let ddg = b.build().unwrap();
        let m = two_cluster();
        let mut ps = PartialSchedule::new(&ddg, &m, 4);
        ps.place(p, 0, 0).unwrap();
        let mut early = ps.clone();
        assert_eq!(early.place(c, 0, 1), Err(PlaceError::Timing));
        assert!(ps.place(c, 0, 2).is_ok());
    }

    #[test]
    fn cross_cluster_uses_bus() {
        let mut b = DdgBuilder::new("t");
        let p = b.op(OpClass::IntAlu, "p"); // lat 1
        let c = b.op(OpClass::IntAlu, "c");
        b.flow(p, c);
        let ddg = b.build().unwrap();
        let m = two_cluster();
        let mut ps = PartialSchedule::new(&ddg, &m, 4);
        ps.place(p, 0, 0).unwrap();
        // Needs value at cycle 2: ready at 1, bus 1 cycle → arrival 2. OK.
        assert!(ps.place(c, 1, 2).is_ok());
        assert_eq!(ps.transfers().len(), 1);
        let t = &ps.transfers()[0];
        assert_eq!((t.from, t.to), (0, 1));
        assert!(matches!(t.kind, CommKind::Direct { start: 1 }));
        assert_eq!(ps.net_used(), 1);
    }

    #[test]
    fn cross_cluster_too_early_fails() {
        let mut b = DdgBuilder::new("t");
        let p = b.op(OpClass::IntAlu, "p");
        let c = b.op(OpClass::IntAlu, "c");
        b.flow(p, c);
        let ddg = b.build().unwrap();
        let m = two_cluster();
        let mut ps = PartialSchedule::new(&ddg, &m, 4);
        ps.place(p, 0, 0).unwrap();
        // Ready at 1, bus takes 1 → cannot read at cycle 1.
        let mut early = ps.clone();
        assert_eq!(early.place(c, 1, 1), Err(PlaceError::Communication));
    }

    #[test]
    fn transfer_reused_for_second_consumer() {
        let mut b = DdgBuilder::new("t");
        let p = b.op(OpClass::IntAlu, "p");
        let c1 = b.op(OpClass::IntAlu, "c1");
        let c2 = b.op(OpClass::IntAlu, "c2");
        b.flow(p, c1);
        b.flow(p, c2);
        let ddg = b.build().unwrap();
        let m = two_cluster();
        let mut ps = PartialSchedule::new(&ddg, &m, 4);
        ps.place(p, 0, 0).unwrap();
        ps.place(c1, 1, 2).unwrap();
        ps.place(c2, 1, 3).unwrap();
        assert_eq!(ps.transfers().len(), 1, "one value, one transfer");
    }

    #[test]
    fn bus_saturation_falls_back_to_memory() {
        // II=1 with a 1-cycle bus: one transfer saturates the bus; the
        // second producer-consumer pair must go through memory.
        let mut b = DdgBuilder::new("t");
        let p1 = b.op(OpClass::IntAlu, "p1");
        let c1 = b.op(OpClass::IntAlu, "c1");
        let p2 = b.op(OpClass::IntAlu, "p2");
        let c2 = b.op(OpClass::IntAlu, "c2");
        b.flow(p1, c1);
        b.flow(p2, c2);
        let ddg = b.build().unwrap();
        let m = two_cluster();
        let mut ps = PartialSchedule::new(&ddg, &m, 1);
        ps.place(p1, 0, 0).unwrap();
        ps.place(c1, 1, 2).unwrap();
        ps.place(p2, 0, 1).unwrap();
        // Value ready at 2; memory path: store ≥ 2, load ≥ store+1,
        // arrival = load+2 ≤ read → place consumer late enough.
        ps.place(c2, 1, 6).unwrap();
        let kinds: Vec<bool> = ps
            .transfers()
            .iter()
            .map(|t| matches!(t.kind, CommKind::Direct { .. }))
            .collect();
        assert_eq!(kinds.iter().filter(|&&b| b).count(), 1);
        assert_eq!(kinds.iter().filter(|&&b| !b).count(), 1);
        // Memory path consumed one slot in each cluster.
        assert_eq!(ps.mem_used(0), 1);
        assert_eq!(ps.mem_used(1), 1);
    }

    #[test]
    fn register_pressure_tracks_lifetimes() {
        let mut b = DdgBuilder::new("t");
        let p = b.op(OpClass::IntAlu, "p");
        let c = b.op(OpClass::IntAlu, "c");
        b.flow(p, c);
        let ddg = b.build().unwrap();
        let m = two_cluster();
        let mut ps = PartialSchedule::new(&ddg, &m, 2);
        ps.place(p, 0, 0).unwrap();
        ps.place(c, 0, 9).unwrap();
        // Value live [1, 9]: 9 cycles at II=2 → ceil = 5 registers.
        assert_eq!(ps.max_live(0), 5);
        assert_eq!(ps.max_live(1), 0);
    }

    #[test]
    fn spill_rescues_overflow() {
        // Tiny register file: 2 regs/cluster. A long-lived value plus a
        // second one must trigger a spill rather than failing.
        let mut b = DdgBuilder::new("t");
        let p = b.op(OpClass::IntAlu, "p");
        let c = b.op(OpClass::IntAlu, "c");
        b.flow(p, c);
        let ddg = b.build().unwrap();
        let m = MachineConfig::homogeneous(2, (2, 2, 2), 4, 1, 1); // 2 regs each
        let mut ps = PartialSchedule::new(&ddg, &m, 2);
        ps.place(p, 0, 0).unwrap();
        // Live [1, 13] → 7 regs needed without spilling; capacity is 2.
        ps.place(c, 0, 13).unwrap();
        assert_eq!(ps.spills().len(), 1);
        assert!(ps.max_live(0) <= 2);
        let s = &ps.spills()[0];
        assert_eq!(s.producer, 0);
        assert_eq!(s.loads.len(), 1);
        // The reload feeds the read at cycle 13.
        assert_eq!(s.loads[0].use_time, 13);
    }

    #[test]
    fn spill_ranks_longest_interval_first() {
        // Two values in one cluster overflow its 4 registers at II 4. The
        // spiller tries candidates longest register interval first, ties
        // by the lower op index, so the first spill names the longer value
        // even when it has the higher index, and the lower index on a tie.
        let first_spill = |short_use: i64| {
            let mut b = DdgBuilder::new("t");
            let a = b.op(OpClass::IntAlu, "a");
            let long = b.op(OpClass::IntAlu, "long");
            let ca = b.op(OpClass::IntAlu, "ca");
            let cl = b.op(OpClass::IntAlu, "cl");
            b.flow(a, ca);
            b.flow(long, cl);
            let ddg = b.build().unwrap();
            let m = MachineConfig::homogeneous(2, (2, 2, 2), 8, 1, 1); // 4 regs each
            let mut ps = PartialSchedule::new(&ddg, &m, 4);
            ps.place(a, 0, 0).unwrap();
            ps.place(long, 0, 1).unwrap();
            ps.place(ca, 0, short_use).unwrap();
            assert!(ps.spills().is_empty(), "one value alone fits");
            ps.place(cl, 0, 13).unwrap();
            ps.spills()[0].producer
        };
        // Intervals [1, 6] and [2, 13]: the longer, op 1, goes first.
        assert_eq!(first_spill(6), 1);
        // Intervals [1, 12] and [2, 13]: the tie goes to op 0.
        assert_eq!(first_spill(12), 0);
    }

    #[test]
    fn no_spill_fails_where_spill_rescues() {
        // `spill_rescues_overflow`'s placement, with spilling switched off:
        // the overflow fails the placement instead.
        let mut b = DdgBuilder::new("t");
        let p = b.op(OpClass::IntAlu, "p");
        let c = b.op(OpClass::IntAlu, "c");
        b.flow(p, c);
        let ddg = b.build().unwrap();
        let m = MachineConfig::homogeneous(2, (2, 2, 2), 4, 1, 1); // 2 regs each
        let mut ps = PartialSchedule::with_spill(&ddg, &m, 2, false);
        ps.place(p, 0, 0).unwrap();
        assert_eq!(ps.place(c, 0, 13), Err(PlaceError::Registers));
        let mut spilling = PartialSchedule::new(&ddg, &m, 2);
        spilling.place(p, 0, 0).unwrap();
        assert!(spilling.place(c, 0, 13).is_ok());
        assert_eq!(spilling.spills().len(), 1);
    }

    #[test]
    fn register_failure_when_spill_cannot_help() {
        // One register per cluster at II=1: two simultaneously live values
        // overflow, and the spiller has no candidate worth spilling (both
        // lifetimes are shorter than the II), so placement must fail with
        // a register error rather than loop or panic.
        let mut b = DdgBuilder::new("t");
        let l1 = b.op(OpClass::Load, "l1");
        let l2 = b.op(OpClass::Load, "l2");
        let c = b.op(OpClass::IntAlu, "c");
        b.flow(l1, c);
        b.flow(l2, c);
        let ddg = b.build().unwrap();
        let m = MachineConfig::homogeneous(2, (2, 2, 2), 2, 1, 1); // 1 reg each!
        let mut ps = PartialSchedule::new(&ddg, &m, 1);
        ps.place(l1, 0, 0).unwrap();
        let mut bad = ps.clone();
        assert_eq!(bad.place(l2, 0, 1), Err(PlaceError::Registers));
    }
}
