//! The final, normalized schedule and its cycle/IPC accounting.

use crate::state::{CommKind, PartialSchedule, Placement, Spill, Transfer};
use gpsched_ddg::Ddg;
use gpsched_machine::MachineConfig;

/// A complete schedule of one loop.
///
/// All times are normalized: the earliest issue lies in `[0, II)` and every
/// time is non-negative. `length` (the paper's schedule length `SL`) spans
/// from the first issue to the last completion of one iteration, so the
/// loop executes in `(trips − 1)·II + SL` cycles — prolog and epilog
/// included, exactly the paper's IPC accounting.
#[derive(Clone, Debug)]
pub struct Schedule {
    ii: i64,
    length: i64,
    placements: Vec<Placement>,
    transfers: Vec<Transfer>,
    spills: Vec<Spill>,
    max_live: Vec<i64>,
}

impl Schedule {
    /// Freezes a fully placed [`PartialSchedule`], normalizing times by a
    /// multiple of II so residues (and thus resource slots) are preserved.
    ///
    /// # Panics
    ///
    /// Panics if any op is unplaced.
    pub fn from_partial(ddg: &Ddg, machine: &MachineConfig, ps: &PartialSchedule<'_>) -> Self {
        let ii = ps.ii();
        let placements: Vec<Placement> = ps
            .placements()
            .iter()
            .map(|p| p.expect("all ops must be placed"))
            .collect();
        let mut transfers = ps.transfers().to_vec();
        let mut spills = ps.spills().to_vec();

        let store_lat = machine.latencies.store as i64;
        let load_lat = machine.latencies.load as i64;

        // Earliest issue across everything.
        let mut min_issue = i64::MAX;
        for p in &placements {
            min_issue = min_issue.min(p.time);
        }
        for t in &transfers {
            min_issue = min_issue.min(match t.kind {
                CommKind::Direct { start } => start,
                CommKind::Memory { store, .. } => store,
            });
        }
        for s in &spills {
            min_issue = min_issue.min(s.store);
            for l in &s.loads {
                min_issue = min_issue.min(l.time);
            }
        }
        if min_issue == i64::MAX {
            min_issue = 0;
        }
        // Shift by a multiple of II: keeps every `t mod II` unchanged.
        let shift = min_issue.div_euclid(ii) * ii;
        let adj = |t: i64| t - shift;

        let placements: Vec<Placement> = placements
            .into_iter()
            .map(|p| Placement {
                cluster: p.cluster,
                time: adj(p.time),
            })
            .collect();
        for t in &mut transfers {
            t.read_time = adj(t.read_time);
            t.arrival = adj(t.arrival);
            t.kind = match t.kind {
                CommKind::Direct { start } => CommKind::Direct { start: adj(start) },
                CommKind::Memory {
                    store,
                    load,
                    reuses_spill,
                } => CommKind::Memory {
                    store: adj(store),
                    load: adj(load),
                    reuses_spill,
                },
            };
        }
        for s in &mut spills {
            s.store = adj(s.store);
            for l in &mut s.loads {
                l.time = adj(l.time);
                l.use_time = adj(l.use_time);
            }
        }

        // Schedule length: first issue → last completion.
        let first_issue = placements
            .iter()
            .map(|p| p.time)
            .chain(transfers.iter().map(|t| match t.kind {
                CommKind::Direct { start } => start,
                CommKind::Memory { store, .. } => store,
            }))
            .chain(
                spills
                    .iter()
                    .flat_map(|s| std::iter::once(s.store).chain(s.loads.iter().map(|l| l.time))),
            )
            .min()
            .unwrap_or(0);
        let mut last_done = first_issue;
        for (i, p) in placements.iter().enumerate() {
            let lat = ddg.op(gpsched_graph::NodeId::from_index(i)).latency as i64;
            last_done = last_done.max(p.time + lat);
        }
        for t in &transfers {
            last_done = last_done.max(t.arrival);
        }
        for s in &spills {
            last_done = last_done.max(s.store + store_lat);
            for l in &s.loads {
                last_done = last_done.max(l.time + load_lat);
            }
        }

        Schedule {
            ii,
            length: last_done - first_issue,
            placements,
            transfers,
            spills,
            max_live: ps.max_live_per_cluster(),
        }
    }

    /// Freezes a list schedule. `ii` is the iteration period; `length`
    /// is the span to the last completion of one iteration's work —
    /// above `ii` when spill code tails past the last op completion,
    /// below it when pressure relief grew the period past the core span
    /// (iterations separated by idle cycles).
    pub(crate) fn from_list(
        placements: Vec<Placement>,
        transfers: Vec<Transfer>,
        spills: Vec<Spill>,
        ii: i64,
        length: i64,
        max_live: Vec<i64>,
    ) -> Self {
        Schedule {
            ii: ii.max(1),
            length,
            placements,
            transfers,
            spills,
            max_live,
        }
    }

    /// Initiation interval.
    pub fn ii(&self) -> i64 {
        self.ii
    }

    /// Schedule length `SL` of one iteration.
    pub fn length(&self) -> i64 {
        self.length
    }

    /// Placement of every op (indexed by op).
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Inter-cluster transfers.
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// Spills.
    pub fn spills(&self) -> &[Spill] {
        &self.spills
    }

    /// MaxLive per cluster.
    pub fn max_live(&self) -> &[i64] {
        &self.max_live
    }

    /// Number of pipeline stages (`⌈SL / II⌉`, at least 1).
    pub fn stage_count(&self) -> i64 {
        ((self.length + self.ii - 1) / self.ii).max(1)
    }

    /// Total cycles to run `trips` iterations, prolog and epilog included:
    /// `(trips − 1)·II + SL`. Saturates at `u64::MAX` — `.ddg` files may
    /// carry extreme trip counts, and a wrapped cycle count would corrupt
    /// every IPC figure downstream.
    ///
    /// # Panics
    ///
    /// Panics if `trips == 0`.
    pub fn cycles(&self, trips: u64) -> u64 {
        assert!(trips >= 1, "loops run at least once");
        (trips - 1)
            .saturating_mul(self.ii as u64)
            .saturating_add(self.length.max(1) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::PartialSchedule;
    use gpsched_ddg::DdgBuilder;
    use gpsched_graph::NodeId;
    use gpsched_machine::OpClass;

    fn simple() -> (Ddg, MachineConfig) {
        let mut b = DdgBuilder::new("t");
        let p = b.op(OpClass::Load, "p"); // lat 2
        let c = b.op(OpClass::FpAdd, "c"); // lat 3
        b.flow(p, c);
        b.trip_count(10);
        (b.build().unwrap(), MachineConfig::two_cluster(32, 1, 1))
    }

    #[test]
    fn freeze_and_account() {
        let (ddg, m) = simple();
        let mut ps = PartialSchedule::new(&ddg, &m, 2);
        ps.place(NodeId::from_index(0), 0, 0).unwrap();
        ps.place(NodeId::from_index(1), 0, 2).unwrap();
        let s = Schedule::from_partial(&ddg, &m, &ps);
        assert_eq!(s.ii(), 2);
        assert_eq!(s.length(), 5); // load at 0, add completes at 2+3
        assert_eq!(s.stage_count(), 3);
        assert_eq!(s.cycles(10), 9 * 2 + 5);
    }

    #[test]
    fn normalization_preserves_residues() {
        let (ddg, m) = simple();
        let mut ps = PartialSchedule::new(&ddg, &m, 3);
        // Place with negative times (bottom-up placement can do this).
        ps.place(NodeId::from_index(1), 0, 4).unwrap();
        ps.place(NodeId::from_index(0), 0, -1).unwrap();
        let s = Schedule::from_partial(&ddg, &m, &ps);
        // Residue of op 0 was (-1) mod 3 = 2; must survive normalization.
        assert_eq!(s.placements()[0].time % 3, 2);
        assert!(s.placements().iter().all(|p| p.time >= 0));
        // Span: from load issue to add completion = 8 cycles... load at -1,
        // add completes at 7 → SL = 8.
        assert_eq!(s.length(), 8);
    }

    #[test]
    fn transfers_are_normalized_too() {
        let (ddg, m) = simple();
        let mut ps = PartialSchedule::new(&ddg, &m, 3);
        ps.place(NodeId::from_index(0), 0, -3).unwrap();
        ps.place(NodeId::from_index(1), 1, 0).unwrap(); // cross-cluster
        let s = Schedule::from_partial(&ddg, &m, &ps);
        assert_eq!(s.transfers().len(), 1);
        let t = &s.transfers()[0];
        assert!(t.read_time >= 0);
        assert!(t.arrival > t.read_time);
    }

    #[test]
    #[should_panic(expected = "all ops must be placed")]
    fn refuses_partial_schedules() {
        let (ddg, m) = simple();
        let ps = PartialSchedule::new(&ddg, &m, 2);
        let _ = Schedule::from_partial(&ddg, &m, &ps);
    }

    #[test]
    #[should_panic(expected = "at least once")]
    fn zero_trips_rejected() {
        let (ddg, m) = simple();
        let mut ps = PartialSchedule::new(&ddg, &m, 2);
        ps.place(NodeId::from_index(0), 0, 0).unwrap();
        ps.place(NodeId::from_index(1), 0, 2).unwrap();
        Schedule::from_partial(&ddg, &m, &ps).cycles(0);
    }
}
