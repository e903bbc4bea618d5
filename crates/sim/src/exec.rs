//! Schedule expansion and cycle-level audits.

use crate::error::SimError;
use gpsched_ddg::{Ddg, DepKind};
use gpsched_machine::{MachineConfig, ResourceKind};
use gpsched_sched::state::CommKind;
use gpsched_sched::Schedule;
use std::collections::HashMap;

/// Outcome of a successful simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Observed execution span in cycles (first issue → last completion).
    pub cycles: u64,
    /// Empirical per-cluster register high-water marks.
    pub max_live: Vec<i64>,
    /// Peak number of hops in flight on any single interconnect channel
    /// in any cycle.
    pub channel_peak: u32,
    /// Operation instances executed.
    pub instances: u64,
}

/// Executes `schedule` for `trips` iterations and audits every invariant.
///
/// # Errors
///
/// The first violated invariant, as a [`SimError`].
///
/// # Panics
///
/// Panics if `trips == 0` or the schedule does not cover every op of `ddg`.
pub fn simulate(
    ddg: &Ddg,
    machine: &MachineConfig,
    schedule: &Schedule,
    trips: u64,
) -> Result<SimReport, SimError> {
    assert!(trips >= 1, "loops run at least once");
    assert_eq!(
        schedule.placements().len(),
        ddg.op_count(),
        "schedule must cover the loop"
    );
    let _span = gpsched_trace::span!("sim.replay", "ii={}", schedule.ii());
    gpsched_trace::counter!("sim.audits");
    let ii = schedule.ii();
    let trips_i = trips as i64;
    let store_lat = machine.latencies.store as i64;
    let load_lat = machine.latencies.load as i64;

    // ---- 1. Functional units and memory ports -------------------------
    // usage[(cluster, kind, cycle)] = issues. Iteration instances repeat
    // with period II, so auditing min(trips, 2·stages + 2) iterations
    // covers every distinct residue pattern (prolog, steady state) and the
    // epilog only removes work.
    let audit_trips = trips_i.min(2 * schedule.stage_count() + 2);
    let mut usage: HashMap<(usize, usize, i64), u32> = HashMap::new();
    let mut issue = |cluster: usize, kind: ResourceKind, t: i64| {
        *usage.entry((cluster, kind.index(), t)).or_insert(0) += 1;
    };
    for k in 0..audit_trips {
        for op in ddg.op_ids() {
            let p = schedule.placements()[op.index()];
            issue(p.cluster, ddg.op(op).class.resource(), p.time + k * ii);
        }
        for t in schedule.transfers() {
            if let CommKind::Memory {
                store,
                load,
                reuses_spill,
            } = t.kind
            {
                if !reuses_spill {
                    issue(t.from, ResourceKind::MemPort, store + k * ii);
                }
                issue(t.to, ResourceKind::MemPort, load + k * ii);
            }
        }
        for s in schedule.spills() {
            issue(s.cluster, ResourceKind::MemPort, s.store + k * ii);
            for l in &s.loads {
                issue(s.cluster, ResourceKind::MemPort, l.time + k * ii);
            }
        }
    }
    for (&(cluster, kind, cycle), &count) in &usage {
        let units = machine
            .cluster(cluster)
            .units(ResourceKind::from_index(kind));
        if count > units {
            return Err(SimError::ResourceOverflow {
                cluster,
                kind: ResourceKind::from_index(kind).to_string(),
                cycle: cycle.max(0) as u64,
                count,
                units,
            });
        }
    }

    // ---- 2. Interconnect channel occupancy and hop timing -------------
    // A transfer's recorded arrival must be what its transport actually
    // delivers — the dataflow check below trusts `arrival`, so a
    // scheduler bug that, say, priced a ring transfer with the
    // reverse-direction latency would otherwise slip past the audit.
    for t in schedule.transfers() {
        let expected = match t.kind {
            CommKind::Direct { start } => start + machine.transfer_latency(t.from, t.to),
            CommKind::Memory { load, .. } => load + load_lat,
        };
        if t.arrival != expected {
            return Err(SimError::TransferTimingMismatch {
                producer: t.producer,
                from: t.from,
                to: t.to,
                expected,
                recorded: t.arrival,
            });
        }
    }
    // Every direct transfer replays its topology route: hop h books its
    // channel for `occupancy` cycles starting `offset` after departure.
    let mut chan: HashMap<(usize, i64), u32> = HashMap::new();
    for k in 0..audit_trips {
        for t in schedule.transfers() {
            if let CommKind::Direct { start } = t.kind {
                for h in machine.route(t.from, t.to) {
                    for j in 0..h.occupancy {
                        *chan
                            .entry((h.channel, start + k * ii + h.offset + j))
                            .or_insert(0) += 1;
                    }
                }
            }
        }
    }
    let mut channel_peak = 0u32;
    for (&(channel, cycle), &count) in &chan {
        channel_peak = channel_peak.max(count);
        let capacity = machine.channel_capacity(channel);
        if count > capacity {
            return Err(SimError::ChannelOverflow {
                channel,
                cycle: cycle.max(0) as u64,
                count,
                capacity,
            });
        }
    }

    // ---- 3. Dataflow tokens --------------------------------------------
    // Consumer instance k of a flow dep (p → c, distance d) reads token
    // (p, k − d). Iterations k < d read loop live-ins (not checked).
    let check_trips = trips_i.min(2 * schedule.stage_count() + 2);
    for e in ddg.dep_ids() {
        let dep = ddg.dep(e);
        let (pid, cid) = ddg.dep_endpoints(e);
        let pp = schedule.placements()[pid.index()];
        let cp = schedule.placements()[cid.index()];
        let d = dep.distance as i64;
        for k in d..check_trips.max(d).min(trips_i) {
            let read = cp.time + k * ii;
            let produced = pp.time + (k - d) * ii + dep.latency as i64;
            let available = match dep.kind {
                DepKind::Mem => produced,
                DepKind::Flow => {
                    if pp.cluster == cp.cluster {
                        produced
                    } else {
                        // Delivered by the earliest transfer that reaches
                        // the consumer's cluster in time.
                        schedule
                            .transfers()
                            .iter()
                            .filter(|t| t.producer == pid.index() && t.to == cp.cluster)
                            .map(|t| t.arrival + (k - d) * ii)
                            .min()
                            .unwrap_or(i64::MAX)
                    }
                }
            };
            if read < available {
                return Err(SimError::DependenceViolation {
                    consumer: cid.index(),
                    producer: pid.index(),
                    iteration: k as u64,
                    read,
                    available,
                });
            }
        }
    }
    // Spill loads must sit between the store and their use.
    for s in schedule.spills() {
        let pp = schedule.placements()[s.producer];
        let def = pp.time + ddg.op(gpsched_graph_node(s.producer)).latency as i64;
        debug_assert!(s.store >= def);
        for l in &s.loads {
            if l.time < s.store + store_lat || l.time + load_lat > l.use_time {
                return Err(SimError::DependenceViolation {
                    consumer: s.producer,
                    producer: s.producer,
                    iteration: 0,
                    read: l.use_time,
                    available: l.time + load_lat,
                });
            }
        }
    }

    // ---- 4. Register pressure ------------------------------------------
    // Empirical live counting over the whole execution.
    let mut intervals: Vec<(usize, i64, i64)> = Vec::new();
    for op in ddg.op_ids() {
        if !ddg.op(op).class.defines_value() {
            continue;
        }
        let p = schedule.placements()[op.index()];
        let spill = schedule.spills().iter().find(|s| s.producer == op.index());
        for k in 0..trips_i {
            let def = p.time + k * ii + ddg.op(op).latency as i64;
            // Same-cluster reads by consumer instances that exist.
            let mut last = def;
            for (e, c) in ddg.graph().out_edges(op) {
                let dep = ddg.dep(e);
                if dep.kind != DepKind::Flow {
                    continue;
                }
                let cp = schedule.placements()[c.index()];
                if cp.cluster != p.cluster {
                    continue;
                }
                let kc = k + dep.distance as i64;
                if kc < trips_i {
                    last = last.max(cp.time + kc * ii);
                }
            }
            for t in schedule.transfers() {
                if t.producer == op.index() {
                    last = last.max(t.read_time + k * ii);
                }
            }
            match spill {
                Some(s) => {
                    intervals.push((p.cluster, def, (s.store + k * ii).max(def)));
                    for l in &s.loads {
                        intervals.push((
                            p.cluster,
                            l.time + k * ii + load_lat,
                            l.use_time + k * ii,
                        ));
                    }
                }
                None => intervals.push((p.cluster, def, last)),
            }
        }
    }
    for t in schedule.transfers() {
        for k in 0..trips_i {
            let arrival = t.arrival + k * ii;
            let mut last = arrival;
            for (e, c) in ddg.graph().out_edges(gpsched_graph_node(t.producer)) {
                let dep = ddg.dep(e);
                if dep.kind != DepKind::Flow {
                    continue;
                }
                let cp = schedule.placements()[c.index()];
                if cp.cluster != t.to {
                    continue;
                }
                let kc = k + dep.distance as i64;
                if kc < trips_i {
                    last = last.max(cp.time + kc * ii);
                }
            }
            intervals.push((t.to, arrival, last));
        }
    }
    let horizon = intervals
        .iter()
        .map(|&(_, _, e)| e)
        .max()
        .unwrap_or(0)
        .max(0)
        + 2;
    let nclusters = machine.cluster_count();
    let mut diff = vec![vec![0i64; horizon as usize + 2]; nclusters];
    for &(c, s, e) in &intervals {
        if e < s {
            continue;
        }
        let s = s.max(0);
        diff[c][s as usize] += 1;
        diff[c][e as usize + 1] -= 1;
    }
    let mut max_live = vec![0i64; nclusters];
    for c in 0..nclusters {
        let mut live = 0i64;
        for (cycle, &d) in diff[c].iter().enumerate() {
            live += d;
            if live > max_live[c] {
                max_live[c] = live;
            }
            let regs = machine.cluster(c).registers as i64;
            if live > regs {
                return Err(SimError::RegisterOverflow {
                    cluster: c,
                    cycle: cycle as i64,
                    live,
                    registers: regs,
                });
            }
        }
    }

    // ---- 5. Cycle count --------------------------------------------------
    let mut first_issue = i64::MAX;
    let mut last_done = 0i64;
    for op in ddg.op_ids() {
        let p = schedule.placements()[op.index()];
        first_issue = first_issue.min(p.time);
        last_done = last_done.max(p.time + (trips_i - 1) * ii + ddg.op(op).latency as i64);
    }
    for t in schedule.transfers() {
        let start = match t.kind {
            CommKind::Direct { start } => start,
            CommKind::Memory { store, .. } => store,
        };
        first_issue = first_issue.min(start);
        last_done = last_done.max(t.arrival + (trips_i - 1) * ii);
    }
    for s in schedule.spills() {
        first_issue = first_issue.min(
            s.store
                .min(s.loads.iter().map(|l| l.time).min().unwrap_or(s.store)),
        );
        last_done = last_done.max(s.store + (trips_i - 1) * ii + store_lat);
        for l in &s.loads {
            last_done = last_done.max(l.time + (trips_i - 1) * ii + load_lat);
        }
    }
    let observed = (last_done - first_issue) as u64;
    let expected = schedule.cycles(trips);
    if observed != expected {
        return Err(SimError::CycleMismatch { expected, observed });
    }

    Ok(SimReport {
        cycles: observed,
        max_live,
        channel_peak,
        instances: trips * ddg.op_count() as u64,
    })
}

fn gpsched_graph_node(i: usize) -> gpsched_graph::NodeId {
    gpsched_graph::NodeId::from_index(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_sched::{schedule_loop, AlgorithmSpec};
    use gpsched_workloads::kernels;

    fn machines() -> Vec<MachineConfig> {
        vec![
            MachineConfig::unified(32),
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::two_cluster(64, 1, 2),
            MachineConfig::four_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
        ]
    }

    #[test]
    fn every_kernel_schedule_validates() {
        for ddg in kernels::all_kernels(50) {
            for m in machines() {
                for algo in AlgorithmSpec::PAPER {
                    let r = schedule_loop(&ddg, &m, algo).unwrap();
                    let rep = simulate(&ddg, &m, &r.schedule, 50).unwrap_or_else(|e| {
                        panic!("{} on {} via {:?}: {e}", ddg.name(), m.short_name(), algo)
                    });
                    assert_eq!(rep.cycles, r.schedule.cycles(50));
                }
            }
        }
    }

    #[test]
    fn empirical_pressure_within_scheduler_bound() {
        // The simulator's empirical MaxLive can never exceed what the
        // scheduler accounted for.
        for ddg in kernels::all_kernels(30) {
            let m = MachineConfig::four_cluster(32, 1, 1);
            let r = schedule_loop(&ddg, &m, AlgorithmSpec::GP).unwrap();
            let rep = simulate(&ddg, &m, &r.schedule, 30).unwrap();
            for (c, &emp) in rep.max_live.iter().enumerate() {
                assert!(
                    emp <= r.schedule.max_live()[c],
                    "{}: cluster {c} empirical {} > scheduled {}",
                    ddg.name(),
                    emp,
                    r.schedule.max_live()[c]
                );
            }
        }
    }

    #[test]
    fn channel_peak_respects_capacity() {
        for ddg in kernels::all_kernels(40) {
            let m = MachineConfig::four_cluster(64, 1, 2);
            let r = schedule_loop(&ddg, &m, AlgorithmSpec::URACAM).unwrap();
            let rep = simulate(&ddg, &m, &r.schedule, 40).unwrap();
            assert!(rep.channel_peak <= m.channel_capacity(0));
        }
    }

    #[test]
    fn topology_machines_audit_clean() {
        use gpsched_machine::Interconnect;
        let machines = [
            MachineConfig::homogeneous_with(
                4,
                (1, 1, 1),
                64,
                Interconnect::Ring {
                    hop_latency: 1,
                    links_per_hop: 1,
                },
            ),
            MachineConfig::homogeneous_with(
                4,
                (1, 1, 1),
                64,
                Interconnect::uniform_point_to_point(4, 1, 1),
            ),
            MachineConfig::homogeneous_with(
                2,
                (2, 2, 2),
                32,
                Interconnect::SharedBus {
                    count: 1,
                    latency: 2,
                    pipelined: true,
                },
            ),
        ];
        for ddg in kernels::all_kernels(40) {
            for m in &machines {
                for algo in AlgorithmSpec::PAPER {
                    let r = schedule_loop(&ddg, m, algo).unwrap();
                    simulate(&ddg, m, &r.schedule, 40).unwrap_or_else(|e| {
                        panic!("{} on {} via {:?}: {e}", ddg.name(), m.short_name(), algo)
                    });
                }
            }
        }
    }

    #[test]
    fn single_trip_works() {
        let ddg = kernels::daxpy(1);
        let m = MachineConfig::two_cluster(32, 1, 1);
        let r = schedule_loop(&ddg, &m, AlgorithmSpec::GP).unwrap();
        let rep = simulate(&ddg, &m, &r.schedule, 1).unwrap();
        assert_eq!(rep.cycles, r.schedule.length() as u64);
    }

    #[test]
    fn instances_counted() {
        let ddg = kernels::dot_product(25);
        let m = MachineConfig::unified(32);
        let r = schedule_loop(&ddg, &m, AlgorithmSpec::URACAM).unwrap();
        let rep = simulate(&ddg, &m, &r.schedule, 25).unwrap();
        assert_eq!(rep.instances, 25 * ddg.op_count() as u64);
    }
}
