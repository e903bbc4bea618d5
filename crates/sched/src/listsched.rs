//! List-scheduling fallback (§4.1: "for these cases, list scheduling is
//! applied").
//!
//! A plain acyclic list schedule of one iteration, executed back to back —
//! no software pipelining. Used when the modulo schedulers exhaust their II
//! budget (rare: loops with pathological recurrence/pressure interplay).

use crate::schedule::Schedule;
use crate::state::{CommKind, Placement, Transfer};
use gpsched_ddg::{Ddg, DepKind};
use gpsched_graph::topo::topo_order;
use gpsched_machine::{MachineConfig, ResourceKind};

/// Books `producer`'s value onto the earliest interconnect departure at
/// or after `earliest` — every hop of the topology's `from → to` route
/// must find its channel free (the growable per-channel occupancy rows in
/// `net`) — records the transfer, and returns its arrival cycle.
fn book_transfer(
    net: &mut [Vec<u32>],
    transfers: &mut Vec<Transfer>,
    machine: &MachineConfig,
    producer: usize,
    from: usize,
    to: usize,
    earliest: i64,
) -> i64 {
    let net_lat = machine.transfer_latency(from, to);
    let fits = |net: &[Vec<u32>], x: i64| {
        machine.route(from, to).all(|h| {
            (0..h.occupancy).all(|j| {
                let s = (x + h.offset + j) as usize;
                s >= net[h.channel].len() || net[h.channel][s] < machine.channel_capacity(h.channel)
            })
        })
    };
    let mut x = earliest;
    while !fits(net, x) {
        x += 1;
    }
    for h in machine.route(from, to) {
        let row = &mut net[h.channel];
        let end = (x + h.offset + h.occupancy) as usize;
        if row.len() < end {
            row.resize(end, 0);
        }
        for j in 0..h.occupancy {
            row[(x + h.offset + j) as usize] += 1;
        }
    }
    transfers.push(Transfer {
        producer,
        from,
        to,
        kind: CommKind::Direct { start: x },
        read_time: x,
        arrival: x + net_lat,
    });
    x + net_lat
}

/// List-schedules one iteration of `ddg` on `machine`.
///
/// Ops are walked in topological order of intra-iteration dependences and
/// greedily placed on the cluster that can start them first (accounting for
/// one bus transfer per cross-cluster operand). Loop-carried dependences
/// are satisfied by construction because iterations do not overlap.
///
/// Register pressure is enforced wherever spilling can relieve it: a
/// value read at iteration distance `d` is resident for `d` whole
/// iterations, so carried-heavy loops can exceed a cluster's register
/// file no matter how ops are ordered. Overflow is relieved in tiers —
/// spill the longest carried lifetimes through memory; failing that,
/// re-place the loop with carried dependence chains co-located (which
/// turns every carried lifetime into a spillable same-cluster one) and
/// spill again. The happy path books nothing and is bit-identical to the
/// historical scheduler. Loops whose irreducible *same-iteration*
/// pressure exceeds the register file (only rematerialization could
/// relieve it, which this model does not do) still come back with their
/// honest, overflowing `MaxLive` — such a loop cannot execute on that
/// machine, and the simulator audit refuses the schedule accordingly.
pub fn list_schedule(ddg: &Ddg, machine: &MachineConfig) -> Schedule {
    let _span = gpsched_trace::span!("sched.list");
    let (placements, transfers, core) = place(ddg, machine, false);
    if let Some((ii, spills, max_live, length)) =
        resolve_pressure(ddg, machine, &placements, &transfers, core, true)
    {
        return Schedule::from_list(placements, transfers, spills, ii, length, max_live);
    }
    let (placements, transfers, core) = place(ddg, machine, true);
    let (ii, spills, max_live, length) =
        resolve_pressure(ddg, machine, &placements, &transfers, core, true).unwrap_or_else(|| {
            // Lenient last resort: spill whatever can be spilled and
            // report the honest (possibly still overflowing) MaxLive.
            resolve_pressure(ddg, machine, &placements, &transfers, core, false)
                .expect("lenient pressure resolution always produces a schedule")
        });
    Schedule::from_list(placements, transfers, spills, ii, length, max_live)
}

/// Greedy placement of ops, bus transfers and the core schedule length.
///
/// With `colocate` set, ops connected by loop-carried flow dependences
/// are forced onto one cluster (chosen by the first of them placed):
/// cross-cluster carried values park `d` iterations of copies in the
/// *consumer's* register file, where the spiller cannot reach them —
/// co-location moves that residency to the producer's cluster, where it
/// can be spilled.
fn place(
    ddg: &Ddg,
    machine: &MachineConfig,
    colocate: bool,
) -> (Vec<Placement>, Vec<Transfer>, i64) {
    let order = topo_order(ddg.graph(), |_, d| d.distance == 0)
        .expect("distance-0 subgraph is acyclic by construction");
    let nclusters = machine.cluster_count();

    // Busy tables grow on demand: fu[cluster][kind][cycle] = units used,
    // net[channel][cycle] = interconnect hops in flight.
    let mut fu: Vec<[Vec<u32>; 3]> = (0..nclusters)
        .map(|_| [Vec::new(), Vec::new(), Vec::new()])
        .collect();
    let mut net: Vec<Vec<u32>> = vec![Vec::new(); machine.channel_count()];
    let mut placements: Vec<Placement> = vec![
        Placement {
            cluster: 0,
            time: 0
        };
        ddg.op_count()
    ];
    let mut transfers: Vec<Transfer> = Vec::new();

    let units = |c: usize, k: ResourceKind| machine.cluster(c).units(k);
    let fu_free = |fu: &Vec<[Vec<u32>; 3]>, c: usize, k: ResourceKind, t: i64| -> bool {
        let row = &fu[c][k.index()];
        let t = t as usize;
        t >= row.len() || row[t] < units(c, k)
    };

    // Carried-flow components: only built (and only consulted) when
    // co-locating, so the default path stays allocation-free here.
    let mut uf = colocate.then(|| {
        let mut uf = gpsched_graph::UnionFind::new(ddg.op_count());
        for e in ddg.dep_ids() {
            let dep = ddg.dep(e);
            if dep.kind == DepKind::Flow && dep.distance > 0 {
                let (a, b) = ddg.dep_endpoints(e);
                uf.union(a.index(), b.index());
            }
        }
        (uf, vec![None::<usize>; ddg.op_count()])
    });

    for &op in &order {
        let kind = ddg.op(op).class.resource();
        // A forced cluster only binds if it can execute the op at all.
        let forced = uf
            .as_mut()
            .and_then(|(uf, comp)| comp[uf.find(op.index())])
            .filter(|&fc| units(fc, kind) > 0);
        // Earliest start per cluster given operand locations.
        let mut best: Option<(i64, usize)> = None;
        for c in 0..nclusters {
            if units(c, kind) == 0 || forced.is_some_and(|fc| fc != c) {
                continue;
            }
            let mut ready = 0i64;
            for (e, p) in ddg.graph().in_edges(op) {
                let dep = ddg.dep(e);
                if dep.distance != 0 {
                    continue;
                }
                let done = placements[p.index()].time + dep.latency as i64;
                let avail = if dep.kind == DepKind::Flow && placements[p.index()].cluster != c {
                    done + machine.transfer_latency(placements[p.index()].cluster, c)
                } else {
                    done
                };
                ready = ready.max(avail);
            }
            let mut t = ready;
            while !fu_free(&fu, c, kind, t) {
                t += 1;
            }
            if best.map_or(true, |(bt, _)| t < bt) {
                best = Some((t, c));
            }
        }
        let (_, c) = best.expect("machine has units for every op kind");
        // Commit one bus transfer per cross-cluster operand value *before*
        // fixing the issue time: under bus contention a transfer can land
        // later than the optimistic `done + bus_lat` estimate used for
        // cluster selection, and the consumer must wait for the actual
        // arrival.
        let mut ready = 0i64;
        for (e, p) in ddg.graph().in_edges(op).collect::<Vec<_>>() {
            let dep = *ddg.dep(e);
            if dep.distance != 0 {
                continue;
            }
            let pp = placements[p.index()];
            let done = pp.time + dep.latency as i64;
            if dep.kind != DepKind::Flow || pp.cluster == c {
                ready = ready.max(done);
                continue;
            }
            // Reuse an already-scheduled transfer of this value to this
            // cluster, else book the earliest free bus slot.
            let arrival = match transfers
                .iter()
                .find(|tr| tr.producer == p.index() && tr.to == c)
            {
                Some(tr) => tr.arrival,
                None => book_transfer(
                    &mut net,
                    &mut transfers,
                    machine,
                    p.index(),
                    pp.cluster,
                    c,
                    done,
                ),
            };
            ready = ready.max(arrival);
        }
        // Commit the FU slot at the earliest free cycle ≥ every operand's
        // true availability.
        let mut t = ready;
        while !fu_free(&fu, c, kind, t) {
            t += 1;
        }
        let row = &mut fu[c][kind.index()];
        if row.len() <= t as usize {
            row.resize(t as usize + 1, 0);
        }
        row[t as usize] += 1;
        placements[op.index()] = Placement {
            cluster: c,
            time: t,
        };
        if let Some((uf, comp)) = uf.as_mut() {
            // First placement wins: a member that escaped the forced
            // cluster (no units there) must not re-point its component.
            let root = uf.find(op.index());
            comp[root].get_or_insert(c);
        }
    }

    // Loop-carried cross-cluster flow deps also move a value, but their
    // producer may be placed after the consumer (they are back-edges of
    // the topo order), so they get their transfers in a post-pass. The
    // timing always works out: iterations are `SL` apart, so a transfer
    // leaving in the producer's iteration arrives within the next
    // iteration's read for any distance ≥ 1 (`arrival ≤ SL ≤ read + d·SL`).
    for e in ddg.dep_ids() {
        let dep = *ddg.dep(e);
        if dep.kind != DepKind::Flow || dep.distance == 0 {
            continue;
        }
        let (p, cons) = ddg.dep_endpoints(e);
        let pp = placements[p.index()];
        let c = placements[cons.index()].cluster;
        if pp.cluster == c
            || transfers
                .iter()
                .any(|tr| tr.producer == p.index() && tr.to == c)
        {
            continue;
        }
        book_transfer(
            &mut net,
            &mut transfers,
            machine,
            p.index(),
            pp.cluster,
            c,
            pp.time + dep.latency as i64,
        );
    }

    // Length: last completion (ops and transfers).
    let mut length = 1i64;
    for op in ddg.op_ids() {
        let p = placements[op.index()];
        length = length.max(p.time + ddg.op(op).latency as i64);
    }
    for t in &transfers {
        length = length.max(t.arrival);
    }

    (placements, transfers, length.max(1))
}

/// Lifetime facts of one value, gathered once per schedule.
struct Life {
    /// Producing op index.
    producer: usize,
    /// Cluster holding the value.
    cluster: usize,
    /// Completion cycle (register residency start).
    def: i64,
    /// Latest same-iteration obligation — distance-0 same-cluster reads
    /// and bus transfer reads — that a spill store must stay behind.
    keep: i64,
    /// Same-cluster reads at distance ≥ 1: (consumer issue, distance).
    /// Their absolute read times (`issue + d·II`) depend on the period.
    carried: Vec<(i64, u32)>,
}

/// Why a strict spill pass could not finish.
enum PassFail {
    /// A needed spill found no free memory-port slot; a longer period
    /// (one more all-idle cycle per iteration) may provide one.
    NoSlot,
    /// An overflowing cluster has no spillable (carried, same-cluster)
    /// lifetime left; growing the period cannot help.
    NoCandidate,
}

/// Computes per-cluster `MaxLive`, spilling on overflow.
///
/// Returns `(ii, spills, max_live, length)`. The fast path — every
/// cluster fits — books nothing and returns the core length unchanged.
/// On overflow the pass spills carried same-cluster values (store after
/// `keep`, one reload right before each carried read), which shrinks a
/// `d`-iteration register residency to the store/reload windows the
/// simulator's spill model accounts. Memory-port capacity is respected
/// per period residue; if a spill cannot find slots the period grows by
/// one idle cycle and the pass restarts with fresh slack.
///
/// In strict mode, `None` means some overflow is beyond the spiller
/// (nothing spillable on the cluster) — the caller escalates placement.
/// Lenient mode never fails: it spills what it can and reports the
/// honest, possibly overflowing, `MaxLive`.
fn resolve_pressure(
    ddg: &Ddg,
    machine: &MachineConfig,
    placements: &[Placement],
    transfers: &[Transfer],
    core: i64,
    strict: bool,
) -> Option<(i64, Vec<crate::state::Spill>, Vec<i64>, i64)> {
    let store_lat = machine.latencies.store as i64;
    let load_lat = machine.latencies.load as i64;
    let caps: Vec<i64> = machine.clusters().map(|c| c.registers as i64).collect();

    let mut lives: Vec<Life> = Vec::new();
    for op in ddg.op_ids() {
        let opd = ddg.op(op);
        if !opd.class.defines_value() {
            continue;
        }
        let pl = placements[op.index()];
        let def = pl.time + opd.latency as i64;
        let mut keep = def;
        let mut carried: Vec<(i64, u32)> = Vec::new();
        for (e, cons) in ddg.graph().out_edges(op) {
            let dep = ddg.dep(e);
            if dep.kind != DepKind::Flow {
                continue;
            }
            let cp = placements[cons.index()];
            if cp.cluster != pl.cluster {
                continue;
            }
            if dep.distance == 0 {
                keep = keep.max(cp.time);
            } else {
                carried.push((cp.time, dep.distance));
            }
        }
        for t in transfers.iter().filter(|t| t.producer == op.index()) {
            keep = keep.max(t.read_time);
        }
        carried.sort_unstable();
        carried.dedup();
        lives.push(Life {
            producer: op.index(),
            cluster: pl.cluster,
            def,
            keep,
            carried,
        });
    }

    // Every period growth step frees `mem ports × 1` slots per cluster;
    // the spiller needs at most one store plus one load per carried use,
    // so the bound below is far beyond any real demand.
    let growth_cap = core + 4 + 3 * ddg.op_count() as i64;
    for ii in core..=growth_cap {
        match spill_pass(
            ddg, machine, placements, transfers, &lives, &caps, ii, core, store_lat, load_lat,
            strict,
        ) {
            Ok(result) => return Some(result),
            Err(PassFail::NoSlot) => continue,
            Err(PassFail::NoCandidate) => return None,
        }
    }
    None
}

/// One spill attempt at a fixed period `ii`. Lenient mode (`!strict`)
/// leaves unspillable overflow in place instead of failing.
#[allow(clippy::too_many_arguments)]
fn spill_pass(
    ddg: &Ddg,
    machine: &MachineConfig,
    placements: &[Placement],
    transfers: &[Transfer],
    lives: &[Life],
    caps: &[i64],
    ii: i64,
    core: i64,
    store_lat: i64,
    load_lat: i64,
    strict: bool,
) -> Result<(i64, Vec<crate::state::Spill>, Vec<i64>, i64), PassFail> {
    let nclusters = machine.cluster_count();
    // Memory-port occupancy per period residue.
    let mut mem: Vec<Vec<u32>> = vec![vec![0; ii as usize]; nclusters];
    for op in ddg.op_ids() {
        if ddg.op(op).class.resource() == ResourceKind::MemPort {
            let p = placements[op.index()];
            mem[p.cluster][(p.time % ii) as usize] += 1;
        }
    }
    let mem_units: Vec<u32> = (0..nclusters)
        .map(|c| machine.cluster(c).units(ResourceKind::MemPort))
        .collect();

    // Full (unspilled) register residency of a value at this period.
    let full_last = |l: &Life| -> i64 {
        l.carried
            .iter()
            .map(|&(t, d)| t + ii * d as i64)
            .fold(l.keep, i64::max)
    };

    // Rollback tallies, batched per pass: the victim loop can unwind
    // hundreds of times, and per-unwind atomic counters were a measurable
    // share of enabled-tracing overhead.
    let (mut rollbacks, mut undo_entries) = (0u64, 0u64);
    let mut pressure = crate::lifetime::PressureTable::new(caps.to_vec(), ii);
    for l in lives {
        pressure.add(l.cluster, l.def, full_last(l));
    }
    for t in transfers {
        let pid = gpsched_graph::NodeId::from_index(t.producer);
        let mut last = t.arrival;
        for (e, cons) in ddg.graph().out_edges(pid) {
            let dep = ddg.dep(e);
            if dep.kind != DepKind::Flow {
                continue;
            }
            let cp = placements[cons.index()];
            if cp.cluster == t.to {
                last = last.max(cp.time + ii * dep.distance as i64);
            }
        }
        pressure.add(t.to, t.arrival, last);
    }

    let mut spills: Vec<crate::state::Spill> = Vec::new();
    // SL tracks actual last completions (ops/transfers via `core`, spill
    // code below) — never the period: padding SL to a grown `ii` would
    // overstate `cycles()` and break the simulator's closed-form check.
    let mut length = core;
    let mut spilled = vec![false; lives.len()];
    let mut given_up = vec![false; nclusters];
    while let Some(c) = (0..nclusters).find(|&c| !given_up[c] && !pressure.fits(c)) {
        // Longest-lifetime carried value on the overflowing cluster.
        let victim = (0..lives.len())
            .filter(|&v| !spilled[v] && lives[v].cluster == c && !lives[v].carried.is_empty())
            .max_by_key(|&v| full_last(&lives[v]) - lives[v].def);
        // No spillable lifetime — or no memory port to spill through
        // (growing the period cannot conjure one) — means this cluster
        // is beyond the spiller.
        let candidate = victim.filter(|_| mem_units[c] > 0);
        let Some(victim) = candidate else {
            if strict {
                gpsched_trace::counter!("sched.trial_rollbacks", rollbacks);
                gpsched_trace::counter!("sched.undo_entries", undo_entries);
                return Err(PassFail::NoCandidate);
            }
            given_up[c] = true;
            continue;
        };
        // Book the store and the reloads incrementally (so two reloads of
        // one value cannot claim the same port slot), reverting on
        // failure.
        let mut booked: Vec<i64> = Vec::new();
        let book = |mem: &mut Vec<Vec<u32>>, booked: &mut Vec<i64>, t: i64| {
            mem[c][(t % ii) as usize] += 1;
            booked.push(t);
        };
        let l = &lives[victim];
        // Store: earliest free memory-port residue at or after the last
        // same-iteration obligation.
        let store = (l.keep..l.keep + ii).find(|&t| mem[c][(t % ii) as usize] < mem_units[c]);
        let mut loads: Vec<crate::state::SpillLoad> = Vec::new();
        let mut feasible = store.is_some();
        if let Some(store) = store {
            book(&mut mem, &mut booked, store);
            // Reloads: latest free residue ending right before each
            // carried read, so the reloaded value is live only briefly.
            for &(t, d) in &l.carried {
                let use_time = t + ii * d as i64;
                let latest = use_time - load_lat;
                let lo = (store + store_lat).max(latest - ii + 1);
                match (lo..=latest)
                    .rev()
                    .find(|&x| mem[c][(x % ii) as usize] < mem_units[c])
                {
                    Some(time) => {
                        book(&mut mem, &mut booked, time);
                        loads.push(crate::state::SpillLoad { time, use_time });
                    }
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
        }
        if !feasible {
            // The list scheduler's hand-rolled rollback: same discipline
            // as the modulo scheduler's undo log, counted under the same
            // name so traces show every trial unwind.
            rollbacks += 1;
            undo_entries += booked.len() as u64;
            for t in booked {
                mem[c][(t % ii) as usize] -= 1;
            }
            if strict {
                gpsched_trace::counter!("sched.trial_rollbacks", rollbacks);
                gpsched_trace::counter!("sched.undo_entries", undo_entries);
                return Err(PassFail::NoSlot);
            }
            given_up[c] = true;
            continue;
        }
        let store = store.expect("feasible spills have a store");
        // Commit: swap the lifetime for its spilled form.
        length = length.max(store + store_lat);
        pressure.remove(c, l.def, full_last(l));
        pressure.add(c, l.def, store);
        for ld in &loads {
            pressure.add(c, ld.time + load_lat, ld.use_time);
            length = length.max(ld.time + load_lat);
        }
        spills.push(crate::state::Spill {
            producer: l.producer,
            cluster: c,
            store,
            loads,
        });
        gpsched_trace::counter!("sched.list_spills_inserted");
        spilled[victim] = true;
    }
    gpsched_trace::counter!("sched.trial_rollbacks", rollbacks);
    gpsched_trace::counter!("sched.undo_entries", undo_entries);
    let max_live = (0..nclusters).map(|c| pressure.max_live(c)).collect();
    Ok((ii, spills, max_live, length))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_workloads::kernels;

    #[test]
    fn respects_dependences_and_resources() {
        for ddg in kernels::all_kernels(10) {
            for m in [
                MachineConfig::unified(32),
                MachineConfig::two_cluster(32, 1, 1),
                MachineConfig::four_cluster(32, 1, 2),
            ] {
                let s = list_schedule(&ddg, &m);
                // Dependences hold within one iteration.
                for e in ddg.dep_ids() {
                    let dep = ddg.dep(e);
                    if dep.distance != 0 {
                        continue;
                    }
                    let (p, c) = ddg.dep_endpoints(e);
                    let pp = s.placements()[p.index()];
                    let cp = s.placements()[c.index()];
                    let mut avail = pp.time + dep.latency as i64;
                    if dep.kind == gpsched_ddg::DepKind::Flow && pp.cluster != cp.cluster {
                        avail += m.transfer_latency(pp.cluster, cp.cluster);
                    }
                    assert!(
                        cp.time >= avail,
                        "{}: dep violated on {}",
                        ddg.name(),
                        m.short_name()
                    );
                }
                // FU capacity per cycle: a fixed [u32; 3] per (cluster,
                // cycle) slot indexed by ResourceKind.
                let horizon = 1 + ddg
                    .op_ids()
                    .map(|op| s.placements()[op.index()].time)
                    .max()
                    .unwrap_or(0) as usize;
                let mut counts: Vec<Vec<[u32; 3]>> =
                    vec![vec![[0u32; 3]; horizon]; m.cluster_count()];
                for op in ddg.op_ids() {
                    let p = s.placements()[op.index()];
                    let k = ddg.op(op).class.resource();
                    counts[p.cluster][p.time as usize][k.index()] += 1;
                }
                for (c, per_cycle) in counts.iter().enumerate() {
                    for slot in per_cycle {
                        for k in ResourceKind::ALL {
                            assert!(slot[k.index()] <= m.cluster(c).units(k));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn list_cycles_scale_linearly() {
        let ddg = kernels::daxpy(100);
        let m = MachineConfig::unified(32);
        let s = list_schedule(&ddg, &m);
        // List schedules do not overlap iterations: II == SL.
        assert_eq!(s.ii(), s.length().max(1));
        assert_eq!(s.cycles(100), 100 * s.length() as u64);
    }

    #[test]
    fn unified_machine_never_pays_bus() {
        let ddg = kernels::complex_multiply(10);
        let m = MachineConfig::unified(32);
        let s = list_schedule(&ddg, &m);
        assert!(s.transfers().is_empty());
    }
}
