//! Exactness of the partitioner's two RecMII shortcuts.
//!
//! * `mii` searches for the smallest recurrence-feasible II at or above
//!   ResMII instead of computing RecMII from 1 and taking the maximum.
//! * `edge_weights` takes RecMII from its timing analysis at `ii_input`
//!   and probes each recurrence edge on its own strongly connected
//!   component instead of on the whole graph.
//!
//! Both must give exactly what the direct formulation gives. The direct
//! `edge_weights` is kept here, and only here, as the oracle.

use gpsched_ddg::timing::TimingWorkspace;
use gpsched_ddg::{mii, Ddg};
use gpsched_graph::feasibility::BfKernel;
use gpsched_graph::scc::component_index;
use gpsched_machine::{table1_configs, topology_presets, MachineConfig};
use gpsched_partition::weights::edge_weights;
use gpsched_workloads::{kernels, spec_suite, synth};

/// The kernels, the 70 SPECfp95 loops and four loops of every generator
/// preset.
fn corpus() -> Vec<Ddg> {
    let mut loops = kernels::all_kernels(100);
    for program in spec_suite() {
        loops.extend(program.loops);
    }
    for name in synth::PRESET_NAMES {
        let profile = synth::preset(name).expect("bundled preset");
        loops.extend(synth::corpus(name, &profile, 5, 4));
    }
    loops
}

/// A shared bus at latency 1 and 2, a ring and a point-to-point mesh.
fn machines() -> Vec<MachineConfig> {
    let mut out = vec![
        MachineConfig::two_cluster(32, 1, 1),
        MachineConfig::four_cluster(64, 1, 2),
    ];
    out.extend(
        topology_presets()
            .into_iter()
            .filter(|m| ["c4r64ring1x1", "c4r64p2p1x1"].contains(&m.short_name().as_str())),
    );
    assert_eq!(out.len(), 4);
    out
}

/// The direct formulation: search RecMII over the whole graph from 1,
/// then probe every edge of a strongly connected component on the whole
/// graph over `[RecMII, RecMII + bus latency]`.
fn edge_weights_oracle(ddg: &Ddg, machine: &MachineConfig, ii_input: i64) -> Vec<i64> {
    let bus_lat = machine.max_transfer_latency();
    let niter = ddg.trip_count() as i64;
    let deps = ddg.constraint_deps(|_| 0);
    let mut kernel = BfKernel::build(ddg.op_count(), &deps);
    let rec_base = mii::rec_mii_on(&mut kernel, &deps);
    let ii_base = ii_input.max(rec_base);
    let mut ws = TimingWorkspace::new();
    let t = ws
        .analyze(ddg, ii_base, |_| 0)
        .expect("ii at or above RecMII is feasible");
    let maxsl = t.max_slack;
    let (_, comp) = component_index(ddg.graph());
    ddg.dep_ids()
        .map(|e| {
            let (s, d) = ddg.dep_endpoints(e);
            let dep = ddg.dep(e);
            let ii_after = if comp[s.index()] == comp[d.index()] {
                kernel.add_extra(e.index(), bus_lat);
                let rec_after = kernel
                    .min_feasible_ii(rec_base, rec_base + bus_lat, None)
                    .expect("RecMII grows by at most the added delay");
                kernel.add_extra(e.index(), -bus_lat);
                ii_input.max(rec_after)
            } else {
                ii_base
            };
            let mp_after = if dep.distance == 0 {
                t.max_path_with_delay(s.index(), d.index(), dep.latency as i64, bus_lat)
            } else {
                t.max_path
            };
            let delay = (niter - 1) * (ii_after - ii_base) + (mp_after - t.max_path);
            delay * (maxsl + 1) + maxsl - t.edge_slack[e.index()] + 1
        })
        .collect()
}

#[test]
fn mii_is_the_larger_of_the_two_bounds() {
    let mut all_machines: Vec<MachineConfig> =
        table1_configs().into_iter().map(|(_, m)| m).collect();
    all_machines.extend(topology_presets());
    for ddg in corpus() {
        let rec = mii::rec_mii(&ddg);
        for m in &all_machines {
            assert_eq!(
                mii::mii(&ddg, m),
                mii::res_mii(&ddg, m).max(rec),
                "{} on {}",
                ddg.name(),
                m.short_name()
            );
        }
    }
}

#[test]
fn edge_weights_equal_the_whole_graph_formulation() {
    let mut below_rec_mii = 0;
    for ddg in corpus() {
        let rec = mii::rec_mii(&ddg);
        for m in machines() {
            let start = mii::mii(&ddg, &m);
            // The partitioner's inputs (MII and raised re-partition IIs)
            // plus inputs below RecMII, where the analysis at `ii_input`
            // fails and RecMII must be searched for.
            let mut inputs = vec![start, start + 1, start + 3, 1];
            if rec > 2 {
                inputs.push(rec - 1);
            }
            // One workspace across the inputs, as the evaluator lends its
            // own to every call.
            let mut ws = TimingWorkspace::new();
            for ii in inputs {
                below_rec_mii += usize::from(ii < rec);
                assert_eq!(
                    edge_weights(&ddg, &m, ii, &mut ws),
                    edge_weights_oracle(&ddg, &m, ii),
                    "{} on {} at ii {ii}",
                    ddg.name(),
                    m.short_name()
                );
            }
        }
    }
    assert!(below_rec_mii > 0, "no input below RecMII was covered");
}
