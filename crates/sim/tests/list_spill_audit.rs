//! The list scheduler's spill-on-overflow path under the cycle-accurate
//! auditor: spilled schedules — including ones whose period had to grow
//! past the core span because every memory-port residue was taken — must
//! replay cleanly and match the closed-form cycle count.

use gpsched_ddg::DdgBuilder;
use gpsched_machine::{ClusterConfig, Interconnect, LatencyModel, MachineConfig, OpClass};
use gpsched_sched::{schedule_loop, AlgorithmSpec};
use gpsched_sim::simulate;
use gpsched_workloads::synth;

/// Single cluster, one memory port, a small register file.
fn port_starved(registers: u32) -> MachineConfig {
    MachineConfig::custom(
        vec![ClusterConfig {
            int_units: 2,
            fp_units: 1,
            mem_units: 1,
            registers,
        }],
        Interconnect::None,
        LatencyModel::default(),
    )
}

#[test]
fn spilled_list_schedules_replay_cleanly_on_corpus_loops() {
    let machine = MachineConfig::custom(
        vec![
            ClusterConfig {
                int_units: 2,
                fp_units: 2,
                mem_units: 1,
                registers: 12,
            },
            ClusterConfig {
                int_units: 2,
                fp_units: 2,
                mem_units: 1,
                registers: 12,
            },
        ],
        Interconnect::legacy_bus(1, 1),
        LatencyModel::default(),
    );
    let profile = synth::preset("long-distance").expect("bundled preset");
    let mut spilled = 0usize;
    for ddg in synth::corpus("ld", &profile, 11, 12) {
        let r = schedule_loop(&ddg, &machine, AlgorithmSpec::LIST).expect("schedulable");
        spilled += usize::from(!r.schedule.spills().is_empty());
        let trips = ddg.trip_count().clamp(1, 40);
        let report = simulate(&ddg, &machine, &r.schedule, trips)
            .unwrap_or_else(|e| panic!("{}: {e}", ddg.name()));
        assert_eq!(report.cycles, r.schedule.cycles(trips), "{}", ddg.name());
    }
    assert!(spilled > 0, "corpus never exercised the spiller");
}

#[test]
fn period_growth_fires_when_ports_are_saturated_and_still_replays() {
    // Hand-built forcing loop: 12 independent loads then 2 stores occupy
    // *every* memory-port residue of the core span, so the spill the
    // carried recurrence needs cannot find a slot at the core period and
    // the scheduler must grow it. The grown schedule must still pass the
    // full audit with the closed form intact.
    let mut b = DdgBuilder::new("port-saturated");
    let mut loads = Vec::new();
    for i in 0..12 {
        loads.push(b.op(OpClass::Load, format!("ld{i}")));
    }
    for (i, &ld) in loads.iter().take(2).enumerate() {
        let st = b.op(OpClass::Store, format!("st{i}"));
        b.flow(ld, st);
    }
    // Carried recurrence whose value is resident 4 iterations: x reads y
    // from 4 iterations back, y reads x in-iteration.
    let x = b.op(OpClass::IntAlu, "x");
    let y = b.op(OpClass::IntAlu, "y");
    b.flow(x, y);
    b.flow_carried(y, x, 4);
    b.trip_count(30);
    let ddg = b.build().expect("valid loop");

    let machine = port_starved(5);
    let r = schedule_loop(&ddg, &machine, AlgorithmSpec::LIST).expect("schedulable");
    let s = &r.schedule;
    assert!(!s.spills().is_empty(), "the recurrence must be spilled");
    // The core span holds 14 memory ops on one port; the spill adds a
    // store and reloads, which cannot fit without a longer period.
    assert!(
        s.ii() > 14,
        "period {} should have grown past the 14 saturated residues",
        s.ii()
    );
    assert!(
        s.max_live()[0] <= 5,
        "MaxLive {} must fit the register file",
        s.max_live()[0]
    );
    let report = simulate(&ddg, &machine, s, 30).expect("spilled schedule replays");
    assert_eq!(report.cycles, s.cycles(30));
}
