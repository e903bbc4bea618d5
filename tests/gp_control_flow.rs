//! Tests of the Figure 1 control flows: Fixed Partition vs GP, selective
//! re-partitioning, and the list-scheduling fallback.

use gpsched::prelude::*;
use gpsched::sched::{pipeline, schedule_loop_spec_seeded, DriverConfig, SchedSeed, ScheduledWith};
use gpsched::SchedError;

/// `spec`'s modulo schedule of `ddg` and its re-partition count; panics
/// if the list fallback fired.
fn modulo(ddg: &Ddg, machine: &MachineConfig, spec: AlgorithmSpec) -> (LoopResult, usize) {
    let r = schedule_loop(ddg, machine, spec).unwrap();
    match r.method {
        ScheduledWith::Modulo { repartitions } => (r, repartitions),
        ref other => panic!("{}: {spec} gave {other:?}", ddg.name()),
    }
}

#[test]
fn fixed_never_deviates_from_its_partition() {
    for ddg in kernels::all_kernels(100) {
        let machine = MachineConfig::two_cluster(32, 1, 1);
        let (out, repartitions) = modulo(&ddg, &machine, AlgorithmSpec::FIXED);
        let partition = out.partition.expect("Fixed carries its partition");
        for (op, placement) in out.schedule.placements().iter().enumerate() {
            assert_eq!(
                placement.cluster,
                partition.cluster_of(op),
                "{}: op {op} escaped its assigned cluster",
                ddg.name()
            );
        }
        assert_eq!(repartitions, 0);
    }
}

#[test]
fn gp_deviations_are_the_exception_not_the_rule() {
    // GP tries the assigned cluster first; most ops should land there.
    let mut total = 0usize;
    let mut kept = 0usize;
    for ddg in kernels::all_kernels(100) {
        let machine = MachineConfig::four_cluster(64, 1, 1);
        let (out, _) = modulo(&ddg, &machine, AlgorithmSpec::GP);
        let partition = out.partition.expect("GP carries its partition");
        for (op, placement) in out.schedule.placements().iter().enumerate() {
            total += 1;
            if placement.cluster == partition.cluster_of(op) {
                kept += 1;
            }
        }
    }
    assert!(
        kept * 10 >= total * 7,
        "only {kept}/{total} ops kept their assigned cluster"
    );
}

#[test]
fn gp_never_loses_badly_to_fixed() {
    // The escape hatch can change the partition the scheduler ends up
    // following, so GP is not pointwise better — but it must never lose by
    // much, and should win on aggregate.
    let mut gp_cycles = 0u64;
    let mut fixed_cycles = 0u64;
    for ddg in kernels::all_kernels(400) {
        let machine = MachineConfig::four_cluster(32, 1, 2);
        let (f, _) = modulo(&ddg, &machine, AlgorithmSpec::FIXED);
        let (g, _) = modulo(&ddg, &machine, AlgorithmSpec::GP);
        gp_cycles += g.schedule.cycles(400);
        fixed_cycles += f.schedule.cycles(400);
    }
    assert!(
        gp_cycles <= fixed_cycles,
        "gp {gp_cycles} cycles vs fixed {fixed_cycles}"
    );
}

#[test]
fn repartitioning_only_when_bus_bound_exceeds_ii() {
    // A loop with few communications (IIbus ≈ 1) must never re-partition.
    let ddg = kernels::dot_product(500);
    let machine = MachineConfig::two_cluster(32, 1, 1);
    let (_, repartitions) = modulo(&ddg, &machine, AlgorithmSpec::GP);
    assert_eq!(repartitions, 0, "IIbus ≤ II yet the partition moved");
}

#[test]
fn list_fallback_engages_and_works() {
    let ddg = kernels::fir(100, 8);
    let machine = MachineConfig::two_cluster(32, 1, 1);
    let cfg = DriverConfig { ii_cap: Some(1) };
    let popts = PartitionOptions::default();
    let start_ii = mii::mii(&ddg, &machine);
    // The II ladder reports the failure…
    let spec = AlgorithmSpec::URACAM;
    let ladder = pipeline::run(&ddg, &machine, &cfg, start_ii, None, spec);
    assert_eq!(
        ladder.unwrap_err(),
        SchedError::IiLimitExceeded { limit: 1 }
    );
    // …while the public API silently falls back to list scheduling.
    let seed = SchedSeed {
        start_ii,
        partition: None,
    };
    let r = schedule_loop_spec_seeded(&ddg, &machine, AlgorithmSpec::URACAM, &popts, &cfg, &seed)
        .unwrap();
    assert_eq!(r.method, ScheduledWith::ListFallback);
    simulate(&ddg, &machine, &r.schedule, 100).expect("fallback schedule is valid");
}

#[test]
fn uracam_explores_every_cluster() {
    // On a 4-cluster machine a wide independent loop should spread: URACAM
    // with its all-clusters policy must use more than one cluster.
    let ddg = kernels::stencil5(300);
    let machine = MachineConfig::four_cluster(64, 1, 1);
    let (r, _) = modulo(&ddg, &machine, AlgorithmSpec::URACAM);
    let used: std::collections::HashSet<usize> =
        r.schedule.placements().iter().map(|p| p.cluster).collect();
    assert!(
        used.len() >= 2,
        "URACAM crammed a wide loop into one cluster"
    );
}
