//! Unrolling × scheduling interaction (the paper's reference [35] studies
//! exactly this on clustered VLIWs): unrolled reductions expose parallel
//! accumulator chains that clustering can exploit.

use gpsched::ddg::unroll::unroll;
use gpsched::prelude::*;

#[test]
fn unrolled_loops_schedule_and_validate_everywhere() {
    for ddg in [kernels::daxpy(120), kernels::dot_product(120)] {
        for k in [2u32, 4] {
            let u = unroll(&ddg, k).expect("unroll is valid");
            for machine in [
                MachineConfig::unified(64),
                MachineConfig::two_cluster(64, 1, 1),
                MachineConfig::four_cluster(64, 1, 2),
            ] {
                for algo in AlgorithmSpec::PAPER {
                    let r = schedule_loop(&u, &machine, algo).expect("schedulable");
                    let trips = u.trip_count();
                    let report = simulate(&u, &machine, &r.schedule, trips).unwrap_or_else(|e| {
                        panic!("{} x{k} on {}: {e}", ddg.name(), machine.short_name())
                    });
                    assert_eq!(report.cycles, r.schedule.cycles(trips));
                }
            }
        }
    }
}

#[test]
fn unrolling_a_distance_two_reduction_helps_throughput() {
    // acc[i] = acc[i-2] + x[i]: two independent chains appear at factor 2,
    // so cycles per element must improve on a machine with spare fp units.
    let mut b = gpsched::DdgBuilder::new("red2");
    let ld = b.op(OpClass::Load, "x");
    let acc = b.op(OpClass::FpAdd, "acc");
    b.flow(ld, acc);
    b.flow_carried(acc, acc, 2);
    b.trip_count(1024);
    let ddg = b.build().unwrap();

    let machine = MachineConfig::two_cluster(64, 1, 1);
    let base = schedule_loop(&ddg, &machine, AlgorithmSpec::GP).unwrap();
    let unrolled = unroll(&ddg, 2).unwrap();
    let better = schedule_loop(&unrolled, &machine, AlgorithmSpec::GP).unwrap();

    // Cycles per original element.
    let base_cpe = base.cycles() as f64 / 1024.0;
    let unrolled_cpe = better.cycles() as f64 / 1024.0;
    assert!(
        unrolled_cpe <= base_cpe + 1e-9,
        "unrolling hurt: {unrolled_cpe} vs {base_cpe} cycles/element"
    );
}

#[test]
fn deep_unrolling_eventually_hits_resource_bound() {
    let ddg = kernels::daxpy(1024);
    let machine = MachineConfig::two_cluster(64, 1, 1);
    let mut last_ii_per_copy = f64::INFINITY;
    for k in [1u32, 2, 4, 8] {
        let u = unroll(&ddg, k).unwrap();
        let r = schedule_loop(&u, &machine, AlgorithmSpec::GP).unwrap();
        let ii_per_copy = r.schedule.ii() as f64 / k as f64;
        // II per original iteration must never blow up with unrolling
        // (mild noise from prolog effects tolerated).
        assert!(
            ii_per_copy <= last_ii_per_copy * 1.5 + 1.0,
            "x{k}: {ii_per_copy} per copy vs previous {last_ii_per_copy}"
        );
        last_ii_per_copy = ii_per_copy.min(last_ii_per_copy);
    }
}
