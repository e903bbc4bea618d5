//! End-to-end pipeline tests: DDG → partition → schedule → simulate, for
//! every kernel × machine × algorithm combination.

use gpsched::prelude::*;

fn clustered_machines() -> Vec<MachineConfig> {
    table1_configs()
        .into_iter()
        .map(|(_, m)| m)
        .filter(|m| !m.is_unified())
        .collect()
}

#[test]
fn every_kernel_schedules_and_validates_everywhere() {
    for ddg in kernels::all_kernels(60) {
        for machine in table1_configs().into_iter().map(|(_, m)| m) {
            for algo in AlgorithmSpec::PAPER {
                let r = schedule_loop(&ddg, &machine, algo)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", ddg.name(), machine.short_name()));
                let report = simulate(&ddg, &machine, &r.schedule, 60).unwrap_or_else(|e| {
                    panic!(
                        "{} on {} via {:?}: {e}",
                        ddg.name(),
                        machine.short_name(),
                        algo
                    )
                });
                assert_eq!(report.cycles, r.schedule.cycles(60));
            }
        }
    }
}

#[test]
fn achieved_ii_never_below_mii() {
    for ddg in kernels::all_kernels(100) {
        for machine in clustered_machines() {
            let mii = gpsched::ddg::mii::mii(&ddg, &machine);
            for algo in AlgorithmSpec::PAPER {
                let r = schedule_loop(&ddg, &machine, algo).unwrap();
                assert!(
                    r.schedule.ii() >= mii,
                    "{} on {}: II {} below MII {mii}",
                    ddg.name(),
                    machine.short_name(),
                    r.schedule.ii()
                );
            }
        }
    }
}

#[test]
fn unified_machine_dominates_every_clustered_config() {
    // The paper's premise: same resources without communication penalties.
    for ddg in kernels::all_kernels(500) {
        for regs in [32, 64] {
            let unified = schedule_loop(&ddg, &MachineConfig::unified(regs), AlgorithmSpec::GP)
                .unwrap()
                .ipc();
            for machine in clustered_machines()
                .into_iter()
                .filter(|m| m.total_registers() == regs)
            {
                let clustered = schedule_loop(&ddg, &machine, AlgorithmSpec::GP)
                    .unwrap()
                    .ipc();
                // Heuristic schedulers may shave a prolog/epilog cycle on
                // one machine and not the other; allow 1% noise on the
                // schedule-length term, never on the II term.
                assert!(
                    unified >= clustered * 0.99,
                    "{}: unified {unified} < {} {clustered}",
                    ddg.name(),
                    machine.short_name()
                );
            }
        }
    }
}

#[test]
fn slower_bus_never_helps() {
    for ddg in kernels::all_kernels(300) {
        for clusters in [2u32, 4] {
            let fast = match clusters {
                2 => MachineConfig::two_cluster(64, 1, 1),
                _ => MachineConfig::four_cluster(64, 1, 1),
            };
            let slow = match clusters {
                2 => MachineConfig::two_cluster(64, 1, 2),
                _ => MachineConfig::four_cluster(64, 1, 2),
            };
            let f = schedule_loop(&ddg, &fast, AlgorithmSpec::GP).unwrap().ipc();
            let s = schedule_loop(&ddg, &slow, AlgorithmSpec::GP).unwrap().ipc();
            // Allow a small tolerance: heuristic schedulers are not
            // perfectly monotone, but a slower bus must not look like a
            // systematic win.
            assert!(
                f >= s * 0.9,
                "{} c{clusters}: fast-bus {f} much worse than slow-bus {s}",
                ddg.name()
            );
        }
    }
}

#[test]
fn more_registers_never_hurt_much() {
    for ddg in kernels::all_kernels(300) {
        let small = schedule_loop(
            &ddg,
            &MachineConfig::two_cluster(32, 1, 1),
            AlgorithmSpec::GP,
        )
        .unwrap()
        .ipc();
        let big = schedule_loop(
            &ddg,
            &MachineConfig::two_cluster(64, 1, 1),
            AlgorithmSpec::GP,
        )
        .unwrap()
        .ipc();
        assert!(
            big >= small * 0.9,
            "{}: 64 regs {big} much worse than 32 regs {small}",
            ddg.name()
        );
    }
}

#[test]
fn schedules_are_deterministic() {
    let ddg = kernels::matmul_inner(200);
    let machine = MachineConfig::four_cluster(32, 1, 2);
    let a = schedule_loop(&ddg, &machine, AlgorithmSpec::GP).unwrap();
    let b = schedule_loop(&ddg, &machine, AlgorithmSpec::GP).unwrap();
    assert_eq!(a.schedule.ii(), b.schedule.ii());
    assert_eq!(a.schedule.length(), b.schedule.length());
    assert_eq!(a.schedule.placements().len(), b.schedule.placements().len());
    for (x, y) in a.schedule.placements().iter().zip(b.schedule.placements()) {
        assert_eq!(x, y);
    }
}
