//! **Table 2** — average CPU time to compute the schedule, per algorithm
//! and machine configuration.
//!
//! The paper reports URACAM 2–7× slower than Fixed/GP (it tries every
//! cluster for every node). The harness measures the same quantity here:
//! one benchmark = scheduling every loop of one synthetic SPECfp95
//! program.

use gpsched::prelude::*;
use gpsched_bench::Group;
use std::hint::black_box;

fn main() {
    let suite = spec_suite();
    // A representative mid-size program keeps bench time sane.
    let program = suite
        .iter()
        .find(|p| p.name == "su2cor")
        .expect("program exists");
    let machines = [
        MachineConfig::two_cluster(32, 1, 1),
        MachineConfig::two_cluster(64, 1, 2),
        MachineConfig::four_cluster(32, 1, 1),
        MachineConfig::four_cluster(64, 1, 2),
    ];

    let group = Group::new("table2_sched_time").sample_size(10);
    for machine in &machines {
        for algo in AlgorithmSpec::PAPER {
            let id = format!("{}/{}", machine.short_name(), algo.name());
            group.bench(&id, || {
                for ddg in &program.loops {
                    let r = schedule_loop(black_box(ddg), machine, algo).expect("schedulable");
                    black_box(r.schedule.ii());
                }
            });
        }
    }
}
