//! **Figure 2** — IPC with a 1-cycle bus.
//!
//! The harness times the schedule generation per configuration; the actual
//! IPC series (the figure's bars) is printed once before sampling so a
//! bench run regenerates the figure's data.

use gpsched::prelude::*;
use gpsched_bench::Group;
use gpsched_eval::figures::series_for;
use std::hint::black_box;

fn main() {
    let suite = spec_suite();

    // Print the reproduced figure once (full suite).
    eprintln!("\n--- Figure 2 data (1 bus, latency 1) ---");
    for (clusters, regs) in [(2u32, 32u32), (2, 64), (4, 32), (4, 64)] {
        let machine = match clusters {
            2 => MachineConfig::two_cluster(regs, 1, 1),
            _ => MachineConfig::four_cluster(regs, 1, 1),
        };
        let s = series_for(&suite, &machine, "fig2");
        let a = s.average();
        eprintln!(
            "{}: unified {:.3} URACAM {:.3} Fixed {:.3} GP {:.3} (GP vs URACAM {:+.1}%)",
            s.machine,
            a.unified,
            a.uracam,
            a.fixed,
            a.gp,
            (s.gp_speedup_over_uracam() - 1.0) * 100.0
        );
    }

    // Bench the GP pipeline per configuration on one program.
    let program = suite.iter().find(|p| p.name == "swim").expect("exists");
    let group = Group::new("fig2_gp_pipeline").sample_size(10);
    for (clusters, regs) in [(2u32, 32u32), (2, 64), (4, 32), (4, 64)] {
        let machine = match clusters {
            2 => MachineConfig::two_cluster(regs, 1, 1),
            _ => MachineConfig::four_cluster(regs, 1, 1),
        };
        group.bench(&machine.short_name(), || {
            for ddg in &program.loops {
                black_box(
                    schedule_loop(black_box(ddg), &machine, AlgorithmSpec::GP)
                        .expect("schedulable")
                        .ipc(),
                );
            }
        });
    }
}
