//! **Figure 3** — IPC with a 2-cycle bus (the slower interconnect).
//!
//! Same structure as `fig2_ipc`; the bus latency doubles, so the clustered
//! machines fall further behind the unified bound and partition quality
//! matters more.

use gpsched::prelude::*;
use gpsched_bench::Group;
use gpsched_eval::figures::series_for;
use std::hint::black_box;

fn main() {
    let suite = spec_suite();

    eprintln!("\n--- Figure 3 data (1 bus, latency 2) ---");
    for (clusters, regs) in [(2u32, 32u32), (2, 64), (4, 32), (4, 64)] {
        let machine = match clusters {
            2 => MachineConfig::two_cluster(regs, 1, 2),
            _ => MachineConfig::four_cluster(regs, 1, 2),
        };
        let s = series_for(&suite, &machine, "fig3");
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

    let program = suite.iter().find(|p| p.name == "applu").expect("exists");
    let group = Group::new("fig3_gp_pipeline").sample_size(10);
    for (clusters, regs) in [(2u32, 32u32), (4, 64)] {
        let machine = match clusters {
            2 => MachineConfig::two_cluster(regs, 1, 2),
            _ => MachineConfig::four_cluster(regs, 1, 2),
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
