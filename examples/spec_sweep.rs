//! Sweep two SPECfp95-style programs across every Table 1 machine and
//! print the IPC matrix — a miniature of the paper's Figures 2 and 3.
//!
//! ```text
//! cargo run --release --example spec_sweep
//! ```

use gpsched::prelude::*;
use gpsched_eval::run::{run_program, run_unified};

fn main() {
    let suite = spec_suite();
    let picks = ["swim", "hydro2d"];

    for name in picks {
        let program = suite
            .iter()
            .find(|p| p.name == name)
            .expect("program in suite");
        println!(
            "\n=== {} ({} loops, {} dynamic ops) ===",
            program.name,
            program.loops.len(),
            program.dynamic_ops()
        );
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>8}",
            "machine", "unified", "URACAM", "Fixed", "GP"
        );
        for (_, machine) in table1_configs() {
            if machine.is_unified() {
                continue;
            }
            let unified = run_unified(program, machine.total_registers());
            let ur = run_program(program, &machine, AlgorithmSpec::URACAM);
            let fx = run_program(program, &machine, AlgorithmSpec::FIXED);
            let gp = run_program(program, &machine, AlgorithmSpec::GP);
            println!(
                "{:<12} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                machine.short_name(),
                unified.ipc,
                ur.ipc,
                fx.ipc,
                gp.ipc
            );
        }
    }

    println!(
        "\nExpected shape (paper): unified highest, GP ≥ Fixed ≥ URACAM in \
         most cells, gaps widening with 4 clusters / slow bus; hydro2d is \
         one of the paper's noted exceptions (register pressure)."
    );
}
