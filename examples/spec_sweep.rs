//! Sweep two SPECfp95-style programs across every Table 1 machine and
//! print the IPC matrix — a miniature of the paper's Figures 2 and 3.
//!
//! ```text
//! cargo run --release --example spec_sweep
//! ```

use gpsched::prelude::*;
use gpsched_eval::figures::series_for;

fn main() {
    let picks = ["swim", "hydro2d"];
    let programs: Vec<_> = spec_suite()
        .into_iter()
        .filter(|p| picks.contains(&p.name))
        .collect();
    for p in &programs {
        println!(
            "{} ({} loops, {} dynamic ops)",
            p.name,
            p.loops.len(),
            p.dynamic_ops()
        );
    }

    for (_, machine) in table1_configs() {
        if machine.is_unified() {
            continue;
        }
        let series = series_for(&programs, &machine);
        println!("\n=== {} ===", series.name);
        let header: Vec<String> = series.columns.iter().map(|c| format!("{c:>8}")).collect();
        println!("{:<12} {}", "program", header.join(" "));
        for r in &series.rows {
            let cells: Vec<String> = r.ipc.iter().map(|v| format!("{v:>8.3}")).collect();
            println!("{:<12} {}", r.program, cells.join(" "));
        }
    }

    println!(
        "\nExpected shape (paper): unified highest, GP ≥ Fixed ≥ URACAM in \
         most cells, gaps widening with 4 clusters / slow bus; hydro2d is \
         one of the paper's noted exceptions (register pressure)."
    );
}
