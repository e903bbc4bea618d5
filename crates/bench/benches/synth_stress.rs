//! Synthetic-workload throughput: corpus generation and conformance
//! auditing, the two costs that size the conformance lane's
//! `GPSCHED_SYNTH_BUDGET`.
//!
//! * `gen/<preset>` — loops generated per second by `engine::gen`
//!   (serial; generation is memory-bound and already sub-millisecond
//!   per loop, this guards against regressions);
//! * `audit/<preset>` — conformance units audited per second (schedule
//!   with GP + full simulator replay), the per-unit price of the
//!   `tests/synth_conformance.rs` sweep.

use gpsched::prelude::*;
use gpsched_bench::Group;
use gpsched_engine::conformance::audit_unit;
use gpsched_engine::generate_corpus;

fn main() {
    let presets = ["recurrence-heavy", "wide-ilp", "mem-bound"];
    let count = 30usize;
    let machine = MachineConfig::two_cluster(32, 1, 1);
    let gp = AlgorithmSpec::parse("gp").expect("bundled spec");

    eprintln!("\n--- synth generation + conformance audit ---");
    let group = Group::new("synth_stress");
    for preset_name in presets {
        let profile = gpsched_workloads::preset(preset_name).expect("bundled preset");
        let t = group.bench(&format!("gen/{preset_name}"), || {
            std::hint::black_box(generate_corpus(preset_name, &profile, 1, count, 1).len())
        });
        println!(
            "synth_stress/gen/{preset_name}: {:.0} loops-generated/sec",
            t.per_second(count)
        );

        let corpus = generate_corpus(preset_name, &profile, 1, count, 1);
        let t = group.bench(&format!("audit/{preset_name}"), || {
            corpus
                .iter()
                .map(|ddg| {
                    audit_unit(ddg, &machine, gp)
                        .expect("catalog conforms")
                        .cycles
                })
                .sum::<u64>()
        });
        println!(
            "synth_stress/audit/{preset_name}: {:.0} units-audited/sec",
            t.per_second(count)
        );
    }
}
