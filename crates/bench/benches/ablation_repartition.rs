//! Ablation: the selective re-partitioning rule (§3.1's conclusion calls
//! it the most effective variant).
//!
//! Compares full GP (re-partition iff `IIbus > II`) against Fixed
//! Partition (never re-partition, no escape hatch) on the loops where the
//! difference shows, printing achieved IIs once and benching both control
//! flows.

use gpsched::prelude::*;
use gpsched::sched::ScheduledWith;
use gpsched_bench::Group;
use std::hint::black_box;

/// The II and re-partition count of `spec`'s modulo schedule, or `None`
/// when the list fallback fired.
fn modulo(ddg: &Ddg, machine: &MachineConfig, spec: AlgorithmSpec) -> Option<(i64, usize)> {
    let r = schedule_loop(ddg, machine, spec).expect("schedulable");
    match r.method {
        ScheduledWith::Modulo { repartitions } => Some((r.schedule.ii(), repartitions)),
        _ => None,
    }
}

fn main() {
    let suite = spec_suite();
    let machine = MachineConfig::four_cluster(32, 1, 2);

    eprintln!("\n--- repartition ablation (4-cluster, 32 regs, 2-cycle bus) ---");
    let mut gp_ii = 0i64;
    let mut fx_ii = 0i64;
    let mut reparts = 0usize;
    // Keep only loops both algorithms can modulo-schedule (the rare II-cap
    // cases take the list fallback and tell us nothing about the
    // re-partitioning rule).
    let loops: Vec<_> = suite
        .iter()
        .flat_map(|p| p.loops.iter().cloned())
        .filter(|ddg| {
            modulo(ddg, &machine, AlgorithmSpec::GP).is_some()
                && modulo(ddg, &machine, AlgorithmSpec::FIXED).is_some()
        })
        .take(16)
        .collect();
    for ddg in &loops {
        let (g, r) = modulo(ddg, &machine, AlgorithmSpec::GP).expect("pre-filtered");
        let (f, _) = modulo(ddg, &machine, AlgorithmSpec::FIXED).expect("pre-filtered");
        gp_ii += g;
        fx_ii += f;
        reparts += r;
    }
    eprintln!(
        "GP Σ II = {gp_ii} ({reparts} repartitions), Fixed Σ II = {fx_ii} over {} loops",
        loops.len()
    );

    let group = Group::new("ablation_repartition").sample_size(10);
    for (name, spec) in [
        ("gp-selective", AlgorithmSpec::GP),
        ("fixed-never", AlgorithmSpec::FIXED),
    ] {
        group.bench(name, || {
            for ddg in &loops {
                black_box(modulo(black_box(ddg), &machine, spec).expect("pre-filtered"));
            }
        });
    }
}
