//! Property tests over the open algorithm axis: every [`AlgorithmSpec`]
//! variant in the shipped catalog must produce schedules that survive the
//! cycle-accurate auditor, and ablation variants must relate to their
//! bases the way the ablation predicts.
//!
//! Seeds are drawn from the workspace's deterministic PRNG, so every case
//! reproduces from its printed index.

use gpsched::prelude::*;
use gpsched::sched::ScheduledWith;
use gpsched_workloads::rng::Prng;

/// A seeded mix of kernels and synthetic loops (the same profile space as
/// `pipeline_props.rs`).
fn corpus(cases: usize) -> Vec<Ddg> {
    let mut out = kernels::all_kernels(300);
    let mut rng = Prng::seed_from_u64(0x5EC_0003);
    for _ in 0..cases {
        let profile = SynthProfile {
            ops: rng.gen_range(4usize..40),
            mem_frac: rng.gen_f64() * 0.6,
            store_frac: rng.gen_f64() * 0.6,
            fp_frac: rng.gen_f64(),
            fpdiv_frac: 0.02,
            chain_bias: rng.gen_f64() * 0.9,
            recurrences: rng.gen_range(0usize..4),
            max_distance: rng.gen_range(1u32..3),
            trip_range: (20, 60),
            ..SynthProfile::default()
        };
        let seed = rng.gen_range(0u64..1_000);
        out.push(synth::synthesize("variant-prop", &profile, seed));
    }
    out
}

#[test]
fn every_catalog_spec_schedules_and_validates() {
    let machines = [
        MachineConfig::two_cluster(32, 1, 1),
        MachineConfig::four_cluster(64, 1, 2),
    ];
    for (case, ddg) in corpus(12).iter().enumerate() {
        for machine in &machines {
            for spec in AlgorithmSpec::CATALOG {
                let r = schedule_loop(ddg, machine, spec).unwrap_or_else(|e| {
                    panic!("case {case}: {spec} on {}: {e}", machine.short_name())
                });
                let trips = ddg.trip_count().min(40);
                let report = simulate(ddg, machine, &r.schedule, trips).unwrap_or_else(|e| {
                    panic!("case {case}: {spec} on {}: {e}", machine.short_name())
                });
                assert_eq!(
                    report.cycles,
                    r.schedule.cycles(trips),
                    "case {case}: {spec}"
                );
                for (c, &live) in r.schedule.max_live().iter().enumerate() {
                    assert!(
                        live <= machine.cluster(c).registers as i64,
                        "case {case}: {spec} cluster {c}"
                    );
                }
            }
        }
    }
}

#[test]
fn norepart_ablation_is_exact_when_idle_and_neutral_in_aggregate() {
    // The naive expectation — `gp:norepart` never beats `gp` — is *false*
    // for this engine, and measurably so: selective re-partitioning is a
    // heuristic, and on seeded synthetic corpora the recomputed partition
    // helps and hurts in roughly equal measure (the paper's §4.2 observes
    // backfire cases too; DESIGN.md §7 records the measurement). What the
    // ablation does guarantee, and what this test pins:
    //
    // 1. *Conditional identity* — on every unit where no re-partition
    //    fired, both variants walked the same II ladder with the same
    //    partition and must produce the identical schedule.
    // 2. *Observability* — re-partitioning fires somewhere on the corpus,
    //    so the ablation isolates a real code path.
    // 3. *Aggregate neutrality* — over the pinned corpus, disabling
    //    re-partitioning moves total execution time by well under 1%
    //    either way; a regression in either variant breaks the bound.
    let gp = AlgorithmSpec::parse("gp").expect("parses");
    let norepart = AlgorithmSpec::parse("gp:norepart").expect("parses");
    let machines = [
        MachineConfig::two_cluster(32, 1, 1),
        MachineConfig::two_cluster(32, 1, 2),
        MachineConfig::four_cluster(32, 1, 2),
    ];
    let mut total_full = 0u64;
    let mut total_ablated = 0u64;
    let mut diverged = 0usize;
    for (case, ddg) in corpus(24).iter().enumerate() {
        for machine in &machines {
            let full = schedule_loop(ddg, machine, gp).unwrap();
            let ablated = schedule_loop(ddg, machine, norepart).unwrap();
            let repartitions = match full.method {
                ScheduledWith::Modulo { repartitions } => repartitions,
                _ => 0,
            };
            if repartitions == 0 {
                assert_eq!(
                    (full.schedule.ii(), full.cycles()),
                    (ablated.schedule.ii(), ablated.cycles()),
                    "case {case} on {}: no re-partition fired, yet the variants diverged",
                    machine.short_name()
                );
            } else {
                diverged += 1;
            }
            total_full += full.cycles();
            total_ablated += ablated.cycles();
        }
    }
    assert!(diverged > 0, "no loop in the corpus ever re-partitioned");
    let delta = (total_full as f64 - total_ablated as f64).abs() / total_full as f64;
    assert!(
        delta < 0.01,
        "re-partitioning moved aggregate execution time by {:.2}% \
         (gp {total_full} vs gp:norepart {total_ablated})",
        delta * 100.0
    );
}

#[test]
fn greedy_merit_never_beats_full_merit_on_average() {
    // The figure of merit is URACAM's whole contribution; dropping it for
    // first-feasible selection must not win in aggregate.
    let full = AlgorithmSpec::parse("uracam").expect("parses");
    let greedy = AlgorithmSpec::parse("uracam:greedy-merit").expect("parses");
    let machine = MachineConfig::four_cluster(32, 1, 2);
    let mut full_cycles = 0u64;
    let mut greedy_cycles = 0u64;
    for ddg in corpus(12) {
        full_cycles += schedule_loop(&ddg, &machine, full).unwrap().cycles();
        greedy_cycles += schedule_loop(&ddg, &machine, greedy).unwrap().cycles();
    }
    assert!(
        greedy_cycles >= full_cycles,
        "greedy {greedy_cycles} beat full merit {full_cycles}"
    );
}
