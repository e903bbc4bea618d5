//! Property tests over randomly synthesized loops: whatever the generator
//! produces, the full pipeline must hold its invariants.
//!
//! Profiles and seeds are drawn from the workspace's deterministic
//! [`gpsched_workloads::rng::Prng`], so every case reproduces from its
//! printed index.

use gpsched::prelude::*;
use gpsched_workloads::rng::Prng;

/// A random but valid synthesis profile (the ranges the old proptest
/// strategy used).
fn arb_profile(rng: &mut Prng) -> SynthProfile {
    SynthProfile {
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
    }
}

#[test]
fn any_synth_loop_schedules_and_validates() {
    let mut rng = Prng::seed_from_u64(0xDD6_0001);
    for case in 0..24 {
        let profile = arb_profile(&mut rng);
        let seed = rng.gen_range(0u64..1_000);
        let ddg = synth::synthesize("prop", &profile, seed);
        for machine in [
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
        ] {
            for algo in AlgorithmSpec::PAPER {
                let r = schedule_loop(&ddg, &machine, algo).unwrap();
                let trips = ddg.trip_count().min(40);
                let report = simulate(&ddg, &machine, &r.schedule, trips).unwrap_or_else(|e| {
                    panic!("case {case}: {algo:?} on {}: {e}", machine.short_name())
                });
                assert_eq!(report.cycles, r.schedule.cycles(trips), "case {case}");
                // Register files respected.
                for (c, &live) in r.schedule.max_live().iter().enumerate() {
                    assert!(
                        live <= machine.cluster(c).registers as i64,
                        "case {case}: cluster {c}"
                    );
                }
            }
        }
    }
}

#[test]
fn partitions_cover_and_estimates_bound() {
    let mut rng = Prng::seed_from_u64(0xDD6_0002);
    for case in 0..24 {
        let profile = arb_profile(&mut rng);
        let seed = rng.gen_range(0u64..1_000);
        let ddg = synth::synthesize("prop", &profile, seed);
        let machine = MachineConfig::two_cluster(32, 1, 1);
        let mii = gpsched::ddg::mii::mii(&ddg, &machine);
        let result = partition_ddg(&ddg, &machine, mii, &PartitionOptions::default());
        assert_eq!(result.partition.len(), ddg.op_count(), "case {case}");
        // The estimate's effective II is at least every lower bound.
        assert!(result.cost.ii_effective >= mii, "case {case}");
        assert!(
            result.cost.ii_effective >= result.cost.ii_bus,
            "case {case}"
        );
        // NComm consistency: the cut never moves fewer values than NComm.
        assert!(
            result.cost.cut_size >= result.cost.comm_count,
            "case {case}"
        );
    }
}

#[test]
fn mii_is_a_true_lower_bound() {
    let mut rng = Prng::seed_from_u64(0xDD6_0003);
    for case in 0..24 {
        let profile = arb_profile(&mut rng);
        let seed = rng.gen_range(0u64..1_000);
        let ddg = synth::synthesize("prop", &profile, seed);
        let machine = MachineConfig::unified(64);
        let mii = gpsched::ddg::mii::mii(&ddg, &machine);
        let r = schedule_loop(&ddg, &machine, AlgorithmSpec::URACAM).unwrap();
        assert!(r.schedule.ii() >= mii, "case {case}");
    }
}
