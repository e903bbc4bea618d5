//! Micro-benchmarks of the substrate algorithms: exact vs greedy matching,
//! RecMII search, SMS ordering and the cycle-level simulator.

use gpsched::prelude::*;
use gpsched_bench::Group;
use gpsched_graph::matching::{greedy_matching, maximum_weight_matching};
use gpsched_workloads::rng::Prng;
use std::hint::black_box;

fn random_edges(n: usize, m: usize, seed: u64) -> Vec<(usize, usize, i64)> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            (u, v, rng.gen_range(1i64..1000))
        })
        .filter(|&(u, v, _)| u != v)
        .collect()
}

fn bench_matching(group: &Group) {
    for n in [32usize, 96, 192] {
        let edges = random_edges(n, n * 3, 42);
        group.bench(&format!("blossom/{n}"), || {
            black_box(maximum_weight_matching(n, &edges, false).pair_count())
        });
        group.bench(&format!("greedy/{n}"), || {
            black_box(greedy_matching(n, &edges).pair_count())
        });
    }
}

fn main() {
    let group = Group::new("substrates").sample_size(10);
    bench_matching(&group);

    let profile = SynthProfile {
        ops: 80,
        recurrences: 4,
        ..SynthProfile::default()
    };
    let ddg = synth::synthesize("bench", &profile, 7);
    group.bench("rec_mii_80ops", || {
        black_box(gpsched::ddg::mii::rec_mii(black_box(&ddg)))
    });

    let fir = kernels::fir(100, 24);
    let ii = gpsched::ddg::mii::rec_mii(&fir).max(8);
    group.bench("sms_order_fir24", || {
        black_box(gpsched::sched::order::sms_order(black_box(&fir), ii).len())
    });

    let mm = kernels::matmul_inner(500);
    let machine = MachineConfig::two_cluster(32, 1, 1);
    let r = schedule_loop(&mm, &machine, AlgorithmSpec::GP).expect("schedulable");
    group.bench("simulate_matmul_500trips", || {
        black_box(simulate(&mm, &machine, &r.schedule, 500).unwrap().cycles)
    });
}
