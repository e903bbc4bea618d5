//! Quickstart: schedule one loop three ways and validate the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gpsched::prelude::*;

fn main() {
    // y[i] = a*x[i] + y[i] — the classic daxpy loop, 1000 iterations.
    let ddg = kernels::daxpy(1000);
    println!(
        "loop `{}`: {} ops/iteration, {} dependences, {} trips",
        ddg.name(),
        ddg.op_count(),
        ddg.dep_count(),
        ddg.trip_count()
    );

    // The paper's 2-cluster VLIW: 2 int / 2 fp / 2 mem units and 16
    // registers per cluster, one 1-cycle inter-cluster bus.
    let machine = MachineConfig::two_cluster(32, 1, 1);
    println!("machine: {machine}");

    // Lower bounds before scheduling.
    let res = gpsched::ddg::mii::res_mii(&ddg, &machine);
    let rec = gpsched::ddg::mii::rec_mii(&ddg);
    println!("ResMII = {res}, RecMII = {rec} → MII = {}", res.max(rec));

    // Schedule with the three algorithms of the paper's evaluation.
    for algo in AlgorithmSpec::PAPER {
        let r = schedule_loop(&ddg, &machine, algo).expect("schedulable");
        println!(
            "{:<7} II = {}, schedule length = {}, transfers = {}, spills = {}, IPC = {:.3}",
            algo.name(),
            r.schedule.ii(),
            r.schedule.length(),
            r.schedule.transfers().len(),
            r.schedule.spills().len(),
            r.ipc()
        );

        // Execute the schedule cycle by cycle and audit every invariant.
        let report =
            simulate(&ddg, &machine, &r.schedule, ddg.trip_count()).expect("schedule validates");
        assert_eq!(report.cycles, r.schedule.cycles(ddg.trip_count()));
    }

    // The GP partition itself is inspectable.
    let gp = schedule_loop(&ddg, &machine, AlgorithmSpec::GP).expect("schedulable");
    if let Some(partition) = &gp.partition {
        for c in 0..partition.cluster_count() {
            let ops: Vec<String> = partition
                .ops_in(c)
                .map(|i| ddg.op(gpsched::graph::NodeId::from_index(i)).name.clone())
                .collect();
            println!("cluster {c}: {}", ops.join(", "));
        }
    }
}
