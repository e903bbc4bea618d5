//! Architecture exploration: build a custom loop with the DDG builder,
//! then measure how cluster count, bus latency and register budget move
//! the achieved II — the design space the paper's clustered VLIWs live in.
//!
//! ```text
//! cargo run --release --example explore_config
//! ```

use gpsched::machine::{ClusterConfig, Interconnect, LatencyModel};
use gpsched::prelude::*;

/// A hand-built complex FFT butterfly-ish body: four loads, a complex
/// multiply (4 fmul + 2 fadd), two adds/subs, four stores.
fn butterfly(trips: u64) -> gpsched::Ddg {
    let mut b = DdgBuilder::new("butterfly");
    let ar = b.op(OpClass::Load, "ar");
    let ai = b.op(OpClass::Load, "ai");
    let br = b.op(OpClass::Load, "br");
    let bi = b.op(OpClass::Load, "bi");
    let m1 = b.op(OpClass::FpMul, "ar*br");
    let m2 = b.op(OpClass::FpMul, "ai*bi");
    let m3 = b.op(OpClass::FpMul, "ar*bi");
    let m4 = b.op(OpClass::FpMul, "ai*br");
    let tr = b.op(OpClass::FpAdd, "tr=m1-m2");
    let ti = b.op(OpClass::FpAdd, "ti=m3+m4");
    let xr = b.op(OpClass::FpAdd, "xr=ar+tr");
    let xi = b.op(OpClass::FpAdd, "xi=ai+ti");
    let s1 = b.op(OpClass::Store, "out_r");
    let s2 = b.op(OpClass::Store, "out_i");
    let s3 = b.op(OpClass::Store, "out2_r");
    let s4 = b.op(OpClass::Store, "out2_i");
    for (x, y, m) in [(ar, br, m1), (ai, bi, m2), (ar, bi, m3), (ai, br, m4)] {
        b.flow(x, m);
        b.flow(y, m);
    }
    b.flow(m1, tr);
    b.flow(m2, tr);
    b.flow(m3, ti);
    b.flow(m4, ti);
    b.flow(ar, xr);
    b.flow(tr, xr);
    b.flow(ai, xi);
    b.flow(ti, xi);
    b.flow(xr, s1);
    b.flow(xi, s2);
    b.flow(tr, s3);
    b.flow(ti, s4);
    b.trip_count(trips);
    b.build().expect("butterfly is a valid loop")
}

fn main() {
    let ddg = butterfly(4096);
    println!(
        "loop `{}`: {} ops, {} deps\n",
        ddg.name(),
        ddg.op_count(),
        ddg.dep_count()
    );

    // 1. Cluster count at fixed total resources.
    println!("clusters × bus latency (GP, 64 registers):");
    println!(
        "{:<10} {:>6} {:>6} {:>8} {:>8}",
        "machine", "MII", "II", "IPC", "xfers"
    );
    for clusters in [1u32, 2, 4] {
        for lat in [1u32, 2] {
            let m = match clusters {
                1 => MachineConfig::unified(64),
                2 => MachineConfig::two_cluster(64, 1, lat),
                _ => MachineConfig::four_cluster(64, 1, lat),
            };
            if clusters == 1 && lat == 2 {
                continue; // the unified machine has no bus
            }
            let mii = gpsched::ddg::mii::mii(&ddg, &m);
            let r = schedule_loop(&ddg, &m, AlgorithmSpec::GP).expect("schedulable");
            println!(
                "{:<10} {:>6} {:>6} {:>8.3} {:>8}",
                m.short_name(),
                mii,
                r.schedule.ii(),
                r.ipc(),
                r.schedule.transfers().len()
            );
        }
    }

    // 2. Register starvation: shrink the per-cluster register file until
    //    spills appear.
    println!("\nregister budget (GP, 2 clusters, 1-cycle bus):");
    println!(
        "{:<10} {:>6} {:>8} {:>8} {:>8}",
        "regs", "II", "IPC", "spills", "maxlive"
    );
    for regs in [64u32, 32, 16, 8] {
        let m = MachineConfig::two_cluster(regs, 1, 1);
        let r = schedule_loop(&ddg, &m, AlgorithmSpec::GP).expect("schedulable");
        println!(
            "{:<10} {:>6} {:>8.3} {:>8} {:>8}",
            regs,
            r.schedule.ii(),
            r.ipc(),
            r.schedule.spills().len(),
            r.schedule.max_live().iter().max().unwrap()
        );
    }

    // 3. A heterogeneous custom machine: fp-heavy cluster + memory cluster.
    let custom = MachineConfig::custom(
        vec![
            ClusterConfig {
                int_units: 1,
                fp_units: 3,
                mem_units: 1,
                registers: 32,
            },
            ClusterConfig {
                int_units: 3,
                fp_units: 1,
                mem_units: 3,
                registers: 32,
            },
        ],
        Interconnect::legacy_bus(1, 1),
        LatencyModel::default(),
    );
    let r = schedule_loop(&ddg, &custom, AlgorithmSpec::GP).expect("schedulable");
    println!(
        "\nheterogeneous (fp-cluster + mem-cluster): II = {}, IPC = {:.3}",
        r.schedule.ii(),
        r.ipc()
    );
}
