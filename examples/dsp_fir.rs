//! A DSP-flavoured scenario: FIR filters of growing order on a TI
//! C6x-style 2-cluster machine (the motivating domain of the paper's
//! introduction).
//!
//! Shows how the GP scheme holds the achieved II near the resource bound
//! as the filter widens, and what the partition does with the tap chains.
//!
//! ```text
//! cargo run --release --example dsp_fir
//! ```

use gpsched::prelude::*;

fn main() {
    // 2 clusters, 32 registers, one 1-cycle bus — the closest Table 1
    // preset to a C6x-style DSP.
    let machine = MachineConfig::two_cluster(32, 1, 1);
    println!("machine: {machine}\n");
    println!(
        "{:>5} {:>5} {:>5} | {:>10} {:>10} {:>10} | {:>6} {:>6}",
        "taps", "ops", "MII", "URACAM II", "Fixed II", "GP II", "GP IPC", "xfers"
    );

    for taps in [4usize, 8, 12, 16, 24, 32] {
        let ddg = kernels::fir(10_000, taps);
        let mii = gpsched::ddg::mii::mii(&ddg, &machine);
        let mut row = Vec::new();
        let mut gp_ipc = 0.0;
        let mut gp_xfers = 0;
        for algo in AlgorithmSpec::PAPER {
            let r = schedule_loop(&ddg, &machine, algo).expect("schedulable");
            // The simulator double-checks a slice of the execution.
            simulate(&ddg, &machine, &r.schedule, 64).expect("valid schedule");
            if algo == AlgorithmSpec::GP {
                gp_ipc = r.ipc();
                gp_xfers = r.schedule.transfers().len();
            }
            row.push(r.schedule.ii());
        }
        println!(
            "{:>5} {:>5} {:>5} | {:>10} {:>10} {:>10} | {:>6.2} {:>6}",
            taps,
            ddg.op_count(),
            mii,
            row[0],
            row[1],
            row[2],
            gp_ipc,
            gp_xfers
        );
    }

    // An IIR biquad-style recurrence for contrast: the serial feedback
    // bounds the II no matter how the machine is clustered.
    println!();
    let iir = kernels::iir1(10_000);
    let rec = gpsched::ddg::mii::rec_mii(&iir);
    let r = schedule_loop(&iir, &machine, AlgorithmSpec::GP).expect("schedulable");
    println!(
        "iir1: RecMII = {rec} (feedback through fmul+fadd), GP II = {} — \
         recurrence-bound, clustering cannot help",
        r.schedule.ii()
    );
}
