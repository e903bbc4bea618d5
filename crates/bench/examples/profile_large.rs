//! Profiling harness for big loop bodies: the largest tenth of the
//! SPECfp95 loops by op count, on `c2r32b1l1` and `c4r64b1l2`, under the
//! three modulo algorithms, one worker, cache off. Kernel-level costs
//! concentrate in these bodies and are averaged away in whole-suite runs
//! (gpbench's `paper-serial`). Prints the minimum untraced wall time over
//! `REPS` runs (default 7 — the minimum rides out scheduler noise on
//! loaded machines), then, when `TRACE` is set, one traced run with the
//! top phases and counters.
//!
//! ```text
//! REPS=15 cargo run --release -p gpsched-bench --example profile_large
//! TRACE=1 cargo run --release -p gpsched-bench --example profile_large
//! ```

use gpsched::prelude::*;
use gpsched_engine::{run_sweep, SweepOptions};

fn large_job() -> JobSpec {
    let mut loops: Vec<_> = spec_suite().into_iter().flat_map(|p| p.loops).collect();
    loops.sort_by_key(|d| std::cmp::Reverse(d.op_count()));
    loops.truncate(loops.len().div_ceil(10));
    let mut job = JobSpec::new();
    for d in loops {
        job = job.loop_in("large", d);
    }
    job.machines([
        MachineConfig::two_cluster(32, 1, 1),
        MachineConfig::four_cluster(64, 1, 2),
    ])
    .algorithms(AlgorithmSpec::MODULO)
}

fn main() {
    let reps: usize = std::env::var("REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let job = large_job();
    let opts = SweepOptions {
        workers: 1,
        use_cache: false,
        progress: false,
    };
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        std::hint::black_box(run_sweep(&job, &opts, None).stats.units);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    println!("untraced min wall: {best:.1} ms over {reps} reps");
    if std::env::var_os("TRACE").is_some() {
        let session = gpsched_trace::TraceSession::start();
        run_sweep(&job, &opts, None);
        let trace = session.finish();
        println!("{}", trace.summary().render(16));
    }
}
