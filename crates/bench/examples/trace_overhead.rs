//! Measures enabled-tracing overhead on the bench suite with paired,
//! interleaved samples: each round runs the sweep once untraced and once
//! inside a live `TraceSession`, so ambient machine noise hits both arms
//! alike. Reports the min of each arm (the bench methodology) and the
//! overhead ratio of the mins.
//!
//! ```text
//! ROUNDS=12 cargo run --release -p gpsched-bench --example trace_overhead
//! ```

use gpsched::prelude::*;
use gpsched_engine::{run_sweep, SweepOptions};

fn main() {
    let rounds: usize = std::env::var("ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    // Identical to the `serial/no-cache` vs `serial/traced` pair of
    // benches/engine_throughput.rs.
    let suite = spec_suite();
    let job = JobSpec::new()
        .programs(&suite[..2])
        .machines([
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
        ])
        .algorithms(AlgorithmSpec::MODULO);
    let opts = SweepOptions {
        workers: 1,
        use_cache: false,
        progress: false,
    };
    let (mut min_plain, mut min_traced) = (f64::INFINITY, f64::INFINITY);
    for round in 0..rounds {
        let t0 = std::time::Instant::now();
        std::hint::black_box(run_sweep(&job, &opts, None).stats.units);
        let plain = t0.elapsed().as_secs_f64() * 1e3;
        min_plain = min_plain.min(plain);

        let session = gpsched_trace::TraceSession::start();
        let t1 = std::time::Instant::now();
        std::hint::black_box(run_sweep(&job, &opts, None).stats.units);
        let traced = t1.elapsed().as_secs_f64() * 1e3;
        let trace = session.finish();
        min_traced = min_traced.min(traced);
        eprintln!(
            "round {round}: plain {plain:.1} ms, traced {traced:.1} ms ({} spans)",
            trace.spans.len()
        );
    }
    println!(
        "min plain {min_plain:.1} ms, min traced {min_traced:.1} ms, overhead {:.2}%",
        (min_traced / min_plain - 1.0) * 100.0
    );
}
