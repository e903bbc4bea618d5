//! Engine throughput: loops scheduled per second through the batch
//! executor, the headline number future PRs track for perf trajectory.
//!
//! Three configurations are reported:
//!
//! * `serial/no-cache` — one worker, every unit pays its own MII and
//!   partitioning (the honest per-loop cost);
//! * `serial/cached` — one worker with the content-hash memo cache (what
//!   repeated corpora and multi-algorithm sweeps actually pay);
//! * `parallel/cached` — all host CPUs (on multi-core hosts this is the
//!   deployment configuration; on a 1-CPU host it measures pool overhead);
//! * `serial/traced` — serial/no-cache again with a trace session
//!   *active*, so the entry records the cost of enabled tracing
//!   (`trace_overhead_pct`). Measured in paired, interleaved rounds (each
//!   round runs the sweep once untraced, then once traced) so ambient
//!   machine noise hits both arms alike — the 1-CPU reference container's
//!   load is bimodal enough that arms measured minutes apart can drift by
//!   more than the overhead itself. Disabled-trace neutrality is what
//!   comparing `serial/no-cache` across entries shows (see the
//!   `bench-gate` bin).
//!
//! Besides the human-readable lines, the run appends a machine-readable
//! entry to `BENCH_engine.json` (see [`gpsched_bench::trajectory`]):
//!
//! * `GPSCHED_BENCH_JSON`  — output path (default `BENCH_engine.json`);
//! * `GPSCHED_BENCH_LABEL` — entry label (default `local`);
//! * `GPSCHED_BENCH_QUICK` — when set, 3 samples instead of 10 (CI smoke).

use gpsched::prelude::*;
use gpsched_bench::trajectory::{append_entry, BenchEntry};
use gpsched_bench::Group;
use gpsched_engine::{run_sweep, SweepOptions};
use std::path::PathBuf;

fn job() -> JobSpec {
    // A mid-size, fixed workload: 2 programs of the suite on two clustered
    // machines under the three modulo algorithms.
    let suite = spec_suite();
    JobSpec::new()
        .programs(&suite[..2])
        .machines([
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
        ])
        .algorithms(AlgorithmSpec::MODULO)
}

fn large_job() -> JobSpec {
    // The size-stratified series: the top-decile op-count loops of the
    // whole suite. Kernel-level wins concentrate in big bodies (more
    // constraint edges, more relaxation rounds, more II retries) and are
    // averaged away by the many small loops of the mixed workload above;
    // this series tracks them separately.
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
    let job = job();
    let units = job.unit_count();
    eprintln!("\n--- engine throughput ({units} units/run) ---");

    let samples = if std::env::var_os("GPSCHED_BENCH_QUICK").is_some() {
        3
    } else {
        10
    };
    let group = Group::new("engine_throughput").sample_size(samples);
    let configs = [
        (
            "serial/no-cache",
            SweepOptions {
                workers: 1,
                use_cache: false,
                progress: false,
            },
        ),
        (
            "serial/cached",
            SweepOptions {
                workers: 1,
                use_cache: true,
                progress: false,
            },
        ),
        (
            "parallel/cached",
            SweepOptions {
                workers: 0,
                use_cache: true,
                progress: false,
            },
        ),
    ];
    let mut loops_per_sec = Vec::new();
    for (name, opts) in configs {
        let t = group.bench(name, || {
            std::hint::black_box(run_sweep(&job, &opts, None).stats.units)
        });
        println!(
            "engine_throughput/{name}: {:.0} loops-scheduled/sec",
            t.per_second(units)
        );
        loops_per_sec.push((name.to_string(), t.per_second(units)));
    }

    // The large-units series, serial/no-cache (the honest per-loop cost on
    // the biggest bodies).
    let large = large_job();
    let large_units = large.unit_count();
    eprintln!("--- large-units series ({large_units} units/run) ---");
    let large_opts = SweepOptions {
        workers: 1,
        use_cache: false,
        progress: false,
    };
    let t = group.bench("large-units/no-cache", || {
        std::hint::black_box(run_sweep(&large, &large_opts, None).stats.units)
    });
    println!(
        "engine_throughput/large-units/no-cache: {:.0} loops-scheduled/sec",
        t.per_second(large_units)
    );
    loops_per_sec.push((
        "large-units/no-cache".to_string(),
        t.per_second(large_units),
    ));

    // The serial/no-cache workload once more, inside an active trace
    // session: the enabled-tracing cost, recorded per entry so the ≤1%
    // disabled / low-single-digit enabled overhead budget stays auditable.
    // Paired rounds: each runs the sweep untraced, then traced, and the
    // overhead compares the mins of the two interleaved series.
    let traced_opts = SweepOptions {
        workers: 1,
        use_cache: false,
        progress: false,
    };
    let (mut min_plain, mut min_traced) = (f64::INFINITY, f64::INFINITY);
    let (mut spans, mut dropped) = (0, 0);
    for _ in 0..samples {
        let t0 = std::time::Instant::now();
        std::hint::black_box(run_sweep(&job, &traced_opts, None).stats.units);
        min_plain = min_plain.min(t0.elapsed().as_secs_f64());

        let session = gpsched_trace::TraceSession::start();
        let t1 = std::time::Instant::now();
        std::hint::black_box(run_sweep(&job, &traced_opts, None).stats.units);
        min_traced = min_traced.min(t1.elapsed().as_secs_f64());
        let trace = session.finish();
        spans = trace.spans.len();
        dropped += trace.dropped;
    }
    eprintln!(
        "engine_throughput/serial/traced: min {:.3} ms (paired untraced min {:.3} ms, \
         {samples} rounds)",
        min_traced * 1e3,
        min_plain * 1e3,
    );
    let traced_rate = units as f64 / min_traced;
    println!("engine_throughput/serial/traced: {traced_rate:.0} loops-scheduled/sec");
    loops_per_sec.push(("serial/traced".to_string(), traced_rate));
    let trace_overhead_pct = (min_traced / min_plain - 1.0) * 100.0;
    println!(
        "engine_throughput/trace-overhead: {trace_overhead_pct:.2}% \
         ({spans} spans captured, {dropped} dropped)"
    );

    // Default to the workspace root (cargo runs benches from the package
    // dir), falling back to the CWD when run outside cargo.
    let path = std::env::var("GPSCHED_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            let mut p = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").unwrap_or_default());
            p.pop();
            p.pop();
            p.join("BENCH_engine.json")
        });
    let label = std::env::var("GPSCHED_BENCH_LABEL").unwrap_or_else(|_| "local".into());
    let entry = BenchEntry {
        label,
        units,
        loops_per_sec,
        trace_overhead_pct: Some(trace_overhead_pct),
    };
    match append_entry(&path, entry) {
        Ok(()) => eprintln!("appended trajectory entry to {}", path.display()),
        Err(e) => eprintln!("could not update {}: {e}", path.display()),
    }
}
