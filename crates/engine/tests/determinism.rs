//! Engine determinism: the same job spec must yield identical results —
//! and identical JSONL modulo line order — whether one worker or many run
//! the sweep.
//!
//! The comparison worker count defaults to 8 and can be pinned with
//! `GPSCHED_TEST_WORKERS` (CI runs the suite at 1 and 8 explicitly, so
//! both the single-worker path, which runs on the calling thread, and a
//! contended pool are exercised on every push).
//!
//! Trace counters are process-wide: a sweep running beside a traced one
//! counts into its session. Every test here that runs a sweep therefore
//! holds [`lock`] for its whole body, and a traced test takes it before
//! its `TraceSession`.

use gpsched_engine::{run_sweep, run_sweep_cached, JobSpec, SweepCache, SweepOptions, SweepResult};
use gpsched_machine::MachineConfig;
use gpsched_sched::AlgorithmSpec;
use gpsched_trace::TraceSession;
use gpsched_workloads::{spec_suite, synth::synthesize, SynthProfile};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// Serializes the sweeps of this test binary.
static SWEEPS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the sweeps it guards share no data.
    SWEEPS.lock().unwrap_or_else(|e| e.into_inner())
}

/// The "many workers" side of the comparisons (`GPSCHED_TEST_WORKERS`,
/// default 8).
fn test_workers() -> usize {
    std::env::var("GPSCHED_TEST_WORKERS")
        .ok()
        .and_then(|w| w.parse().ok())
        .unwrap_or(8)
}

fn job() -> JobSpec {
    let suite = spec_suite();
    let program = suite.iter().find(|p| p.name == "su2cor").expect("exists");
    let mut job = JobSpec::new()
        .program(program)
        .machines([
            MachineConfig::unified(32),
            MachineConfig::two_cluster(32, 1, 1),
        ])
        .algorithms(AlgorithmSpec::PAPER)
        // The variant axis must be exactly as deterministic as the paper
        // algorithms.
        .algorithm(gpsched_sched::AlgorithmSpec::GP_NOREPART)
        .algorithm(gpsched_sched::AlgorithmSpec::URACAM_GREEDY);
    for seed in 0..3 {
        job = job.loop_in(
            "synth",
            synthesize(format!("s{seed}"), &SynthProfile::default(), seed),
        );
    }
    job
}

/// The order-independent, volatile-field-free view of a JSONL stream:
/// every line reduced to its canonical fields, as a set.
fn canonical_lines(jsonl: &[u8]) -> BTreeSet<String> {
    String::from_utf8_lossy(jsonl)
        .lines()
        .map(|line| {
            // Strip the volatile measurements; keep everything else.
            let cut = line
                .find(",\"cache_hit\":")
                .unwrap_or_else(|| panic!("no volatile fields in {line}"));
            line[..cut].to_string()
        })
        .collect()
}

#[test]
fn one_worker_and_many_workers_agree() {
    let _sweeps = lock();
    let job = job();
    let mut jsonl1: Vec<u8> = Vec::new();
    let mut jsonl8: Vec<u8> = Vec::new();
    let serial = run_sweep(&job, &SweepOptions::serial(), Some(&mut jsonl1));
    let parallel = run_sweep(
        &job,
        &SweepOptions {
            workers: test_workers(),
            use_cache: true,
            progress: false,
        },
        Some(&mut jsonl8),
    );

    // Returned records are already in unit order: compare directly.
    assert_eq!(serial.records.len(), parallel.records.len());
    for (a, b) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(a.unit, b.unit);
        assert_eq!(
            a.canonical_fields(),
            b.canonical_fields(),
            "unit {}",
            a.unit
        );
    }

    // The JSONL streams may interleave differently but must carry the
    // same canonical lines.
    assert_eq!(canonical_lines(&jsonl1), canonical_lines(&jsonl8));
    assert_eq!(canonical_lines(&jsonl1).len(), job.unit_count());
}

#[test]
fn large_loops_agree_across_worker_counts() {
    let _sweeps = lock();
    // The SPECfp95 loops of at least 64 ops climb the longest II ladders
    // and dominate a sweep's tail. Their canonical sweep JSONL must be
    // byte-identical between one worker and a contended pool.
    let suite = spec_suite();
    let mut job = JobSpec::new()
        .machines([
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
        ])
        .algorithms([AlgorithmSpec::GP, AlgorithmSpec::URACAM]);
    for p in &suite {
        for l in &p.loops {
            if l.op_count() >= 64 {
                job = job.loop_in(p.name.to_string(), l.clone());
            }
        }
    }
    assert!(!job.loops.is_empty(), "suite must contain large loops");

    let canonical_jsonl = |r: &gpsched_engine::SweepResult| -> Vec<u8> {
        r.records
            .iter()
            .map(|rec| format!("{{\"unit\":{},{}}}\n", rec.unit, rec.canonical_fields()))
            .collect::<String>()
            .into_bytes()
    };
    let serial = run_sweep(&job, &SweepOptions::serial(), None);
    let parallel = run_sweep(
        &job,
        &SweepOptions {
            workers: test_workers(),
            use_cache: true,
            progress: false,
        },
        None,
    );
    assert_eq!(canonical_jsonl(&serial), canonical_jsonl(&parallel));
}

#[test]
fn portfolio_is_deterministic_across_worker_counts_and_cache_states() {
    let _sweeps = lock();
    // The portfolio race ranks candidates from DDG features and runs them
    // strictly in rank order, so its selection must not depend on the
    // worker count, the shared runs or cache warmth. Mixed fixed +
    // portfolio specs in one job also exercise the shared runs' keying:
    // with GP, URACAM and List in the job, a cached sweep answers the
    // race's leader, its challengers and its List floor from the fixed
    // units' runs.
    let suite = spec_suite();
    let mut job = JobSpec::new()
        .machines([
            MachineConfig::unified(32),
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
        ])
        .algorithms([
            AlgorithmSpec::GP,
            AlgorithmSpec::URACAM,
            AlgorithmSpec::LIST,
        ])
        .algorithm(gpsched_sched::AlgorithmSpec::PORTFOLIO)
        .algorithm(gpsched_sched::AlgorithmSpec::parse("portfolio:5:8").expect("parses"));
    let program = suite.iter().find(|p| p.name == "hydro2d").expect("exists");
    job = job.program(program);
    for seed in 0..3 {
        job = job.loop_in(
            "synth",
            synthesize(format!("p{seed}"), &SynthProfile::default(), seed),
        );
    }

    let canonical = |r: &gpsched_engine::SweepResult| -> Vec<String> {
        r.records
            .iter()
            .map(|rec| format!("{{\"unit\":{},{}}}", rec.unit, rec.canonical_fields()))
            .collect()
    };
    // Each sweep under its own trace session, returning how many raced
    // candidates were answered from another unit's run.
    let traced = |opts: SweepOptions| {
        let session = TraceSession::start();
        let r = run_sweep(&job, &opts, None);
        (r, session.finish().counter("portfolio.shared_runs"))
    };
    let (serial, serial_shared) = traced(SweepOptions::serial());
    let (parallel, parallel_shared) = traced(SweepOptions {
        workers: test_workers(),
        use_cache: true,
        progress: false,
    });
    let (uncached, uncached_shared) = traced(SweepOptions {
        workers: 1,
        use_cache: false,
        progress: false,
    });
    assert!(serial_shared > 0, "the cached sweep shared no run");
    assert!(parallel_shared > 0, "the cached pool shared no run");
    assert_eq!(uncached_shared, 0, "the uncached sweep shared runs");
    let reference = canonical(&serial);
    assert_eq!(
        reference,
        canonical(&parallel),
        "worker count changed portfolio results"
    );
    assert_eq!(
        reference,
        canonical(&uncached),
        "shared runs changed portfolio results"
    );
    // Every portfolio unit scheduled (none dropped to a failure record),
    // and the record keeps the portfolio display name — `Portfolio` and
    // `Portfolio:5:8` — not the selected fixed spec's.
    let portfolio_records: Vec<_> = serial
        .records
        .iter()
        .filter(|r| r.algorithm.starts_with("Portfolio"))
        .collect();
    assert_eq!(portfolio_records.len(), 2 * 3 * job.loops.len());
    assert!(portfolio_records.iter().all(|r| r.ipc > 0.0));
    assert!(portfolio_records
        .iter()
        .any(|r| r.algorithm == "Portfolio:5:8"));
}

#[test]
fn repeated_portfolio_job_through_one_cache_matches_uncached() {
    let _sweeps = lock();
    // The daemon runs every job through one long-lived `SweepCache`, so a
    // portfolio body submitted twice finds the seeds its first submission
    // left behind. Both submissions, serial and then pooled, must schedule
    // exactly what an uncached sweep schedules.
    let suite = spec_suite();
    let program = suite.iter().find(|p| p.name == "hydro2d").expect("exists");
    let mut job = JobSpec::new()
        .program(program)
        .machines([
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(32, 1, 2),
        ])
        .algorithms([
            AlgorithmSpec::GP,
            AlgorithmSpec::PORTFOLIO,
            AlgorithmSpec::parse("portfolio:5:8").expect("parses"),
        ]);
    for seed in 0..2 {
        job = job.loop_in(
            "synth",
            synthesize(format!("r{seed}"), &SynthProfile::default(), seed),
        );
    }

    let canonical = |r: &SweepResult| -> Vec<String> {
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        r.records
            .iter()
            .map(|rec| format!("{{\"unit\":{},{}}}", rec.unit, rec.canonical_fields()))
            .collect()
    };
    let uncached = run_sweep(
        &job,
        &SweepOptions {
            workers: 1,
            use_cache: false,
            progress: false,
        },
        None,
    );
    let cache = SweepCache::new();
    let first = run_sweep_cached(&job, &SweepOptions::serial(), None, &cache);
    let second = run_sweep_cached(
        &job,
        &SweepOptions {
            workers: test_workers(),
            use_cache: true,
            progress: false,
        },
        None,
        &cache,
    );
    assert!(
        second.records.iter().all(|r| r.cache_hit),
        "the second submission recomputed a seed"
    );
    let reference = canonical(&uncached);
    assert_eq!(reference.len(), job.unit_count());
    assert_eq!(reference, canonical(&first), "first submission differs");
    assert_eq!(reference, canonical(&second), "second submission differs");
}

#[test]
fn cache_does_not_change_results() {
    let _sweeps = lock();
    let job = job();
    let cached = run_sweep(&job, &SweepOptions::serial(), None);
    let uncached = run_sweep(
        &job,
        &SweepOptions {
            workers: 1,
            use_cache: false,
            progress: false,
        },
        None,
    );
    for (a, b) in cached.records.iter().zip(&uncached.records) {
        assert_eq!(
            a.canonical_fields(),
            b.canonical_fields(),
            "unit {}",
            a.unit
        );
    }
    assert!(cached.stats.cache_hits > 0);
    assert_eq!(uncached.stats.cache_hits, 0);
}

#[test]
fn repeated_sweeps_are_identical() {
    let _sweeps = lock();
    let job = job();
    let a = run_sweep(&job, &SweepOptions::default(), None);
    let b = run_sweep(&job, &SweepOptions::default(), None);
    assert_eq!(
        a.records
            .iter()
            .map(|r| r.canonical_fields())
            .collect::<Vec<_>>(),
        b.records
            .iter()
            .map(|r| r.canonical_fields())
            .collect::<Vec<_>>()
    );
}

#[test]
fn one_worker_sweeps_on_the_calling_thread_in_unit_order() {
    let _sweeps = lock();
    let job = job();
    let session = TraceSession::start();
    // A span of the test's own thread names that thread's trace id.
    drop(gpsched_trace::span!("test.caller"));
    let mut jsonl: Vec<u8> = Vec::new();
    let r = run_sweep(&job, &SweepOptions::serial(), Some(&mut jsonl));
    let trace = session.finish();

    let caller = trace
        .spans
        .iter()
        .find(|s| s.name == "test.caller")
        .expect("the caller's span")
        .tid;
    let units: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "engine.unit")
        .collect();
    assert_eq!(units.len(), job.unit_count());
    assert!(
        units.iter().all(|s| s.tid == caller),
        "a one-worker sweep scheduled units off the calling thread: {:?}",
        units.iter().map(|s| &s.thread).collect::<BTreeSet<_>>()
    );
    // The sink saw every unit's line, in unit order.
    let order: Vec<usize> = String::from_utf8_lossy(&jsonl)
        .lines()
        .map(|l| {
            l.strip_prefix("{\"unit\":")
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("no unit index in {l}"))
        })
        .collect();
    assert_eq!(order, (0..job.unit_count()).collect::<Vec<_>>());
    assert_eq!(r.records.len(), job.unit_count());
}
