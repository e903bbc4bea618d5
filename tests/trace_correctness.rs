//! End-to-end correctness of the tracing subsystem over real sweeps.
//!
//! Four properties, each over the actual engine rather than synthetic
//! span records:
//!
//! * spans collected from a multi-worker sweep nest properly per thread —
//!   RAII guards cannot produce partially overlapping (orphan) spans;
//! * counter totals are deterministic: 1 worker and N workers count the
//!   same events when the memo cache is off (with it on, *which* unit
//!   pays the miss races, but hit/miss totals still agree), down to the
//!   work counters of the large loops that climb long II ladders;
//! * the Chrome Trace Event JSON export round-trips through the bundled
//!   std-only parser with every span accounted for;
//! * tracing is observationally neutral: a traced sweep emits
//!   record-for-record identical canonical JSONL fields to an untraced
//!   one.
//!
//! Tracing state (the enabled flag, counters, thread buffers) is
//! process-global, so the tests in this binary serialize on a file-local
//! mutex — otherwise one test's session would capture spans and counts
//! from another test's concurrently running sweep.

use gpsched::machine::MachineConfig;
use gpsched_engine::{run_sweep, JobSpec, RunRecord, SweepOptions};
use gpsched_trace::TraceSession;
use gpsched_workloads::{kernels, spec_suite};
use std::sync::Mutex;

/// Serializes the tests of this binary (tracing is process-global).
static TRACE_TESTS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_TESTS.lock().unwrap_or_else(|e| e.into_inner())
}

fn job() -> JobSpec {
    JobSpec::new()
        .loop_in("k", kernels::daxpy(100))
        .loop_in("k", kernels::dot_product(100))
        .loop_in("k", kernels::fir(100, 4))
        .loop_in("k", kernels::stencil5(120))
        .machines([
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
        ])
        .algorithms(gpsched::sched::AlgorithmSpec::PAPER)
}

fn opts(workers: usize, use_cache: bool) -> SweepOptions {
    SweepOptions {
        workers,
        use_cache,
        progress: false,
    }
}

#[test]
fn trace_spans_nest_and_balance_across_the_pool() {
    let _guard = lock();
    let session = TraceSession::start();
    let r = run_sweep(&job(), &opts(4, true), None);
    let trace = session.finish();
    assert_eq!(r.records.len(), job().unit_count());
    assert_eq!(trace.dropped, 0);
    assert!(!trace.spans.is_empty());

    // Per thread, spans sorted by start time must nest: each span either
    // starts at-or-after the enclosing one ends, or ends within it. A
    // partial overlap would mean an orphaned RAII guard.
    let mut by_tid: std::collections::BTreeMap<u32, Vec<&gpsched_trace::SpanRecord>> =
        std::collections::BTreeMap::new();
    for ev in &trace.spans {
        by_tid.entry(ev.tid).or_default().push(ev);
    }
    for (tid, events) in &by_tid {
        let mut stack: Vec<u64> = Vec::new(); // open spans' end times
        for ev in events {
            let end = ev.ts_ns + ev.dur_ns;
            while stack.last().is_some_and(|&top| top <= ev.ts_ns) {
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                assert!(
                    end <= top,
                    "tid {tid}: span `{}` [{}, {end}) escapes its parent (ends {top})",
                    ev.name,
                    ev.ts_ns
                );
            }
            stack.push(end);
        }
    }

    // One engine.unit span per unit, spread over the labelled workers.
    let units = trace
        .spans
        .iter()
        .filter(|s| s.name == "engine.unit")
        .count();
    assert_eq!(units, r.records.len());
    assert!(trace.spans.iter().any(|s| s.thread.starts_with("worker-")));
}

#[test]
fn trace_counter_totals_are_deterministic_across_worker_counts() {
    let _guard = lock();
    let counters = |workers: usize| {
        let session = TraceSession::start();
        let _ = run_sweep(&job(), &opts(workers, false), None);
        session.finish().counters
    };
    let serial = counters(1);
    let parallel = counters(4);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "counter totals must not depend on worker count"
    );
    // The cache was off: no cache traffic at either worker count.
    assert!(!serial.iter().any(|(n, _)| n.starts_with("cache.")));
    // The layers the profile report ranks all counted something.
    for prefix in ["graph.bf.", "ddg.timing.", "partition.", "sched."] {
        assert!(
            serial.iter().any(|(n, v)| n.starts_with(prefix) && *v > 0),
            "no non-zero counter under `{prefix}*` in {serial:?}"
        );
    }
}

#[test]
fn work_counters_of_large_loops_do_not_depend_on_the_worker_count() {
    let _guard = lock();
    // The SPECfp95 loops of at least 64 ops: the longest II ladders, and
    // the units a parallel pool finishes last.
    let mut job = JobSpec::new()
        .machines([
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
        ])
        .algorithms([
            gpsched::sched::AlgorithmSpec::GP,
            gpsched::sched::AlgorithmSpec::URACAM,
        ]);
    for p in spec_suite() {
        for l in p.loops.iter().filter(|l| l.op_count() >= 64) {
            job = job.loop_in(p.name, l.clone());
        }
    }
    assert!(!job.loops.is_empty(), "suite must contain large loops");
    // The work counters gpbench treats as deterministic, plus the number
    // of II attempts made.
    let work = |workers: usize| {
        let session = TraceSession::start();
        let _ = run_sweep(&job, &opts(workers, false), None);
        let trace = session.finish();
        assert_eq!(trace.dropped, 0);
        let counters = [
            "graph.bf.edges_scanned",
            "sched.place_trials",
            "sched.trial_rollbacks",
            "sched.spills_inserted",
            "partition.moves_evaluated",
        ]
        .map(|name| (name, trace.counter(name)));
        let attempts = trace
            .spans
            .iter()
            .filter(|s| s.name == "sched.ii_attempt")
            .count();
        (counters, attempts)
    };
    let serial = work(1);
    assert!(serial.0.iter().all(|&(_, n)| n > 0), "{serial:?}");
    assert!(serial.1 > job.unit_count(), "no II ladder was climbed");
    assert_eq!(serial, work(4), "1 worker vs 4 workers");
}

#[test]
fn trace_chrome_export_round_trips_through_the_parser() {
    let _guard = lock();
    let session = TraceSession::start();
    let _ = run_sweep(&job(), &opts(2, true), None);
    let trace = session.finish();
    let text = gpsched_trace::chrome::to_chrome_json(&trace);

    let names = gpsched_trace::chrome::span_names_in_chrome_json(&text)
        .expect("exported trace must parse and validate");
    for want in ["engine.unit", "sched.ii_attempt", "partition.run"] {
        assert!(names.iter().any(|n| n == want), "missing `{want}`");
    }

    // Every collected span surfaces as exactly one complete ("X") event.
    let doc = gpsched_trace::json::parse(&text).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .count();
    assert_eq!(complete, trace.spans.len());
}

#[test]
fn traced_and_untraced_sweeps_emit_identical_records() {
    let _guard = lock();
    let job = job();
    let jsonl = |traced: bool| -> (Vec<u8>, Vec<RunRecord>) {
        let session = traced.then(TraceSession::start);
        let mut buf = Vec::new();
        let r = run_sweep(&job, &opts(1, true), Some(&mut buf));
        drop(session.map(TraceSession::finish));
        (buf, r.records)
    };
    let (buf_off, rec_off) = jsonl(false);
    let (buf_on, rec_on) = jsonl(true);

    // The canonical fields — everything but host-time measurements — are
    // byte-identical record for record.
    let canon =
        |rs: &[RunRecord]| -> Vec<String> { rs.iter().map(RunRecord::canonical_fields).collect() };
    assert_eq!(canon(&rec_off), canon(&rec_on));
    // Identical shape on the wire too: same line count, and each line's
    // canonical prefix matches (only `sched_time_us` may differ).
    let lines = |b: &[u8]| -> Vec<String> {
        String::from_utf8(b.to_vec())
            .unwrap()
            .lines()
            .map(|l| {
                let cut = l.find("\"sched_time_us\"").unwrap_or(l.len());
                l[..cut].to_string()
            })
            .collect()
    };
    assert_eq!(lines(&buf_off), lines(&buf_on));
}
