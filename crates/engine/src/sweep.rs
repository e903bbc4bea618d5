//! The batch sweep executor: runs every unit of a [`JobSpec`] and
//! streams each finished unit's JSONL line to an optional sink.
//!
//! A unit's work is written once: claim the next unit index off a shared
//! atomic counter, schedule it, release its (loop, machine) pair's shared
//! runs, and hand the record to the caller's thread, which writes its line
//! to the sink. With one worker the calling thread does all of it, in unit
//! order, and no thread or channel exists. With more, a pool of scoped
//! `std::thread`s claims and schedules, and records reach the caller's
//! thread over an `mpsc` channel in completion order. The returned records
//! are sorted by unit index either way, so they are deterministic however
//! many workers ran, while the sink observes results as soon as they exist.

use crate::cache::{compute_seed, ddg_content_hash, SweepCache};
use crate::job::JobSpec;
use crate::record::{RunRecord, SweepStats};
use gpsched_sched::{schedule_loop_spec_seeded, ScheduledWith, SharedRuns};
use gpsched_trace::json::escape;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// A unit that could not be scheduled at all.
///
/// A sweep over external `.ddg`/`.machine` input can legitimately pair a
/// loop with a machine that cannot run it (an FP loop on an integer-only
/// cluster machine). That is a property of the *input*, not a bug in the
/// engine, so it must not panic a worker (and with it the whole sweep, or
/// the daemon): the unit becomes a failure record, the other units finish
/// normally.
#[derive(Clone, Debug)]
pub struct UnitFailure {
    /// Deterministic unit index within the job.
    pub unit: usize,
    /// Aggregation group (program name).
    pub group: String,
    /// Loop name.
    pub loop_name: String,
    /// Machine short name.
    pub machine: String,
    /// Algorithm display name.
    pub algorithm: String,
    /// Why the unit could not be scheduled.
    pub error: String,
}

impl UnitFailure {
    /// The JSONL line of this failure (no trailing newline). Distinguished
    /// from success records by the `"error"` key.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"unit\":{},\"group\":\"{}\",\"loop\":\"{}\",\"machine\":\"{}\",\
             \"algorithm\":\"{}\",\"error\":\"{}\"}}",
            self.unit,
            escape(&self.group),
            escape(&self.loop_name),
            escape(&self.machine),
            escape(&self.algorithm),
            escape(&self.error)
        )
    }
}

/// Executor options.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads; `0` means one per available CPU.
    pub workers: usize,
    /// Serve MII/partition preprocessing from the content-hash memo cache.
    /// Disable for timing studies (Table 2) where every unit must pay its
    /// full algorithmic cost.
    pub use_cache: bool,
    /// Print a periodic progress line (units done/total, loops/s, ETA) to
    /// stderr. Never mixed into the JSONL sink.
    pub progress: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            workers: 0,
            use_cache: true,
            progress: false,
        }
    }
}

impl SweepOptions {
    /// A single-threaded run (the determinism baseline).
    pub fn serial() -> Self {
        SweepOptions {
            workers: 1,
            ..SweepOptions::default()
        }
    }

    /// Resolves `workers == 0` to the host's parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Result of [`run_sweep`]: records in unit order plus aggregate stats.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// One record per successfully scheduled unit, sorted by unit index
    /// (deterministic).
    pub records: Vec<RunRecord>,
    /// Units that could not be scheduled, sorted by unit index. Empty for
    /// well-formed jobs.
    pub failures: Vec<UnitFailure>,
    /// Aggregate statistics.
    pub stats: SweepStats,
}

/// Runs every unit of `job` against a fresh cache, streaming JSONL lines
/// to `sink` (if any) as units complete.
///
/// A unit that cannot be scheduled (a machine with zero units of a kind
/// the loop needs) becomes a [`UnitFailure`] record — it does not panic
/// and does not abort the other units.
pub fn run_sweep(job: &JobSpec, opts: &SweepOptions, sink: Option<&mut dyn Write>) -> SweepResult {
    run_sweep_cached(job, opts, sink, &SweepCache::new())
}

/// [`run_sweep`] against a caller-owned cache, so consecutive jobs share
/// memoized seeds. This is the daemon's entry point: `gpsched-serve` keeps
/// one (optionally disk-backed) [`SweepCache`] for its whole lifetime and
/// runs every accepted job through it. Reported cache stats are this
/// call's delta, not the cache's lifetime totals.
///
/// With the cache on, a job that races a portfolio also shares each
/// (loop, machine) pair's unconstrained fixed-spec runs between its units
/// ([`SharedRuns`]): a memo that lives while the pair's units run and is
/// dropped with the pair, never outliving the call.
pub fn run_sweep_cached(
    job: &JobSpec,
    opts: &SweepOptions,
    mut sink: Option<&mut dyn Write>,
    cache: &SweepCache,
) -> SweepResult {
    let t0 = Instant::now();
    let nunits = job.unit_count();
    let workers = opts.effective_workers().max(1).min(nunits.max(1));
    let (hits0, misses0) = cache.stats();
    // Hash every loop once, up front.
    let hashes: Vec<u64> = job.loops.iter().map(|l| ddg_content_hash(&l.ddg)).collect();
    // A memo needs a reader: only a portfolio race reads runs it did not
    // compute itself.
    let races = job.algorithms.iter().any(|a| a.is_portfolio());
    let shared = (opts.use_cache && races).then(|| PairRuns::new(job.algorithms.len()));

    let next = AtomicUsize::new(0);
    // Claims the next unit and schedules it; `None` once every unit is
    // claimed.
    let claim = || {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= nunits {
            return None;
        }
        // A (loop, machine) pair's units are consecutive.
        let pair = k / job.algorithms.len();
        let runs = shared.as_ref().map(|s| s.acquire(pair));
        let outcome = run_unit(job, k, &hashes, cache, opts.use_cache, runs.as_deref());
        if let Some(s) = &shared {
            s.release(pair);
        }
        Some(outcome)
    };
    // The caller's side: streams each finished unit's line to the sink.
    let mut records: Vec<RunRecord> = Vec::with_capacity(nunits);
    let mut failures: Vec<UnitFailure> = Vec::new();
    let mut last_progress = Instant::now();
    let mut accept = |outcome: Result<RunRecord, Box<UnitFailure>>| {
        if let Some(w) = sink.as_deref_mut() {
            let mut line = match &outcome {
                Ok(record) => record.to_json(),
                Err(failure) => failure.to_json(),
            };
            // One write per line: the daemon's sink wakes the job's result
            // streams on every write.
            line.push('\n');
            let _ = w.write_all(line.as_bytes());
        }
        match outcome {
            Ok(record) => records.push(record),
            Err(failure) => failures.push(*failure),
        }
        // Progress goes to stderr only, so the JSONL stream stays clean.
        if opts.progress && last_progress.elapsed().as_millis() >= 250 {
            last_progress = Instant::now();
            let done = records.len() + failures.len();
            eprintln!("{}", progress_line(done, nunits, t0));
        }
    };
    if workers == 1 {
        while let Some(outcome) = claim() {
            accept(outcome);
        }
    } else {
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (tx, claim) = (tx.clone(), &claim);
                scope.spawn(move || {
                    gpsched_trace::set_thread_label(format!("worker-{w}"));
                    while let Some(outcome) = claim() {
                        if tx.send(outcome).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for outcome in rx {
                accept(outcome);
            }
        });
    }
    if opts.progress && nunits > 0 {
        eprintln!(
            "{}",
            progress_line(records.len() + failures.len(), nunits, t0)
        );
    }

    records.sort_by_key(|r| r.unit);
    failures.sort_by_key(|f| f.unit);
    let (hits, misses) = cache.stats();
    let mut stats = SweepStats::from_records(
        &records,
        t0.elapsed(),
        hits - hits0,
        misses - misses0,
        workers,
    );
    stats.failed = failures.len();
    stats.cache_entries = cache.len();
    SweepResult {
        records,
        failures,
        stats,
    }
}

/// The [`SharedRuns`] of the (loop, machine) pairs whose units are being
/// scheduled. A pair's units are consecutive in unit order; its memo is
/// created when the first of them starts and dropped when the last one
/// finishes, so at most `workers + 1` memos are alive at once.
struct PairRuns {
    units_per_pair: usize,
    /// Live memos by pair index, with how many of the pair's units have
    /// finished.
    live: Mutex<HashMap<usize, (Arc<SharedRuns>, usize)>>,
}

impl PairRuns {
    fn new(units_per_pair: usize) -> Self {
        PairRuns {
            units_per_pair,
            live: Mutex::new(HashMap::new()),
        }
    }

    /// The memo of `pair`, for one of its units.
    fn acquire(&self, pair: usize) -> Arc<SharedRuns> {
        let mut live = self.live.lock().expect("pair memos poisoned");
        Arc::clone(&live.entry(pair).or_default().0)
    }

    /// Marks one unit of `pair` finished; the last one drops the memo.
    fn release(&self, pair: usize) {
        let mut live = self.live.lock().expect("pair memos poisoned");
        let entry = live.get_mut(&pair).expect("released a pair never acquired");
        entry.1 += 1;
        if entry.1 == self.units_per_pair {
            live.remove(&pair);
        }
    }
}

/// Formats one stderr progress line: units done/total, current rate, ETA.
fn progress_line(done: usize, total: usize, t0: Instant) -> String {
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let rate = done as f64 / elapsed;
    let eta = if done > 0 {
        (total - done) as f64 / rate
    } else {
        f64::INFINITY
    };
    format!(
        "sweep: {done}/{total} units ({:.0}%), {rate:.0} loops/s, ETA {:.1}s",
        100.0 * done as f64 / total.max(1) as f64,
        eta
    )
}

/// Schedules unit `k` of `job`; unschedulable units come back as
/// [`UnitFailure`]s rather than panics (boxed: the failure record is an
/// order of magnitude larger than the worker channel's happy path needs).
fn run_unit(
    job: &JobSpec,
    k: usize,
    hashes: &[u64],
    cache: &SweepCache,
    use_cache: bool,
    runs: Option<&SharedRuns>,
) -> Result<RunRecord, Box<UnitFailure>> {
    let (li, mi, ai) = job.unit(k);
    let spec = &job.loops[li];
    let machine = &job.machines[mi];
    let algorithm = job.algorithms[ai];
    let fail = |error: String| {
        Box::new(UnitFailure {
            unit: k,
            group: spec.group.clone(),
            loop_name: spec.ddg.name().to_string(),
            machine: machine.short_name(),
            algorithm: algorithm.name(),
            error,
        })
    };
    // Feasibility gate BEFORE the seed: computing the MII of a loop on a
    // machine lacking a required unit kind is undefined (and the seed would
    // poison the shared cache). Mirrors the scheduler's own pre-check.
    for kind in gpsched_machine::ResourceKind::ALL {
        if spec.ddg.ops_using(kind) > 0 && machine.total_units(kind) == 0 {
            return Err(fail(format!("machine has no {kind} units")));
        }
    }
    let _span = gpsched_trace::span!(
        "engine.unit",
        "{}@{}/{}",
        spec.ddg.name(),
        machine.short_name(),
        algorithm.name()
    );
    let t0 = Instant::now();
    let (seed, cache_hit) = {
        let _seed_span = gpsched_trace::span!("engine.seed");
        if use_cache {
            cache.seed(hashes[li], &spec.ddg, machine, &job.popts)
        } else {
            (compute_seed(&spec.ddg, machine, &job.popts), false)
        }
    };
    // A hit can still have *blocked* on a concurrent miss computing the
    // same entry; that wait is the miss's cost, not this unit's.
    let t0 = if cache_hit { Instant::now() } else { t0 };
    let (ddg, popts, cfg) = (&spec.ddg, &job.popts, &job.cfg);
    let r = match runs {
        Some(runs) => runs.schedule(ddg, machine, algorithm, popts, cfg, &seed),
        None => schedule_loop_spec_seeded(ddg, machine, algorithm, popts, cfg, &seed),
    }
    .map_err(|e| fail(e.to_string()))?;
    let sched_time_us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;

    let repartitions = match r.method {
        ScheduledWith::Modulo { repartitions } => repartitions,
        _ => 0,
    };
    Ok(RunRecord {
        unit: k,
        group: spec.group.clone(),
        loop_name: r.name.clone(),
        machine: machine.short_name(),
        algorithm: algorithm.name(),
        ii: r.schedule.ii(),
        length: r.schedule.length(),
        ops: r.ops,
        trips: r.trips,
        cycles: r.cycles(),
        ipc: r.ipc(),
        list_fallback: matches!(r.method, ScheduledWith::ListFallback),
        repartitions,
        cache_hit,
        sched_time_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_machine::MachineConfig;
    use gpsched_sched::AlgorithmSpec;
    use gpsched_workloads::kernels;

    fn small_job() -> JobSpec {
        JobSpec::new()
            .loop_in("k", kernels::daxpy(100))
            .loop_in("k", kernels::dot_product(100))
            .loop_in("k", kernels::fir(100, 4))
            .machines([
                MachineConfig::unified(32),
                MachineConfig::two_cluster(32, 1, 1),
            ])
            .algorithms(AlgorithmSpec::PAPER)
    }

    #[test]
    fn records_cover_every_unit_in_order() {
        let job = small_job();
        let r = run_sweep(&job, &SweepOptions::serial(), None);
        assert_eq!(r.records.len(), job.unit_count());
        for (k, rec) in r.records.iter().enumerate() {
            assert_eq!(rec.unit, k);
            let (li, mi, ai) = job.unit(k);
            assert_eq!(rec.loop_name, job.loops[li].ddg.name());
            assert_eq!(rec.machine, job.machines[mi].short_name());
            assert_eq!(rec.algorithm, job.algorithms[ai].name());
            assert!(rec.ipc > 0.0);
        }
        assert_eq!(r.stats.units, job.unit_count());
    }

    #[test]
    fn parallel_equals_serial_canonically() {
        let job = small_job();
        let serial = run_sweep(&job, &SweepOptions::serial(), None);
        let parallel = run_sweep(
            &job,
            &SweepOptions {
                workers: 4,
                use_cache: true,
                progress: false,
            },
            None,
        );
        let canon = |r: &SweepResult| -> Vec<String> {
            r.records.iter().map(RunRecord::canonical_fields).collect()
        };
        assert_eq!(canon(&serial), canon(&parallel));
    }

    #[test]
    fn cache_dedupes_shared_preprocessing() {
        let job = small_job(); // 3 loops × 2 machines, 4 algos each
        let r = run_sweep(&job, &SweepOptions::serial(), None);
        // One miss per (loop, machine); the other algorithm units hit.
        assert_eq!(r.stats.cache_misses, 6);
        assert_eq!(r.stats.cache_hits, job.unit_count() - 6);
    }

    #[test]
    fn no_cache_mode_counts_nothing() {
        let job = small_job();
        let r = run_sweep(
            &job,
            &SweepOptions {
                workers: 2,
                use_cache: false,
                progress: false,
            },
            None,
        );
        assert_eq!(r.stats.cache_hits + r.stats.cache_misses, 0);
        assert_eq!(r.records.len(), job.unit_count());
    }

    #[test]
    fn sink_receives_one_json_line_per_unit() {
        let job = small_job();
        let mut buf: Vec<u8> = Vec::new();
        let r = run_sweep(&job, &SweepOptions::serial(), Some(&mut buf));
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), r.records.len());
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
            assert!(l.contains("\"ipc\":"));
        }
    }

    #[test]
    fn empty_job_is_fine() {
        let job = JobSpec::new();
        let r = run_sweep(&job, &SweepOptions::default(), None);
        assert!(r.records.is_empty());
        assert!(r.failures.is_empty());
        assert_eq!(r.stats.units, 0);
    }

    /// An integer-only machine: an FP loop on it is unschedulable.
    fn int_only_machine() -> MachineConfig {
        use gpsched_machine::{ClusterConfig, Interconnect, LatencyModel};
        MachineConfig::custom(
            vec![ClusterConfig {
                int_units: 2,
                fp_units: 0,
                mem_units: 1,
                registers: 32,
            }],
            Interconnect::None,
            LatencyModel::default(),
        )
    }

    #[test]
    fn unschedulable_units_become_failures_not_panics() {
        // daxpy uses FP units; pairing it with an int-only machine used to
        // panic the worker (and the whole sweep). The unified machine in
        // the same job must still produce its records.
        let job = JobSpec::new()
            .loop_in("k", kernels::daxpy(100))
            .machines([int_only_machine(), MachineConfig::unified(32)])
            .algorithms(AlgorithmSpec::PAPER);
        let mut buf: Vec<u8> = Vec::new();
        let r = run_sweep(
            &job,
            &SweepOptions {
                workers: 2,
                ..SweepOptions::default()
            },
            Some(&mut buf),
        );
        let nalgos = AlgorithmSpec::PAPER.len();
        assert_eq!(r.failures.len(), nalgos, "every algo unit fails");
        assert_eq!(r.records.len(), nalgos, "unified units still succeed");
        assert_eq!(r.stats.failed, nalgos);
        for f in &r.failures {
            assert!(f.error.contains("no fp units"), "{}", f.error);
            assert_eq!(f.loop_name, "daxpy");
        }
        // The sink saw one line per unit, failures included, each valid.
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), job.unit_count());
        assert_eq!(
            text.lines().filter(|l| l.contains("\"error\":")).count(),
            nalgos
        );
    }

    #[test]
    fn failures_do_not_poison_the_cache() {
        // The infeasible pairing must not insert a seed that a later
        // feasible sweep could pick up; the shared-cache path is what the
        // daemon runs.
        let cache = SweepCache::new();
        let bad = JobSpec::new()
            .loop_in("k", kernels::daxpy(64))
            .machine(int_only_machine())
            .algorithm(AlgorithmSpec::GP);
        let r = run_sweep_cached(&bad, &SweepOptions::serial(), None, &cache);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(cache.stats(), (0, 0), "gate fires before the cache");
    }

    #[test]
    fn shared_cache_reports_per_call_deltas() {
        let cache = SweepCache::new();
        let job = small_job();
        let first = run_sweep_cached(&job, &SweepOptions::serial(), None, &cache);
        assert_eq!(first.stats.cache_misses, 6);
        let second = run_sweep_cached(&job, &SweepOptions::serial(), None, &cache);
        // Second run over the same job: everything hits the shared cache,
        // and the reported stats are this call's delta.
        assert_eq!(second.stats.cache_misses, 0);
        assert_eq!(second.stats.cache_hits, job.unit_count());
        assert!(second.records.iter().all(|r| r.cache_hit));
        let canon = |r: &SweepResult| -> Vec<String> {
            r.records.iter().map(RunRecord::canonical_fields).collect()
        };
        assert_eq!(canon(&first), canon(&second));
    }
}
