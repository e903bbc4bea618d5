//! The batch workloads: `paper-serial` and `synth-par`.
//!
//! A pass runs every job of the workload through `engine::run_sweep` once;
//! the timed run repeats passes until `--seconds` have elapsed (whole
//! passes only). With one worker each job's JSONL stream is clocked line
//! by line, so per-unit latency is seen from outside the engine; with a
//! pool, whose completions interleave, a unit's latency is its share of
//! the job's worker time (job wall × workers ÷ units). Before each job the
//! reference kernel runs once, and each pass's times are scaled to nominal
//! host speed by the kernel's median over that pass (see
//! [`crate::reference`]).

use crate::check::{
    audit_rejects_overflow, replay, replay_counts, sweep_counts, units, Quality, Replay,
};
use crate::inputs::{paper_bodies, parse_jobs, synth_bodies};
use crate::reference;
use crate::stats::{median, percentile, ratio};
use crate::{out_dir, Args, Report, SETUP_REPS};
use gpsched_engine::{run_sweep, JobSpec, RunRecord, SweepOptions, SweepResult};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// A workload's inputs and executor settings.
struct Workload {
    bodies: fn(u64) -> Vec<String>,
    opts: SweepOptions,
}

fn workload(name: &str) -> Workload {
    match name {
        "paper-serial" => Workload {
            bodies: paper_bodies,
            opts: SweepOptions {
                workers: 1,
                use_cache: false,
                progress: false,
            },
        },
        _ => Workload {
            bodies: synth_bodies,
            opts: SweepOptions {
                workers: 2,
                use_cache: true,
                progress: false,
            },
        },
    }
}

/// A JSONL sink that timestamps every completed line.
#[derive(Default)]
struct LineClock {
    at: Vec<Instant>,
}

impl Write for LineClock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        self.at.extend(std::iter::repeat_n(now, lines));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn canonical(r: &SweepResult) -> Vec<String> {
    r.records.iter().map(RunRecord::canonical_fields).collect()
}

/// Runs a batch workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let w = workload(&args.workload);
    let mut report = Report::default();

    // Set-up: generate the bodies from the seed and parse them.
    let (mut setup_s, mut parse_ms, mut kernel_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut bodies = Vec::new();
    let mut jobs = Vec::new();
    for rep in 0..SETUP_REPS {
        kernel_ms.push(reference::time_kernel());
        let t = Instant::now();
        let generated = (w.bodies)(args.seed);
        let tp = Instant::now();
        jobs = parse_jobs(&generated)?;
        parse_ms.push(ms(tp.elapsed()));
        setup_s.push(t.elapsed().as_secs_f64());
        report.check(rep == 0 || generated == bodies, || {
            "input generation is not byte-identical for one seed".into()
        });
        bodies = generated;
    }
    report.check((w.bodies)(args.seed.wrapping_add(1)) != bodies, || {
        "another seed generated the same inputs".into()
    });
    // The audit must be able to fail.
    report.check(audit_rejects_overflow()?, || {
        "the audit passed a register-overflowing schedule".into()
    });
    report.set("setup_s", median(&setup_s) * reference::scale(&kernel_ms));
    report.set("engine.text.parse.ms", median(&parse_ms));

    if args.trace {
        traced(args, &w, &jobs, report)
    } else {
        timed(args, &w, &jobs, report)
    }
}

/// Quality of a pass: every record audited, every unit failure counted as
/// an invalid unit with no cycles.
fn audit(jobs: &[JobSpec], results: &[SweepResult], report: &mut Report) -> (Quality, Replay) {
    let units = units(jobs, results);
    let audit = replay(&units, false);
    let mut q = Quality::default();
    let mut failed_on: BTreeMap<&str, u64> = BTreeMap::new();
    for ((_, rec), v) in units.iter().zip(&audit.verdicts) {
        q.add(v);
        if !v.valid {
            *failed_on.entry(rec.machine.as_str()).or_default() += 1;
        }
    }
    q.attempted += results.iter().map(|r| r.failures.len() as u64).sum::<u64>();
    report.problems.extend(audit.problems.iter().cloned());
    report
        .notes
        .push(format!("audit failures by machine: {failed_on:?}"));
    (q, audit)
}

fn timed(
    args: &Args,
    w: &Workload,
    jobs: &[JobSpec],
    mut report: Report,
) -> Result<Report, String> {
    // Warm-up: one job, untimed.
    run_sweep(&jobs[0], &w.opts, None);

    // Every pass repeats the same jobs in the same order. Times are scaled
    // per pass to nominal host speed, then each job and each unit is timed
    // at its median pass, so contention that slows a minority of passes
    // does not move the figures either.
    let mut job_ms: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut unit_ms: Vec<Vec<f64>> = Vec::new();
    let mut first: Vec<SweepResult> = Vec::new();
    let workers = w.opts.workers;
    let (mut units, mut passes) = (0u64, 0);
    let (mut pass_s, mut scales) = (Vec::new(), Vec::new());
    let t_run = Instant::now();
    while passes == 0 || t_run.elapsed() < args.seconds {
        let t_pass = Instant::now();
        let mut kernel_ms = Vec::with_capacity(jobs.len());
        let mut unit = 0;
        for (j, job) in jobs.iter().enumerate() {
            kernel_ms.push(reference::time_kernel());
            let mut clock = LineClock::default();
            let t = Instant::now();
            let r = run_sweep(job, &w.opts, Some(&mut clock));
            let wall = t.elapsed();
            let gaps: Vec<f64> = if workers == 1 {
                let mut prev = t;
                clock
                    .at
                    .iter()
                    .map(|&at| ms(at - std::mem::replace(&mut prev, at)))
                    .collect()
            } else {
                // Completion gaps of a pool interleave units; charge each
                // unit its share of the job's worker time instead.
                let share = ms(wall) * workers as f64 / clock.at.len().max(1) as f64;
                vec![share; clock.at.len()]
            };
            job_ms[j].push(ms(wall));
            for g in gaps {
                if unit == unit_ms.len() {
                    unit_ms.push(Vec::new());
                }
                unit_ms[unit].push(g);
                unit += 1;
            }
            units += job.unit_count() as u64;
            report.failed += r.failures.len() as u64;
            if passes == 0 {
                first.push(r);
            } else {
                report.check(canonical(&r) == canonical(&first[j]), || {
                    format!("job {j} produced different records on pass {passes}")
                });
            }
        }
        let scale = reference::scale(&kernel_ms);
        for v in job_ms.iter_mut().chain(&mut unit_ms) {
            if let Some(last) = v.last_mut() {
                *last *= scale;
            }
        }
        scales.push(scale);
        pass_s.push(t_pass.elapsed().as_secs_f64());
        passes += 1;
    }
    report.attempted = units;
    let (q, audit) = audit(jobs, &first, &mut report);
    let job_med: Vec<f64> = job_ms.iter().map(|v| median(v)).collect();
    let unit_med: Vec<f64> = unit_ms.iter().map(|v| median(v)).collect();
    report.notes.push(format!(
        "{passes} passes of {} jobs / {} units, wall {:.2}-{:.2} s per pass (median {:.2}); \
         host-speed scale {:.3}-{:.3} (median {:.3}); each of {} units and {} jobs timed at \
         its median scaled pass; audit: {} of {} units failed",
        jobs.len(),
        units / passes as u64,
        percentile(&pass_s, 0.0),
        percentile(&pass_s, 100.0),
        median(&pass_s),
        percentile(&scales, 0.0),
        percentile(&scales, 100.0),
        median(&scales),
        unit_med.len(),
        jobs.len(),
        audit.audit_failures,
        q.attempted
    ));
    let pass_time_s = job_med.iter().sum::<f64>() / 1e3;
    report.set("loops_per_s", (units / passes as u64) as f64 / pass_time_s);
    report.set("jobs_per_s", jobs.len() as f64 / pass_time_s);
    report.set("unit_ms_p50", percentile(&unit_med, 50.0));
    report.set("unit_ms_p99", percentile(&unit_med, 99.0));
    report.set("job_ms_p50", percentile(&job_med, 50.0));
    report.set("job_ms_p99", percentile(&job_med, 99.0));
    report.set("valid_milli_ipc", q.valid_milli_ipc());
    report.set("valid_frac", q.valid_frac());
    Ok(report)
}

fn traced(
    args: &Args,
    w: &Workload,
    jobs: &[JobSpec],
    mut report: Report,
) -> Result<Report, String> {
    // One untraced pass: the outputs to check, and the engine's own view
    // of its pool and cache.
    let (mut wall, mut sched_us, mut hits, mut lookups) = (Duration::ZERO, 0u64, 0, 0);
    let mut results = Vec::new();
    for job in jobs {
        let t = Instant::now();
        let r = run_sweep(job, &w.opts, None);
        wall += t.elapsed();
        sched_us += r.records.iter().map(|r| r.sched_time_us).sum::<u64>();
        hits += r.stats.cache_hits;
        lookups += r.stats.cache_hits + r.stats.cache_misses;
        report.failed += r.failures.len() as u64;
        results.push(r);
    }
    report.set(
        "engine.worker_busy_frac",
        ratio(
            sched_us as f64 / 1e6,
            wall.as_secs_f64() * w.opts.workers as f64,
        ),
    );
    report.set("engine.cache.hit_frac", ratio(hits as f64, lookups as f64));
    let (q, untraced) = audit(jobs, &results, &mut report);
    report.attempted = q.attempted;

    let units = units(jobs, &results);
    let traced = traced_replays(jobs, &units, &untraced, &mut report);
    for (name, value) in [
        ("engine.diskcache.load.ms", 0.0),
        ("engine.diskcache.disk_hits", 0.0),
        ("serve.submit.ms_p50", 0.0),
        ("serve.submit.ms_p99", 0.0),
        ("serve.first_line.ms_p50", 0.0),
        ("serve.open.job_ms_p50", 0.0),
        ("serve.open.job_ms_p99", 0.0),
        ("serve.reject_frac", 0.0),
        ("serve.retained_mb_per_kjob", 0.0),
        ("loadgen.late.ms_p99", 0.0),
    ] {
        report.set(name, value);
    }
    let path = out_dir()?.join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
    traced
        .spans
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "traced pass over {} units; spans in {}",
        units.len(),
        path.display()
    ));
    Ok(report)
}

/// The traced part of a traced run: two traced replays of `units` (the
/// first is returned for its spans), the determinism checks, and the
/// per-layer metrics against the `untraced` audit replay.
pub fn traced_replays(
    jobs: &[JobSpec],
    units: &[(&JobSpec, &RunRecord)],
    untraced: &Replay,
    report: &mut Report,
) -> Replay {
    let traced = replay(units, true);
    let again = replay(units, true);
    // Untraced, traced, traced, untraced: warm-up and drift fall on both
    // sides of the overhead ratio.
    let untraced_again = replay(units, false);
    report.set(
        "trace.overhead_pct",
        100.0
            * ((traced.wall + again.wall).as_secs_f64()
                / (untraced.wall + untraced_again.wall).as_secs_f64()
                - 1.0),
    );
    determinism_checks(jobs, units, &traced, &again, report);
    layer_metrics(&traced, untraced, report);
    traced
}

/// The deterministic work counters must repeat exactly: per unit across
/// two traced replays, in total across replays on 1 and 2 threads, and in
/// total between the per-unit counts and a 1-worker engine sweep. A
/// 2-worker sweep races II attempts at its tail (`race_width`); the extra
/// attempts it counts are reported, not checked.
fn determinism_checks(
    jobs: &[JobSpec],
    units: &[(&JobSpec, &RunRecord)],
    a: &Replay,
    b: &Replay,
    report: &mut Report,
) {
    let diverged = a
        .counts
        .iter()
        .zip(&b.counts)
        .filter(|(x, y)| x.deterministic() != y.deterministic())
        .count();
    report.check(diverged == 0, || {
        format!("work counters of {diverged} units differ between two traced replays")
    });
    let one_thread = replay_counts(units, 1).deterministic();
    let two_threads = replay_counts(units, 2).deterministic();
    report.check(one_thread == two_threads, || {
        format!("work counters differ between 1 and 2 threads: {one_thread:?} vs {two_threads:?}")
    });
    let replayed = a.total_counts().deterministic();
    let serial = sweep_counts(jobs, 1);
    report.check(serial.deterministic() == replayed, || {
        format!(
            "sweep work counters {:?} differ from the replay's {replayed:?}",
            serial.deterministic()
        )
    });
    let parallel = sweep_counts(jobs, 2);
    report.set(
        "engine.race.extra_attempt_frac",
        ratio(
            parallel.ii_attempts as f64 - serial.ii_attempts as f64,
            serial.ii_attempts as f64,
        ),
    );
}

/// The per-layer metrics a replay gives: self time per layer, work per
/// unit, and the useful-outcome ratios.
fn layer_metrics(traced: &Replay, untraced: &Replay, report: &mut Report) {
    let own = traced.spans.self_ms();
    let t = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let c = traced.total_counts();
    let units = traced.verdicts.len().max(1) as f64;
    let per_unit = |v: u64| v as f64 / units;
    for (name, value) in [
        ("ddg.mii.ms", t("ddg.mii")),
        ("partition.ms", t("partition")),
        ("sched.modulo.ms", t("sched.modulo")),
        ("sched.fallback.ms", t("sched.fallback")),
        ("sched.list.ms", t("sched.list")),
        ("portfolio.rank.us", t("portfolio.rank") * 1e3),
        ("sim.replay.ms", t("sim.replay")),
        ("graph.bf.edges_scanned_per_unit", per_unit(c.edges_scanned)),
        (
            "partition.moves_evaluated_per_unit",
            per_unit(c.moves_evaluated),
        ),
        (
            "partition.screen_reject_ratio",
            ratio(c.screen_rejected as f64, c.moves_evaluated as f64),
        ),
        ("sched.ii_attempts_per_unit", per_unit(c.ii_attempts)),
        (
            "sched.ii_over_mii",
            ratio(traced.ii_sum as f64, traced.mii_sum as f64),
        ),
        ("sched.place_trials_per_unit", per_unit(c.place_trials)),
        (
            "sched.trial_rollbacks_per_unit",
            per_unit(c.trial_rollbacks),
        ),
        (
            "sched.trial_commit_ratio",
            ratio(
                c.place_trials.saturating_sub(c.trial_rollbacks) as f64,
                c.place_trials as f64,
            ),
        ),
        (
            "sched.spills_inserted_per_unit",
            per_unit(c.spills_inserted),
        ),
        (
            "sched.spill_yield",
            ratio(c.spills_inserted as f64, c.spill_spans as f64),
        ),
        (
            "sched.fallback_frac",
            ratio(traced.fallbacks as f64, traced.modulo_requested as f64),
        ),
        (
            "portfolio.prune_ratio",
            ratio(c.candidates_dropped as f64, traced.candidates as f64),
        ),
        ("sim.audit_failures", untraced.audit_failures as f64),
    ] {
        report.set(name, value);
    }
}
