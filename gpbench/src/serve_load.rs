//! The `serve-open` workload: an in-process `gpsched-serve` daemon (one
//! sweep worker) on a disk cache pre-filled with seeded entries.
//!
//! Two phases, each a fixed amount of work so that memory figures compare
//! across builds:
//!
//! * closed loop — one client submits a job and reads its results before
//!   submitting the next, [`CLOSED_JOBS`] jobs in all; this gives the
//!   daemon's capacity for one caller (`jobs_per_s`, `loops_per_s`), a
//!   job's round trip (`job_ms_*`) and the per-unit latency a client
//!   sees, the round trip divided by the job's units (`unit_ms_*`). One client, not two, because on a shared
//!   2-CPU host a second client made the figure swing with other
//!   tenants' load;
//! * open loop — for about [`OPEN_SHARE`] of `--seconds`, in blocks of
//!   [`OPEN_BLOCK_JOBS`] jobs, one generator thread submits jobs at the
//!   constant rate [`OFFERED_JOBS_PER_S`] whatever the daemon does, and
//!   one collector thread reads the results; each job is timed from its
//!   due time to its last result line (the per-layer `serve.open.job_ms_*`),
//!   and the generator's lateness is reported.
//!
//! The process runs pinned to one CPU (see [`crate::pin`]). Times are
//! scaled to nominal host speed (see [`crate::reference`]) with the
//! reference kernel timed while the daemon is idle: before each
//! closed-loop job, and between open-loop blocks.
//!
//! About half the jobs are fresh bodies (cache misses, disk appends), the
//! other half repeat an earlier or pre-filled body (memo or disk hits).
//! Every result line must equal the batch engine's line for the same body
//! after `canonical_json_line`.

use crate::batch::traced_replays;
use crate::check::{replay, units, Quality, Spans};
use crate::inputs::{parse_jobs, serve_body};
use crate::reference;
use crate::stats::{median, percentile, proc_status_mb, ratio, segmented_percentile, Rng};
use crate::{out_dir, Args, Report, SETUP_REPS};
use gpsched_engine::serve::{client, parse_job_body, serve, ServeOptions};
use gpsched_engine::{
    canonical_json_line, run_sweep, run_sweep_cached, DiskCache, JobSpec, SweepCache, SweepOptions,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered load of the open-loop phase, jobs per second. A constant, not
/// a share of measured capacity, so two builds face the same load.
pub const OFFERED_JOBS_PER_S: f64 = 100.0;
/// Jobs of the closed-loop phase.
pub const CLOSED_JOBS: usize = 3000;
/// Jobs per capacity segment of the closed loop.
const SEGMENT_JOBS: usize = 200;
/// Jobs per latency-percentile segment (p99 of one segment has ten
/// samples beyond it).
const STAT_SEGMENT: usize = 1000;
/// Sweep workers of the daemon.
pub const DAEMON_WORKERS: usize = 1;
/// Bodies whose seeds set-up writes to the disk cache.
pub const PREFILL: usize = 16;
/// Share of `--seconds` spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.7;
/// Jobs per open-loop block, and per latency-percentile segment of the
/// open loop (p99 has five samples beyond it).
const OPEN_BLOCK_JOBS: usize = 500;
/// Reference-kernel timings before and after each open-loop block.
const CALIBRATION_RUNS: usize = 64;

/// The seeded job stream: about half fresh bodies, half repeats of an
/// earlier (or pre-filled) body.
struct Plan {
    seed: u64,
    rng: Rng,
    bodies: Vec<String>,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        Plan {
            seed,
            rng: Rng::new(seed, 4),
            bodies: (0..PREFILL).map(|i| serve_body(seed, i)).collect(),
        }
    }

    /// The next job: `(body index, body)`.
    fn next(&mut self) -> (usize, String) {
        let i = if self.rng.next() & 1 == 0 {
            self.bodies.push(serve_body(self.seed, self.bodies.len()));
            self.bodies.len() - 1
        } else {
            self.rng.below(self.bodies.len())
        };
        (i, self.bodies[i].clone())
    }
}

/// One submitted job as the client saw it.
struct JobRun {
    body: usize,
    /// Open loop: when the job was due to be sent.
    due: Option<Instant>,
    sent: Instant,
    accepted: Instant,
    /// Result lines with their arrival times.
    lines: Vec<(Instant, String)>,
    /// Reference-kernel time in ms next to the job.
    kernel_ms: f64,
}

/// Outcome of one phase.
#[derive(Default)]
struct Phase {
    jobs: Vec<JobRun>,
    rejected: u64,
    errors: Vec<String>,
    late_ms: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Streams `GET /jobs/<id>/results`, timestamping each line as it
/// arrives (`client::results` buffers the whole body, which would hide
/// the first-line time).
fn stream_results(addr: &str, id: u64) -> Result<Vec<(Instant, String)>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write!(
        stream,
        "GET /jobs/{id}/results HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    if !line.starts_with("HTTP/1.1 200") {
        return Err(format!("results for job {id}: {}", line.trim()));
    }
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 || line == "\r\n" {
            break;
        }
    }
    let mut lines = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Ok(lines);
        }
        lines.push((Instant::now(), line.trim_end().to_string()));
    }
}

/// Submits one body; `Ok(None)` when the daemon refused it with 503.
fn submit(addr: &str, body: &str) -> Result<Option<(u64, Instant, Instant)>, String> {
    let sent = Instant::now();
    match client::submit(addr, body) {
        Ok(id) => Ok(Some((id, sent, Instant::now()))),
        Err(e) if e.contains("(503)") => Ok(None),
        Err(e) => Err(e),
    }
}

fn closed_loop(addr: &str, plan: &Mutex<Plan>) -> (Phase, Duration) {
    let start = Instant::now();
    let mut phase = Phase::default();
    for _ in 0..CLOSED_JOBS {
        let (body, text) = plan.lock().expect("plan").next();
        let kernel_ms = reference::time_kernel();
        match submit(addr, &text) {
            Ok(Some((id, sent, accepted))) => match stream_results(addr, id) {
                Ok(lines) => phase.jobs.push(JobRun {
                    body,
                    due: None,
                    sent,
                    accepted,
                    lines,
                    kernel_ms,
                }),
                Err(e) => phase.errors.push(e),
            },
            Ok(None) => phase.rejected += 1,
            Err(e) => phase.errors.push(e),
        }
    }
    (phase, start.elapsed())
}

/// `blocks` open-loop blocks, the daemon idle between them; each block's
/// jobs carry the median kernel time of the calibrations around it.
fn open_loop(addr: &str, plan: &Mutex<Plan>, blocks: usize) -> Phase {
    let calibrate = || -> Vec<f64> {
        (0..CALIBRATION_RUNS)
            .map(|_| reference::time_kernel())
            .collect()
    };
    let mut before = calibrate();
    let mut phase = Phase::default();
    for _ in 0..blocks {
        let mut block = open_block(addr, plan);
        let after = calibrate();
        let kernel_ms = median(&[before.as_slice(), &after].concat());
        for job in &mut block.jobs {
            job.kernel_ms = kernel_ms;
        }
        phase.jobs.append(&mut block.jobs);
        phase.rejected += block.rejected;
        phase.errors.append(&mut block.errors);
        phase.late_ms.append(&mut block.late_ms);
        before = after;
    }
    phase
}

/// One open-loop block of [`OPEN_BLOCK_JOBS`] jobs at the offered rate.
fn open_block(addr: &str, plan: &Mutex<Plan>) -> Phase {
    let (tx, rx) = mpsc::channel::<(usize, Instant, u64, Instant, Instant)>();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut jobs = Vec::new();
            let mut errors = Vec::new();
            for (body, due, id, sent, accepted) in rx {
                match stream_results(addr, id) {
                    Ok(lines) => jobs.push(JobRun {
                        body,
                        due: Some(due),
                        sent,
                        accepted,
                        lines,
                        kernel_ms: 0.0,
                    }),
                    Err(e) => errors.push(e),
                }
            }
            (jobs, errors)
        });
        let mut phase = Phase::default();
        let start = Instant::now();
        for i in 0..OPEN_BLOCK_JOBS {
            let due = start + Duration::from_secs_f64(i as f64 / OFFERED_JOBS_PER_S);
            let (body, text) = plan.lock().expect("plan").next();
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            phase.late_ms.push(ms(Instant::now() - due));
            match submit(addr, &text) {
                Ok(Some((id, sent, accepted))) => {
                    let _ = tx.send((body, due, id, sent, accepted));
                }
                Ok(None) => phase.rejected += 1,
                Err(e) => phase.errors.push(e),
            }
        }
        drop(tx);
        let (jobs, errors) = collector.join().expect("collector thread");
        phase.jobs = jobs;
        phase.errors.extend(errors);
        phase
    })
}

/// Each job's host-speed scale: that of the kernel times of its
/// [`SEGMENT_JOBS`]-job segment.
fn job_scales(jobs: &[JobRun]) -> Vec<f64> {
    jobs.chunks(SEGMENT_JOBS)
        .flat_map(|c| {
            let kernel: Vec<f64> = c.iter().map(|j| j.kernel_ms).collect();
            std::iter::repeat_n(reference::scale(&kernel), c.len())
        })
        .collect()
}

/// A job's round trip, submit to last result line, in ms (0 without lines).
fn round_trip_ms(job: &JobRun) -> f64 {
    job.lines.last().map_or(0.0, |l| ms(l.0 - job.sent))
}

/// Closed-loop rates (jobs/s) of consecutive [`SEGMENT_JOBS`]-job
/// segments: jobs over their summed scaled round trips, so the client's
/// own time between jobs is not counted.
fn segment_rates(jobs: &[JobRun], scales: &[f64]) -> Vec<f64> {
    jobs.chunks_exact(SEGMENT_JOBS)
        .zip(scales.chunks_exact(SEGMENT_JOBS))
        .map(|(c, s)| {
            let busy_ms: f64 = c.iter().zip(s).map(|(j, s)| round_trip_ms(j) * s).sum();
            SEGMENT_JOBS as f64 / (busy_ms / 1e3)
        })
        .collect()
}

/// `"key":<integer>` from a flat JSON object; 0 when absent.
fn json_u64(text: &str, key: &str) -> u64 {
    text.split(&format!("\"{key}\":"))
        .nth(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|d| d.parse().ok())
        .unwrap_or(0)
}

/// Writes the pre-filled disk cache: the seeds of the first [`PREFILL`]
/// bodies.
fn prefill(path: &Path, plan: &Plan) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let disk = DiskCache::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let cache = SweepCache::with_disk(Arc::new(disk));
    for body in &plan.bodies {
        run_sweep_cached(
            &parse_job_body(body)?,
            &SweepOptions::serial(),
            None,
            &cache,
        );
    }
    Ok(())
}

/// Runs the serve-open workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let plan = Plan::new(args.seed);
    report.check(
        Plan::new(args.seed).bodies == plan.bodies
            && Plan::new(args.seed.wrapping_add(1)).bodies != plan.bodies,
        || "serve-open inputs are not a function of the seed".into(),
    );
    let cache_path = out_dir()?.join(format!("serve-{}.cache", std::process::id()));
    prefill(&cache_path, &plan)?;
    let outcome = measure(args, plan, &cache_path, &mut report);
    let _ = std::fs::remove_file(&cache_path);
    outcome.map(|()| report)
}

fn measure(args: &Args, plan: Plan, cache_path: &Path, report: &mut Report) -> Result<(), String> {
    // Disk-cache load on its own, then the whole set-up: parse the
    // pre-filled bodies, start the daemon on the cache, wait until it
    // answers. The last daemon started serves the run.
    let mut load_ms = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let disk = DiskCache::open(cache_path).map_err(|e| e.to_string())?;
        load_ms.push(ms(t.elapsed()));
        report.check(!disk.is_empty(), || "pre-filled disk cache is empty".into());
    }
    let (mut setup_s, mut parse_ms, mut kernel_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..SETUP_REPS {
        kernel_ms.push(reference::time_kernel());
        drop(server.take());
        let t = Instant::now();
        parse_jobs(&plan.bodies)?;
        parse_ms.push(ms(t.elapsed()));
        let s = serve(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: DAEMON_WORKERS,
            cache_path: Some(cache_path.to_path_buf()),
            ..ServeOptions::default()
        })
        .map_err(|e| format!("start daemon: {e}"))?;
        client::health(&s.addr().to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("daemon started");
    let addr = server.addr().to_string();
    report.set("setup_s", median(&setup_s) * reference::scale(&kernel_ms));
    report.set("engine.text.parse.ms", median(&parse_ms));
    report.set("engine.diskcache.load.ms", median(&load_ms));

    let mut spans = Spans::new();
    let plan = Mutex::new(plan);
    let (closed, closed_wall) = closed_loop(&addr, &plan);
    let rss_before = proc_status_mb("VmRSS");
    let blocks = (args.seconds.as_secs_f64() * OPEN_SHARE * OFFERED_JOBS_PER_S
        / OPEN_BLOCK_JOBS as f64)
        .round()
        .max(1.0) as usize;
    let open = open_loop(&addr, &plan, blocks);
    let rss_after = proc_status_mb("VmRSS");
    let health = client::health(&addr)?;
    drop(server);

    // Capacity, job and per-unit latency from the closed loop, scaled to
    // nominal host speed; capacity is the median of its segments.
    let closed_units: usize = closed.jobs.iter().map(|j| j.lines.len()).sum();
    let wall = closed_wall.as_secs_f64();
    let closed_scales = job_scales(&closed.jobs);
    let jobs_per_s = median(&segment_rates(&closed.jobs, &closed_scales));
    let (round_trips, gaps): (Vec<f64>, Vec<f64>) = closed
        .jobs
        .iter()
        .zip(&closed_scales)
        .filter(|(j, _)| !j.lines.is_empty())
        .map(|(j, s)| {
            let rt = round_trip_ms(j) * s;
            (rt, rt / j.lines.len() as f64)
        })
        .unzip();
    report.set("jobs_per_s", jobs_per_s);
    report.set(
        "loops_per_s",
        jobs_per_s * closed_units as f64 / closed.jobs.len().max(1) as f64,
    );
    for (name, samples, q) in [
        ("unit_ms_p50", &gaps, 50.0),
        ("unit_ms_p99", &gaps, 99.0),
        ("job_ms_p50", &round_trips, 50.0),
        ("job_ms_p99", &round_trips, 99.0),
    ] {
        report.set(name, segmented_percentile(samples, STAT_SEGMENT, q));
    }
    // Latency at the offered rate from the open loop, from each job's due
    // time to its last line, scaled to nominal host speed. A per-layer
    // figure: between runs of one build it spread 20-50% (wake-ups of an
    // idle vCPU, not program speed), past any bound worth setting.
    let open_scales = job_scales(&open.jobs);
    let open_ms: Vec<f64> = open
        .jobs
        .iter()
        .zip(&open_scales)
        .filter_map(|(j, s)| Some(ms(j.lines.last()?.0 - j.due?) * s))
        .collect();

    let all: Vec<&JobRun> = closed.jobs.iter().chain(&open.jobs).collect();
    let rejected = closed.rejected + open.rejected;
    let errors = closed.errors.len() + open.errors.len();
    report.attempted = (all.len() + errors) as u64 + rejected;
    report.failed = rejected + errors as u64;
    for e in closed.errors.iter().chain(&open.errors).take(5) {
        report.problems.push(format!("daemon request failed: {e}"));
    }

    // Output check: every daemon line equals the batch line for its body.
    let distinct: Vec<usize> = {
        let mut v: Vec<usize> = all.iter().map(|j| j.body).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let bodies = plan.into_inner().expect("plan").bodies;
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut reference: BTreeMap<usize, (usize, Vec<String>)> = BTreeMap::new();
    let mut results = Vec::new();
    for &b in &distinct {
        let job = parse_job_body(&bodies[b])?;
        let mut sink = Vec::new();
        let r = run_sweep(&job, &SweepOptions::serial(), Some(&mut sink));
        let lines = String::from_utf8_lossy(&sink)
            .lines()
            .map(canonical_json_line)
            .collect();
        reference.insert(b, (jobs.len(), lines));
        jobs.push(job);
        results.push(r);
    }
    let mismatched = all
        .iter()
        .filter(|j| {
            let got: Vec<String> = j.lines.iter().map(|l| canonical_json_line(&l.1)).collect();
            got != reference[&j.body].1
        })
        .count();
    report.check(mismatched == 0, || {
        format!("{mismatched} daemon jobs returned lines that differ from the batch engine's")
    });

    // Audit each distinct body's schedules once; a job earns its body's
    // valid work, a refused job counts its units as invalid.
    let audit_units = units(&jobs, &results);
    let audit = replay(&audit_units, false);
    report.problems.extend(audit.problems.iter().cloned());
    let mut per_body: Vec<Quality> = vec![Quality::default(); jobs.len()];
    let mut k = 0;
    for (j, r) in results.iter().enumerate() {
        for _ in &r.records {
            per_body[j].add(&audit.verdicts[k]);
            k += 1;
        }
        per_body[j].attempted += r.failures.len() as u64;
    }
    let mut q = Quality::default();
    for job in &all {
        q.merge(&per_body[reference[&job.body].0]);
    }
    let per_job_units = jobs.first().map_or(0, JobSpec::unit_count) as u64;
    q.attempted += (rejected + errors as u64) * per_job_units;
    report.set("valid_milli_ipc", q.valid_milli_ipc());
    report.set("valid_frac", q.valid_frac());
    report.notes.push(format!(
        "closed loop: {} jobs / {closed_units} units in {wall:.2} s, unit_ms over {} jobs, \
         host-speed scale median {:.3}; open loop at {OFFERED_JOBS_PER_S} jobs/s: {} jobs \
         timed, {rejected} refused, scale median {:.3}; {} distinct bodies audited, {} of {} \
         units failed",
        closed.jobs.len(),
        gaps.len(),
        median(&closed_scales),
        open_ms.len(),
        median(&open_scales),
        distinct.len(),
        audit.audit_failures,
        audit.verdicts.len()
    ));

    if args.trace {
        let submit_ms: Vec<f64> = all.iter().map(|j| ms(j.accepted - j.sent)).collect();
        let first_ms: Vec<f64> = all
            .iter()
            .filter_map(|j| Some(ms(j.lines.first()?.0 - j.accepted)))
            .collect();
        let busy_us: u64 = closed
            .jobs
            .iter()
            .flat_map(|j| &j.lines)
            .map(|l| json_u64(&l.1, "sched_time_us"))
            .sum();
        let (hits, misses) = (
            json_u64(&health, "cache_hits"),
            json_u64(&health, "cache_misses"),
        );
        let open_jobs = open.jobs.len().max(1) as f64;
        for (name, value) in [
            ("serve.submit.ms_p50", percentile(&submit_ms, 50.0)),
            ("serve.submit.ms_p99", percentile(&submit_ms, 99.0)),
            ("serve.first_line.ms_p50", percentile(&first_ms, 50.0)),
            (
                "serve.open.job_ms_p50",
                segmented_percentile(&open_ms, OPEN_BLOCK_JOBS, 50.0),
            ),
            (
                "serve.open.job_ms_p99",
                segmented_percentile(&open_ms, OPEN_BLOCK_JOBS, 99.0),
            ),
            (
                "serve.reject_frac",
                ratio(rejected as f64, report.attempted as f64),
            ),
            (
                "serve.retained_mb_per_kjob",
                (rss_after - rss_before) / open_jobs * 1000.0,
            ),
            ("loadgen.late.ms_p99", percentile(&open.late_ms, 99.0)),
            (
                "engine.worker_busy_frac",
                ratio(busy_us as f64 / 1e6, wall * DAEMON_WORKERS as f64),
            ),
            (
                "engine.cache.hit_frac",
                ratio(hits as f64, (hits + misses) as f64),
            ),
            (
                "engine.diskcache.disk_hits",
                json_u64(&health, "disk_hits") as f64,
            ),
        ] {
            report.set(name, value);
        }
        let traced = traced_replays(&jobs, &audit_units, &audit, report);

        for (i, j) in all.iter().enumerate() {
            let (Some(first), Some(last)) = (j.lines.first(), j.lines.last()) else {
                continue;
            };
            let [start, sent, accepted, first, last] =
                [j.due.unwrap_or(j.sent), j.sent, j.accepted, first.0, last.0]
                    .map(|t| spans.offset(t));
            let root = spans.record("serve.job", start, last, None, i as u64);
            spans.record("serve.submit", sent, accepted, Some(root), i as u64);
            spans.record("serve.first_line", accepted, first, Some(root), i as u64);
            spans.record("serve.last_line", first, last, Some(root), i as u64);
        }
        let dir = out_dir()?;
        for (tag, set) in [("serve", &spans), ("replay", &traced.spans)] {
            let path = dir.join(format!("serve-open-seed{}-{tag}-spans.jsonl", args.seed));
            set.write_jsonl(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    } else {
        report.notes.push(format!(
            "job_ms over {} closed-loop jobs; generator late p99 {:.3} ms",
            round_trips.len(),
            percentile(&open.late_ms, 99.0)
        ));
    }
    Ok(())
}
