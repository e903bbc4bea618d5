//! The output check and the per-layer replay.
//!
//! Every unit the program reported is scheduled again from outside,
//! layer by layer — `ddg::mii::mii` → `partition::partition_ddg` →
//! (portfolio units: `extract_features` + `rank`) →
//! `sched::schedule_loop_spec_seeded` → `sim::simulate` — with a span
//! around each call. The replayed unit must equal the program's record
//! field for field, and its schedule must pass the audit: MaxLive within
//! every register file, a clean simulator replay, and simulated cycles
//! equal to the closed form `(trips − 1)·II + SL`.
//!
//! A unit whose schedule fails the audit keeps its cycles but earns no
//! useful work in `valid_milli_ipc`. A replay that disagrees with the
//! record, or a simulator verdict other than register overflow, is a
//! correctness problem of the benchmark run, not a quality figure.

use gpsched_ddg::mii::mii;
use gpsched_engine::{run_sweep, JobSpec, RunRecord, SweepOptions};
use gpsched_partition::partition_ddg;
use gpsched_sched::portfolio::{extract_features, rank};
use gpsched_sched::{schedule_loop_spec_seeded, SchedSeed, ScheduledWith};
use gpsched_sim::{simulate, SimError};
use gpsched_trace::{Trace, TraceSession};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Trip count the simulator replays (the conformance audit's clamp).
const AUDIT_TRIPS: u64 = 40;

/// One span recorded by the benchmark: a call into one layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Offset of the start from the span set's origin.
    pub start: Duration,
    /// Offset of the end (equal to `start` while open).
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Unit (or job) the span belongs to.
    pub unit: u64,
}

/// In-memory span store, written out once at the end of a traced run.
pub struct Spans {
    origin: Instant,
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty store whose offsets count from now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; returns its index for [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, unit: u64) -> usize {
        let at = self.origin.elapsed();
        self.record(name, at, at, parent, unit)
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Records a span whose times were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
        unit: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    /// Offset of `t` from the origin (0 for instants before it).
    pub fn offset(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.origin)
    }

    /// Self time per span name in ms: each span's duration minus the
    /// durations of its children.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| s.end.saturating_sub(s.start).as_secs_f64() * 1e3)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end.saturating_sub(s.start).as_secs_f64() * 1e3;
            }
        }
        let mut out = BTreeMap::new();
        for (s, ms) in self.spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += ms.max(0.0);
        }
        out
    }

    /// Writes one JSON object per span: name, start/end in µs, parent
    /// index and unit id.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.unit
            )?;
        }
        out.flush()
    }
}

/// The program's own work counters for one unit, read from a trace
/// session around its replay. The first six are deterministic and must
/// repeat exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// `graph.bf.edges_scanned`.
    pub edges_scanned: u64,
    /// `sched.place_trials`.
    pub place_trials: u64,
    /// `sched.trial_rollbacks`.
    pub trial_rollbacks: u64,
    /// `sched.spills_inserted`.
    pub spills_inserted: u64,
    /// `partition.moves_evaluated`.
    pub moves_evaluated: u64,
    /// `sched.ii_attempt` spans.
    pub ii_attempts: u64,
    /// `partition.screen_rejected`.
    pub screen_rejected: u64,
    /// `sched.spill` spans.
    pub spill_spans: u64,
    /// `portfolio.candidates_pruned` + `portfolio.candidates_cut_off`.
    pub candidates_dropped: u64,
}

impl WorkCounts {
    fn from_trace(t: &Trace) -> WorkCounts {
        let spans = |name: &str| t.spans.iter().filter(|s| s.name == name).count() as u64;
        WorkCounts {
            edges_scanned: t.counter("graph.bf.edges_scanned"),
            place_trials: t.counter("sched.place_trials"),
            trial_rollbacks: t.counter("sched.trial_rollbacks"),
            spills_inserted: t.counter("sched.spills_inserted"),
            moves_evaluated: t.counter("partition.moves_evaluated"),
            ii_attempts: spans("sched.ii_attempt"),
            screen_rejected: t.counter("partition.screen_rejected"),
            spill_spans: spans("sched.spill"),
            candidates_dropped: t.counter("portfolio.candidates_pruned")
                + t.counter("portfolio.candidates_cut_off"),
        }
    }

    /// The deterministic part, for repeat checks.
    pub fn deterministic(&self) -> [u64; 6] {
        [
            self.edges_scanned,
            self.place_trials,
            self.trial_rollbacks,
            self.spills_inserted,
            self.moves_evaluated,
            self.ii_attempts,
        ]
    }

    fn add(&mut self, o: &WorkCounts) {
        self.edges_scanned += o.edges_scanned;
        self.place_trials += o.place_trials;
        self.trial_rollbacks += o.trial_rollbacks;
        self.spills_inserted += o.spills_inserted;
        self.moves_evaluated += o.moves_evaluated;
        self.ii_attempts += o.ii_attempts;
        self.screen_rejected += o.screen_rejected;
        self.spill_spans += o.spill_spans;
        self.candidates_dropped += o.candidates_dropped;
    }
}

/// The audit verdict of one unit.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// Useful work `ops · trips` (earned only if `valid`).
    pub useful: u128,
    /// Cycles at the loop's trip count.
    pub cycles: u128,
    /// Whether the schedule passed every audit check.
    pub valid: bool,
}

/// Schedule-quality totals over audited units.
#[derive(Clone, Debug, Default)]
pub struct Quality {
    /// Units attempted (including units that produced no schedule).
    pub attempted: u64,
    /// Units whose schedule passed the audit.
    pub valid: u64,
    /// Useful work of valid units.
    pub useful: u128,
    /// Cycles of every scheduled unit.
    pub cycles: u128,
}

impl Quality {
    /// Adds one unit's verdict.
    pub fn add(&mut self, v: &Verdict) {
        self.attempted += 1;
        self.cycles += v.cycles;
        if v.valid {
            self.valid += 1;
            self.useful += v.useful;
        }
    }

    /// Adds another set's totals.
    pub fn merge(&mut self, o: &Quality) {
        self.attempted += o.attempted;
        self.valid += o.valid;
        self.useful += o.useful;
        self.cycles += o.cycles;
    }

    /// Aggregate IPC ×1000 where invalid schedules earn nothing.
    pub fn valid_milli_ipc(&self) -> f64 {
        crate::stats::ratio(1000.0 * self.useful as f64, self.cycles as f64)
    }

    /// Share of attempted units with a valid schedule.
    pub fn valid_frac(&self) -> f64 {
        crate::stats::ratio(self.valid as f64, self.attempted as f64)
    }
}

/// Everything one replay pass over a set of units produced.
pub struct Replay {
    /// Verdict per unit, in input order.
    pub verdicts: Vec<Verdict>,
    /// Work counters per unit (traced passes only).
    pub counts: Vec<WorkCounts>,
    /// Replays that disagreed with their record, or audits that failed
    /// for another reason than register overflow.
    pub problems: Vec<String>,
    /// Units whose schedule failed the audit.
    pub audit_failures: u64,
    /// Layer spans.
    pub spans: Spans,
    /// Wall time of the pass.
    pub wall: Duration,
    /// Σ II and Σ MII over modulo-scheduled units.
    pub ii_sum: i64,
    /// See `ii_sum`.
    pub mii_sum: i64,
    /// Units that asked for a modulo (non-List) schedule.
    pub modulo_requested: u64,
    /// Of those, units that fell back to list scheduling.
    pub fallbacks: u64,
    /// Portfolio candidates ranked for racing.
    pub candidates: u64,
}

impl Replay {
    /// Sum of the per-unit work counters.
    pub fn total_counts(&self) -> WorkCounts {
        let mut t = WorkCounts::default();
        for c in &self.counts {
            t.add(c);
        }
        t
    }
}

/// Every `(job, record)` pair of a set of sweep results, in job order.
pub fn units<'a>(
    jobs: &'a [JobSpec],
    results: &'a [gpsched_engine::SweepResult],
) -> Vec<(&'a JobSpec, &'a RunRecord)> {
    jobs.iter()
        .zip(results)
        .flat_map(|(job, r)| r.records.iter().map(move |rec| (job, rec)))
        .collect()
}

/// Replays and audits every `(job, record)` unit. With `traced`, each
/// unit runs inside its own trace session so its work counters are
/// attributed exactly.
pub fn replay(units: &[(&JobSpec, &RunRecord)], traced: bool) -> Replay {
    let mut out = Replay {
        verdicts: Vec::with_capacity(units.len()),
        counts: Vec::new(),
        problems: Vec::new(),
        audit_failures: 0,
        spans: Spans::new(),
        wall: Duration::ZERO,
        ii_sum: 0,
        mii_sum: 0,
        modulo_requested: 0,
        fallbacks: 0,
        candidates: 0,
    };
    let t0 = Instant::now();
    for (uid, (job, rec)) in units.iter().enumerate() {
        let mut counts = traced.then(WorkCounts::default);
        let verdict = replay_unit(job, rec, uid as u64, &mut counts, &mut out);
        out.counts.extend(counts);
        out.verdicts.push(verdict);
    }
    out.wall = t0.elapsed();
    out
}

/// Opens a trace session when counting.
fn start(counts: &Option<WorkCounts>) -> Option<TraceSession> {
    counts.is_some().then(TraceSession::start)
}

/// Adds a finished session's counters to `counts`.
fn finish(
    session: Option<TraceSession>,
    counts: &mut Option<WorkCounts>,
    problems: &mut Vec<String>,
) {
    if let (Some(s), Some(c)) = (session, counts.as_mut()) {
        let trace = s.finish();
        if trace.dropped > 0 {
            problems.push(format!("trace dropped {} spans", trace.dropped));
        }
        c.add(&WorkCounts::from_trace(&trace));
    }
}

fn replay_unit(
    job: &JobSpec,
    rec: &RunRecord,
    uid: u64,
    counts: &mut Option<WorkCounts>,
    out: &mut Replay,
) -> Verdict {
    let (li, mi, ai) = job.unit(rec.unit);
    let (ddg, machine, spec) = (&job.loops[li].ddg, &job.machines[mi], job.algorithms[ai]);
    let mut session = start(counts);
    let spans = &mut out.spans;
    let root = spans.begin("unit", None, uid);

    let s = spans.begin("ddg.mii", Some(root), uid);
    let start_ii = mii(ddg, machine);
    spans.end(s);
    // The engine's seed: a partition for every clustered machine.
    let partition = (machine.cluster_count() > 1).then(|| {
        let s = spans.begin("partition", Some(root), uid);
        let p = partition_ddg(ddg, machine, start_ii, &job.popts);
        spans.end(s);
        p
    });
    if spec.is_portfolio() {
        // The race ranks again inside the scheduler; this extra ranking is
        // timed but kept out of the unit's work counters.
        finish(session, counts, &mut out.problems);
        let s = spans.begin("portfolio.rank", Some(root), uid);
        let ranked = rank(&extract_features(
            ddg,
            machine,
            partition.as_ref(),
            start_ii,
        ));
        spans.end(s);
        out.candidates += ranked.len().min(spec.portfolio_k().max(1)) as u64;
        session = start(counts);
    }
    let seed = SchedSeed {
        start_ii,
        partition,
    };
    let s = spans.begin("sched.modulo", Some(root), uid);
    let result = schedule_loop_spec_seeded(ddg, machine, spec, &job.popts, &job.cfg, &seed);
    spans.end(s);
    finish(session, counts, &mut out.problems);
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            spans.end(root);
            out.problems
                .push(format!("{}: replay failed: {e}", unit_name(rec)));
            out.audit_failures += 1;
            return Verdict {
                useful: 0,
                cycles: rec.cycles as u128,
                valid: false,
            };
        }
    };
    spans.spans[s].name = match r.method {
        ScheduledWith::Modulo { .. } => "sched.modulo",
        ScheduledWith::ListFallback => "sched.fallback",
        ScheduledWith::List => "sched.list",
    };
    if !spec.is_list() {
        out.modulo_requested += 1;
    }
    let repartitions = match r.method {
        ScheduledWith::Modulo { repartitions } => {
            out.ii_sum += r.schedule.ii();
            out.mii_sum += start_ii;
            repartitions
        }
        ScheduledWith::ListFallback => {
            out.fallbacks += 1;
            0
        }
        ScheduledWith::List => 0,
    };
    let replayed = RunRecord {
        unit: rec.unit,
        group: rec.group.clone(),
        loop_name: r.name.clone(),
        machine: machine.short_name(),
        algorithm: spec.name(),
        ii: r.schedule.ii(),
        length: r.schedule.length(),
        ops: r.ops,
        trips: r.trips,
        cycles: r.cycles(),
        ipc: r.ipc(),
        list_fallback: matches!(r.method, ScheduledWith::ListFallback),
        repartitions,
        cache_hit: rec.cache_hit,
        sched_time_us: rec.sched_time_us,
    };
    if replayed.canonical_fields() != rec.canonical_fields() {
        out.problems.push(format!(
            "{}: replay differs from the record:\n  record: {}\n  replay: {}",
            unit_name(rec),
            rec.canonical_fields(),
            replayed.canonical_fields()
        ));
    }

    let s = spans.begin("sim.replay", Some(root), uid);
    let sched = &r.schedule;
    let overflow = sched
        .max_live()
        .iter()
        .enumerate()
        .any(|(c, &live)| live > machine.cluster(c).registers as i64);
    let trips = ddg.trip_count().clamp(1, AUDIT_TRIPS);
    let sim = simulate(ddg, machine, sched, trips);
    spans.end(s);
    spans.end(root);
    let valid = match sim {
        Ok(report) if report.cycles == sched.cycles(trips) => !overflow,
        Ok(report) => {
            out.problems.push(format!(
                "{}: simulated {} cycles, closed form {}",
                unit_name(rec),
                report.cycles,
                sched.cycles(trips)
            ));
            false
        }
        Err(SimError::RegisterOverflow { .. }) => false,
        Err(e) => {
            out.problems
                .push(format!("{}: simulator audit: {e}", unit_name(rec)));
            false
        }
    };
    if !valid {
        out.audit_failures += 1;
    }
    Verdict {
        useful: (r.ops as u128) * (r.trips as u128),
        cycles: rec.cycles as u128,
        valid,
    }
}

/// A job whose only unit is a deliberately register-overflowing schedule:
/// a wide loop list-scheduled on 4-register clusters, where the list
/// scheduler keeps its honest, overflowing MaxLive. The audit must fail
/// it, which shows the check can fail.
pub fn overflow_body() -> String {
    let profile = gpsched_workloads::preset("wide-ilp").expect("bundled preset");
    let ddg = gpsched_workloads::synth::synthesize("overflow", &profile, 1);
    format!(
        "machines c4r16b1l1\nalgos list\n{}",
        gpsched_engine::serialize_ddg(&ddg)
    )
}

/// Whether the audit fails the [`overflow_body`] unit and gives it no
/// useful work in `valid_milli_ipc`.
pub fn audit_rejects_overflow() -> Result<bool, String> {
    let job = gpsched_engine::serve::parse_job_body(&overflow_body())?;
    let r = run_sweep(&job, &SweepOptions::serial(), None);
    let audit = replay(
        &units(std::slice::from_ref(&job), std::slice::from_ref(&r)),
        false,
    );
    let mut q = Quality::default();
    audit.verdicts.iter().for_each(|v| q.add(v));
    Ok(audit.problems.is_empty() && q.attempted > 0 && q.valid == 0 && q.valid_milli_ipc() == 0.0)
}

fn unit_name(rec: &RunRecord) -> String {
    format!("{}@{}/{}", rec.loop_name, rec.machine, rec.algorithm)
}

/// Runs the units of `jobs` with the memo cache off, under one trace
/// session, and returns the work counter totals. One sweep per distinct
/// machine list and algorithm list, not one per job: a traced sweep
/// snapshots the whole session on exit, which would make many small
/// sweeps quadratic. The jobs of a workload share their options.
pub fn sweep_counts(jobs: &[JobSpec], workers: usize) -> WorkCounts {
    let key = |j: &JobSpec| {
        let machines: Vec<String> = j.machines.iter().map(|m| m.short_name()).collect();
        format!("{machines:?} {:?}", j.algorithms)
    };
    let mut groups: Vec<(String, JobSpec)> = Vec::new();
    for job in jobs {
        let k = key(job);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, group)) => group.loops.extend(job.loops.iter().cloned()),
            None => groups.push((k, job.clone())),
        }
    }
    let session = TraceSession::start();
    let opts = SweepOptions {
        workers,
        use_cache: false,
        progress: false,
    };
    for (_, group) in &groups {
        run_sweep(group, &opts, None);
    }
    WorkCounts::from_trace(&session.finish())
}

/// Replays `units` split over `threads` threads under one trace session
/// and returns the work counter totals.
pub fn replay_counts(units: &[(&JobSpec, &RunRecord)], threads: usize) -> WorkCounts {
    let session = TraceSession::start();
    let chunk = units.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for part in units.chunks(chunk) {
            s.spawn(move || replay(part, false));
        }
    });
    WorkCounts::from_trace(&session.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_register_overflowing_schedule_fails_and_earns_nothing() {
        assert!(audit_rejects_overflow().unwrap());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        let ms = Duration::from_millis;
        let root = s.record("unit", ms(0), ms(10), None, 0);
        s.record("a", ms(1), ms(4), Some(root), 0);
        s.record("b", ms(4), ms(9), Some(root), 0);
        let own = s.self_ms();
        assert!((own["unit"] - 2.0).abs() < 1e-9);
        assert!((own["a"] - 3.0).abs() < 1e-9);
        assert!((own["b"] - 5.0).abs() < 1e-9);
    }
}
