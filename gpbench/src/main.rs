//! `gpbench` — the gpsched benchmark.
//!
//! ```text
//! gpbench --workload <paper-serial|synth-par|serve-open> --seed <n>
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from `--seed`, measures for about
//! `--seconds` seconds, checks every schedule the program emitted (see
//! [`check`]), prints each metric by name with its unit, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]); with
//! `--trace 1` a separate, untimed pass reports the per-layer set
//! ([`PER_LAYER`]) and writes its spans to `.bench_out/`. `METRICS.md`
//! next to this package documents every workload and metric.

mod batch;
mod check;
mod inputs;
mod pin;
mod reference;
mod serve_load;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("loops_per_s", "units/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p99", "ms"),
    ("valid_milli_ipc", "milli-IPC"),
    ("valid_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "jobs/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p99", "ms"),
];

/// Per-layer metrics of the traced pass: `(name, unit)`. A metric whose
/// layer a workload never reaches reads 0 there.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("ddg.mii.ms", "ms"),
    ("graph.bf.edges_scanned_per_unit", "count"),
    ("partition.ms", "ms"),
    ("partition.moves_evaluated_per_unit", "count"),
    ("partition.screen_reject_ratio", "ratio"),
    ("sched.modulo.ms", "ms"),
    ("sched.ii_attempts_per_unit", "count"),
    ("sched.ii_over_mii", "ratio"),
    ("sched.place_trials_per_unit", "count"),
    ("sched.trial_rollbacks_per_unit", "count"),
    ("sched.trial_commit_ratio", "ratio"),
    ("sched.spills_inserted_per_unit", "count"),
    ("sched.spill_yield", "ratio"),
    ("sched.fallback.ms", "ms"),
    ("sched.list.ms", "ms"),
    ("sched.fallback_frac", "ratio"),
    ("portfolio.rank.us", "us"),
    ("portfolio.prune_ratio", "ratio"),
    ("sim.replay.ms", "ms"),
    ("sim.audit_failures", "count"),
    ("engine.worker_busy_frac", "ratio"),
    ("engine.race.extra_attempt_frac", "ratio"),
    ("engine.cache.hit_frac", "ratio"),
    ("engine.diskcache.load.ms", "ms"),
    ("engine.diskcache.disk_hits", "count"),
    ("engine.text.parse.ms", "ms"),
    ("serve.submit.ms_p50", "ms"),
    ("serve.submit.ms_p99", "ms"),
    ("serve.first_line.ms_p50", "ms"),
    ("serve.open.job_ms_p50", "ms"),
    ("serve.open.job_ms_p99", "ms"),
    ("serve.reject_frac", "ratio"),
    ("serve.retained_mb_per_kjob", "MB"),
    ("loadgen.late.ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Workload names.
pub const WORKLOADS: [&str; 3] = ["paper-serial", "synth-par", "serve-open"];

/// Set-up repetitions per run; `setup_s` is their median, scaled to
/// nominal host speed by the reference kernel timed before each.
pub const SETUP_REPS: usize = 31;

/// Where traced runs write their spans and serve-open keeps its disk
/// cache, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: Duration,
    /// Per-layer (traced) pass instead of the timed run.
    pub trace: bool,
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (units, or jobs for serve-open).
    pub attempted: u64,
    /// Operations that produced no result (unit failures, rejected or
    /// failed daemon jobs).
    pub failed: u64,
    /// Output-check violations; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context (sample counts), printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a check: `ok` or a problem described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Prints the metrics of one set, then the JSON result line.
    fn print(&self, trace: bool) {
        let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for note in &self.notes {
            println!("# {note}");
        }
        for p in self.problems.iter().take(20) {
            eprintln!("check failed: {p}");
        }
        if self.problems.len() > 20 {
            eprintln!("... {} more check failures", self.problems.len() - 20);
        }
        let mut fields = Vec::new();
        for &(name, unit) in set {
            let value = *self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            assert!(value.is_finite(), "metric `{name}` is {value}");
            println!("{name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// The output directory, created on demand.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    Ok(dir)
}

const USAGE: &str = "usage: gpbench --workload <paper-serial|synth-par|serve-open> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad value `{value}` for {flag}"))?
            }
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("gpbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // Before any thread starts, so that every thread inherits the mask.
    let pinned = pin::pin_to_one_cpu();
    let outcome = match args.workload.as_str() {
        "serve-open" => serve_load::run(&args),
        _ => batch::run(&args),
    };
    match outcome {
        Ok(mut report) => {
            report.set("peak_rss_mb", stats::proc_status_mb("VmHWM"));
            report.notes.push(match pinned {
                Some(cpu) => format!("pinned to CPU {cpu}"),
                None => "could not pin to one CPU; ran unpinned".into(),
            });
            for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
                report.check(valid_metric_name(name), || {
                    format!("bad metric name `{name}`")
                });
            }
            report.print(args.trace);
        }
        Err(e) => {
            eprintln!("gpbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names of `BENCHMARK.json`, scanned without
    /// a JSON parser: every `"name": "..."` value in file order.
    fn declared_names() -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        text.split("\"name\":")
            .skip(1)
            .filter_map(|rest| rest.trim_start().strip_prefix('"')?.split('"').next())
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn every_metric_name_is_well_formed() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        assert!(!valid_metric_name("bad name"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let mut expected: Vec<String> = WORKLOADS.iter().map(|s| s.to_string()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        expected.extend(PER_LAYER.iter().map(|(n, _)| n.to_string()));
        assert_eq!(declared_names(), expected);
    }
}
