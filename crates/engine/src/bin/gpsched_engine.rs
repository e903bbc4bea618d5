//! The `gpsched-engine` CLI: batch sweeps, profiles, corpus and machine
//! export, and the scheduling daemon and its client.
//!
//! ```text
//! gpsched-engine sweep    [--spec] [--kernels] [--corpus FILE] [--gen SPECS]
//!                         [--machines table1|clustered|topologies|NAMES|FILE.machine]
//!                         [--algos all|modulo|extended|SPECS]
//!                         [--workers N] [--no-cache] [--out FILE] [--quiet]
//!                         [--trace] [--trace-out FILE] [--progress]
//! gpsched-engine profile  [sweep selection flags] [--top N] [--trace-out FILE]
//! gpsched-engine trace-check --file FILE [--expect NAME,NAME,…]
//! gpsched-engine gen      --preset NAME [--seed S] [--count N] [--ops K]
//!                         [--workers N] [--out FILE]
//! gpsched-engine export   [--spec] [--kernels] [--synth N [--seed S] [--ops K]]
//!                         [--out FILE]
//! gpsched-engine machines [--machines table1|clustered|topologies|NAMES] [--out FILE]
//! ```
//!
//! `sweep` with no source flag defaults to the full SPECfp95 suite on all
//! Table 1 machines with all four algorithms — the paper's entire
//! evaluation in one invocation. `--algos` accepts any algorithm spec
//! (`gp:norepart`, `uracam:greedy-merit`, …), so variants sweep exactly
//! like the paper's algorithms. `gen` emits a synthetic corpus from a
//! named generator preset; the output is byte-identical for any seed
//! regardless of `--workers`, and `sweep --gen preset:count:seed` ingests
//! the same corpora without going through a file.

use gpsched_engine::{
    aggregate_by_group, distinct_short_names, generate_corpus_text, machine_set, parse_corpus,
    parse_machine_corpus, run_sweep, serialize_corpus, serialize_machine_corpus, serve, JobSpec,
    ServeOptions, SweepOptions,
};
use gpsched_machine::MachineConfig;
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::{kernels, spec_suite, synth, SynthProfile, PRESET_NAMES};
use std::io::Write;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("trace-check") => cmd_trace_check(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("machines") => cmd_machines(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            eprint!("{USAGE}");
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            exit(2);
        }
    }
}

const USAGE: &str = "\
gpsched-engine — parallel batch-scheduling engine

USAGE:
  gpsched-engine sweep    [--spec] [--kernels] [--corpus FILE]
                          [--gen PRESET[:COUNT[:SEED]],…]
                          [--machines table1|clustered|topologies|NAME,NAME,…|FILE.machine]
                          [--algos all|modulo|extended|SPEC,SPEC,…]
                          [--workers N] [--no-cache] [--out FILE] [--quiet]
                          [--trace] [--trace-out FILE] [--progress]
  gpsched-engine profile  [sweep selection flags] [--top N] [--trace-out FILE]
  gpsched-engine trace-check --file FILE [--expect NAME,NAME,…]
  gpsched-engine gen      --preset NAME [--seed S] [--count N] [--ops K]
                          [--workers N] [--out FILE]
  gpsched-engine export   [--spec] [--kernels] [--synth N [--seed S] [--ops K]]
                          [--out FILE]
  gpsched-engine machines [--machines table1|clustered|topologies|NAME,NAME,…]
                          [--out FILE]
  gpsched-engine serve    [--addr HOST:PORT] [--workers N] [--queue N]
                          [--cache-file FILE] [--max-body-kb N] [--trace]
  gpsched-engine client   submit|status|results|health|shutdown
                          [--addr HOST:PORT] [--job ID] [--corpus FILE]
                          [--gen SPECS]
                          [--machines table1|clustered|topologies|NAMES|FILE.machine]
                          [--algos SPECS] [--group NAME] [--out FILE] [--wait]

With no source flags, `sweep` runs the full SPECfp95 suite across all
Table 1 machines with all four algorithms (URACAM, Fixed, GP, List).
Machine names use the short form from reports (u-r32, c2r32b1l1, and the
topology forms c2r32pb1l2, c4r64ring1x1, c4r64p2p1x1); `topologies`
selects one reference machine per interconnect shape, and `--machines`
also accepts a `.machine` interchange file (see `machines` to export
one, including `topology` stanzas). Algorithm specs compose policy
modifiers onto a base:
gp, gp:norepart, uracam:greedy-merit, gp:linear-ii, gp:nospill, …;
`extended` selects the paper's four plus every bundled variant, and
`portfolio[:K[:BUDGET]]` ranks the catalog per loop by cheap DDG
features and races the top K with a failure budget, keeping the best
schedule found.
Generator presets (for `gen --preset` and `sweep --gen`):
recurrence-heavy, wide-ilp, mem-bound, chain-deep, fanout-hub,
long-distance. `gen` output is byte-identical for a given preset, seed
and count, whatever `--workers` says.
`sweep --trace` records per-phase spans and counters (profile report on
stderr; `--trace-out` additionally writes Chrome Trace Event JSON for
chrome://tracing / Perfetto). `profile` runs a traced sweep and prints
the top phases by self-time to stdout. `trace-check` validates a trace
JSON file and optionally asserts that named spans are present (CI).
`serve` starts the long-lived scheduling daemon (HTTP/1.1, bounded FIFO
job queue, streaming JSONL results; `--cache-file` persists seeds so a
restart starts warm; `--trace` holds a daemon-lifetime trace session so
`GET /metrics` returns live phase and counter totals as JSON). `client`
talks to it: `submit` builds a job body
from the sweep selection flags (`--wait` blocks and prints the results),
`status`/`results` poll a job by `--job ID`, `health` probes liveness,
`shutdown` stops the daemon gracefully.
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    exit(2)
}

/// Pulls the value of a `--flag VALUE` option out of `args`.
fn opt_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return Some(
                it.next()
                    .unwrap_or_else(|| fail(&format!("{flag} needs a value"))),
            );
        }
    }
    None
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The numeric value of a `--flag N` option, if given.
fn number<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    opt_value(args, flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("{flag} needs a number")))
    })
}

/// Writes `text` to the `--out` file and reports `wrote {what} to {path}`
/// on stderr, or prints it to stdout when there is no `--out`.
fn write_out(args: &[String], text: &str, what: &str) {
    match opt_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, text)
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {what} to {path}");
        }
        None => print!("{text}"),
    }
}

/// The options the sweep flags select; `--workers` defaults to
/// `workers` (0 picks every host CPU).
fn sweep_options(args: &[String], workers: usize) -> SweepOptions {
    SweepOptions {
        workers: number(args, "--workers").unwrap_or(workers),
        use_cache: !has_flag(args, "--no-cache"),
        progress: has_flag(args, "--progress"),
    }
}

/// Validates that every `--flag` in `args` is known.
fn check_flags(args: &[String], known: &[&str]) {
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            if !known.contains(&a.as_str()) {
                fail(&format!("unknown option `{a}`"));
            }
            // Every known flag except the booleans consumes a value.
            skip = !matches!(
                a.as_str(),
                "--spec"
                    | "--kernels"
                    | "--no-cache"
                    | "--quiet"
                    | "--trace"
                    | "--progress"
                    | "--wait"
            );
        } else {
            fail(&format!("unexpected argument `{a}`"));
        }
    }
}

fn parse_machines(spec: &str) -> Vec<MachineConfig> {
    // A `.machine` interchange file: every machine in the corpus.
    if spec.ends_with(".machine") {
        let text = std::fs::read_to_string(spec)
            .unwrap_or_else(|e| fail(&format!("cannot read {spec}: {e}")));
        let machines =
            parse_machine_corpus(&text).unwrap_or_else(|e| fail(&format!("{spec}: {e}")));
        if machines.is_empty() {
            fail(&format!("{spec}: corpus holds no machines"));
        }
        return distinct_short_names(machines).unwrap_or_else(|e| fail(&format!("{spec}: {e}")));
    }
    let machines = machine_set(spec).unwrap_or_else(|e| fail(&e));
    if machines.is_empty() {
        fail("--machines selects no machine");
    }
    machines
}

/// Builds the job selected by the common sweep flags.
fn job_from_args(args: &[String]) -> JobSpec {
    let mut job = JobSpec::new();
    let mut any_source = false;
    if has_flag(args, "--spec") {
        job = job.programs(&spec_suite());
        any_source = true;
    }
    if has_flag(args, "--kernels") {
        for ddg in kernels::all_kernels(1000) {
            job = job.loop_in("kernels", ddg);
        }
        any_source = true;
    }
    if let Some(path) = opt_value(args, "--corpus") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let loops = parse_corpus(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        if loops.is_empty() {
            fail(&format!("{path}: corpus holds no loops"));
        }
        let group = path.rsplit('/').next().unwrap_or(path).to_string();
        for ddg in loops {
            job = job.loop_in(group.clone(), ddg);
        }
        any_source = true;
    }
    if let Some(list) = opt_value(args, "--gen") {
        for spec in list.split(',') {
            let (preset_name, count, seed) = parse_gen_spec(spec.trim());
            let profile = resolve_preset(preset_name);
            job = job.synth_corpus(preset_name, &profile, seed, count);
        }
        any_source = true;
    }
    if !any_source {
        job = job.programs(&spec_suite());
    }
    job = job.machines(parse_machines(
        opt_value(args, "--machines").unwrap_or("table1"),
    ));
    let algos = AlgorithmSpec::parse_list(opt_value(args, "--algos").unwrap_or("all"));
    job = job.algorithms(algos.unwrap_or_else(|e| fail(&e.to_string())));
    job
}

const SWEEP_FLAGS: &[&str] = &[
    "--spec",
    "--kernels",
    "--corpus",
    "--gen",
    "--machines",
    "--algos",
    "--workers",
    "--no-cache",
    "--out",
    "--quiet",
    "--trace",
    "--trace-out",
    "--progress",
];

/// Resolves a generator preset name, failing with the known names.
fn resolve_preset(name: &str) -> SynthProfile {
    gpsched_workloads::preset(name).unwrap_or_else(|| {
        fail(&format!(
            "unknown preset `{name}` (expected one of: {})",
            PRESET_NAMES.join(", ")
        ))
    })
}

/// Parses a `preset[:count[:seed]]` selector of `sweep --gen`.
fn parse_gen_spec(spec: &str) -> (&str, usize, u64) {
    let mut parts = spec.split(':');
    let preset_name = parts.next().unwrap_or("");
    let count = parts.next().map_or(50, |c| {
        c.parse()
            .unwrap_or_else(|_| fail(&format!("`{spec}`: count must be a number")))
    });
    let seed = parts.next().map_or(0, |s| {
        s.parse()
            .unwrap_or_else(|_| fail(&format!("`{spec}`: seed must be a number")))
    });
    if parts.next().is_some() {
        fail(&format!("`{spec}`: expected preset[:count[:seed]]"));
    }
    (preset_name, count, seed)
}

fn cmd_sweep(args: &[String]) {
    check_flags(args, SWEEP_FLAGS);
    let job = job_from_args(args);
    let opts = sweep_options(args, 0);
    let trace_out = opt_value(args, "--trace-out");
    let tracing = has_flag(args, "--trace") || trace_out.is_some();
    let session = tracing.then(gpsched_trace::TraceSession::start);
    eprintln!(
        "sweep: {} loops × {} machines × {} algorithms = {} units on {} workers",
        job.loops.len(),
        job.machines.len(),
        job.algorithms.len(),
        job.unit_count(),
        opts.effective_workers()
    );

    let mut file = opt_value(args, "--out").map(|path| {
        std::io::BufWriter::new(
            std::fs::File::create(path)
                .unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}"))),
        )
    });
    let result = run_sweep(&job, &opts, file.as_mut().map(|f| f as &mut dyn Write));
    if let Some(f) = file.as_mut() {
        f.flush()
            .unwrap_or_else(|e| fail(&format!("flushing --out file: {e}")));
    }

    if !has_flag(args, "--quiet") {
        // One column per algorithm spec of the job, in job order — so
        // variant sweeps (gp vs gp:norepart, …) land in the table exactly
        // like the paper's algorithms.
        let mut columns: Vec<String> = Vec::new();
        for a in &job.algorithms {
            let name = a.name();
            if !columns.contains(&name) {
                columns.push(name);
            }
        }
        let width = columns.iter().map(|c| c.len().max(8)).collect::<Vec<_>>();
        print!("{:<10} {:<12}", "group", "machine");
        for (c, w) in columns.iter().zip(&width) {
            print!(" {c:>w$}");
        }
        println!();
        let agg = aggregate_by_group(&result.records);
        let mut by_gm: std::collections::BTreeMap<(String, String), Vec<Option<f64>>> =
            std::collections::BTreeMap::new();
        for a in &agg {
            let Some(slot) = columns.iter().position(|c| *c == a.algorithm) else {
                continue;
            };
            by_gm
                .entry((a.group.clone(), a.machine.clone()))
                .or_insert_with(|| vec![None; columns.len()])[slot] = Some(a.ipc);
        }
        for ((g, m), row) in by_gm {
            print!("{g:<10} {m:<12}");
            for (v, w) in row.iter().zip(&width) {
                match v {
                    Some(x) => print!(" {x:>w$.3}"),
                    None => print!(" {:>w$}", "-"),
                }
            }
            println!();
        }
        println!("{}", result.stats.cache_summary());
    }
    // Trace reporting stays on stderr (and the --trace-out file), so
    // stdout is byte-identical with and without --trace.
    if let Some(session) = session {
        let trace = session.finish();
        eprintln!("{}", trace.summary().render(15));
        if let Some(path) = trace_out {
            gpsched_trace::chrome::write_chrome_json(std::path::Path::new(path), &trace)
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            eprintln!(
                "trace: wrote {} spans ({} dropped) to {path}",
                trace.spans.len(),
                trace.dropped
            );
        }
    }
    eprintln!("{}", result.stats.summary());
}

/// Runs a traced sweep and prints the hottest phases by self-time.
fn cmd_profile(args: &[String]) {
    let mut known = SWEEP_FLAGS.to_vec();
    known.push("--top");
    check_flags(args, &known);
    let job = job_from_args(args);
    let top: usize = number(args, "--top").unwrap_or(20);
    // Serial by default: with one worker, self-time fractions of the wall
    // clock are directly meaningful.
    let opts = sweep_options(args, 1);
    eprintln!(
        "profile: {} units ({} loops × {} machines × {} algorithms) on {} workers",
        job.unit_count(),
        job.loops.len(),
        job.machines.len(),
        job.algorithms.len(),
        opts.effective_workers()
    );
    let session = gpsched_trace::TraceSession::start();
    let result = run_sweep(&job, &opts, None);
    let trace = session.finish();
    println!("{}", trace.summary().render(top));
    println!("{}", result.stats.cache_summary());
    if let Some(path) = opt_value(args, "--trace-out") {
        gpsched_trace::chrome::write_chrome_json(std::path::Path::new(path), &trace)
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!(
            "trace: wrote {} spans ({} dropped) to {path}",
            trace.spans.len(),
            trace.dropped
        );
    }
    eprintln!("{}", result.stats.summary());
}

const TRACE_CHECK_FLAGS: &[&str] = &["--file", "--expect"];

/// Validates a Chrome trace JSON file; with `--expect`, asserts that the
/// named spans occur. Exit 0 on success, 1 on failure — the CI smoke lane
/// gates on this.
fn cmd_trace_check(args: &[String]) {
    check_flags(args, TRACE_CHECK_FLAGS);
    let path =
        opt_value(args, "--file").unwrap_or_else(|| fail("trace-check requires --file FILE"));
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let names = gpsched_trace::chrome::span_names_in_chrome_json(&text).unwrap_or_else(|e| {
        eprintln!("trace-check: {path}: {e}");
        exit(1)
    });
    eprintln!(
        "trace-check: {path}: valid Chrome trace, {} distinct span names",
        names.len()
    );
    if let Some(list) = opt_value(args, "--expect") {
        let missing: Vec<&str> = list
            .split(',')
            .map(str::trim)
            .filter(|want| !want.is_empty() && !names.iter().any(|n| n == want))
            .collect();
        if !missing.is_empty() {
            eprintln!(
                "trace-check: {path}: missing expected span(s): {} (present: {})",
                missing.join(", "),
                names.join(", ")
            );
            exit(1);
        }
        eprintln!("trace-check: all expected spans present");
    }
}

const MACHINES_FLAGS: &[&str] = &["--machines", "--out"];

/// Exports machine configurations to the `.machine` interchange format.
fn cmd_machines(args: &[String]) {
    check_flags(args, MACHINES_FLAGS);
    let machines = parse_machines(opt_value(args, "--machines").unwrap_or("table1"));
    let text = serialize_machine_corpus(machines.iter());
    write_out(args, &text, &format!("{} machines", machines.len()));
}

const GEN_FLAGS: &[&str] = &[
    "--preset",
    "--seed",
    "--count",
    "--ops",
    "--workers",
    "--out",
];

/// The `--ops` value of `gen` and `export`: a positive op count (a loop
/// needs at least one op).
fn parse_ops(k: &str) -> usize {
    match k.parse() {
        Ok(0) | Err(_) => fail("--ops needs a positive count"),
        Ok(n) => n,
    }
}

/// Emits a synthetic corpus from a named preset as `.ddg` text.
fn cmd_gen(args: &[String]) {
    check_flags(args, GEN_FLAGS);
    let preset_name =
        opt_value(args, "--preset").unwrap_or_else(|| fail("gen requires --preset NAME"));
    let mut profile = resolve_preset(preset_name);
    if let Some(k) = opt_value(args, "--ops") {
        profile.ops = parse_ops(k);
    }
    let seed: u64 = number(args, "--seed").unwrap_or(0);
    let count: usize = number(args, "--count").unwrap_or(50);
    let workers: usize = number(args, "--workers").unwrap_or(0);
    let text = generate_corpus_text(preset_name, &profile, seed, count, workers);
    let what = format!("{count} `{preset_name}` loops (seed {seed})");
    write_out(args, &text, &what);
}

const EXPORT_FLAGS: &[&str] = &["--spec", "--kernels", "--synth", "--seed", "--ops", "--out"];

fn cmd_export(args: &[String]) {
    check_flags(args, EXPORT_FLAGS);
    let mut loops = Vec::new();
    if has_flag(args, "--spec") {
        for p in spec_suite() {
            loops.extend(p.loops);
        }
    }
    if has_flag(args, "--kernels") {
        loops.extend(kernels::all_kernels(1000));
    }
    if let Some(n) = opt_value(args, "--synth") {
        let n: usize = n.parse().unwrap_or_else(|_| fail("--synth needs a count"));
        let seed: u64 = number(args, "--seed").unwrap_or(0);
        let profile = match opt_value(args, "--ops") {
            Some(k) => SynthProfile {
                ops: parse_ops(k),
                ..SynthProfile::default()
            },
            None => SynthProfile::default(),
        };
        for i in 0..n {
            loops.push(synth::synthesize(
                format!("synth-{seed}-{i}"),
                &profile,
                synth::derive_seed(seed, i as u64),
            ));
        }
    }
    if loops.is_empty() {
        fail("export needs a source: --spec, --kernels and/or --synth N");
    }
    let text = serialize_corpus(loops.iter());
    write_out(args, &text, &format!("{} loops", loops.len()));
}

fn cmd_serve(args: &[String]) {
    check_flags(
        args,
        &[
            "--addr",
            "--workers",
            "--queue",
            "--cache-file",
            "--max-body-kb",
            "--trace",
        ],
    );
    let mut opts = ServeOptions::default();
    if let Some(addr) = opt_value(args, "--addr") {
        opts.addr = addr.to_string();
    }
    if let Some(w) = number(args, "--workers") {
        opts.workers = w;
    }
    if let Some(q) = number(args, "--queue") {
        opts.queue_capacity = q;
    }
    if let Some(path) = opt_value(args, "--cache-file") {
        opts.cache_path = Some(path.into());
    }
    if let Some(kb) = number::<usize>(args, "--max-body-kb") {
        opts.max_body_bytes = kb * 1024;
    }
    opts.trace = has_flag(args, "--trace");
    let mut server = serve(&opts)
        .unwrap_or_else(|e| fail(&format!("cannot start daemon on {}: {e}", opts.addr)));
    eprintln!(
        "gpsched-serve: listening on {} (queue {}, POST /shutdown to stop)",
        server.addr(),
        opts.queue_capacity
    );
    server.join();
    eprintln!("gpsched-serve: stopped");
}

/// Builds a `POST /jobs` body from the client's selection flags.
fn job_body_from_args(args: &[String]) -> String {
    let mut body = String::new();
    match opt_value(args, "--machines").unwrap_or("table1") {
        path if path.ends_with(".machine") => {
            // Embed the file's machine blocks verbatim.
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            body.push_str(&text);
            if !text.ends_with('\n') {
                body.push('\n');
            }
        }
        // Machine sets and short names: the daemon resolves them.
        selection => body.push_str(&format!("machines {selection}\n")),
    }
    if let Some(algos) = opt_value(args, "--algos") {
        body.push_str(&format!("algos {algos}\n"));
    }
    let mut any_source = false;
    if let Some(path) = opt_value(args, "--corpus") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        // Group like `sweep --corpus` does (the file's basename), so the
        // daemon's records are byte-identical to the batch CLI's.
        let group =
            opt_value(args, "--group").unwrap_or_else(|| path.rsplit('/').next().unwrap_or(path));
        body.push_str(&format!("group {group}\n"));
        body.push_str(&text);
        if !text.ends_with('\n') {
            body.push('\n');
        }
        any_source = true;
    }
    if let Some(list) = opt_value(args, "--gen") {
        for spec in list.split(',') {
            let (preset_name, count, seed) = parse_gen_spec(spec.trim());
            let profile = resolve_preset(preset_name);
            body.push_str(&format!("group {preset_name}\n"));
            body.push_str(&generate_corpus_text(preset_name, &profile, seed, count, 0));
        }
        any_source = true;
    }
    if !any_source {
        fail("client submit needs a source: --corpus FILE and/or --gen SPECS");
    }
    body
}

fn cmd_client(args: &[String]) {
    let Some(action) = args.first().map(String::as_str) else {
        fail("client needs an action: submit|status|results|health|shutdown");
    };
    let rest = &args[1..];
    check_flags(
        rest,
        &[
            "--addr",
            "--job",
            "--corpus",
            "--gen",
            "--machines",
            "--algos",
            "--group",
            "--out",
            "--wait",
        ],
    );
    let default_addr = ServeOptions::default().addr;
    let addr = opt_value(rest, "--addr").unwrap_or(&default_addr);
    let job_id = || -> u64 {
        number(rest, "--job").unwrap_or_else(|| fail("--job ID is required for this action"))
    };
    let write_lines = |lines: &[String]| {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        write_out(rest, &text, &format!("{} lines", lines.len()));
    };
    match action {
        "submit" => {
            let body = job_body_from_args(rest);
            let id = serve::client::submit(addr, &body).unwrap_or_else(|e| fail(&e));
            if has_flag(rest, "--wait") {
                // The results stream blocks until the job completes.
                let lines = serve::client::results(addr, id).unwrap_or_else(|e| fail(&e));
                write_lines(&lines);
            } else {
                println!("{id}");
            }
        }
        "status" => println!(
            "{}",
            serve::client::status(addr, job_id()).unwrap_or_else(|e| fail(&e))
        ),
        "results" => {
            let lines = serve::client::results(addr, job_id()).unwrap_or_else(|e| fail(&e));
            write_lines(&lines);
        }
        "health" => println!(
            "{}",
            serve::client::health(addr).unwrap_or_else(|e| fail(&e))
        ),
        "shutdown" => {
            serve::client::shutdown(addr).unwrap_or_else(|e| fail(&e));
            eprintln!("daemon at {addr} is shutting down");
        }
        other => fail(&format!(
            "unknown client action `{other}` (expected submit|status|results|health|shutdown)"
        )),
    }
}
