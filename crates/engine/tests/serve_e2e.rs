//! End-to-end tests of the `gpsched-serve` daemon: a real listener on an
//! ephemeral port, the std-only client from `serve::client`, and the
//! in-process batch engine as the reference answer.
//!
//! The contract under test: a daemon answer is *byte-identical* to the
//! batch answer after canonicalization (dropping the volatile
//! `cache_hit`/`sched_time_us` tail), whatever the worker count, client
//! concurrency, or cache warmth — and no request, however malformed, kills
//! the daemon.

use gpsched_engine::serve::{client, serve, ServeOptions};
use gpsched_engine::{canonical_json_line, run_sweep, JobSpec, SweepOptions};
use gpsched_machine::MachineConfig;
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::{synth::synthesize, SynthProfile};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

/// Worker count for the daemon side (`GPSCHED_TEST_WORKERS`, default 8) —
/// CI runs the suite at 1 and 8 so both the serial path and a contended
/// pool serve jobs.
fn test_workers() -> usize {
    std::env::var("GPSCHED_TEST_WORKERS")
        .ok()
        .and_then(|w| w.parse().ok())
        .unwrap_or(8)
}

fn start_server(opts: ServeOptions) -> (gpsched_engine::serve::Server, String) {
    let server = serve(&opts).expect("daemon must start");
    let addr = server.addr().to_string();
    (server, addr)
}

fn ephemeral(workers: usize) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..ServeOptions::default()
    }
}

/// A small corpus with shared structure (so the cache matters) embedded as
/// a job body, plus the equivalent [`JobSpec`] for the batch reference.
fn reference_job_and_body() -> (JobSpec, String) {
    let mut job = JobSpec::new();
    let mut ddg_text = String::new();
    for seed in 0..4u64 {
        let ddg = synthesize(format!("s{seed}"), &SynthProfile::default(), seed);
        ddg_text.push_str(&gpsched_engine::serialize_ddg(&ddg));
        job = job.loop_in("e2e", ddg);
    }
    job = job
        .machines([
            MachineConfig::unified(32),
            MachineConfig::two_cluster(32, 1, 1),
        ])
        .algorithms(AlgorithmSpec::PAPER);
    let body = format!("group e2e\nmachines u-r32,c2r32b1l1\n{ddg_text}");
    (job, body)
}

/// Canonicalized, unit-sorted view of a JSONL line set.
fn canon_sorted(lines: &[String]) -> Vec<String> {
    let mut v: Vec<String> = lines.iter().map(|l| canonical_json_line(l)).collect();
    v.sort();
    v
}

#[test]
fn daemon_results_are_byte_identical_to_batch() {
    let (job, body) = reference_job_and_body();
    let mut batch_jsonl: Vec<u8> = Vec::new();
    run_sweep(&job, &SweepOptions::serial(), Some(&mut batch_jsonl));
    let batch_lines: Vec<String> = String::from_utf8(batch_jsonl)
        .expect("utf8")
        .lines()
        .map(str::to_string)
        .collect();

    let (_server, addr) = start_server(ephemeral(test_workers()));
    let id = client::submit(&addr, &body).expect("submit");
    let daemon_lines = client::results(&addr, id).expect("results");

    assert_eq!(daemon_lines.len(), job.unit_count());
    assert_eq!(
        canon_sorted(&daemon_lines),
        canon_sorted(&batch_lines),
        "daemon JSONL must be byte-identical to the batch CLI's after \
         canonicalization"
    );
    // Status reflects completion.
    let status = client::status(&addr, id).expect("status");
    assert!(status.contains("\"status\":\"done\""), "{status}");
}

#[test]
fn concurrent_clients_all_get_identical_deterministic_answers() {
    let (job, body) = reference_job_and_body();
    let (_server, addr) = start_server(ephemeral(test_workers()));

    const CLIENTS: usize = 4;
    let results: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                let body = body.clone();
                scope.spawn(move || {
                    let id = client::submit(&addr, &body).expect("submit");
                    client::results(&addr, id).expect("results")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    let first = canon_sorted(&results[0]);
    assert_eq!(first.len(), job.unit_count());
    for (i, r) in results.iter().enumerate().skip(1) {
        assert_eq!(canon_sorted(r), first, "client {i} diverged");
    }

    // The daemon pool (N workers) must agree with a 1-worker daemon.
    let (_serial_server, serial_addr) = start_server(ephemeral(1));
    let id = client::submit(&serial_addr, &body).expect("submit");
    let serial = client::results(&serial_addr, id).expect("results");
    assert_eq!(canon_sorted(&serial), first, "worker count changed results");
}

fn temp_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpsched-serve-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join("seeds.cache")
}

#[test]
fn kill_and_restart_serves_warm_from_disk_cache() {
    let (job, body) = reference_job_and_body();
    let cache_path = temp_cache("warm");

    // Cold daemon: populate the disk cache.
    let cold_lines = {
        let (server, addr) = start_server(ServeOptions {
            cache_path: Some(cache_path.clone()),
            ..ephemeral(test_workers())
        });
        let id = client::submit(&addr, &body).expect("submit");
        let lines = client::results(&addr, id).expect("results");
        drop(server); // "kill" the daemon
        lines
    };
    assert!(
        cache_path.exists(),
        "daemon must have persisted its seed cache"
    );

    // Restarted daemon, same cache file: every unit's seed is served from
    // disk — the warm restart the cache exists for.
    let (_server, addr) = start_server(ServeOptions {
        cache_path: Some(cache_path.clone()),
        ..ephemeral(test_workers())
    });
    let health = client::health(&addr).expect("health");
    assert!(health.contains("\"cache_entries\":0"), "{health}");
    let id = client::submit(&addr, &body).expect("submit");
    let warm_lines = client::results(&addr, id).expect("results");

    assert_eq!(canon_sorted(&warm_lines), canon_sorted(&cold_lines));
    let hits = warm_lines
        .iter()
        .filter(|l| l.contains("\"cache_hit\":true"))
        .count();
    assert_eq!(
        hits,
        job.unit_count(),
        "every unit of the warm run must hit the restored cache"
    );
    let health = client::health(&addr).expect("health");
    assert!(
        !health.contains("\"disk_hits\":0}"),
        "disk hits must be counted: {health}"
    );
}

#[test]
fn malformed_requests_never_kill_the_daemon() {
    let (_server, addr) = start_server(ephemeral(1));

    // Raw garbage instead of HTTP.
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        let _ = s.write_all(b"\x00\xff\xfe not http at all\r\n\r\n");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
    }
    // Malformed request line.
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        let _ = s.write_all(b"GET\r\n\r\n");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    }
    // Bad Content-Length.
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        let _ = s.write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    }
    // Oversized declared body.
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        let _ = s.write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
    }
    // Syntactically invalid job body → 400 with a line number.
    {
        let (code, body) = client::request(
            &addr,
            "POST",
            "/jobs",
            "machines u-r32\nddg t\ntrips zap\nend\n",
        )
        .expect("request");
        assert_eq!(code, 400);
        assert!(body.contains("line 3"), "{body}");
    }
    // A job whose units are unschedulable must come back as failure
    // records, not kill the executor. daxpy needs FP units; this custom
    // machine has none.
    {
        let body = "\
machine intonly
cluster 2 0 1 16
end
ddg fpl
trips 10
op fmul 3 a
op fadd 2 b
dep 0 1 flow 3 0
end
";
        let id = client::submit(&addr, body).expect("submit");
        let lines = client::results(&addr, id).expect("results");
        assert!(!lines.is_empty());
        assert!(
            lines.iter().all(|l| l.contains("\"error\":")),
            "unschedulable units are failure records: {lines:?}"
        );
        let status = client::status(&addr, id).expect("status");
        assert!(status.contains("\"status\":\"done\""), "{status}");
    }
    // Unknown paths and jobs.
    {
        let (code, _) = client::request(&addr, "GET", "/nope", "").expect("request");
        assert_eq!(code, 404);
        let (code, _) = client::request(&addr, "GET", "/jobs/999", "").expect("request");
        assert_eq!(code, 404);
        let (code, _) = client::request(&addr, "DELETE", "/jobs", "").expect("request");
        assert_eq!(code, 405);
    }

    // After all of that, the daemon still schedules real work.
    let health = client::health(&addr).expect("health");
    assert!(health.contains("\"ok\":true"), "{health}");
    let (_, body) = reference_job_and_body();
    let id = client::submit(&addr, &body).expect("submit");
    let lines = client::results(&addr, id).expect("results");
    assert!(!lines.is_empty());
}

#[test]
fn metrics_endpoint_exports_the_live_trace_summary() {
    // Without --trace the endpoint answers, but reports tracing is off.
    {
        let (_server, addr) = start_server(ephemeral(1));
        let (code, body) = client::request(&addr, "GET", "/metrics", "").expect("request");
        assert_eq!(code, 200);
        assert!(body.contains("\"tracing\":false"), "{body}");
    }

    // A traced daemon owns the process-wide trace session for its
    // lifetime, so /metrics exports live phase and counter totals — note
    // only one test in this binary may hold the (global) session.
    let (_job, mut body) = reference_job_and_body();
    body.push_str("algos gp,portfolio\n");
    let (_server, addr) = start_server(ServeOptions {
        trace: true,
        ..ephemeral(test_workers())
    });
    let id = client::submit(&addr, &body).expect("submit");
    let lines = client::results(&addr, id).expect("results");
    assert!(lines.iter().all(|l| !l.contains("\"error\":")), "{lines:?}");

    let (code, metrics) = client::request(&addr, "GET", "/metrics", "").expect("request");
    assert_eq!(code, 200);
    assert!(metrics.starts_with('{') && metrics.trim_end().ends_with('}'));
    assert!(metrics.contains("\"phases\":["), "{metrics}");
    assert!(metrics.contains("\"wall_ns\":"), "{metrics}");
    // The request counter covers the submit + results calls above, and the
    // portfolio algorithm leaves its ranking span in the live profile.
    assert!(metrics.contains("\"serve.request\":"), "{metrics}");
    assert!(metrics.contains("\"name\":\"portfolio.rank\""), "{metrics}");
}

#[test]
fn shutdown_endpoint_stops_the_daemon_gracefully() {
    let (mut server, addr) = start_server(ephemeral(1));
    let (_, body) = reference_job_and_body();
    let id = client::submit(&addr, &body).expect("submit");
    // Results arrive even if shutdown lands while the job runs: the
    // executor drains the in-flight job before exiting.
    client::shutdown(&addr).expect("shutdown");
    let lines = client::results(&addr, id);
    // Either the stream completed (job ran first) or the connection was
    // refused post-shutdown — both are graceful; what must not happen is a
    // hang, which the join below would turn into a test timeout.
    drop(lines);
    server.join();
}
