//! `gpsched-serve` — a long-lived scheduling daemon over the sweep engine.
//!
//! Batch sweeps pay full startup cost per invocation and forget every
//! memoized seed on exit. This module keeps the engine warm: a hand-rolled
//! HTTP/1.1 server on [`std::net::TcpListener`] (std only — no external
//! crates) accepts jobs whose bodies carry `.ddg` loops and `.machine`
//! configurations, queues them FIFO with per-job ids, runs them through one
//! process-lifetime [`SweepCache`] (optionally disk-backed, so a restarted
//! daemon starts warm), and streams results back in the exact JSONL wire
//! format of `gpsched-engine sweep --out` — a daemon answer is
//! byte-identical to the batch answer modulo the volatile `cache_hit` /
//! `sched_time_us` tail (see [`canonical_json_line`]).
//!
//! # Endpoints
//!
//! | Method & path          | Behavior                                      |
//! |------------------------|-----------------------------------------------|
//! | `POST /jobs`           | Submit a job body → `202 {"job":N}`, `400` on a parse error (line-numbered), `503` when the queue is full |
//! | `GET /jobs/<id>`       | Status: `queued` / `running` / `done` / `failed` |
//! | `GET /jobs/<id>/results` | Streams the job's JSONL lines as they exist; blocks until the job finishes, then closes |
//! | `GET /healthz`         | Liveness + queue depth + cache size           |
//! | `POST /shutdown`       | Graceful stop: current job finishes, queued jobs fail |
//!
//! # Job body format
//!
//! Line-oriented, mirroring the interchange formats:
//!
//! ```text
//! group corpus.ddg        # optional: group for subsequent loops
//! machines c2r32b1l1,u-r32
//! algos gp,uracam
//! ddg tiny                # embedded .ddg block(s)
//! trips 100
//! op int 1
//! end
//! machine custom          # embedded .machine block(s), optional
//! cluster 2 1 1 16
//! bus 1 1
//! end
//! ```
//!
//! `machines` takes what the CLI's `--machines` takes (`table1`,
//! `clustered`, `topologies` or a list of short names; see
//! [`machine_set`]); embedded `machine` blocks add custom configurations,
//! and two different blocks may not share one short name. `algos` takes
//! what the CLI's `--algos` takes (a spec list or the
//! `all`/`modulo`/`extended` shortcuts) and defaults to the paper's
//! four. Parse errors carry the *body* line number —
//! embedded blocks are extracted as shadow texts that preserve line
//! positions.
//!
//! # Robustness
//!
//! No request may kill the daemon: oversized heads/bodies are rejected with
//! proper status codes, malformed syntax returns `400`, unschedulable units
//! become failure records (see [`UnitFailure`]), and the executor wraps
//! each job in `catch_unwind` as a last line of defense.
//!
//! # Wire path
//!
//! Sockets run with `TCP_NODELAY`, and every HTTP message leaves in one
//! write: a response, a client request, and each batch of result lines
//! that a stream finds pending when it wakes (the first batch carries the
//! response head). With `--trace`, `GET /metrics` counts the daemon's
//! socket writes under `serve.socket_writes`: at most one per request plus
//! one per result line.
//!
//! [`canonical_json_line`]: crate::record::canonical_json_line
//! [`UnitFailure`]: crate::sweep::UnitFailure

use crate::cache::SweepCache;
use crate::diskcache::DiskCache;
use crate::job::{distinct_short_names, machine_set, JobSpec};
use crate::machine_text::parse_machine_corpus;
use crate::sweep::{run_sweep_cached, SweepOptions};
use crate::text::parse_corpus;
use gpsched_machine::MachineConfig;
use gpsched_sched::AlgorithmSpec;
use gpsched_trace::json::escape;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port `0` picks a free one).
    pub addr: String,
    /// Sweep worker threads per job; `0` means one per CPU.
    pub workers: usize,
    /// Bounded FIFO job queue depth; submissions beyond it get `503`.
    pub queue_capacity: usize,
    /// Persist seeds to this file so a restart starts warm.
    pub cache_path: Option<PathBuf>,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Hold a daemon-lifetime trace session so `GET /metrics` can export
    /// live phase/counter totals. Off by default: tracing is a global
    /// singleton, and a tracing daemon would starve other sessions in the
    /// same process.
    pub trace: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7733".to_string(),
            workers: 0,
            queue_capacity: 64,
            cache_path: None,
            max_body_bytes: 8 * 1024 * 1024,
            trace: false,
        }
    }
}

/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Per-connection socket timeout for reads (slow-loris guard).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Job lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobStatus {
    fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

struct JobInner {
    status: JobStatus,
    /// Result JSONL lines produced so far (streams grow while running).
    lines: Vec<String>,
    error: Option<String>,
}

struct JobEntry {
    inner: Mutex<JobInner>,
    cv: Condvar,
}

impl JobEntry {
    fn new() -> Self {
        JobEntry {
            inner: Mutex::new(JobInner {
                status: JobStatus::Queued,
                lines: Vec::new(),
                error: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn finish(&self, status: JobStatus, error: Option<String>) {
        let mut inner = self.inner.lock().expect("job poisoned");
        inner.status = status;
        inner.error = error;
        self.cv.notify_all();
    }
}

/// State shared by the acceptor, connection threads and the executor.
struct Shared {
    jobs: Mutex<HashMap<u64, Arc<JobEntry>>>,
    queue: Mutex<VecDeque<(u64, JobSpec)>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    cache: SweepCache,
    sweep_workers: usize,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    /// Queues a parsed job; `Err` when the bounded queue is full.
    fn try_enqueue(&self, job: JobSpec) -> Result<u64, ()> {
        let mut queue = self.queue.lock().expect("queue poisoned");
        if queue.len() >= self.queue_capacity {
            gpsched_trace::counter!("serve.reject");
            return Err(());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.jobs
            .lock()
            .expect("jobs poisoned")
            .insert(id, Arc::new(JobEntry::new()));
        queue.push_back((id, job));
        gpsched_trace::counter!("serve.queue");
        self.queue_cv.notify_one();
        Ok(id)
    }

    fn job(&self, id: u64) -> Option<Arc<JobEntry>> {
        self.jobs.lock().expect("jobs poisoned").get(&id).cloned()
    }

    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue_cv.notify_all();
        // Poke the blocking accept() so the acceptor observes the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon. Dropping it shuts the daemon down and joins its
/// threads.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    executor: Option<std::thread::JoinHandle<()>>,
    /// Keeps tracing enabled for the daemon's lifetime when
    /// [`ServeOptions::trace`] is set; dropping it turns tracing off.
    _trace: Option<gpsched_trace::TraceSession>,
}

impl Server {
    /// The bound address (with the real port when `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests a graceful stop: the in-flight job finishes, queued jobs
    /// are failed, the acceptor closes.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until the daemon has stopped (after [`Server::shutdown`] or
    /// a `POST /shutdown`).
    pub fn join(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

/// Starts the daemon: binds, spawns the acceptor and the job executor,
/// returns immediately. `gpsched-engine serve` starts one and joins it.
///
/// # Errors
///
/// Propagates bind/open failures (address in use, unwritable cache file).
pub fn serve(opts: &ServeOptions) -> std::io::Result<Server> {
    // Start the session before binding: TraceSession::start blocks until
    // any other session in the process ends, and a daemon that is already
    // accepting connections must not stall on that.
    let trace = opts.trace.then(gpsched_trace::TraceSession::start);
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    let cache = match &opts.cache_path {
        Some(path) => {
            let disk = Arc::new(DiskCache::open(path.clone())?);
            eprintln!(
                "gpsched-serve: seed cache {} ({} entries)",
                path.display(),
                disk.len()
            );
            SweepCache::with_disk(disk)
        }
        None => SweepCache::new(),
    };
    let shared = Arc::new(Shared {
        jobs: Mutex::new(HashMap::new()),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        queue_capacity: opts.queue_capacity.max(1),
        cache,
        sweep_workers: opts.workers,
        next_id: AtomicU64::new(1),
        shutdown: AtomicBool::new(false),
        addr,
    });

    let executor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-executor".to_string())
            .spawn(move || executor_loop(&shared))?
    };
    let acceptor = {
        let shared = Arc::clone(&shared);
        let max_body = opts.max_body_bytes;
        std::thread::Builder::new()
            .name("serve-acceptor".to_string())
            .spawn(move || acceptor_loop(listener, shared, max_body))?
    };
    Ok(Server {
        shared,
        acceptor: Some(acceptor),
        executor: Some(executor),
        _trace: trace,
    })
}

fn acceptor_loop(listener: TcpListener, shared: Arc<Shared>, max_body: usize) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        // Thread-per-connection: a request is one read and one write,
        // except a result stream, which writes once per batch of new lines
        // and lives as long as its job. The job executor, not connection
        // handling, is the bottleneck by design. Nothing caps the number
        // of connections yet.
        let _ = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                // A handler bug must cost one connection, never the daemon.
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(stream, &shared, max_body)
                }));
                if r.is_err() {
                    eprintln!("gpsched-serve: connection handler panicked (connection dropped)");
                }
            });
    }
}

fn executor_loop(shared: &Shared) {
    gpsched_trace::set_thread_label("serve-executor");
    loop {
        let next = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(item) = queue.pop_front() {
                    break Some(item);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.queue_cv.wait(queue).expect("queue poisoned");
            }
        };
        let Some((id, job)) = next else { break };
        let Some(entry) = shared.job(id) else {
            continue;
        };
        entry.inner.lock().expect("job poisoned").status = JobStatus::Running;
        entry.cv.notify_all();

        let _span = gpsched_trace::span!("serve.job", "job {id}: {} units", job.unit_count());
        let sweep_opts = SweepOptions {
            workers: shared.sweep_workers,
            ..SweepOptions::default()
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sink = LineSink {
                entry: &entry,
                buf: Vec::new(),
            };
            run_sweep_cached(&job, &sweep_opts, Some(&mut sink), &shared.cache)
        }));
        match outcome {
            Ok(_result) => entry.finish(JobStatus::Done, None),
            Err(_) => entry.finish(
                JobStatus::Failed,
                Some("internal error: scheduling panicked".to_string()),
            ),
        }
    }
    // Fail whatever is still queued so result streams unblock.
    let leftover: Vec<(u64, JobSpec)> = {
        let mut queue = shared.queue.lock().expect("queue poisoned");
        queue.drain(..).collect()
    };
    for (id, _) in leftover {
        if let Some(entry) = shared.job(id) {
            entry.finish(JobStatus::Failed, Some("server shutting down".to_string()));
        }
    }
}

/// A [`Write`] sink that turns the executor's JSONL stream into per-job
/// result lines, notifying streaming readers as each completes.
struct LineSink<'a> {
    entry: &'a JobEntry,
    buf: Vec<u8>,
}

impl Write for LineSink<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            let mut inner = self.entry.inner.lock().expect("job poisoned");
            inner.lines.push(text);
            self.entry.cv.notify_all();
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    body: String,
}

/// Reads one HTTP/1.1 request. `Err` carries a ready-to-send status +
/// message.
fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
) -> Result<Request, (u16, &'static str, String)> {
    let bad = |msg: &str| (400u16, "Bad Request", msg.to_string());
    let mut head = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&head) {
            break pos;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err((
                431,
                "Request Header Fields Too Large",
                "request head exceeds 16 KiB".into(),
            ));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| bad(&format!("read: {e}")))?;
        if n == 0 {
            return Err(bad("connection closed mid-request"));
        }
        head.extend_from_slice(&chunk[..n]);
    };
    let (head_bytes, rest) = head.split_at(head_end);
    let mut body: Vec<u8> = rest[4..].to_vec(); // skip \r\n\r\n

    let head_text = String::from_utf8_lossy(head_bytes);
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(bad("malformed request line"));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("malformed Content-Length"))?;
            }
        }
    }
    if content_length > max_body {
        return Err((
            413,
            "Payload Too Large",
            format!("body exceeds {max_body} bytes"),
        ));
    }
    while body.len() < content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| bad(&format!("read: {e}")))?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok(Request { method, path, body })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Sends a whole response, head and body, in one write.
fn write_response(w: &mut impl Write, status: u16, reason: &str, body: &str) {
    let message = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = w.write_all(message.as_bytes());
    let _ = w.flush();
}

/// The daemon's writes to one connection: each `write` it passes to the
/// socket counts once under `serve.socket_writes`, which CI caps.
struct SocketWriter<'a>(&'a TcpStream);

impl Write for SocketWriter<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        gpsched_trace::counter!("serve.socket_writes");
        self.0.write(bytes)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

fn json_error(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}\n", escape(msg))
}

fn handle_connection(mut stream: TcpStream, shared: &Shared, max_body: usize) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    // Every message leaves in one write. Nagle's algorithm would still
    // hold a stream's second batch of result lines until the client
    // acknowledged the first.
    let _ = stream.set_nodelay(true);
    let request = read_request(&mut stream, max_body);
    let stream = &mut SocketWriter(&stream);
    let request = match request {
        Ok(r) => r,
        Err((status, reason, msg)) => {
            write_response(stream, status, reason, &json_error(&msg));
            return;
        }
    };
    let _span = gpsched_trace::span!("serve.request", "{} {}", request.method, request.path);
    gpsched_trace::counter!("serve.request");
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/jobs") => match parse_job_body(&request.body) {
            Ok(job) => match shared.try_enqueue(job) {
                Ok(id) => write_response(stream, 202, "Accepted", &format!("{{\"job\":{id}}}\n")),
                Err(()) => write_response(
                    stream,
                    503,
                    "Service Unavailable",
                    &json_error("job queue is full, retry later"),
                ),
            },
            Err(msg) => write_response(stream, 400, "Bad Request", &json_error(&msg)),
        },
        ("GET", "/healthz") => {
            let queued = shared.queue.lock().expect("queue poisoned").len();
            let (hits, misses) = shared.cache.stats();
            write_response(
                stream,
                200,
                "OK",
                &format!(
                    "{{\"ok\":true,\"queued\":{queued},\"cache_entries\":{},\
                     \"cache_hits\":{hits},\"cache_misses\":{misses},\"disk_hits\":{}}}\n",
                    shared.cache.len(),
                    shared.cache.disk_hits()
                ),
            );
        }
        ("GET", "/metrics") => {
            // Live profile of everything the daemon has run so far, as
            // JSON: phase self-times plus counter totals (including the
            // portfolio racing counters). Requires the daemon to own the
            // trace session (`--trace`); otherwise report that plainly.
            let body = match gpsched_trace::summary_if_active() {
                Some(summary) => format!("{}\n", summary.to_json()),
                None => "{\"tracing\":false}\n".to_string(),
            };
            write_response(stream, 200, "OK", &body);
        }
        ("POST", "/shutdown") => {
            write_response(stream, 200, "OK", "{\"ok\":true}\n");
            shared.request_shutdown();
        }
        ("GET", path) => match parse_job_path(path) {
            Some((id, false)) => match shared.job(id) {
                Some(entry) => {
                    let inner = entry.inner.lock().expect("job poisoned");
                    let error = inner
                        .error
                        .as_ref()
                        .map(|e| format!(",\"error\":\"{}\"", escape(e)))
                        .unwrap_or_default();
                    let body = format!(
                        "{{\"job\":{id},\"status\":\"{}\",\"lines\":{}{error}}}\n",
                        inner.status.name(),
                        inner.lines.len()
                    );
                    drop(inner);
                    write_response(stream, 200, "OK", &body);
                }
                None => write_response(stream, 404, "Not Found", &json_error("no such job")),
            },
            Some((id, true)) => match shared.job(id) {
                Some(entry) => stream_results(stream, &entry),
                None => write_response(stream, 404, "Not Found", &json_error("no such job")),
            },
            None => write_response(stream, 404, "Not Found", &json_error("no such path")),
        },
        _ => write_response(
            stream,
            405,
            "Method Not Allowed",
            &json_error("unsupported method"),
        ),
    }
}

/// `/jobs/<id>` → `(id, false)`; `/jobs/<id>/results` → `(id, true)`.
fn parse_job_path(path: &str) -> Option<(u64, bool)> {
    let rest = path.strip_prefix("/jobs/")?;
    if let Some(id) = rest.strip_suffix("/results") {
        Some((id.parse().ok()?, true))
    } else {
        Some((rest.parse().ok()?, false))
    }
}

/// Streams a job's JSONL lines as they are produced; returns (closing the
/// connection) once the job is done or failed. The response carries no
/// `Content-Length` — the body ends when the connection closes, which is
/// what lets the client read results while the job is still scheduling.
///
/// Each wake-up sends everything pending in one write: the first carries
/// the head with the lines that exist by then, and the last carries the
/// failed job's error line.
fn stream_results(w: &mut impl Write, entry: &JobEntry) {
    let mut batch = String::from(
        "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nConnection: close\r\n\r\n",
    );
    let mut sent = 0usize;
    loop {
        let finished = {
            let mut inner = entry.inner.lock().expect("job poisoned");
            let over = |s: JobStatus| matches!(s, JobStatus::Done | JobStatus::Failed);
            while inner.lines.len() == sent && !over(inner.status) {
                inner = entry.cv.wait(inner).expect("job poisoned");
            }
            for line in &inner.lines[sent..] {
                batch.push_str(line);
                batch.push('\n');
            }
            sent = inner.lines.len();
            // No line follows the status change: the executor marks a job
            // over only after its sweep returned.
            let finished = over(inner.status);
            if let (true, Some(e)) = (finished, &inner.error) {
                batch.push_str(&json_error(e));
            }
            finished
        };
        if w.write_all(batch.as_bytes()).is_err() {
            return; // client went away; the job keeps running
        }
        if finished {
            let _ = w.flush();
            return;
        }
        batch.clear();
    }
}

// ---------------------------------------------------------------------------
// Job body parsing
// ---------------------------------------------------------------------------

/// Parses a `POST /jobs` body into a [`JobSpec`].
///
/// Errors carry the offending body line number: embedded `.ddg` /
/// `.machine` blocks are extracted into shadow texts with identical line
/// positions, so the interchange parsers' line-numbered errors map
/// directly onto the submitted body.
pub fn parse_job_body(body: &str) -> Result<JobSpec, String> {
    enum In {
        None,
        Ddg,
        Machine,
    }
    let mut state = In::None;
    let mut ddg_shadow = String::new();
    let mut machine_shadow = String::new();
    let mut groups: Vec<String> = Vec::new(); // group of each embedded ddg
    let mut current_group = "job".to_string();
    let mut machine_sets: Vec<(usize, &str)> = Vec::new();
    let mut algo_lists: Vec<(usize, &str)> = Vec::new();

    for (i, raw) in body.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        let first = line.split_whitespace().next().unwrap_or_default();
        match state {
            In::None => match first {
                "" => push_shadow(&mut ddg_shadow, &mut machine_shadow, "", ""),
                _ if line.starts_with('#') => {
                    push_shadow(&mut ddg_shadow, &mut machine_shadow, "", "")
                }
                "ddg" => {
                    state = In::Ddg;
                    groups.push(current_group.clone());
                    push_shadow(&mut ddg_shadow, &mut machine_shadow, raw, "");
                }
                "machine" => {
                    state = In::Machine;
                    push_shadow(&mut ddg_shadow, &mut machine_shadow, "", raw);
                }
                "machines" => {
                    machine_sets.push((line_no, &line["machines".len()..]));
                    push_shadow(&mut ddg_shadow, &mut machine_shadow, "", "");
                }
                "algos" => {
                    algo_lists.push((line_no, &line["algos".len()..]));
                    push_shadow(&mut ddg_shadow, &mut machine_shadow, "", "");
                }
                "group" => {
                    let g = line["group".len()..].trim();
                    if g.is_empty() {
                        return Err(format!("line {line_no}: `group` requires a name"));
                    }
                    current_group = g.to_string();
                    push_shadow(&mut ddg_shadow, &mut machine_shadow, "", "");
                }
                other => {
                    return Err(format!(
                        "line {line_no}: unrecognized directive `{other}` (expected \
                         machines/algos/group or a ddg/machine block)"
                    ));
                }
            },
            In::Ddg => {
                push_shadow(&mut ddg_shadow, &mut machine_shadow, raw, "");
                if first == "end" {
                    state = In::None;
                }
            }
            In::Machine => {
                push_shadow(&mut ddg_shadow, &mut machine_shadow, "", raw);
                if first == "end" {
                    state = In::None;
                }
            }
        }
    }
    if !matches!(state, In::None) {
        return Err("unterminated ddg/machine block (missing `end`)".to_string());
    }

    let loops = parse_corpus(&ddg_shadow).map_err(|e| e.to_string())?;
    let embedded_machines = parse_machine_corpus(&machine_shadow).map_err(|e| e.to_string())?;

    // Named and embedded machines are checked together: a named machine
    // and an embedded block can share a short name too.
    let mut named: Vec<(String, MachineConfig)> = Vec::new();
    for (line_no, selection) in machine_sets {
        let set = machine_set(selection).map_err(|e| format!("line {line_no}: {e}"))?;
        named.extend(set.into_iter().map(|m| (m.short_name(), m)));
    }
    named.extend(embedded_machines);
    let machines = distinct_short_names(named)?;

    let mut algorithms: Vec<AlgorithmSpec> = Vec::new();
    for (line_no, list) in algo_lists {
        algorithms
            .extend(AlgorithmSpec::parse_list(list).map_err(|e| format!("line {line_no}: {e}"))?);
    }
    if algorithms.is_empty() {
        algorithms = AlgorithmSpec::PAPER.to_vec();
    }

    if loops.is_empty() {
        return Err("job has no loops (add at least one ddg block)".to_string());
    }
    if machines.is_empty() {
        return Err(
            "job has no machines (add a `machines` directive or a machine block)".to_string(),
        );
    }

    let mut job = JobSpec::new();
    for (ddg, group) in loops.into_iter().zip(groups) {
        job = job.loop_in(group, ddg);
    }
    job = job.machines(machines);
    job.algorithms = algorithms;
    Ok(job)
}

/// Appends one line to each shadow text, preserving line positions.
fn push_shadow(ddg: &mut String, machine: &mut String, ddg_line: &str, machine_line: &str) {
    ddg.push_str(ddg_line);
    ddg.push('\n');
    machine.push_str(machine_line);
    machine.push('\n');
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A minimal blocking client for the daemon — what `gpsched-engine client`
/// and the tests use. All functions take `addr` as `host:port`.
pub mod client {
    use super::*;

    /// One round-trip: returns `(status_code, body)`.
    pub fn request(
        addr: &str,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream
            .write_all(message.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        split_response(&response)
    }

    fn split_response(response: &str) -> Result<(u16, String), String> {
        let (head, body) = response
            .split_once("\r\n\r\n")
            .ok_or_else(|| "malformed response (no header/body separator)".to_string())?;
        let status_line = head.lines().next().unwrap_or_default();
        let code = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("malformed status line `{status_line}`"))?;
        Ok((code, body.to_string()))
    }

    /// Submits a job body; returns the job id.
    pub fn submit(addr: &str, job_body: &str) -> Result<u64, String> {
        let (code, body) = request(addr, "POST", "/jobs", job_body)?;
        if code != 202 {
            return Err(format!("submit rejected ({code}): {}", body.trim()));
        }
        body.trim()
            .strip_prefix("{\"job\":")
            .and_then(|r| r.strip_suffix('}'))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("malformed submit response `{}`", body.trim()))
    }

    /// One status poll; returns the raw status JSON object.
    pub fn status(addr: &str, id: u64) -> Result<String, String> {
        let (code, body) = request(addr, "GET", &format!("/jobs/{id}"), "")?;
        if code != 200 {
            return Err(format!("status failed ({code}): {}", body.trim()));
        }
        Ok(body.trim().to_string())
    }

    /// Streams a job's results, blocking until the job completes; returns
    /// all its JSONL lines.
    pub fn results(addr: &str, id: u64) -> Result<Vec<String>, String> {
        let (code, body) = request(addr, "GET", &format!("/jobs/{id}/results"), "")?;
        if code != 200 {
            return Err(format!("results failed ({code}): {}", body.trim()));
        }
        Ok(body.lines().map(str::to_string).collect())
    }

    /// Liveness probe; returns the raw health JSON object.
    pub fn health(addr: &str) -> Result<String, String> {
        let (code, body) = request(addr, "GET", "/healthz", "")?;
        if code != 200 {
            return Err(format!("health failed ({code})"));
        }
        Ok(body.trim().to_string())
    }

    /// Asks the daemon to stop gracefully.
    pub fn shutdown(addr: &str) -> Result<(), String> {
        let (code, _) = request(addr, "POST", "/shutdown", "")?;
        if code != 200 {
            return Err(format!("shutdown failed ({code})"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_body_round_trips_to_a_job_spec() {
        let body = "\
# a job
group demo
machines u-r32,c2r32b1l1
algos gp,list
ddg tiny
trips 100
op int 1 a
op int 1 b
dep 0 1 flow 1 0
end
machine custom
cluster 2 1 1 32
cluster 2 1 1 32
bus 1 1
end
";
        let job = parse_job_body(body).expect("parse");
        assert_eq!(job.loops.len(), 1);
        assert_eq!(job.loops[0].group, "demo");
        assert_eq!(job.loops[0].ddg.name(), "tiny");
        assert_eq!(job.machines.len(), 3, "two named + one embedded");
        assert_eq!(job.algorithms.len(), 2);
        assert_eq!(job.unit_count(), 6);
    }

    #[test]
    fn job_body_errors_carry_body_line_numbers() {
        // Bad op class inside the ddg block: line 4 of the body.
        let body = "machines u-r32\nddg t\ntrips 10\nop bogus 1\nend\n";
        let err = parse_job_body(body).unwrap_err();
        assert!(err.contains("line 4"), "{err}");
        // Bad machine short name, with its directive line.
        let err =
            parse_job_body("machines not-a-machine\nddg t\ntrips 1\nop int 1\nend\n").unwrap_err();
        assert!(
            err.contains("line 1") && err.contains("not-a-machine"),
            "{err}"
        );
        // Bad cluster stanza inside an embedded machine block: line 3.
        let body =
            "machines u-r32\nmachine m\ncluster 0 0 0 16\nend\nddg t\ntrips 1\nop int 1\nend\n";
        let err = parse_job_body(body).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        // Unknown directive.
        let err = parse_job_body("frobnicate now\n").unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
        // Missing pieces.
        assert!(parse_job_body("machines u-r32\n")
            .unwrap_err()
            .contains("no loops"));
        assert!(parse_job_body("ddg t\ntrips 1\nop int 1\nend\n")
            .unwrap_err()
            .contains("no machines"));
        assert!(parse_job_body("ddg t\ntrips 1\n")
            .unwrap_err()
            .contains("unterminated"));
    }

    #[test]
    fn algos_default_to_the_paper_four() {
        let job = parse_job_body("machines u-r32\nddg t\ntrips 1\nop int 1\nend\n").expect("parse");
        assert_eq!(job.algorithms, AlgorithmSpec::PAPER);
    }

    #[test]
    fn algos_take_the_cli_shortcuts() {
        let algos = |line: &str| {
            parse_job_body(&format!(
                "machines u-r32\n{line}\nddg t\ntrips 1\nop int 1\nend\n"
            ))
            .map(|job| job.algorithms)
        };
        assert_eq!(algos("algos all").unwrap(), AlgorithmSpec::PAPER);
        assert_eq!(algos("algos modulo").unwrap(), AlgorithmSpec::MODULO);
        assert_eq!(algos("algos extended").unwrap(), AlgorithmSpec::CATALOG);
        assert_eq!(
            algos("algos gp, list\nalgos portfolio").unwrap(),
            [
                AlgorithmSpec::GP,
                AlgorithmSpec::LIST,
                AlgorithmSpec::PORTFOLIO
            ]
        );
        let err = algos("algos gp,nonsense").unwrap_err();
        assert!(
            err.starts_with("line 2: ") && err.contains("nonsense"),
            "{err}"
        );
    }

    #[test]
    fn machines_take_the_cli_sets() {
        let machines = |lines: &str| {
            parse_job_body(&format!("{lines}\nddg t\ntrips 1\nop int 1\nend\n"))
                .map(|job| job.machines)
        };
        let table1: Vec<MachineConfig> = gpsched_machine::table1_configs()
            .into_iter()
            .map(|(_, m)| m)
            .collect();
        assert_eq!(machines("machines table1").unwrap(), table1);
        let clustered: Vec<MachineConfig> =
            table1.into_iter().filter(|m| !m.is_unified()).collect();
        assert_eq!(clustered.len(), 8);
        assert_eq!(machines("machines clustered").unwrap(), clustered);
        assert_eq!(
            machines("machines topologies").unwrap(),
            gpsched_machine::topology_presets()
        );
        let err = machines("machines u-r32\nmachines topologies,u-r32").unwrap_err();
        assert!(
            err.starts_with("line 2: ") && err.contains("`topologies`"),
            "{err}"
        );
        // Two embedded blocks with one short name (`c2r32b1l1`) but
        // different unit mixes would merge in every record.
        let block = |name: &str, units: &str| {
            format!("machine {name}\ncluster {units} 16\ncluster {units} 16\nbus 1 1\nend")
        };
        let err =
            machines(&format!("{}\n{}", block("a", "2 2 2"), block("b", "2 1 1"))).unwrap_err();
        assert!(
            err.contains("`a` and `b`") && err.contains("short name `c2r32b1l1`"),
            "{err}"
        );
        // The same machine twice is not ambiguous.
        let twice = machines(&format!("{}\n{}", block("a", "2 2 2"), block("b", "2 2 2")));
        assert_eq!(twice.unwrap().len(), 2);
    }

    #[test]
    fn named_and_embedded_machines_cannot_share_a_short_name() {
        let body = |units: &str| {
            format!(
                "machines c2r32b1l1\nmachine custom\ncluster {units} 16\ncluster {units} 16\n\
                 bus 1 1\nend\nddg t\ntrips 1\nop int 1\nend\n"
            )
        };
        // 2/1/1 units per cluster: another machine with the same short name.
        let err = parse_job_body(&body("2 1 1")).unwrap_err();
        assert!(
            err.contains("`c2r32b1l1` and `custom`") && err.contains("short name `c2r32b1l1`"),
            "{err}"
        );
        // The named machine embedded once more is not ambiguous.
        assert_eq!(parse_job_body(&body("2 2 2")).unwrap().machines.len(), 2);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let shared = Shared {
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity: 2,
            cache: SweepCache::new(),
            sweep_workers: 1,
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            addr: "127.0.0.1:0".parse().expect("addr"),
        };
        assert!(shared.try_enqueue(JobSpec::new()).is_ok());
        assert!(shared.try_enqueue(JobSpec::new()).is_ok());
        assert!(
            shared.try_enqueue(JobSpec::new()).is_err(),
            "third must 503"
        );
    }

    /// An in-memory writer that hands the bytes of each `write` call, one
    /// message per call, to the test.
    struct Recorder(std::sync::mpsc::Sender<Vec<u8>>);

    impl Write for Recorder {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.0
                .send(bytes.to_vec())
                .expect("the test keeps listening");
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn recorder() -> (Recorder, std::sync::mpsc::Receiver<Vec<u8>>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (Recorder(tx), rx)
    }

    fn text(write: Vec<u8>) -> String {
        String::from_utf8(write).expect("utf8")
    }

    const JSONL_HEAD: &str =
        "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nConnection: close\r\n\r\n";

    #[test]
    fn a_response_is_one_write() {
        let (mut w, writes) = recorder();
        write_response(&mut w, 202, "Accepted", "{\"job\":7}\n");
        write_response(&mut w, 404, "Not Found", &json_error("no such job"));
        drop(w);
        let writes: Vec<String> = writes.into_iter().map(text).collect();
        assert_eq!(
            writes,
            [
                "HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n\
                 Content-Length: 10\r\nConnection: close\r\n\r\n{\"job\":7}\n",
                "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
                 Content-Length: 24\r\nConnection: close\r\n\r\n{\"error\":\"no such job\"}\n",
            ]
        );
    }

    #[test]
    fn a_finished_job_streams_in_one_write_with_its_error_line() {
        let entry = JobEntry::new();
        entry.inner.lock().expect("job").lines = vec!["{\"unit\":0}".into(), "{\"unit\":1}".into()];
        entry.finish(JobStatus::Failed, Some("server shutting down".into()));
        let (mut w, writes) = recorder();
        stream_results(&mut w, &entry);
        drop(w);
        let writes: Vec<String> = writes.into_iter().map(text).collect();
        assert_eq!(
            writes,
            [format!(
                "{JSONL_HEAD}{{\"unit\":0}}\n{{\"unit\":1}}\n{{\"error\":\"server shutting down\"}}\n"
            )]
        );
    }

    #[test]
    fn lines_reach_the_stream_in_order_while_the_job_runs() {
        let entry = JobEntry::new();
        let (mut w, writes) = recorder();
        std::thread::scope(|s| {
            let entry = &entry;
            let stream = s.spawn(move || stream_results(&mut w, entry));
            let mut sink = LineSink {
                entry,
                buf: Vec::new(),
            };
            // Each line waits for the stream's write before the next one
            // exists, so every batch holds exactly one line; the job is
            // marked done only after the last of them was written.
            for unit in 0..3 {
                let line = format!("{{\"unit\":{unit}}}\n");
                sink.write_all(line.as_bytes()).expect("sink");
                let head = if unit == 0 { JSONL_HEAD } else { "" };
                assert_eq!(
                    text(writes.recv().expect("a write")),
                    format!("{head}{line}")
                );
            }
            entry.finish(JobStatus::Done, None);
            stream.join().expect("the stream ends with its job");
        });
        assert_eq!(
            writes.try_iter().count(),
            0,
            "nothing follows the last line"
        );
    }

    #[test]
    fn job_paths_parse() {
        assert_eq!(parse_job_path("/jobs/7"), Some((7, false)));
        assert_eq!(parse_job_path("/jobs/7/results"), Some((7, true)));
        assert_eq!(parse_job_path("/jobs/x"), None);
        assert_eq!(parse_job_path("/nope"), None);
    }
}
