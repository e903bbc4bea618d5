//! # gpsched-trace — zero-overhead tracing and metrics
//!
//! A process-wide registry of **spans** (RAII-timed phases, recorded into
//! per-thread bounded buffers) and **counters** (relaxed atomics), built
//! std-only like the rest of the workspace.
//!
//! The contract that makes this safe to thread through every hot path:
//!
//! * **Disabled is the default and costs one relaxed atomic load** per
//!   [`span!`]/[`counter!`] site (plus a predictable branch). No
//!   allocation, no `Instant::now()`, no formatting — macro arguments are
//!   not even evaluated. The budget is ≤ 1% of a serial, cache-off sweep;
//!   gpbench `--trace 1` reports what *enabled* tracing costs as
//!   `trace.overhead_pct`, from paired traced and untraced replays.
//! * **Enabled is scoped to a [`TraceSession`]**: sessions serialize
//!   through a global lock, reset every counter on entry, and drain the
//!   per-thread span buffers on [`TraceSession::finish`], yielding a
//!   [`Trace`] — raw span records plus counter totals.
//! * **Observation never mutates**: instrumented code behaves
//!   byte-identically with tracing on or off (the engine pins this with a
//!   traced-vs-untraced sweep equivalence test).
//!
//! Span names follow the `crate.phase.detail` convention (`engine.unit`,
//! `sched.ii_attempt`, `partition.refine`, `ddg.timing.prepare`); see
//! DESIGN.md §10 for the taxonomy.
//!
//! ```
//! use gpsched_trace::{counter, span, TraceSession};
//!
//! let session = TraceSession::start();
//! {
//!     let _outer = span!("demo.outer");
//!     let _inner = span!("demo.inner", "item {}", 3);
//!     counter!("demo.items");
//!     counter!("demo.bytes", 128);
//! }
//! let trace = session.finish();
//! assert_eq!(trace.spans.len(), 2);
//! assert_eq!(trace.counter("demo.items"), 1);
//! assert_eq!(trace.counter("demo.bytes"), 128);
//! let summary = trace.summary();
//! assert_eq!(summary.phase("demo.outer").unwrap().count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod report;
mod session;
mod span;

pub use report::{PhaseStat, TraceSummary};
pub use session::{snapshot, summary_if_active, Trace, TraceSession};
pub use span::{set_thread_label, SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Master switch. Off by default; flipped by [`TraceSession`] only.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Session epoch: bumped on every session start *and* finish, so a span
/// guard created inside one session never records into another.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Whether tracing is currently enabled. This is the whole disabled-path
/// cost: one relaxed atomic load at every instrumentation site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[inline]
pub(crate) fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

#[inline]
pub(crate) fn current_epoch() -> u64 {
    EPOCH.load(Ordering::Relaxed)
}

pub(crate) fn bump_epoch() -> u64 {
    EPOCH.fetch_add(1, Ordering::SeqCst) + 1
}

/// Locks a mutex, ignoring poison: trace state stays usable after a
/// panicking test — the next session resets everything anyway.
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// The global counter registry: name → leaked atomic. Counters are few
/// (dozens) and live for the process; leaking keeps `add` lock-free after
/// the first touch per call site.
fn counter_registry() -> &'static Mutex<Vec<(&'static str, &'static AtomicU64)>> {
    static REGISTRY: OnceLock<Mutex<Vec<(&'static str, &'static AtomicU64)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// One `counter!` call site: resolves its name to the shared process-wide
/// atomic on first use, then increments lock-free. Two call sites with the
/// same name share one total.
pub struct CounterHandle {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl CounterHandle {
    /// A handle for `name` (used by the [`counter!`] macro as a per-site
    /// `static`).
    pub const fn new(name: &'static str) -> Self {
        CounterHandle {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Adds `n` to the counter (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        let counter = self.cell.get_or_init(|| register_counter(self.name));
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Finds or creates the process-wide counter for `name`.
fn register_counter(name: &'static str) -> &'static AtomicU64 {
    let mut reg = lock_ignore_poison(counter_registry());
    if let Some(&(_, c)) = reg.iter().find(|(n, _)| *n == name) {
        return c;
    }
    let leaked: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    reg.push((name, leaked));
    leaked
}

/// Resets every registered counter to zero (session start).
pub(crate) fn reset_counters() {
    for (_, c) in lock_ignore_poison(counter_registry()).iter() {
        c.store(0, Ordering::SeqCst);
    }
}

/// Snapshot of every registered counter with a non-zero total, sorted by
/// name.
pub(crate) fn counter_snapshot() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = lock_ignore_poison(counter_registry())
        .iter()
        .map(|(n, c)| (n.to_string(), c.load(Ordering::SeqCst)))
        .filter(|(_, v)| *v > 0)
        .collect();
    out.sort();
    out
}

/// An owner-embedded batching cell for hot counters: increments accumulate
/// in a plain (non-atomic) integer while tracing is enabled, and flush to
/// the process-wide counter in a single `fetch_add` when the owner drops
/// (or on an explicit [`BatchCounter::flush`]).
///
/// [`counter!`] costs an atomic RMW per increment; on paths that fire
/// hundreds of thousands of times per second (per-trial placement, per
/// Bellman–Ford run) that sum is the dominant share of enabled-tracing
/// overhead. Embedding a `BatchCounter` in the struct that already owns
/// the hot loop replaces all of those with one add per increment and one
/// atomic per owner lifetime.
///
/// Semantics that keep totals exact:
///
/// * **Clones start at zero** — a cloned owner must not re-flush work
///   already attributed to the original (the scheduler's shadow-undo
///   clone, for instance).
/// * **Drop flushes**, so an owner that dies before the session's
///   `finish` loses nothing. An owner still alive across `finish` has its
///   pending increments attributed to the *next* session instead — keep
///   batch-counted owners scoped inside the traced region.
#[derive(Debug)]
pub struct BatchCounter {
    name: &'static str,
    pending: u64,
}

impl BatchCounter {
    /// A cell feeding the process-wide counter `name`.
    pub const fn new(name: &'static str) -> Self {
        BatchCounter { name, pending: 0 }
    }

    /// Adds `n` to the pending total (no-op while tracing is disabled).
    #[inline]
    pub fn add(&mut self, n: u64) {
        if enabled() {
            self.pending += n;
        }
    }

    /// Flushes the pending total into the process-wide counter.
    pub fn flush(&mut self) {
        if self.pending != 0 {
            register_counter(self.name).fetch_add(self.pending, Ordering::Relaxed);
            self.pending = 0;
        }
    }
}

impl Clone for BatchCounter {
    fn clone(&self) -> Self {
        BatchCounter::new(self.name)
    }
}

impl Drop for BatchCounter {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Increments a named counter when tracing is enabled.
///
/// `counter!("cache.hit")` adds 1; `counter!("graph.bf.rounds", n)` adds
/// `n`. The count expression is only evaluated when tracing is on. Sites
/// inside hot loops should batch through a [`BatchCounter`] instead.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, 1u64)
    };
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            static __GPSCHED_COUNTER: $crate::CounterHandle = $crate::CounterHandle::new($name);
            __GPSCHED_COUNTER.add($n as u64);
        }
    };
}

/// Opens a span: returns an RAII guard that records the phase's wall time
/// into the current thread's buffer when dropped (only while a session is
/// active).
///
/// `span!("sched.ii_attempt")` records the bare name;
/// `span!("engine.unit", "{} on {}", a, b)` attaches a formatted detail
/// string — the format arguments are only evaluated when tracing is on.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
    ($name:expr, $($detail:tt)+) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter_with($name, format!($($detail)+))
        } else {
            $crate::SpanGuard::inactive()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_counters_shared_by_name() {
        // Sessions serialize; grab one to get exclusive trace state.
        let s = TraceSession::start();
        counter!("test.shared");
        {
            // A second call site with the same name lands in one total.
            counter!("test.shared");
        }
        let t = s.finish();
        assert_eq!(t.counter("test.shared"), 2);
        // With the session lock held (and no session), tracing is off and
        // counter! must record nothing.
        {
            let _lock = crate::session::hold_session_lock();
            assert!(!enabled());
            counter!("test.shared");
        }
        let s = TraceSession::start();
        let t = s.finish();
        assert_eq!(t.counter("test.shared"), 0);
    }

    #[test]
    fn batch_counter_flushes_on_drop_and_clones_start_clean() {
        let s = TraceSession::start();
        let mut c = BatchCounter::new("test.batched");
        c.add(3);
        c.add(4);
        // A clone must not re-flush the original's pending increments.
        let clone = c.clone();
        drop(clone);
        drop(c);
        let t = s.finish();
        assert_eq!(t.counter("test.batched"), 7);

        // Disabled: increments are discarded, drop flushes nothing.
        {
            let _lock = crate::session::hold_session_lock();
            let mut c = BatchCounter::new("test.batched");
            c.add(100);
            drop(c);
        }
        let s = TraceSession::start();
        let t = s.finish();
        assert_eq!(t.counter("test.batched"), 0);
    }

    #[test]
    fn count_expression_not_evaluated_when_disabled() {
        // The session lock guarantees tracing stays off for the duration.
        let _lock = crate::session::hold_session_lock();
        let mut evaluated = false;
        {
            let mut bump = || {
                evaluated = true;
                1u64
            };
            counter!("test.lazy", bump());
            let _ = &mut bump;
        }
        assert!(!evaluated);
    }
}
