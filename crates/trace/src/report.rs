//! Aggregation of raw span records into a per-phase profile.
//!
//! Spans on one thread nest (RAII guards cannot partially overlap), so a
//! containment stack per thread recovers the parent/child structure and
//! with it **self time**: a phase's total duration minus the time spent in
//! its direct children. Self time is what the `profile` subcommand ranks
//! by — it answers "where does the wall clock actually go" without a
//! parent phase double-counting everything beneath it.

use crate::json::escape;
use crate::session::Trace;
use crate::span::SpanRecord;
use std::collections::HashMap;

/// Aggregate statistics for one span name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Span name (`crate.phase.detail` convention).
    pub name: String,
    /// How many spans carried this name.
    pub count: u64,
    /// Summed wall time of all spans with this name, nanoseconds.
    pub total_ns: u64,
    /// Summed wall time minus time spent in directly nested spans.
    pub self_ns: u64,
}

/// A trace reduced to per-phase statistics plus the counter totals —
/// what the text profile report renders and the daemon's `GET /metrics`
/// serves.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// One entry per distinct span name, sorted by descending self time
    /// (ties broken by name).
    pub phases: Vec<PhaseStat>,
    /// Non-zero counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Session wall time in nanoseconds.
    pub wall_ns: u64,
    /// Spans lost to the per-thread buffer cap (profile is partial if > 0).
    pub dropped: u64,
}

impl TraceSummary {
    /// Builds the summary from a collected [`Trace`].
    pub fn from_trace(trace: &Trace) -> TraceSummary {
        // Partition spans by thread; trace.spans is globally sorted by
        // start time, which per-thread is exactly the order guards opened.
        let mut by_tid: HashMap<u32, Vec<&SpanRecord>> = HashMap::new();
        for ev in &trace.spans {
            by_tid.entry(ev.tid).or_default().push(ev);
        }

        let mut agg: HashMap<&str, PhaseStat> = HashMap::new();
        for events in by_tid.values() {
            // Containment stack: (end_ns, child_time_ns accumulated so far).
            let mut stack: Vec<(u64, u64, &SpanRecord)> = Vec::new();
            for ev in events {
                let end = ev.ts_ns + ev.dur_ns;
                while let Some(&(top_end, _, _)) = stack.last() {
                    if top_end <= ev.ts_ns {
                        let (_, child_ns, done) = stack.pop().unwrap();
                        record(&mut agg, done, child_ns);
                    } else {
                        break;
                    }
                }
                if let Some(top) = stack.last_mut() {
                    // `ev` is a direct child of the span below it.
                    top.1 += ev.dur_ns;
                }
                stack.push((end, 0, ev));
            }
            while let Some((_, child_ns, done)) = stack.pop() {
                record(&mut agg, done, child_ns);
            }
        }

        let mut phases: Vec<PhaseStat> = agg.into_values().collect();
        phases.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        TraceSummary {
            phases,
            counters: trace.counters.clone(),
            wall_ns: trace.wall_ns,
            dropped: trace.dropped,
        }
    }

    /// Looks up one phase by span name.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Total for a named counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Serializes the summary as one JSON object — the `gpsched-serve`
    /// `GET /metrics` body. Hand-rolled like the rest of the workspace's
    /// JSON ([`crate::json`]): phases in the summary's (self-time) order,
    /// counters in name order, so the export is byte-deterministic for a
    /// given summary.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                escape(&p.name),
                p.count,
                p.total_ns,
                p.self_ns
            ));
        }
        out.push_str("],\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape(name), value));
        }
        out.push_str(&format!(
            "}},\"wall_ns\":{},\"dropped\":{}}}",
            self.wall_ns, self.dropped
        ));
        out
    }

    /// Renders the text profile report: the top `top_n` phases by self
    /// time, then every counter. `top_n == 0` means all phases.
    pub fn render(&self, top_n: usize) -> String {
        let shown = if top_n == 0 {
            self.phases.len()
        } else {
            top_n.min(self.phases.len())
        };
        let name_w = self.phases[..shown]
            .iter()
            .map(|p| p.name.len())
            .chain(std::iter::once("phase".len()))
            .max()
            .unwrap_or(5);
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} phases, wall {:.3} ms\n",
            self.phases.len(),
            self.wall_ns as f64 / 1e6
        ));
        if self.dropped > 0 {
            out.push_str(&format!(
                "warning: {} spans dropped (buffer cap) — self times are partial\n",
                self.dropped
            ));
        }
        out.push_str(&format!(
            "{:name_w$}  {:>8}  {:>12}  {:>12}  {:>6}\n",
            "phase", "count", "total ms", "self ms", "self%"
        ));
        let wall = self.wall_ns.max(1) as f64;
        for p in &self.phases[..shown] {
            out.push_str(&format!(
                "{:name_w$}  {:>8}  {:>12.3}  {:>12.3}  {:>5.1}%\n",
                p.name,
                p.count,
                p.total_ns as f64 / 1e6,
                p.self_ns as f64 / 1e6,
                100.0 * p.self_ns as f64 / wall,
            ));
        }
        // The undo-log scoreboard: how much speculative placement work was
        // unwound in place instead of being cloned away (PR 8). Entries
        // count every logged inverse op, committed trials included.
        let rollbacks = self.counter("sched.trial_rollbacks");
        if rollbacks > 0 {
            let entries = self.counter("sched.undo_entries");
            out.push_str(&format!(
                "undo: {rollbacks} trial rollbacks, {entries} undo entries logged ({:.1} entries/rollback)\n",
                entries as f64 / rollbacks as f64,
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let cw = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:cw$}  {value}\n"));
            }
        }
        out
    }
}

fn record<'a>(agg: &mut HashMap<&'a str, PhaseStat>, ev: &'a SpanRecord, child_ns: u64) {
    // Clamp: a child whose end drifts past its parent's (sub-ns rounding)
    // must not push self time negative.
    let self_ns = ev.dur_ns.saturating_sub(child_ns);
    let entry = agg.entry(ev.name.as_str()).or_insert_with(|| PhaseStat {
        name: ev.name.clone(),
        count: 0,
        total_ns: 0,
        self_ns: 0,
    });
    entry.count += 1;
    entry.total_ns += ev.dur_ns;
    entry.self_ns += self_ns;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecord;

    fn span(name: &str, tid: u32, ts: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            detail: None,
            tid,
            thread: format!("thread-{tid}"),
            ts_ns: ts,
            dur_ns: dur,
        }
    }

    fn trace(spans: Vec<SpanRecord>) -> Trace {
        let wall = spans.iter().map(|s| s.ts_ns + s.dur_ns).max().unwrap_or(0);
        Trace {
            spans,
            counters: vec![("c.x".to_string(), 7)],
            wall_ns: wall,
            dropped: 0,
        }
    }

    #[test]
    fn self_time_excludes_direct_children_only() {
        // outer [0,100) contains mid [10,60) contains inner [20,30).
        let t = trace(vec![
            span("outer", 0, 0, 100),
            span("mid", 0, 10, 50),
            span("inner", 0, 20, 10),
        ]);
        let s = t.summary();
        assert_eq!(s.phase("outer").unwrap().self_ns, 50); // 100 - mid(50)
        assert_eq!(s.phase("mid").unwrap().self_ns, 40); // 50 - inner(10)
        assert_eq!(s.phase("inner").unwrap().self_ns, 10);
        assert_eq!(s.counter("c.x"), 7);
    }

    #[test]
    fn siblings_both_subtract_from_parent() {
        let t = trace(vec![
            span("outer", 0, 0, 100),
            span("a", 0, 0, 30),
            span("b", 0, 40, 30),
        ]);
        let s = t.summary();
        assert_eq!(s.phase("outer").unwrap().self_ns, 40);
        assert_eq!(s.phase("a").unwrap().total_ns, 30);
    }

    #[test]
    fn threads_aggregate_independently() {
        let t = trace(vec![
            span("work", 0, 0, 50),
            span("work", 1, 0, 70), // same window, different thread: no nesting
        ]);
        let s = t.summary();
        let w = s.phase("work").unwrap();
        assert_eq!(w.count, 2);
        assert_eq!(w.total_ns, 120);
        assert_eq!(w.self_ns, 120);
    }

    #[test]
    fn repeated_phases_accumulate_and_sort_by_self_time() {
        let t = trace(vec![
            span("hot", 0, 0, 60),
            span("cold", 0, 100, 10),
            span("hot", 0, 200, 60),
        ]);
        let s = t.summary();
        assert_eq!(s.phases[0].name, "hot");
        assert_eq!(s.phases[0].count, 2);
        assert_eq!(s.phases[0].total_ns, 120);
        let text = s.render(10);
        assert!(text.contains("hot"));
        assert!(text.contains("c.x"));
    }

    #[test]
    fn json_export_is_valid_and_complete() {
        let t = trace(vec![span("outer", 0, 0, 100), span("mid", 0, 10, 50)]);
        let s = t.summary();
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"phases\":["));
        assert!(j.contains("\"name\":\"outer\",\"count\":1,\"total_ns\":100,\"self_ns\":50"));
        assert!(j.contains("\"counters\":{\"c.x\":7}"));
        assert!(j.contains(&format!("\"wall_ns\":{}", s.wall_ns)));
        assert!(j.contains("\"dropped\":0"));
        // Escaping: a hostile name must not break the JSON.
        let hostile = trace(vec![span("a\"b\\c\n", 0, 0, 10)]).summary().to_json();
        assert!(hostile.contains("\"name\":\"a\\\"b\\\\c\\n\""), "{hostile}");
        let doc = crate::json::parse(&hostile).expect("valid JSON");
        let phases = doc.get("phases").and_then(|p| p.as_arr()).unwrap();
        let name = phases[0].get("name").and_then(|n| n.as_str());
        assert_eq!(name, Some("a\"b\\c\n"));
    }

    #[test]
    fn undo_row_appears_exactly_when_rollbacks_happened() {
        let mut t = trace(vec![span("work", 0, 0, 50)]);
        assert!(!t.summary().render(5).contains("undo:"));
        t.counters.push(("sched.trial_rollbacks".to_string(), 4));
        t.counters.push(("sched.undo_entries".to_string(), 42));
        let text = t.summary().render(5);
        assert!(text
            .contains("undo: 4 trial rollbacks, 42 undo entries logged (10.5 entries/rollback)"));
    }
}
