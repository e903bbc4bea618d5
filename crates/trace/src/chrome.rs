//! Chrome Trace Event Format export.
//!
//! Emits the JSON object form (`{"traceEvents": [...]}`) understood by
//! `chrome://tracing` and Perfetto: one complete event (`"ph": "X"`) per
//! span with microsecond timestamps, `"M"` metadata events naming each
//! thread, and a `"C"` counter sample carrying the session's counter
//! totals. [`span_names_in_chrome_json`] reads a trace back through
//! [`crate::json`] — the CI trace smoke lane runs it via `gpsched-engine
//! trace-check`.

use crate::json::{escape, parse};
use crate::session::Trace;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Serializes a trace to Chrome Trace Event JSON.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(128 + trace.spans.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };

    // Process + thread metadata first, as Chrome expects.
    sep(&mut out);
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"gpsched\"}}",
    );
    let mut threads: BTreeMap<u32, &str> = BTreeMap::new();
    for ev in &trace.spans {
        threads.entry(ev.tid).or_insert(ev.thread.as_str());
    }
    for (tid, label) in &threads {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(label)
        );
    }

    for ev in &trace.spans {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{},\"dur\":{}",
            ev.tid,
            escape(&ev.name),
            us(ev.ts_ns),
            us(ev.dur_ns),
        );
        if let Some(detail) = &ev.detail {
            let _ = write!(out, ",\"args\":{{\"detail\":\"{}\"}}", escape(detail));
        }
        out.push('}');
    }

    if !trace.counters.is_empty() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"counters\",\"ts\":{},\"args\":{{",
            us(trace.wall_ns)
        );
        for (i, (name, value)) in trace.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(name), value);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Writes [`to_chrome_json`] to `path`.
pub fn write_chrome_json(path: &Path, trace: &Trace) -> io::Result<()> {
    fs::write(path, to_chrome_json(trace))
}

/// Nanoseconds → microseconds with three decimals (Chrome's `ts`/`dur`
/// unit), trimmed of a trailing `.000`.
fn us(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        format!("{whole}.{frac:03}")
    }
}

/// Validates Chrome trace JSON and returns the distinct `"X"` span names
/// it contains, sorted. This is what the CI smoke lane asserts against.
pub fn span_names_in_chrome_json(text: &str) -> Result<Vec<String>, String> {
    let doc = parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("missing traceEvents array")?;
    let mut names: Vec<String> = Vec::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or("event without ph")?;
        if ph == "X" {
            let name = ev
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or("X event without name")?;
            ev.get("ts")
                .and_then(|v| v.as_f64())
                .ok_or("X event without ts")?;
            ev.get("dur")
                .and_then(|v| v.as_f64())
                .ok_or("X event without dur")?;
            names.push(name.to_string());
        }
    }
    names.sort();
    names.dedup();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::span::SpanRecord;

    fn sample_trace() -> Trace {
        Trace {
            spans: vec![
                SpanRecord {
                    name: "engine.unit".to_string(),
                    detail: Some("loop\"7\"@2c".to_string()),
                    tid: 0,
                    thread: "worker-0".to_string(),
                    ts_ns: 1_500,
                    dur_ns: 2_000_000,
                },
                SpanRecord {
                    name: "sched.ii_attempt".to_string(),
                    detail: None,
                    tid: 1,
                    thread: "worker-1".to_string(),
                    ts_ns: 3_000,
                    dur_ns: 500_250,
                },
            ],
            counters: vec![("cache.hit".to_string(), 42)],
            wall_ns: 5_000_000,
            dropped: 0,
        }
    }

    #[test]
    fn export_round_trips_through_parser() {
        let json = to_chrome_json(&sample_trace());
        let doc = parse(&json).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 2 thread_name + 2 spans + 1 counter sample.
        assert_eq!(events.len(), 6);

        let names = span_names_in_chrome_json(&json).unwrap();
        assert_eq!(names, ["engine.unit", "sched.ii_attempt"]);

        // Spot-check a span's fields survive, including the escaped detail.
        let unit = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("engine.unit"))
            .unwrap();
        assert_eq!(unit.get("ts").unwrap().as_f64().unwrap(), 1.5);
        assert_eq!(unit.get("dur").unwrap().as_f64().unwrap(), 2000.0);
        let detail = unit.get("args").unwrap().get("detail").unwrap();
        assert_eq!(detail.as_str().unwrap(), "loop\"7\"@2c");

        // Counter totals ride along as a "C" sample.
        let counters = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .unwrap();
        assert_eq!(
            counters.get("args").unwrap().get("cache.hit").unwrap(),
            &Json::Num(42.0)
        );
    }

    #[test]
    fn parser_handles_escapes_nesting_and_rejects_garbage() {
        // The reader `span_names_in_chrome_json` validates traces with.
        let doc = parse(r#"{"a":[1,2.5,-3e2],"b":"x\nyA","c":{"d":null,"e":true}}"#).unwrap();
        assert_eq!(doc.get("b").unwrap().as_str().unwrap(), "x\nyA");
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2],
            Json::Num(-300.0)
        );
        assert_eq!(doc.get("c").unwrap().get("d").unwrap(), &Json::Null);
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("\"\\u12\"").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn empty_trace_is_still_valid_json() {
        let t = Trace {
            spans: vec![],
            counters: vec![],
            wall_ns: 0,
            dropped: 0,
        };
        let json = to_chrome_json(&t);
        let names = span_names_in_chrome_json(&json).unwrap();
        assert!(names.is_empty());
    }
}
