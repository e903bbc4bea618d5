//! Machine-readable perf trajectory: `BENCH_engine.json`.
//!
//! The engine-throughput bench appends one entry per run (labelled via
//! `GPSCHED_BENCH_LABEL`) to a JSON file, so the repository accumulates a
//! baseline-vs-optimized history that CI can upload as an artifact and
//! future PRs can extend. The file is written by [`render`] in a fixed
//! layout and read back through [`gpsched_trace::json`]:
//!
//! ```json
//! {
//!   "bench": "engine_throughput",
//!   "entries": [
//!     { "label": "pr2-baseline", "units": 78,
//!       "loops_per_sec": { "serial/no-cache": 154.0 } }
//!   ]
//! }
//! ```

use gpsched_trace::json::{self, escape, Json};
use std::fmt::Write as _;
use std::path::Path;

/// One bench run: a label plus loops-scheduled/sec per configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Human-chosen tag of the run (e.g. `pr2-baseline`, `ci`).
    pub label: String,
    /// Work items per timed run — the job's *actual* unit count
    /// (loops × machines × algorithms), never hardcoded.
    pub units: usize,
    /// `(configuration name, loops-scheduled per second)` pairs, in the
    /// order the bench reports them.
    pub loops_per_sec: Vec<(String, f64)>,
    /// Slowdown of the serial/no-cache configuration with a trace session
    /// *active* versus tracing disabled, percent (`None` for entries
    /// predating the tracing subsystem). Disabled-trace neutrality is
    /// tracked separately, by comparing `serial/no-cache` across entries.
    pub trace_overhead_pct: Option<f64>,
}

/// Reads the entries of an existing trajectory file. A missing file yields
/// an empty history; a malformed one is an error (so a bad write never
/// silently discards history).
///
/// # Errors
///
/// Returns an I/O error for unreadable files and `InvalidData` for
/// unparseable ones.
pub fn read_entries(path: &Path) -> std::io::Result<Vec<BenchEntry>> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(path)?;
    parse_entries(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{path:?}: {e}")))
}

/// Appends `entry` to the trajectory at `path`, creating the file if
/// needed, and rewrites the whole document.
///
/// # Errors
///
/// Propagates I/O and parse errors from [`read_entries`] and the write.
pub fn append_entry(path: &Path, entry: BenchEntry) -> std::io::Result<()> {
    let mut entries = read_entries(path)?;
    entries.push(entry);
    std::fs::write(path, render(&entries))
}

/// Serializes a full trajectory document.
pub fn render(entries: &[BenchEntry]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"engine_throughput\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"label\": \"{}\", \"units\": {}, \"loops_per_sec\": {{ ",
            escape(&e.label),
            e.units
        );
        for (j, (name, v)) in e.loops_per_sec.iter().enumerate() {
            let _ = write!(out, "\"{}\": {:.1}", escape(name), v);
            if j + 1 < e.loops_per_sec.len() {
                out.push_str(", ");
            }
        }
        out.push_str(" }");
        if let Some(pct) = e.trace_overhead_pct {
            let _ = write!(out, ", \"trace_overhead_pct\": {pct:.2}");
        }
        out.push_str(" }");
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads a trajectory document. Unknown keys are errors, not ignored:
/// [`append_entry`] rewrites the whole file, so a silently dropped key
/// would lose history.
fn parse_entries(text: &str) -> Result<Vec<BenchEntry>, String> {
    let mut entries = Vec::new();
    for (key, value) in members(&json::parse(text)?)? {
        match (key.as_str(), value) {
            ("bench", Json::Str(_)) => {}
            ("entries", Json::Arr(items)) => {
                for item in items {
                    entries.push(entry(item)?);
                }
            }
            (other, _) => return Err(format!("unexpected key or value type {other:?}")),
        }
    }
    Ok(entries)
}

fn entry(value: &Json) -> Result<BenchEntry, String> {
    let mut entry = BenchEntry {
        label: String::new(),
        units: 0,
        loops_per_sec: Vec::new(),
        trace_overhead_pct: None,
    };
    for (key, value) in members(value)? {
        match (key.as_str(), value) {
            ("label", Json::Str(label)) => entry.label = label.clone(),
            ("units", Json::Num(units)) => entry.units = *units as usize,
            ("trace_overhead_pct", Json::Num(pct)) => entry.trace_overhead_pct = Some(*pct),
            ("loops_per_sec", rates) => {
                for (name, rate) in members(rates)? {
                    let rate = rate
                        .as_f64()
                        .ok_or_else(|| format!("loops_per_sec {name:?} is not a number"))?;
                    entry.loops_per_sec.push((name.clone(), rate));
                }
            }
            (other, _) => return Err(format!("unexpected entry key or value type {other:?}")),
        }
    }
    Ok(entry)
}

fn members(value: &Json) -> Result<&[(String, Json)], String> {
    value
        .as_obj()
        .ok_or_else(|| "expected an object".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<BenchEntry> {
        vec![
            BenchEntry {
                label: "pr2-baseline".into(),
                units: 78,
                loops_per_sec: vec![
                    ("serial/no-cache".into(), 154.0),
                    ("serial/cached".into(), 214.5),
                ],
                trace_overhead_pct: None,
            },
            BenchEntry {
                label: "pr6-trace-neutrality".into(),
                units: 78,
                loops_per_sec: vec![("serial/no-cache".into(), 352.0)],
                trace_overhead_pct: Some(1.25),
            },
        ]
    }

    #[test]
    fn render_parse_roundtrip() {
        let entries = sample();
        let text = render(&entries);
        assert_eq!(parse_entries(&text).unwrap(), entries);
    }

    #[test]
    fn empty_history_roundtrips() {
        let text = render(&[]);
        assert_eq!(parse_entries(&text).unwrap(), vec![]);
    }

    #[test]
    fn labels_with_quotes_survive() {
        let entries = vec![BenchEntry {
            label: "a\"b\\c".into(),
            units: 1,
            loops_per_sec: vec![],
            trace_overhead_pct: None,
        }];
        assert_eq!(parse_entries(&render(&entries)).unwrap(), entries);
    }

    #[test]
    fn control_characters_escape_to_valid_json() {
        let entries = vec![BenchEntry {
            label: "a\tb\rc\u{1}d".into(),
            units: 1,
            loops_per_sec: vec![],
            trace_overhead_pct: None,
        }];
        let text = render(&entries);
        // No raw control characters inside the document.
        assert!(!text
            .chars()
            .any(|c| (c as u32) < 0x20 && c != '\n' && c != ' '));
        assert!(text.contains("\\t"));
        assert_eq!(parse_entries(&text).unwrap(), entries);
    }

    #[test]
    fn append_accumulates_on_disk() {
        let dir = std::env::temp_dir().join(format!("gpsched-traj-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_engine.json");
        let _ = std::fs::remove_file(&path);
        for e in sample() {
            append_entry(&path, e).unwrap();
        }
        let back = read_entries(&path).unwrap();
        assert_eq!(back, sample());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_file_is_an_error_not_data_loss() {
        let dir = std::env::temp_dir().join(format!("gpsched-traj-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_engine.json");
        std::fs::write(&path, "{ not json").unwrap();
        assert!(read_entries(&path).is_err());
        assert!(append_entry(
            &path,
            BenchEntry {
                label: "x".into(),
                units: 0,
                loops_per_sec: vec![],
                trace_overhead_pct: None
            }
        )
        .is_err());
        // The malformed file is untouched.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{ not json");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_keys_wrong_types_and_trailing_data_are_rejected() {
        let ok = render(&sample());
        assert!(parse_entries(&ok).is_ok());
        for (bad, why) in [
            (ok.replacen("\"bench\"", "\"bnech\"", 1), "unknown key"),
            (ok.replacen("\"units\"", "\"unit\"", 1), "unknown entry key"),
            (
                ok.replacen("\"label\": \"pr2-baseline\"", "\"label\": 2", 1),
                "wrong type",
            ),
            (ok.replacen("154.0", "\"fast\"", 1), "non-numeric rate"),
            (ok.clone() + "{}", "trailing data"),
            (ok[..ok.len() - 3].to_string(), "truncated"),
        ] {
            assert_ne!(bad, ok, "{why}: fixture edit must apply");
            assert!(parse_entries(&bad).is_err(), "{why} accepted");
        }
    }

    #[test]
    fn committed_trajectory_round_trips_byte_for_byte() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
        let entries = read_entries(&path).unwrap();
        assert!(!entries.is_empty(), "committed history is empty");
        let committed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(render(&entries), committed);
    }

    #[test]
    fn parses_hand_written_document() {
        let text = r#"{
            "bench": "engine_throughput",
            "entries": [
                { "label": "x", "units": 10,
                  "loops_per_sec": { "a": 1.5, "b": 2e2 } },
                { "label": "y", "units": 10,
                  "loops_per_sec": { "a": 1.5 },
                  "trace_overhead_pct": 0.75 }
            ]
        }"#;
        let e = parse_entries(text).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].units, 10);
        assert_eq!(e[0].loops_per_sec[1], ("b".into(), 200.0));
        assert_eq!(e[0].trace_overhead_pct, None);
        assert_eq!(e[1].trace_overhead_pct, Some(0.75));
    }
}
