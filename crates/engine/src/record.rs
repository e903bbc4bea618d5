//! Sweep results: per-unit records, JSONL rendering and aggregate stats.

use gpsched_trace::json::escape;
use std::collections::BTreeMap;
use std::time::Duration;

/// The outcome of scheduling one (loop, machine, algorithm) unit.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Deterministic unit index within the job (see
    /// [`crate::JobSpec::unit`]).
    pub unit: usize,
    /// Aggregation group (program name).
    pub group: String,
    /// Loop name.
    pub loop_name: String,
    /// Machine short name.
    pub machine: String,
    /// Algorithm display name.
    pub algorithm: String,
    /// Achieved initiation interval.
    pub ii: i64,
    /// Schedule length of one iteration.
    pub length: i64,
    /// Useful ops per iteration (overhead ops excluded).
    pub ops: usize,
    /// Trip count used for the cycle accounting.
    pub trips: u64,
    /// Total cycles at that trip count.
    pub cycles: u64,
    /// Useful instructions per cycle.
    pub ipc: f64,
    /// Whether the modulo scheduler exhausted its II budget and the list
    /// fallback fired (always `false` for the List algorithm, which asks
    /// for list scheduling outright).
    pub list_fallback: bool,
    /// Times the GP driver recomputed the partition.
    pub repartitions: usize,
    /// Whether this unit's MII/partition came from the memo cache.
    pub cache_hit: bool,
    /// Wall-clock microseconds spent computing this unit's schedule
    /// (including MII/partition preprocessing when it was a cache miss).
    /// Runs another unit of a cached portfolio job computed for the same
    /// loop and machine are read, not re-timed: the unit pays only its
    /// own work plus any wait for a run still in flight.
    pub sched_time_us: u64,
}

impl RunRecord {
    /// One JSON object (no trailing newline) — the JSONL line of this
    /// record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"unit\":{},{},\"cache_hit\":{},\"sched_time_us\":{}}}",
            self.unit,
            self.canonical_fields(),
            self.cache_hit,
            self.sched_time_us
        )
    }

    /// The deterministic fields of the JSONL line — everything except the
    /// unit index and the volatile measurements (`cache_hit` depends on
    /// scheduling races between workers, `sched_time_us` on the host).
    /// Two sweeps of the same job spec produce identical canonical fields
    /// for every unit regardless of worker count.
    pub fn canonical_fields(&self) -> String {
        format!(
            "\"group\":\"{}\",\"loop\":\"{}\",\"machine\":\"{}\",\"algorithm\":\"{}\",\
             \"ii\":{},\"length\":{},\"ops\":{},\"trips\":{},\"cycles\":{},\
             \"ipc\":{:.6},\"list_fallback\":{},\"repartitions\":{}",
            escape(&self.group),
            escape(&self.loop_name),
            escape(&self.machine),
            escape(&self.algorithm),
            self.ii,
            self.length,
            self.ops,
            self.trips,
            self.cycles,
            self.ipc,
            self.list_fallback,
            self.repartitions
        )
    }
}

/// Reduces one JSONL result line to its deterministic core.
///
/// Drops the volatile tail — `cache_hit` (depends on races between
/// workers and on daemon cache warmth) and `sched_time_us` (depends on the
/// host) — keeping `{"unit":…,<canonical fields>}`. Two runs of the same
/// job produce byte-identical canonicalized lines whatever the worker
/// count, cache state, or transport (batch CLI vs daemon), which is what
/// the determinism tests and the CI serve-smoke lane compare. Lines
/// without the volatile tail (e.g. failure records) pass through
/// unchanged.
pub fn canonical_json_line(line: &str) -> String {
    match line.find(",\"cache_hit\":") {
        Some(i) => format!("{}}}", &line[..i]),
        None => line.to_string(),
    }
}

/// Aggregate statistics of one sweep.
#[derive(Clone, Debug)]
pub struct SweepStats {
    /// Units scheduled (loops × machines × algorithms).
    pub units: usize,
    /// Aggregate IPC: `Σ ops·trips / Σ cycles` over every unit.
    pub ipc: f64,
    /// Sum of per-unit scheduling time (≈ CPU time across workers).
    pub sched_time: Duration,
    /// Wall-clock time of the whole sweep.
    pub wall_time: Duration,
    /// Fraction of modulo-algorithm units that fell back to list
    /// scheduling.
    pub fallback_rate: f64,
    /// Units that could not be scheduled at all (reported as failure
    /// records, not panics — see [`crate::sweep::UnitFailure`]).
    pub failed: usize,
    /// Memo-cache hits.
    pub cache_hits: usize,
    /// Memo-cache misses.
    pub cache_misses: usize,
    /// Distinct (loop, machine, options) entries resident in the cache at
    /// sweep end.
    pub cache_entries: usize,
    /// Worker threads used.
    pub workers: usize,
}

impl SweepStats {
    /// Loops scheduled per wall-clock second.
    pub fn throughput(&self) -> f64 {
        self.units as f64 / self.wall_time.as_secs_f64().max(1e-9)
    }

    /// Builds stats from records plus run metadata.
    pub fn from_records(
        records: &[RunRecord],
        wall_time: Duration,
        cache_hits: usize,
        cache_misses: usize,
        workers: usize,
    ) -> Self {
        let mut total_ops: u128 = 0;
        let mut total_cycles: u128 = 0;
        let mut sched_us: u128 = 0;
        let mut modulo_units = 0usize;
        let mut fallbacks = 0usize;
        for r in records {
            total_ops += r.ops as u128 * r.trips as u128;
            total_cycles += r.cycles as u128;
            sched_us += r.sched_time_us as u128;
            if r.algorithm != "List" {
                modulo_units += 1;
                if r.list_fallback {
                    fallbacks += 1;
                }
            }
        }
        SweepStats {
            units: records.len(),
            ipc: if total_cycles == 0 {
                0.0
            } else {
                total_ops as f64 / total_cycles as f64
            },
            sched_time: Duration::from_micros(sched_us.min(u64::MAX as u128) as u64),
            wall_time,
            fallback_rate: if modulo_units == 0 {
                0.0
            } else {
                fallbacks as f64 / modulo_units as f64
            },
            failed: 0,
            cache_hits,
            cache_misses,
            cache_entries: 0,
            workers,
        }
    }

    /// A one-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} units in {:.2}s wall ({:.0} loops/s, {} workers) — aggregate IPC {:.3}, \
             sched CPU {:.2}s, fallback rate {:.2}%, cache {}/{} hits",
            self.units,
            self.wall_time.as_secs_f64(),
            self.throughput(),
            self.workers,
            self.ipc,
            self.sched_time.as_secs_f64(),
            self.fallback_rate * 100.0,
            self.cache_hits,
            self.cache_hits + self.cache_misses
        )
    }

    /// One line on memo-cache effectiveness: hit rate and resident entries,
    /// or an explicit "disabled" marker when the cache never ran.
    pub fn cache_summary(&self) -> String {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            return "cache: disabled (0 lookups)".to_string();
        }
        format!(
            "cache: {} hits / {} misses ({:.1}% hit rate), {} entries",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hits as f64 / lookups as f64,
            self.cache_entries
        )
    }
}

/// Per-(group, machine, algorithm) aggregate, weighted exactly like the
/// paper's whole-program measurement: `Σ ops·trips / Σ cycles`.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupAggregate {
    /// Group (program) name.
    pub group: String,
    /// Machine short name.
    pub machine: String,
    /// Algorithm display name.
    pub algorithm: String,
    /// Aggregate IPC over the group's loops.
    pub ipc: f64,
    /// Total scheduling time over the group's loops, microseconds.
    pub sched_time_us: u64,
    /// Loops aggregated.
    pub loops: usize,
    /// List fallbacks among them.
    pub fallbacks: usize,
}

/// Aggregation key: (group, machine, algorithm).
type GroupKey = (String, String, String);
/// Accumulator: (ops·trips, cycles, sched µs, loops, fallbacks).
type GroupAcc = (u128, u128, u64, usize, usize);

/// Aggregates records per (group, machine, algorithm), in deterministic
/// (group, machine, algorithm) order.
pub fn aggregate_by_group(records: &[RunRecord]) -> Vec<GroupAggregate> {
    let mut acc: BTreeMap<GroupKey, GroupAcc> = BTreeMap::new();
    for r in records {
        let key = (r.group.clone(), r.machine.clone(), r.algorithm.clone());
        let e = acc.entry(key).or_insert((0, 0, 0, 0, 0));
        e.0 += r.ops as u128 * r.trips as u128;
        e.1 += r.cycles as u128;
        e.2 += r.sched_time_us;
        e.3 += 1;
        e.4 += usize::from(r.list_fallback);
    }
    acc.into_iter()
        .map(
            |((group, machine, algorithm), (ops, cycles, us, loops, fallbacks))| GroupAggregate {
                group,
                machine,
                algorithm,
                ipc: if cycles == 0 {
                    0.0
                } else {
                    ops as f64 / cycles as f64
                },
                sched_time_us: us,
                loops,
                fallbacks,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(unit: usize, group: &str, algo: &str, ops: usize, trips: u64, cycles: u64) -> RunRecord {
        RunRecord {
            unit,
            group: group.to_string(),
            loop_name: format!("l{unit}"),
            machine: "c2r32b1l1".to_string(),
            algorithm: algo.to_string(),
            ii: 2,
            length: 5,
            ops,
            trips,
            cycles,
            ipc: (ops as u64 * trips) as f64 / cycles as f64,
            list_fallback: false,
            repartitions: 0,
            cache_hit: false,
            sched_time_us: 10,
        }
    }

    #[test]
    fn json_escaping() {
        let mut r = rec(0, "g\"x", "GP", 4, 10, 50);
        r.loop_name = "a\\b\nc".to_string();
        let j = r.to_json();
        assert!(j.contains("\"group\":\"g\\\"x\""));
        assert!(j.contains("\"loop\":\"a\\\\b\\nc\""));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn canonical_json_line_strips_only_the_volatile_tail() {
        let mut a = rec(3, "g", "GP", 4, 10, 50);
        let mut b = rec(3, "g", "GP", 4, 10, 50);
        a.cache_hit = true;
        b.sched_time_us = 123_456;
        assert_ne!(a.to_json(), b.to_json());
        assert_eq!(
            canonical_json_line(&a.to_json()),
            canonical_json_line(&b.to_json())
        );
        let canon = canonical_json_line(&a.to_json());
        assert!(canon.starts_with("{\"unit\":3,"));
        assert!(canon.ends_with("\"repartitions\":0}"));
        assert!(!canon.contains("cache_hit"));
        // A line without the tail is untouched.
        assert_eq!(
            canonical_json_line("{\"error\":\"x\"}"),
            "{\"error\":\"x\"}"
        );
    }

    #[test]
    fn canonical_fields_exclude_volatile() {
        let mut a = rec(3, "g", "GP", 4, 10, 50);
        let mut b = rec(3, "g", "GP", 4, 10, 50);
        a.sched_time_us = 1;
        b.sched_time_us = 99_999;
        a.cache_hit = true;
        b.cache_hit = false;
        assert_eq!(a.canonical_fields(), b.canonical_fields());
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn stats_aggregate_and_fallbacks() {
        let mut rs = vec![
            rec(0, "a", "GP", 10, 100, 500),
            rec(1, "a", "List", 10, 100, 2000),
            rec(2, "b", "URACAM", 5, 10, 100),
        ];
        rs[2].list_fallback = true;
        let stats = SweepStats::from_records(&rs, Duration::from_millis(100), 4, 2, 3);
        assert_eq!(stats.units, 3);
        // 10*100 + 10*100 + 5*10 ops over 500+2000+100 cycles.
        assert!((stats.ipc - 2050.0 / 2600.0).abs() < 1e-12);
        // 2 modulo units, 1 fallback.
        assert!((stats.fallback_rate - 0.5).abs() < 1e-12);
        assert_eq!(stats.cache_hits, 4);
        assert!(stats.throughput() > 0.0);
        assert!(stats.summary().contains("3 units"));
    }

    #[test]
    fn group_aggregation_is_deterministic_and_weighted() {
        let rs = vec![
            rec(0, "b", "GP", 10, 100, 500),
            rec(1, "a", "GP", 10, 100, 1000),
            rec(2, "a", "GP", 30, 100, 1000),
        ];
        let agg = aggregate_by_group(&rs);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].group, "a"); // BTreeMap order
        assert_eq!(agg[0].loops, 2);
        assert!((agg[0].ipc - 4000.0 / 2000.0).abs() < 1e-12);
        assert_eq!(agg[1].group, "b");
        assert!((agg[1].ipc - 1000.0 / 500.0).abs() < 1e-12);
    }
}
