//! Differential conformance harness: the shared test spine that runs
//! every [`AlgorithmSpec`] in the catalog over generated corpora and
//! audits every schedule with the cycle-accurate simulator.
//!
//! The module is product code (the sim-audited `eval::audited` reports
//! run [`audit`] on each schedule they make) but its main consumers are
//! tests: `tests/synth_conformance.rs` at the workspace root drives
//! [`conformance_corpus`] → [`check_case`] across the whole catalog,
//! scheduling each unit alone, and any future scheduling change that
//! breaks a cross-spec invariant fails there with a *minimized*
//! reproducer — a small `.ddg` the failure still fires on, plus the
//! generator seed that produced the original loop — printed in the panic
//! message (and written to `GPSCHED_REPRO_DIR` when set, which CI uploads
//! as an artifact).
//!
//! Invariants audited per (loop, machine, spec) unit:
//!
//! * the spec schedules the loop at all (fallback allowed, errors not);
//! * `II ≥ MII` for every modulo schedule;
//! * `0 < IPC ≤ issue width`;
//! * spill accounting: spills name valid clusters, carry at least one
//!   reload, and `nospill` variants spill nothing;
//! * the scheduler's per-cluster `MaxLive` fits the register files;
//! * the simulator replays the schedule with no resource, bus, dataflow
//!   or pressure violation, and its observed span matches the closed
//!   form `(trips − 1)·II + SL`.
//!
//! Corpus size is controlled by `GPSCHED_SYNTH_BUDGET` (total loops
//! across all generator presets), so CI lanes can pin their time budget.

use crate::gen::generate_corpus;
use crate::text::serialize_ddg;
use gpsched_ddg::{mii, Ddg, DdgBuilder};
use gpsched_machine::MachineConfig;
use gpsched_sched::{schedule_loop, AlgorithmSpec, LoopResult, ScheduledWith};
use gpsched_sim::simulate;
use gpsched_workloads::{preset, PRESET_NAMES};

/// One generated loop of the conformance corpus, tagged with everything
/// needed to regenerate it standalone.
#[derive(Clone, Debug)]
pub struct SynthCase {
    /// Generator preset the loop came from.
    pub preset: &'static str,
    /// Base seed of the corpus; the loop itself used
    /// [`derive_seed`](gpsched_workloads::synth::derive_seed)`(base_seed, index)`.
    pub base_seed: u64,
    /// Index within the preset's corpus.
    pub index: usize,
    /// The loop.
    pub ddg: Ddg,
}

/// Reads the corpus budget from `GPSCHED_SYNTH_BUDGET` (total loops
/// across presets), falling back to `default`.
pub fn synth_budget(default: usize) -> usize {
    std::env::var("GPSCHED_SYNTH_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Builds the conformance corpus: `total` loops spread evenly over every
/// generator preset, seeded from `base_seed`. Deterministic — the same
/// arguments always produce the same corpus.
pub fn conformance_corpus(total: usize, base_seed: u64) -> Vec<SynthCase> {
    let presets = PRESET_NAMES.len();
    let (base, rem) = (total / presets, total % presets);
    let mut out = Vec::with_capacity(total);
    for (p, name) in PRESET_NAMES.into_iter().enumerate() {
        let count = base + usize::from(p < rem);
        let profile = preset(name).expect("bundled presets resolve");
        for (index, ddg) in generate_corpus(name, &profile, base_seed, count, 1)
            .into_iter()
            .enumerate()
        {
            out.push(SynthCase {
                preset: name,
                base_seed,
                index,
                ddg,
            });
        }
    }
    out
}

/// Metrics of one clean unit: what [`audit_unit`] measured on the way
/// through the invariants.
#[derive(Clone, Debug)]
pub struct UnitAudit {
    /// Achieved initiation interval.
    pub ii: i64,
    /// The loop's MII on the machine.
    pub mii: i64,
    /// Total cycles at the loop's trip count.
    pub cycles: u64,
    /// Useful instructions per cycle.
    pub ipc: f64,
    /// Useful ops per iteration.
    pub ops: usize,
    /// Trip count used for the accounting.
    pub trips: u64,
    /// Whether the II budget was exhausted and the list fallback fired.
    pub fallback: bool,
    /// Spilled values in the schedule.
    pub spills: usize,
    /// Times the GP driver recomputed the partition.
    pub repartitions: usize,
}

/// Schedules one unit alone and [`audit`]s it.
///
/// # Errors
///
/// A human-readable description of the scheduling error or of the first
/// violated invariant.
pub fn audit_unit(
    ddg: &Ddg,
    machine: &MachineConfig,
    spec: AlgorithmSpec,
) -> Result<UnitAudit, String> {
    let r = schedule_loop(ddg, machine, spec).map_err(|e| format!("scheduling failed: {e}"))?;
    audit(ddg, machine, spec, &r, mii::mii(ddg, machine))
}

/// Audits every conformance invariant of `r`, the result of scheduling
/// `ddg` on `machine` with `spec`, against the loop's MII `mii_v` on that
/// machine.
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn audit(
    ddg: &Ddg,
    machine: &MachineConfig,
    spec: AlgorithmSpec,
    r: &LoopResult,
    mii_v: i64,
) -> Result<UnitAudit, String> {
    let sched = &r.schedule;
    if sched.ii() < 1 {
        return Err(format!("II {} below 1", sched.ii()));
    }
    if matches!(r.method, ScheduledWith::Modulo { .. }) && sched.ii() < mii_v {
        return Err(format!(
            "modulo schedule at II {} beats the MII lower bound {mii_v}",
            sched.ii()
        ));
    }
    let ipc = r.ipc();
    if ipc <= 0.0 {
        return Err(format!("non-positive IPC {ipc}"));
    }
    let width = machine.issue_width() as f64;
    if ipc > width + 1e-9 {
        return Err(format!("IPC {ipc:.4} exceeds the issue width {width}"));
    }
    for (si, s) in sched.spills().iter().enumerate() {
        if s.cluster >= machine.cluster_count() {
            return Err(format!("spill {si} names cluster {} of none", s.cluster));
        }
        if s.loads.is_empty() {
            return Err(format!(
                "spill {si} (producer {}) has no reloads",
                s.producer
            ));
        }
    }
    // `:nospill` binds the modulo pipeline; the list fallback sits outside
    // it and may spill for register feasibility.
    if !spec.spills()
        && matches!(r.method, ScheduledWith::Modulo { .. })
        && !sched.spills().is_empty()
    {
        return Err(format!(
            "`{spec}` spilled {} values despite `:nospill`",
            sched.spills().len()
        ));
    }
    for (c, &live) in sched.max_live().iter().enumerate() {
        let regs = machine.cluster(c).registers as i64;
        if live > regs {
            return Err(format!(
                "MaxLive {live} exceeds {regs} registers on cluster {c}"
            ));
        }
    }
    let trips = ddg.trip_count().clamp(1, 40);
    let report =
        simulate(ddg, machine, sched, trips).map_err(|e| format!("simulator audit: {e}"))?;
    if report.cycles != sched.cycles(trips) {
        return Err(format!(
            "simulator observed {} cycles but the closed form predicts {}",
            report.cycles,
            sched.cycles(trips)
        ));
    }
    Ok(UnitAudit {
        ii: sched.ii(),
        mii: mii_v,
        cycles: r.cycles(),
        ipc,
        ops: r.ops,
        trips: r.trips,
        fallback: matches!(r.method, ScheduledWith::ListFallback),
        spills: sched.spills().len(),
        repartitions: match r.method {
            ScheduledWith::Modulo { repartitions } => repartitions,
            _ => 0,
        },
    })
}

/// Greedily shrinks `ddg` while `still_fails` holds: ops are dropped
/// (with their incident dependences) first, then individual dependences,
/// to a fixpoint. The result still satisfies `still_fails` and is usually
/// far smaller than the input — the reproducer printed by [`check_case`].
///
/// Shrinking preserves DDG validity by construction (removals cannot
/// introduce distance-0 cycles or flow edges out of stores), but note the
/// shrunk loop may fail with a *different* message than the original —
/// the guarantee is "still fails", not "fails identically".
pub fn minimize_with(ddg: &Ddg, mut still_fails: impl FnMut(&Ddg) -> bool) -> Ddg {
    let mut cur = ddg.clone();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < cur.op_count() && cur.op_count() > 1 {
            match without_op(&cur, i) {
                Some(cand) if still_fails(&cand) => {
                    cur = cand;
                    shrunk = true;
                }
                _ => i += 1,
            }
        }
        let mut j = 0;
        while j < cur.dep_count() {
            match without_dep(&cur, j) {
                Some(cand) if still_fails(&cand) => {
                    cur = cand;
                    shrunk = true;
                }
                _ => j += 1,
            }
        }
        if !shrunk {
            return cur;
        }
    }
}

/// Rebuilds `ddg` without op `skip` (and every dependence touching it).
fn without_op(ddg: &Ddg, skip: usize) -> Option<Ddg> {
    let mut b = DdgBuilder::new(ddg.name());
    b.trip_count(ddg.trip_count());
    let mut map = Vec::with_capacity(ddg.op_count());
    for id in ddg.op_ids() {
        if id.index() == skip {
            map.push(None);
        } else {
            let op = ddg.op(id);
            map.push(Some(b.op_with_latency(
                op.class,
                op.name.clone(),
                op.latency,
            )));
        }
    }
    for e in ddg.dep_ids() {
        let (s, d) = ddg.dep_endpoints(e);
        if let (Some(ns), Some(nd)) = (map[s.index()], map[d.index()]) {
            b.dep(ns, nd, *ddg.dep(e));
        }
    }
    b.build().ok()
}

/// Rebuilds `ddg` without dependence `skip`.
fn without_dep(ddg: &Ddg, skip: usize) -> Option<Ddg> {
    let mut b = DdgBuilder::new(ddg.name());
    b.trip_count(ddg.trip_count());
    let mut map = Vec::with_capacity(ddg.op_count());
    for id in ddg.op_ids() {
        let op = ddg.op(id);
        map.push(b.op_with_latency(op.class, op.name.clone(), op.latency));
    }
    for (k, e) in ddg.dep_ids().enumerate() {
        if k == skip {
            continue;
        }
        let (s, d) = ddg.dep_endpoints(e);
        b.dep(map[s.index()], map[d.index()], *ddg.dep(e));
    }
    b.build().ok()
}

/// Audits one corpus case, panicking with a minimized reproducer on any
/// violated invariant.
///
/// The panic message carries everything needed to replay the failure
/// offline: the preset and per-loop seed (so the original regenerates
/// via `synthesize(preset(..), seed)` or `gpsched-engine gen`), the
/// machine and spec, and the shrunk loop as `.ddg` text ready for
/// `gpsched-engine sweep --corpus`. When `GPSCHED_REPRO_DIR` is set the
/// `.ddg` is also written there (CI uploads the directory on failure).
///
/// # Panics
///
/// On any audit failure; clean units return their [`UnitAudit`].
pub fn check_case(case: &SynthCase, machine: &MachineConfig, spec: AlgorithmSpec) -> UnitAudit {
    match audit_unit(&case.ddg, machine, spec) {
        Ok(audit) => audit,
        Err(first) => {
            let minimized =
                minimize_with(&case.ddg, |cand| audit_unit(cand, machine, spec).is_err());
            let text = serialize_ddg(&minimized);
            let written = write_repro(case, machine, spec, &text)
                .map(|p| format!("\nreproducer written to {p}"))
                .unwrap_or_default();
            panic!(
                "conformance failure: loop `{}` (preset `{}`, seed {}) \
                 on {} with `{}`:\n  {first}\n\
                 minimized reproducer ({} ops, {} deps; regenerate the original with \
                 synthesize(preset(\"{}\"), seed {})):{written}\n{text}",
                case.ddg.name(),
                case.preset,
                gpsched_workloads::synth::derive_seed(case.base_seed, case.index as u64),
                machine.short_name(),
                spec.spec_string(),
                minimized.op_count(),
                minimized.dep_count(),
                case.preset,
                gpsched_workloads::synth::derive_seed(case.base_seed, case.index as u64),
            );
        }
    }
}

/// Writes a reproducer `.ddg` into `GPSCHED_REPRO_DIR`, if set. The
/// file name carries preset, per-loop seed, machine *and* spec, so two
/// specs failing on the same unit keep distinct reproducers.
fn write_repro(
    case: &SynthCase,
    machine: &MachineConfig,
    spec: AlgorithmSpec,
    text: &str,
) -> Option<String> {
    let dir = std::env::var("GPSCHED_REPRO_DIR").ok()?;
    std::fs::create_dir_all(&dir).ok()?;
    let path = format!(
        "{dir}/{}-{}-{}-{}.ddg",
        case.preset,
        gpsched_workloads::synth::derive_seed(case.base_seed, case.index as u64),
        machine.short_name(),
        spec.spec_string().replace(':', "-")
    );
    std::fs::write(&path, text).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_workloads::kernels;

    #[test]
    fn corpus_covers_every_preset_and_respects_total() {
        let corpus = conformance_corpus(13, 5);
        assert_eq!(corpus.len(), 13);
        for name in PRESET_NAMES {
            assert!(corpus.iter().any(|c| c.preset == name), "{name} missing");
        }
        // Deterministic.
        let again = conformance_corpus(13, 5);
        for (a, b) in corpus.iter().zip(&again) {
            assert_eq!(a.ddg.name(), b.ddg.name());
            assert_eq!(a.ddg.dep_count(), b.ddg.dep_count());
        }
    }

    #[test]
    fn audit_passes_on_known_good_units() {
        let machine = MachineConfig::two_cluster(32, 1, 1);
        for spec in ["gp", "uracam", "list", "gp:nospill"] {
            let spec = AlgorithmSpec::parse(spec).unwrap();
            let audit = audit_unit(&kernels::daxpy(100), &machine, spec).unwrap();
            assert!(audit.ii >= 1 && audit.ipc > 0.0);
        }
    }

    #[test]
    fn minimizer_shrinks_to_the_failing_core() {
        // Shrink against a synthetic predicate: "has a recurrence" (RecMII
        // > 1). The minimum is the 2-op cycle the recurrence needs.
        let profile = preset("recurrence-heavy").unwrap();
        let ddg = gpsched_workloads::synthesize("shrink-me", &profile, 3);
        assert!(mii::rec_mii(&ddg) > 1, "corpus loop has a recurrence");
        let small = minimize_with(&ddg, |d| mii::rec_mii(d) > 1);
        assert!(mii::rec_mii(&small) > 1, "shrunk loop kept the property");
        assert!(
            small.op_count() <= 2,
            "kept {} ops for a 2-op property",
            small.op_count()
        );
    }

    #[test]
    fn budget_env_parses_and_falls_back() {
        // Can't set env safely in parallel tests; just exercise the
        // fallback path (the variable is unset under `cargo test`).
        if std::env::var_os("GPSCHED_SYNTH_BUDGET").is_none() {
            assert_eq!(synth_budget(42), 42);
        }
    }
}
