//! Sim-audited reports: IPC per (corpus, machine, spec) cell, aggregated
//! like the paper's whole benchmarks, with every unit replayed by the
//! conformance audit ([`gpsched_engine::conformance::audit`]).
//! `reproduce stress` runs the spec catalog over one generated corpus per
//! preset; `reproduce portfolio` adds SPECfp95 and a `portfolio` column,
//! gated by [`AuditedReport::portfolio_dominates`]. A fixed spec's audit
//! failure (a list schedule overflowing the register file: ROADMAP item
//! 2) only drops that unit from its cell; a portfolio failure fails the
//! gate.
//!
//! Each (loop, machine) pair is seeded once ([`compute_seed`]: the MII
//! and the partition at it) and schedules every spec through one
//! [`SharedRuns`], so a catalog spec's II ladder is climbed once and a
//! portfolio race reads its candidates from the fixed columns' runs. The
//! results are those of scheduling each unit alone (DESIGN.md §12).

use gpsched_ddg::Ddg;
use gpsched_engine::cache::compute_seed;
use gpsched_engine::conformance::{audit, conformance_corpus};
use gpsched_machine::MachineConfig;
use gpsched_sched::{AlgorithmSpec, DriverConfig, SharedRuns};

/// One (corpus, machine) row of an audited report.
#[derive(Clone, Debug)]
pub struct AuditedRow {
    /// Corpus name: a generator preset or `SPECfp95`.
    pub corpus: String,
    /// Machine short name.
    pub machine: String,
    /// Aggregate IPC per spec, aligned with [`AuditedReport::specs`].
    pub ipc: Vec<f64>,
    /// Largest `II / MII` ratio of the row's modulo schedules (1.0 =
    /// every loop scheduled at its lower bound).
    pub worst_ii_over_mii: f64,
}

/// A sim-audited report: one row per (corpus, machine), one IPC column
/// per spec.
#[derive(Clone, Debug, Default)]
pub struct AuditedReport {
    /// Display name of every spec, in column order.
    pub specs: Vec<String>,
    /// Per-(corpus, machine) rows.
    pub rows: Vec<AuditedRow>,
    /// Per-spec `(Σ ops·trips, Σ cycles)` over all rows: the exact
    /// integer aggregates [`AuditedReport::portfolio_dominates`]
    /// cross-multiplies.
    pub totals: Vec<(u128, u128)>,
    /// Loops over all corpora.
    pub loops: usize,
    /// Units audited (loops × machines × specs).
    pub audited: usize,
    /// Units that fell back to list scheduling.
    pub fallbacks: usize,
    /// Units whose schedule spilled at least one value.
    pub spilled: usize,
    /// Audit failures, as `loop / machine / spec: reason` lines. A
    /// failing unit is excluded from that spec's aggregate.
    pub failures: Vec<String>,
    /// How many of [`AuditedReport::failures`] are portfolio's own.
    pub portfolio_failures: usize,
}

/// The generator preset corpora of both reports: `budget` loops spread
/// over every preset and seeded from `base_seed`
/// ([`conformance_corpus`]), one named corpus per preset.
pub fn preset_corpora(budget: usize, base_seed: u64) -> Vec<(String, Vec<Ddg>)> {
    let mut corpora: Vec<(String, Vec<Ddg>)> = Vec::new();
    for case in conformance_corpus(budget, base_seed) {
        match corpora.iter_mut().find(|(name, _)| name == case.preset) {
            Some((_, loops)) => loops.push(case.ddg),
            None => corpora.push((case.preset.to_string(), vec![case.ddg])),
        }
    }
    corpora
}

/// Schedules every loop of `corpora` on every machine under every spec,
/// audits each unit, and aggregates a row per (corpus, machine). Specs
/// run in the given order within a pair, so a portfolio listed after the
/// fixed specs reads their runs.
pub fn audited_report(
    corpora: &[(String, Vec<Ddg>)],
    machines: &[MachineConfig],
    specs: &[AlgorithmSpec],
) -> AuditedReport {
    let cfg = DriverConfig::default();
    let mut report = AuditedReport {
        specs: specs.iter().map(AlgorithmSpec::name).collect(),
        totals: vec![(0, 0); specs.len()],
        loops: corpora.iter().map(|(_, loops)| loops.len()).sum(),
        ..AuditedReport::default()
    };
    for (corpus, loops) in corpora {
        for machine in machines {
            let mut cells = vec![(0u128, 0u128); specs.len()];
            let mut worst = 1.0f64;
            for ddg in loops {
                let seed = compute_seed(ddg, machine);
                let runs = SharedRuns::default();
                for (cell, &spec) in cells.iter_mut().zip(specs) {
                    let unit = runs
                        .schedule(ddg, machine, spec, &cfg, &seed)
                        .map_err(|e| format!("scheduling failed: {e}"))
                        .and_then(|r| audit(ddg, machine, spec, &r, seed.start_ii));
                    report.audited += 1;
                    match unit {
                        Ok(a) => {
                            cell.0 += a.ops as u128 * a.trips as u128;
                            cell.1 += a.cycles as u128;
                            report.fallbacks += usize::from(a.fallback);
                            report.spilled += usize::from(a.spills > 0);
                            if !a.fallback {
                                worst = worst.max(a.ii as f64 / a.mii as f64);
                            }
                        }
                        Err(e) => {
                            report.portfolio_failures += usize::from(spec.is_portfolio());
                            report.failures.push(format!(
                                "{} / {} / {spec}: {e}",
                                ddg.name(),
                                machine.short_name()
                            ));
                        }
                    }
                }
            }
            for (total, cell) in report.totals.iter_mut().zip(&cells) {
                total.0 += cell.0;
                total.1 += cell.1;
            }
            report.rows.push(AuditedRow {
                corpus: corpus.clone(),
                machine: machine.short_name(),
                ipc: cells.into_iter().map(ipc).collect(),
                worst_ii_over_mii: worst,
            });
        }
    }
    report
}

/// `work / cycles`, or 0 for an empty aggregate.
fn ipc((work, cycles): (u128, u128)) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        work as f64 / cycles as f64
    }
}

impl AuditedReport {
    /// `true` when the last column is a portfolio whose every unit audits
    /// clean and whose aggregate IPC is at least every other spec's. The
    /// IPC comparison cross-multiplies the integer totals (`w_p/c_p >=
    /// w_s/c_s` ⟺ `w_p·c_s >= w_s·c_p`), so it is exact.
    pub fn portfolio_dominates(&self) -> bool {
        let (pw, pc) = *self.totals.last().expect("portfolio column");
        self.portfolio_failures == 0 && pc > 0 && self.totals.iter().all(|&(w, c)| pw * c >= w * pc)
    }

    /// Aggregate IPC per spec over all rows.
    pub fn aggregate_ipc(&self) -> Vec<f64> {
        self.totals.iter().copied().map(ipc).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_engine::conformance::audit_unit;
    use gpsched_trace::TraceSession;

    #[test]
    fn small_stress_report_is_clean_and_renders() {
        let machines = [MachineConfig::two_cluster(32, 1, 1)];
        let specs: Vec<AlgorithmSpec> = ["gp", "list"]
            .iter()
            .map(|s| AlgorithmSpec::parse(s).expect("parses"))
            .collect();
        let r = audited_report(&preset_corpora(12, 3), &machines, &specs);
        assert_eq!(r.loops, 12);
        assert_eq!(r.audited, 12 * 2);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.rows.len(), 6); // 6 presets × 1 machine
        assert!(r.rows.iter().all(|row| row.ipc.iter().all(|&x| x > 0.0)));
        let text = crate::report::audited_section("Stress", &r);
        assert!(text.contains("| recurrence-heavy | c2r32b1l1 |"));
        assert!(text.contains("| aggregate | (all) |"));
        assert!(text.contains("0 audit failures"));
    }

    /// The catalog, then `portfolio`: the portfolio report's columns.
    fn portfolio_specs() -> Vec<AlgorithmSpec> {
        let mut specs = AlgorithmSpec::CATALOG.to_vec();
        specs.push(AlgorithmSpec::PORTFOLIO);
        specs
    }

    #[test]
    fn small_portfolio_report_dominates_and_renders() {
        let machines = [MachineConfig::two_cluster(32, 1, 1)];
        let mut corpora = preset_corpora(12, 7);
        let spec_loops = gpsched_workloads::spec_suite()
            .into_iter()
            .flat_map(|p| p.loops)
            .collect();
        corpora.push(("SPECfp95".to_string(), spec_loops));
        let r = audited_report(&corpora, &machines, &portfolio_specs());
        // Fixed-spec audit failures (register overflow in list schedules,
        // fallbacks included) are tolerated; portfolio's own schedules
        // must all audit clean.
        assert_eq!(r.portfolio_failures, 0, "{:?}", r.failures);
        // 6 presets + SPECfp95, one machine each.
        assert_eq!(r.rows.len(), 7);
        assert_eq!(*r.specs.last().unwrap(), "Portfolio");
        assert!(r.totals.iter().all(|&(w, c)| w > 0 && c > 0));
        assert!(
            r.portfolio_dominates(),
            "portfolio must match the best fixed spec:\n{}",
            crate::report::audited_section("Portfolio", &r)
        );
        assert!(crate::report::audited_section("Portfolio", &r).contains("| SPECfp95 |"));
    }

    #[test]
    fn races_read_the_pair_runs_and_cells_match_unshared_audits() {
        let corpora: Vec<_> = preset_corpora(12, 5).into_iter().take(2).collect();
        let machines = [MachineConfig::two_cluster(32, 1, 1)];
        let specs = portfolio_specs();
        let session = TraceSession::start();
        let r = audited_report(&corpora, &machines, &specs);
        let shared = session.finish().counter("portfolio.shared_runs");
        // Every race reads at least its leader from the memo. Counters are
        // process-wide, so other tests can only add to the count.
        let races = (r.loops * machines.len()) as u64;
        assert!(shared >= races, "{shared} shared runs for {races} races");

        let mut totals = vec![(0u128, 0u128); specs.len()];
        for ((_, loops), row) in corpora.iter().zip(&r.rows) {
            for (si, &spec) in specs.iter().enumerate() {
                let mut cell = (0u128, 0u128);
                for a in loops
                    .iter()
                    .filter_map(|d| audit_unit(d, &machines[0], spec).ok())
                {
                    cell.0 += a.ops as u128 * a.trips as u128;
                    cell.1 += a.cycles as u128;
                }
                assert_eq!(row.ipc[si], ipc(cell), "{} / {spec}", row.corpus);
                totals[si].0 += cell.0;
                totals[si].1 += cell.1;
            }
        }
        assert_eq!(r.totals, totals);
    }
}
