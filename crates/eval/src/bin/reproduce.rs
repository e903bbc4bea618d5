//! Regenerates every table and figure of the paper, as Markdown.
//!
//! ```text
//! reproduce table1     # machine configuration matrix
//! reproduce fig2       # IPC, 1 bus, latency 1 (4 sub-graphs)
//! reproduce fig3       # IPC, 1 bus, latency 2 (4 sub-graphs)
//! reproduce table2     # scheduling work per algorithm/config, counted
//! reproduce profile    # per-phase span counts and counters
//! reproduce variants   # IPC of the policy-variant specs (beyond the paper)
//! reproduce stress     # catalog × synthetic preset corpora, sim-audited
//! reproduce portfolio  # portfolio vs every fixed spec, sim-audited gate
//! reproduce topologies # SPECfp95 IPC across interconnect topologies
//! reproduce all        # EXPERIMENTS.md, then the timing appendix
//! ```
//!
//! `all` writes `EXPERIMENTS.md` (exit 1 if it cannot) and prints the
//! same bytes, followed by a timing appendix (Table 2 milliseconds,
//! profile self times) that never enters the file. The file holds IPC and
//! work counts only, so it regenerates byte-identically on any host and
//! CPU count, and CI diffs it against the committed copy.
//!
//! `stress` and `portfolio` build one sim-audited report
//! (`gpsched_eval::audited`) from different inputs, over
//! `SYNTH_BUDGET` generated loops. `stress` exits non-zero on any audit
//! failure; `portfolio` exits non-zero unless portfolio's aggregate IPC is
//! at least every fixed catalog spec's (and every portfolio unit passes
//! the conformance audit) — CI runs both as gates. None of `stress`,
//! `portfolio`, `topologies` is part of `all` — their corpora/machines
//! are open-ended where EXPERIMENTS.md pins the paper's frozen
//! evaluation.
//!
//! Run with `--release`; the figures schedule the suite's 70 loops on 8
//! clustered machines and their 2 unified counterparts, and Table 2 and
//! the profile sweep the suite again serially.

use gpsched_eval::{figure2, figure3, report, series_for_specs, table2, IpcTable};
use gpsched_machine::{Interconnect, MachineConfig};
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::spec_suite;
use std::time::Instant;

/// Generated loops in the `stress` and `portfolio` corpora, spread over
/// every generator preset.
const SYNTH_BUDGET: usize = 90;

/// The variant figure: the paper's modulo algorithms next to the bundled
/// policy variants, on the clustered machines of Figures 2/3.
fn variants_figure() -> Vec<IpcTable> {
    let programs = spec_suite();
    let specs: Vec<AlgorithmSpec> = ["uracam", "uracam:greedy-merit", "gp", "gp:norepart"]
        .iter()
        .map(|s| AlgorithmSpec::parse(s).expect("bundled specs parse"))
        .collect();
    [
        MachineConfig::two_cluster(32, 1, 1),
        MachineConfig::four_cluster(32, 1, 2),
    ]
    .iter()
    .map(|m| series_for_specs(&programs, m, &specs))
    .collect()
}

/// The sim-audited reports, which differ only in their inputs. `stress`:
/// the catalog over the preset corpora on one machine per interconnect
/// shape. `portfolio`: the catalog plus `portfolio` over the preset
/// corpora and SPECfp95 on two bus machines.
fn audited(portfolio: bool) -> gpsched_eval::AuditedReport {
    let mut corpora = gpsched_eval::preset_corpora(SYNTH_BUDGET, 0xC0DE);
    let mut specs = AlgorithmSpec::CATALOG.to_vec();
    let machines = if portfolio {
        let spec_loops = spec_suite().into_iter().flat_map(|p| p.loops).collect();
        corpora.push(("SPECfp95".to_string(), spec_loops));
        specs.push(AlgorithmSpec::PORTFOLIO);
        vec![
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(32, 1, 2),
        ]
    } else {
        let four = |interconnect| MachineConfig::homogeneous_with(4, (1, 1, 1), 64, interconnect);
        vec![
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
            // The open interconnect axis: ring and point-to-point
            // machines pass the same sim-audited sweep.
            four(Interconnect::Ring {
                hop_latency: 1,
                links_per_hop: 1,
            }),
            four(Interconnect::uniform_point_to_point(4, 1, 1)),
        ]
    };
    gpsched_eval::audited_report(&corpora, &machines, &specs)
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let t0 = Instant::now();
    match cmd.as_str() {
        "table1" => print!("{}", report::table1_section()),
        "fig2" => print!("{}", report::figure_section(2, &figure2(&spec_suite()))),
        "fig3" => print!("{}", report::figure_section(3, &figure3(&spec_suite()))),
        "table2" => print!("{}", report::table2_section(&table2(&spec_suite()))),
        "profile" => print!(
            "{}",
            report::profile_section(&gpsched_eval::profile_report(&spec_suite()))
        ),
        "variants" => print!("{}", report::variants_section(&variants_figure())),
        "stress" => {
            let r = audited(false);
            let title = "Stress — catalog IPC over synthetic preset corpora (sim-audited)";
            print!("{}", report::audited_section(title, &r));
            if !r.failures.is_empty() {
                std::process::exit(1);
            }
        }
        "portfolio" => {
            let r = audited(true);
            let title = "Portfolio — feature-guided selection vs every fixed spec (sim-audited)";
            print!("{}", report::audited_section(title, &r));
            let pass = r.portfolio_dominates();
            let verdict = if pass { "PASS" } else { "FAIL" };
            println!("portfolio >= every fixed catalog spec on aggregate IPC: {verdict}");
            if !pass {
                std::process::exit(1);
            }
        }
        "topologies" => print!(
            "{}",
            report::topologies_section(&gpsched_eval::default_topology_report())
        ),
        "all" => {
            let (md, appendix) = report::experiments(&spec_suite());
            print!("{md}{appendix}");
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
            if let Err(e) = std::fs::write(path, &md) {
                eprintln!("could not write EXPERIMENTS.md: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote EXPERIMENTS.md");
        }
        other => {
            eprintln!(
                "unknown command `{other}`; use \
                 table1|fig2|fig3|table2|profile|variants|stress|portfolio|topologies|all"
            );
            std::process::exit(2);
        }
    }
    eprintln!("[{:.1}s]", t0.elapsed().as_secs_f64());
}
