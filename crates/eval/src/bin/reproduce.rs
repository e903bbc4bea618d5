//! Regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce table1   # machine configuration matrix
//! reproduce fig2     # IPC, 1 bus, latency 1 (4 sub-graphs)
//! reproduce fig3     # IPC, 1 bus, latency 2 (4 sub-graphs)
//! reproduce table2   # scheduling CPU time per algorithm/config
//! reproduce variants   # IPC of the policy-variant specs (beyond the paper)
//! reproduce stress     # catalog × synthetic preset corpora, sim-audited
//! reproduce portfolio  # portfolio vs every fixed spec, sim-audited gate
//! reproduce topologies # SPECfp95 IPC across interconnect topologies
//! reproduce profile    # per-phase scheduling profile (gpsched-trace)
//! reproduce all        # everything + rewrite EXPERIMENTS.md
//! ```
//!
//! `stress` and `portfolio` build one sim-audited report
//! (`gpsched_eval::audited`) from different inputs, and read
//! `GPSCHED_SYNTH_BUDGET` (total generated loops; default 90). `stress`
//! exits non-zero on any audit failure; `portfolio` exits non-zero unless
//! portfolio's aggregate IPC is at least every fixed catalog spec's (and
//! every portfolio unit passes the conformance audit) — CI runs both as
//! gates. None of
//! `stress`, `portfolio`, `topologies` is part of `all` — their
//! corpora/machines are open-ended where EXPERIMENTS.md pins the paper's
//! frozen evaluation.
//!
//! Run with `--release`; the full sweep schedules ~76 loops × 9 machine
//! configurations × 4 algorithm bars.

use gpsched_eval::report;
use gpsched_eval::{figure2, figure3, series_for_specs, table2, tables};
use gpsched_machine::{Interconnect, MachineConfig};
use gpsched_sched::AlgorithmSpec;
use std::time::Instant;

/// The variant figure: the paper's modulo algorithms next to the bundled
/// policy variants, on the clustered machines of Figures 2/3.
fn variants_figure() -> Vec<gpsched_eval::VariantSeries> {
    let programs = gpsched_workloads::spec_suite();
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
    let budget = gpsched_engine::conformance::synth_budget(90);
    let mut corpora = gpsched_eval::preset_corpora(budget, 0xC0DE);
    let mut specs = AlgorithmSpec::CATALOG.to_vec();
    let machines = if portfolio {
        let spec_loops = gpsched_workloads::spec_suite()
            .into_iter()
            .flat_map(|p| p.loops)
            .collect();
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
        "table1" => print!("{}", report::render_table1(&tables::table1())),
        "fig2" => print!(
            "{}",
            report::render_figure("Figure 2 — IPC, 1 bus, latency 1", &figure2())
        ),
        "fig3" => print!(
            "{}",
            report::render_figure("Figure 3 — IPC, 1 bus, latency 2", &figure3())
        ),
        "table2" => print!("{}", report::render_table2(&table2())),
        "variants" => print!(
            "{}",
            report::render_variants("Variants — IPC per algorithm spec", &variants_figure())
        ),
        "stress" => {
            let report = audited(false);
            println!("Stress — catalog IPC over synthetic preset corpora (sim-audited)\n");
            print!("{}", report.render());
            if !report.failures.is_empty() {
                std::process::exit(1);
            }
        }
        "portfolio" => {
            let report = audited(true);
            println!("Portfolio — feature-guided selection vs every fixed spec (sim-audited)\n");
            print!("{}", report.render());
            let pass = report.portfolio_dominates();
            let verdict = if pass { "PASS" } else { "FAIL" };
            println!("portfolio >= every fixed catalog spec on aggregate IPC: {verdict}");
            if !pass {
                std::process::exit(1);
            }
        }
        "topologies" => {
            let report = gpsched_eval::default_topology_report();
            println!(
                "Topologies — SPECfp95 IPC per interconnect shape ({} on every machine)\n",
                report.spec
            );
            print!("{}", report.render());
        }
        "profile" => {
            let p = gpsched_eval::profile_report();
            println!("Profile — per-phase scheduling time (traced serial sweep, cache off)\n");
            print!("{}", p.render(20));
        }
        "all" => {
            print!("{}", report::render_table1(&tables::table1()));
            let f2 = figure2();
            print!(
                "\n{}",
                report::render_figure("Figure 2 — IPC, 1 bus, latency 1", &f2)
            );
            let f3 = figure3();
            print!(
                "\n{}",
                report::render_figure("Figure 3 — IPC, 1 bus, latency 2", &f3)
            );
            let t2 = table2();
            print!("\n{}", report::render_table2(&t2));
            let p = gpsched_eval::profile_report();
            print!(
                "\nProfile — per-phase scheduling time (traced serial sweep, cache off)\n{}",
                p.render(20)
            );
            let md = report::experiments_markdown(&f2, &f3, &t2, &p);
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
            match std::fs::write(path, &md) {
                Ok(()) => println!("\nwrote EXPERIMENTS.md"),
                Err(e) => eprintln!("\ncould not write EXPERIMENTS.md: {e}"),
            }
        }
        other => {
            eprintln!(
                "unknown command `{other}`; use \
                 table1|fig2|fig3|table2|variants|stress|portfolio|topologies|profile|all"
            );
            std::process::exit(2);
        }
    }
    eprintln!("[{:.1}s]", t0.elapsed().as_secs_f64());
}
