//! Text and Markdown renderers for the reproduced tables and figures.

use crate::figures::FigureSeries;
use crate::tables::Table2Row;
use std::fmt::Write as _;

/// Renders Table 1 (the configuration matrix).
pub fn render_table1(rows: &[(String, String)]) -> String {
    let mut out = String::from("Table 1 — machine configurations\n");
    out.push_str(&format!("{:<12} {}\n", "name", "shape"));
    for (name, shape) in rows {
        let _ = writeln!(out, "{name:<12} {shape}");
    }
    out
}

/// Renders one figure (a set of per-configuration series) as text bars.
pub fn render_figure(title: &str, series: &[FigureSeries]) -> String {
    let mut out = format!("{title}\n");
    for s in series {
        let _ = writeln!(out, "\n[{}] {}", s.machine, s.title);
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8} {:>8}",
            "program", "unified", "URACAM", "Fixed", "GP"
        );
        for r in &s.rows {
            let _ = writeln!(
                out,
                "{:<10} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                r.program, r.unified, r.uracam, r.fixed, r.gp
            );
        }
        let _ = writeln!(
            out,
            "GP speedup over URACAM (average): {:+.1}%",
            (s.gp_speedup_over_uracam() - 1.0) * 100.0
        );
    }
    out
}

/// Renders a variant figure: one column per algorithm spec.
pub fn render_variants(title: &str, series: &[crate::variants::VariantSeries]) -> String {
    let mut out = format!("{title}\n");
    for s in series {
        let _ = writeln!(out, "\n[{}]", s.machine);
        let width: Vec<usize> = s.specs.iter().map(|c| c.len().max(8)).collect();
        let _ = write!(out, "{:<10}", "program");
        for (c, w) in s.specs.iter().zip(&width) {
            let _ = write!(out, " {c:>w$}");
        }
        out.push('\n');
        for r in &s.rows {
            let _ = write!(out, "{:<10}", r.program);
            for (v, w) in r.ipc.iter().zip(&width) {
                let _ = write!(out, " {v:>w$.3}");
            }
            out.push('\n');
        }
    }
    out
}

/// Renders Table 2 (average scheduling CPU time).
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out =
        String::from("Table 2 — average CPU time to compute the schedule (ms per benchmark)\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>10} {:>10} {:>14}\n",
        "machine", "URACAM", "Fixed", "GP", "URACAM slowdn"
    ));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>10.2} {:>10.2} {:>10.2} {:>13.1}x",
            r.machine,
            r.uracam_ms,
            r.fixed_ms,
            r.gp_ms,
            r.uracam_slowdown()
        );
    }
    out
}

/// Markdown summary written into `EXPERIMENTS.md` by `reproduce all`:
/// paper-vs-measured for every figure and table, with the shape checks,
/// plus the per-phase scheduling profile.
pub fn experiments_markdown(
    fig2: &[FigureSeries],
    fig3: &[FigureSeries],
    t2: &[Table2Row],
    profile: &crate::profile::ProfileReport,
) -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — paper vs. measured\n\n");
    out.push_str(
        "Workload: synthetic SPECfp95 suite (see `DESIGN.md` §4 for the\n\
         substitution); machines: Table 1 presets. Absolute IPC differs from\n\
         the paper (different loop bodies, latencies); the *shape* — who\n\
         wins, by roughly what factor, where the exceptions sit — is the\n\
         reproduction target. Regenerate with\n\
         `cargo run --release -p gpsched-eval --bin reproduce -- all`.\n\n\
         Magnitude note: the paper's headline is GP +23% over URACAM on the\n\
         2-cluster/32-register machine; we measure +2–9% depending on the\n\
         configuration. The direction and the per-program exceptions\n\
         (URACAM winning on mgrid/hydro2d-style loops) reproduce; the gap\n\
         is smaller because our URACAM baseline shares the full engine —\n\
         SMS windows with the ASAP-first retry, spill-on-overflow, list\n\
         fallback — and is therefore stronger than the 2001 baseline.\n\n",
    );

    let fig = |out: &mut String, name: &str, paper: &str, series: &[FigureSeries]| {
        let _ = writeln!(out, "## {name}\n");
        let _ = writeln!(out, "Paper: {paper}\n");
        let _ = writeln!(
            out,
            "| config | unified | URACAM | Fixed | GP | GP vs URACAM |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|");
        for s in series {
            let a = s.average();
            let _ = writeln!(
                out,
                "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:+.1}% |",
                s.machine,
                a.unified,
                a.uracam,
                a.fixed,
                a.gp,
                (s.gp_speedup_over_uracam() - 1.0) * 100.0
            );
        }
        let _ = writeln!(out);
        // Per-program detail.
        for s in series {
            let _ = writeln!(
                out,
                "<details><summary>{} per program</summary>\n",
                s.machine
            );
            let _ = writeln!(out, "| program | unified | URACAM | Fixed | GP |");
            let _ = writeln!(out, "|---|---|---|---|---|");
            for r in &s.rows {
                let _ = writeln!(
                    out,
                    "| {} | {:.3} | {:.3} | {:.3} | {:.3} |",
                    r.program, r.unified, r.uracam, r.fixed, r.gp
                );
            }
            let _ = writeln!(out, "\n</details>\n");
        }
    };
    fig(
        &mut out,
        "Figure 2 — IPC, 1 bus, latency 1",
        "GP > Fixed > URACAM on average; unified is the upper bound; \
         GP ≈ +23% over URACAM on the 2-cluster/32-register machine.",
        fig2,
    );
    fig(
        &mut out,
        "Figure 3 — IPC, 1 bus, latency 2",
        "Same ordering with a slower bus; a few programs favour Fixed \
         (re-partitioning under register pressure can backfire — §4.2).",
        fig3,
    );

    out.push_str("## Table 2 — scheduling CPU time\n\n");
    out.push_str(
        "Paper: URACAM is 2–7× slower than Fixed/GP because it tries every\n\
         cluster for every node. Here URACAM is slower than Fixed on every\n\
         configuration (the last column divides by the faster of Fixed/GP),\n\
         by less on the 2-cluster machines than on the 4-cluster ones, where\n\
         its per-node search covers four clusters. GP's selective\n\
         re-partitioning as the II grows puts it close to or above URACAM on\n\
         the slow-bus (latency 2) machines and on the 4-cluster ones. Every\n\
         column includes the unit's MII and seed partition, which URACAM\n\
         computes but never reads. The paper's magnitudes do not reproduce\n\
         because our URACAM shares the stronger engine; see `DESIGN.md` §7.\n\n",
    );
    out.push_str("| config | URACAM (ms) | Fixed (ms) | GP (ms) | URACAM slowdown |\n");
    out.push_str("|---|---|---|---|---|\n");
    for r in t2 {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.2} | {:.1}x |",
            r.machine,
            r.uracam_ms,
            r.fixed_ms,
            r.gp_ms,
            r.uracam_slowdown()
        );
    }
    out.push('\n');

    // Where the scheduling time goes (gpsched-trace).
    out.push_str("## Profile — where scheduling time goes\n\n");
    let _ = writeln!(
        out,
        "Traced serial sweep of the suite on `{}` with the memo cache off\n\
         ({} units); absolute times vary with the host, the *ranking* is\n\
         the reproducible part. Regenerate interactively with\n\
         `cargo run --release -p gpsched-engine -- profile`.\n",
        profile.machine, profile.units
    );
    out.push_str("| phase | count | total ms | self ms | self % |\n");
    out.push_str("|---|---|---|---|---|\n");
    let wall = profile.summary.wall_ns.max(1) as f64;
    for p in profile.summary.phases.iter().take(10) {
        let _ = writeln!(
            out,
            "| {} | {} | {:.2} | {:.2} | {:.1}% |",
            p.name,
            p.count,
            p.total_ns as f64 / 1e6,
            p.self_ns as f64 / 1e6,
            100.0 * p.self_ns as f64 / wall
        );
    }
    out.push('\n');
    let counters_of_note = [
        "partition.moves_evaluated",
        "partition.screen_rejected",
        "partition.evaluator_rebuilds",
        "graph.bf.runs",
        "graph.bf.edges_scanned",
        "sched.ii_growth",
        "sched.transfers_booked",
        "sched.spills_inserted",
    ];
    out.push_str("Counters of note:\n\n");
    for name in counters_of_note {
        let _ = writeln!(out, "- `{name}`: {}", profile.summary.counter(name));
    }
    out.push('\n');

    // Shape checks.
    out.push_str("## Shape checks\n\n");
    let avg_over = |series: &[FigureSeries], f: &dyn Fn(&crate::figures::FigureRow) -> f64| {
        series.iter().map(|s| f(s.average())).sum::<f64>() / series.len() as f64
    };
    let gp2 = avg_over(fig2, &|r| r.gp);
    let ur2 = avg_over(fig2, &|r| r.uracam);
    let fx2 = avg_over(fig2, &|r| r.fixed);
    let un2 = avg_over(fig2, &|r| r.unified);
    let checks = [
        ("unified ≥ GP (upper bound)", un2 >= gp2),
        ("GP ≥ Fixed on average", gp2 >= fx2),
        ("GP > URACAM on average", gp2 > ur2),
        ("URACAM slower than GP/Fixed on 4-cluster configs (mean)", {
            let c4: Vec<f64> = t2
                .iter()
                .filter(|r| r.machine.starts_with("c4"))
                .map(Table2Row::uracam_slowdown)
                .collect();
            !c4.is_empty() && c4.iter().sum::<f64>() / c4.len() as f64 >= 1.0
        }),
    ];
    for (name, ok) in checks {
        let _ = writeln!(out, "- [{}] {}", if ok { "x" } else { " " }, name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigureRow;

    fn fake_series() -> Vec<FigureSeries> {
        vec![FigureSeries {
            machine: "c2r32b1l1".into(),
            title: "2-cluster, 32 regs".into(),
            rows: vec![
                FigureRow {
                    program: "swim".into(),
                    unified: 5.0,
                    uracam: 3.0,
                    fixed: 3.5,
                    gp: 4.0,
                },
                FigureRow {
                    program: "average".into(),
                    unified: 5.0,
                    uracam: 3.0,
                    fixed: 3.5,
                    gp: 4.0,
                },
            ],
        }]
    }

    fn fake_t2() -> Vec<Table2Row> {
        vec![Table2Row {
            machine: "c2r32b1l1".into(),
            uracam_ms: 100.0,
            fixed_ms: 30.0,
            gp_ms: 40.0,
        }]
    }

    #[test]
    fn table1_renders_all_rows() {
        let t = crate::tables::table1();
        let s = render_table1(&t);
        assert!(s.contains("u-r32"));
        assert!(s.contains("c2r32b1l1"));
    }

    #[test]
    fn figure_render_contains_bars_and_speedup() {
        let s = render_figure("Figure 2", &fake_series());
        assert!(s.contains("swim"));
        assert!(s.contains("average"));
        assert!(s.contains("+33.3%"));
    }

    #[test]
    fn table2_render_contains_slowdown() {
        let s = render_table2(&fake_t2());
        assert!(s.contains("3.3x"));
    }

    fn fake_profile() -> crate::profile::ProfileReport {
        crate::profile::ProfileReport {
            machine: "c2r32b1l1".into(),
            units: 42,
            summary: gpsched_trace::TraceSummary {
                phases: vec![gpsched_trace::PhaseStat {
                    name: "engine.unit".into(),
                    count: 42,
                    total_ns: 80_000_000,
                    self_ns: 20_000_000,
                }],
                counters: vec![("graph.bf.runs".into(), 9)],
                wall_ns: 100_000_000,
                dropped: 0,
            },
        }
    }

    #[test]
    fn markdown_has_checks() {
        let md = experiments_markdown(&fake_series(), &fake_series(), &fake_t2(), &fake_profile());
        assert!(md.contains("# EXPERIMENTS"));
        assert!(md.contains("- [x] GP > URACAM on average"));
        assert!(md.contains("Figure 3"));
        assert!(md.contains("| c2r32b1l1 | 100.00 | 30.00 | 40.00 | 3.3x |"));
        assert!(md.contains("## Profile — where scheduling time goes"));
        assert!(md.contains("| engine.unit | 42 | 80.00 | 20.00 | 20.0% |"));
        assert!(md.contains("- `graph.bf.runs`: 9"));
    }
}
