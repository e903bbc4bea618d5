//! Shape tests of the paper's evaluation claims on a reduced suite
//! (fast enough for CI; the full sweep lives in `reproduce`).

use gpsched::prelude::*;
use gpsched_eval::figures::series_for;
use gpsched_eval::series_for_specs;
use gpsched_workloads::Program;

/// Three representative programs, trimmed to their first loops.
fn mini_suite() -> Vec<Program> {
    spec_suite()
        .into_iter()
        .filter(|p| ["swim", "hydro2d", "applu"].contains(&p.name))
        .map(|mut p| {
            p.loops.truncate(4);
            p
        })
        .collect()
}

#[test]
fn unified_bounds_all_algorithms() {
    let programs = mini_suite();
    for regs in [32, 64] {
        let u = series_for_specs(
            &programs,
            &MachineConfig::unified(regs),
            &[AlgorithmSpec::GP],
        );
        let c = series_for_specs(
            &programs,
            &MachineConfig::two_cluster(regs, 1, 1),
            &AlgorithmSpec::PAPER,
        );
        for (ur, cr) in u.rows.iter().zip(&c.rows) {
            for (algo, &ipc) in c.columns.iter().zip(&cr.ipc) {
                // 1% tolerance for prolog/epilog noise (see end_to_end).
                assert!(
                    ur.ipc[0] >= ipc * 0.99,
                    "{}@r{regs}: {algo} {ipc} beat unified {}",
                    cr.program,
                    ur.ipc[0]
                );
            }
        }
    }
}

#[test]
fn gp_beats_uracam_on_average() {
    // The paper's headline direction: averaged over programs and the 2-
    // and 4-cluster latency-1 configs, GP > URACAM.
    let programs = mini_suite();
    let mut gp = 0.0;
    let mut ur = 0.0;
    for machine in [
        MachineConfig::two_cluster(32, 1, 1),
        MachineConfig::four_cluster(64, 1, 1),
    ] {
        let s = series_for(&programs, &machine);
        gp += s.average_of("GP");
        ur += s.average_of("URACAM");
    }
    assert!(gp > ur, "GP {gp} did not beat URACAM {ur} on average");
}

#[test]
fn figure_series_structure() {
    let programs = mini_suite();
    let s = series_for(&programs, &MachineConfig::two_cluster(32, 1, 1));
    assert_eq!(s.rows.len(), programs.len() + 1);
    assert_eq!(s.rows.last().unwrap().program, "average");
    assert_eq!(s.columns, ["unified", "URACAM", "Fixed", "GP"]);
    for r in &s.rows {
        for &v in &r.ipc {
            assert!(v > 0.0 && v <= 12.0, "{}: IPC {v} out of range", r.program);
        }
    }
}

#[test]
fn slower_bus_widens_the_gap_to_unified() {
    // Figure 3 vs Figure 2: with a 2-cycle bus the clustered machines lose
    // more of the unified IPC.
    let programs = mini_suite();
    let fast = series_for(&programs, &MachineConfig::four_cluster(64, 1, 1));
    let slow = series_for(&programs, &MachineConfig::four_cluster(64, 1, 2));
    let gap = |s: &gpsched_eval::IpcTable| s.average_of("unified") - s.average_of("GP");
    assert!(
        gap(&slow) >= gap(&fast) - 0.05,
        "slow-bus gap {} unexpectedly smaller than fast-bus gap {}",
        gap(&slow),
        gap(&fast)
    );
}

#[test]
fn scheduling_times_are_measured_per_algorithm() {
    let programs = mini_suite();
    let rows =
        gpsched_eval::tables::table2_for(&programs, &[MachineConfig::four_cluster(32, 1, 2)]);
    assert_eq!(rows.len(), 1);
    let r = &rows[0];
    // Counted in placement trials: positive for every algorithm.
    assert!(r.uracam.place_trials > 0 && r.fixed.place_trials > 0 && r.gp.place_trials > 0);
}
