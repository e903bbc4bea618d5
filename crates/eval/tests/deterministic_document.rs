//! `EXPERIMENTS.md` is a build output: building the whole document twice
//! gives the same bytes. Table 2 and the profile read process-wide trace
//! counters, so this binary holds this one test alone: a sweep in a
//! concurrent test would add to their sessions.

use gpsched_eval::report::experiments;
use gpsched_workloads::{kernels, Program};

#[test]
fn the_document_regenerates_to_the_same_bytes() {
    let suite = [
        Program {
            name: "alpha",
            loops: vec![kernels::daxpy(200), kernels::stencil5(150)],
        },
        Program {
            name: "beta",
            loops: vec![kernels::dot_product(300), kernels::fir(100, 6)],
        },
    ];
    let (first, _) = experiments(&suite);
    let (second, _) = experiments(&suite);
    for section in ["## Figure 3", "## Table 2", "## Profile", "## Shape checks"] {
        assert!(first.contains(section), "{section} missing:\n{first}");
    }
    assert!(first.contains("| sched.place_trials |"), "{first}");
    assert_eq!(first, second);
}
