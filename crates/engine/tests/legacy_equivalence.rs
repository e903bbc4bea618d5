//! Refactor-neutrality pin: the four legacy algorithms must produce
//! byte-identical canonical [`RunRecord`]s forever.
//!
//! The fixture `fixtures/legacy_records.golden` was generated from the
//! pre-pipeline monolithic drivers (PR 2 state) by running this test with
//! `GPSCHED_BLESS=1`. Canonical fields contain no timing or cache state,
//! so the comparison is exact across hosts and worker counts; any
//! scheduling-behaviour change in the policy pipeline shows up here as a
//! diff, not as noise.

use gpsched_engine::{run_sweep, JobSpec, SweepOptions};
use gpsched_machine::MachineConfig;
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::{kernels, spec_suite, synth::synthesize, SynthProfile};

/// A deliberately diverse job: every hand-written kernel, one full
/// SPECfp95 program, and a handful of seeded synthetic loops, across the
/// three machine shapes, under all four legacy algorithms.
fn pinned_job() -> JobSpec {
    let suite = spec_suite();
    let program = suite.iter().find(|p| p.name == "tomcatv").expect("exists");
    let mut job = JobSpec::new().program(program);
    for ddg in kernels::all_kernels(1000) {
        job = job.loop_in("kernels", ddg);
    }
    for seed in 0..5u64 {
        job = job.loop_in(
            "synth",
            synthesize(format!("pin{seed}"), &SynthProfile::default(), seed),
        );
    }
    job.machines([
        MachineConfig::unified(32),
        MachineConfig::two_cluster(32, 1, 1),
        MachineConfig::four_cluster(64, 1, 2),
    ])
    .algorithms(AlgorithmSpec::PAPER)
}

#[test]
fn legacy_algorithms_match_golden_records() {
    let job = pinned_job();
    let result = run_sweep(&job, &SweepOptions::serial(), None);
    let got: String = result
        .records
        .iter()
        .map(|r| format!("{}\n", r.canonical_fields()))
        .collect();

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/legacy_records.golden"
    );
    if std::env::var_os("GPSCHED_BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden fixture exists");
    assert_eq!(
        want.lines().count(),
        job.unit_count(),
        "fixture covers every unit"
    );
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(
            w, g,
            "canonical record {i} diverged from the legacy drivers"
        );
    }
    assert_eq!(want, got, "record count diverged");
}
