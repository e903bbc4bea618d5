//! Pins the records of the variant specs: every catalog variant
//! (`gp:norepart`, `uracam:greedy-merit`, `gp:linear-ii`, `gp:nospill`)
//! and the portfolio meta-spec (`portfolio`, `portfolio:5:8`), on the
//! golden fixture's loops plus two loops per synthetic preset, across
//! four machines, folded into one digest of the canonical record fields.
//!
//! The golden fixture (`legacy_equivalence.rs`) runs only the paper's
//! four algorithms, so this is what catches a refactor of the cluster
//! choice, re-partition rule, II growth or spill switch that changes a
//! variant's schedules.

use gpsched_engine::{machine_from_short_name, run_sweep, JobSpec, SweepOptions};
use gpsched_sched::AlgorithmSpec;
use gpsched_workloads::{kernels, preset, spec_suite, synth, SynthProfile, PRESET_NAMES};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn variant_job() -> JobSpec {
    let suite = spec_suite();
    let program = suite.iter().find(|p| p.name == "tomcatv").expect("exists");
    let mut job = JobSpec::new().program(program);
    for ddg in kernels::all_kernels(1000) {
        job = job.loop_in("kernels", ddg);
    }
    for seed in 0..5u64 {
        job = job.loop_in(
            "synth",
            synth::synthesize(format!("pin{seed}"), &SynthProfile::default(), seed),
        );
    }
    for name in PRESET_NAMES {
        let profile = preset(name).expect("bundled preset");
        for ddg in synth::corpus(name, &profile, 11, 2) {
            job = job.loop_in(name, ddg);
        }
    }
    let machines = ["u-r32", "c2r32b1l1", "c4r64b1l2", "c4r32b1l2"]
        .map(|m| machine_from_short_name(m).expect("machine short name"));
    let mut specs = AlgorithmSpec::CATALOG[4..].to_vec();
    specs.extend(["portfolio", "portfolio:5:8"].map(|s| s.parse::<AlgorithmSpec>().unwrap()));
    job.machines(machines).algorithms(specs)
}

#[test]
fn variant_records_digest_is_pinned() {
    let job = variant_job();
    let result = run_sweep(&job, &SweepOptions::serial(), None);
    assert_eq!(
        result.records.len(),
        job.unit_count(),
        "every unit scheduled"
    );
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    for r in &result.records {
        digest.bytes(r.canonical_fields().as_bytes());
        digest.bytes(b"\n");
    }
    let fallbacks = result.records.iter().filter(|r| r.list_fallback).count();
    assert_eq!((job.unit_count(), fallbacks), (816, 28));
    assert_eq!(
        digest.0, 15_177_656_401_109_890_891,
        "a variant spec's records changed"
    );
}
