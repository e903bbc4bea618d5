//! Workspace-level properties of the prepared Bellman–Ford timing kernel:
//! a [`timing::TimingWorkspace`] reused across loops, shuffled II ladders
//! and changing per-dep extra delays must be indistinguishable from a
//! from-scratch [`timing::analyze`] call — including infeasible probes —
//! the split forward/reverse path (`analyze_exec` + `complete_slack`)
//! must equal the one-shot analysis it replaced, and the patched path the
//! partitioner's trial probes run (`analyze_patched` + `solve_reverse` +
//! `slack_of`) must equal the closure form on the same extras.
//!
//! Profiles and seeds are drawn from the workspace's deterministic
//! [`gpsched_workloads::rng::Prng`], so every case reproduces from its
//! printed index.

use gpsched::ddg::{Dep, DepId, OpId};
use gpsched::prelude::*;
use gpsched_workloads::rng::Prng;
use timing::{Timing, TimingWorkspace};

/// A random but valid synthesis profile, biased toward recurrences so
/// the feasibility boundary (positive cycles at low IIs) is exercised.
fn arb_profile(rng: &mut Prng) -> SynthProfile {
    SynthProfile {
        ops: rng.gen_range(4usize..48),
        mem_frac: rng.gen_f64() * 0.6,
        store_frac: rng.gen_f64() * 0.6,
        fp_frac: rng.gen_f64(),
        fpdiv_frac: 0.02,
        chain_bias: rng.gen_f64() * 0.9,
        recurrences: rng.gen_range(1usize..5),
        max_distance: rng.gen_range(1u32..3),
        trip_range: (20, 60),
        ..SynthProfile::default()
    }
}

fn assert_timing_eq(a: &Timing, b: &Timing, what: &str) {
    assert_eq!(a.ii, b.ii, "{what}: ii");
    assert_eq!(a.asap, b.asap, "{what}: asap");
    assert_eq!(a.alap, b.alap, "{what}: alap");
    assert_eq!(a.edge_slack, b.edge_slack, "{what}: edge_slack");
    assert_eq!(a.max_slack, b.max_slack, "{what}: max_slack");
    assert_eq!(a.start, b.start, "{what}: start");
    assert_eq!(a.tail, b.tail, "{what}: tail");
    assert_eq!(a.max_path, b.max_path, "{what}: max_path");
}

#[test]
fn reused_workspace_matches_from_scratch_analysis() {
    let mut rng = Prng::seed_from_u64(0xBF_0001);
    // One workspace across every loop and probe: re-binding to a new DDG,
    // warm-started solves in both II directions, and incremental extra
    // patching all happen on the same instance.
    let mut ws = TimingWorkspace::new();
    // All loops are generated up front and kept alive: every DDG has a
    // distinct address, so each rebind below is a genuine re-prepare (the
    // workspace identifies its binding by address plus shape).
    let ddgs: Vec<Ddg> = (0..20)
        .map(|_| {
            let profile = arb_profile(&mut rng);
            let seed = rng.gen_range(0u64..1_000);
            synth::synthesize("bfprop", &profile, seed)
        })
        .collect();
    let mut total_feasible = 0usize;
    let mut total_infeasible = 0usize;
    for (case, ddg) in ddgs.iter().enumerate() {
        // The raw-graph recurrence bound, so the shuffled ladder straddles
        // the feasibility boundary of every draw (extras can push the
        // bound a little higher still — also worth probing).
        let rec = (1..)
            .find(|&ii| timing::analyze(ddg, ii, |_| 0).is_some())
            .unwrap();
        // A shuffled probe ladder spanning infeasible lows through the
        // feasible region, so warm starts see rising and falling IIs.
        let mut iis: Vec<i64> = ((rec - 4).max(1)..=rec + 8).collect();
        for i in (1..iis.len()).rev() {
            let j = rng.gen_range(0usize..i + 1);
            iis.swap(i, j);
        }
        let mut feasible = 0usize;
        let mut infeasible = 0usize;
        for ii in iis {
            // A fresh sprinkle of extra delay per probe — the shape the
            // partitioner charges for cut edges — so successive probes
            // patch differing dep subsets.
            let extras: Vec<i64> = ddg
                .dep_ids()
                .map(|_| {
                    if rng.gen_f64() < 0.2 {
                        rng.gen_range(1i64..4)
                    } else {
                        0
                    }
                })
                .collect();
            let reference = timing::analyze(ddg, ii, |e| extras[e.index()]);
            let probed = ws.analyze(ddg, ii, |e| extras[e.index()]).cloned();
            match (&reference, &probed) {
                (None, None) => infeasible += 1,
                (Some(a), Some(b)) => {
                    feasible += 1;
                    assert_timing_eq(a, b, &format!("case {case} ii {ii}"));
                }
                _ => panic!(
                    "case {case} ii {ii}: feasibility disagrees (scratch {}, workspace {})",
                    reference.is_some(),
                    probed.is_some()
                ),
            }
        }
        assert!(feasible > 0, "case {case}: no feasible probe");
        total_feasible += feasible;
        total_infeasible += infeasible;
    }
    // The suite as a whole must exercise both sides of the boundary.
    assert!(total_feasible > 0 && total_infeasible > 0);
}

#[test]
fn exec_then_slack_equals_full_analyze() {
    let mut rng = Prng::seed_from_u64(0xBF_0002);
    let mut ws = TimingWorkspace::new();
    let mut boundary_hits = 0usize;
    let ddgs: Vec<Ddg> = (0..20)
        .map(|_| {
            let profile = arb_profile(&mut rng);
            let seed = rng.gen_range(0u64..1_000);
            synth::synthesize("bfsplit", &profile, seed)
        })
        .collect();
    for (case, ddg) in ddgs.iter().enumerate() {
        for ii in 1..=10i64 {
            let full = timing::analyze(ddg, ii, |_| 0);
            let exec = ws.analyze_exec(ddg, ii, |_| 0).cloned();
            match (&full, &exec) {
                (None, None) => {
                    boundary_hits += 1;
                }
                (Some(a), Some(b)) => {
                    // The forward half alone must already agree on
                    // everything the execution-time screen reads.
                    assert_eq!(a.ii, b.ii, "case {case} ii {ii}");
                    assert_eq!(a.asap, b.asap, "case {case} ii {ii}: asap");
                    assert_eq!(a.start, b.start, "case {case} ii {ii}: start");
                    assert_eq!(a.tail, b.tail, "case {case} ii {ii}: tail");
                    assert_eq!(a.max_path, b.max_path, "case {case} ii {ii}: max_path");
                    // Completing the lazy reverse half — twice, it must be
                    // idempotent — yields the full analysis.
                    ws.complete_slack();
                    ws.complete_slack();
                    assert_timing_eq(a, ws.last(), &format!("case {case} ii {ii} completed"));
                }
                _ => panic!(
                    "case {case} ii {ii}: feasibility disagrees (full {}, exec {})",
                    full.is_some(),
                    exec.is_some()
                ),
            }
        }
    }
    assert!(
        boundary_hits > 0,
        "no infeasible probe hit — the ladder never crossed the recurrence bound"
    );
}

/// A DDG with the same ops and deps as `ddg` (so the same op/dep counts)
/// but perturbed latencies: rebinding a workspace to it must re-prepare,
/// and must not carry over any applied extras or patch state.
fn same_shaped_twin(ddg: &Ddg, rng: &mut Prng) -> Ddg {
    let mut b = DdgBuilder::new("twin");
    b.trip_count(ddg.trip_count());
    let ops: Vec<OpId> = ddg
        .op_ids()
        .map(|v| {
            let op = ddg.op(v);
            b.op_with_latency(
                op.class,
                op.name.clone(),
                op.latency + rng.gen_range(0u32..2),
            )
        })
        .collect();
    for e in ddg.dep_ids() {
        let (s, d) = ddg.dep_endpoints(e);
        let dep = *ddg.dep(e);
        let latency = dep.latency + rng.gen_range(0u32..2);
        b.dep(ops[s.index()], ops[d.index()], Dep { latency, ..dep });
    }
    b.build().expect("same structure as a valid DDG")
}

#[test]
fn patched_analysis_matches_closure_analysis() {
    let mut rng = Prng::seed_from_u64(0xBF_0003);
    let loops: Vec<Ddg> = (0..16)
        .map(|_| {
            let profile = arb_profile(&mut rng);
            let seed = rng.gen_range(0u64..1_000);
            synth::synthesize("bfpatch", &profile, seed)
        })
        .collect();
    let twins: Vec<Ddg> = loops
        .iter()
        .map(|d| same_shaped_twin(d, &mut rng))
        .collect();
    // One patched workspace for the whole run; the reference runs the
    // closure form in its own workspace.
    let mut ws = TimingWorkspace::new();
    let mut reference = TimingWorkspace::new();
    let (mut feasible, mut infeasible, mut rebinds) = (0usize, 0usize, 0usize);
    for (case, pair) in loops.iter().zip(&twins).enumerate() {
        let ndeps = pair.0.dep_count();
        let rec = (1..)
            .find(|&ii| timing::analyze(pair.0, ii, |_| 0).is_some())
            .unwrap();
        let mut ddg = pair.0;
        let mut resident: Vec<i64> = vec![0; ndeps];
        let mut patch: Vec<(u32, i64)> = Vec::new();
        let mut ii = rec;
        for step in 0..60 {
            match rng.gen_range(0u32..6) {
                // Base edit: the caller's resident vector changes, and it
                // says so.
                0 => {
                    for _ in 0..rng.gen_range(1usize..4) {
                        resident[rng.gen_range(0..ndeps)] = rng.gen_range(0i64..4);
                    }
                    ws.resident_changed();
                }
                // A new patch over distinct deps (a trial's stamped deps).
                1 | 2 => {
                    patch.clear();
                    for _ in 0..rng.gen_range(0usize..6) {
                        let d = rng.gen_range(0..ndeps) as u32;
                        if patch.iter().all(|&(p, _)| p != d) {
                            patch.push((d, rng.gen_range(0i64..4)));
                        }
                    }
                }
                // An II probe, straddling the recurrence bound.
                3 => ii = rng.gen_range((rec - 3).max(1)..rec + 6),
                // A closure-form analysis on the patched workspace in
                // between: the next patched one must resync every dep.
                4 => {
                    let _ = ws.analyze_exec(ddg, ii, |_| rng.gen_range(0i64..3));
                }
                // Rebind to the same-shaped twin (or back), with no
                // `resident_changed`: the rebind alone must reset the
                // patch state.
                _ => {
                    ddg = if std::ptr::eq(ddg, pair.0) {
                        pair.1
                    } else {
                        pair.0
                    };
                    rebinds += 1;
                }
            }
            let extra = |e: DepId| {
                let i = e.index() as u32;
                patch
                    .iter()
                    .find(|&&(d, _)| d == i)
                    .map_or(resident[e.index()], |&(_, x)| x)
            };
            let what = format!("case {case} step {step} ii {ii}");
            let want = reference.analyze_exec(ddg, ii, extra).is_some();
            let got = ws.analyze_patched(ddg, ii, &resident, &patch).cloned();
            match (want, got) {
                (false, None) => infeasible += 1,
                (true, Some(b)) => {
                    feasible += 1;
                    reference.complete_slack();
                    let a = reference.last();
                    assert_eq!(a.ii, b.ii, "{what}: ii");
                    assert_eq!(a.asap, b.asap, "{what}: asap");
                    assert_eq!(a.start, b.start, "{what}: start");
                    assert_eq!(a.tail, b.tail, "{what}: tail");
                    assert_eq!(a.max_path, b.max_path, "{what}: max_path");
                    ws.solve_reverse();
                    for e in 0..ndeps {
                        assert_eq!(a.edge_slack[e], ws.slack_of(e), "{what}: slack of dep {e}");
                    }
                }
                (want, got) => panic!(
                    "{what}: feasibility disagrees (closure {want}, patched {})",
                    got.is_some()
                ),
            }
        }
    }
    assert!(feasible > 0 && infeasible > 0 && rebinds > 0);
}
