//! Property tests for the trial undo log on [`PartialSchedule`].
//!
//! The scheduler's placement path is speculative by construction: every
//! II attempt books functional units, interconnect hops, register
//! intervals, transfers and spills, then often throws the trial away.
//! Since PR 8 that unwinding is an undo log, not a clone — so the log
//! must restore the state *bit-identically*. These tests drive random
//! apply→rollback sequences (place / transfer / spill) over every
//! topology preset and check:
//!
//! 1. **rollback**: after `begin_trial` → mutations → `rollback_trial`,
//!    the schedule equals a clone taken just before the trial — even when
//!    the trial ended in a *failed* `place` that left partial bookings;
//! 2. **commit**: after `commit_trial`, the schedule equals a clone that
//!    applied the same successful placements with no trial bracketing at
//!    all (the old clone-and-mutate path).
//!
//! Everything is seeded — no flaky coverage. Run under
//! `GPSCHED_SHADOW_UNDO=1` (the conformance lane does) to additionally
//! cross-check every rollback against a shadow clone inside the library.

use gpsched_ddg::Ddg;
use gpsched_machine::{topology_presets, MachineConfig};
use gpsched_sched::state::PartialSchedule;
use gpsched_workloads::kernels;

/// Deterministic xorshift64* — no dev-dependency on a RNG crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// Kernels with enough ops, cross-iteration flow and memory traffic to
/// exercise transfers and register spills on the 32-register machines.
fn workloads() -> Vec<Ddg> {
    vec![
        kernels::fir(100, 12),
        kernels::livermore1(100),
        kernels::stencil5(100),
        kernels::complex_multiply(100),
    ]
}

/// Drives one random trial sequence on `(ddg, machine, ii)` and returns
/// booking totals for the coverage assertions.
fn drive(ddg: &Ddg, machine: &MachineConfig, ii: i64, rng: &mut Rng) -> (usize, usize, usize) {
    let nclusters = machine.cluster_count();
    let mut sched = PartialSchedule::new(ddg, machine, ii);
    let mut unplaced: Vec<usize> = (0..ddg.op_count()).collect();
    let mut steps = 0usize;
    let (mut rollbacks, mut commits) = (0usize, 0usize);

    while !unplaced.is_empty() && steps < 400 {
        steps += 1;
        let pre = sched.clone();
        let guard = sched.begin_trial();

        // One trial: a handful of random placements. Long random windows
        // stretch register intervals, which is what drives spills.
        let tries = 1 + rng.below(4);
        let mut placed: Vec<(usize, usize, i64)> = Vec::new();
        let mut failed = false;
        for _ in 0..tries.min(unplaced.len()) {
            let ui = rng.below(unplaced.len());
            let op = unplaced[ui];
            let cluster = rng.below(nclusters);
            // Wide windows stretch same-cluster flow intervals across many
            // II rows (`len/II` registers each), which is what overflows a
            // 16-register file and exercises the spill undo entries.
            let base = rng.below(10 * ii as usize) as i64;
            let mut done = false;
            for dt in 0..(2 * ii) {
                let t = base + dt;
                let id = gpsched_graph::NodeId::from_index(op);
                if sched.quick_reject(id, cluster, t) {
                    continue;
                }
                match sched.place(id, cluster, t) {
                    Ok(()) => {
                        placed.push((op, cluster, t));
                        unplaced.swap_remove(ui);
                        done = true;
                    }
                    Err(_) => {
                        // Partial bookings now sit above the trial mark;
                        // only a rollback can resolve this trial.
                        failed = true;
                    }
                }
                break;
            }
            if done || failed {
                break;
            }
        }

        if failed || placed.is_empty() || rng.chance(40) {
            // Property 1: rollback restores the pre-trial clone exactly.
            sched.rollback_trial(guard);
            assert!(
                sched.state_eq(&pre),
                "rollback diverged from the pre-trial clone ({}, {}, ii={ii}, step {steps})",
                ddg.name(),
                machine.short_name(),
            );
            rollbacks += 1;
            // The rolled-back placements are still unplaced.
            for &(op, _, _) in &placed {
                unplaced.push(op);
            }
        } else {
            // Property 2: the committed trial matches clone-and-mutate.
            sched.commit_trial(guard);
            let mut alt = pre;
            for &(op, cluster, t) in &placed {
                alt.place(gpsched_graph::NodeId::from_index(op), cluster, t)
                    .expect("replaying a committed placement cannot fail");
            }
            assert!(
                sched.state_eq(&alt),
                "committed trial diverged from clone-and-mutate ({}, {}, ii={ii}, step {steps})",
                ddg.name(),
                machine.short_name(),
            );
            commits += 1;
        }
    }
    assert!(
        rollbacks > 0 && commits > 0,
        "sequence exercised both paths"
    );
    (
        sched.transfers().len(),
        sched.spills().len(),
        sched.placed_count(),
    )
}

#[test]
fn random_trials_roll_back_and_commit_bit_identically() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let (mut transfers, mut spills, mut placed) = (0usize, 0usize, 0usize);
    for machine in topology_presets() {
        for ddg in workloads() {
            for ii in [2i64, 4] {
                let (t, s, p) = drive(&ddg, &machine, ii, &mut rng);
                transfers += t;
                spills += s;
                placed += p;
            }
        }
    }
    // Coverage, not luck: the seeded sequences must have booked real
    // cross-cluster traffic and register spills, or the properties above
    // never saw the hard undo entries (Net/Transfer/Spill/SpillLoad).
    assert!(placed > 0, "no op was ever placed");
    assert!(transfers > 0, "no transfer was ever booked");
    assert!(spills > 0, "no spill was ever booked");
}
