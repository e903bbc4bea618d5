//! The `reproduce profile` section: what does a scheduling sweep do?
//!
//! Runs the SPECfp95 suite through the engine inside a trace session —
//! serially and with the memo cache disabled, like Table 2, so every unit
//! pays its full algorithmic cost — and reduces the trace to the
//! per-phase profile of `TraceSummary`. Its span counts and counters
//! repeat exactly; its self times, which vary with the host, are for the
//! timing appendix only.

use gpsched_engine::{run_sweep, JobSpec, SweepOptions, SweepResult};
use gpsched_machine::MachineConfig;
use gpsched_sched::AlgorithmSpec;
use gpsched_trace::{Trace, TraceSession, TraceSummary};
use gpsched_workloads::Program;

/// A traced evaluation sweep reduced to per-phase statistics.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Machine the sweep ran on (short name).
    pub machine: String,
    /// Units scheduled (loops × algorithms, one machine).
    pub units: usize,
    /// Per-phase self/total time and counter totals.
    pub summary: TraceSummary,
}

/// Schedules `programs` × `specs` on `machine` serially with the memo
/// cache off, inside one trace session: every unit pays its full
/// algorithmic cost, and the session's process-wide counters are this
/// sweep's alone as long as nothing else schedules meanwhile.
pub(crate) fn traced_sweep(
    programs: &[Program],
    machine: &MachineConfig,
    specs: &[AlgorithmSpec],
) -> (SweepResult, Trace) {
    let job = JobSpec::new()
        .programs(programs)
        .machines([machine.clone()])
        .algorithms(specs.iter().copied());
    let opts = SweepOptions {
        workers: 1,
        use_cache: false,
        progress: false,
    };
    let session = TraceSession::start();
    let result = run_sweep(&job, &opts, None);
    (result, session.finish())
}

/// **Profile**: `programs` × [`AlgorithmSpec::PAPER`] on the paper's
/// reference clustered machine (2 clusters, 32 registers, 1 bus, latency
/// 1).
pub fn profile_report(programs: &[Program]) -> ProfileReport {
    let machine = MachineConfig::two_cluster(32, 1, 1);
    let (result, trace) = traced_sweep(programs, &machine, &AlgorithmSpec::PAPER);
    ProfileReport {
        machine: machine.short_name(),
        units: result.stats.units,
        summary: trace.summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_workloads::kernels;

    #[test]
    fn profile_covers_every_layer() {
        let programs = vec![Program {
            name: "mini",
            loops: vec![kernels::daxpy(100), kernels::fir(80, 6)],
        }];
        let p = profile_report(&programs);
        assert_eq!(p.units, 2 * AlgorithmSpec::PAPER.len());
        // Spans from every instrumented layer show up.
        for phase in ["engine.unit", "sched.ii_attempt", "partition.run"] {
            assert!(
                p.summary.phase(phase).is_some(),
                "missing phase {phase} in {:?}",
                p.summary.phases
            );
        }
        // Hot-loop counters flushed from the graph layer. (No assertion on
        // cache counters: tracing is process-global, so concurrent tests'
        // sweeps can contribute counts during this session.)
        assert!(p.summary.counter("graph.bf.runs") > 0);
        let text = crate::report::profile_section(&p);
        assert!(text.contains("`c2r32b1l1`"));
        assert!(text.contains("| engine.unit |"));
        assert!(text.contains("| graph.bf.runs |"));
    }
}
