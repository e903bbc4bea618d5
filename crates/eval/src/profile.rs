//! The `reproduce profile` section: where does scheduling time go?
//!
//! Runs the SPECfp95 suite through the engine inside a trace session —
//! serially and with the memo cache disabled, like Table 2, so every unit
//! pays its full algorithmic cost and self-time fractions of the wall
//! clock are directly meaningful — and reduces the trace to the per-phase
//! profile of `TraceSummary`.

use gpsched_engine::{run_sweep, JobSpec, SweepOptions};
use gpsched_machine::MachineConfig;
use gpsched_sched::AlgorithmSpec;
use gpsched_trace::TraceSummary;
use gpsched_workloads::spec_suite;

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

impl ProfileReport {
    /// Renders the text report: header plus the top `top_n` phases.
    pub fn render(&self, top_n: usize) -> String {
        format!(
            "[{}] {} units, serial, cache off\n{}",
            self.machine,
            self.units,
            self.summary.render(top_n)
        )
    }
}

/// Profiles `programs` × [`AlgorithmSpec::PAPER`] on one machine.
pub fn profile_report_on(
    programs: &[gpsched_workloads::Program],
    machine: &MachineConfig,
) -> ProfileReport {
    let job = JobSpec::new()
        .programs(programs)
        .machines([machine.clone()])
        .algorithms(AlgorithmSpec::PAPER);
    let opts = SweepOptions {
        workers: 1,
        use_cache: false,
        progress: false,
    };
    let session = gpsched_trace::TraceSession::start();
    let result = run_sweep(&job, &opts, None);
    let trace = session.finish();
    ProfileReport {
        machine: machine.short_name(),
        units: result.stats.units,
        summary: trace.summary(),
    }
}

/// **Profile**: the full SPECfp95 suite on the paper's reference clustered
/// machine (2 clusters, 32 registers, 1 bus, latency 1).
pub fn profile_report() -> ProfileReport {
    profile_report_on(&spec_suite(), &MachineConfig::two_cluster(32, 1, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_workloads::{kernels, Program};

    #[test]
    fn profile_covers_every_layer() {
        let programs = vec![Program {
            name: "mini",
            loops: vec![kernels::daxpy(100), kernels::fir(80, 6)],
        }];
        let p = profile_report_on(&programs, &MachineConfig::two_cluster(32, 1, 1));
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
        // All phases: concurrent tests' spans can push `engine.unit` out
        // of any fixed top-N by self time.
        let text = p.render(0);
        assert!(text.contains("c2r32b1l1"));
        assert!(text.contains("engine.unit"));
    }
}
