//! Job specifications: what a batch sweep should schedule.

use gpsched_ddg::Ddg;
use gpsched_machine::{table1_configs, topology_presets, MachineConfig};
use gpsched_partition::PartitionOptions;
use gpsched_sched::{AlgorithmSpec, DriverConfig};
use gpsched_workloads::Program;
use std::collections::BTreeMap;

/// One loop in a job, tagged with the group (program / corpus) it belongs
/// to so results can be aggregated the way the paper aggregates whole
/// benchmarks.
#[derive(Clone, Debug)]
pub struct LoopSpec {
    /// Aggregation group (benchmark/program name; `"corpus"` for loose
    /// corpora).
    pub group: String,
    /// The loop itself.
    pub ddg: Ddg,
}

/// A batch sweep: the cross product of loops × machines × algorithms.
///
/// Units are enumerated loop-major, then machine, then algorithm, and the
/// unit index is the deterministic identity of each result — however many
/// workers execute the sweep, record `k` is always the same (loop,
/// machine, algorithm) triple.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Loops to schedule.
    pub loops: Vec<LoopSpec>,
    /// Machines to schedule on.
    pub machines: Vec<MachineConfig>,
    /// Algorithm specs to schedule with; any [`AlgorithmSpec`] variant is
    /// sweepable.
    pub algorithms: Vec<AlgorithmSpec>,
    /// Partitioner options shared by every unit.
    pub popts: PartitionOptions,
    /// Driver options shared by every unit.
    pub cfg: DriverConfig,
}

impl JobSpec {
    /// An empty job with default options.
    pub fn new() -> Self {
        JobSpec {
            loops: Vec::new(),
            machines: Vec::new(),
            algorithms: Vec::new(),
            popts: PartitionOptions::default(),
            cfg: DriverConfig::default(),
        }
    }

    /// Adds one loop under a group label (builder-style).
    pub fn loop_in(mut self, group: impl Into<String>, ddg: Ddg) -> Self {
        self.loops.push(LoopSpec {
            group: group.into(),
            ddg,
        });
        self
    }

    /// Adds every loop of a workload [`Program`] under the program's name.
    pub fn program(mut self, program: &Program) -> Self {
        for l in &program.loops {
            self.loops.push(LoopSpec {
                group: program.name.to_string(),
                ddg: l.clone(),
            });
        }
        self
    }

    /// Adds every program of a suite.
    pub fn programs(mut self, suite: &[Program]) -> Self {
        for p in suite {
            self = self.program(p);
        }
        self
    }

    /// Adds a generated synthetic corpus under `group`: `count` loops from
    /// `profile`, named and seeded exactly like
    /// [`gen::generate_corpus`](crate::gen::generate_corpus), so a sweep
    /// over a generated corpus reproduces from `(group, base_seed, count)`
    /// alone.
    pub fn synth_corpus(
        mut self,
        group: impl Into<String>,
        profile: &gpsched_workloads::SynthProfile,
        base_seed: u64,
        count: usize,
    ) -> Self {
        let group = group.into();
        for ddg in crate::gen::generate_corpus(&group, profile, base_seed, count, 1) {
            self.loops.push(LoopSpec {
                group: group.clone(),
                ddg,
            });
        }
        self
    }

    /// Adds a machine (builder-style).
    pub fn machine(mut self, m: MachineConfig) -> Self {
        self.machines.push(m);
        self
    }

    /// Adds several machines.
    pub fn machines(mut self, ms: impl IntoIterator<Item = MachineConfig>) -> Self {
        self.machines.extend(ms);
        self
    }

    /// Adds an algorithm spec (builder-style).
    pub fn algorithm(mut self, a: AlgorithmSpec) -> Self {
        self.algorithms.push(a);
        self
    }

    /// Adds several algorithm specs.
    pub fn algorithms(mut self, algos: impl IntoIterator<Item = AlgorithmSpec>) -> Self {
        self.algorithms.extend(algos);
        self
    }

    /// Number of units (loops × machines × algorithms).
    pub fn unit_count(&self) -> usize {
        self.loops.len() * self.machines.len() * self.algorithms.len()
    }

    /// The (loop, machine, algorithm) indices of unit `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= unit_count()`.
    pub fn unit(&self, k: usize) -> (usize, usize, usize) {
        assert!(k < self.unit_count(), "unit index out of range");
        let per_loop = self.machines.len() * self.algorithms.len();
        let li = k / per_loop;
        let rest = k % per_loop;
        (
            li,
            rest / self.algorithms.len(),
            rest % self.algorithms.len(),
        )
    }

    /// The full paper evaluation: SPECfp95 suite × Table 1 machines × all
    /// four algorithms.
    pub fn paper_sweep() -> Self {
        JobSpec::new()
            .programs(&gpsched_workloads::spec_suite())
            .machines(table1_configs().into_iter().map(|(_, m)| m))
            .algorithms(AlgorithmSpec::PAPER)
    }
}

impl Default for JobSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// Parses a machine short name back into a configuration — the inverse of
/// [`MachineConfig::short_name`] for the homogeneous shapes the reports
/// use: `u-r32`, shared buses (`c2r32b1l1`), pipelined buses
/// (`c2r32pb1l2`), rings (`c4r64ring2x1`) and uniform point-to-point
/// meshes (`c4r64p2p1x1`).
pub fn machine_from_short_name(s: &str) -> Option<MachineConfig> {
    use gpsched_machine::Interconnect;
    if let Some(regs) = s.strip_prefix("u-r") {
        return Some(MachineConfig::unified(regs.parse().ok()?));
    }
    let rest = s.strip_prefix('c')?;
    let (clusters, rest) = rest.split_once('r')?;
    let clusters: u32 = clusters.parse().ok()?;
    // Registers are the leading digits; the interconnect tag follows.
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let (regs, tag) = rest.split_at(digits);
    let regs: u32 = regs.parse().ok()?;
    if regs == 0 || clusters == 0 || regs % clusters != 0 {
        return None;
    }
    let units = match clusters {
        2 => (2, 2, 2),
        4 => (1, 1, 1),
        _ => return None,
    };
    let two = |s: &str, sep: char| -> Option<(u32, u32)> {
        let (a, b) = s.split_once(sep)?;
        Some((a.parse().ok()?, b.parse().ok()?))
    };
    let interconnect = if let Some(rest) = tag.strip_prefix("pb") {
        let (count, latency) = two(rest, 'l')?;
        Interconnect::SharedBus {
            count,
            latency,
            pipelined: true,
        }
    } else if let Some(rest) = tag.strip_prefix("b") {
        let (count, latency) = two(rest, 'l')?;
        Interconnect::legacy_bus(count, latency)
    } else if let Some(rest) = tag.strip_prefix("ring") {
        let (hop_latency, links_per_hop) = two(rest, 'x')?;
        Interconnect::Ring {
            hop_latency,
            links_per_hop,
        }
    } else if let Some(rest) = tag.strip_prefix("p2p") {
        let (latency, channels) = two(rest, 'x')?;
        if latency == 0 {
            return None;
        }
        Interconnect::uniform_point_to_point(clusters as usize, latency, channels)
    } else {
        return None;
    };
    match &interconnect {
        Interconnect::SharedBus { count, latency, .. } if *count == 0 || *latency == 0 => {
            return None
        }
        Interconnect::Ring {
            hop_latency,
            links_per_hop,
        } if *hop_latency == 0 || *links_per_hop == 0 => return None,
        Interconnect::PointToPoint { channels, .. } if *channels == 0 => return None,
        _ => {}
    }
    Some(MachineConfig::homogeneous_with(
        clusters,
        units,
        regs,
        interconnect,
    ))
}

/// Resolves a machine selection, as the CLI's `--machines` and the job
/// grammar's `machines` directive take it: `table1` (the paper's
/// machines), `clustered` (those without the unified ones), `topologies`
/// (one reference machine per interconnect shape: shared bus, pipelined
/// bus, ring, point-to-point) or a comma-separated list of short names
/// ([`machine_from_short_name`]; empty entries are skipped).
///
/// # Errors
///
/// Names the first entry that is no machine short name.
pub fn machine_set(selection: &str) -> Result<Vec<MachineConfig>, String> {
    let table1 = || table1_configs().into_iter().map(|(_, m)| m);
    match selection.trim() {
        "table1" => Ok(table1().collect()),
        "clustered" => Ok(table1().filter(|m| !m.is_unified()).collect()),
        "topologies" => Ok(topology_presets()),
        list => list
            .split(',')
            .map(str::trim)
            .filter(|name| !name.is_empty())
            .map(|name| {
                machine_from_short_name(name)
                    .ok_or_else(|| format!("unknown machine short name `{name}`"))
            })
            .collect(),
    }
}

/// The machines of a parsed `.machine` corpus (a file, or the blocks
/// embedded in a job body), refusing two *different* machines that share
/// one short name: records label machines by that shape-derived name
/// (same totals, different unit mixes give the same one), so they would
/// silently merge in every report.
///
/// # Errors
///
/// Names both machines and the short name they share.
pub fn distinct_short_names(
    machines: Vec<(String, MachineConfig)>,
) -> Result<Vec<MachineConfig>, String> {
    let mut seen: BTreeMap<String, (&str, &MachineConfig)> = BTreeMap::new();
    for (name, m) in &machines {
        let short = m.short_name();
        if let Some((prev_name, prev_m)) = seen.get(&short) {
            if *prev_m != m {
                return Err(format!(
                    "machines `{prev_name}` and `{name}` are different configurations but share \
                     the short name `{short}`; sweep records could not tell them apart"
                ));
            }
        }
        seen.insert(short, (name, m));
    }
    Ok(machines.into_iter().map(|(_, m)| m).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsched_workloads::kernels;

    #[test]
    fn unit_enumeration_is_loop_major() {
        let job = JobSpec::new()
            .loop_in("g", kernels::daxpy(10))
            .loop_in("g", kernels::dot_product(10))
            .machine(MachineConfig::unified(32))
            .machine(MachineConfig::two_cluster(32, 1, 1))
            .algorithms([AlgorithmSpec::GP, AlgorithmSpec::URACAM]);
        assert_eq!(job.unit_count(), 8);
        assert_eq!(job.unit(0), (0, 0, 0));
        assert_eq!(job.unit(1), (0, 0, 1));
        assert_eq!(job.unit(2), (0, 1, 0));
        assert_eq!(job.unit(5), (1, 0, 1));
        assert_eq!(job.unit(7), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unit_bounds_checked() {
        JobSpec::new().unit(0);
    }

    #[test]
    fn paper_sweep_shape() {
        let job = JobSpec::paper_sweep();
        assert_eq!(job.machines.len(), 10);
        assert_eq!(job.algorithms.len(), 4);
        assert_eq!(job.loops.len(), 70); // 10 programs, 70 loops total
        assert_eq!(job.unit_count(), 70 * 10 * 4);
    }

    #[test]
    fn short_name_round_trips() {
        for (_, m) in table1_configs() {
            let back = machine_from_short_name(&m.short_name()).unwrap();
            assert_eq!(back, m, "{}", m.short_name());
        }
        for m in gpsched_machine::topology_presets() {
            let back = machine_from_short_name(&m.short_name()).unwrap();
            assert_eq!(back, m, "{}", m.short_name());
        }
        assert!(machine_from_short_name("c3r30b1l1").is_none());
        assert!(machine_from_short_name("c2r32ring0x1").is_none());
        assert!(machine_from_short_name("c2r32p2p1x0").is_none());
        assert!(machine_from_short_name("garbage").is_none());
    }
}
