//! Seeded workload inputs, as job-body text.
//!
//! Every workload's input is a list of job bodies in the daemon's job
//! format (`group` / `machines` / `algos` directives plus embedded `.ddg`
//! blocks). The bodies are a pure function of the workload and `--seed`;
//! the program receives only the text and parses it itself
//! (`serve::parse_job_body`, which runs `engine::parse_corpus`).

use crate::stats::Rng;
use gpsched_engine::serve::parse_job_body;
use gpsched_engine::{generate_corpus, serialize_ddg, JobSpec};
use gpsched_machine::table1_configs;
use gpsched_workloads::{preset, spec_suite, synth::synthesize, SynthProfile, PRESET_NAMES};

/// Machines of the synth-par workload: a 2-cluster bus, a 4-cluster
/// 2-cycle bus, a ring and a point-to-point mesh.
pub const SYNTH_MACHINES: [&str; 4] = ["c2r32b1l1", "c4r64b1l2", "c4r64ring1x1", "c4r64p2p1x1"];
/// Algorithms of the synth-par workload.
pub const SYNTH_ALGOS: &str = "gp,uracam,portfolio";
/// Generator seed of the synth-par corpus.
pub const SYNTH_CORPUS_SEED: u64 = 2001;
/// Preset-sized loops per preset in synth-par.
pub const SYNTH_SMALL: usize = 3;
/// Large loops per preset: bodies above the engine's 64-op race threshold.
pub const SYNTH_BIG: usize = 2;
/// Op count of the large synth-par loops.
pub const SYNTH_BIG_OPS: usize = 96;
/// Loops per serve-open job body.
pub const SERVE_LOOPS: usize = 3;
/// Op count of a serve-open loop.
pub const SERVE_OPS: usize = 16;

/// The paper-serial bodies: one job per SPECfp95 loop and Table 1 machine
/// (that loop on that machine × URACAM/Fixed/GP/List), grouped by program.
/// The seed shuffles the job order; the set of units is always the full
/// 2,800-unit paper sweep.
pub fn paper_bodies(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 1);
    let machines: Vec<String> = table1_configs()
        .into_iter()
        .map(|(_, m)| m.short_name())
        .collect();
    let mut bodies = Vec::new();
    for program in spec_suite() {
        for l in &program.loops {
            let text = serialize_ddg(l);
            for m in &machines {
                bodies.push(format!(
                    "group {}\nmachines {m}\nalgos uracam,fixed,gp,list\n{text}",
                    program.name
                ));
            }
        }
    }
    rng.shuffle(&mut bodies);
    bodies
}

/// The synth-par bodies: one job per loop, on [`SYNTH_MACHINES`] with
/// [`SYNTH_ALGOS`]. Each generator preset gives [`SYNTH_SMALL`]
/// preset-sized loops (~30 ops) and [`SYNTH_BIG`] loops scaled to
/// [`SYNTH_BIG_OPS`] ops. The corpus is drawn from the fixed
/// [`SYNTH_CORPUS_SEED`], because 30 loops are too few for runs on
/// different corpora to compare; `seed` shuffles the job order only. The
/// machine order stays fixed: it decides which units of a job fill its
/// memo cache and which hit it, and shuffling it moved the job's work by
/// up to 15% from seed to seed.
pub fn synth_bodies(seed: u64) -> Vec<String> {
    let mut corpus = Rng::new(SYNTH_CORPUS_SEED, 2);
    let mut rng = Rng::new(seed, 2);
    let machines = SYNTH_MACHINES.join(",");
    let mut bodies = Vec::new();
    for name in PRESET_NAMES {
        let small = preset(name).expect("bundled preset");
        let big = SynthProfile {
            ops: SYNTH_BIG_OPS,
            ..small.clone()
        };
        let loops = generate_corpus(name, &small, corpus.next() >> 16, SYNTH_SMALL, 1)
            .into_iter()
            .chain(generate_corpus(
                &format!("{name}-big"),
                &big,
                corpus.next() >> 16,
                SYNTH_BIG,
                1,
            ));
        for l in loops {
            bodies.push(format!(
                "group {name}\nmachines {machines}\nalgos {SYNTH_ALGOS}\n{}",
                serialize_ddg(&l)
            ));
        }
    }
    rng.shuffle(&mut bodies);
    bodies
}

/// Serve-open job body number `index`: [`SERVE_LOOPS`] small loops on two
/// machines under GP and List.
pub fn serve_body(seed: u64, index: usize) -> String {
    let profile = SynthProfile {
        ops: SERVE_OPS,
        ..SynthProfile::default()
    };
    let mut rng = Rng::new(seed, 3 + ((index as u64) << 8));
    let mut body = String::from("group serve\nmachines c2r32b1l1,c4r64b1l2\nalgos gp,list\n");
    for i in 0..SERVE_LOOPS {
        let ddg = synthesize(format!("s{seed}-b{index}-{i}"), &profile, rng.next() >> 16);
        body.push_str(&serialize_ddg(&ddg));
    }
    body
}

/// Parses bodies into jobs the way the daemon does.
pub fn parse_jobs(bodies: &[String]) -> Result<Vec<JobSpec>, String> {
    bodies
        .iter()
        .enumerate()
        .map(|(i, b)| parse_job_body(b).map_err(|e| format!("job body {i}: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_byte_identical_per_seed_and_differs_across_seeds() {
        assert_eq!(paper_bodies(5), paper_bodies(5));
        assert_ne!(paper_bodies(5), paper_bodies(6));
        assert_eq!(synth_bodies(5), synth_bodies(5));
        assert_ne!(synth_bodies(5), synth_bodies(6));
        assert_eq!(serve_body(5, 3), serve_body(5, 3));
        assert_ne!(serve_body(5, 3), serve_body(6, 3));
        assert_ne!(serve_body(5, 3), serve_body(5, 4));
    }

    #[test]
    fn paper_bodies_cover_the_whole_paper_sweep() {
        let jobs = parse_jobs(&paper_bodies(1)).unwrap();
        assert_eq!(jobs.len(), 700);
        assert_eq!(jobs.iter().map(JobSpec::unit_count).sum::<usize>(), 2800);
    }

    #[test]
    fn synth_bodies_straddle_the_race_threshold() {
        let jobs = parse_jobs(&synth_bodies(1)).unwrap();
        assert_eq!(jobs.len(), PRESET_NAMES.len() * (SYNTH_SMALL + SYNTH_BIG));
        let ops: Vec<usize> = jobs
            .iter()
            .flat_map(|j| j.loops.iter().map(|l| l.ddg.op_count()))
            .collect();
        assert!(ops.iter().any(|&n| n < 64) && ops.iter().any(|&n| n >= 64));
    }
}
