//! Batch sweeps through the engine: build a mixed corpus, export it to
//! `.ddg` text, reload it, and run a multi-machine multi-algorithm sweep
//! with streaming JSONL output.
//!
//! ```text
//! cargo run --release --example batch_sweep
//! ```

use gpsched::engine::{self, SweepOptions};
use gpsched::prelude::*;

fn main() {
    // 1. A corpus: classic kernels plus a few synthesized loops.
    let mut corpus: Vec<Ddg> = kernels::all_kernels(500);
    for seed in 0..4 {
        corpus.push(synth::synthesize(
            format!("synth-{seed}"),
            &SynthProfile::default(),
            seed,
        ));
    }

    // 2. Round-trip it through the textual interchange format — exactly
    //    what `gpsched-engine export | sweep --corpus` does on disk.
    let text = engine::serialize_corpus(corpus.iter());
    let reloaded = engine::parse_corpus(&text).expect("own export always parses");
    assert_eq!(reloaded.len(), corpus.len());
    for (a, b) in corpus.iter().zip(&reloaded) {
        assert!(
            engine::same_structure(a, b),
            "{} changed in transit",
            a.name()
        );
    }
    println!(
        "corpus: {} loops, {} bytes of .ddg text",
        corpus.len(),
        text.len()
    );

    // 3. Sweep it: two clustered machines, all four algorithms.
    let mut job = JobSpec::new()
        .machines([
            MachineConfig::two_cluster(32, 1, 1),
            MachineConfig::four_cluster(64, 1, 2),
        ])
        .algorithms(AlgorithmSpec::PAPER);
    for ddg in reloaded {
        job = job.loop_in("corpus", ddg);
    }

    let mut jsonl: Vec<u8> = Vec::new();
    let result = run_sweep(&job, &SweepOptions::default(), Some(&mut jsonl));

    // 4. Results: deterministic per-unit records + aggregate stats.
    println!("\nper-algorithm aggregate IPC:");
    for agg in engine::aggregate_by_group(&result.records) {
        println!(
            "  {:<12} {:<8} {:>3} loops  IPC {:.3}",
            agg.machine, agg.algorithm, agg.loops, agg.ipc
        );
    }
    println!("\n{}", result.stats.summary());
    println!(
        "JSONL stream: {} lines, first line:\n{}",
        jsonl.iter().filter(|&&b| b == b'\n').count(),
        String::from_utf8_lossy(&jsonl).lines().next().unwrap_or("")
    );
}
