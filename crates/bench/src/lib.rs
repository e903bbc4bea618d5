//! Benchmark support crate: see the `benches/` directory. The benches
//! time the substrates (matching, RecMII, SMS ordering, the simulator),
//! the partitioner's ablations and synthetic corpus generation; run with
//! `cargo bench -p gpsched-bench`. End-to-end throughput and per-layer
//! counters come from gpbench (`BENCHMARK.json`); the paper's figures and
//! tables from `reproduce`.
//!
//! The workspace builds without external crates, so this library provides
//! the tiny timing harness the bench binaries share (`harness = false`):
//! fixed sample counts, min/mean/max wall times, deterministic output
//! lines that are easy to diff between commits.

use std::time::{Duration, Instant};

/// Wall-time statistics of one benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Fastest sample.
    pub min: Duration,
    /// Mean over samples.
    pub mean: Duration,
    /// Slowest sample.
    pub max: Duration,
    /// Number of timed samples.
    pub samples: usize,
}

impl Timing {
    /// The throughput implied by the *minimum* sample for `items` items
    /// per run (min is the least noisy estimator on a shared host).
    pub fn per_second(&self, items: usize) -> f64 {
        items as f64 / self.min.as_secs_f64().max(1e-12)
    }
}

/// Times `f`: one untimed warmup, then `samples` timed runs.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn time_samples<R>(samples: usize, mut f: impl FnMut() -> R) -> Timing {
    assert!(samples > 0, "need at least one sample");
    std::hint::black_box(f());
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    let mut total = Duration::ZERO;
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let dt = t0.elapsed();
        min = min.min(dt);
        max = max.max(dt);
        total += dt;
    }
    Timing {
        min,
        mean: total / samples as u32,
        max,
        samples,
    }
}

/// A named group of benchmarks, mirroring the structure the bench files
/// had under criterion.
pub struct Group {
    name: String,
    samples: usize,
}

impl Group {
    /// Starts a group with the default of 10 samples per bench.
    pub fn new(name: impl Into<String>) -> Self {
        Group {
            name: name.into(),
            samples: 10,
        }
    }

    /// Overrides the per-bench sample count (builder-style).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.samples = n;
        self
    }

    /// Runs and reports one benchmark of the group; returns the timing so
    /// callers can derive throughput lines.
    pub fn bench<R>(&self, id: &str, f: impl FnMut() -> R) -> Timing {
        let t = time_samples(self.samples, f);
        println!(
            "{}/{id}: min {:.3} ms, mean {:.3} ms, max {:.3} ms ({} samples)",
            self.name,
            t.min.as_secs_f64() * 1e3,
            t.mean.as_secs_f64() * 1e3,
            t.max.as_secs_f64() * 1e3,
            t.samples
        );
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_bounds_are_ordered() {
        let t = time_samples(5, || std::hint::black_box((0..1000).sum::<u64>()));
        assert!(t.min <= t.mean && t.mean <= t.max);
        assert_eq!(t.samples, 5);
        assert!(t.per_second(100) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        time_samples(0, || ());
    }
}
