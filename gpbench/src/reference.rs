//! Host-speed normalisation with a fixed reference kernel.
//!
//! On a shared host the same build runs up to 1.7× slower for minutes at
//! a time, whole runs included, because of other tenants' load; no choice
//! of statistic within a run removes that. So every run also times a fixed
//! kernel of the benchmark's own — a longest-path relaxation over a random
//! graph followed by a sort, a small cousin of the scheduler's timing
//! kernel, never the program's code — interleaved with the program's work
//! on the same CPU (the process runs pinned to one, see [`crate::pin`]).
//! A time figure is multiplied by (nominal ÷ measured kernel time)^
//! [`SENSITIVITY`], so it reads as wall time on the host at nominal speed.
//! A change to the program moves the figures; the host's load largely
//! does not.
//!
//! On the 2-vCPU Xeon VM the benchmark was built on, over ten runs per
//! workload, the program slowed more than the kernel under the same
//! contention: regressing log throughput on log kernel speed gave
//! exponents of 1.38 (paper-serial) and 1.56 (synth-par). With an exponent
//! of 1 the spread of `loops_per_s` (interquartile range over median) was
//! 0.115 and 0.160; with 1.5 it was 0.059 and 0.053; raw wall time spread
//! up to 0.32.

use crate::stats::{median, Rng};
use std::time::Instant;

/// Nominal kernel time in ms: its median on the 2-vCPU Xeon VM the
/// benchmark was built on, in that host's fast state.
const NOMINAL_MS: f64 = 0.47;

/// How much more the program slows than the kernel under the same host
/// contention, as an exponent on the kernel's slowdown (see above).
const SENSITIVITY: f64 = 1.5;

/// The reference kernel: deterministic, allocation and all.
pub fn kernel() -> u64 {
    let n = 2000;
    let mut rng = Rng::new(5, 9);
    let edges: Vec<(usize, usize, i64)> = (0..8000)
        .map(|_| (rng.below(n), rng.below(n), (rng.next() % 7) as i64 - 2))
        .collect();
    let mut dist = vec![0i64; n];
    for _ in 0..6 {
        for &(a, b, w) in &edges {
            let d = dist[a] + w;
            if d > dist[b] && d < 50 {
                dist[b] = d;
            }
        }
    }
    dist.sort_unstable();
    dist.iter().sum::<i64>() as u64
}

/// Wall time in ms of one run of the kernel on the calling thread.
pub fn time_kernel() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// The factor that turns times measured next to `samples` (kernel times
/// from [`time_kernel`]) into times at nominal host speed.
pub fn scale(samples: &[f64]) -> f64 {
    let measured = median(samples);
    if measured > 0.0 {
        (NOMINAL_MS / measured).powf(SENSITIVITY)
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scale_inverts_slowdown() {
        assert_eq!(kernel(), kernel());
        assert!(time_kernel() > 0.0);
        let half_speed = scale(&[0.94, 0.94, 1.5]);
        assert!((half_speed - 0.5f64.powf(SENSITIVITY)).abs() < 1e-12);
        assert_eq!(scale(&[NOMINAL_MS]), 1.0);
        assert_eq!(scale(&[]), 1.0);
    }
}
