//! Small numeric and process helpers: percentiles, a seeded generator,
//! resident-memory readings.

/// Nearest-rank percentile `q` (0–100) of `samples`; 0 for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `samples` (nearest rank); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Percentile `q` of each consecutive `size`-sample segment of `samples`
/// (in measurement order), then the median of those. A stretch of host
/// contention spoils the segments it falls in, not the median of them.
/// Falls back to the whole set when it holds fewer than two segments.
pub fn segmented_percentile(samples: &[f64], size: usize, q: f64) -> f64 {
    if samples.len() < 2 * size {
        return percentile(samples, q);
    }
    let per: Vec<f64> = samples
        .chunks(size)
        .filter(|c| c.len() == size)
        .map(|c| percentile(c, q))
        .collect();
    median(&per)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: the benchmark's only source of randomness, so every input
/// is a function of `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in `stream` (independent streams per use).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A `/proc/self/status` field in MB (`VmHWM` peak, `VmRSS` current);
/// 0 where the file is unavailable.
pub fn proc_status_mb(field: &str) -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        // A disturbed minority of segments does not move the segmented
        // figure.
        let mut w: Vec<f64> = (0..500).map(|i| f64::from(i % 100)).collect();
        w[150] = 1e9;
        w[250] = 1e9;
        assert_eq!(segmented_percentile(&w, 100, 100.0), 99.0);
        assert_eq!(segmented_percentile(&w[..151], 100, 100.0), 1e9);
    }

    #[test]
    fn rng_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next(), Rng::new(7, 2).next());
        assert_ne!(Rng::new(7, 1).next(), Rng::new(8, 1).next());
    }
}
