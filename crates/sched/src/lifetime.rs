//! Register lifetimes and per-cluster `MaxLive` pressure.
//!
//! A value produced at absolute time `d` and last read at absolute time `u`
//! occupies a register in its cluster during `[d, u]`. In the software
//! pipeline's steady state, kernel slot `c` holds every value instance with
//! `d ≤ c + k·II ≤ u` for some iteration offset `k`, so a lifetime of
//! length `L = u − d + 1` contributes `⌊L/II⌋` registers to every slot plus
//! one more to `L mod II` consecutive slots starting at `d mod II`.
//! `MaxLive` — the register requirement — is the maximum over slots.

use crate::mrt::slot;

/// Per-cluster live-value counts per kernel slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PressureTable {
    ii: i64,
    caps: Vec<i64>,
    /// Row-major live counts, `live[cluster · II + slot]`: one flat vector
    /// instead of per-cluster rows, so a table is one allocation.
    live: Vec<i64>,
}

impl PressureTable {
    /// Creates an empty table for clusters with the given register
    /// capacities.
    ///
    /// # Panics
    ///
    /// Panics if `ii < 1`.
    pub fn new(caps: Vec<i64>, ii: i64) -> Self {
        assert!(ii >= 1, "ii must be positive");
        let n = caps.len();
        PressureTable {
            ii,
            caps,
            live: vec![0; n * ii as usize],
        }
    }

    /// An empty zero-cluster placeholder (allocates nothing); used to move
    /// a real table out of a schedule while the debug-build reference
    /// rebuild recomputes it in place.
    #[cfg(debug_assertions)]
    pub(crate) fn empty() -> Self {
        PressureTable {
            ii: 1,
            caps: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Zeroes every lifetime row, keeping capacities and allocations.
    pub fn reset(&mut self) {
        self.live.fill(0);
    }

    /// Registers the lifetime `[def, last_use]` in `cluster`.
    ///
    /// Lifetimes with `last_use < def` occupy nothing (a value that is
    /// never read needs no register in this model).
    pub fn add(&mut self, cluster: usize, def: i64, last_use: i64) {
        self.apply(cluster, def, last_use, 1);
    }

    /// Removes a previously added lifetime.
    pub fn remove(&mut self, cluster: usize, def: i64, last_use: i64) {
        self.apply(cluster, def, last_use, -1);
    }

    fn apply(&mut self, cluster: usize, def: i64, last_use: i64, sign: i64) {
        if last_use < def {
            return;
        }
        let len = last_use - def + 1;
        let base = len / self.ii;
        let rem = (len % self.ii) as usize;
        let ii = self.ii as usize;
        let row = &mut self.live[cluster * ii..(cluster + 1) * ii];
        if base > 0 {
            for v in row.iter_mut() {
                *v += sign * base;
            }
        }
        let start = slot(def, self.ii);
        for j in 0..rem {
            let s = (start + j) % self.ii as usize;
            row[s] += sign;
        }
    }

    /// `MaxLive` of `cluster`: the registers the current lifetimes need.
    pub fn max_live(&self, cluster: usize) -> i64 {
        let ii = self.ii as usize;
        self.live[cluster * ii..(cluster + 1) * ii]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Register capacity of `cluster`.
    pub fn capacity(&self, cluster: usize) -> i64 {
        self.caps[cluster]
    }

    /// Whether `cluster` fits within its register file.
    pub fn fits(&self, cluster: usize) -> bool {
        self.max_live(cluster) <= self.caps[cluster]
    }

    /// Free registers of `cluster` (may be negative while overflowing).
    pub fn headroom(&self, cluster: usize) -> i64 {
        self.caps[cluster] - self.max_live(cluster)
    }

    /// Number of clusters tracked.
    pub fn cluster_count(&self) -> usize {
        self.caps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_lifetime_occupies_its_slots() {
        let mut p = PressureTable::new(vec![4], 4);
        p.add(0, 1, 2); // len 2: slots 1,2
        assert_eq!(p.max_live(0), 1);
        p.add(0, 2, 3); // slots 2,3 → slot 2 now holds 2
        assert_eq!(p.max_live(0), 2);
        p.remove(0, 1, 2);
        assert_eq!(p.max_live(0), 1);
    }

    #[test]
    fn long_lifetime_occupies_multiple_registers() {
        let mut p = PressureTable::new(vec![8], 3);
        // len 7 at II=3: 2 everywhere + 1 extra on one slot.
        p.add(0, 0, 6);
        assert_eq!(p.max_live(0), 3);
        p.remove(0, 0, 6);
        assert_eq!(p.max_live(0), 0);
    }

    #[test]
    fn unread_values_use_nothing() {
        let mut p = PressureTable::new(vec![2], 4);
        p.add(0, 5, 4);
        assert_eq!(p.max_live(0), 0);
    }

    #[test]
    fn negative_times_wrap() {
        let mut p = PressureTable::new(vec![4], 4);
        p.add(0, -2, -1); // slots 2,3
        assert_eq!(p.live, vec![0, 0, 1, 1]);
    }

    #[test]
    fn fits_and_headroom() {
        let mut p = PressureTable::new(vec![2, 3], 2);
        p.add(0, 0, 3); // len 4 at II 2 → 2 registers
        assert!(p.fits(0));
        assert_eq!(p.headroom(0), 0);
        p.add(0, 0, 0);
        assert!(!p.fits(0));
        assert_eq!(p.headroom(0), -1);
        assert!(p.fits(1));
        assert_eq!(p.cluster_count(), 2);
    }

    #[test]
    fn exact_multiple_of_ii() {
        let mut p = PressureTable::new(vec![8], 4);
        p.add(0, 0, 7); // len 8 = 2·II → exactly 2 everywhere
        assert_eq!(p.live, vec![2, 2, 2, 2]);
    }
}
