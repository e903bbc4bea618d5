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

/// Per-cluster live-value counts per kernel slot, with `MaxLive` kept
/// incrementally.
///
/// A slot's live count is the cluster's `offset` plus the slot's `rel`
/// count: `offset` sums the `⌊L/II⌋` every-slot share of each lifetime,
/// `rel` the `L mod II` partial shares. `levels[c][v]` counts the slots
/// of cluster `c` whose `rel` is `v`, and `top[c]` is the highest such
/// `v` with a slot on it, so `MaxLive = offset + top` is read without
/// scanning the row. Adding or removing a lifetime touches only its
/// `L mod II` partial slots: each moves one level, and the maximum drops
/// by one only when the last slot on it moves down.
#[derive(Clone, Debug)]
pub struct PressureTable {
    ii: i64,
    caps: Vec<i64>,
    /// Per cluster: registers every slot holds through whole-II shares.
    offset: Vec<i64>,
    /// Row-major partial counts, `rel[cluster · II + slot]`: one flat
    /// vector instead of per-cluster rows.
    rel: Vec<u32>,
    /// Per cluster: how many slots sit at each `rel` level. Never shrinks,
    /// so it may carry zero levels above `top`.
    levels: Vec<Vec<u32>>,
    /// Per cluster: the highest `rel` level holding a slot.
    top: Vec<u32>,
}

/// Equal live counts in every slot and equal `MaxLive`: how the counts
/// split between `offset` and `rel`, and any zero levels a rollback left
/// above the maximum, do not matter.
impl PartialEq for PressureTable {
    fn eq(&self, other: &Self) -> bool {
        self.ii == other.ii
            && self.caps == other.caps
            && (0..self.caps.len()).all(|c| {
                self.max_live(c) == other.max_live(c)
                    && self.live_counts(c).eq(other.live_counts(c))
            })
    }
}

impl Eq for PressureTable {}

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
            offset: vec![0; n],
            rel: vec![0; n * ii as usize],
            levels: vec![vec![ii as u32]; n],
            top: vec![0; n],
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
            offset: Vec::new(),
            rel: Vec::new(),
            levels: Vec::new(),
            top: Vec::new(),
        }
    }

    /// Zeroes every lifetime row, keeping capacities and allocations.
    pub fn reset(&mut self) {
        self.offset.fill(0);
        self.rel.fill(0);
        self.top.fill(0);
        for l in &mut self.levels {
            l.clear();
            l.push(self.ii as u32);
        }
    }

    /// Registers the lifetime `[def, last_use]` in `cluster`.
    ///
    /// Lifetimes with `last_use < def` occupy nothing (a value that is
    /// never read needs no register in this model).
    pub fn add(&mut self, cluster: usize, def: i64, last_use: i64) {
        self.apply(cluster, def, last_use, 1);
    }

    /// Removes a lifetime previously added with the same bounds.
    ///
    /// # Panics
    ///
    /// Panics if a slot the lifetime covers holds no partial share.
    pub fn remove(&mut self, cluster: usize, def: i64, last_use: i64) {
        self.apply(cluster, def, last_use, -1);
    }

    fn apply(&mut self, cluster: usize, def: i64, last_use: i64, sign: i64) {
        if last_use < def {
            return;
        }
        let len = last_use - def + 1;
        self.offset[cluster] += sign * (len / self.ii);
        let rem = (len % self.ii) as usize;
        let ii = self.ii as usize;
        let start = slot(def, self.ii);
        let row = &mut self.rel[cluster * ii..(cluster + 1) * ii];
        let levels = &mut self.levels[cluster];
        let top = &mut self.top[cluster];
        let slots = (0..rem).map(|j| (start + j) % ii);
        if sign > 0 {
            for s in slots {
                let v = row[s];
                row[s] = v + 1;
                levels[v as usize] -= 1;
                if v == *top {
                    *top = v + 1;
                    if levels.len() == *top as usize {
                        levels.push(0);
                    }
                }
                levels[v as usize + 1] += 1;
            }
        } else {
            for s in slots {
                let v = row[s];
                assert!(v > 0, "no lifetime at slot {s} of cluster {cluster}");
                row[s] = v - 1;
                levels[v as usize] -= 1;
                levels[v as usize - 1] += 1;
                if v == *top && levels[v as usize] == 0 {
                    *top = v - 1;
                }
            }
        }
    }

    /// The live count of every slot of `cluster`, in slot order.
    pub fn live_counts(&self, cluster: usize) -> impl Iterator<Item = i64> + '_ {
        let ii = self.ii as usize;
        let offset = self.offset[cluster];
        self.rel[cluster * ii..(cluster + 1) * ii]
            .iter()
            .map(move |&r| offset + r as i64)
    }

    /// `MaxLive` of `cluster`: the registers the current lifetimes need.
    pub fn max_live(&self, cluster: usize) -> i64 {
        self.offset[cluster] + self.top[cluster] as i64
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
        assert_eq!(p.live_counts(0).collect::<Vec<_>>(), vec![0, 0, 1, 1]);
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
        assert_eq!(p.live_counts(0).collect::<Vec<_>>(), vec![2, 2, 2, 2]);
    }
}
