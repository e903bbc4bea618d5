//! The multi-dimensional figure of merit (§3.3.1).
//!
//! A candidate placement is scored by the *fraction of the remaining
//! resources it consumes*, one component per critical resource: one for the
//! inter-cluster bus, one per cluster for memory slots, one per cluster for
//! register lifetimes (`2·NClusters + 1` components). Scarce resources are
//! thereby valued inversely to their remaining amount.
//!
//! Two figures are compared by sorting each descending and scanning
//! pairwise until the difference exceeds a threshold — the figure with the
//! smaller component at that position wins ("benefit the weakest resource").
//! If all pairs are within the threshold, the smaller component sum wins.

use std::cmp::Ordering;

/// Default comparison threshold (5 percentage points).
pub const DEFAULT_THRESHOLD: f64 = 0.05;

/// A figure of merit: consumed-fractions of the remaining resources.
#[derive(Clone, Debug, PartialEq)]
pub struct Merit {
    /// Clamped components, sorted descending (the comparison order).
    components: Vec<f64>,
    sum: f64,
}

impl Merit {
    /// Builds a figure of merit from its components.
    ///
    /// Components are clamped below at 0; a component of 1.0 means "this
    /// placement consumes all that remains of the resource". Consumption
    /// with nothing remaining is represented by `f64::INFINITY`.
    ///
    /// The comparison always scans components in descending order, so they
    /// are sorted once here instead of on every [`Merit::compare`] (the
    /// placement loop compares each candidate against the running best).
    pub fn new(components: Vec<f64>) -> Self {
        let mut m = Merit {
            components,
            sum: 0.0,
        };
        m.normalize();
        m
    }

    /// Rebuilds `self` from `components` exactly as [`Merit::new`] would,
    /// reusing its allocation: merit arbitration refills one buffer per
    /// trial instead of allocating a figure for each.
    pub fn refill(&mut self, components: impl IntoIterator<Item = f64>) {
        self.components.clear();
        self.components.extend(components);
        self.normalize();
    }

    /// Clamps at 0, sorts descending, then sums left to right.
    fn normalize(&mut self) {
        for c in &mut self.components {
            *c = c.max(0.0);
        }
        self.components
            .sort_by(|x, y| y.partial_cmp(x).unwrap_or(Ordering::Equal));
        self.sum = self.components.iter().sum();
    }

    /// Consumed-fraction helper: `consumed / remaining_before`, with the
    /// conventions 0/0 = 0 and x/0 = ∞ for x > 0.
    pub fn fraction(consumed: i64, remaining_before: i64) -> f64 {
        if consumed <= 0 {
            0.0
        } else if remaining_before <= 0 {
            f64::INFINITY
        } else {
            consumed as f64 / remaining_before as f64
        }
    }

    /// The clamped components, sorted descending.
    pub fn components(&self) -> &[f64] {
        &self.components
    }

    /// Component sum (the final tie-breaker).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Paper comparison: scan the descending components pairwise, first
    /// significant difference decides; otherwise the smaller sum.
    pub fn compare(&self, other: &Merit, threshold: f64) -> Ordering {
        let a = &self.components;
        let b = &other.components;
        let n = a.len().max(b.len());
        for i in 0..n {
            let x = a.get(i).copied().unwrap_or(0.0);
            let y = b.get(i).copied().unwrap_or(0.0);
            if (x - y).abs() > threshold || x.is_infinite() != y.is_infinite() {
                return x.partial_cmp(&y).unwrap_or(Ordering::Equal);
            }
        }
        self.sum.partial_cmp(&other.sum).unwrap_or(Ordering::Equal)
    }

    /// Returns `true` if `self` is strictly preferable to `other`.
    pub fn better_than(&self, other: &Merit, threshold: f64) -> bool {
        self.compare(other, threshold) == Ordering::Less
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_conventions() {
        assert_eq!(Merit::fraction(0, 0), 0.0);
        assert_eq!(Merit::fraction(0, 5), 0.0);
        assert_eq!(Merit::fraction(2, 8), 0.25);
        assert!(Merit::fraction(1, 0).is_infinite());
        assert_eq!(Merit::fraction(-1, 0), 0.0);
    }

    #[test]
    fn highest_component_decides() {
        // a's worst component (0.9) is worse than b's worst (0.5).
        let a = Merit::new(vec![0.1, 0.9]);
        let b = Merit::new(vec![0.5, 0.4]);
        assert!(b.better_than(&a, DEFAULT_THRESHOLD));
        assert!(!a.better_than(&b, DEFAULT_THRESHOLD));
    }

    #[test]
    fn threshold_falls_through_to_next_component() {
        // Worst components nearly equal → second-worst decides.
        let a = Merit::new(vec![0.50, 0.40]);
        let b = Merit::new(vec![0.52, 0.10]);
        assert!(b.better_than(&a, DEFAULT_THRESHOLD));
    }

    #[test]
    fn all_similar_uses_sum() {
        let a = Merit::new(vec![0.30, 0.30, 0.30]);
        let b = Merit::new(vec![0.31, 0.31, 0.28]);
        // All pairwise diffs within 0.05 → sums: 0.90 vs 0.90 → a == b?
        // Make them differ.
        let c = Merit::new(vec![0.28, 0.28, 0.28]);
        assert!(c.better_than(&a, DEFAULT_THRESHOLD));
        assert_eq!(a.compare(&b, DEFAULT_THRESHOLD), Ordering::Less);
    }

    #[test]
    fn infinity_always_loses() {
        let sat = Merit::new(vec![f64::INFINITY, 0.0]);
        let ok = Merit::new(vec![0.99, 0.99]);
        assert!(ok.better_than(&sat, DEFAULT_THRESHOLD));
    }

    #[test]
    fn negative_components_clamped() {
        let m = Merit::new(vec![-0.5, 0.2]);
        assert_eq!(m.components(), &[0.2, 0.0]); // descending
    }

    #[test]
    fn refill_matches_new() {
        let mut m = Merit::new(vec![0.9, 0.9, 0.9, 0.9]);
        for parts in [vec![0.1, -0.5, f64::INFINITY, 0.3], vec![0.25, 0.5], vec![]] {
            m.refill(parts.iter().copied());
            let fresh = Merit::new(parts);
            assert_eq!(m, fresh);
            assert_eq!(m.sum().to_bits(), fresh.sum().to_bits());
        }
    }

    #[test]
    fn different_lengths_compare() {
        let a = Merit::new(vec![0.5]);
        let b = Merit::new(vec![0.5, 0.3]);
        assert!(a.better_than(&b, DEFAULT_THRESHOLD));
    }
}
