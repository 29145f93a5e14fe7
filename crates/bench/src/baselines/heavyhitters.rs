//! Misra–Gries heavy-hitter summary — the comparison point for the paper's
//! §1.1 claim.
//!
//! "Recent research efforts have been directed towards developing scalable
//! heavy-hitter detection techniques … Note that heavy-hitters do not
//! necessarily correspond to flows experiencing significant changes and
//! thus it is not clear how their techniques can be adapted to support
//! change detection." This module provides a textbook heavy-hitter
//! detector so the experiment harness (`hh_vs_change`) can *measure* that
//! non-correspondence instead of asserting it: the overlap between an
//! interval's top-N flows by volume and its top-N flows by forecast error
//! is reported side by side.
//!
//! Misra–Gries with `capacity` counters over non-negative updates
//! guarantees every key with true mass `> total / (capacity + 1)` is
//! retained, with per-key undercount at most `total / (capacity + 1)` —
//! `O(capacity)` memory, `O(1)` amortized per update.

use scd_sketch::PointEstimate;
use std::collections::HashMap;

/// Misra–Gries summary over non-negative weighted updates.
#[derive(Debug, Clone)]
pub struct MisraGries {
    capacity: usize,
    counters: HashMap<u64, f64>,
    /// Total weight folded in (for the guarantee bound).
    total: f64,
}

impl MisraGries {
    /// Creates a summary holding at most `capacity ≥ 1` counters.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        MisraGries { capacity, counters: HashMap::with_capacity(capacity + 1), total: 0.0 }
    }

    /// Number of counters currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when no counters are held.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Total weight summarized.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Folds one non-negative update into the summary.
    ///
    /// # Panics
    /// Debug-panics on negative weights — heavy-hitter summaries live in
    /// the cash-register model (this is part of why they cannot summarize
    /// forecast *errors*).
    pub fn update(&mut self, key: u64, weight: f64) {
        debug_assert!(weight >= 0.0, "Misra-Gries requires non-negative weights");
        if weight <= 0.0 {
            return;
        }
        self.total += weight;
        if let Some(c) = self.counters.get_mut(&key) {
            *c += weight;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(key, weight);
            return;
        }
        // Decrement-all step, weighted: subtract the smallest amount that
        // frees at least one slot (the classic generalization for weighted
        // updates: decrement by min(weight, smallest counter)).
        let min = self.counters.values().cloned().fold(f64::INFINITY, f64::min).min(weight);
        self.counters.retain(|_, c| {
            *c -= min;
            *c > 1e-12
        });
        let remaining = weight - min;
        if remaining > 1e-12 {
            self.counters.insert(key, remaining);
        }
    }

    /// Estimated weight of `key` (a lower bound on its true mass; 0 if the
    /// key holds no counter).
    pub fn estimate(&self, key: u64) -> f64 {
        self.counters.get(&key).copied().unwrap_or(0.0)
    }

    /// The undercount bound: every estimate is within `total/(capacity+1)`
    /// of the true mass.
    pub fn error_bound(&self) -> f64 {
        self.total / (self.capacity + 1) as f64
    }

    /// The current heavy hitters, sorted by decreasing estimated weight
    /// (ties broken by key for determinism).
    pub fn top(&self, n: usize) -> Vec<(u64, f64)> {
        let mut items: Vec<(u64, f64)> = self.counters.iter().map(|(&k, &v)| (k, v)).collect();
        items.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("finite counters").then_with(|| a.0.cmp(&b.0))
        });
        items.truncate(n);
        items
    }
}

/// Not linear — its counters cannot be combined with arbitrary
/// coefficients — but it answers a point query.
impl PointEstimate for MisraGries {
    fn estimate(&self, key: u64) -> f64 {
        MisraGries::estimate(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_under_capacity() {
        let mut mg = MisraGries::new(10);
        for (k, w) in [(1u64, 5.0), (2, 3.0), (1, 2.0)] {
            mg.update(k, w);
        }
        assert_eq!(mg.estimate(1), 7.0);
        assert_eq!(mg.estimate(2), 3.0);
        assert_eq!(mg.top(5), vec![(1, 7.0), (2, 3.0)]);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut mg = MisraGries::new(8);
        for k in 0..1000u64 {
            mg.update(k, 1.0 + (k % 7) as f64);
        }
        assert!(mg.len() <= 8);
    }

    #[test]
    fn guaranteed_heavy_key_survives() {
        // A key with > total/(capacity+1) mass must be present.
        let mut mg = MisraGries::new(9);
        let heavy = 0xBEEF_u64;
        for i in 0..900u64 {
            mg.update(i % 300, 1.0); // 900 mass spread thin
        }
        for _ in 0..200 {
            mg.update(heavy, 1.0); // 200 of 1100 total >> 1100/10
        }
        assert!(mg.estimate(heavy) > 0.0, "guaranteed heavy hitter evicted");
        assert!(mg.top(3).iter().any(|&(k, _)| k == heavy));
    }

    #[test]
    fn undercount_within_bound() {
        let mut mg = MisraGries::new(20);
        let mut truth: HashMap<u64, f64> = HashMap::new();
        let mut x = 1u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (x >> 33) % 100; // zipf-ish via squaring
            let key = (key * key) / 100;
            mg.update(key, 1.0);
            *truth.entry(key).or_default() += 1.0;
        }
        let bound = mg.error_bound();
        for (&k, &t) in &truth {
            let e = mg.estimate(k);
            assert!(e <= t + 1e-9, "overestimate for {k}: {e} > {t}");
            assert!(t - e <= bound + 1e-9, "undercount for {k}: {} > {bound}", t - e);
        }
    }

    #[test]
    fn zero_and_negative_weights_ignored() {
        let mut mg = MisraGries::new(4);
        mg.update(1, 0.0);
        assert!(mg.is_empty());
        assert_eq!(mg.total(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = MisraGries::new(0);
    }
}
