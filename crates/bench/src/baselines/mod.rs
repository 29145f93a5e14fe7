//! The summaries the paper positions the k-ary sketch against (§1.1,
//! §3.1): the Count-Min sketch, the count sketch and the Misra–Gries
//! heavy-hitter summary. Only the experiments run them — Table 1's
//! timings, the §1.1 heavy-hitter comparison — and the tests that hold the
//! product's sketch traits to more than one implementation.
//!
//! Count-Min and the count sketch implement the product's
//! [`LinearSketch`](scd_sketch::LinearSketch) surface, and the count
//! sketch its [`CellTable`](scd_sketch::CellTable) one, so an archive or a
//! shard merge can be run over them unchanged.

pub mod countmin;
pub mod countsketch;
pub mod heavyhitters;

pub use countmin::CountMinSketch;
pub use countsketch::CountSketch;
pub use heavyhitters::MisraGries;

use scd_hash::HashRows;

/// The key and bucket buffers a baseline's `update_batch` hashes a block
/// into, through [`HashRows::buckets_batch`]. Create once, reuse for every
/// batch; the buffers grow to the largest batch seen and stay there.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    keys: Vec<u64>,
    buckets: Vec<usize>,
}

impl BatchScratch {
    /// An empty scratch; buffers are sized lazily by the first batch.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// The row-major `H × items.len()` bucket block of `items`' keys under
    /// `rows`: one pass per row over its tables for the whole block.
    fn buckets(&mut self, rows: &HashRows, items: &[(u64, f64)]) -> &[usize] {
        self.keys.clear();
        self.keys.extend(items.iter().map(|&(key, _)| key));
        self.buckets.clear();
        self.buckets.resize(rows.h() * items.len(), 0);
        rows.buckets_batch(&self.keys, &mut self.buckets);
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_sketch::{LinearSketch, SketchError};

    /// Updates each sketch kind through the trait-agnostic path and checks
    /// that combine is entry-wise linear on the native estimators.
    fn keyed_updates() -> Vec<(u64, f64)> {
        (0..60u64).map(|k| (k * 7 + 1, (k % 11 + 1) as f64)).collect()
    }

    fn check_merge_equals_whole<S, F, U>(make: F, update: U)
    where
        S: LinearSketch,
        F: Fn() -> S,
        U: Fn(&mut S, u64, f64),
    {
        let updates = keyed_updates();
        let mut whole = make();
        let mut left = make();
        let mut right = make();
        for (i, &(key, value)) in updates.iter().enumerate() {
            update(&mut whole, key, value);
            if i % 2 == 0 {
                update(&mut left, key, value);
            } else {
                update(&mut right, key, value);
            }
        }
        let merged = S::combine(&[(1.0, &left), (1.0, &right)]).expect("combine");
        for &(key, _) in &updates {
            let a = whole.estimate(key);
            let b = merged.estimate(key);
            assert!((a - b).abs() < 1e-9, "key {key}: whole {a} vs merged {b}");
        }
    }

    #[test]
    fn countsketch_merge_equals_whole() {
        check_merge_equals_whole(|| CountSketch::new(5, 1024, 9), |s, k, v| s.update(k, v));
    }

    #[test]
    fn countmin_merge_equals_whole() {
        check_merge_equals_whole(|| CountMinSketch::new(5, 1024, 9), |s, k, v| s.update(k, v));
    }

    #[test]
    fn combine_rejects_incompatible_families() {
        let a = CountMinSketch::new(4, 256, 1);
        let b = CountMinSketch::new(4, 256, 2);
        assert!(matches!(
            CountMinSketch::combine(&[(1.0, &a), (1.0, &b)]),
            Err(SketchError::IncompatibleSketches { .. })
        ));
        let a = CountSketch::new(4, 256, 1);
        let b = CountSketch::new(4, 256, 2);
        assert!(matches!(
            CountSketch::combine(&[(1.0, &a), (1.0, &b)]),
            Err(SketchError::IncompatibleSketches { .. })
        ));
    }

    #[test]
    fn combine_rejects_empty_terms() {
        assert!(matches!(CountMinSketch::combine(&[]), Err(SketchError::EmptyCombination)));
    }

    #[test]
    fn countmin_scaled_archive_decay_stays_nonnegative() {
        // The archive's only combinations are nonnegative; check the min
        // estimator still never underestimates after such a merge.
        let mut a = CountMinSketch::new(4, 512, 3);
        let mut b = CountMinSketch::new(4, 512, 3);
        for key in 0..200u64 {
            a.update(key, 2.0);
            b.update(key, 3.0);
        }
        let merged = CountMinSketch::combine(&[(1.0, &a), (1.0, &b)]).unwrap();
        for key in 0..200u64 {
            assert!(merged.estimate(key) >= 5.0 - 1e-12, "key {key}");
        }
    }

    #[test]
    fn zero_like_preserves_sign_hashes() {
        let mut a = CountSketch::new(3, 256, 44);
        a.update(10, 5.0);
        let mut z = a.zero_like();
        assert_eq!(z.estimate(10), 0.0);
        z.update(10, 5.0);
        // Same signs ⇒ same cells ⇒ adding the two doubles the estimate.
        let sum = CountSketch::combine(&[(1.0, &a), (1.0, &z)]).unwrap();
        assert!((sum.estimate(10) - 10.0).abs() < 1e-9);
    }
}
