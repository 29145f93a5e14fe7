//! Routing and the key log: which shard an update goes to, and what the
//! detection pass will need to know about the keys that arrived.

use crate::detector::KeyStrategy;
use scd_hash::{shard_of, MixBuildHasher};
use std::collections::HashSet;

/// Key log for the detection pass, gated by [`KeyStrategy`].
///
/// `TwoPass` replays the interval's key stream as it arrived (§3.3), so
/// it needs the full arrival-order list. `Sampled` and `NextInterval`
/// dedup before querying — their reports are a pure function of the
/// *distinct keys in first-seen order* — so logging anything more is
/// wasted memory and a wasted end-of-interval take: a repeated key costs
/// one hash-set probe instead of growing the log.
pub(super) enum KeyLog {
    /// Arrival-order replay list (grows with the record count).
    Full(Vec<u64>),
    /// First-seen-order distinct keys (grows with the key population).
    Distinct { seen: HashSet<u64, MixBuildHasher>, order: Vec<u64> },
}

impl KeyLog {
    pub(super) fn for_strategy(strategy: &KeyStrategy) -> KeyLog {
        match strategy {
            KeyStrategy::TwoPass => KeyLog::Full(Vec::new()),
            KeyStrategy::Sampled { .. } | KeyStrategy::NextInterval => {
                KeyLog::Distinct { seen: HashSet::with_hasher(MixBuildHasher), order: Vec::new() }
            }
        }
    }

    #[inline]
    pub(super) fn record(&mut self, key: u64) {
        match self {
            KeyLog::Full(log) => log.push(key),
            KeyLog::Distinct { seen, order } => {
                if seen.insert(key) {
                    order.push(key);
                }
            }
        }
    }

    /// Takes the interval's key list and resets the log.
    pub(super) fn take(&mut self) -> Vec<u64> {
        match self {
            KeyLog::Full(log) => std::mem::take(log),
            KeyLog::Distinct { seen, order } => {
                seen.clear();
                std::mem::take(order)
            }
        }
    }

    /// An empty log of the same variant — what a parallel producer builds
    /// for its chunk before the engine absorbs it.
    pub(super) fn fresh_like(&self) -> KeyLog {
        match self {
            KeyLog::Full(_) => KeyLog::Full(Vec::new()),
            KeyLog::Distinct { .. } => {
                KeyLog::Distinct { seen: HashSet::with_hasher(MixBuildHasher), order: Vec::new() }
            }
        }
    }

    /// Merges a producer-chunk log into this one. Chunks are contiguous
    /// stream ranges absorbed in stream order, so `Full` concatenation
    /// reproduces arrival order exactly, and replaying each chunk's
    /// first-seen list through the global set reproduces global first-seen
    /// order exactly (a key's first global occurrence lies in the earliest
    /// chunk that contains it).
    pub(super) fn absorb(&mut self, other: KeyLog) {
        match other {
            KeyLog::Full(mut chunk) => match self {
                KeyLog::Full(log) => log.append(&mut chunk),
                KeyLog::Distinct { .. } => unreachable!("mixed key log variants"),
            },
            KeyLog::Distinct { order, .. } => {
                assert!(matches!(self, KeyLog::Distinct { .. }), "mixed key log variants");
                for key in order {
                    self.record(key);
                }
            }
        }
    }
}

/// One producer's output for
/// [`push_slice_parallel`](super::ShardedIngest::push_slice_parallel):
/// per-shard update buffers plus the chunk's key log.
pub(super) type RoutedChunk = (Vec<Vec<(u64, f64)>>, KeyLog);

/// Producer-side routing for
/// [`push_slice_parallel`](super::ShardedIngest::push_slice_parallel): walks
/// one contiguous chunk of the update stream, logging keys and
/// partitioning updates into per-shard buffers. Pure function of the
/// chunk — safe to run on any thread.
pub(super) fn route_chunk(chunk: &[(u64, f64)], shards: usize, mut log: KeyLog) -> RoutedChunk {
    let mut bufs: Vec<Vec<(u64, f64)>> =
        (0..shards).map(|_| Vec::with_capacity(chunk.len() / shards + 1)).collect();
    for &(key, value) in chunk {
        log.record(key);
        bufs[shard_of(key, shards)].push((key, value));
    }
    (bufs, log)
}
