//! Routing and the combiner: which shard an update goes to, the partial
//! sums a producer folds its records into on the way, and the key log
//! the detection pass reads.
//!
//! The sketch is linear (§3.1–3.2): UPDATE adds a value to one bucket per
//! row, so a key's records may be summed before they reach a shard table
//! and the table comes out the same. Each routing producer keeps a
//! direct-mapped cache of `(key, partial sum)` slots. A hit adds the value
//! to its slot; a miss logs the key and evicts the resident slot into its
//! shard's batch as one update, exactly as a record is batched. The close
//! flushes every cache. Heavy keys stay resident, so a shard table folds
//! about one update per key per eviction epoch instead of one per record.
//!
//! Every key's first occurrence in an interval is a miss (the caches start
//! the interval empty), and misses are logged in stream order. So the miss
//! log deduplicates to exactly the interval's distinct keys in first-seen
//! order, which is all any key strategy scans: the detector deduplicates
//! before querying, one set probe per miss rather than per arrival.
//!
//! Bits: the cache is taken only while the interval's values pass the
//! [`Gate`]. Then every cell is an integer sum of magnitude below 2⁵³,
//! exact in any grouping. Past the gate, records fold one by one in stream
//! order.

use scd_hash::{mix64, shard_of};

/// Slots per producer cache: a power of two, so the low bits of the mix
/// index it; 4 096 × 16 bytes is 64 KB.
const SLOTS: usize = 4096;

/// 2⁵³: every integer of magnitude at most this is exact in `f64`.
const EXACT: f64 = 9_007_199_254_740_992.0;

/// The cache slot a key lands in: the low bits of the mix `shard_of`
/// takes its high bits from.
#[inline]
fn slot_of(key: u64) -> usize {
    mix64(key) as usize & (SLOTS - 1)
}

/// Appends one update to its shard's batch — the one place a key is
/// routed, for a record and an evicted partial sum alike.
#[inline]
fn emit(out: &mut [Vec<(u64, f64)>], key: u64, value: f64) {
    out[shard_of(key, out.len())].push((key, value));
}

/// The exactness gate of one ingest half's interval: combining is allowed
/// while every value pushed this interval is an integer and their Σ|v|
/// stays below 2⁵³. Then every partial sum, in any grouping, is an integer
/// of magnitude below 2⁵³, so it is exact and every cell keeps its bits.
/// The first slice that breaks the gate (a fraction, NaN, ±inf, or too much
/// mass) closes it until the interval ends.
#[derive(Debug)]
pub(super) struct Gate {
    combining: bool,
    /// Σ|v| of the interval's admitted slices — exact while below 2⁵³: a
    /// sum of non-negative integers rounds to at least 2⁵³ once its true
    /// value passes it, so no inexact sum ever reads as open.
    mass: f64,
}

impl Gate {
    pub(super) fn new() -> Gate {
        Gate { combining: true, mass: 0.0 }
    }

    /// Whether the interval's caches are in use.
    pub(super) fn combining(&self) -> bool {
        self.combining
    }

    /// Admits `items` into the combining path, or closes the gate for the
    /// rest of the interval. The integrality test is `(|v| + 2⁵²) − 2⁵² ==
    /// |v|`: adding 2⁵² rounds away any fraction, so it fails for every
    /// non-integer and NaN and holds for every integer below 2⁵²; ±inf and
    /// anything at or past 2⁵³ fail the mass test. `f64::trunc` would be a
    /// library call on baseline x86-64, and a cast round trip costs about
    /// three times as much. `-0.0` passes, and is harmless: a cell starts at
    /// `+0.0`, and IEEE addition never turns it into `-0.0`.
    pub(super) fn admit(&mut self, items: &[(u64, f64)]) -> bool {
        if !self.combining {
            return false;
        }
        const ROUND: f64 = EXACT / 2.0;
        // Four lanes break the add chains; any grouping of the
        // non-negative integer terms is exact while the total is.
        let mut mass = [0.0f64; 4];
        let mut integral = [true; 4];
        let mut quads = items.chunks_exact(4);
        for quad in &mut quads {
            for lane in 0..4 {
                let a = quad[lane].1.abs();
                integral[lane] &= (a + ROUND) - ROUND == a;
                mass[lane] += a;
            }
        }
        for (lane, &(_, v)) in quads.remainder().iter().enumerate() {
            let a = v.abs();
            integral[lane] &= (a + ROUND) - ROUND == a;
            mass[lane] += a;
        }
        self.mass += (mass[0] + mass[1]) + (mass[2] + mass[3]);
        // `<` also rejects a NaN mass.
        self.combining = integral.iter().all(|&i| i) && self.mass < EXACT;
        self.combining
    }

    /// Opens the gate for the next interval.
    pub(super) fn reset(&mut self) {
        *self = Gate::new();
    }
}

/// One producer's direct-mapped combining cache.
///
/// A vacant slot holds a key that cannot land in it, so a lookup never
/// mistakes it for a resident: [`Combiner::VACANT`] everywhere except in
/// that key's own slot, which holds a key landing elsewhere.
pub(super) struct Combiner {
    slots: Box<[(u64, f64); SLOTS]>,
    /// The slot `VACANT` itself lands in.
    home: usize,
    /// The vacancy mark of `home`.
    alternate: u64,
}

impl Combiner {
    const VACANT: u64 = u64::MAX;

    pub(super) fn new() -> Combiner {
        let home = slot_of(Self::VACANT);
        let alternate =
            (1..).map(|d| Self::VACANT - d).find(|&k| slot_of(k) != home).expect("a key elsewhere");
        let slots = vec![(Self::VACANT, 0.0); SLOTS].into_boxed_slice();
        let mut combiner =
            Combiner { slots: slots.try_into().expect("SLOTS entries"), home, alternate };
        combiner.slots[home].0 = alternate;
        combiner
    }

    #[inline]
    fn vacant(&self, slot: usize) -> u64 {
        if slot == self.home {
            self.alternate
        } else {
            Self::VACANT
        }
    }

    /// Routes `items` into the per-shard batches `out` (one per shard),
    /// logging every miss in `misses`. Combining, a hit only adds to its
    /// slot and a miss evicts the resident partial sum. Otherwise every
    /// record goes to its batch as it is, and the cache only tracks which
    /// keys are resident, so the log still skips a repeat of a resident
    /// key.
    pub(super) fn route(
        &mut self,
        items: &[(u64, f64)],
        combining: bool,
        out: &mut [Vec<(u64, f64)>],
        misses: &mut Vec<u64>,
    ) {
        if combining {
            for &(key, value) in items {
                let at = slot_of(key);
                let slot = &mut self.slots[at];
                if slot.0 == key {
                    slot.1 += value;
                    continue;
                }
                misses.push(key);
                let (resident, sum) = std::mem::replace(slot, (key, value));
                if resident != self.vacant(at) {
                    emit(out, resident, sum);
                }
            }
        } else {
            for &(key, value) in items {
                let slot = &mut self.slots[slot_of(key)];
                if slot.0 != key {
                    slot.0 = key;
                    misses.push(key);
                }
                emit(out, key, value);
            }
        }
    }

    /// Empties the cache, evicting every resident partial sum into `out`
    /// when `combining` (otherwise the slots hold keys, not sums).
    pub(super) fn flush(&mut self, combining: bool, out: &mut [Vec<(u64, f64)>]) {
        for at in 0..SLOTS {
            let vacant = self.vacant(at);
            let (resident, sum) = std::mem::replace(&mut self.slots[at], (vacant, 0.0));
            if combining && resident != vacant {
                emit(out, resident, sum);
            }
        }
    }
}

/// What one routing producer keeps across calls and intervals: its cache,
/// its per-shard batches (shipped whole to the workers, each replaced by a
/// spent batch from the recycle pool) and its miss list. The ingest half
/// lends one to each scoped thread of
/// [`push_slice_parallel`](super::ShardedIngest::push_slice_parallel);
/// [`push_slice`](super::ShardedIngest::push_slice) routes through the
/// first one's cache straight into the ingest half's batches and key log.
pub(super) struct Producer {
    pub(super) combiner: Combiner,
    pub(super) out: Vec<Vec<(u64, f64)>>,
    pub(super) misses: Vec<u64>,
}

impl Producer {
    pub(super) fn new(shards: usize) -> Producer {
        Producer {
            combiner: Combiner::new(),
            out: (0..shards).map(|_| Vec::new()).collect(),
            misses: Vec::new(),
        }
    }
}
