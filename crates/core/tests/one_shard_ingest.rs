//! A one-shard `ShardedIngest` folds on the pushing thread: it spawns no
//! worker, and what it hands back is exactly the per-record reference —
//! `KarySketch::update` for every record in stream order, and the bounded
//! key log's rule (distinct keys in first-seen order).
//!
//! This is a test binary of its own because the thread check reads the
//! whole process's thread list: no other test's workers may run beside it.

use scd_core::ShardedIngest;
use scd_hash::SplitMix64;
use scd_sketch::{KarySketch, SketchConfig};
use std::collections::HashSet;
use std::sync::Arc;

const SKETCH: SketchConfig = SketchConfig { h: 5, k: 1024, seed: 0x0005_1A7E };

/// One interval of traffic: `n` records over ~300 keys, integer byte
/// counts or (with `fractional`) the quarter-byte values reweighted
/// sampling leaves behind.
fn records(t: u64, n: usize, fractional: bool) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(0x0F01D ^ t);
    (0..n)
        .map(|_| {
            let bytes = (40 + rng.next_below(1_460)) as f64;
            (rng.next_below(300), if fractional { bytes * 0.25 + 0.125 } else { bytes })
        })
        .collect()
}

/// How a test feeds one interval's records to the ingest half.
#[derive(Clone, Copy, Debug)]
enum Feed {
    Push,
    PushSlice,
    Parallel,
}

fn feed(ingest: &mut ShardedIngest, how: Feed, items: &[(u64, f64)]) {
    match how {
        Feed::Push => {
            items.iter().for_each(|item| ingest.push_slice(std::slice::from_ref(item)).unwrap())
        }
        // Split unevenly, so batches straddle calls.
        Feed::PushSlice => items.chunks(777).for_each(|c| ingest.push_slice(c).unwrap()),
        Feed::Parallel => {
            let (head, tail) = items.split_at(items.len().min(300));
            ingest.push_slice(head).unwrap();
            ingest.push_slice_parallel(tail, 2).unwrap();
        }
    }
}

/// The names of this process's threads, as the kernel reports them.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("the task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn one_shard_spawns_no_worker() {
    use std::time::{Duration, Instant};
    let shard_threads =
        || thread_names().into_iter().filter(|n| n.starts_with("scd-shard-")).count();
    let mut ingest = ShardedIngest::new(SKETCH, 1).unwrap();
    for (t, how) in [Feed::Push, Feed::PushSlice, Feed::Parallel].into_iter().enumerate() {
        feed(&mut ingest, how, &records(t as u64, 5_000, false));
        ingest.end_interval_sketch().unwrap();
        assert_eq!(shard_threads(), 0, "interval {t} ({how:?}): a one-shard half runs a worker");
    }
    drop(ingest);
    // The probe is not blind: two shards are two named workers, once each
    // has started and named itself.
    let two = ShardedIngest::new(SKETCH, 2).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while shard_threads() < 2 {
        assert!(Instant::now() < deadline, "two workers never showed: {:?}", thread_names());
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(two);
}

#[test]
fn one_shard_tables_and_key_logs_equal_the_per_record_reference() {
    for fractional in [false, true] {
        for how in [Feed::Push, Feed::PushSlice, Feed::Parallel] {
            let mut ingest = ShardedIngest::new(SKETCH, 1).unwrap();
            // Enough intervals that every table comes round again, each
            // shorter and longer than a batch in turn.
            for t in 0..5u64 {
                let items = records(t, [3_000, 200, 4_321, 0, 1_025][t as usize], fractional);
                feed(&mut ingest, how, &items);
                let rows = Arc::clone(ingest.rows());
                let (observed, keys) = ingest.end_interval_sketch().unwrap();

                let mut reference = KarySketch::with_rows(rows);
                let mut seen = HashSet::new();
                let mut first_seen = Vec::new();
                for &(key, value) in &items {
                    reference.update(key, value);
                    if seen.insert(key) {
                        first_seen.push(key);
                    }
                }
                let bits =
                    |s: &KarySketch| s.table().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                let what = format!("{how:?}, fractional {fractional}, interval {t}");
                assert!(bits(observed) == bits(&reference), "{what}: the table differs");
                assert_eq!(keys, first_seen, "{what}: the key log differs");
            }
            assert_eq!(ingest.records_total(), 3_000 + 200 + 4_321 + 1_025);
        }
    }
}
