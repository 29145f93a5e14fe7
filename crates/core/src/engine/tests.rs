//! In-module tests of the engine: routing, the ingest half, the shard
//! merge, drive-mode identity and the GLR layer.

use super::*;
use crate::detector::{KeyStrategy, SketchChangeDetector};
use scd_forecast::ModelSpec;
use scd_hash::shard_of;
use scd_hash::SplitMix64;
use scd_sketch::SketchConfig;

fn config(shards: usize) -> EngineConfig {
    EngineConfig::new(
        DetectorConfig {
            sketch: SketchConfig { h: 3, k: 512, seed: 4 },
            model: ModelSpec::Ewma { alpha: 0.5 },
            threshold: 0.05,
            key_strategy: KeyStrategy::TwoPass,
        },
        shards,
    )
}

#[test]
fn rejects_degenerate_configs() {
    assert!(matches!(
        ShardedEngine::new(EngineConfig { shards: 0, ..config(1) }),
        Err(EngineError::BadConfig(_))
    ));
    let bad_archive = config(2).with_archive(ArchiveConfig {
        max_sketches: 2,
        full_resolution: 4,
        keys_per_epoch: 4,
    });
    assert!(matches!(ShardedEngine::new(bad_archive), Err(EngineError::Archive(_))));
}

/// How one interval of the merge property test fills its shards.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fill {
    /// A handful of records per shard: every table stays sparse.
    Sparse,
    /// Thousands of records per shard: every table goes dense.
    Dense,
    /// Shard 0 folds a few small batches, then one that carries it past
    /// the sparse limit; the others stay sparse.
    Crossing,
}

/// The merge of [`merge_shards`], whichever path it takes — the line walk,
/// the full sweep or the one-shard swap — is today's sweep bit for bit:
/// `assign_from(shard 0)` then `add_scaled(shard i, 1.0)` in shard order,
/// and every shard reads all-zero bits afterwards. The destination is
/// recycled through sparse → dense → sparse runs and starts out holding
/// NaN it knows nothing about; values are fractional and negative, so
/// the order of the adds shows in the low bits. `K = 2` and `4` make
/// tables that end mid-line.
#[test]
fn merge_shards_walks_lines_bit_identically_to_the_sweep() {
    use Fill::{Crossing, Dense, Sparse};
    let plan = [Sparse, Sparse, Dense, Sparse, Sparse, Crossing, Sparse, Sparse];
    // Which closes may take the line walk on a 4 Ki-bucket table: every
    // table must know its lines, the destination included — after a dense
    // close it does not, and the next close sweeps to learn them again.
    // One shard swaps instead, and walks when it clears the table that
    // held the merge before.
    let walks_many = [false, true, false, false, true, false, false, true];
    let walks_one = [false, true, true, false, true, true, false, true];
    let bits = |s: &KarySketch| s.table().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rng = SplitMix64::new(0x11E5);
    for shards in [1usize, 2, 3, 7] {
        for h in [1usize, 5, 9, 25] {
            for k in [2usize, 4, 4096] {
                let rows = scd_hash::HashRows::shared(h, k, 4);
                let registry = scd_obs::Registry::new();
                let metrics = PipelineMetrics::register(&registry);
                let mut tables: Vec<ShardTable> =
                    (0..shards).map(|_| ShardTable::new(Arc::clone(&rows))).collect();
                let mut stale = KarySketch::with_rows(Arc::clone(&rows));
                stale.table_mut().fill(f64::NAN);
                let mut merged = ShardTable::unknown(stale);
                let mut scratch = scd_sketch::BatchScratch::new();
                for (t, fill) in plan.into_iter().enumerate() {
                    let what = format!("{shards} shards, H={h}, K={k}, close {t} ({fill:?})");
                    for (shard, table) in tables.iter_mut().enumerate() {
                        let mut batches = match (fill, shard) {
                            (Sparse, _) | (Crossing, 1..) => vec![3, 4],
                            (Dense, _) => vec![512, 512, 300],
                            (Crossing, 0) => vec![2, 3, 2, 700],
                        };
                        let turn = t % batches.len();
                        batches.rotate_left(turn);
                        for n in batches {
                            let items: Vec<(u64, f64)> = (0..n)
                                .map(|_| {
                                    let value = rng.next_below(4001) as f64 / 8.0 - 250.03;
                                    (rng.next_u64(), value)
                                })
                                .collect();
                            table.update_batch(&items, &mut scratch);
                            assert!(table.lines_cover_cells(), "{what}: shard {shard} fold");
                        }
                    }
                    let mut expected = KarySketch::with_rows(Arc::clone(&rows));
                    expected.assign_from(tables[0].sketch()).unwrap();
                    for table in &tables[1..] {
                        expected.add_scaled(table.sketch(), 1.0).unwrap();
                    }
                    let walked_before = metrics.engine.sparse_merges_total.get();
                    merge_shards(&mut merged, &mut tables, Some(&metrics));
                    assert_eq!(bits(merged.sketch()), bits(&expected), "{what}");
                    assert!(merged.lines_cover_cells(), "{what}: destination");
                    for (shard, table) in tables.iter().enumerate() {
                        let zero = table.sketch().table().iter().all(|x| x.to_bits() == 0);
                        assert!(zero && table.is_sparse(), "{what}: shard {shard} not cleared");
                    }
                    if k == 4096 {
                        let walks = if shards == 1 { walks_one[t] } else { walks_many[t] };
                        let walked = metrics.engine.sparse_merges_total.get() > walked_before;
                        assert_eq!(walked, walks, "{what}: line walk taken");
                    }
                }
            }
        }
    }
}

#[test]
fn shard_routing_is_balanced() {
    for shards in [2usize, 4, 8] {
        let mut counts = vec![0u64; shards];
        // Sequential keys — the adversarial case for `key % N`.
        for key in 0..8_000u64 {
            counts[shard_of(key, shards)] += 1;
        }
        let expect = 8_000 / shards as u64;
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                n > expect / 2 && n < expect * 2,
                "shard {shard}/{shards}: {n} keys (expected ≈{expect})"
            );
        }
    }
}

#[test]
fn shard_routing_spreads_sequential_ip_streams() {
    // Lemire range reduction maps the TOP bits of the hash to the
    // shard: structured key spaces must still spread after the mix.
    // Model a /16 scan (sequential IPv4 hosts) and a stride-aligned
    // /24 sweep — both adversarial for `key % N` and for any routing
    // that reads low bits directly.
    let scan: Vec<u64> = (0..8_000u64).map(|i| 0x0A00_0000 + i).collect();
    let sweep: Vec<u64> = (0..8_000u64).map(|i| 0xC0A8_0000 + (i << 8)).collect();
    for keys in [&scan, &sweep] {
        for shards in [3usize, 4, 7, 8] {
            let mut counts = vec![0u64; shards];
            for &key in keys {
                counts[shard_of(key, shards)] += 1;
            }
            let expect = keys.len() as u64 / shards as u64;
            for (shard, &n) in counts.iter().enumerate() {
                assert!(
                    n > expect / 2 && n < expect * 2,
                    "shard {shard}/{shards}: {n} keys (expected ≈{expect})"
                );
            }
        }
    }
}

#[test]
fn push_slice_matches_per_update_push() {
    // Same stream through push_slice in uneven chunks and one update at
    // a time must produce identical reports — where a slice ends is not
    // part of the stream, for every key strategy. Each chunk is longer
    // than a batch, so shards flush mid-slice.
    for strategy in [
        KeyStrategy::TwoPass,
        KeyStrategy::NextInterval,
        KeyStrategy::Sampled { rate: 0.5, seed: 11 },
    ] {
        for shards in [1usize, 4] {
            let mut cfg = config(shards);
            cfg.detector.key_strategy = strategy;
            let mut bulk = ShardedEngine::new(cfg.clone()).unwrap();
            let mut scalar = ShardedEngine::new(cfg).unwrap();
            for t in 0..6u64 {
                let items: Vec<(u64, f64)> =
                    (0..3_000u64).map(|i| (i % 170, ((i * 31 + t * 13) % 400) as f64)).collect();
                for chunk in items.chunks(700) {
                    bulk.push_slice(chunk).unwrap();
                }
                for item in &items {
                    scalar.push_slice(std::slice::from_ref(item)).unwrap();
                }
                let a = bulk.end_interval().unwrap();
                let b = scalar.end_interval().unwrap();
                assert_eq!(a, b, "{strategy:?} shards={shards} interval {t}");
            }
            assert_eq!(bulk.records_total(), scalar.records_total());
        }
    }
}

#[test]
fn push_slice_parallel_matches_push_slice() {
    // The multi-producer source plane is a pure restructuring: for
    // every key strategy, shard count, and producer count — including
    // fractional values, where bit-identity relies on per-shard fold
    // order, not on integer-exact addition — reports must be
    // identical to the sequential bulk path.
    for strategy in [
        KeyStrategy::TwoPass,
        KeyStrategy::NextInterval,
        KeyStrategy::Sampled { rate: 0.5, seed: 11 },
    ] {
        for shards in [1usize, 4] {
            for producers in [2usize, 3, 8] {
                let mut cfg = config(shards);
                cfg.detector.key_strategy = strategy;
                let mut par = ShardedEngine::new(cfg.clone()).unwrap();
                let mut seq = ShardedEngine::new(cfg).unwrap();
                for t in 0..4u64 {
                    // Long enough for eight producers of a batch or more
                    // each, or the parallel path falls back to push_slice.
                    let items: Vec<(u64, f64)> = (0..4_500u64)
                        .map(|i| (i % 170, ((i * 31 + t * 13) % 400) as f64 + 0.25))
                        .collect();
                    // Mix a partial push first so the parallel path has
                    // to preserve order across pending flushes.
                    par.push_slice(&items[..37]).unwrap();
                    par.push_slice_parallel(&items[37..], producers).unwrap();
                    seq.push_slice(&items).unwrap();
                    let a = par.end_interval().unwrap();
                    let b = seq.end_interval().unwrap();
                    assert_eq!(
                        a, b,
                        "{strategy:?} shards={shards} producers={producers} interval {t}"
                    );
                }
                assert_eq!(par.records_total(), seq.records_total());
            }
        }
    }
}

#[test]
fn parallel_source_matches_pipelined_and_sequential() {
    // Parallel source on/off × pipeline on/off: all four engines must
    // emit the same reports.
    let cfg = config(4);
    let mut seq = ShardedEngine::new(cfg.clone()).unwrap();
    let mut par = ShardedEngine::new(cfg.clone()).unwrap();
    let mut pipe = ShardedEngine::new(cfg.clone().with_pipeline()).unwrap();
    let mut pipe_par = ShardedEngine::new(cfg.with_pipeline()).unwrap();
    let mut reports: Vec<Vec<IntervalReport>> = vec![Vec::new(); 4];
    for t in 0..6u64 {
        let items: Vec<(u64, f64)> =
            (0..2_000u64).map(|i| (i % 240, ((i * 7 + t * 29) % 500) as f64)).collect();
        reports[0].push(seq.process_interval(&items).unwrap());
        par.push_slice_parallel(&items, 3).unwrap();
        reports[1].push(par.end_interval().unwrap());
        pipe.push_slice(&items).unwrap();
        if let Some(r) = pipe.end_interval_overlapped().unwrap() {
            reports[2].push(r);
        }
        pipe_par.push_slice_parallel(&items, 3).unwrap();
        if let Some(r) = pipe_par.end_interval_overlapped().unwrap() {
            reports[3].push(r);
        }
    }
    while let Some(r) = pipe.drain().unwrap() {
        reports[2].push(r);
    }
    while let Some(r) = pipe_par.drain().unwrap() {
        reports[3].push(r);
    }
    assert_eq!(reports[0], reports[1], "parallel source changed sequential reports");
    assert_eq!(reports[0], reports[2], "pipeline changed reports");
    assert_eq!(reports[0], reports[3], "parallel source changed pipelined reports");
}

#[test]
fn single_shard_engine_matches_detector_exactly() {
    let mut engine = ShardedEngine::new(config(1)).unwrap();
    let mut reference = SketchChangeDetector::new(config(1).detector);
    for t in 0..8u64 {
        let items: Vec<(u64, f64)> =
            (0..200u64).map(|k| (k, ((k * 13 + t * 7) % 100) as f64)).collect();
        let sharded = engine.process_interval(&items).unwrap();
        let single = reference.process_interval(&items);
        assert_eq!(sharded, single, "interval {t}");
    }
}

#[test]
fn harvested_sketch_feeds_external_detector_identically() {
    // The ingest half on its own (the ingest-node path) must hand back
    // exactly the sketch the engine's stage would have consumed, and a
    // key log that scans to the same report: feeding them to an external
    // detector reproduces the in-engine reports bit for bit.
    let sketch = config(1).detector.sketch;
    let mut ingest = ShardedIngest::new(sketch, 4).unwrap();
    let mut reference = ShardedEngine::new(config(4)).unwrap();
    let mut external = SketchChangeDetector::new(config(1).detector);
    for t in 0..6u64 {
        let items: Vec<(u64, f64)> =
            (0..300u64).map(|i| (i % 120, ((i * 17 + t * 5) % 300) as f64)).collect();
        ingest.push_slice(&items).unwrap();
        let (sketch, keys) = ingest.end_interval_sketch().unwrap();
        let harvested = external.process_observed(sketch, keys);
        let direct = reference.process_interval(&items).unwrap();
        assert_eq!(harvested, direct, "interval {t}");
    }
    assert_eq!(ingest.records_total(), reference.records_total());
}

#[test]
fn the_ingest_half_rejects_a_degenerate_pool() {
    // Harvesting a pipelined engine used to be a runtime error; an ingest
    // half has no detect side to be in the wrong mode, so what is left to
    // reject is a pool with no workers.
    let sketch = config(1).detector.sketch;
    assert!(matches!(ShardedIngest::new(sketch, 0), Err(EngineError::BadConfig(_))));
}

#[test]
fn drop_joins_workers_cleanly() {
    let mut engine = ShardedEngine::new(config(4)).unwrap();
    engine.push_slice(&[(1, 1.0)]).unwrap();
    // Dropping with a batch in flight and no flush must not hang.
    drop(engine);
}

use crate::glr::{GlrConfig, GlrEvent};

fn glr_cfg() -> GlrConfig {
    GlrConfig {
        sketch: SketchConfig { h: 3, k: 1024, seed: 0x5CD },
        projections: 8,
        max_window: 4,
        threshold: 16.0,
        min_baseline: 4,
        hint_keys: 4096,
        cooldown: 8,
    }
}

/// Deterministic slot traffic keyed by (interval, slot): ~40 steady
/// keys with jitter, plus an optional burst update.
fn glr_slot_items(t: u64, s: u64, burst: Option<(u64, f64)>) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(0x00FE_ED00 ^ (t << 8) ^ s);
    let mut items: Vec<(u64, f64)> =
        (0..40u64).map(|k| (k, 1_000.0 + rng.next_below(101) as f64 - 50.0)).collect();
    if let Some(b) = burst {
        items.push(b);
    }
    items
}

#[test]
fn glr_confirms_a_real_change_ahead_of_interval_close() {
    const SLOTS: u64 = 4;
    let burst_iv = 4u64;
    let burst_slot = 1u64;
    let mut engine = ShardedEngine::new(config(2).with_glr(glr_cfg())).unwrap();
    let mut plain = ShardedEngine::new(config(2)).unwrap();
    let mut events = Vec::new();
    for t in 0..6u64 {
        for s in 0..SLOTS {
            let bursting = (t, s) >= (burst_iv, burst_slot);
            let items = glr_slot_items(t, s, bursting.then_some((777, 40_000.0)));
            engine.push_slice(&items).unwrap();
            plain.push_slice(&items).unwrap();
            engine.end_glr_slot();
        }
        let a = engine.end_interval().unwrap();
        let b = plain.end_interval().unwrap();
        assert_eq!(a, b, "GLR layer changed interval {t}'s report");
        events.extend(engine.take_glr_events());
    }
    let provisional = events
        .iter()
        .find_map(|e| match e {
            GlrEvent::Provisional { interval, alarm } => Some((*interval, alarm.clone())),
            _ => None,
        })
        .expect("burst never raised a provisional");
    assert_eq!(provisional.0, burst_iv, "provisional tagged to the wrong interval");
    assert_eq!(provisional.1.key_hint, Some(777));
    let confirmed = events
        .iter()
        .find_map(|e| match e {
            GlrEvent::Confirmed { interval, lead_slots, alarm } => {
                Some((*interval, *lead_slots, alarm.clone()))
            }
            _ => None,
        })
        .expect("provisional never confirmed");
    assert_eq!(confirmed.0, burst_iv);
    assert_eq!(confirmed.2, provisional.1, "confirmation carries a different alarm");
    // Fired at least two slots before the interval's closing slot.
    assert!(
        confirmed.1 >= 2,
        "lead of {} slots — provisional barely beat interval close",
        confirmed.1
    );
    // Nothing fired before the burst.
    for e in &events {
        let iv = match e {
            GlrEvent::Provisional { interval, .. }
            | GlrEvent::Confirmed { interval, .. }
            | GlrEvent::Retracted { interval, .. } => *interval,
        };
        assert!(iv >= burst_iv, "event before the burst: {e:?}");
    }
}

#[test]
fn glr_retracts_a_provisional_the_close_detector_cannot_confirm() {
    // Fire during interval 0, whose close-time report is still warming
    // up: the provisional must be retracted once a later warmed-up
    // report proves no confirmation is coming.
    const SLOTS: u64 = 10;
    let mut cfg = glr_cfg();
    cfg.max_window = 2;
    cfg.min_baseline = 2;
    let mut engine = ShardedEngine::new(config(2).with_glr(cfg)).unwrap();
    let mut events = Vec::new();
    for t in 0..2u64 {
        for s in 0..SLOTS {
            let bursting = t == 0 && s >= 6;
            let items = glr_slot_items(t, s, bursting.then_some((777, 40_000.0)));
            engine.push_slice(&items).unwrap();
            engine.end_glr_slot();
        }
        engine.end_interval().unwrap();
        events.extend(engine.take_glr_events());
    }
    assert!(
        events.iter().any(|e| matches!(e, GlrEvent::Provisional { interval: 0, .. })),
        "burst in interval 0 never raised a provisional: {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(e, GlrEvent::Retracted { interval: 0, .. })),
        "interval 0's provisional was never retracted: {events:?}"
    );
    assert!(
        !events.iter().any(|e| matches!(e, GlrEvent::Confirmed { interval: 0, .. })),
        "a warm-up interval cannot confirm: {events:?}"
    );
}

#[test]
fn glr_events_identical_between_inline_and_pipelined() {
    const SLOTS: u64 = 4;
    let mut inline = ShardedEngine::new(config(2).with_glr(glr_cfg())).unwrap();
    let mut piped = ShardedEngine::new(config(2).with_glr(glr_cfg()).with_pipeline()).unwrap();
    for t in 0..7u64 {
        for s in 0..SLOTS {
            let bursting = t >= 4 && (t, s) >= (4, 1);
            let items = glr_slot_items(t, s, bursting.then_some((42, 40_000.0)));
            inline.push_slice(&items).unwrap();
            piped.push_slice(&items).unwrap();
            inline.end_glr_slot();
            piped.end_glr_slot();
        }
        let a = inline.end_interval().unwrap();
        let b = piped.end_interval().unwrap();
        assert_eq!(a, b, "pipeline changed interval {t}'s report under GLR");
        assert_eq!(
            inline.take_glr_events(),
            piped.take_glr_events(),
            "pipeline changed interval {t}'s GLR events"
        );
    }
}

#[test]
fn glr_engine_snapshot_resumes_bit_exactly_with_pending_provisionals() {
    const SLOTS: u64 = 4;
    let burst = |t: u64, s: u64| ((t, s) >= (4, 1)).then_some((777u64, 40_000.0));
    // Reference: uninterrupted run.
    let mut reference = ShardedEngine::new(config(2).with_glr(glr_cfg())).unwrap();
    let mut want = Vec::new();
    for t in 0..6u64 {
        for s in 0..SLOTS {
            reference.push_slice(&glr_slot_items(t, s, burst(t, s))).unwrap();
            reference.end_glr_slot();
        }
        want.push((reference.end_interval().unwrap(), reference.take_glr_events()));
    }
    // Interrupted run: both engines ingest identically until
    // mid-interval 4, just after the burst slot closed — a provisional
    // is pending, unconfirmed. Engine `b`'s GLR state is then
    // overwritten wholesale from `a`'s snapshot; the remainder must
    // replay bit-exactly, including the pending alarm's confirmation.
    let mut a = ShardedEngine::new(config(2).with_glr(glr_cfg())).unwrap();
    let mut b = ShardedEngine::new(config(2).with_glr(glr_cfg())).unwrap();
    let mut prefix_events = Vec::new();
    let mut resumed = false;
    for t in 0..6u64 {
        for s in 0..SLOTS {
            let items = glr_slot_items(t, s, burst(t, s));
            a.push_slice(&items).unwrap();
            a.end_glr_slot();
            b.push_slice(&items).unwrap();
            b.end_glr_slot();
            if (t, s) == (4, 1) {
                let snap = a.glr_snapshot().expect("GLR enabled");
                assert!(!snap.pending.is_empty(), "expected a pending provisional");
                // Restore discards undrained events, but the snapshot's
                // pending queue still carries the provisional awaiting
                // confirmation at interval close — drain first.
                prefix_events = b.take_glr_events();
                b.restore_glr(snap).expect("restore");
                resumed = true;
            }
        }
        let report = b.end_interval().unwrap();
        let mut events = b.take_glr_events();
        a.end_interval().unwrap();
        a.take_glr_events();
        let (ref_report, ref_events) = &want[t as usize];
        assert_eq!(&report, ref_report, "interval {t} report diverged after restore");
        if t == 4 {
            // The provisional event itself was drained just before the
            // restore; re-attach it so the comparison covers the whole
            // interval's event stream.
            let mut all = std::mem::take(&mut prefix_events);
            all.append(&mut events);
            events = all;
        }
        assert_eq!(&events, ref_events, "interval {t} GLR events diverged after restore");
    }
    assert!(resumed);
}
