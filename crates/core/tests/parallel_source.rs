//! End-to-end determinism of the parallel source plane (PR 8): per-shard
//! trace synthesis, the chunked binary-trace reader, and multi-producer
//! `push_slice_parallel` must all leave `IntervalReport`s bit-identical to
//! the single-threaded source path, for every key strategy and engine mode.

use scd_core::{
    segment_records, DetectorConfig, EngineConfig, IntervalReport, KeyStrategy, ShardedEngine,
    StreamSegmenter,
};
use scd_forecast::ModelSpec;
use scd_sketch::SketchConfig;
use scd_traffic::{
    io, ChunkedTraceReader, FlowRecord, KeySpec, RouterProfile, TrafficGenerator, ValueSpec,
};

fn engine_config(strategy: KeyStrategy, shards: usize) -> EngineConfig {
    EngineConfig::new(
        DetectorConfig {
            sketch: SketchConfig { h: 3, k: 1024, seed: 9 },
            model: ModelSpec::Ewma { alpha: 0.5 },
            threshold: 0.1,
            key_strategy: strategy,
        },
        shards,
    )
}

fn flat_trace(seed: u64, intervals: usize) -> Vec<FlowRecord> {
    let mut cfg = RouterProfile::Small.config(seed);
    cfg.records_per_sec = 25.0;
    cfg.interval_secs = 60;
    cfg.n_flows = 300;
    let mut g = TrafficGenerator::new(cfg);
    g.trace(intervals).into_iter().flatten().collect()
}

fn run_engine(
    mut engine: ShardedEngine,
    intervals: &[Vec<(u64, f64)>],
    producers: Option<usize>,
) -> Vec<IntervalReport> {
    let mut reports = Vec::new();
    for items in intervals {
        match producers {
            Some(p) => engine.push_slice_parallel(items, p).unwrap(),
            None => engine.push_slice(items).unwrap(),
        }
        reports.push(engine.end_interval().unwrap());
    }
    reports
}

/// Chunked trace-reader feed == single-threaded `push_slice` on the fully
/// materialized trace: bit-identical reports for every key strategy, with
/// the parallel producer plane on and off.
#[test]
fn chunked_reader_feed_is_bit_identical() {
    let records = flat_trace(41, 8);
    let bytes = io::to_binary(&records);

    for strategy in [
        KeyStrategy::TwoPass,
        KeyStrategy::NextInterval,
        KeyStrategy::Sampled { rate: 0.5, seed: 3 },
    ] {
        // Reference: whole-file decode + segment + sequential push_slice.
        let reference = {
            let decoded = io::from_binary(&bytes).unwrap();
            let intervals = segment_records(&decoded, 60, KeySpec::DstIp, ValueSpec::Bytes);
            run_engine(ShardedEngine::new(engine_config(strategy, 4)).unwrap(), &intervals, None)
        };

        // Chunked: stream 500-record chunks through the segmenter, then
        // feed with multi-producer routing.
        for producers in [None, Some(3)] {
            let mut reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
            let mut seg = StreamSegmenter::new(60, KeySpec::DstIp, ValueSpec::Bytes);
            let mut chunk = Vec::new();
            loop {
                chunk.clear();
                if reader.next_chunk(500, &mut chunk).unwrap() == 0 {
                    break;
                }
                seg.push(&chunk);
            }
            let intervals = seg.finish();
            let got = run_engine(
                ShardedEngine::new(engine_config(strategy, 4)).unwrap(),
                &intervals,
                producers,
            );
            assert_eq!(got, reference, "{strategy:?} producers={producers:?}");
        }
    }
}

/// Per-producer (range) trace synthesis feeding the engine == sequential
/// synthesis feeding the engine, across shard counts and pipeline mode.
#[test]
fn parallel_synthesis_feed_is_bit_identical() {
    let mut cfg = RouterProfile::Small.config(17);
    cfg.records_per_sec = 25.0;
    cfg.interval_secs = 60;
    cfg.n_flows = 300;
    let mut g = TrafficGenerator::new(cfg);

    let sequential: Vec<Vec<(u64, f64)>> = (0..6)
        .map(|t| scd_traffic::to_updates(&g.interval_records(t), KeySpec::DstIp, ValueSpec::Bytes))
        .collect();
    // Four producers' contiguous counter ranges, concatenated in order.
    let parallel: Vec<Vec<(u64, f64)>> = (0..6)
        .map(|t| {
            let n = g.interval_len(t);
            let chunk = n.div_ceil(4);
            let records: Vec<FlowRecord> = (0..4)
                .flat_map(|w| {
                    g.interval_records_range(t, (w * chunk).min(n), ((w + 1) * chunk).min(n))
                })
                .collect();
            scd_traffic::to_updates(&records, KeySpec::DstIp, ValueSpec::Bytes)
        })
        .collect();
    assert_eq!(sequential, parallel, "synthesis diverged before the engine");

    for shards in [1usize, 4] {
        let a = run_engine(
            ShardedEngine::new(engine_config(KeyStrategy::TwoPass, shards)).unwrap(),
            &sequential,
            None,
        );
        let b = run_engine(
            ShardedEngine::new(engine_config(KeyStrategy::TwoPass, shards)).unwrap(),
            &parallel,
            Some(4),
        );
        assert_eq!(a, b, "shards={shards}");

        // Pipelined engine with the fully parallel source.
        let mut pipe =
            ShardedEngine::new(engine_config(KeyStrategy::TwoPass, shards).with_pipeline())
                .unwrap();
        let mut got = Vec::new();
        for items in &parallel {
            pipe.push_slice_parallel(items, 4).unwrap();
            if let Some(r) = pipe.end_interval_overlapped().unwrap() {
                got.push(r);
            }
        }
        while let Some(r) = pipe.drain().unwrap() {
            got.push(r);
        }
        assert_eq!(a, got, "pipelined shards={shards}");
    }
}
