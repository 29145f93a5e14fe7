//! The benchmark's fixed vocabulary: workload names and shapes, metric
//! names with units and regression bounds, and the parameters every
//! workload shares. `BENCHMARK.json` at the repository root repeats the
//! names, units and bounds; `tests::benchmark_json_matches_spec` keeps the
//! two from drifting.

use sketch_change::core::{DetectorConfig, KeyStrategy};
use sketch_change::forecast::ModelSpec;
use sketch_change::sketch::SketchConfig;

/// Hash rows of every sketch (the paper's H).
pub const H: usize = 5;
/// Alarm threshold T as a fraction of the error L2 norm.
pub const THRESHOLD: f64 = 0.05;
/// Seed of the sketch hash family (the CLI default).
pub const SKETCH_SEED: u64 = 0x5CD;
/// Interval length in seconds.
pub const INTERVAL_SECS: u32 = 60;
/// Records per `ChunkedTraceReader::next_chunk` call on the replay path:
/// the CLI's own `READ_CHUNK_RECORDS`.
pub const CHUNK_RECORDS: usize = 8_192;
/// Workload seed when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 2003;
/// Archive shape of `scd serve` / `scd archive` (budget, full-res, keys).
pub const ARCHIVE: sketch_change::archive::ArchiveConfig = sketch_change::archive::ArchiveConfig {
    max_sketches: 64,
    full_resolution: 8,
    keys_per_epoch: 64,
};
/// Most intervals the serve tail replays (the archive budget, so the tail
/// never compacts).
pub const TAIL_INTERVALS: usize = 64;

/// How keys are drawn for one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Zipf with the given exponent over `universe` destination IPs.
    Zipf { universe: u32, s: f64 },
    /// Uniform over `2^bits` destination IPs.
    Uniform { bits: u32 },
}

/// What the timed section of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `scd detect --shards 2 --pipeline --source-threads 2` over a file.
    Replay,
    /// Replay with archive + serving plane (`replay-turnover`).
    ReplayServed,
    /// `scd serve` under a paced writer and an open-loop reader.
    ServeMixed,
    /// A frozen plane under closed-loop unique reads.
    ServeCold,
    /// `scd ingest-node` x2 into `scd aggregate`.
    Fanin,
}

/// One workload: its name, why it exists, and its input shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub intervals: usize,
    pub records_per_interval: usize,
    pub keys: KeyDist,
    pub k: usize,
    pub model: &'static str,
    /// Whether `BENCHMARK.json` lists the workload, so that the driver
    /// holds later changes to its bounds. Four are: at most four fit the
    /// driver's time limit with runs long enough to outlast a neighbour's
    /// burst. `serve-mixed` is not because its cells follow the box's
    /// loopback wake-up regime, not the code; `serve-cold` is not because
    /// every gated workload's serve tail runs its loop already (README).
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "replay-volume",
        why: "Records dominate: parse, CRC, segment, route and fold are most of the pass, detect a fifth; where the SIMD fold, the parser and the CRC show.",
        kind: Kind::Replay,
        intervals: 24,
        records_per_interval: 250_000,
        keys: KeyDist::Zipf { universe: 50_000, s: 1.1 },
        k: 32_768,
        model: "ewma:0.5",
        gated: true,
    },
    Workload {
        name: "replay-keys",
        why: "Distinct keys dominate: the detect key scan is about half the pass and the fold is small; a fold-only gain must show nothing here.",
        kind: Kind::Replay,
        intervals: 48,
        records_per_interval: 100_000,
        keys: KeyDist::Uniform { bits: 22 },
        k: 32_768,
        model: "ewma:0.5",
        gated: true,
    },
    Workload {
        name: "replay-turnover",
        why: "Ingest is under 2% of the pass: barrier, COMBINE, forecast step, ESTIMATEF2, archive push and view publish are everything; bypasses every ingest optimisation.",
        kind: Kind::ReplayServed,
        intervals: 400,
        records_per_interval: 500,
        keys: KeyDist::Zipf { universe: 5_000, s: 1.1 },
        k: 65_536,
        model: "arima1:0.5,0.2/0.3",
        gated: true,
    },
    Workload {
        name: "serve-mixed",
        why: "Writes beside reads on the same planes at 2000 q/s open loop: shows a read gain that taxes ingest or publish, the answer cache, and record-to-queryable freshness.",
        kind: Kind::ServeMixed,
        intervals: 40,
        records_per_interval: 100_000,
        keys: KeyDist::Zipf { universe: 50_000, s: 1.1 },
        k: 32_768,
        model: "ewma:0.5",
        gated: false,
    },
    Workload {
        name: "serve-cold",
        why: "Reads only, every lookup a cache miss, 2 closed-loop clients: epoch scans and SCDQ framing do all the work, the cache and the ingest path none.",
        kind: Kind::ServeCold,
        intervals: 64,
        records_per_interval: 25_000,
        keys: KeyDist::Zipf { universe: 50_000, s: 1.1 },
        k: 32_768,
        model: "ewma:0.5",
        gated: false,
    },
    Workload {
        name: "fanin-2node",
        why: "The distributed plane: frame encode, CRC, spool, TCP, ack, decode, COMBINE and parity dominate; fold and detect are negligible.",
        kind: Kind::Fanin,
        intervals: 60,
        records_per_interval: 10_000,
        keys: KeyDist::Zipf { universe: 20_000, s: 1.1 },
        k: 32_768,
        model: "ewma:0.5",
        gated: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The shape with counts cut for `--smoke` (same key law, same K).
    pub fn smoke(mut self) -> Workload {
        self.intervals = (self.intervals / 4).max(10);
        self.records_per_interval = (self.records_per_interval / 10).max(200);
        self
    }

    pub fn total_records(&self) -> usize {
        self.intervals * self.records_per_interval
    }

    pub fn model_spec(&self) -> ModelSpec {
        ModelSpec::parse(self.model).expect("workload model specs are valid")
    }

    pub fn detector(&self) -> DetectorConfig {
        DetectorConfig {
            sketch: SketchConfig { h: H, k: self.k, seed: SKETCH_SEED },
            model: self.model_spec(),
            threshold: THRESHOLD,
            key_strategy: KeyStrategy::TwoPass,
        }
    }
}

/// One end-to-end metric: what a user of `scd` sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "records_per_s", unit: "records/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "query_qps", unit: "queries/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", higher_is_better: false, bound: 0.15 },
];

/// One per-layer metric (traced runs only; no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn pl(name: &'static str, unit: &'static str, higher_is_better: bool) -> PerLayer {
    PerLayer { name, unit, higher_is_better }
}

pub const PER_LAYER: [PerLayer; 68] = [
    // Timings a user sees, but which on two shared vCPUs follow the
    // scheduler and the neighbours rather than the code, so they carry no
    // bound (README).
    pl("close_ms_p50", "ms", false),
    pl("close_ms_p99", "ms", false),
    pl("close_queued_ms_p50", "ms", false),
    pl("query_p50_us", "us", false),
    pl("fresh_ms_p50", "ms", false),
    pl("traffic.parse_s", "s", false),
    pl("traffic.parse_mb_s", "MB/s", true),
    pl("traffic.records_read", "count", true),
    pl("hash.crc32_mb_s", "MB/s", true),
    pl("stream.segment_s", "s", false),
    pl("sketch.update_ns", "ns", false),
    pl("sketch.estimate_ns", "ns", false),
    pl("sketch.estimate_f2_us", "us", false),
    pl("sketch.combine_us", "us", false),
    pl("forecast.step_us", "us", false),
    pl("engine.push_s", "s", false),
    pl("engine.push_ns_per_record", "ns", false),
    pl("engine.close_s", "s", false),
    pl("engine.records_total", "count", true),
    pl("engine.fold_busy_s", "s", false),
    pl("engine.barrier_ms_mean", "ms", false),
    pl("engine.combine_ms_mean", "ms", false),
    pl("engine.detect_ms_mean", "ms", false),
    pl("engine.archive_ms_mean", "ms", false),
    pl("engine.queue_depth_max", "count", false),
    pl("engine.speedup_vs_inline", "x", true),
    pl("detector.turnover_ms_p50", "ms", false),
    pl("detector.keys_scanned_per_interval", "count", false),
    pl("detector.ns_per_key", "ns", false),
    pl("glr.tax_ns_per_record", "ns", false),
    pl("glr.tax_pct", "%", false),
    pl("archive.push_us_p50", "us", false),
    pl("archive.to_bytes_mb_s", "MB/s", true),
    pl("archive.from_bytes_mb_s", "MB/s", true),
    pl("archive.changed_keys_ms", "ms", false),
    pl("archive.epochs", "count", false),
    pl("archive.memory_bytes", "bytes", false),
    pl("checkpoint.to_bytes_ms", "ms", false),
    pl("checkpoint.write_atomic_ms", "ms", false),
    pl("checkpoint.bytes", "bytes", false),
    pl("serve.publish_ms_p50", "ms", false),
    pl("serve.answer_us_p50.estimate", "us", false),
    pl("serve.answer_us_p50.changed_keys", "us", false),
    pl("serve.answer_us_p50.key_history", "us", false),
    pl("serve.answer_us_p50.range_sketch", "us", false),
    pl("serve.rtt_us_p50.estimate", "us", false),
    pl("serve.rtt_us_p50.changed_keys", "us", false),
    pl("serve.rtt_us_p50.key_history", "us", false),
    pl("serve.rtt_us_p50.range_sketch", "us", false),
    pl("serve.query_tail_us", "us", false),
    pl("serve.cache_hit_ratio", "ratio", true),
    pl("serve.coalesced", "count", true),
    pl("serve.query_errors", "count", false),
    pl("serve.view_bytes", "bytes", false),
    pl("net.frame_encode_mb_s", "MB/s", true),
    pl("net.frame_decode_mb_s", "MB/s", true),
    pl("net.node_end_interval_ms_p50", "ms", false),
    pl("net.bytes_per_interval", "bytes", false),
    pl("net.retries", "count", false),
    pl("net.recovered_intervals", "count", false),
    pl("net.vs_single_box", "ratio", true),
    pl("obs.metrics_on_overhead_pct", "%", false),
    pl("cli.detect_wall_s", "s", false),
    pl("cli.overhead_pct", "%", false),
    pl("loadgen.late_ms_p99", "ms", false),
    pl("trace.overhead_pct", "%", false),
    pl("ledger.residual_pct", "%", false),
    pl("pass.wall_s", "s", false),
];

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u32 = 21;

/// The text of `BENCHMARK.json`: `scd-benchmark spec` prints it and a test
/// holds the file at the repository root to it.
pub fn benchmark_json() -> String {
    use crate::json::Value;
    let s = |text: &str| Value::Str(text.to_string()).render();
    let rows = |rows: Vec<String>| rows.join(",\n");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        command.map(s).join(", "),
        rows(
            WORKLOADS
                .iter()
                .filter(|w| w.gated)
                .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", s(w.name), s(w.why)))
                .collect()
        ),
        rows(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    s(m.name),
                    s(m.unit),
                    s(if m.higher_is_better { "higher" } else { "lower" }),
                    m.bound
                ))
                .collect()
        ),
        rows(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    s(m.name),
                    s(m.unit),
                    s(if m.higher_is_better { "higher" } else { "lower" })
                ))
                .collect()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(legal)
    }

    fn unit_ok(unit: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(legal)
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(all.iter().all(|n| name_ok(n)));
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "a name is used twice");
        assert!(
            END_TO_END.iter().all(|m| unit_ok(m.unit)) && PER_LAYER.iter().all(|m| unit_ok(m.unit))
        );
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }

    #[test]
    fn benchmark_json_matches_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let text = benchmark_json();
        assert!(text.len() < 64 * 1024);
        let same = file == json::parse(&text).unwrap();
        assert!(
            same,
            "BENCHMARK.json is stale: regenerate it with `scd-benchmark spec > BENCHMARK.json`"
        );
    }
}
