//! `scd` — sketch-based change detection from the command line.
//!
//! Run `scd` with no arguments for every command and the flags it
//! honours ([`usage`]); README.md has the same as a command × flag table.
//! A flag a command does not list is rejected by name, not ignored.
//! Traces are the binary/CSV formats of `scd-traffic::io` (format chosen by
//! file extension). `detect` prints one line per alarm; `tune` prints a
//! spec string that `--model` accepts, so the two compose:
//!
//! ```text
//! scd detect --trace t.bin --interval 300 --model "$(scd tune --trace t.bin --interval 300 --model ewma --quiet)"
//! ```

mod flags;

/// Like `println!` but exits quietly when stdout closes (e.g. piped into
/// `head`) instead of panicking on the broken pipe.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write;
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        if writeln!(lock, $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

use flags::{FlagError, Flags};
use scd_archive::ArchiveConfig;
use scd_core::gridsearch::{search_model, GridSearchConfig};
use scd_core::{
    segment_records, spawn_streaming, Alarm, CheckpointPolicy, DetectorConfig, EngineConfig,
    GlrConfig, GlrEvent, KeyStrategy, LifecycleEvent, OverloadPolicy, RestartPolicy,
    ReversibleChangeDetector, ReversibleConfig, ShardedEngine, StaggeredDetector, StreamSegmenter,
    StreamingConfig, Supervision,
};
use scd_core::{IntervalReport, PipelineMetrics};
use scd_forecast::{ModelKind, ModelSpec};
use scd_obs::{MetricsListener, Registry};
use scd_sketch::{DeltoidConfig, SketchConfig};
use scd_traffic::record::format_ipv4;
use scd_traffic::{
    io, AnomalyEvent, AnomalyInjector, AnomalyKind, ChunkedTraceReader, FlowRecord, KeySpec,
    RouterProfile, TrafficGenerator, ValueSpec,
};
use std::fs::File;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: scd <generate|info|tune|detect> [flags]\n\n\
         generate  --profile large|medium|small --out FILE [--hours H] [--interval S]\n\
         \u{20}          [--scale X] [--seed N] [--dos RANK:START:DUR:MULT[,...]]\n\
         info      --trace FILE\n\
         tune      --trace FILE --interval S --model ma|sma|ewma|nshw|arima0|arima1\n\
         \u{20}          [--paper] [--quiet]\n\
         detect    --trace FILE --interval S --model SPEC [--h 5] [--k 32768]\n\
         \u{20}          [--threshold 0.05] [--sketch-seed N] [--top N]\n\
         \u{20}          [--strategy twopass|next|sampled:R|reversible] [--shards N]\n\
         \u{20}          [--pipeline] [--source-threads N] [--metrics FILE]\n\
         \u{20}          [--glr SLOTS] [--glr-threshold 16.0] [--glr-window 8]\n\
         \u{20}          [--stagger LANES]\n\
         \u{20}          [--metrics-listen ADDR] [--report-out FILE]\n\
         sketch    --trace FILE --interval S --at T --out FILE [--h 5] [--k 32768]\n\
         combine   --out FILE A.sketch B.sketch ... [--query IP]\n\
         stream    --trace FILE --interval S --model SPEC [--policy block|drop|sample:R]\n\
         \u{20}          [--capacity N] [--chunked] [--checkpoint FILE] [--every N]\n\
         \u{20}          [--h 5] [--k 32768] [--threshold 0.05] [--sketch-seed N] [--top N]\n\
         \u{20}          [--strategy twopass|next|sampled:R] [--shards N]\n\
         \u{20}          [--metrics FILE] [--metrics-listen ADDR] [--report-out FILE]\n\
         metrics   --from metrics.jsonl | --addr HOST:PORT\n\
         ingest-node --trace FILE --interval S --node I --nodes N --connect ADDR\n\
         \u{20}          [--h 5] [--k 32768] [--sketch-seed N] [--shards 2] [--spool DIR]\n\
         \u{20}          [--fault drop:3,dup:5,corrupt:7,trunc:9,delay:2:50] [--retries N]\n\
         \u{20}          [--finish-timeout-secs 60] [--metrics FILE] [--metrics-listen ADDR]\n\
         aggregate --listen ADDR --nodes N --model SPEC [--h 5] [--k 32768]\n\
         \u{20}          [--threshold 0.05] [--sketch-seed N] [--report-out FILE]\n\
         \u{20}          [--checkpoint FILE] [--every N] [--grace-ms 500]\n\
         \u{20}          [--node-timeout-ms 2000] [--timeout-secs 60] [--top N]\n\
         \u{20}          [--metrics FILE] [--metrics-listen ADDR]\n\
         archive   --trace FILE --interval S --model SPEC --out FILE [--shards 4]\n\
         \u{20}          [--budget 64] [--full-res 8] [--keys 64] [--h 5] [--k 32768]\n\
         \u{20}          [--threshold 0.05] [--sketch-seed N] [--top N]\n\
         \u{20}          [--strategy twopass|next|sampled:R] [--pipeline] [--source-threads N]\n\
         \u{20}          [--metrics FILE] [--metrics-listen ADDR] [--report-out FILE]\n\
         query     --archive FILE --from T1 --to T2 [--threshold 0.05]\n\
         \u{20}          [--key IP] [--estimate IP] [--top N]\n\
         serve     --trace FILE --interval S --model SPEC --listen ADDR [--shards N]\n\
         \u{20}          [--pipeline] [--budget 64] [--full-res 8] [--keys 64] [--h 5]\n\
         \u{20}          [--k 32768] [--threshold 0.05] [--sketch-seed N] [--pace-ms N]\n\
         \u{20}          [--linger-secs N] [--out FILE] [--sync-rebuild] [--no-cache]\n\
         \u{20}          [--strategy twopass|next|sampled:R] [--source-threads N] [--top N]\n\
         \u{20}          [--metrics FILE] [--metrics-listen ADDR] [--report-out FILE]\n\
         ask       --addr HOST:PORT (--estimate IP [--from T1 --to T2] |\n\
         \u{20}          --changed --from T1 --to T2 [--threshold 0.05] |\n\
         \u{20}          --history IP --from T1 --to T2 | --range --from T1 --to T2)\n\
         \u{20}          [--top N] [--wait-secs N]\n\n\
         model SPEC syntax: ma:W | sma:W | ewma:A | nshw:A:B | arima0:AR,../MA,.. |\n\
         \u{20}          arima1:AR,../MA,.. | shw:A:B:G:M (season of M >= 2 intervals), e.g.\n\
         \u{20}          ma:5, ewma:0.5, nshw:0.6:0.2, arima0:0.7,-0.1/0.3, shw:0.3:0.1:0.5:288"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    let flags = Flags::parse(&cmd, args);
    let result = match cmd.as_str() {
        "generate" => generate(&flags),
        "info" => info(&flags),
        "tune" => tune(&flags),
        "detect" => detect(&flags),
        "sketch" => sketch(&flags),
        "combine" => combine(&flags),
        "stream" => stream(&flags),
        "archive" => archive(&flags),
        "query" => query(&flags),
        "serve" => serve(&flags),
        "ask" => ask(&flags),
        "metrics" => metrics(&flags),
        "ingest-node" => ingest_node(&flags),
        "aggregate" => aggregate(&flags),
        _ => return usage(),
    };
    // Every command checks its flags before it creates anything; asking
    // again here means one that forgot still cannot ignore a flag quietly.
    match result.and_then(|()| Ok(flags.done()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scd {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn read_trace(path: &str) -> Result<Vec<FlowRecord>, Box<dyn std::error::Error>> {
    let file = File::open(path)?;
    let records = if path.ends_with(".csv") { io::read_csv(file)? } else { io::read_binary(file)? };
    Ok(records)
}

/// Records decoded per `ChunkedTraceReader::next_chunk` call on the CLI's
/// streaming paths — large enough to amortize the CRC/decode loop, small
/// enough to keep the resident chunk buffer in cache.
const READ_CHUNK_RECORDS: usize = 8192;

/// One `(key, value)` update stream per interval, in trace order.
type Intervals = Vec<Vec<(u64, f64)>>;

/// Segments a trace into `(key, value)` intervals of destination-IP byte
/// counts. Binary `SCDTRC` traces stream through `ChunkedTraceReader` +
/// `StreamSegmenter` — fixed-size chunks straight into interval bins, no
/// flat record vector — which is bit-identical to the materializing path
/// (proven in `scd-core/tests/parallel_source.rs`). CSV traces fall back
/// to the materializing reader.
fn read_intervals(path: &str, interval: u32) -> Result<Intervals, Box<dyn std::error::Error>> {
    let (key, value) = (KeySpec::DstIp, ValueSpec::Bytes);
    if path.ends_with(".csv") {
        let records = read_trace(path)?;
        return Ok(segment_records(&records, interval, key, value));
    }
    let mut reader = ChunkedTraceReader::new(File::open(path)?)?;
    let mut segmenter = StreamSegmenter::new(interval, key, value);
    let mut chunk = Vec::with_capacity(READ_CHUNK_RECORDS);
    loop {
        chunk.clear();
        if reader.next_chunk(READ_CHUNK_RECORDS, &mut chunk)? == 0 {
            break;
        }
        segmenter.push(&chunk);
    }
    Ok(segmenter.finish())
}

/// `Err` naming `why` unless `ok`: a flag value outside the range the
/// library asserts on is a usage error (exit 1), never a panic.
fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), FlagError> {
    if ok {
        Ok(())
    } else {
        Err(FlagError(why()))
    }
}

/// `--interval S`, which every trace command requires: whole seconds, at
/// least one.
fn interval_flag(flags: &Flags) -> Result<u32, FlagError> {
    let secs: u32 = flags.require("interval")?;
    ensure(secs >= 1, || "--interval must be at least 1 second".into())?;
    Ok(secs)
}

// The shared flag groups. A command passes `Setup::from_flags` the ones it
// honours; what it does not honour it never reads, so `Flags::done`
// rejects it by name.
/// `--model`, `--threshold`, `--top`: the command runs a detector.
const MODEL: u32 = 1;
/// `--strategy`.
const STRATEGY: u32 = 1 << 1;
/// `--shards`.
const SHARDS: u32 = 1 << 2;
/// `--pipeline`, `--source-threads`: the driver can overlap detection with
/// ingest.
const OVERLAP: u32 = 1 << 3;
/// `--glr`, `--glr-threshold`, `--glr-window`: the driver cuts the trace at
/// slot boundaries.
const GLR: u32 = 1 << 4;
/// `--budget`, `--full-res`, `--keys`.
const STORE: u32 = 1 << 5;
/// `--checkpoint`, `--every`.
const CHECKPOINT: u32 = 1 << 6;
/// `--report-out`.
const REPORT: u32 = 1 << 7;
/// `--metrics`, `--metrics-listen`.
const TELEMETRY: u32 = 1 << 8;

const DETECT: u32 = MODEL | STRATEGY | SHARDS | OVERLAP | GLR | REPORT | TELEMETRY;
const ARCHIVE: u32 = DETECT & !GLR | STORE;
/// The streaming driver stamps each report with the drop counters of the
/// interval it closes, so it waits for that report: there is nothing for
/// `--pipeline` to overlap, and it cuts intervals by event time only.
const STREAM: u32 = MODEL | STRATEGY | SHARDS | CHECKPOINT | REPORT | TELEMETRY;
/// The aggregator scans the distinct keys its nodes ship: key strategy
/// and sharding are the nodes' side of the plane.
const AGGREGATE: u32 = STREAM & !(STRATEGY | SHARDS);
const INGEST_NODE: u32 = SHARDS | TELEMETRY;

/// Everything the shared flags say about a run, parsed and validated but
/// with nothing created yet — the one place the sketch, the model, the
/// key strategy and the engine's shape are read from the command line.
struct Setup {
    sketch: SketchConfig,
    /// `None` for the commands that only sketch.
    detector: Option<DetectorConfig>,
    shards: usize,
    pipeline: bool,
    source_threads: usize,
    /// Slots per interval (1 when GLR is off) and the GLR configuration.
    glr_slots: usize,
    glr: Option<GlrConfig>,
    archive: Option<ArchiveConfig>,
    checkpoint: Option<CheckpointPolicy>,
    top: usize,
    metrics: Option<String>,
    metrics_listen: Option<String>,
    report_out: Option<String>,
}

impl Setup {
    /// Reads the flag groups in `honours` (`--h`, `--k` and `--sketch-seed`
    /// always); `--shards` defaults to `shards`.
    fn from_flags(
        flags: &Flags,
        honours: u32,
        shards: usize,
    ) -> Result<Setup, Box<dyn std::error::Error>> {
        let honours = |group: u32| honours & group != 0;
        let seed: u64 = flags.get("sketch-seed", 0x5CD)?;
        let sketch = SketchConfig { h: flags.get("h", 5)?, k: flags.get("k", 32_768)?, seed };
        ensure(sketch.h >= 1, || "--h must be at least 1".into())?;
        ensure(sketch.k.is_power_of_two(), || format!("--k {} is not a power of two", sketch.k))?;
        let strategy = if honours(STRATEGY) { flags.raw("strategy") } else { None };
        let key_strategy = match strategy {
            None | Some("twopass") => KeyStrategy::TwoPass,
            Some("next") => KeyStrategy::NextInterval,
            Some(s) if s.starts_with("sampled:") => {
                let rate: f64 = s["sampled:".len()..]
                    .parse()
                    .map_err(|_| FlagError(format!("bad sampled rate in '{s}'")))?;
                ensure((0.0..=1.0).contains(&rate), || {
                    format!("sampled rate {rate} not in [0, 1]")
                })?;
                KeyStrategy::Sampled { rate, seed: seed ^ 1 }
            }
            Some(other) => return Err(FlagError(format!("unknown strategy '{other}'")).into()),
        };
        let (detector, top) = if honours(MODEL) {
            let detector = DetectorConfig {
                sketch,
                model: ModelSpec::parse(&flags.require::<String>("model")?)?,
                threshold: flags.get("threshold", 0.05)?,
                key_strategy,
            };
            let t = detector.threshold;
            ensure(t > 0.0 && t.is_finite(), || format!("--threshold {t} must be positive"))?;
            (Some(detector), flags.get("top", 10)?)
        } else {
            (None, 0)
        };
        let shards = if honours(SHARDS) { flags.get("shards", shards)? } else { shards };
        let (pipeline, source_threads) = if honours(OVERLAP) {
            (flags.has("pipeline"), flags.get("source-threads", 1)?)
        } else {
            (false, 1)
        };
        let (mut glr_slots, mut glr) = (1, None);
        if honours(GLR) {
            // Sub-interval GLR sequential detection: base slots of
            // interval/slots seconds feed per-slot ±1 projections;
            // provisional alarms print as they fire and are confirmed or
            // retracted by the interval-close reports (which stay
            // bit-identical to a no-GLR run).
            let slots: usize = flags.get("glr", 0)?;
            let config = GlrConfig {
                max_window: flags.get("glr-window", 8)?,
                ..GlrConfig::new(flags.get("glr-threshold", 16.0)?, seed)
            };
            if slots == 1 {
                return Err(FlagError("--glr needs at least 2 slots per interval".into()).into());
            }
            if slots > 0 && matches!(key_strategy, KeyStrategy::Sampled { .. }) {
                // The sampler draws once per key in first-seen order, so
                // its reports depend on intra-interval feed order;
                // slot-granular ingest would silently change them.
                return Err(FlagError(
                    "--glr supports --strategy twopass|next (sampled is feed-order sensitive)"
                        .into(),
                )
                .into());
            }
            if slots > 0 {
                let t = config.threshold;
                ensure(t > 0.0 && t.is_finite(), || {
                    format!("--glr-threshold {t} must be positive")
                })?;
                ensure(config.max_window >= 1, || "--glr-window must be at least 1 slot".into())?;
                (glr_slots, glr) = (slots, Some(config));
            }
        }
        let archive = if honours(STORE) {
            Some(ArchiveConfig {
                max_sketches: flags.get("budget", 64)?,
                full_resolution: flags.get("full-res", 8)?,
                keys_per_epoch: flags.get("keys", 64)?,
            })
        } else {
            None
        };
        let checkpoint = if honours(CHECKPOINT) {
            let every: u64 = flags.get("every", 10)?;
            flags.raw("checkpoint").map(|file| CheckpointPolicy { path: file.into(), every })
        } else {
            None
        };
        let owned = |on: bool, name: &str| {
            if on {
                flags.raw(name).map(str::to_string)
            } else {
                None
            }
        };
        Ok(Setup {
            sketch,
            detector,
            shards,
            pipeline,
            source_threads,
            glr_slots,
            glr,
            archive,
            checkpoint,
            top,
            metrics: owned(honours(TELEMETRY), "metrics"),
            metrics_listen: owned(honours(TELEMETRY), "metrics-listen"),
            report_out: owned(honours(REPORT), "report-out"),
        })
    }

    fn detector(&self) -> DetectorConfig {
        self.detector.clone().expect("the command honours --model")
    }

    /// Creates what the output flags name — the first files a run writes,
    /// so call it only after [`Flags::done`].
    fn open(&self) -> Result<Output, Box<dyn std::error::Error>> {
        let create = |path: &Option<String>| match path {
            Some(p) => File::create(p).map(|file| Some(std::io::BufWriter::new(file))),
            None => Ok(None),
        };
        let mut out = Output {
            top: self.top,
            metrics: None,
            snapshots: create(&self.metrics)?,
            listener: None,
            sink: create(&self.report_out)?,
        };
        if self.metrics.is_some() || self.metrics_listen.is_some() {
            let registry = Arc::new(Registry::new());
            let pipeline = PipelineMetrics::register(&registry);
            if let Some(addr) = &self.metrics_listen {
                let listener = MetricsListener::bind(addr, Arc::clone(&registry))?;
                eprintln!("serving metrics on http://{}/metrics", listener.local_addr());
                out.listener = Some(listener);
            }
            out.metrics = Some((registry, pipeline));
        }
        Ok(out)
    }

    /// The engine the flags describe, wired to `out`'s telemetry, with
    /// whatever the command itself hangs on it (an archive, an observer).
    fn engine(
        &self,
        out: &Output,
        attach: impl FnOnce(EngineConfig) -> EngineConfig,
    ) -> Result<ShardedEngine, scd_core::EngineError> {
        ShardedEngine::new(attach(self.engine_config(out)))
    }

    /// The engine configuration the flags describe, wired to `out`'s
    /// telemetry.
    fn engine_config(&self, out: &Output) -> EngineConfig {
        let mut config = EngineConfig::new(self.detector(), self.shards);
        if self.pipeline {
            config = config.with_pipeline();
        }
        if let Some(glr) = &self.glr {
            config = config.with_glr(glr.clone());
        }
        if let Some((_, pipeline)) = &out.metrics {
            config = config.with_metrics(Arc::clone(pipeline));
        }
        if let Some(checkpoint) = &self.checkpoint {
            let checkpoint = Some(checkpoint.clone());
            config = config.with_supervision(Supervision { checkpoint, ..Supervision::default() });
        }
        config
    }
}

/// Where a run's reports go: alarm lines on stdout; live telemetry — one
/// registry feeding an optional JSON-lines snapshot file (`--metrics
/// FILE`, one line per closed interval) and an optional Prometheus scrape
/// endpoint (`--metrics-listen ADDR`); and the optional canonical-report
/// file (`--report-out FILE`): one [`IntervalReport::canonical_line`] per
/// emitted interval. Two runs that produce bit-identical reports produce
/// byte-identical files, which is what the distributed smoke test diffs
/// against a single-box run.
struct Output {
    top: usize,
    metrics: Option<(Arc<Registry>, Arc<PipelineMetrics>)>,
    snapshots: Option<std::io::BufWriter<File>>,
    listener: Option<MetricsListener>,
    sink: Option<std::io::BufWriter<File>>,
}

impl Output {
    /// Prints one report's alarms, stamps a snapshot line for the interval
    /// it closes and files its digest.
    fn emit(&mut self, report: &IntervalReport) -> CliResult {
        print_alarms(report.interval, &report.alarms, self.top);
        self.record(report.interval as u64, report)
    }

    /// The file half of [`emit`](Self::emit), for callers that print on
    /// their own schedule.
    fn record(&mut self, interval: u64, report: &IntervalReport) -> CliResult {
        use std::io::Write as _;
        if let (Some((registry, _)), Some(snapshots)) = (&self.metrics, &mut self.snapshots) {
            let mut line = String::new();
            registry.render_jsonl(interval, &mut line);
            writeln!(snapshots, "{line}")?;
        }
        if let Some(sink) = &mut self.sink {
            writeln!(sink, "{}", report.canonical_line())?;
        }
        Ok(())
    }

    /// Flushes both files and stops the scrape endpoint.
    fn finish(self) -> CliResult {
        use std::io::Write as _;
        for mut file in self.snapshots.into_iter().chain(self.sink) {
            file.flush()?;
        }
        if let Some(listener) = self.listener {
            listener.stop();
        }
        Ok(())
    }
}

/// The one interval feed loop: pushes each bin, closes a GLR slot after
/// it, closes the interval after every `setup.glr_slots` bins (one, when
/// GLR is off: a bin is then an interval and the slot calls are no-ops),
/// emits each report as it arrives — one interval late on a pipelined
/// engine — and drains the last one.
fn run_intervals(
    engine: &mut ShardedEngine,
    bins: &[Vec<(u64, f64)>],
    setup: &Setup,
    pace: std::time::Duration,
    out: &mut Output,
) -> CliResult {
    let slots = setup.glr_slots;
    let empty: Vec<(u64, f64)> = Vec::new();
    for t in 0..bins.len().div_ceil(slots) {
        for s in 0..slots {
            let items = bins.get(t * slots + s).unwrap_or(&empty);
            engine.push_slice_parallel(items, setup.source_threads)?;
            engine.end_glr_slot();
            engine.take_glr_events().iter().for_each(print_glr_event);
        }
        if let Some(report) = engine.end_interval_overlapped()? {
            out.emit(&report)?;
        }
        engine.take_glr_events().iter().for_each(print_glr_event);
        if !pace.is_zero() {
            std::thread::sleep(pace);
        }
    }
    if let Some(report) = engine.drain()? {
        out.emit(&report)?;
    }
    engine.take_glr_events().iter().for_each(print_glr_event);
    Ok(())
}

fn generate(flags: &Flags) -> CliResult {
    let profile = match flags.require::<String>("profile")?.as_str() {
        "large" => RouterProfile::Large,
        "medium" => RouterProfile::Medium,
        "small" => RouterProfile::Small,
        other => return Err(FlagError(format!("unknown profile '{other}'")).into()),
    };
    let out: String = flags.require("out")?;
    let hours: f64 = flags.get("hours", 1.0)?;
    let interval: u32 = flags.get("interval", 300)?;
    let scale: f64 = flags.get("scale", 1.0)?;
    let seed: u64 = flags.get("seed", 2003)?;
    let dos = flags.raw("dos");
    flags.done()?;
    ensure(scale > 0.0 && scale.is_finite(), || format!("--scale {scale} must be positive"))?;
    ensure(interval >= 1, || "--interval must be at least 1 second".into())?;
    let n_intervals = ((hours * 3600.0) / f64::from(interval)).round().max(1.0);
    ensure(hours > 0.0 && n_intervals <= f64::from(u32::MAX), || {
        format!("--hours {hours} must be positive and at most 2^32 intervals")
    })?;
    let n_intervals = n_intervals as usize;

    let mut cfg = profile.config(seed).scaled(scale);
    cfg.interval_secs = interval;
    let mut generator = TrafficGenerator::new(cfg);

    // Optional DoS schedule: RANK:START:DUR:MULT, comma separated.
    let mut events = Vec::new();
    if let Some(spec) = dos {
        for part in spec.split(',') {
            let fields: Vec<&str> = part.split(':').collect();
            if fields.len() != 4 {
                return Err(
                    FlagError(format!("--dos expects RANK:START:DUR:MULT, got '{part}'")).into()
                );
            }
            let rank: usize = fields[0].parse().map_err(|_| FlagError(part.into()))?;
            let start: usize = fields[1].parse().map_err(|_| FlagError(part.into()))?;
            let duration: usize = fields[2].parse().map_err(|_| FlagError(part.into()))?;
            let mult: f64 = fields[3].parse().map_err(|_| FlagError(part.into()))?;
            ensure(rank < cfg.n_flows, || {
                format!("--dos rank {rank} is past the profile's {} destinations", cfg.n_flows)
            })?;
            ensure(duration >= 1 && start.checked_add(duration).is_some(), || {
                format!("--dos '{part}' must last at least one interval")
            })?;
            let baseline = generator.expected_rank_bytes(rank, start).max(10_000.0);
            events.push(AnomalyEvent {
                kind: AnomalyKind::DosAttack { byte_rate: baseline * mult, flows: 50 },
                victim_rank: rank,
                start_interval: start,
                duration,
            });
        }
    }
    let injector = AnomalyInjector::new(events.clone(), seed ^ 0xA770);
    let (trace, truth) = injector.labeled_trace(&mut generator, n_intervals);
    let flat: Vec<FlowRecord> = trace.into_iter().flatten().collect();

    let file = File::create(&out)?;
    if out.ends_with(".csv") {
        io::write_csv(file, &flat)?;
    } else {
        io::write_binary(file, &flat)?;
    }
    outln!(
        "wrote {} records over {} x {}s intervals to {}",
        flat.len(),
        n_intervals,
        interval,
        out
    );
    for ev in &events {
        outln!(
            "  injected dos: victim {} (rank {}), intervals {}..{}",
            format_ipv4(generator.dst_ip_of_rank(ev.victim_rank)),
            ev.victim_rank,
            ev.start_interval,
            ev.start_interval + ev.duration - 1
        );
    }
    let _ = truth;
    Ok(())
}

fn info(flags: &Flags) -> CliResult {
    let path: String = flags.require("trace")?;
    flags.done()?;
    let records = read_trace(&path)?;
    if records.is_empty() {
        outln!("{path}: empty trace");
        return Ok(());
    }
    let first = records.iter().map(|r| r.timestamp_ms).min().expect("nonempty");
    let last = records.iter().map(|r| r.timestamp_ms).max().expect("nonempty");
    let bytes: u64 = records.iter().map(|r| r.bytes).sum();
    let mut per_dst: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for r in &records {
        *per_dst.entry(r.dst_ip).or_default() += r.bytes;
    }
    let mut top: Vec<(u32, u64)> = per_dst.iter().map(|(&k, &v)| (k, v)).collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    outln!("{path}:");
    outln!("  records:      {}", records.len());
    outln!("  span:         {:.1} minutes", (last - first) as f64 / 60_000.0);
    outln!("  total bytes:  {bytes}");
    outln!("  distinct dst: {}", per_dst.len());
    outln!("  top talkers:");
    for (ip, vol) in top.iter().take(10) {
        outln!("    {:<16} {:>14} bytes", format_ipv4(*ip), vol);
    }
    Ok(())
}

fn tune(flags: &Flags) -> CliResult {
    let path: String = flags.require("trace")?;
    let interval = interval_flag(flags)?;
    let kind: ModelKind = flags.require::<String>("model")?.parse()?;
    let quiet = flags.has("quiet");
    let paper = flags.has("paper");
    flags.done()?;

    let intervals = read_intervals(&path, interval)?;
    if intervals.is_empty() {
        return Err(FlagError("trace produced no intervals".into()).into());
    }
    let depth = if paper { GridSearchConfig::paper_default } else { GridSearchConfig::fast };
    let mut cfg = depth(interval);
    // Don't demand a full hour of warm-up from short traces.
    cfg.warm_up_intervals = cfg.warm_up_intervals.min(intervals.len() / 4);
    let result = search_model(kind, &cfg, &intervals);
    if quiet {
        outln!("{}", result.spec.compact());
    } else {
        outln!("best {kind} parameters: {}", result.spec.describe());
        outln!("  spec string:     {}", result.spec.compact());
        outln!("  estimated energy: {:.3e}", result.energy);
        outln!("  candidates tried: {}", result.evaluated);
    }
    Ok(())
}

fn detect(flags: &Flags) -> CliResult {
    let path: String = flags.require("trace")?;
    let interval = interval_flag(flags)?;
    // Two detectors still run outside the engine (a `Deltoid`- or
    // lane-typed engine would make the shared code branch on its caller —
    // ROADMAP item 1): the reversible (group-testing) sketch, which
    // recovers keys with no key stream at all, and phase-shifted staggered
    // lanes (§6 "staggered intervals": one detector per phase offset,
    // sharing slot sketches via linearity). They read none of the flags
    // that shape the engine, so those are rejected for them.
    let reversible = flags.raw("strategy") == Some("reversible");
    let stagger: usize = flags.get("stagger", 0)?;
    let honours = match (reversible, stagger) {
        (true, _) => MODEL,
        (false, 0) => DETECT,
        (false, _) => MODEL | STRATEGY,
    };
    let setup = Setup::from_flags(flags, honours, 1)?;
    let detector = setup.detector();
    if stagger > 0 && (reversible || !matches!(detector.key_strategy, KeyStrategy::TwoPass)) {
        return Err(FlagError("--stagger requires --strategy twopass".into()).into());
    }
    if stagger == 1 {
        return Err(FlagError("--stagger needs at least 2 lanes".into()).into());
    }
    // Bins fed per interval: staggered lanes, GLR slots, or the interval.
    let (cut, parts) =
        if stagger > 0 { ("--stagger", stagger) } else { ("--glr", setup.glr_slots) };
    if interval % parts as u32 != 0 {
        return Err(
            FlagError(format!("--interval {interval} is not divisible by {cut} {parts}")).into()
        );
    }
    flags.done().map_err(|e| match honours {
        DETECT => e,
        _ => FlagError(format!("{e} with --stagger / --strategy reversible (no engine)")),
    })?;

    let bins = read_intervals(&path, interval / parts as u32)?;
    outln!(
        "detecting over {} intervals of {interval}s (model {}, H={}, K={}, T={})",
        bins.len().div_ceil(parts),
        detector.model.describe(),
        detector.sketch.h,
        detector.sketch.k,
        detector.threshold
    );
    if reversible {
        let SketchConfig { h, k, seed } = detector.sketch;
        let mut det = ReversibleChangeDetector::new(ReversibleConfig {
            deltoid: DeltoidConfig { h, k, key_bits: 32, seed },
            model: detector.model,
            threshold: detector.threshold,
        });
        for items in &bins {
            let report = det.process_interval(items);
            print_alarms(report.interval, &report.alarms, setup.top);
        }
        return Ok(());
    }
    if stagger > 0 {
        let mut det = StaggeredDetector::new(detector, stagger);
        for (s, items) in bins.iter().enumerate() {
            for a in det.process_slot(items) {
                outln!(
                    "slot {s}: lane {} ALARM {:<16} error {:+.0} bytes",
                    a.lane,
                    format_ipv4(a.key as u32),
                    a.alarm.estimated_error
                );
            }
        }
        return Ok(());
    }
    // One engine whatever the flags: a single inline shard is the
    // single-threaded detector, bit for bit (linearity; `update_batch` is
    // `update`), and every other shape — shards, a detect thread
    // overlapped with ingest, producer threads on the routing hop, GLR
    // slots — is the same reports from the same loop.
    let mut out = setup.open()?;
    let mut engine = setup.engine(&out, |config| config)?;
    run_intervals(&mut engine, &bins, &setup, std::time::Duration::ZERO, &mut out)?;
    out.finish()
}

fn print_glr_event(e: &GlrEvent) {
    let hint = |a: &scd_core::ProvisionalAlarm| {
        a.key_hint.map_or_else(|| "?".to_string(), |k| format_ipv4(k as u32))
    };
    match e {
        GlrEvent::Provisional { interval, alarm } => outln!(
            "GLR provisional [interval {interval}] slot {} (onset {}, w={}) key {} stat {:.1}",
            alarm.raised_slot,
            alarm.onset_slot,
            alarm.window,
            hint(alarm),
            alarm.statistic
        ),
        GlrEvent::Confirmed { interval, lead_slots, alarm } => outln!(
            "GLR confirmed   [interval {interval}] key {} — {lead_slots} slot(s) before close",
            hint(alarm)
        ),
        GlrEvent::Retracted { interval, alarm } => {
            outln!("GLR retracted   [interval {interval}] key {}", hint(alarm))
        }
    }
}

fn print_alarms(interval: usize, alarms: &[Alarm], top: usize) {
    for (i, alarm) in alarms.iter().take(top).enumerate() {
        if i == 0 {
            outln!("interval {interval}:");
        }
        let ip = format_ipv4(alarm.key as u32);
        outln!("  ALARM {ip:<16} error {:+.0} bytes", alarm.estimated_error);
    }
}

/// Builds the k-ary sketch of one interval of a trace and writes it in the
/// wire format — the per-router half of the distributed COMBINE workflow.
fn sketch(flags: &Flags) -> CliResult {
    let path: String = flags.require("trace")?;
    let interval = interval_flag(flags)?;
    let at: usize = flags.require("at")?;
    let out: String = flags.require("out")?;
    let setup = Setup::from_flags(flags, 0, 1)?;
    flags.done()?;

    let intervals = read_intervals(&path, interval)?;
    let items = intervals.get(at).ok_or_else(|| {
        FlagError(format!("interval {at} beyond trace ({} intervals)", intervals.len()))
    })?;
    let mut s = scd_sketch::KarySketch::new(setup.sketch);
    for &(key, value) in items {
        s.update(key, value);
    }
    std::fs::write(&out, scd_sketch::to_bytes(&s))?;
    outln!(
        "wrote sketch of interval {at} ({} updates, total {:.0} bytes of traffic) to {out}",
        items.len(),
        s.sum()
    );
    Ok(())
}

/// Sums sketch files (same hash family required) — the collector half of
/// the distributed workflow. Optionally answers a point query on the sum.
fn combine(flags: &Flags) -> CliResult {
    let out: String = flags.require("out")?;
    let query = flags.raw("query");
    flags.done()?;
    if flags.positional.is_empty() {
        return Err(FlagError("combine needs at least one sketch file".into()).into());
    }
    let mut sum: Option<scd_sketch::KarySketch> = None;
    for path in &flags.positional {
        let data = std::fs::read(path)?;
        let s = scd_sketch::from_bytes(&data)?;
        match &mut sum {
            None => sum = Some(s),
            Some(acc) => acc.add_scaled(&s, 1.0)?,
        }
    }
    let sum = sum.expect("at least one input");
    std::fs::write(&out, scd_sketch::to_bytes(&sum))?;
    outln!(
        "combined {} sketch(es); total traffic {:.0} bytes -> {out}",
        flags.positional.len(),
        sum.sum()
    );
    if let Some(q) = query {
        let key: u64 = parse_ip_or_key(q)?;
        outln!("estimate[{q}] = {:.0}", sum.estimate(key));
    }
    Ok(())
}

/// Replays a trace through the supervised streaming detector: records are
/// pushed through the bounded channel under the chosen overload policy,
/// intervals are cut by event time, and (optionally) the detector state is
/// checkpointed every N intervals so a crashed run resumes where it left
/// off. Lifecycle events and drop counters are reported at the end.
fn stream(flags: &Flags) -> CliResult {
    let path: String = flags.require("trace")?;
    let interval = interval_flag(flags)?;
    let capacity: usize = flags.get("capacity", 4096)?;
    ensure(capacity >= 1, || "--capacity must be at least 1".into())?;
    let setup = Setup::from_flags(flags, STREAM, 1)?;

    let overload = match flags.raw("policy").unwrap_or("block") {
        "block" => OverloadPolicy::Block,
        "drop" => OverloadPolicy::DropNewest,
        s if s.starts_with("sample:") => {
            let rate: f64 = s["sample:".len()..]
                .parse()
                .map_err(|_| FlagError(format!("bad sample rate in '{s}'")))?;
            if !(rate > 0.0 && rate <= 1.0) {
                return Err(FlagError(format!("sample rate {rate} not in (0, 1]")).into());
            }
            OverloadPolicy::Sample { rate, seed: setup.sketch.seed ^ 0xFA11 }
        }
        other => return Err(FlagError(format!("unknown policy '{other}'")).into()),
    };

    // --chunked streams the binary trace through ChunkedTraceReader in
    // fixed-size chunks (constant memory, no global sort). Generated
    // traces are interval-ordered, which is all the streaming detector
    // needs to close intervals correctly; arbitrary traces should use the
    // default materialize-and-sort path.
    let chunked = flags.has("chunked");
    if chunked && path.ends_with(".csv") {
        return Err(FlagError("--chunked requires a binary trace".into()).into());
    }
    flags.done()?;
    let records = if chunked {
        Vec::new()
    } else {
        let mut r = read_trace(&path)?;
        r.sort_by_key(|r| r.timestamp_ms);
        r
    };

    let mut out = setup.open()?;
    let mut engine = setup.engine_config(&out);
    // Always supervised, checkpoint or not: a detector panic is absorbed
    // and narrated in the lifecycle lines.
    engine.supervision.get_or_insert_with(Supervision::default);
    let handle = spawn_streaming(StreamingConfig {
        engine,
        interval_ms: u64::from(interval) * 1000,
        key: KeySpec::DstIp,
        value: ValueSpec::Bytes,
        channel_capacity: capacity,
        overload,
    });
    let mut reports = Vec::new();
    let mut events = Vec::new();
    let mut n_records = 0usize;
    {
        // Drain as we go: the report channel is bounded, so collecting
        // only at shutdown would deadlock once it fills while the record
        // channel is also full (the detector blocks sending a report, the
        // producer blocks sending a record, and neither can proceed).
        let mut feed = |record: FlowRecord| -> Result<bool, Box<dyn std::error::Error>> {
            n_records += 1;
            if !handle.send(record) {
                return Ok(false); // detector gave up; shutdown() reports why
            }
            for report in handle.reports().try_iter() {
                out.record(report.interval as u64, &report)?;
                reports.push(report);
            }
            events.extend(handle.events().try_iter());
            Ok(true)
        };
        if chunked {
            let mut reader = ChunkedTraceReader::new(File::open(&path)?)?;
            let mut chunk = Vec::with_capacity(READ_CHUNK_RECORDS);
            'trace: loop {
                chunk.clear();
                if reader.next_chunk(READ_CHUNK_RECORDS, &mut chunk)? == 0 {
                    break;
                }
                for &record in &chunk {
                    if !feed(record)? {
                        break 'trace;
                    }
                }
            }
        } else {
            for record in records {
                if !feed(record)? {
                    break;
                }
            }
        }
    }
    let (tail_reports, tail_events, processed) =
        handle.shutdown().map_err(|e| FlagError(format!("stream failed: {e}")))?;
    for report in &tail_reports {
        out.record(report.interval as u64, report)?;
    }
    reports.extend(tail_reports);
    events.extend(tail_events);

    outln!("streamed {n_records} records; detector processed {processed}");
    for report in &reports {
        print_alarms(report.interval, &report.alarms, setup.top);
        let drops = report.drops;
        if drops.lost() > 0 || drops.sampled_in > 0 {
            outln!(
                "  interval {}: dropped {} shed {} sampled-in {}",
                report.interval,
                drops.dropped,
                drops.shed,
                drops.sampled_in
            );
        }
    }
    print_lifecycle(&events);
    out.finish()
}

/// What a supervised detect stage announced, one line an event.
fn print_lifecycle(events: &[LifecycleEvent]) {
    for event in events {
        match event {
            LifecycleEvent::Started => {}
            LifecycleEvent::CheckpointWritten { intervals } => {
                outln!("checkpoint written at interval {intervals}");
            }
            other => outln!("lifecycle: {other:?}"),
        }
    }
}

/// Dumps metrics in the Prometheus text exposition format: live from a
/// running `--metrics-listen` responder (`--addr`), or converted from
/// the last snapshot line of a `--metrics` JSON-lines file (`--from`).
/// Either way the output is validated before it is printed, so a
/// rendering bug fails loudly instead of feeding a scraper garbage.
fn metrics(flags: &Flags) -> CliResult {
    let (addr, from) = (flags.raw("addr"), flags.raw("from"));
    flags.done()?;
    if let Some(addr) = addr {
        let body = scd_obs::fetch(addr)?;
        scd_obs::validate_exposition(&body).map_err(FlagError)?;
        outln!("{}", body.trim_end_matches('\n'));
        return Ok(());
    }
    let path = from.ok_or_else(|| FlagError("missing required flag --from".into()))?;
    let text = std::fs::read_to_string(path)?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| FlagError(format!("{path}: no snapshot lines")))?;
    let fields = scd_obs::parse_flat_json(last).map_err(|e| FlagError(format!("{path}: {e}")))?;
    // The flat snapshot has already collapsed histograms to summary
    // fields, so every sample re-exports as `untyped` — the exposition
    // type for values whose original type is unknown at dump time.
    let mut out = String::new();
    for (name, value) in &fields {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# TYPE {name} untyped");
        if value.is_nan() {
            let _ = writeln!(out, "{name} NaN");
        } else {
            let _ = writeln!(out, "{name} {value}");
        }
    }
    scd_obs::validate_exposition(&out).map_err(FlagError)?;
    outln!("{}", out.trim_end_matches('\n'));
    Ok(())
}

/// One vantage point of the distributed plane: replays a trace through an
/// [`scd_net::IngestNode`], which ingests this node's key shard (plus its
/// ring buddy's, for parity), ships one CRC-guarded sketch frame per
/// interval to the aggregator, and spools unacknowledged frames to disk
/// so a flaky link never loses an interval. Every node replays the same
/// trace; the shard routing inside the node keeps contributions disjoint.
fn ingest_node(flags: &Flags) -> CliResult {
    let path: String = flags.require("trace")?;
    let interval = interval_flag(flags)?;
    let node: u32 = flags.require("node")?;
    let nodes: u32 = flags.require("nodes")?;
    let addr: String = flags.require("connect")?;
    let retries: u32 = flags.get("retries", 8)?;
    let finish_timeout: u64 = flags.get("finish-timeout-secs", 60)?;
    let spool_dir = match flags.raw("spool") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join("scd-spool"),
    };
    let fault = match flags.raw("fault") {
        Some(spec) => Some(scd_traffic::NetFaultPlan::parse(spec).map_err(FlagError)?),
        None => None,
    };
    let setup = Setup::from_flags(flags, INGEST_NODE, 2)?;
    flags.done()?;

    let out = setup.open()?;
    let metrics = out.metrics.as_ref().map(|(registry, _)| scd_net::NetMetrics::register(registry));
    let intervals = read_intervals(&path, interval)?;
    let mut ingest = scd_net::IngestNode::new(scd_net::NodeConfig {
        node,
        nodes,
        sketch: setup.sketch,
        shards: setup.shards,
        addr,
        spool_dir,
        retry: RestartPolicy { max_restarts: retries, ..RestartPolicy::default() },
        fault,
        metrics,
    })?;
    for items in &intervals {
        ingest.push_slice(items)?;
        ingest.end_interval()?;
    }
    let summary = ingest.finish(std::time::Duration::from_secs(finish_timeout))?;
    outln!(
        "node {node}/{nodes}: shipped {} intervals, {} unacknowledged",
        summary.intervals_total,
        summary.unacked.len()
    );
    out.finish()?;
    if !summary.unacked.is_empty() {
        return Err(FlagError(format!(
            "intervals never acknowledged by the aggregator: {:?}",
            summary.unacked
        ))
        .into());
    }
    Ok(())
}

/// The combine-and-detect point of the distributed plane: accepts frames
/// from `--nodes` ingest nodes, COMBINEs each interval's sketches by
/// linearity, and runs the one global detector over the merged stream —
/// recovering a lost node's contribution from ring parity, or flagging
/// the interval as partial when even parity cannot cover the loss.
fn aggregate(flags: &Flags) -> CliResult {
    let listen: String = flags.require("listen")?;
    let nodes: u32 = flags.require("nodes")?;
    let grace_ms: u64 = flags.get("grace-ms", 500)?;
    let node_timeout_ms: u64 = flags.get("node-timeout-ms", 2000)?;
    let timeout_secs: u64 = flags.get("timeout-secs", 60)?;
    let setup = Setup::from_flags(flags, AGGREGATE, 1)?;
    flags.done()?;

    let mut out = setup.open()?;
    let config = scd_net::AggregatorConfig {
        grace: std::time::Duration::from_millis(grace_ms),
        node_deadline: std::time::Duration::from_millis(node_timeout_ms),
        run_timeout: std::time::Duration::from_secs(timeout_secs),
        checkpoint: setup.checkpoint.clone(),
        metrics: out.metrics.as_ref().map(|(registry, _)| scd_net::NetMetrics::register(registry)),
        detect_metrics: out.metrics.as_ref().map(|(_, pipeline)| Arc::clone(pipeline)),
        ..scd_net::AggregatorConfig::new(setup.detector(), nodes)
    };
    let aggregator = scd_net::Aggregator::bind(config, &listen)?;
    eprintln!("aggregating {nodes} nodes on {}", aggregator.local_addr()?);
    let summary = aggregator.run()?;
    for emitted in &summary.intervals {
        print_alarms(emitted.report.interval, &emitted.report.alarms, setup.top);
        if !emitted.missing.is_empty() || !emitted.recovered.is_empty() {
            outln!(
                "  interval {}: PARTIAL missing nodes {:?}, recovered from parity {:?}",
                emitted.interval,
                emitted.missing,
                emitted.recovered
            );
        }
        out.record(emitted.interval, &emitted.report)?;
    }
    outln!(
        "emitted {} intervals ({} resumed from checkpoint, {} detector restarts)",
        summary.intervals.len(),
        summary.resumed_from,
        summary.detector_restarts
    );
    print_lifecycle(&summary.events);
    out.finish()?;
    if summary.timed_out {
        return Err(FlagError("run timed out before every node finished".into()).into());
    }
    Ok(())
}

/// Replays a trace through the sharded ingest engine with an attached
/// multi-resolution archive, then writes the archive to disk for later
/// `scd query` runs. By linearity the N-shard COMBINE reproduces the
/// single-threaded sketches bit for bit, so shard count affects only
/// throughput, never output.
fn archive(flags: &Flags) -> CliResult {
    let path: String = flags.require("trace")?;
    let interval = interval_flag(flags)?;
    let file: String = flags.require("out")?;
    let setup = Setup::from_flags(flags, ARCHIVE, 4)?;
    flags.done()?;

    let intervals = read_intervals(&path, interval)?;
    let archive = setup.archive.expect("ARCHIVE honours the archive flags");
    let mut out = setup.open()?;
    let mut engine = setup.engine(&out, |config| config.with_archive(archive))?;
    outln!(
        "archiving {} intervals of {interval}s across {} shards (budget {} sketches)",
        intervals.len(),
        setup.shards,
        archive.max_sketches
    );
    run_intervals(&mut engine, &intervals, &setup, std::time::Duration::ZERO, &mut out)?;
    let archive = engine.take_archive().expect("engine built with an archive");
    let (from, to) = archive.coverage().unwrap_or((0, 0));
    outln!(
        "archive: intervals [{from}, {to}) in {} epochs, {:.1} KiB -> {file}",
        archive.sketch_count(),
        archive.memory_bytes() as f64 / 1024.0
    );
    scd_archive::wire::write_atomic(&archive, std::path::Path::new(&file))?;
    out.finish()
}

/// One key-history line, shared verbatim between offline `scd query` and
/// online `scd ask` so the two outputs diff cleanly.
fn print_history_point(start: u64, len: u64, total: f64, mean: f64) {
    outln!(
        "  intervals [{:>5}, {:>5})  width {:>4}  total {:+14.0}  mean {:+12.0}/interval",
        start,
        start + len,
        len,
        total,
        mean
    );
}

/// One changed-key line, shared verbatim between `scd query` and
/// `scd ask`.
fn print_change(key: u64, magnitude: f64) {
    outln!("  CHANGE {:<16} net error {:+.0} bytes", format_ipv4(key as u32), magnitude);
}

/// Answers historical questions from an archive written by `scd archive`:
/// top changed keys over a past window, one key's forecast-error history
/// at the archive's decayed resolution (`--key`), or a point estimate of
/// one key's accumulated error over the window (`--estimate`).
fn query(flags: &Flags) -> CliResult {
    let path: String = flags.require("archive")?;
    let from: u64 = flags.require("from")?;
    let to: u64 = flags.require("to")?;
    let threshold: f64 = flags.get("threshold", 0.05)?;
    let top: usize = flags.get("top", 10)?;
    let (estimate, key) = (flags.raw("estimate"), flags.raw("key"));
    flags.done()?;

    let archive = scd_archive::wire::load(std::path::Path::new(&path))?;
    // An archive with no epochs (the detector never warmed up before the
    // dump) has nothing to answer from; that's a fact about the data, not
    // an error.
    let Some((lo, hi)) = archive.coverage() else {
        outln!("no data: archive holds no epochs (model never warmed up)");
        return Ok(());
    };
    if let Some(q) = estimate {
        let key = parse_ip_or_key(q)?;
        let range = archive.range_sketch(from, to)?;
        outln!(
            "estimate over [{}, {}) (asked [{from}, {to}); {} epochs):",
            range.covered.0,
            range.covered.1,
            range.epochs_used
        );
        outln!("  ESTIMATE {q} = {}", range.sketch.estimate(key));
        return Ok(());
    }
    if let Some(q) = key {
        let key = parse_ip_or_key(q)?;
        let history = archive.key_history(key, from, to)?;
        outln!("history of {q} over [{from}, {to}) (archive covers [{lo}, {hi})):");
        for p in &history {
            print_history_point(p.start, p.len, p.total, p.mean);
        }
        return Ok(());
    }
    let report = archive.changed_keys(from, to, threshold, &[])?;
    outln!(
        "changed keys in [{}, {}) (asked [{from}, {to}); {} epochs, T_A = {:.0}):",
        report.covered.0,
        report.covered.1,
        report.epochs_used,
        report.alarm_threshold
    );
    if report.changes.is_empty() {
        outln!("  none above threshold");
    }
    for c in report.changes.iter().take(top) {
        print_change(c.key, c.magnitude);
    }
    Ok(())
}

/// Replays a trace through the sharded engine with the serving plane
/// attached: every interval close publishes a snapshot (slim sketch +
/// replica archive) that a [`scd_serve::QueryServer`] answers live and
/// historical queries from, concurrently with ingest. `--pace-ms` slows
/// replay to leave a query window per interval; `--linger-secs` keeps
/// serving after the trace ends; `--out` additionally dumps the engine's
/// own archive so offline `scd query` can cross-check served answers.
fn serve(flags: &Flags) -> CliResult {
    let path: String = flags.require("trace")?;
    let interval = interval_flag(flags)?;
    let listen: String = flags.require("listen")?;
    let pace_ms: u64 = flags.get("pace-ms", 0)?;
    let linger_secs: u64 = flags.get("linger-secs", 0)?;
    let dump = flags.raw("out");
    // Read-path knobs: background rebuild and the answer cache default
    // on; --sync-rebuild / --no-cache turn them off (used by the soak
    // and CI equivalence checks, and available for debugging).
    let rebuild_mode = if flags.has("sync-rebuild") {
        scd_serve::RebuildMode::Inline
    } else {
        scd_serve::RebuildMode::Background
    };
    let server_options = scd_serve::ServerOptions { cache: !flags.has("no-cache") };
    let setup = Setup::from_flags(flags, ARCHIVE, 1)?;
    flags.done()?;

    let intervals = read_intervals(&path, interval)?;
    let archive = setup.archive.expect("ARCHIVE honours the archive flags");
    let mut out = setup.open()?;
    let serve_metrics =
        out.metrics.as_ref().map(|(registry, _)| scd_serve::ServeMetrics::register(registry));
    let plane =
        scd_serve::ServingPlane::with_options(archive, serve_metrics.clone(), rebuild_mode)?;
    let mut engine = setup.engine(&out, |config| {
        let config =
            config.with_observer(Arc::clone(&plane) as Arc<dyn scd_core::IntervalObserver>);
        match dump {
            Some(_) => config.with_archive(archive),
            None => config,
        }
    })?;

    let server = scd_serve::QueryServer::bind_with(
        &listen,
        Arc::clone(&plane),
        serve_metrics,
        server_options,
    )?;
    eprintln!("serving queries on {}", server.addr());
    outln!(
        "serving {} intervals of {interval}s on {} ({} shards{})",
        intervals.len(),
        server.addr(),
        setup.shards,
        if setup.pipeline { ", pipelined" } else { "" }
    );

    // `--pace-ms` leaves a query window after every interval.
    let pace = std::time::Duration::from_millis(pace_ms);
    run_intervals(&mut engine, &intervals, &setup, pace, &mut out)?;
    if linger_secs > 0 {
        eprintln!("replay done; serving for {linger_secs}s more");
        std::thread::sleep(std::time::Duration::from_secs(linger_secs));
    }
    if let Some(file) = dump {
        let archive = engine.take_archive().expect("engine built with an archive");
        scd_archive::wire::write_atomic(&archive, std::path::Path::new(file))?;
        outln!("archive dumped to {file}");
    }
    drop(server);
    out.finish()
}

/// Asks a running `scd serve` one question over the `SCDQ` protocol and
/// prints the answer in the same body-line formats as offline
/// `scd query`, so the two can be diffed.
fn ask(flags: &Flags) -> CliResult {
    use scd_serve::{QueryClient, Request, Response};
    let addr: String = flags.require("addr")?;
    let top: usize = flags.get("top", 10)?;
    let wait_secs: u64 = flags.get("wait-secs", 0)?;

    let estimate = flags.raw("estimate");
    let history = flags.raw("history");
    let window =
        || -> Result<(u64, u64), FlagError> { Ok((flags.require("from")?, flags.require("to")?)) };
    let request = if let Some(q) = estimate {
        let key = parse_ip_or_key(q)?;
        Request::Estimate { key, from: flags.get("from", 0)?, to: flags.get("to", 0)? }
    } else if flags.has("changed") {
        let (from, to) = window()?;
        Request::ChangedKeys { from, to, threshold: flags.get("threshold", 0.05)? }
    } else if let Some(q) = history {
        let (from, to) = window()?;
        Request::KeyHistory { key: parse_ip_or_key(q)?, from, to }
    } else if flags.has("range") {
        let (from, to) = window()?;
        Request::RangeSketch { from, to }
    } else {
        return Err(FlagError(
            "ask needs one of --estimate KEY | --changed | --history KEY | --range".into(),
        )
        .into());
    };
    flags.done()?;

    // Optionally wait for the server to come up (the CI smoke job starts
    // `scd serve` in the background and races it).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(wait_secs);
    let mut client = loop {
        match QueryClient::connect(&addr) {
            Ok(c) => break c,
            Err(e) if std::time::Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            Err(e) => return Err(e.into()),
        }
    };
    match client.ask(&request)? {
        Response::NoData { as_of, reason } => match as_of {
            Some(as_of) => outln!("no data as of interval {as_of}: {reason}"),
            None => outln!("no data: {reason}"),
        },
        Response::Error { as_of, message } => {
            let at = as_of.map_or(String::new(), |t| format!(" (as of interval {t})"));
            return Err(FlagError(format!("server answered{at}: {message}")).into());
        }
        Response::Estimate { as_of, live, value, error_bound } => {
            let q = estimate.expect("estimate request came from --estimate");
            if live {
                outln!(
                    "live estimate as of interval {as_of} (slim-sketch bound {error_bound:.3e}):"
                );
            } else {
                outln!("estimate as of interval {as_of}:");
            }
            outln!("  ESTIMATE {q} = {value}");
        }
        Response::ChangedKeys {
            as_of,
            requested,
            covered,
            epochs_used,
            alarm_threshold,
            changes,
            ..
        } => {
            outln!(
                "changed keys in [{}, {}) (asked [{}, {}); {} epochs, T_A = {:.0}; as of interval {as_of}):",
                covered.0,
                covered.1,
                requested.0,
                requested.1,
                epochs_used,
                alarm_threshold
            );
            if changes.is_empty() {
                outln!("  none above threshold");
            }
            for &(key, magnitude) in changes.iter().take(top) {
                print_change(key, magnitude);
            }
        }
        Response::KeyHistory { as_of, covered, points } => {
            outln!("history over [{}, {}) as of interval {as_of}:", covered.0, covered.1);
            for &(start, len, total, mean) in &points {
                print_history_point(start, len, total, mean);
            }
        }
        Response::RangeSketch { as_of, covered, epochs_used, sum, error_f2 } => {
            outln!(
                "range [{}, {}) as of interval {as_of}: {} epochs, sum {sum:.0}, F2 {error_f2:.3e}",
                covered.0,
                covered.1,
                epochs_used
            );
        }
    }
    Ok(())
}

/// Accepts dotted-quad IPv4 or a raw integer key.
fn parse_ip_or_key(text: &str) -> Result<u64, FlagError> {
    if let Ok(n) = text.parse::<u64>() {
        return Ok(n);
    }
    let octets: Vec<&str> = text.split('.').collect();
    if octets.len() == 4 {
        let mut v: u64 = 0;
        for o in octets {
            let b: u64 = o.parse().map_err(|_| FlagError(format!("bad IP/key '{text}'")))?;
            if b > 255 {
                return Err(FlagError(format!("bad IP/key '{text}'")));
            }
            v = (v << 8) | b;
        }
        return Ok(v);
    }
    Err(FlagError(format!("bad IP/key '{text}'")))
}
