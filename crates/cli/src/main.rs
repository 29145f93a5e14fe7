//! `scd` — sketch-based change detection from the command line.
//!
//! Run `scd` with no arguments for every command and the flags it
//! honours ([`usage`]); README.md has the same as a source × flag table.
//! A flag a command does not honour is rejected by name, not ignored.
//! Traces are the binary/CSV formats of `scd-traffic::io` (format chosen by
//! file extension). `detect` is the one detection command: one source (a
//! replayed trace, the same trace pushed live through the streaming
//! driver, or the sketches of ingest nodes) and any number of sinks
//! (alarm lines, report and metrics files, a checkpoint, an archive dump,
//! a live query server). It prints one line per alarm; `tune` prints a
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
use scd_archive::{ArchiveConfig, SketchArchive};
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
use scd_serve::{QueryServer, RebuildMode, ServeMetrics, ServerOptions, ServingPlane};
use scd_sketch::{DeltoidConfig, KarySketch, SketchConfig};
use scd_traffic::record::format_ipv4;
use scd_traffic::{
    io, AnomalyEvent, AnomalyInjector, AnomalyKind, ChunkedTraceReader, FlowRecord, KeySpec,
    RouterProfile, TrafficGenerator, ValueSpec,
};
use std::fs::File;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: scd <generate|info|tune|detect> [flags]\n\n\
         generate  --profile large|medium|small --out FILE [--hours H] [--interval S]\n\
         \u{20}          [--scale X] [--seed N] [--dos RANK:START:DUR:MULT[,...]]\n\
         info      --trace FILE\n\
         tune      --trace FILE --interval S --model ma|sma|ewma|nshw|arima0|arima1\n\
         \u{20}          [--paper] [--quiet]\n\
         detect    SOURCE --model SPEC [--h 5] [--k 32768] [--threshold 0.05]\n\
         \u{20}          [--sketch-seed N] [--top N]\n\
         \u{20}          [--strategy twopass|next|sampled:R|reversible] [--shards 1]\n\
         \u{20}          [--pipeline] [--source-threads N] [--stagger LANES]\n\
         \u{20}          [--glr SLOTS] [--glr-threshold 16.0] [--glr-window 8]\n\
         \u{20}          [--report-out FILE] [--metrics FILE] [--metrics-listen ADDR]\n\
         \u{20}          [--checkpoint FILE] [--every 10]\n\
         \u{20}          [--archive-out FILE] [--serve ADDR] [--pace-ms N] [--linger-secs N]\n\
         \u{20}          [--budget 64] [--full-res 8] [--keys 64]\n\
         \u{20}  SOURCE: --trace FILE --interval S\n\
         \u{20}        | --trace FILE --interval S --live [--policy block|drop|sample:R]\n\
         \u{20}          [--capacity 4096] [--chunked]\n\
         \u{20}        | --listen ADDR --nodes N [--grace-ms 500] [--node-timeout-ms 2000]\n\
         \u{20}          [--timeout-secs 60]\n\
         sketch    --trace FILE --interval S --at T --out FILE [--h 5] [--k 32768]\n\
         combine   --out FILE A.sketch B.sketch ... [--query IP]\n\
         metrics   --from metrics.jsonl | --addr HOST:PORT\n\
         ingest-node --trace FILE --interval S --node I --nodes N --connect ADDR\n\
         \u{20}          [--h 5] [--k 32768] [--sketch-seed N] [--shards 2] [--spool DIR]\n\
         \u{20}          [--fault drop:3,dup:5,corrupt:7,trunc:9,delay:2:50] [--retries N]\n\
         \u{20}          [--finish-timeout-secs 60] [--metrics FILE] [--metrics-listen ADDR]\n\
         query     --archive FILE --from T1 --to T2 [--threshold 0.05]\n\
         \u{20}          [--key IP] [--estimate IP] [--top N]\n\
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
        "query" => query(&flags),
        "ask" => ask(&flags),
        "metrics" => metrics(&flags),
        "ingest-node" => ingest_node(&flags),
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

// The shared flag groups. `Driver::honours` works out the ones a detect
// run reads; what a run does not read, `Flags::done` rejects by name.
const MODEL: u32 = 1; // --model --threshold --top: the command runs a detector
const STRATEGY: u32 = 1 << 1; // --strategy
const SHARDS: u32 = 1 << 2; // --shards
const PIPELINE: u32 = 1 << 3; // --pipeline: detection overlaps ingest
const GLR: u32 = 1 << 4; // --glr --glr-threshold --glr-window: slots cut the trace
const ARCHIVE: u32 = 1 << 5; // --archive-out (with --budget --full-res --keys)
const CHECKPOINT: u32 = 1 << 6; // --checkpoint --every
const REPORT: u32 = 1 << 7; // --report-out
const TELEMETRY: u32 = 1 << 8; // --metrics --metrics-listen
const SOURCES: u32 = 1 << 9; // --source-threads: producers route each slice
const SERVE: u32 = 1 << 10; // --serve --pace-ms --linger-secs (and the archive's three)
const DETECT: u32 = (SERVE << 1) - 1;
const INGEST_NODE: u32 = SHARDS | TELEMETRY;

/// Where `scd detect` gets its intervals and what feeds them to the
/// detector: one source, `--trace FILE` (bin by bin through one engine,
/// through staggered lanes or through the reversible sketch), `--trace
/// FILE --live` or `--listen ADDR`.
#[derive(Clone, Copy, PartialEq)]
enum Driver {
    Engine,
    /// `--stagger LANES`.
    Stagger(usize),
    /// `--strategy reversible`.
    Reversible,
    /// `--live`: record by record through the streaming driver.
    Live,
    /// `--listen`: the aggregator COMBINEs the ingest nodes' sketches.
    Listen,
}

impl Driver {
    /// The driver the flags ask for. `--listen` reads no `--trace` and a
    /// trace no `--listen`, so giving both is refused by name.
    fn of(flags: &Flags) -> Result<Driver, FlagError> {
        Ok(if flags.present("listen") {
            Driver::Listen
        } else if flags.has("live") {
            Driver::Live
        } else if flags.raw("strategy") == Some("reversible") {
            Driver::Reversible
        } else {
            match flags.get("stagger", 0)? {
                0 => Driver::Engine,
                1 => return Err(FlagError("--stagger needs at least 2 lanes".into())),
                lanes => {
                    let twopass = matches!(flags.raw("strategy"), None | Some("twopass"));
                    ensure(twopass, || "--stagger requires --strategy twopass".into())?;
                    Driver::Stagger(lanes)
                }
            }
        })
    }

    /// The flag groups a run honours: every one, less what its source or
    /// a sink rules out — the one place a detect flag is refused for
    /// another's sake (README's flag matrix footnotes each) — and the
    /// flags that ruled something out, for the error message.
    fn honours(self, flags: &Flags) -> (u32, Vec<&'static str>) {
        let (live, engine) = (self == Driver::Live, matches!(self, Driver::Engine | Driver::Live));
        let rules = [
            // Key strategy and engine shape are the ingest nodes'; the
            // aggregator builds its detect stage from `AggregatorConfig`, not
            // an engine's config, so GLR, an archive and a server have no hook.
            (self == Driver::Listen, "--listen", !(MODEL | CHECKPOINT | REPORT | TELEMETRY)),
            // The streaming driver waits for each report to stamp its drop
            // counters and cuts intervals by event time only (ROADMAP item 6).
            (live, "--live", PIPELINE | SOURCES | GLR),
            // The reversible (group-testing) sketch runs outside the engine
            // (a `Deltoid`-typed engine would make the shared code branch on
            // its caller — ROADMAP item 10c) and recovers keys with no key
            // stream: it reads none of the flags that shape the engine.
            (self == Driver::Reversible, "--strategy reversible", !MODEL),
            // Staggered lanes (§6: one detector per phase offset over one
            // ingest half) have no single detect stage to hang the rest on.
            (
                matches!(self, Driver::Stagger(_)),
                "--stagger",
                !(MODEL | STRATEGY | SHARDS | SOURCES | REPORT),
            ),
            // The archive is not part of the checkpoint (ROADMAP item 14).
            (engine && flags.present("archive-out"), "--archive-out", CHECKPOINT),
            (engine && flags.present("serve"), "--serve", CHECKPOINT),
        ];
        let (mut honours, mut by) = (DETECT, Vec::new());
        for (on, trigger, groups) in rules {
            if on {
                honours &= !groups;
                by.push(trigger);
            }
        }
        (honours, by)
    }
}

/// Everything the shared flags say about a run, parsed and validated but
/// with nothing created yet — the one place the sketch, the model, the
/// key strategy, the engine's shape and the sinks are read from the
/// command line.
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
    /// Set when `--archive-out` or `--serve` needs one.
    archive: Option<ArchiveConfig>,
    archive_out: Option<String>,
    /// `--serve ADDR`, with its `--pace-ms` query window after every
    /// interval and its `--linger-secs` once the source is done.
    serve: Option<String>,
    pace: Duration,
    linger: Duration,
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
        ensure(shards >= 1, || "--shards must be at least 1".into())?;
        let pipeline = honours(PIPELINE) && flags.has("pipeline");
        let source_threads = if honours(SOURCES) { flags.get("source-threads", 1)? } else { 1 };
        ensure(source_threads >= 1, || "--source-threads must be at least 1".into())?;
        // Sub-interval GLR sequential detection: base slots of
        // interval/slots seconds feed per-slot ±1 projections; provisional
        // alarms print as they fire and are confirmed or retracted by the
        // interval-close reports (which stay bit-identical to a no-GLR run).
        let (mut glr_slots, mut glr) = (1, None);
        if honours(GLR) {
            let slots: usize = flags.get("glr", 0)?;
            let config = GlrConfig {
                max_window: flags.get("glr-window", 8)?,
                ..GlrConfig::new(flags.get("glr-threshold", 16.0)?, seed)
            };
            if slots > 0 {
                let t = config.threshold;
                ensure(slots >= 2, || "--glr needs at least 2 slots per interval".into())?;
                // The sampler draws once per key in first-seen order, so its
                // reports depend on intra-interval feed order; slot-granular
                // ingest would silently change them.
                ensure(!matches!(key_strategy, KeyStrategy::Sampled { .. }), || {
                    "--glr supports --strategy twopass|next (sampled is feed-order sensitive)"
                        .into()
                })?;
                ensure(t > 0.0 && t.is_finite(), || {
                    format!("--glr-threshold {t} must be positive")
                })?;
                ensure(config.max_window >= 1, || "--glr-window must be at least 1 slot".into())?;
                (glr_slots, glr) = (slots, Some(config));
            }
        }
        // A group the run does not honour is never read, so `done` names it.
        let owned = |on: bool, name: &str| on.then(|| flags.raw(name)).flatten().map(String::from);
        let archive_out = owned(honours(ARCHIVE), "archive-out");
        let serve = owned(honours(SERVE), "serve");
        let serving = |name| if serve.is_some() { flags.get(name, 0) } else { Ok(0) };
        let (pace, linger) = (serving("pace-ms")?, serving("linger-secs")?);
        let mut archive = None;
        if archive_out.is_some() || serve.is_some() {
            let (budget, full_res) = (flags.get("budget", 64)?, flags.get("full-res", 8)?);
            let keys_per_epoch = flags.get("keys", 64)?;
            let config =
                ArchiveConfig { max_sketches: budget, full_resolution: full_res, keys_per_epoch };
            let named = |e| FlagError(format!("--budget {budget} --full-res {full_res}: {e}"));
            archive = Some(config.validate().map(|()| config).map_err(named)?);
        }
        let every = if honours(CHECKPOINT) { flags.get("every", 10)? } else { 10 };
        ensure(every >= 1, || "--every must be at least 1 interval".into())?;
        let checkpoint = owned(honours(CHECKPOINT), "checkpoint")
            .map(|file| CheckpointPolicy { path: file.into(), every });
        Ok(Setup {
            sketch,
            detector,
            shards,
            pipeline,
            source_threads,
            glr_slots,
            glr,
            archive,
            archive_out,
            serve,
            pace: Duration::from_millis(pace),
            linger: Duration::from_secs(linger),
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
    /// and the query server — so call it only after [`Flags::done`].
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
            server: None,
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
        if let (Some(addr), Some(archive)) = (&self.serve, self.archive) {
            let metrics =
                out.metrics.as_ref().map(|(registry, _)| ServeMetrics::register(registry));
            let plane =
                ServingPlane::with_options(archive, metrics.clone(), RebuildMode::Background)?;
            let options = ServerOptions::default();
            let server = QueryServer::bind_with(addr, Arc::clone(&plane), metrics, options)?;
            eprintln!("serving queries on {}", server.addr());
            out.server = Some((plane, server));
        }
        Ok(out)
    }

    /// The engine configuration the flags describe, wired to `out`'s
    /// telemetry and query server.
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
        if let (Some(_), Some(archive)) = (&self.archive_out, self.archive) {
            config = config.with_archive(archive);
        }
        if let Some((plane, _)) = &out.server {
            config = config.with_observer(Arc::clone(plane) as Arc<dyn scd_core::IntervalObserver>);
        }
        config
    }

    /// Writes the engine's archive, if it has one, to `--archive-out`.
    fn dump(&self, archive: Option<SketchArchive<KarySketch>>) -> CliResult {
        let (Some(file), Some(archive)) = (&self.archive_out, archive) else { return Ok(()) };
        if self.serve.is_some() {
            outln!("archive dumped to {file}");
        } else {
            let ((from, to), epochs) =
                (archive.coverage().unwrap_or((0, 0)), archive.sketch_count());
            let kib = archive.memory_bytes() as f64 / 1024.0;
            outln!("archive: intervals [{from}, {to}) in {epochs} epochs, {kib:.1} KiB -> {file}");
        }
        Ok(scd_archive::wire::write_atomic(&archive, std::path::Path::new(file))?)
    }

    /// `--linger-secs`: keeps the query server answering once the source
    /// is done.
    fn linger(&self) {
        if !self.linger.is_zero() {
            eprintln!("replay done; serving for {}s more", self.linger.as_secs());
            std::thread::sleep(self.linger);
        }
    }
}

/// Where a run's reports go: alarm lines on stdout; one metrics registry
/// feeding `--metrics FILE` (a JSON line per closed interval) and
/// `--metrics-listen ADDR` (a Prometheus endpoint); `--report-out FILE`
/// (one [`IntervalReport::canonical_line`] per interval, so bit-identical
/// reports make byte-identical files); and the `--serve ADDR` server.
struct Output {
    top: usize,
    metrics: Option<(Arc<Registry>, Arc<PipelineMetrics>)>,
    snapshots: Option<std::io::BufWriter<File>>,
    listener: Option<MetricsListener>,
    sink: Option<std::io::BufWriter<File>>,
    server: Option<(Arc<ServingPlane>, QueryServer)>,
}

impl Output {
    /// Prints one report's alarms, stamps a snapshot line for the interval
    /// it closes and files its digest.
    fn emit(&mut self, report: &IntervalReport) -> CliResult {
        print_report(report, self.top);
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

    /// Flushes both files and stops the query server and the scrape
    /// endpoint.
    fn finish(self) -> CliResult {
        use std::io::Write as _;
        drop(self.server);
        for mut file in self.snapshots.into_iter().chain(self.sink) {
            file.flush()?;
        }
        if let Some(listener) = self.listener {
            listener.stop();
        }
        Ok(())
    }
}

/// The one detection command: one source, every flag that source and its
/// sinks do not rule out ([`Driver::honours`]), every bad value refused
/// before anything is written.
fn detect(flags: &Flags) -> CliResult {
    let driver = Driver::of(flags)?;
    let trace = match driver {
        Driver::Listen => None,
        _ => Some((flags.require::<String>("trace")?, interval_flag(flags)?)),
    };
    let (honours, ruled_out_by) = driver.honours(flags);
    let setup = Setup::from_flags(flags, honours, 1)?;
    let done = || {
        flags.done().map_err(|e| match ruled_out_by.as_slice() {
            [] => e,
            by => FlagError(format!("{e} with {}", by.join(" and "))),
        })
    };
    let Some((path, interval)) = trace else {
        return aggregate(flags, &setup, done);
    };
    if driver == Driver::Live {
        return stream(flags, &path, interval, &setup, done);
    }
    // Bins fed per interval: staggered lanes, GLR slots, or the interval.
    let (cut, parts) = match driver {
        Driver::Stagger(lanes) => ("--stagger", lanes),
        _ => ("--glr", setup.glr_slots),
    };
    ensure(interval % parts as u32 == 0, || {
        format!("--interval {interval} is not divisible by {cut} {parts}")
    })?;
    done()?;

    let detector = setup.detector();
    let bins = read_intervals(&path, interval / parts as u32)?;
    let (n, model, t) = (bins.len().div_ceil(parts), detector.model.describe(), detector.threshold);
    let SketchConfig { h, k, seed } = detector.sketch;
    outln!("detecting over {n} intervals of {interval}s (model {model}, H={h}, K={k}, T={t})");
    if driver == Driver::Reversible {
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
    let mut out = setup.open()?;
    if let Driver::Stagger(lanes) = driver {
        let mut lanes = StaggeredDetector::new(detector, lanes, setup.shards)?;
        for (s, items) in bins.iter().enumerate() {
            let Some((lane, report)) = lanes.process_slot(items, setup.source_threads)? else {
                continue;
            };
            for a in &report.alarms {
                let (ip, error) = (format_ipv4(a.key as u32), a.estimated_error);
                outln!("slot {s}: lane {lane} ALARM {ip:<16} error {error:+.0} bytes");
            }
            out.record(s as u64, &report)?;
        }
        return out.finish();
    }
    replay(&bins, &setup, out)
}

/// The trace source's engine: one whatever the flags — a single inline
/// shard is the single-threaded detector, bit for bit (linearity;
/// `update_batch` is `update`), and every other shape (shards, a detect
/// thread overlapped with ingest, producer threads on the routing hop,
/// GLR slots) is the same reports from the same loop. It pushes each bin,
/// closes a GLR slot after it, closes the interval after every
/// `glr_slots` bins (one, when GLR is off: a bin is then an interval and
/// the slot calls are no-ops), emits each report as it arrives — one
/// interval late on a pipelined engine — and drains the last one. An
/// engine resumed from `--checkpoint` starts at the bin it left off at.
fn replay(bins: &[Vec<(u64, f64)>], setup: &Setup, mut out: Output) -> CliResult {
    let mut config = setup.engine_config(&out);
    let (events_tx, events) = std::sync::mpsc::sync_channel(64);
    if let Some(supervision) = &mut config.supervision {
        supervision.events = Some(events_tx);
    }
    let mut engine = ShardedEngine::new(config)?;
    let (slots, mut lifecycle) = (setup.glr_slots, Vec::new());
    let resumed = engine.resumed_interval().unwrap_or(0) as usize;
    for t in resumed..bins.len().div_ceil(slots) {
        for s in 0..slots {
            let items = bins.get(t * slots + s).map_or(&[][..], Vec::as_slice);
            engine.push_slice_parallel(items, setup.source_threads)?;
            engine.end_glr_slot();
            engine.take_glr_events().iter().for_each(print_glr_event);
        }
        if let Some(report) = engine.end_interval_overlapped()? {
            out.emit(&report)?;
        }
        engine.take_glr_events().iter().for_each(print_glr_event);
        lifecycle.extend(events.try_iter());
        std::thread::sleep(setup.pace); // `--pace-ms`: a query window; none at 0
    }
    if let Some(report) = engine.drain()? {
        out.emit(&report)?;
    }
    engine.take_glr_events().iter().for_each(print_glr_event);
    lifecycle.extend(events.try_iter());
    setup.linger();
    setup.dump(engine.take_archive())?;
    print_lifecycle(&lifecycle);
    out.finish()
}

/// The `--live` source: the trace pushed record by record through the
/// supervised streaming driver, under the `--policy` for overload, with
/// intervals cut by event time. Lifecycle events and drop counters are
/// reported at the end.
fn stream(
    flags: &Flags,
    path: &str,
    interval: u32,
    setup: &Setup,
    done: impl Fn() -> Result<(), FlagError>,
) -> CliResult {
    let capacity: usize = flags.get("capacity", 4096)?;
    ensure(capacity >= 1, || "--capacity must be at least 1".into())?;
    let overload = match flags.raw("policy").unwrap_or("block") {
        "block" => OverloadPolicy::Block,
        "drop" => OverloadPolicy::DropNewest,
        s if s.starts_with("sample:") => {
            let rate: f64 = s["sample:".len()..]
                .parse()
                .map_err(|_| FlagError(format!("bad sample rate in '{s}'")))?;
            ensure(rate > 0.0 && rate <= 1.0, || format!("sample rate {rate} not in (0, 1]"))?;
            OverloadPolicy::Sample { rate, seed: setup.sketch.seed ^ 0xFA11 }
        }
        other => return Err(FlagError(format!("unknown policy '{other}'")).into()),
    };
    // --chunked streams a binary trace in fixed-size chunks (constant
    // memory, no global sort): enough for interval-ordered traces, such as
    // generated ones; arbitrary traces take the default sorted path.
    let chunked = flags.has("chunked");
    ensure(!chunked || !path.ends_with(".csv"), || "--chunked requires a binary trace".into())?;
    done()?;
    let (mut reader, mut batch) = if chunked {
        (Some(ChunkedTraceReader::new(File::open(path)?)?), Vec::new())
    } else {
        let mut records = read_trace(path)?;
        records.sort_by_key(|r| r.timestamp_ms);
        (None, records)
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
    let (mut reports, mut events, mut n_records) = (Vec::new(), Vec::new(), 0usize);
    // One batch: the sorted trace; chunked, one chunk at a time.
    'trace: loop {
        if let Some(reader) = &mut reader {
            batch.clear();
            if reader.next_chunk(READ_CHUNK_RECORDS, &mut batch)? == 0 {
                break;
            }
        }
        for &record in &batch {
            n_records += 1;
            if !handle.send(record) {
                break 'trace; // detector gave up; shutdown() reports why
            }
            // Drain as we go: the report channel is bounded, so collecting
            // only at shutdown would deadlock once both channels fill.
            for report in handle.reports().try_iter() {
                out.record(report.interval as u64, &report)?;
                reports.push(report);
                std::thread::sleep(setup.pace);
            }
            events.extend(handle.events().try_iter());
        }
        if reader.is_none() {
            break;
        }
    }
    let (tail, tail_events, processed, archive) =
        handle.shutdown().map_err(|e| FlagError(format!("stream failed: {e}")))?;
    for report in tail {
        out.record(report.interval as u64, &report)?;
        reports.push(report);
    }
    events.extend(tail_events);

    outln!("streamed {n_records} records; detector processed {processed}");
    reports.iter().for_each(|report| print_report(report, setup.top));
    print_lifecycle(&events);
    setup.linger();
    setup.dump(archive)?;
    out.finish()
}

/// The `--listen` source, the combine-and-detect point of the distributed
/// plane: accepts frames from `--nodes` ingest nodes, COMBINEs each
/// interval's sketches by linearity, and runs the one global detector
/// over the merged stream — recovering a lost node's contribution from
/// ring parity, or flagging the interval as partial when even parity
/// cannot cover the loss.
fn aggregate(flags: &Flags, setup: &Setup, done: impl Fn() -> Result<(), FlagError>) -> CliResult {
    let (listen, nodes): (String, u32) = (flags.require("listen")?, flags.require("nodes")?);
    ensure(nodes >= 1, || "--nodes must be at least 1".into())?;
    let ms = |name, default| flags.get(name, default).map(Duration::from_millis);
    let (grace, node_deadline) = (ms("grace-ms", 500)?, ms("node-timeout-ms", 2000)?);
    let run_timeout = Duration::from_secs(flags.get("timeout-secs", 60)?);
    done()?;

    let mut out = setup.open()?;
    let config = scd_net::AggregatorConfig {
        grace,
        node_deadline,
        run_timeout,
        checkpoint: setup.checkpoint.clone(),
        metrics: out.metrics.as_ref().map(|(registry, _)| scd_net::NetMetrics::register(registry)),
        detect_metrics: out.metrics.as_ref().map(|(_, pipeline)| Arc::clone(pipeline)),
        ..scd_net::AggregatorConfig::new(setup.detector(), nodes)
    };
    let aggregator = scd_net::Aggregator::bind(config, &listen)?;
    eprintln!("aggregating {nodes} nodes on {}", aggregator.local_addr()?);
    let summary = aggregator.run()?;
    for emitted in &summary.intervals {
        print_report(&emitted.report, setup.top);
        let (t, lost, parity) = (emitted.interval, &emitted.missing, &emitted.recovered);
        if !lost.is_empty() || !parity.is_empty() {
            outln!(
                "  interval {t}: PARTIAL missing nodes {lost:?}, recovered from parity {parity:?}"
            );
        }
        out.record(emitted.interval, &emitted.report)?;
    }
    let (n, resumed, restarts) =
        (summary.intervals.len(), summary.resumed_from, summary.detector_restarts);
    outln!(
        "emitted {n} intervals ({resumed} resumed from checkpoint, {restarts} detector restarts)"
    );
    print_lifecycle(&summary.events);
    out.finish()?;
    if summary.timed_out {
        return Err(FlagError("run timed out before every node finished".into()).into());
    }
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
            let bad = || FlagError(format!("--dos expects RANK:START:DUR:MULT, got '{part}'"));
            let fields: Vec<&str> = part.split(':').collect();
            let [rank, start, duration, mult] = fields[..] else { return Err(bad().into()) };
            let int = |field: &str| field.parse::<usize>().map_err(|_| bad());
            let (rank, start, duration) = (int(rank)?, int(start)?, int(duration)?);
            let mult: f64 = mult.parse().map_err(|_| bad())?;
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
    let (trace, _) = injector.labeled_trace(&mut generator, n_intervals);
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

/// One report's stdout lines: its top alarms and, when the streaming
/// driver shed or sampled records in its interval, the drop counters.
fn print_report(report: &IntervalReport, top: usize) {
    print_alarms(report.interval, &report.alarms, top);
    let (t, drops) = (report.interval, report.drops);
    if drops.lost() > 0 || drops.sampled_in > 0 {
        let (dropped, shed, sampled_in) = (drops.dropped, drops.shed, drops.sampled_in);
        outln!("  interval {t}: dropped {dropped} shed {shed} sampled-in {sampled_in}");
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
        // `{value}` prints a NaN as the exposition's `NaN`.
        let _ = writeln!(out, "# TYPE {name} untyped\n{name} {value}");
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
    ensure(node < nodes, || format!("--node {node} must be below --nodes {nodes}"))?;
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

/// The top changed-key lines, shared verbatim between `scd query` and
/// `scd ask`.
fn print_changes(changes: impl ExactSizeIterator<Item = (u64, f64)>, top: usize) {
    if changes.len() == 0 {
        outln!("  none above threshold");
    }
    for (key, magnitude) in changes.take(top) {
        outln!("  CHANGE {:<16} net error {:+.0} bytes", format_ipv4(key as u32), magnitude);
    }
}

/// Answers historical questions from an archive `scd detect --archive-out`
/// wrote:
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
    print_changes(report.changes.iter().map(|c| (c.key, c.magnitude)), top);
    Ok(())
}

/// Asks a running `scd detect --serve` one question over the `SCDQ` protocol and
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
    // `scd detect --serve` in the background and races it).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(wait_secs);
    let mut client = loop {
        match QueryClient::connect(&addr) {
            Ok(c) => break c,
            Err(_) if std::time::Instant::now() < deadline => {
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
            print_changes(changes.into_iter(), top);
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
