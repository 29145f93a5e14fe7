//! The ingest half: shard workers, the batch recycle pool and the
//! interval-close barrier — everything between a `(key, value)` update
//! and the interval's merged observed sketch `So(t)` plus its key log.
//!
//! [`ShardedIngest`] is a type of its own because that pair is the
//! paper's one hand-off (§2.2): an engine gives it to its detect stage,
//! an ingest node of the distributed plane puts it on the wire, and
//! neither needs to know which.
//!
//! With two or more shards there is one worker thread per shard, with one
//! work queue and one result queue each; the batch recycle pool is shared.
//! A worker's statistics travel with its interval table (the sketch and
//! the lines its folds wrote, `table.rs`), and the cleared table of the
//! interval before travels back with the `Flush` that asks for the next
//! one.
//!
//! One shard has nothing to fan out: a worker would overlap only the copy
//! of records into its batch, and the close would then wait for it. So a
//! one-shard half has no worker. The pushing thread folds each batch into
//! the shard table itself, and the close hands that table over in exchange
//! for the cleared spare. Batches, their order and the key log are the
//! same either way, so every table is bit-identical.

use super::route::{Gate, Producer};
use super::table::{merge_shards, ShardTable};
use super::EngineError;
use crate::telemetry::{PipelineMetrics, ShardStats};
use scd_hash::{HashRows, MixBuildHasher};
use scd_obs::Stopwatch;
use scd_sketch::{BatchScratch, KarySketch, SketchConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Updates per batch message on the pushing thread: large enough to
/// amortize the channel, small enough to bound a worker's lag at the close.
/// Routing a batch's worth of records adds at most one update each, so a
/// batch never outgrows `2 * BATCH`, the capacity every batch `Vec` starts
/// with. A parallel producer ships what it routed as one message.
const BATCH: usize = 512;

/// Batches in flight per shard. A full queue back-pressures the pushing
/// thread (a blocking send), never drops.
const QUEUE_CAPACITY: usize = 8;

enum WorkerMsg {
    Batch(Vec<(u64, f64)>),
    /// Interval boundary: ship the accumulated table and start the next
    /// interval on the cleared one handed back here (a fresh one when none
    /// has come back yet).
    Flush(Option<ShardTable>),
}

/// A worker's answer to `Flush`: its interval table and, when telemetry
/// is enabled, what it folded into it.
struct Flushed {
    table: ShardTable,
    stats: Option<ShardStats>,
}

struct Worker {
    /// `Option` so `Drop` can hang up (dropping the sender ends the
    /// worker's receive loop) before joining.
    tx: Option<SyncSender<WorkerMsg>>,
    results: Receiver<Flushed>,
    /// Messages sent and not yet received — the queue depth a `SyncSender`
    /// cannot report (present only when telemetry is enabled).
    depth: Option<Arc<AtomicUsize>>,
    thread: Option<JoinHandle<()>>,
}

/// Folds one batch into a shard table — on a worker, or on the pushing
/// thread of a one-shard half — timing it when `stats` is kept.
fn fold(
    table: &mut ShardTable,
    scratch: &mut BatchScratch,
    stats: Option<&mut ShardStats>,
    batch: &[(u64, f64)],
) {
    match stats {
        Some(st) => {
            let sw = Stopwatch::start();
            table.update_batch(batch, scratch);
            st.fold_ns.record(sw.elapsed_ns());
            st.batches += 1;
            st.updates += batch.len() as u64;
        }
        None => table.update_batch(batch, scratch),
    }
}

/// The one shard of a one-shard half, folded on the pushing thread.
struct InlineShard {
    table: ShardTable,
    scratch: BatchScratch,
    /// What was folded this interval (present only when telemetry is
    /// enabled).
    stats: Option<ShardStats>,
}

impl InlineShard {
    fn fold(&mut self, batch: &[(u64, f64)]) {
        fold(&mut self.table, &mut self.scratch, self.stats.as_mut(), batch);
    }

    /// The close: the shard table leaves in `bufs`, and the cleared spare
    /// `bufs` held takes its place (a fresh table before one comes back).
    fn hand_over(&mut self, bufs: &mut Vec<ShardTable>, metrics: Option<&PipelineMetrics>) {
        let spare = bufs.pop().unwrap_or_else(|| self.table.zero_like());
        bufs.clear();
        bufs.push(std::mem::replace(&mut self.table, spare));
        if let (Some(st), Some(m)) = (self.stats.as_mut(), metrics) {
            std::mem::take(st).merge_into(&m.engine);
        }
    }
}

/// The worker threads of a half with two or more shards.
struct Pool {
    workers: Vec<Worker>,
    /// Spent batch `Vec`s coming back from workers for reuse.
    recycle: Receiver<Vec<(u64, f64)>>,
}

impl Pool {
    /// One worker per shard, for the ingest half's lifetime — interval
    /// boundaries reuse them; nothing is spawned per interval.
    fn spawn(rows: &Arc<HashRows>, shards: usize, telemetry: bool) -> Pool {
        // Recycle pool: big enough to hold every batch that can be in
        // flight at once (per shard: the queue plus the one the worker is
        // folding), so a worker's `try_send` only ever drops a Vec in
        // degenerate races, never in steady state. The half holds only the
        // Receiver; worker clones keep the pool alive, and it drains with
        // them on shutdown.
        let (recycle_tx, recycle) = sync_channel(shards * (QUEUE_CAPACITY + 1));
        let workers = (0..shards)
            .map(|shard| {
                let (tx, rx) = sync_channel::<WorkerMsg>(QUEUE_CAPACITY);
                let (result_tx, results) = sync_channel(1);
                let depth = telemetry.then(|| Arc::new(AtomicUsize::new(0)));
                let received = depth.clone();
                let rows = Arc::clone(rows);
                let recycle = recycle_tx.clone();
                let thread = std::thread::Builder::new()
                    .name(format!("scd-shard-{shard}"))
                    .spawn(move || {
                        let mut table = ShardTable::new(rows);
                        let mut scratch = BatchScratch::new();
                        // Private accumulator: no atomics, no sharing until
                        // the interval flush.
                        let mut stats = received.is_some().then(ShardStats::default);
                        // Ends when the half hangs up: drain complete, exit.
                        while let Ok(msg) = rx.recv() {
                            if let Some(depth) = &received {
                                depth.fetch_sub(1, Ordering::Relaxed);
                            }
                            match msg {
                                WorkerMsg::Batch(mut batch) => {
                                    fold(&mut table, &mut scratch, stats.as_mut(), &batch);
                                    batch.clear();
                                    // Pool full (or half gone): drop the Vec.
                                    let _ = recycle.try_send(batch);
                                }
                                WorkerMsg::Flush(spare) => {
                                    let fresh = spare.unwrap_or_else(|| table.zero_like());
                                    let flushed = Flushed {
                                        table: std::mem::replace(&mut table, fresh),
                                        stats: stats.as_mut().map(std::mem::take),
                                    };
                                    if result_tx.send(flushed).is_err() {
                                        break;
                                    }
                                }
                            }
                        }
                    })
                    .expect("spawn shard worker");
                Worker { tx: Some(tx), results, depth, thread: Some(thread) }
            })
            .collect();
        Pool { workers, recycle }
    }

    fn send(&self, shard: usize, msg: WorkerMsg) -> Result<(), EngineError> {
        let worker = &self.workers[shard];
        if let Some(depth) = &worker.depth {
            depth.fetch_add(1, Ordering::Relaxed);
        }
        let tx = worker.tx.as_ref().expect("sender live until drop");
        tx.send(msg).map_err(|_| EngineError::WorkerLost { shard })
    }

    /// Ships `pending` to `shard`'s worker, leaving in its place a batch
    /// `Vec` recycled from a worker when one is waiting, freshly allocated
    /// otherwise (start-up and after drops).
    fn ship(
        &self,
        shard: usize,
        pending: &mut Vec<(u64, f64)>,
        metrics: Option<&PipelineMetrics>,
    ) -> Result<(), EngineError> {
        let replacement = match self.recycle.try_recv() {
            // Cleared by the worker; len 0, capacity at least 2 × BATCH.
            Ok(spent) => {
                if let Some(m) = metrics {
                    m.engine.recycle_hits_total.inc();
                }
                spent
            }
            Err(_) => {
                if let Some(m) = metrics {
                    m.engine.recycle_misses_total.inc();
                }
                Vec::with_capacity(2 * BATCH)
            }
        };
        self.send(shard, WorkerMsg::Batch(std::mem::replace(pending, replacement)))
    }

    /// Ships each shard's pending batch and, right behind it, the request
    /// for its interval table, handing each worker its cleared table from
    /// `bufs` (in shard order; a worker whose spare is missing starts on a
    /// fresh one) — a worker finds the request queued when the batch is
    /// folded, instead of sleeping in between. Then collects the interval
    /// tables into `bufs` in shard order. This is the COMBINE barrier,
    /// so it doubles as the telemetry aggregation point: each worker's
    /// [`ShardStats`] arrive with its table.
    fn harvest(
        &self,
        pending: &mut [Vec<(u64, f64)>],
        bufs: &mut Vec<ShardTable>,
        metrics: Option<&PipelineMetrics>,
    ) -> Result<(), EngineError> {
        let mut spares = bufs.drain(..);
        let mut deepest = 0usize;
        for (shard, worker) in self.workers.iter().enumerate() {
            if !pending[shard].is_empty() {
                self.ship(shard, &mut pending[shard], metrics)?;
            }
            if let Some(depth) = &worker.depth {
                // Sampled right before Flush lands: how far the slowest
                // shard is lagging the interval boundary.
                deepest = deepest.max(depth.load(Ordering::Relaxed));
            }
            self.send(shard, WorkerMsg::Flush(spares.next()))?;
        }
        drop(spares);
        if let Some(m) = metrics {
            m.engine.queue_depth.set(deepest as f64);
        }
        for (shard, worker) in self.workers.iter().enumerate() {
            let flushed = worker.results.recv().map_err(|_| EngineError::WorkerLost { shard })?;
            if let (Some(st), Some(m)) = (flushed.stats, metrics) {
                st.merge_into(&m.engine);
            }
            bufs.push(flushed.table);
        }
        Ok(())
    }

    /// Hangs up every queue first (lets all workers start draining), then
    /// joins. Idempotent.
    fn shutdown(&mut self) {
        for worker in &mut self.workers {
            worker.tx.take();
        }
        for worker in &mut self.workers {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Where an ingest half's batches are folded.
enum Folding {
    /// One shard: on the pushing thread. Boxed: the telemetry histogram
    /// rides inline and would dwarf the `Workers` variant.
    Inline(Box<InlineShard>),
    /// Two or more shards: on one worker thread each.
    Workers(Pool),
}

impl Folding {
    /// Folds `batch` into `shard`'s table: in place for one shard, leaving
    /// `batch` empty with its capacity, otherwise by shipping it to the
    /// shard's worker, leaving a recycled `Vec` in its place.
    fn take(
        &mut self,
        shard: usize,
        batch: &mut Vec<(u64, f64)>,
        metrics: Option<&PipelineMetrics>,
    ) -> Result<(), EngineError> {
        match self {
            Folding::Inline(one) => {
                one.fold(batch);
                batch.clear();
                Ok(())
            }
            Folding::Workers(pool) => pool.ship(shard, batch, metrics),
        }
    }
}

/// The ingest half of a [`ShardedEngine`](super::ShardedEngine), usable on
/// its own: feed updates with [`push_slice`](Self::push_slice), close each
/// interval with [`end_interval_sketch`](Self::end_interval_sketch), and
/// get back the merged observed sketch and the interval's distinct keys.
/// It owns no detector and never emits a report.
pub struct ShardedIngest {
    pub(super) shards: usize,
    rows: Arc<HashRows>,
    folding: Folding,
    /// Per-shard batch under construction, always shorter than `BATCH`
    /// between calls.
    pending: Vec<Vec<(u64, f64)>>,
    /// The routing producers, kept with their caches, batches and miss
    /// lists across calls and intervals: [`push_slice`](Self::push_slice)
    /// routes through the first, and
    /// [`push_slice_parallel`](Self::push_slice_parallel) lends one to each
    /// of its threads.
    producers: Vec<Producer>,
    /// Whether this interval's values still let the producers combine.
    gate: Gate,
    /// The interval's key log: every cache miss, in stream order.
    keys: Vec<u64>,
    /// The last closed interval's key log, kept for reuse.
    closed_keys: Vec<u64>,
    /// What [`end_interval_sketch`](Self::end_interval_sketch) deduplicates
    /// the key log with — cleared each close, never freed.
    seen: HashSet<u64, MixBuildHasher>,
    pub(super) records_total: u64,
    /// Telemetry sink; `None` keeps every metric branch off the hot path.
    metrics: Option<Arc<PipelineMetrics>>,
    /// The shard tables of the last merge on this side, cleared: each
    /// goes back to its shard at the next close.
    shard_bufs: Vec<ShardTable>,
    /// The merge destination of [`end_interval_sketch`](Self::end_interval_sketch),
    /// built at its first call (an engine's detect thread keeps its own).
    merged: Option<ShardTable>,
}

impl ShardedIngest {
    /// An ingest half over `sketch`'s hash family with `shards` shards.
    /// One shard folds on the pushing thread; more spawn a worker each.
    ///
    /// # Errors
    /// [`EngineError::BadConfig`] for zero shards.
    pub fn new(sketch: SketchConfig, shards: usize) -> Result<Self, EngineError> {
        let rows = HashRows::shared(sketch.h, sketch.k, sketch.seed);
        ShardedIngest::build(rows, shards, None)
    }

    /// Spawns the worker pool — none for one shard. Workers live for the
    /// ingest half's lifetime.
    pub(super) fn build(
        rows: Arc<HashRows>,
        shards: usize,
        metrics: Option<Arc<PipelineMetrics>>,
    ) -> Result<Self, EngineError> {
        if shards == 0 {
            return Err(EngineError::BadConfig("shards must be at least 1".into()));
        }
        let folding = if shards == 1 {
            Folding::Inline(Box::new(InlineShard {
                table: ShardTable::new(Arc::clone(&rows)),
                scratch: BatchScratch::new(),
                stats: metrics.is_some().then(ShardStats::default),
            }))
        } else {
            Folding::Workers(Pool::spawn(&rows, shards, metrics.is_some()))
        };
        Ok(ShardedIngest {
            shards,
            rows,
            folding,
            pending: (0..shards).map(|_| Vec::with_capacity(2 * BATCH)).collect(),
            producers: vec![Producer::new(shards)],
            gate: Gate::new(),
            keys: Vec::new(),
            closed_keys: Vec::new(),
            seen: HashSet::with_hasher(MixBuildHasher),
            records_total: 0,
            metrics,
            shard_bufs: Vec::with_capacity(shards),
            merged: None,
        })
    }

    /// The hash family every sketch this ingest half hands out is over.
    pub fn rows(&self) -> &Arc<HashRows> {
        &self.rows
    }

    /// Total records pushed over the ingest half's lifetime.
    pub fn records_total(&self) -> u64 {
        self.records_total
    }

    /// Counts `records` pushed, here and in the engine's telemetry.
    fn count(&mut self, records: usize) {
        self.records_total += records as u64;
        if let Some(m) = &self.metrics {
            m.engine.records_total.add(records as u64);
        }
    }

    /// Folds `pending[shard]` (see [`Folding::take`]).
    fn flush_shard(&mut self, shard: usize) -> Result<(), EngineError> {
        self.folding.take(shard, &mut self.pending[shard], self.metrics.as_deref())
    }

    /// Folds producer `p`'s non-empty batches, in shard order (see
    /// [`Folding::take`]).
    fn drain(&mut self, p: usize) -> Result<(), EngineError> {
        let metrics = self.metrics.as_deref();
        for (shard, batch) in self.producers[p].out.iter_mut().enumerate() {
            if !batch.is_empty() {
                self.folding.take(shard, batch, metrics)?;
            }
        }
        Ok(())
    }

    /// Empties every producer's cache into the shard batches (see
    /// `Combiner::flush`). What the caches hold is earlier in the stream
    /// than anything not yet routed.
    fn flush_producers(&mut self, combining: bool) -> Result<(), EngineError> {
        for p in 0..self.producers.len() {
            let producer = &mut self.producers[p];
            producer.combiner.flush(combining, &mut producer.out);
            self.drain(p)?;
        }
        Ok(())
    }

    /// Runs `items` through the exactness gate. When they close it, the
    /// caches are flushed first, so `items` and the rest of the interval
    /// fold per record after everything combined before them.
    fn admit(&mut self, items: &[(u64, f64)]) -> Result<bool, EngineError> {
        if self.gate.combining() && !self.gate.admit(items) {
            self.flush_producers(true)?;
        }
        Ok(self.gate.combining())
    }

    /// Routes a slice of updates to their shards, in order — the one way
    /// into an ingest half. Where a slice ends does not matter: any split
    /// of the same stream gives bit-identical tables and a key log that
    /// deduplicates to the same first-seen list. Blocks (backpressure)
    /// while a shard's queue is full — ingest never silently drops.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if a shard's worker has died.
    pub fn push_slice(&mut self, items: &[(u64, f64)]) -> Result<(), EngineError> {
        self.count(items.len());
        let combining = self.admit(items)?;
        // A batch's worth of records at a time, so no batch outgrows
        // `2 * BATCH` and the workers fold while this thread routes.
        for block in items.chunks(BATCH) {
            let first = &mut self.producers[0].combiner;
            first.route(block, combining, &mut self.pending, &mut self.keys);
            for shard in 0..self.shards {
                if self.pending[shard].len() >= BATCH {
                    self.flush_shard(shard)?;
                }
            }
        }
        Ok(())
    }

    /// Multi-producer bulk push: `producers` threads route contiguous
    /// chunks of `items` through their own caches into their own per-shard
    /// batches in parallel, then the batches are folded in producer order —
    /// shipped through the worker channels, or folded on this thread for
    /// one shard. This parallelizes the combine-and-route hop that
    /// [`push_slice`](Self::push_slice) runs single-threaded — the hop the
    /// interval ledger times as `engine.push_ns_per_record`.
    ///
    /// Tables are **bit-identical** to `push_slice`'s for any `f64` values,
    /// not merely for integer-valued cells. While the exactness gate holds
    /// (every value this interval an integer, Σ|v| below 2⁵³) every cell is
    /// an exact integer sum, whatever the grouping. The first slice that
    /// breaks it flushes every cache, and from there chunks are contiguous
    /// and folded in chunk order, so every shard table folds exactly the
    /// per-shard subsequence it would have seen from the sequential call.
    /// The producers' miss lists are appended in chunk order, so the key
    /// log deduplicates to the same first-seen list. Falls back to
    /// `push_slice` when the slice is too small to amortize thread spawns.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if a shard's worker has died.
    pub fn push_slice_parallel(
        &mut self,
        items: &[(u64, f64)],
        producers: usize,
    ) -> Result<(), EngineError> {
        let producers = producers.max(1);
        if producers == 1 || items.len() < producers * BATCH {
            return self.push_slice(items);
        }
        self.count(items.len());
        let combining = self.admit(items)?;
        // Anything still pending is earlier in the stream than `items`:
        // flush it first so per-shard fold order stays the sequential one.
        for shard in 0..self.shards {
            if !self.pending[shard].is_empty() {
                self.flush_shard(shard)?;
            }
        }
        while self.producers.len() < producers {
            self.producers.push(Producer::new(self.shards));
        }
        let chunk = items.len().div_ceil(producers);
        // Each producer routes one contiguous range of the stream; the
        // first on this thread.
        let route = |p: &mut Producer, part| {
            p.combiner.route(part, combining, &mut p.out, &mut p.misses);
        };
        let mut lent = self.producers.iter_mut().zip(items.chunks(chunk));
        let (first, head) = lent.next().expect("a non-empty slice");
        std::thread::scope(|scope| {
            for (producer, part) in lent {
                scope.spawn(move || route(producer, part));
            }
            route(first, head);
        });
        for p in 0..producers {
            let misses = &mut self.producers[p].misses;
            self.keys.extend_from_slice(misses);
            misses.clear();
            self.drain(p)?;
        }
        Ok(())
    }

    /// The interval-close barrier: flushes every producer's cache, folds
    /// every shard's pending batch and hands each shard its cleared table
    /// from `bufs`, collects the per-shard tables in shard order into
    /// `bufs`, and trades the interval's key log for the cleared `keys`.
    pub(super) fn close(
        &mut self,
        bufs: &mut Vec<ShardTable>,
        keys: &mut Vec<u64>,
    ) -> Result<(), EngineError> {
        let sw = Stopwatch::start();
        self.flush_producers(self.gate.combining())?;
        self.gate.reset();
        let metrics = self.metrics.as_deref();
        match &mut self.folding {
            Folding::Inline(one) => {
                let pending = &mut self.pending[0];
                if !pending.is_empty() {
                    one.fold(pending);
                    pending.clear();
                }
                one.hand_over(bufs, metrics);
            }
            Folding::Workers(pool) => pool.harvest(&mut self.pending, bufs, metrics)?,
        }
        if let Some(m) = metrics {
            m.engine.barrier_ns.record(sw.elapsed_ns());
        }
        keys.clear();
        std::mem::swap(&mut self.keys, keys);
        Ok(())
    }

    /// The barrier and the merge of the per-shard tables into a table this
    /// ingest half keeps: the interval's merged observed sketch and its key
    /// log (the cache misses in stream order, which deduplicate to its
    /// distinct keys in first-seen order), both valid until the next close.
    /// The merge touches only the lines this interval and the one before
    /// wrote while every table is sparse, and sweeps the whole table
    /// otherwise; the shard tables, the merge destination and the key log
    /// are kept for the next close, so steady state allocates nothing.
    /// With one shard, the destination and the shard table trade places:
    /// no copy.
    pub(super) fn end_interval_merged(&mut self) -> Result<(&KarySketch, &[u64]), EngineError> {
        let mut bufs = std::mem::take(&mut self.shard_bufs);
        let mut keys = std::mem::take(&mut self.closed_keys);
        self.close(&mut bufs, &mut keys)?;
        let merged = self.merged.get_or_insert_with(|| ShardTable::new(Arc::clone(&self.rows)));
        merge_shards(merged, &mut bufs, self.metrics.as_deref());
        self.shard_bufs = bufs;
        self.closed_keys = keys;
        Ok((merged.sketch(), &self.closed_keys))
    }

    /// Closes the interval on this thread (see `end_interval_merged`) and
    /// hands back the merged observed sketch with the interval's distinct
    /// keys in first-seen order — the pair a detect stage consumes, whether
    /// it sits in this process or behind an aggregator that COMBINEs
    /// several nodes' sketches first. The sketch stays valid until the next
    /// close.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if a shard worker died mid-interval.
    pub fn end_interval_sketch(&mut self) -> Result<(&KarySketch, Vec<u64>), EngineError> {
        self.end_interval_merged()?;
        let seen = &mut self.seen;
        seen.clear();
        let keys = self.closed_keys.iter().copied().filter(|&key| seen.insert(key)).collect();
        let merged = self.merged.as_ref().expect("merged at this close");
        Ok((merged.sketch(), keys))
    }

    /// Hangs up every worker queue first (lets all workers start
    /// draining), then joins. Idempotent; nothing to do for one shard.
    pub(super) fn shutdown(&mut self) {
        if let Folding::Workers(pool) = &mut self.folding {
            pool.shutdown();
        }
    }
}

impl Drop for ShardedIngest {
    fn drop(&mut self) {
        self.shutdown();
    }
}
