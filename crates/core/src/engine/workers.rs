//! The ingest half: shard workers, the batch recycle pool and the
//! interval-close barrier — everything between a `(key, value)` update
//! and the interval's merged observed sketch `So(t)` plus its key log.
//!
//! [`ShardedIngest`] is a type of its own because that pair is the
//! paper's one hand-off (§2.2): an engine gives it to its detect stage,
//! an ingest node of the distributed plane puts it on the wire, and
//! neither needs to know which.
//!
//! Per shard there is one work queue and one result queue; the batch
//! recycle pool is shared. A worker's statistics travel with its interval
//! sketch, and the cleared sketch of the interval before travels back with
//! the `Flush` that asks for the next one.

use super::route::{route_chunk, KeyLog, RoutedChunk};
use super::EngineError;
use crate::detector::KeyStrategy;
use crate::telemetry::{PipelineMetrics, ShardStats};
use scd_hash::{shard_of, HashRows};
use scd_obs::Stopwatch;
use scd_sketch::{BatchScratch, KarySketch, SketchConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

enum WorkerMsg {
    Batch(Vec<(u64, f64)>),
    /// Interval boundary: ship the accumulated sketch and start the next
    /// interval on the cleared one handed back here (a fresh one when none
    /// has come back yet).
    Flush(Option<KarySketch>),
}

/// A worker's answer to `Flush`: its interval sketch and, when telemetry
/// is enabled, what it folded into it.
struct Flushed {
    sketch: KarySketch,
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

/// Merges per-shard sketches in fixed shard order and leaves them zeroed
/// for their workers' next interval — one sweep ([`KarySketch::merge_draining`]:
/// each shard tile is cleared while the merge still has it in cache).
/// f64 addition is not associative in general, so a deterministic order
/// keeps reruns (and the sequential-vs-pipelined comparison) reproducible
/// — both backends call this exact routine, which is what makes their
/// reports bit-identical.
pub(super) fn merge_shards(merged: &mut KarySketch, shard_sketches: &mut [KarySketch]) {
    merged
        .merge_draining(shard_sketches)
        .expect("an engine has at least one shard, all over one hash family by construction");
}

/// The ingest half of a [`ShardedEngine`](super::ShardedEngine), usable on
/// its own: feed updates with [`push`](Self::push) /
/// [`push_slice`](Self::push_slice), close each interval with
/// [`end_interval_sketch_into`](Self::end_interval_sketch_into), and get
/// back the merged observed sketch and the interval's key log. It owns no
/// detector and never emits a report.
pub struct ShardedIngest {
    pub(super) shards: usize,
    batch: usize,
    rows: Arc<HashRows>,
    workers: Vec<Worker>,
    /// Per-shard batch under construction.
    pending: Vec<Vec<(u64, f64)>>,
    /// Spent batch `Vec`s coming back from workers for reuse.
    recycle: Receiver<Vec<(u64, f64)>>,
    /// Key log for error reconstruction, shaped by the key strategy.
    keys: KeyLog,
    pub(super) records_total: u64,
    /// Telemetry sink; `None` keeps every metric branch off the hot path.
    metrics: Option<Arc<PipelineMetrics>>,
    /// The shard sketches of the last inline close, merged and cleared:
    /// each goes back to its worker with the next `Flush`.
    shard_bufs: Vec<KarySketch>,
}

impl ShardedIngest {
    /// An ingest half over `sketch`'s hash family with `shards` workers,
    /// the default batching parameters and the bounded key log: distinct
    /// keys in first-seen order, which is all a shipped interval needs.
    ///
    /// # Errors
    /// [`EngineError::BadConfig`] for zero shards.
    pub fn new(sketch: SketchConfig, shards: usize) -> Result<Self, EngineError> {
        let rows = Arc::new(HashRows::new(sketch.h, sketch.k, sketch.seed));
        let keys = KeyLog::for_strategy(&KeyStrategy::NextInterval);
        ShardedIngest::build(rows, keys, shards, 512, 8, None)
    }

    /// Spawns the worker pool. Workers live for the ingest half's lifetime
    /// — interval boundaries reuse them; nothing is spawned per interval.
    pub(super) fn build(
        rows: Arc<HashRows>,
        keys: KeyLog,
        shards: usize,
        batch: usize,
        queue_capacity: usize,
        metrics: Option<Arc<PipelineMetrics>>,
    ) -> Result<Self, EngineError> {
        if shards == 0 {
            return Err(EngineError::BadConfig("shards must be at least 1".into()));
        }
        if batch == 0 || queue_capacity == 0 {
            return Err(EngineError::BadConfig("batch and queue_capacity must be positive".into()));
        }
        // Recycle pool: big enough to hold every batch that can be in
        // flight at once (per shard: the queue plus the one the worker is
        // folding), so a worker's `try_send` only ever drops a Vec in
        // degenerate races, never in steady state.
        let (recycle_tx, recycle_rx) = sync_channel(shards * (queue_capacity + 1));
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = sync_channel::<WorkerMsg>(queue_capacity);
            let (result_tx, results) = sync_channel(1);
            let depth = metrics.as_ref().map(|_| Arc::new(AtomicUsize::new(0)));
            let received = depth.clone();
            let rows = Arc::clone(&rows);
            let recycle = recycle_tx.clone();
            let thread = std::thread::Builder::new()
                .name(format!("scd-shard-{shard}"))
                .spawn(move || {
                    let mut sketch = KarySketch::with_rows(rows);
                    let mut scratch = BatchScratch::new();
                    // Private accumulator: no atomics, no sharing until
                    // the interval flush.
                    let mut stats = received.is_some().then(ShardStats::default);
                    // Ends when the engine hangs up: drain complete, exit.
                    while let Ok(msg) = rx.recv() {
                        if let Some(depth) = &received {
                            depth.fetch_sub(1, Ordering::Relaxed);
                        }
                        match msg {
                            WorkerMsg::Batch(mut batch) => {
                                match stats.as_mut() {
                                    Some(st) => {
                                        let sw = Stopwatch::start();
                                        sketch.update_batch(&batch, &mut scratch);
                                        st.fold_ns.record(sw.elapsed_ns());
                                        st.batches += 1;
                                        st.records += batch.len() as u64;
                                    }
                                    None => sketch.update_batch(&batch, &mut scratch),
                                }
                                batch.clear();
                                // Pool full (or engine gone): drop the Vec.
                                let _ = recycle.try_send(batch);
                            }
                            WorkerMsg::Flush(spare) => {
                                let fresh = spare.unwrap_or_else(|| sketch.zero_like());
                                let flushed = Flushed {
                                    sketch: std::mem::replace(&mut sketch, fresh),
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
            workers.push(Worker { tx: Some(tx), results, depth, thread: Some(thread) });
        }
        // The engine holds only the Receiver; worker clones keep the pool
        // alive, and it drains with them on shutdown.
        drop(recycle_tx);
        Ok(ShardedIngest {
            shards,
            batch,
            rows,
            workers,
            pending: (0..shards).map(|_| Vec::new()).collect(),
            recycle: recycle_rx,
            keys,
            records_total: 0,
            metrics,
            shard_bufs: Vec::with_capacity(shards),
        })
    }

    /// The hash family every sketch this ingest half hands out is over.
    pub fn rows(&self) -> &Arc<HashRows> {
        &self.rows
    }

    /// Total updates pushed over the ingest half's lifetime.
    pub fn records_total(&self) -> u64 {
        self.records_total
    }

    fn send(&mut self, shard: usize, msg: WorkerMsg) -> Result<(), EngineError> {
        let worker = &self.workers[shard];
        if let Some(depth) = &worker.depth {
            depth.fetch_add(1, Ordering::Relaxed);
        }
        let tx = worker.tx.as_ref().expect("sender live until drop");
        tx.send(msg).map_err(|_| EngineError::WorkerLost { shard })
    }

    /// A batch `Vec` to build into: recycled from a worker when one is
    /// waiting, freshly allocated otherwise (start-up and after drops).
    fn fresh_batch(&self) -> Vec<(u64, f64)> {
        match self.recycle.try_recv() {
            // Cleared by the worker; len 0, capacity already ≈ batch.
            Ok(spent) => {
                if let Some(m) = &self.metrics {
                    m.engine.recycle_hits_total.inc();
                }
                spent
            }
            Err(_) => {
                if let Some(m) = &self.metrics {
                    m.engine.recycle_misses_total.inc();
                }
                Vec::with_capacity(self.batch)
            }
        }
    }

    /// Ships `pending[shard]` to its worker, replacing it with a recycled
    /// (or fresh) buffer.
    fn flush_shard(&mut self, shard: usize) -> Result<(), EngineError> {
        let replacement = self.fresh_batch();
        let batch = std::mem::replace(&mut self.pending[shard], replacement);
        self.send(shard, WorkerMsg::Batch(batch))
    }

    /// Routes one update to its shard. Blocks (backpressure) if that
    /// shard's queue is full — ingest never silently drops.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if the shard's worker has died.
    #[inline]
    pub fn push(&mut self, key: u64, value: f64) -> Result<(), EngineError> {
        self.keys.record(key);
        self.records_total += 1;
        let shard = shard_of(key, self.shards);
        self.pending[shard].push((key, value));
        if self.pending[shard].len() >= self.batch {
            self.flush_shard(shard)?;
        }
        Ok(())
    }

    /// Routes a whole slice of updates — the bulk form of
    /// [`push`](Self::push), and the API the CLI and trace replay feed.
    /// Equivalent to pushing each item in order (same batches, same key
    /// log, bit-identical reports), but the loop stays inside one call:
    /// no per-update function boundary, and the single-shard case
    /// degenerates to `extend_from_slice` memcpys with no routing at all.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if a shard's worker has died.
    pub fn push_slice(&mut self, items: &[(u64, f64)]) -> Result<(), EngineError> {
        self.records_total += items.len() as u64;
        for &(key, _) in items {
            self.keys.record(key);
        }
        if self.shards == 1 {
            let mut rest = items;
            while !rest.is_empty() {
                let room = self.batch - self.pending[0].len();
                let (head, tail) = rest.split_at(room.min(rest.len()));
                self.pending[0].extend_from_slice(head);
                rest = tail;
                if self.pending[0].len() >= self.batch {
                    self.flush_shard(0)?;
                }
            }
            return Ok(());
        }
        for &(key, value) in items {
            let shard = shard_of(key, self.shards);
            self.pending[shard].push((key, value));
            if self.pending[shard].len() >= self.batch {
                self.flush_shard(shard)?;
            }
        }
        Ok(())
    }

    /// Multi-producer bulk push: `producers` threads route contiguous
    /// chunks of `items` into private per-shard buffers in parallel, then
    /// the buffers are shipped through the existing worker channels in
    /// producer order. This parallelizes the hash-and-route hop that
    /// [`push_slice`](Self::push_slice) runs single-threaded — the hop
    /// the interval ledger times as `engine.push_ns_per_record`.
    ///
    /// Reports are **bit-identical** to `push_slice` for any `f64` values,
    /// not merely for integer-valued cells: chunks are contiguous and
    /// shipped in chunk order, so every shard worker folds exactly the
    /// per-shard subsequence it would have seen from the sequential call,
    /// and the key log is absorbed in the same stream order (see
    /// `KeyLog::absorb`). Falls back to `push_slice` when the slice is
    /// too small to amortize thread spawns.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if a shard's worker has died.
    pub fn push_slice_parallel(
        &mut self,
        items: &[(u64, f64)],
        producers: usize,
    ) -> Result<(), EngineError> {
        let producers = producers.max(1);
        if producers == 1 || items.len() < producers * self.batch.max(256) {
            return self.push_slice(items);
        }
        // Anything still pending is earlier in the stream than `items`:
        // flush it first so per-shard fold order stays the sequential one.
        for shard in 0..self.shards {
            if !self.pending[shard].is_empty() {
                self.flush_shard(shard)?;
            }
        }
        self.records_total += items.len() as u64;
        let shards = self.shards;
        let chunk = items.len().div_ceil(producers);
        let routed: Vec<RoutedChunk> = std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|c| {
                    let log = self.keys.fresh_like();
                    scope.spawn(move || route_chunk(c, shards, log))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("producer thread panicked")).collect()
        });
        for (bufs, log) in routed {
            self.keys.absorb(log);
            for (shard, buf) in bufs.into_iter().enumerate() {
                if !buf.is_empty() {
                    self.send(shard, WorkerMsg::Batch(buf))?;
                }
            }
        }
        Ok(())
    }

    /// Flushes every shard's pending batch and requests the interval
    /// sketches, handing each worker its cleared sketch from `spares` (in
    /// shard order; a worker whose spare is missing starts on a fresh one).
    fn flush_all(&mut self, spares: &mut Vec<KarySketch>) -> Result<(), EngineError> {
        let mut spares = spares.drain(..);
        let mut deepest = 0usize;
        for shard in 0..self.shards {
            if !self.pending[shard].is_empty() {
                self.flush_shard(shard)?;
            }
            if let Some(depth) = &self.workers[shard].depth {
                // Sampled right before Flush lands: how far the slowest
                // shard is lagging the interval boundary.
                deepest = deepest.max(depth.load(Ordering::Relaxed));
            }
            self.send(shard, WorkerMsg::Flush(spares.next()))?;
        }
        if let Some(m) = &self.metrics {
            m.engine.queue_depth.set(deepest as f64);
        }
        Ok(())
    }

    /// Collects the per-shard interval sketches in shard order. This is
    /// the COMBINE barrier, so it doubles as the telemetry aggregation
    /// point: each worker's [`ShardStats`] arrive with its sketch.
    fn collect_shards(&self, out: &mut Vec<KarySketch>) -> Result<(), EngineError> {
        for (shard, worker) in self.workers.iter().enumerate() {
            let flushed = worker.results.recv().map_err(|_| EngineError::WorkerLost { shard })?;
            if let (Some(st), Some(m)) = (flushed.stats, &self.metrics) {
                st.merge_into(&m.engine);
            }
            out.push(flushed.sketch);
        }
        Ok(())
    }

    /// The interval-close barrier: flushes every shard — each worker takes
    /// back its cleared sketch from `bufs` — collects the per-shard
    /// sketches in shard order into `bufs` and takes the interval's key log.
    pub(super) fn close(&mut self, bufs: &mut Vec<KarySketch>) -> Result<Vec<u64>, EngineError> {
        let sw = Stopwatch::start();
        self.flush_all(bufs)?;
        self.collect_shards(bufs)?;
        if let Some(m) = &self.metrics {
            m.engine.barrier_ns.record(sw.elapsed_ns());
        }
        Ok(self.keys.take())
    }

    /// Closes the interval on this thread: the barrier, then the merge of
    /// the per-shard sketches into `observed` (every cell is overwritten),
    /// and hands back the interval's key log — the pair a detect stage
    /// consumes, whether it sits in this process or behind an aggregator
    /// that COMBINEs several nodes' sketches first. The shard container and
    /// the cleared shard sketches are kept for the next close, so steady
    /// state allocates nothing. For a caller that keeps one table across
    /// intervals: the engine's inline backend, and an ingest node, which
    /// only encodes the merged sketch.
    ///
    /// # Errors
    /// [`EngineError::WorkerLost`] if a shard worker died mid-interval.
    ///
    /// # Panics
    /// If `observed` is of another hash family than this ingest half
    /// ([`rows`](Self::rows)).
    pub fn end_interval_sketch_into(
        &mut self,
        observed: &mut KarySketch,
    ) -> Result<Vec<u64>, EngineError> {
        let mut bufs = std::mem::take(&mut self.shard_bufs);
        let keys = self.close(&mut bufs)?;
        let sw = Stopwatch::start();
        merge_shards(observed, &mut bufs);
        if let Some(m) = &self.metrics {
            m.engine.combine_ns.record(sw.elapsed_ns());
        }
        self.shard_bufs = bufs;
        Ok(keys)
    }

    /// Hangs up every queue first (lets all workers start draining), then
    /// joins. Idempotent.
    pub(super) fn shutdown(&mut self) {
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

impl Drop for ShardedIngest {
    fn drop(&mut self) {
        self.shutdown();
    }
}
