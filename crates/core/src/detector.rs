//! The sketch-based change detector (paper §2.2, §3.3).

use crate::sampling::UpdateSampler;
use crate::telemetry::DetectorMetrics;
use scd_forecast::{Forecaster, ModelSpec, ModelState, StateError};
use scd_hash::{HashRows, MixBuildHasher, SplitMix64};
use scd_sketch::{EstimateScratch, KarySketch, SketchConfig};
use std::cmp::Reverse;
use std::collections::HashSet;
use std::sync::Arc;

/// How the detector obtains the stream of keys whose forecast errors it
/// reconstructs from the error sketch (§3.3 — sketches answer point
/// queries; they do not enumerate keys).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyStrategy {
    /// Offline two-pass: replay the keys of the *same* interval the error
    /// sketch covers. "In this paper, we use the offline two-pass algorithm
    /// in all experiments."
    TwoPass,
    /// Online: query `Se(t)` with the keys arriving *after* it was built
    /// (here: the keys of interval `t+1`). Misses keys that never reappear
    /// — "often acceptable for many applications like DoS attack detection,
    /// where the damage can be very limited if a key never appears again".
    NextInterval,
    /// Like [`KeyStrategy::TwoPass`] but querying only a sampled substream
    /// of the keys, for when even one estimate per arrival is too costly
    /// (§5.3).
    Sampled {
        /// Probability of scanning each distinct key.
        rate: f64,
        /// Sampling seed (deterministic experiments).
        seed: u64,
    },
}

/// Detector configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Sketch shape `(H, K, seed)`.
    pub sketch: SketchConfig,
    /// Forecasting model and parameters.
    pub model: ModelSpec,
    /// Alarm threshold parameter `T`: alarms fire when the estimated
    /// forecast error exceeds `T · √(ESTIMATEF2(Se(t)))` in absolute value.
    /// The paper sweeps `T ∈ {0.01, 0.02, 0.05, 0.07, 0.1}`.
    pub threshold: f64,
    /// Key-stream strategy.
    pub key_strategy: KeyStrategy,
}

/// One raised alarm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alarm {
    /// The offending key.
    pub key: u64,
    /// Estimated forecast error reconstructed from the error sketch.
    pub estimated_error: f64,
    /// The threshold `TA` in force when the alarm fired.
    pub threshold: f64,
}

/// Records shed by the streaming front end during one interval, under the
/// configured [`crate::streaming::OverloadPolicy`]. All zero when the
/// policy is `Block` (backpressure never drops).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DropStats {
    /// Records discarded because the input queue was full (`DropNewest`).
    pub dropped: u64,
    /// Records admitted by the `Sample` policy (each carries weight
    /// `1/rate` so sketch totals stay unbiased, §3.3).
    pub sampled_in: u64,
    /// Records shed by the `Sample` policy (not admitted).
    pub shed: u64,
}

impl DropStats {
    /// Total records that never reached the detector.
    pub fn lost(&self) -> u64 {
        self.dropped + self.shed
    }
}

/// Everything the detector can say about one interval.
///
/// `==` compares [`errors`](Self::errors) as ranked lists — the same
/// `(key, estimate)` pairs in any order are equal — and every other field
/// as written: two runtimes that scan one interval's keys in different
/// orders (a single box and a fan-in aggregator, say) report equal.
#[derive(Debug, Clone, Default)]
pub struct IntervalReport {
    /// Interval index (0-based, counting processed intervals).
    pub interval: usize,
    /// False while the forecasting model is still warming up — no error
    /// sketch exists yet, so `alarms` and `errors` are empty.
    pub warmed_up: bool,
    /// `ESTIMATEF2(Se(t))` — the estimated total energy of forecast errors.
    pub error_f2: f64,
    /// The alarm threshold `TA = T·√(max(F2, 0))`.
    pub alarm_threshold: f64,
    /// Keys whose |estimated error| ≥ `TA` (and is nonzero), sorted by
    /// decreasing |error|, ties by ascending key.
    pub alarms: Vec<Alarm>,
    /// Estimated forecast error for every scanned key (deduplicated), in
    /// scan order: the order each key was first seen in the interval's key
    /// stream. The detector does not rank it — nothing on the detection
    /// path reads more than the alarms and a short top-k. Call
    /// [`rank_errors`](Self::rank_errors) for the paper's top-N
    /// comparisons, which read it by decreasing |error|.
    pub errors: Vec<(u64, f64)>,
    /// Scanned keys whose estimated error came back non-finite
    /// (NaN/±inf). They are excluded from `errors` and can never alarm;
    /// a nonzero count means the forecast model has been driven outside
    /// its numeric envelope and deserves operator attention, not a
    /// detector panic.
    pub non_finite_errors: u64,
    /// Records shed during this interval by the streaming overload policy.
    /// Always zero for detectors fed directly via `process_interval`.
    pub drops: DropStats,
}

impl IntervalReport {
    /// Sorts [`errors`](Self::errors) by decreasing |error|, ties by
    /// ascending key — the order the paper's top-N figures read and the
    /// order [`alarms`](Self::alarms) are in. This is the one full-list
    /// ranking; the detector never pays for it.
    pub fn rank_errors(&mut self) {
        self.errors.sort_unstable_by_key(report_order);
    }

    /// A ranked copy of `errors`, leaving `self` as it is.
    fn ranked_errors(&self) -> Vec<(u64, f64)> {
        let mut ranked = IntervalReport { errors: self.errors.clone(), ..Default::default() };
        ranked.rank_errors();
        ranked.errors
    }

    /// A canonical one-line digest of the report, with every float
    /// rendered by its exact bit pattern and the (potentially long)
    /// alarm/error lists compressed to a length + CRC-32 over their
    /// `(key, f64-bits)` pairs in rank order (`errors` is digested as
    /// [`rank_errors`](Self::rank_errors) would leave it, whatever order
    /// it is in). Equal reports produce equal lines, and any difference
    /// in interval index, warm-up state, `F2`, threshold, alarm set, error
    /// list, or drop accounting changes the line — which is what lets two
    /// runs (e.g. single-node vs distributed COMBINE) be diffed for
    /// bit-identity from the shell without serializing whole reports.
    pub fn canonical_line(&self) -> String {
        let mut buf = Vec::with_capacity(self.alarms.len() * 24);
        for a in &self.alarms {
            buf.extend_from_slice(&a.key.to_le_bytes());
            buf.extend_from_slice(&a.estimated_error.to_bits().to_le_bytes());
            buf.extend_from_slice(&a.threshold.to_bits().to_le_bytes());
        }
        let alarms_crc = scd_hash::crc32(&buf);
        buf.clear();
        for &(key, err) in &self.ranked_errors() {
            buf.extend_from_slice(&key.to_le_bytes());
            buf.extend_from_slice(&err.to_bits().to_le_bytes());
        }
        let errors_crc = scd_hash::crc32(&buf);
        format!(
            "interval={} warm={} f2={:016x} ta={:016x} alarms={}:{alarms_crc:08x} \
             errors={}:{errors_crc:08x} nonfinite={} drops={}/{}/{}",
            self.interval,
            u8::from(self.warmed_up),
            self.error_f2.to_bits(),
            self.alarm_threshold.to_bits(),
            self.alarms.len(),
            self.errors.len(),
            self.non_finite_errors,
            self.drops.dropped,
            self.drops.sampled_in,
            self.drops.shed,
        )
    }
}

impl PartialEq for IntervalReport {
    fn eq(&self, other: &Self) -> bool {
        // Destructured so a new field cannot be left out of the comparison.
        let IntervalReport {
            interval,
            warmed_up,
            error_f2,
            alarm_threshold,
            alarms,
            errors,
            non_finite_errors,
            drops,
        } = self;
        *interval == other.interval
            && *warmed_up == other.warmed_up
            && *error_f2 == other.error_f2
            && *alarm_threshold == other.alarm_threshold
            && *alarms == other.alarms
            && *non_finite_errors == other.non_finite_errors
            && *drops == other.drops
            && errors.len() == other.errors.len()
            && (*errors == other.errors || self.ranked_errors() == other.ranked_errors())
    }
}

/// The full sketch-based change-detection pipeline.
pub struct SketchChangeDetector {
    config: DetectorConfig,
    /// Hash family built once and shared by every per-interval sketch —
    /// rebuilding it per interval would redo megabytes of tabulation fill.
    rows: Arc<HashRows>,
    model: Box<dyn Forecaster<KarySketch> + Send>,
    /// Error sketch of the previous interval, pending key replay (only used
    /// by [`KeyStrategy::NextInterval`]).
    pending_error: Option<(usize, KarySketch)>,
    sampler: SplitMix64,
    intervals_processed: usize,
    // --- Recycled turnover workspace. None of this is detector *state*:
    // it is never checkpointed, and a freshly restored detector rebuilds
    // it lazily with identical results. ---
    /// The table the next interval's error sketch is written into: the
    /// last one once its report is out (under `NextInterval` it alternates
    /// with the pending slot), or — when the caller keeps the error
    /// sketches — one it hands back through
    /// [`recycle_error_buffer`](Self::recycle_error_buffer). There is no
    /// forecast buffer: the model's step writes `Se(t)` directly and the
    /// forecast only ever exists one tile at a time.
    error_spare: Option<KarySketch>,
    /// Scratch for the key scan.
    scratch: EstimateScratch,
    /// Persistent dedup set, cleared (not freed) every interval.
    seen: HashSet<u64, MixBuildHasher>,
    /// The keys the scan queries: the interval's distinct keys in
    /// first-seen order, rebuilt (not reallocated) every interval.
    scan: Vec<u64>,
    /// Telemetry sink. Like the workspaces above, this is not detector
    /// *state*: it is never checkpointed (a restored detector starts with
    /// `None`; re-attach via [`SketchChangeDetector::set_metrics`]), and
    /// recording never influences a report.
    metrics: Option<Arc<DetectorMetrics>>,
}

impl std::fmt::Debug for SketchChangeDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SketchChangeDetector")
            .field("config", &self.config)
            .field("intervals_processed", &self.intervals_processed)
            .finish()
    }
}

impl SketchChangeDetector {
    /// Builds the detector.
    ///
    /// # Panics
    /// Panics on an invalid model spec or non-positive threshold; validate
    /// configs from untrusted sources with [`ModelSpec::validate`] first.
    pub fn new(config: DetectorConfig) -> Self {
        config.model.validate().expect("invalid model spec");
        assert!(
            config.threshold > 0.0 && config.threshold.is_finite(),
            "threshold parameter T must be positive"
        );
        if let KeyStrategy::Sampled { rate, .. } = config.key_strategy {
            assert!((0.0..=1.0).contains(&rate), "sampling rate must be in [0, 1], got {rate}");
        }
        let model = config.model.build();
        let sampler_seed = match config.key_strategy {
            KeyStrategy::Sampled { seed, .. } => seed,
            _ => 0,
        };
        let rows = HashRows::shared(config.sketch.h, config.sketch.k, config.sketch.seed);
        SketchChangeDetector {
            config,
            rows,
            model,
            pending_error: None,
            sampler: SplitMix64::new(sampler_seed),
            intervals_processed: 0,
            error_spare: None,
            scratch: EstimateScratch::new(),
            seen: HashSet::with_hasher(MixBuildHasher),
            scan: Vec::new(),
            metrics: None,
        }
    }

    /// Attaches a telemetry sink: per-interval alarm/scan counters and
    /// the F2/threshold gauges. Deliberately a setter rather than a
    /// [`DetectorConfig`] field — the config is compared against
    /// checkpoints for equality, and observability must never invalidate
    /// a checkpoint.
    pub fn set_metrics(&mut self, metrics: Arc<DetectorMetrics>) {
        self.metrics = Some(metrics);
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Number of intervals fed so far.
    pub fn intervals_processed(&self) -> usize {
        self.intervals_processed
    }

    /// Feeds one interval's `(key, value)` update stream and returns the
    /// interval's report.
    ///
    /// With [`KeyStrategy::TwoPass`] (and `Sampled`), the report covers the
    /// *current* interval. With [`KeyStrategy::NextInterval`], the report
    /// covers the **previous** interval — its error sketch is only queried
    /// once the current interval's keys arrive — so `report.interval` lags
    /// by one.
    pub fn process_interval(&mut self, items: &[(u64, f64)]) -> IntervalReport {
        // Sketch module: build the observed sketch So(t) over the shared
        // hash family (no per-interval table derivation).
        let mut observed = KarySketch::with_rows(Arc::clone(&self.rows));
        for &(key, value) in items {
            observed.update(key, value);
        }
        let keys: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
        self.turnover(&observed, &keys, false).0
    }

    /// Feeds one interval whose observed sketch was built externally —
    /// e.g. aggregated from remote routers via COMBINE, or assembled from
    /// per-slot sketches by [`crate::staggered::StaggeredDetector`]. `keys`
    /// is the key stream for error reconstruction: any list whose first
    /// occurrences are the interval's keys in first-seen order — every
    /// arrival, the distinct keys, or an ingest half's cache misses. The
    /// detector deduplicates it before querying, so repeats cost only a
    /// set probe each.
    ///
    /// # Panics
    /// Panics if `observed` was built over a different hash family than
    /// this detector's configuration — their cells would not be comparable.
    pub fn process_observed(&mut self, observed: &KarySketch, keys: Vec<u64>) -> IntervalReport {
        // Not wanting the error sketch back lets the turnover recycle its
        // buffer: the steady-state path performs zero heap allocations.
        self.turnover(observed, &keys, false).0
    }

    /// Like [`process_observed`](Self::process_observed), but additionally
    /// hands back ownership of the error sketch the report was computed
    /// from, labeled with the interval it covers — the hook the sharded
    /// engine uses to feed an `scd-archive` without re-deriving `Se(t)`.
    ///
    /// The second component is `None` while the model is warming up (no
    /// error sketch exists). Under [`KeyStrategy::NextInterval`] the
    /// returned sketch covers the *previous* interval, matching the
    /// report's lag, and the final interval's error sketch stays pending
    /// (it has not been queried yet).
    ///
    /// # Panics
    /// As [`process_observed`](Self::process_observed).
    pub fn process_observed_archiving(
        &mut self,
        observed: &KarySketch,
        keys: Vec<u64>,
    ) -> (IntervalReport, Option<(usize, KarySketch)>) {
        self.turnover(observed, &keys, true)
    }

    /// Offers a table for the next interval's error sketch — the way a
    /// caller of [`process_observed_archiving`](Self::process_observed_archiving)
    /// returns what it was handed (or something of the same shape it no
    /// longer needs, like the table an archive's last merge retired), so
    /// the archiving path allocates no table per interval either. The
    /// contents are irrelevant: a turnover overwrites every cell. A sketch
    /// over another hash family, or one offered while a spare is already
    /// held, is dropped.
    pub fn recycle_error_buffer(&mut self, buffer: KarySketch) {
        if self.error_spare.is_none() && buffer.rows().identity() == self.rows.identity() {
            self.error_spare = Some(buffer);
        }
    }

    /// The interval turnover behind every entry point: one error-only model
    /// step, F2, and the key scan over `keys` (see
    /// [`process_observed`](Self::process_observed) for what they may be),
    /// handing back the error sketch too when `want_error`.
    ///
    /// The step streams each of the model's live tables through the cache
    /// once and writes `Se(t)` into a recycled table; `ESTIMATEF2` then
    /// reads that table back while it is still cache-warm. With the
    /// estimate scratch, the persistent dedup set and the recycled scan
    /// list that makes a warm steady-state turnover perform **zero heap
    /// allocations** beyond the report's own output vectors — with
    /// `want_error = true` as long as the caller returns a table through
    /// [`recycle_error_buffer`](Self::recycle_error_buffer).
    pub(crate) fn turnover(
        &mut self,
        observed: &KarySketch,
        keys: &[u64],
        want_error: bool,
    ) -> (IntervalReport, Option<(usize, KarySketch)>) {
        assert_eq!(
            observed.rows().identity(),
            (self.config.sketch.h, self.config.sketch.k, self.config.sketch.seed),
            "observed sketch must share the detector's hash family"
        );
        let t = self.intervals_processed;

        // Forecasting module: Se(t) = So(t) − Sf(t) straight into the
        // recycled error table as the model advances, then its F2.
        let mut error = self
            .error_spare
            .take()
            .unwrap_or_else(|| KarySketch::with_rows(Arc::clone(&self.rows)));
        let stepped = if self.model.step_error_into(observed, &mut error) {
            let f2 = error.estimate_f2();
            Some((error, f2))
        } else {
            self.error_spare = Some(error);
            None
        };
        self.intervals_processed += 1;

        match self.config.key_strategy {
            KeyStrategy::TwoPass | KeyStrategy::Sampled { .. } => match stepped {
                None => (IntervalReport { interval: t, ..Default::default() }, None),
                Some((error, f2)) => {
                    let mut scan = self.dedup(keys);
                    if let KeyStrategy::Sampled { rate, .. } = self.config.key_strategy {
                        // One shared Bernoulli predicate with the record
                        // sampler — see `UpdateSampler::keep` for the
                        // strict-< semantics this fixes.
                        let sampler = &mut self.sampler;
                        scan.retain(|_| UpdateSampler::keep(rate, sampler));
                    }
                    let report = self.detect(t, &error, &scan, f2);
                    self.scan = scan;
                    if want_error {
                        (report, Some((t, error)))
                    } else {
                        self.error_spare = Some(error);
                        (report, None)
                    }
                }
            },
            KeyStrategy::NextInterval => {
                // Query the *pending* error sketch with this interval's keys.
                let (report, queried) = match self.pending_error.take() {
                    None => (
                        IntervalReport { interval: t.saturating_sub(1), ..Default::default() },
                        None,
                    ),
                    Some((prev_t, error)) => {
                        let scan = self.dedup(keys);
                        // F2 is a pure function of the sketch, so computing
                        // it at query time (not build time) changes nothing.
                        let f2 = error.estimate_f2();
                        let report = self.detect(prev_t, &error, &scan, f2);
                        self.scan = scan;
                        if want_error {
                            (report, Some((prev_t, error)))
                        } else {
                            self.error_spare = Some(error);
                            (report, None)
                        }
                    }
                };
                if let Some((error, _f2)) = stepped {
                    self.pending_error = Some((t, error));
                }
                (report, queried)
            }
        }
    }

    /// The distinct keys of `keys` in first-seen order, in the recycled
    /// scan list (hand it back to `self.scan` when done), deduplicated
    /// with the persistent set — both cleared, never freed, so steady
    /// state allocates nothing.
    fn dedup(&mut self, keys: &[u64]) -> Vec<u64> {
        let mut scan = std::mem::take(&mut self.scan);
        scan.clear();
        self.seen.clear();
        let seen = &mut self.seen;
        scan.extend(keys.iter().copied().filter(|&key| seen.insert(key)));
        scan
    }

    /// Change-detection module: threshold selection + batched key scan.
    /// `errors` leaves in scan order; only the alarms are ranked.
    fn detect(
        &mut self,
        interval: usize,
        error_sketch: &KarySketch,
        keys: &[u64],
        f2: f64,
    ) -> IntervalReport {
        let alarm_threshold = self.config.threshold * f2.max(0.0).sqrt();
        // Non-finite estimates are dropped from `errors`: they carry no
        // magnitude information and can never alarm, and a NaN would rank
        // above +inf. A single poisoned cell must degrade one key's
        // estimate, not panic the whole scan (under the supervisor that
        // panic is a poison pill — the checkpoint restores the same state
        // and the restart loop burns the entire budget re-dying on the
        // same interval).
        let mut non_finite_errors = 0u64;
        let mut errors = Vec::with_capacity(keys.len());
        error_sketch.estimator().estimate_tiles(keys, &mut self.scratch, |keys, estimates| {
            for (&key, &e) in keys.iter().zip(estimates) {
                if e.is_finite() {
                    errors.push((key, e));
                } else {
                    non_finite_errors += 1;
                }
            }
        });
        // |error| must meet the threshold *and* be nonzero: when an interval
        // is predicted perfectly, F2 = 0 makes TA = 0, and flows with zero
        // error must not alarm. The rule is monotone in |error|, so the
        // keys it selects are exactly the alarming prefix of the ranked
        // list, and ranking just them gives that prefix. Counted first, so
        // the alarm vector is allocated once at its final size.
        let alarming = |&&(_, e): &&(u64, f64)| e.abs() >= alarm_threshold && e.abs() > 0.0;
        let mut alarms = Vec::with_capacity(errors.iter().filter(alarming).count());
        alarms.extend(errors.iter().filter(alarming).map(|&(key, estimated_error)| Alarm {
            key,
            estimated_error,
            threshold: alarm_threshold,
        }));
        alarms.sort_unstable_by_key(|a| report_order(&(a.key, a.estimated_error)));
        if let Some(m) = &self.metrics {
            m.intervals_total.inc();
            m.keys_scanned_total.add(keys.len() as u64);
            m.alarms_total.add(alarms.len() as u64);
            m.non_finite_errors_total.add(non_finite_errors);
            m.error_f2.set(f2);
            m.alarm_threshold.set(alarm_threshold);
        }
        IntervalReport {
            interval,
            warmed_up: true,
            error_f2: f2,
            alarm_threshold,
            alarms,
            errors,
            non_finite_errors,
            drops: DropStats::default(),
        }
    }

    /// The hash family shared by every sketch this detector touches.
    pub fn rows(&self) -> &Arc<HashRows> {
        &self.rows
    }

    /// Exports the detector's complete mutable state for checkpointing.
    ///
    /// Together with the (immutable) [`DetectorConfig`], the snapshot fully
    /// determines future behaviour: [`SketchChangeDetector::restore`] on an
    /// equal config yields a detector whose reports are bit-identical to
    /// this one's from here on.
    pub fn snapshot(&self) -> DetectorSnapshot {
        DetectorSnapshot {
            intervals_processed: self.intervals_processed as u64,
            sampler_state: self.sampler.state(),
            pending_error: self.pending_error.as_ref().map(|(t, s)| (*t as u64, s.clone())),
            model: self.model.snapshot_state(),
        }
    }

    /// Rebuilds a detector from a config and a snapshot taken by
    /// [`SketchChangeDetector::snapshot`] on a detector with an equal
    /// config.
    ///
    /// Corrupt or mismatched snapshots yield a typed [`RestoreError`],
    /// never a panic — this is the path a supervisor takes after a crash,
    /// where the checkpoint on disk is the least-trusted input in the
    /// system.
    pub fn restore(
        config: DetectorConfig,
        snapshot: DetectorSnapshot,
    ) -> Result<Self, RestoreError> {
        config.model.validate().map_err(|e| RestoreError::BadConfig(e.to_string()))?;
        if !(config.threshold > 0.0 && config.threshold.is_finite()) {
            return Err(RestoreError::BadConfig("threshold parameter T must be positive".into()));
        }
        let identity = (config.sketch.h, config.sketch.k, config.sketch.seed);
        let mut sketches: Vec<&KarySketch> = model_sketches(&snapshot.model);
        if let Some((_, s)) = &snapshot.pending_error {
            sketches.push(s);
        }
        if sketches.iter().any(|s| s.rows().identity() != identity) {
            return Err(RestoreError::FamilyMismatch);
        }
        let rows = HashRows::shared(config.sketch.h, config.sketch.k, config.sketch.seed);
        let model = config.model.restore(snapshot.model).map_err(RestoreError::Model)?;
        Ok(SketchChangeDetector {
            config,
            rows,
            model,
            pending_error: snapshot.pending_error.map(|(t, s)| (t as usize, s)),
            sampler: SplitMix64::new(snapshot.sampler_state),
            intervals_processed: snapshot.intervals_processed as usize,
            error_spare: None,
            scratch: EstimateScratch::new(),
            seen: HashSet::with_hasher(MixBuildHasher),
            scan: Vec::new(),
            metrics: None,
        })
    }
}

/// Rank order — of [`IntervalReport::alarms`], of
/// [`IntervalReport::errors`] once ranked, and of the notable keys an
/// archive is offered — as an integer sort key: decreasing `|error|`, ties
/// by ascending key. For finite values the bit pattern of `|e|` orders
/// exactly as `total_cmp` orders `|e|` (and `-0.0` folds onto `+0.0`), and
/// scanned keys are distinct, so this is a strict total order: an unstable
/// sort or a selection yields the one sequence a stable `total_cmp` sort
/// would.
pub(crate) fn report_order(&(key, error): &(u64, f64)) -> (Reverse<u64>, u64) {
    (Reverse(error.abs().to_bits()), key)
}

/// Complete mutable state of a [`SketchChangeDetector`], as captured by
/// [`SketchChangeDetector::snapshot`].
#[derive(Debug, Clone)]
pub struct DetectorSnapshot {
    /// Number of intervals fed so far.
    pub intervals_processed: u64,
    /// Internal state of the key-sampling generator (`Sampled` strategy),
    /// so restored runs sample the same keys the original would have.
    pub sampler_state: u64,
    /// The pending error sketch (`NextInterval` strategy only).
    pub pending_error: Option<(u64, KarySketch)>,
    /// The forecasting model's state.
    pub model: ModelState<KarySketch>,
}

/// Errors from [`SketchChangeDetector::restore`].
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The config itself is invalid (bad model spec or threshold).
    BadConfig(String),
    /// The model state does not match the config's model spec.
    Model(StateError),
    /// A sketch in the snapshot was built over a different hash family
    /// than the config describes.
    FamilyMismatch,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::BadConfig(what) => write!(f, "invalid detector config: {what}"),
            RestoreError::Model(e) => write!(f, "model state rejected: {e}"),
            RestoreError::FamilyMismatch => {
                write!(f, "snapshot sketches use a different hash family than the config")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Every sketch embedded in a model state (for family validation).
fn model_sketches(state: &ModelState<KarySketch>) -> Vec<&KarySketch> {
    match state {
        ModelState::Ma { history } | ModelState::Sma { history } => history.iter().collect(),
        ModelState::Ewma { forecast } => forecast.iter().collect(),
        ModelState::Nshw { first, state } => {
            let mut v: Vec<&KarySketch> = first.iter().collect();
            if let Some(p) = state {
                v.extend([&p.level, &p.trend, &p.forecast]);
            }
            v
        }
        ModelState::Arima { x_hist, e_hist, .. } => x_hist.iter().chain(e_hist.iter()).collect(),
        ModelState::Shw { init, state } => {
            let mut v: Vec<&KarySketch> = init.iter().collect();
            if let Some(p) = state {
                v.extend([&p.level, &p.trend]);
                v.extend(p.season.iter());
            }
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(strategy: KeyStrategy) -> DetectorConfig {
        DetectorConfig {
            sketch: SketchConfig { h: 5, k: 4096, seed: 99 },
            model: ModelSpec::Ewma { alpha: 0.5 },
            threshold: 0.05,
            key_strategy: strategy,
        }
    }

    /// Three flows with steady traffic; flow 42 spikes at interval 4.
    fn spike_stream(t: usize) -> Vec<(u64, f64)> {
        let mut items = vec![(1u64, 10_000.0), (2, 5_000.0), (42, 1_000.0)];
        if t == 4 {
            items[2].1 = 80_000.0;
        }
        items
    }

    #[test]
    fn two_pass_detects_spike_only_at_spike_interval() {
        let mut det = SketchChangeDetector::new(config(KeyStrategy::TwoPass));
        for t in 0..6 {
            let report = det.process_interval(&spike_stream(t));
            let spiked = report.alarms.iter().any(|a| a.key == 42);
            if t == 4 {
                assert!(spiked, "spike missed at t=4: {:?}", report.alarms);
            } else if t >= 2 && t != 5 {
                // t=5 sees a "drop" relative to the inflated forecast, so an
                // alarm there is legitimate; quiet intervals must be quiet.
                assert!(!spiked, "false alarm at t={t}: {:?}", report.alarms);
            }
        }
    }

    #[test]
    fn warm_up_intervals_report_no_alarms() {
        let mut det = SketchChangeDetector::new(config(KeyStrategy::TwoPass));
        let report = det.process_interval(&spike_stream(0));
        assert!(!report.warmed_up);
        assert!(report.alarms.is_empty() && report.errors.is_empty());
    }

    #[test]
    fn errors_sorted_by_magnitude() {
        let mut det = SketchChangeDetector::new(config(KeyStrategy::TwoPass));
        det.process_interval(&[(1, 100.0), (2, 100.0), (3, 100.0)]);
        let mut report = det.process_interval(&[(1, 500.0), (2, 150.0), (3, 100.0)]);
        assert!(report.warmed_up);
        report.rank_errors();
        let mags: Vec<f64> = report.errors.iter().map(|(_, e)| e.abs()).collect();
        for w in mags.windows(2) {
            assert!(w[0] >= w[1], "not sorted: {mags:?}");
        }
        assert_eq!(report.errors[0].0, 1, "largest change first");
    }

    #[test]
    fn next_interval_strategy_lags_by_one() {
        let mut det = SketchChangeDetector::new(config(KeyStrategy::NextInterval));
        det.process_interval(&spike_stream(0)); // warm-up
        det.process_interval(&spike_stream(1)); // builds Se(1)
        let r = det.process_interval(&spike_stream(2)); // queries Se(1)
        assert!(r.warmed_up);
        assert_eq!(r.interval, 1);
    }

    #[test]
    fn next_interval_misses_keys_that_vanish() {
        // Key 42 spikes at t=2 and never appears again: the online strategy
        // cannot scan it, exactly the caveat the paper documents.
        let mut det = SketchChangeDetector::new(config(KeyStrategy::NextInterval));
        let steady = vec![(1u64, 10_000.0), (2, 5_000.0)];
        let mut with_spike = steady.clone();
        with_spike.push((42, 90_000.0));
        det.process_interval(&steady);
        det.process_interval(&steady);
        det.process_interval(&with_spike); // spike interval: Se(2) pending
        let r = det.process_interval(&steady); // scans Se(2) with steady keys
        assert_eq!(r.interval, 2);
        assert!(
            !r.errors.iter().any(|&(k, _)| k == 42),
            "online strategy should not see vanished key 42"
        );
    }

    #[test]
    fn sampled_strategy_scans_subset() {
        let many: Vec<(u64, f64)> = (0..400u64).map(|k| (k, 100.0)).collect();
        let mut det =
            SketchChangeDetector::new(config(KeyStrategy::Sampled { rate: 0.25, seed: 7 }));
        det.process_interval(&many);
        let r = det.process_interval(&many);
        assert!(r.warmed_up);
        let scanned = r.errors.len();
        assert!((40..=160).contains(&scanned), "expected ~100 of 400 keys scanned, got {scanned}");
    }

    #[test]
    fn sampled_rate_one_equals_two_pass() {
        let items: Vec<(u64, f64)> = (0..50u64).map(|k| (k, (k + 1) as f64)).collect();
        let mut a = SketchChangeDetector::new(config(KeyStrategy::TwoPass));
        let mut b = SketchChangeDetector::new(config(KeyStrategy::Sampled { rate: 1.0, seed: 1 }));
        a.process_interval(&items);
        b.process_interval(&items);
        let ra = a.process_interval(&items);
        let rb = b.process_interval(&items);
        assert_eq!(ra.errors, rb.errors);
    }

    #[test]
    fn sampled_strategy_agrees_with_shared_sampler() {
        // The detector's key retention must replay exactly the decisions of
        // `UpdateSampler::keep` on the same (rate, seed): one draw per
        // deduplicated key, in first-seen order. This pins the shared path
        // — any drift back to an inline threshold reintroduces the bias.
        let rate = 0.3;
        let seed = 11;
        let many: Vec<(u64, f64)> = (0..500u64).map(|k| (k, 100.0)).collect();
        let mut det = SketchChangeDetector::new(config(KeyStrategy::Sampled { rate, seed }));
        det.process_interval(&many); // warm-up: no error sketch, no draws
        let r = det.process_interval(&many);
        let mut scanned: Vec<u64> = r.errors.iter().map(|&(k, _)| k).collect();
        scanned.sort_unstable();
        let mut rng = SplitMix64::new(seed);
        let expected: Vec<u64> =
            (0..500u64).filter(|_| crate::sampling::UpdateSampler::keep(rate, &mut rng)).collect();
        assert_eq!(scanned, expected);
    }

    #[test]
    fn sampled_rate_zero_scans_nothing() {
        // rate 0 must keep nothing — under the old `<=` comparison each key
        // still survived with probability 2⁻⁶⁴.
        let many: Vec<(u64, f64)> = (0..50u64).map(|k| (k, 100.0)).collect();
        let mut det =
            SketchChangeDetector::new(config(KeyStrategy::Sampled { rate: 0.0, seed: 5 }));
        det.process_interval(&many);
        let r = det.process_interval(&many);
        assert!(r.warmed_up);
        assert!(r.errors.is_empty(), "rate 0 scanned {:?}", r.errors);
    }

    #[test]
    fn non_finite_errors_reported_not_panicked() {
        // Feeding an infinite value poisons the affected cells: once the
        // forecast also carries inf, the error cells become inf − inf = NaN.
        // The scan must degrade gracefully — count the poisoned keys, keep
        // alarming on the finite ones — not panic (under the supervisor a
        // panic here is a poison pill: the checkpoint restores the same
        // state and every restart dies on the same interval).
        let mut det = SketchChangeDetector::new(config(KeyStrategy::TwoPass));
        let poisoned = vec![(1u64, f64::INFINITY), (2, 5_000.0), (3, 800.0)];
        det.process_interval(&poisoned);
        let snap = det.snapshot();
        let r = det.process_interval(&poisoned);
        assert!(r.warmed_up);
        assert!(r.non_finite_errors > 0, "expected poisoned keys: {r:?}");
        assert!(r.errors.iter().all(|(_, e)| e.is_finite()));
        assert!(r.alarms.iter().all(|a| a.estimated_error.is_finite()));

        // The poison-pill scenario: a checkpoint taken *before* the fatal
        // interval restores to the same state — reprocessing the same
        // input must again yield a report, not a panic, or a supervised
        // restart loop would burn its whole budget re-dying here.
        let mut restored =
            SketchChangeDetector::restore(det.config().clone(), snap).expect("restore");
        let r2 = restored.process_interval(&poisoned);
        // `error_f2` is NaN here, and NaN != NaN under PartialEq — compare
        // the floats by bit pattern to assert bit-identical degradation.
        assert_eq!(r.error_f2.to_bits(), r2.error_f2.to_bits());
        assert_eq!(r.alarm_threshold.to_bits(), r2.alarm_threshold.to_bits());
        assert_eq!(
            (r.interval, &r.alarms, &r.errors, r.non_finite_errors),
            (r2.interval, &r2.alarms, &r2.errors, r2.non_finite_errors),
            "restored detector must reproduce the degraded report"
        );
        // And the detector remains usable on later (finite) intervals.
        let r3 = restored.process_interval(&[(1, 100.0), (2, 5_000.0), (3, 800.0)]);
        assert!(r3.warmed_up);
    }

    #[test]
    fn duplicate_keys_scanned_once() {
        let mut det = SketchChangeDetector::new(config(KeyStrategy::TwoPass));
        det.process_interval(&[(5, 10.0), (5, 20.0)]);
        let r = det.process_interval(&[(5, 10.0), (5, 20.0), (5, 5.0)]);
        assert_eq!(r.errors.len(), 1, "key 5 must appear once: {:?}", r.errors);
    }

    #[test]
    fn threshold_scales_alarm_count() {
        // Lower T ⇒ at least as many alarms.
        let items_base: Vec<(u64, f64)> = (0..100u64).map(|k| (k, 1000.0)).collect();
        let mut items_spiky = items_base.clone();
        for (i, item) in items_spiky.iter_mut().take(10).enumerate() {
            item.1 = 5_000.0 + 1_000.0 * i as f64;
        }
        let run = |t: f64| -> usize {
            let mut cfg = config(KeyStrategy::TwoPass);
            cfg.threshold = t;
            let mut det = SketchChangeDetector::new(cfg);
            det.process_interval(&items_base);
            det.process_interval(&items_base);
            det.process_interval(&items_spiky).alarms.len()
        };
        let low = run(0.01);
        let high = run(0.3);
        assert!(low >= high, "T=0.01 gave {low} alarms, T=0.3 gave {high}");
        assert!(high >= 1, "clear spikes should alarm even at high T");
    }

    #[test]
    #[should_panic(expected = "threshold parameter T must be positive")]
    fn rejects_nonpositive_threshold() {
        let mut cfg = config(KeyStrategy::TwoPass);
        cfg.threshold = 0.0;
        let _ = SketchChangeDetector::new(cfg);
    }

    #[test]
    fn snapshot_restore_reports_identical() {
        for strategy in [
            KeyStrategy::TwoPass,
            KeyStrategy::NextInterval,
            KeyStrategy::Sampled { rate: 0.5, seed: 3 },
        ] {
            let mut original = SketchChangeDetector::new(config(strategy));
            for t in 0..3 {
                original.process_interval(&spike_stream(t));
            }
            let snap = original.snapshot();
            let mut restored =
                SketchChangeDetector::restore(original.config().clone(), snap).expect("restore");
            for t in 3..7 {
                let a = original.process_interval(&spike_stream(t));
                let b = restored.process_interval(&spike_stream(t));
                assert_eq!(a, b, "{strategy:?} diverged at t={t}");
            }
        }
    }

    #[test]
    fn restore_rejects_foreign_hash_family() {
        let mut det = SketchChangeDetector::new(config(KeyStrategy::TwoPass));
        for t in 0..3 {
            det.process_interval(&spike_stream(t));
        }
        let snap = det.snapshot();
        let mut other = config(KeyStrategy::TwoPass);
        other.sketch.seed = 1234; // different family, same shape
        match SketchChangeDetector::restore(other, snap) {
            Err(RestoreError::FamilyMismatch) => {}
            other => panic!("expected FamilyMismatch, got {other:?}"),
        }
    }

    #[test]
    fn negative_changes_alarm_too() {
        // An outage (traffic drops to zero) is a change with negative error.
        let mut det = SketchChangeDetector::new(config(KeyStrategy::TwoPass));
        let busy = vec![(1u64, 50_000.0), (2, 900.0), (3, 800.0)];
        let outage = vec![(1u64, 0.0), (2, 900.0), (3, 800.0)];
        det.process_interval(&busy);
        det.process_interval(&busy);
        let r = det.process_interval(&outage);
        let alarm = r.alarms.iter().find(|a| a.key == 1).expect("outage alarm");
        assert!(alarm.estimated_error < 0.0, "outage error should be negative");
    }
}
