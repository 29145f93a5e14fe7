//! Durable checkpoints of a running detector, for crash recovery.
//!
//! A checkpoint is a single self-describing binary blob holding everything
//! needed to resume a streaming detector exactly where it left off: the
//! [`DetectorConfig`] (so a restored run cannot silently diverge from the
//! config it was started with), the [`DetectorSnapshot`] (model state,
//! pending error sketch, sampler state, interval counter), and the
//! streaming binner's position (the event-time index of the interval being
//! accumulated and the running record count).
//!
//! Body inside the `SCDCKPT2` file envelope (`scd_hash::envelope`; all
//! integers little-endian):
//!
//! ```text
//! h: u32, k: u32, seed: u64               sketch shape
//! model: u32 len + utf-8 compact spec     e.g. "nshw:0.2,0.4"
//! threshold: f64
//! key strategy: u8 tag (+ rate f64 + seed u64 for Sampled)
//! intervals_processed: u64
//! sampler_state: u64
//! pending_error: u8 flag (+ interval u64 + sketch blob)
//! model state: u8 tag + variant payload   (sketch blobs are u64 len +
//!                                          scd-sketch wire bytes)
//! binner: u8 flag (+ next_interval u64), processed: u64
//! staggered: u8 flag, always 0           (a retired section: a set flag
//!                                          is refused as malformed)
//! glr: u8 flag (+ GlrConfig + GlrEngineSnapshot)
//! ```
//!
//! The envelope's CRC-32 means any single-byte corruption anywhere in the
//! file is detected before any state is trusted; each embedded sketch blob
//! additionally carries its own wire-format checksum. Writes are atomic,
//! so a crash mid-write leaves the previous checkpoint intact — the
//! supervisor never sees a torn file. A run without GLR writes two zero
//! flag bytes for the last two sections.

use crate::detector::{
    DetectorConfig, DetectorSnapshot, KeyStrategy, RestoreError, SketchChangeDetector,
};
use crate::engine::GlrEngineSnapshot;
use crate::glr::{GlrConfig, GlrSlotSnapshot, GlrSnapshot, ProvisionalAlarm};
use scd_forecast::{ModelSpec, ModelState, NshwParts, ShwParts};
use scd_hash::byteio::{self, Cursor};
use scd_hash::envelope::{
    self, bounded_count, flag, keys as take_keys, opt_u64, put_flag, put_keys, put_opt_u64,
    BadField, SealError,
};
use scd_hash::HashRows;
use scd_sketch::{wire, KarySketch, SketchConfig};
use std::path::Path;
use std::sync::Arc;

/// File magic of the checkpoint format.
pub const MAGIC: &[u8; 8] = b"SCDCKPT2";

/// Everything needed to resume a streaming detector after a crash.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The detector's configuration at checkpoint time.
    pub config: DetectorConfig,
    /// The detector's mutable state.
    pub snapshot: DetectorSnapshot,
    /// Event-time index of the interval the streaming binner was
    /// accumulating (`None` if no record had arrived yet). Records binned
    /// into this interval before the crash are the "checkpoint gap" — they
    /// are lost; everything up to the previous flush is not.
    pub next_interval: Option<u64>,
    /// Records processed up to the last completed interval.
    pub processed: u64,
    /// Always `None`: staggered lanes keep no checkpoint state, and their
    /// section's flag byte is written 0. The field remains so that struct
    /// literals naming it still build.
    pub staggered: Option<std::convert::Infallible>,
    /// GLR sequential-layer state (configuration + engine snapshot), when
    /// the run used `--glr`.
    pub glr: Option<(GlrConfig, GlrEngineSnapshot)>,
}

/// Errors from reading or writing checkpoints.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The envelope did not open (wrong magic, truncation, checksum), or
    /// the body ends before its structure does.
    Envelope(SealError),
    /// A structurally invalid field (bad model spec, unknown tag, bad
    /// UTF-8, a count larger than the bytes behind it).
    Malformed(String),
    /// An embedded sketch blob failed to decode.
    Sketch(wire::WireError),
    /// The decoded state was rejected by the detector.
    Restore(RestoreError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::Envelope(e) => write!(f, "checkpoint file: {e}"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::Sketch(e) => write!(f, "embedded sketch: {e}"),
            CheckpointError::Restore(e) => write!(f, "checkpoint rejected: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<SealError> for CheckpointError {
    fn from(e: SealError) -> Self {
        CheckpointError::Envelope(e)
    }
}

impl From<byteio::ShortInput> for CheckpointError {
    fn from(e: byteio::ShortInput) -> Self {
        CheckpointError::Envelope(e.into())
    }
}

impl From<BadField> for CheckpointError {
    fn from(e: BadField) -> Self {
        CheckpointError::Malformed(e.0.into())
    }
}

impl From<wire::WireError> for CheckpointError {
    fn from(e: wire::WireError) -> Self {
        CheckpointError::Sketch(e)
    }
}

fn put_sketch(out: &mut Vec<u8>, sketch: &KarySketch) {
    envelope::put_blob(out, &wire::to_bytes(sketch));
}

fn take_sketch(cur: &mut Cursor<'_>, rows: &Arc<HashRows>) -> Result<KarySketch, CheckpointError> {
    Ok(wire::from_bytes_with_rows(envelope::blob(cur)?, rows)?)
}

fn put_opt_sketch(out: &mut Vec<u8>, sketch: Option<&KarySketch>) {
    put_flag(out, sketch.is_some());
    if let Some(s) = sketch {
        put_sketch(out, s);
    }
}

fn take_opt_sketch(
    cur: &mut Cursor<'_>,
    rows: &Arc<HashRows>,
) -> Result<Option<KarySketch>, CheckpointError> {
    flag(cur)?.then(|| take_sketch(cur, rows)).transpose()
}

fn put_sketch_vec(out: &mut Vec<u8>, sketches: &[KarySketch]) {
    byteio::put_u64(out, sketches.len() as u64);
    for s in sketches {
        put_sketch(out, s);
    }
}

fn take_sketch_vec(
    cur: &mut Cursor<'_>,
    rows: &Arc<HashRows>,
) -> Result<Vec<KarySketch>, CheckpointError> {
    (0..bounded_count(cur, 1)?).map(|_| take_sketch(cur, rows)).collect()
}

fn put_model_state(out: &mut Vec<u8>, state: &ModelState<KarySketch>) {
    match state {
        ModelState::Ma { history } => {
            byteio::put_u8(out, 0);
            put_sketch_vec(out, history);
        }
        ModelState::Sma { history } => {
            byteio::put_u8(out, 1);
            put_sketch_vec(out, history);
        }
        ModelState::Ewma { forecast } => {
            byteio::put_u8(out, 2);
            put_opt_sketch(out, forecast.as_ref());
        }
        ModelState::Nshw { first, state } => {
            byteio::put_u8(out, 3);
            put_opt_sketch(out, first.as_ref());
            put_flag(out, state.is_some());
            if let Some(p) = state {
                put_sketch(out, &p.level);
                put_sketch(out, &p.trend);
                put_sketch(out, &p.forecast);
            }
        }
        ModelState::Arima { x_hist, e_hist, observed_count } => {
            byteio::put_u8(out, 4);
            put_sketch_vec(out, x_hist);
            put_sketch_vec(out, e_hist);
            byteio::put_u64(out, *observed_count);
        }
        ModelState::Shw { init, state } => {
            byteio::put_u8(out, 5);
            put_sketch_vec(out, init);
            put_flag(out, state.is_some());
            if let Some(p) = state {
                put_sketch(out, &p.level);
                put_sketch(out, &p.trend);
                put_sketch_vec(out, &p.season);
                byteio::put_u64(out, p.phase as u64);
            }
        }
    }
}

fn take_model_state(
    cur: &mut Cursor<'_>,
    rows: &Arc<HashRows>,
) -> Result<ModelState<KarySketch>, CheckpointError> {
    match cur.u8()? {
        0 => Ok(ModelState::Ma { history: take_sketch_vec(cur, rows)? }),
        1 => Ok(ModelState::Sma { history: take_sketch_vec(cur, rows)? }),
        2 => Ok(ModelState::Ewma { forecast: take_opt_sketch(cur, rows)? }),
        3 => {
            let first = take_opt_sketch(cur, rows)?;
            let state = if flag(cur)? {
                Some(NshwParts {
                    level: take_sketch(cur, rows)?,
                    trend: take_sketch(cur, rows)?,
                    forecast: take_sketch(cur, rows)?,
                })
            } else {
                None
            };
            Ok(ModelState::Nshw { first, state })
        }
        4 => Ok(ModelState::Arima {
            x_hist: take_sketch_vec(cur, rows)?,
            e_hist: take_sketch_vec(cur, rows)?,
            observed_count: cur.u64()?,
        }),
        5 => {
            let init = take_sketch_vec(cur, rows)?;
            let state = if flag(cur)? {
                Some(ShwParts {
                    level: take_sketch(cur, rows)?,
                    trend: take_sketch(cur, rows)?,
                    season: take_sketch_vec(cur, rows)?,
                    phase: cur.u64()? as usize,
                })
            } else {
                None
            };
            Ok(ModelState::Shw { init, state })
        }
        other => Err(CheckpointError::Malformed(format!("model state tag {other}"))),
    }
}

fn put_f64_slice(out: &mut Vec<u8>, xs: &[f64]) {
    for &x in xs {
        byteio::put_f64(out, x);
    }
}

fn take_f64_vec(cur: &mut Cursor<'_>, n: usize) -> Result<Vec<f64>, CheckpointError> {
    (0..n).map(|_| Ok(cur.f64()?)).collect()
}

fn put_detector_snapshot(out: &mut Vec<u8>, snap: &DetectorSnapshot) {
    byteio::put_u64(out, snap.intervals_processed);
    byteio::put_u64(out, snap.sampler_state);
    put_flag(out, snap.pending_error.is_some());
    if let Some((t, s)) = &snap.pending_error {
        byteio::put_u64(out, *t);
        put_sketch(out, s);
    }
    put_model_state(out, &snap.model);
}

fn take_detector_snapshot(
    cur: &mut Cursor<'_>,
    rows: &Arc<HashRows>,
) -> Result<DetectorSnapshot, CheckpointError> {
    let intervals_processed = cur.u64()?;
    let sampler_state = cur.u64()?;
    let pending_error = if flag(cur)? { Some((cur.u64()?, take_sketch(cur, rows)?)) } else { None };
    let model = take_model_state(cur, rows)?;
    Ok(DetectorSnapshot { intervals_processed, sampler_state, pending_error, model })
}

fn put_glr_slot(out: &mut Vec<u8>, slot: &GlrSlotSnapshot) {
    put_f64_slice(out, &slot.proj);
    put_sketch(out, &slot.sketch);
    put_keys(out, &slot.keys);
}

fn take_glr_slot(
    cur: &mut Cursor<'_>,
    rows: &Arc<HashRows>,
    projections: usize,
) -> Result<GlrSlotSnapshot, CheckpointError> {
    Ok(GlrSlotSnapshot {
        proj: take_f64_vec(cur, projections)?,
        sketch: take_sketch(cur, rows)?,
        keys: take_keys(cur)?,
    })
}

fn put_alarm(out: &mut Vec<u8>, alarm: &ProvisionalAlarm) {
    put_opt_u64(out, alarm.key_hint);
    byteio::put_u64(out, alarm.onset_slot);
    byteio::put_u64(out, alarm.raised_slot);
    byteio::put_f64(out, alarm.statistic);
    byteio::put_u64(out, alarm.window as u64);
}

fn take_alarm(cur: &mut Cursor<'_>) -> Result<ProvisionalAlarm, CheckpointError> {
    Ok(ProvisionalAlarm {
        key_hint: opt_u64(cur)?,
        onset_slot: cur.u64()?,
        raised_slot: cur.u64()?,
        statistic: cur.f64()?,
        window: cur.u64()? as usize,
    })
}

fn put_glr(out: &mut Vec<u8>, config: &GlrConfig, snap: &GlrEngineSnapshot) {
    byteio::put_u32(out, config.sketch.h as u32);
    byteio::put_u32(out, config.sketch.k as u32);
    byteio::put_u64(out, config.sketch.seed);
    byteio::put_u32(out, config.projections as u32);
    byteio::put_u32(out, config.max_window as u32);
    byteio::put_f64(out, config.threshold);
    byteio::put_u32(out, config.min_baseline as u32);
    byteio::put_u64(out, config.hint_keys as u64);
    byteio::put_u64(out, config.cooldown as u64);
    let det = &snap.detector;
    byteio::put_u64(out, det.slot);
    byteio::put_u64(out, det.cooldown_left);
    byteio::put_u64(out, det.base_count);
    put_f64_slice(out, &det.base_mean);
    put_f64_slice(out, &det.base_m2);
    put_sketch(out, &det.base_sketch);
    byteio::put_u64(out, det.window.len() as u64);
    for slot in &det.window {
        put_glr_slot(out, slot);
    }
    put_glr_slot(out, &det.cur);
    byteio::put_u64(out, snap.pending.len() as u64);
    for (interval, alarm) in &snap.pending {
        byteio::put_u64(out, *interval);
        put_alarm(out, alarm);
    }
    byteio::put_u64(out, snap.closes.len() as u64);
    for &(interval, slot) in &snap.closes {
        byteio::put_u64(out, interval);
        byteio::put_u64(out, slot);
    }
    byteio::put_u64(out, snap.ingest_interval);
}

fn take_glr(cur: &mut Cursor<'_>) -> Result<(GlrConfig, GlrEngineSnapshot), CheckpointError> {
    let h = cur.u32()? as usize;
    let k = cur.u32()? as usize;
    let seed = cur.u64()?;
    let projections = cur.u32()? as usize;
    let max_window = cur.u32()? as usize;
    let threshold = cur.f64()?;
    let min_baseline = cur.u32()? as usize;
    let hint_keys = cur.u64()? as usize;
    let cooldown = cur.u64()? as usize;
    // Reject shapes GlrConfig::validate would panic on: a corrupt-but-
    // CRC-valid file must surface as a typed error, never a panic.
    if !(1..=64).contains(&projections)
        || max_window == 0
        || min_baseline < 2
        || hint_keys == 0
        || !(threshold.is_finite() && threshold > 0.0)
    {
        return Err(CheckpointError::Malformed("GLR section shape".into()));
    }
    let config = GlrConfig {
        sketch: SketchConfig { h, k, seed },
        projections,
        max_window,
        threshold,
        min_baseline,
        hint_keys,
        cooldown,
    };
    let rows = HashRows::shared(h, k, seed);
    let slot = cur.u64()?;
    let cooldown_left = cur.u64()?;
    let base_count = cur.u64()?;
    let base_mean = take_f64_vec(cur, projections)?;
    let base_m2 = take_f64_vec(cur, projections)?;
    let base_sketch = take_sketch(cur, &rows)?;
    let window = (0..bounded_count(cur, 1)?)
        .map(|_| take_glr_slot(cur, &rows, projections))
        .collect::<Result<Vec<_>, CheckpointError>>()?;
    let cur_slot = take_glr_slot(cur, &rows, projections)?;
    let pending = (0..bounded_count(cur, 1)?)
        .map(|_| Ok((cur.u64()?, take_alarm(cur)?)))
        .collect::<Result<Vec<_>, CheckpointError>>()?;
    let closes = (0..bounded_count(cur, 16)?)
        .map(|_| Ok((cur.u64()?, cur.u64()?)))
        .collect::<Result<Vec<_>, CheckpointError>>()?;
    let ingest_interval = cur.u64()?;
    let detector = GlrSnapshot {
        slot,
        cooldown_left,
        base_count,
        base_mean,
        base_m2,
        base_sketch,
        window,
        cur: cur_slot,
    };
    Ok((config, GlrEngineSnapshot { detector, pending, closes, ingest_interval }))
}

impl Checkpoint {
    /// Serializes the checkpoint, envelope included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        byteio::put_u32(&mut out, self.config.sketch.h as u32);
        byteio::put_u32(&mut out, self.config.sketch.k as u32);
        byteio::put_u64(&mut out, self.config.sketch.seed);
        let spec = self.config.model.compact();
        byteio::put_u32(&mut out, spec.len() as u32);
        out.extend_from_slice(spec.as_bytes());
        byteio::put_f64(&mut out, self.config.threshold);
        match self.config.key_strategy {
            KeyStrategy::TwoPass => byteio::put_u8(&mut out, 0),
            KeyStrategy::NextInterval => byteio::put_u8(&mut out, 1),
            KeyStrategy::Sampled { rate, seed } => {
                byteio::put_u8(&mut out, 2);
                byteio::put_f64(&mut out, rate);
                byteio::put_u64(&mut out, seed);
            }
        }
        put_detector_snapshot(&mut out, &self.snapshot);
        put_opt_u64(&mut out, self.next_interval);
        byteio::put_u64(&mut out, self.processed);
        put_flag(&mut out, false);
        put_flag(&mut out, self.glr.is_some());
        if let Some((config, snap)) = &self.glr {
            put_glr(&mut out, config, snap);
        }
        envelope::seal(&mut out);
        out
    }

    /// Parses a checkpoint, opening the envelope before trusting any field.
    pub fn from_bytes(data: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut cur = Cursor::new(envelope::open(MAGIC, data)?);
        let h = cur.u32()? as usize;
        let k = cur.u32()? as usize;
        let seed = cur.u64()?;
        let spec_len = cur.u32()? as usize;
        let spec_bytes = cur.take(spec_len)?;
        let spec_text = std::str::from_utf8(spec_bytes)
            .map_err(|_| CheckpointError::Malformed("model spec is not utf-8".into()))?;
        let model = ModelSpec::parse(spec_text)
            .map_err(|e| CheckpointError::Malformed(format!("model spec: {e}")))?;
        let threshold = cur.f64()?;
        let key_strategy = match cur.u8()? {
            0 => KeyStrategy::TwoPass,
            1 => KeyStrategy::NextInterval,
            2 => KeyStrategy::Sampled { rate: cur.f64()?, seed: cur.u64()? },
            other => return Err(CheckpointError::Malformed(format!("key strategy tag {other}"))),
        };
        let config =
            DetectorConfig { sketch: SketchConfig { h, k, seed }, model, threshold, key_strategy };
        // The config's family for every embedded sketch: decoding through
        // `from_bytes_with_rows` enforces that each blob matches it.
        let rows = HashRows::shared(h, k, seed);
        let snapshot = take_detector_snapshot(&mut cur, &rows)?;
        let next_interval = opt_u64(&mut cur)?;
        let processed = cur.u64()?;
        if flag(&mut cur)? {
            return Err(CheckpointError::Malformed("a staggered-lane section".into()));
        }
        let glr = flag(&mut cur)?.then(|| take_glr(&mut cur)).transpose()?;
        if cur.remaining() != 0 {
            return Err(CheckpointError::Malformed(format!("{} trailing bytes", cur.remaining())));
        }
        Ok(Checkpoint { config, snapshot, next_interval, processed, staggered: None, glr })
    }

    /// Writes the checkpoint atomically (`scd_hash::envelope::write_atomic`):
    /// a crash at any point leaves either the old checkpoint or the new
    /// one — never a torn file.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        Ok(envelope::write_atomic(path, &self.to_bytes())?)
    }

    /// Reads and verifies a checkpoint from disk.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Checkpoint::from_bytes(&bytes)
    }

    /// Rebuilds the detector this checkpoint describes.
    pub fn restore_detector(&self) -> Result<SketchChangeDetector, CheckpointError> {
        SketchChangeDetector::restore(self.config.clone(), self.snapshot.clone())
            .map_err(CheckpointError::Restore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::KeyStrategy;
    use scd_forecast::ModelSpec;

    fn sample_checkpoint(model: ModelSpec, strategy: KeyStrategy) -> Checkpoint {
        let config = DetectorConfig {
            sketch: SketchConfig { h: 3, k: 256, seed: 11 },
            model,
            threshold: 0.05,
            key_strategy: strategy,
        };
        let mut det = SketchChangeDetector::new(config.clone());
        for t in 0..6 {
            let items: Vec<(u64, f64)> =
                (0..20u64).map(|k| (k, 100.0 + (t * 7 + k as usize) as f64)).collect();
            det.process_interval(&items);
        }
        Checkpoint {
            config,
            snapshot: det.snapshot(),
            next_interval: Some(6),
            processed: 120,
            staggered: None,
            glr: None,
        }
    }

    fn all_cases() -> Vec<Checkpoint> {
        use scd_forecast::ArimaSpec;
        vec![
            sample_checkpoint(ModelSpec::Ewma { alpha: 0.5 }, KeyStrategy::TwoPass),
            sample_checkpoint(ModelSpec::Ma { window: 3 }, KeyStrategy::NextInterval),
            sample_checkpoint(ModelSpec::Sma { window: 4 }, KeyStrategy::TwoPass),
            sample_checkpoint(
                ModelSpec::Nshw { alpha: 0.4, beta: 0.3 },
                KeyStrategy::Sampled { rate: 0.5, seed: 9 },
            ),
            sample_checkpoint(
                ModelSpec::Arima(ArimaSpec::new(1, &[0.5], &[0.2]).unwrap()),
                KeyStrategy::TwoPass,
            ),
            sample_checkpoint(
                ModelSpec::Shw { alpha: 0.4, beta: 0.2, gamma: 0.3, period: 3 },
                KeyStrategy::TwoPass,
            ),
        ]
    }

    #[test]
    fn round_trip_preserves_everything() {
        for ck in all_cases() {
            let decoded = Checkpoint::from_bytes(&ck.to_bytes()).expect("decode");
            assert_eq!(decoded.config, ck.config);
            assert_eq!(decoded.next_interval, ck.next_interval);
            assert_eq!(decoded.processed, ck.processed);
            assert_eq!(decoded.snapshot.intervals_processed, ck.snapshot.intervals_processed);
            assert_eq!(decoded.snapshot.sampler_state, ck.snapshot.sampler_state);
            // Restored detectors behave identically (the real invariant).
            let mut a = ck.restore_detector().expect("restore original");
            let mut b = decoded.restore_detector().expect("restore decoded");
            for t in 0..4 {
                let items: Vec<(u64, f64)> =
                    (0..20u64).map(|k| (k, 50.0 * (t + 1) as f64 + k as f64)).collect();
                assert_eq!(a.process_interval(&items), b.process_interval(&items));
            }
        }
    }

    #[test]
    fn wrong_magic_is_typed() {
        let ck = sample_checkpoint(ModelSpec::Ewma { alpha: 0.5 }, KeyStrategy::TwoPass);
        let mut bytes = ck.to_bytes();
        bytes[..8].copy_from_slice(b"SCDTRC02");
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Envelope(SealError::BadMagic))
        ));
    }

    /// Sibling checkpoints differing only by extension (`det.ckpt`,
    /// `det.state`) must not share a temp file: concurrent atomic writes
    /// never cross-contaminate or clobber each other.
    #[test]
    fn sibling_checkpoints_use_distinct_temp_files() {
        let dir = std::env::temp_dir().join("scd-checkpoint-siblings");
        std::fs::create_dir_all(&dir).unwrap();
        let path_a = dir.join("det.ckpt");
        let path_b = dir.join("det.state");
        let ck_a = sample_checkpoint(ModelSpec::Ewma { alpha: 0.3 }, KeyStrategy::TwoPass);
        let ck_b = sample_checkpoint(ModelSpec::Ma { window: 4 }, KeyStrategy::TwoPass);
        std::thread::scope(|s| {
            let (a, b) = (&ck_a, &ck_b);
            let (pa, pb) = (&path_a, &path_b);
            s.spawn(move || {
                for _ in 0..20 {
                    a.write_atomic(pa).expect("write det.ckpt");
                }
            });
            s.spawn(move || {
                for _ in 0..20 {
                    b.write_atomic(pb).expect("write det.state");
                }
            });
        });
        assert_eq!(Checkpoint::load(&path_a).expect("load det.ckpt").config, ck_a.config);
        assert_eq!(Checkpoint::load(&path_b).expect("load det.state").config, ck_b.config);
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }

    #[test]
    fn mid_write_crash_leaves_previous_checkpoint_intact() {
        // Simulate a kill between tmp-write and rename: a good checkpoint
        // is on disk, and the crash left behind a partial/garbage `.tmp`
        // next to it. Recovery must read the previous checkpoint
        // unharmed, and the next atomic write must still land.
        let dir = std::env::temp_dir().join("scd-checkpoint-crash-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("det.ckpt");
        let good = sample_checkpoint(ModelSpec::Ewma { alpha: 0.3 }, KeyStrategy::TwoPass);
        good.write_atomic(&path).expect("write good checkpoint");

        // The interrupted writer got partway into the next snapshot: its
        // tmp file holds a truncated prefix of a real serialization.
        let next = sample_checkpoint(ModelSpec::Ma { window: 5 }, KeyStrategy::TwoPass);
        let torn = &next.to_bytes()[..200];
        let tmp = dir.join("det.ckpt.tmp");
        std::fs::write(&tmp, torn).expect("plant torn tmp file");

        // load() goes to `path`, never the tmp: the good checkpoint wins.
        let recovered = Checkpoint::load(&path).expect("recover previous checkpoint");
        assert_eq!(recovered.config, good.config);
        assert_eq!(recovered.processed, good.processed);

        // A later write overwrites the stale tmp and replaces the file.
        next.write_atomic(&path).expect("write after crash");
        assert_eq!(Checkpoint::load(&path).expect("reload").config, next.config);
        assert!(!tmp.exists(), "the rename must consume the tmp file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_v1_magic_is_rejected() {
        // The pre-GLR layout (old magic, no section flags) is not read,
        // even re-sealed with a matching checksum.
        let ck = sample_checkpoint(ModelSpec::Ewma { alpha: 0.5 }, KeyStrategy::TwoPass);
        let bytes = ck.to_bytes();
        let mut v1 = b"SCDCKPT1".to_vec();
        v1.extend_from_slice(&bytes[8..bytes.len() - 6]);
        envelope::seal(&mut v1);
        assert!(matches!(
            Checkpoint::from_bytes(&v1),
            Err(CheckpointError::Envelope(SealError::BadMagic))
        ));
    }

    fn slot_items(s: u64) -> Vec<(u64, f64)> {
        (0..25u64).map(|k| (k, 100.0 + ((s * 13 + k) % 40) as f64)).collect()
    }

    fn sample_v2_checkpoint() -> Checkpoint {
        use crate::glr::GlrDetector;
        let mut base = sample_checkpoint(ModelSpec::Ewma { alpha: 0.5 }, KeyStrategy::TwoPass);
        // GLR layer caught mid-slot, with a pending provisional queued.
        let glr_cfg = GlrConfig {
            sketch: SketchConfig { h: 3, k: 512, seed: 0x5CD },
            projections: 8,
            max_window: 4,
            threshold: 16.0,
            min_baseline: 4,
            hint_keys: 1024,
            cooldown: 8,
        };
        let mut glr = GlrDetector::new(glr_cfg.clone());
        for s in 0..11u64 {
            glr.observe_slice(&slot_items(s));
            glr.end_slot();
        }
        glr.observe(99, 1234.5); // half-open slot
        let snap = GlrEngineSnapshot {
            detector: glr.snapshot(),
            pending: vec![(
                2,
                ProvisionalAlarm {
                    key_hint: Some(777),
                    onset_slot: 9,
                    raised_slot: 10,
                    statistic: 42.5,
                    window: 2,
                },
            )],
            closes: vec![(1, 4), (2, 8)],
            ingest_interval: 2,
        };
        base.glr = Some((glr_cfg, snap));
        base
    }

    #[test]
    fn v2_round_trip_preserves_the_glr_section() {
        use crate::glr::GlrDetector;
        let ck = sample_v2_checkpoint();
        let bytes = ck.to_bytes();
        assert_eq!(&bytes[..8], MAGIC);
        let decoded = Checkpoint::from_bytes(&bytes).expect("decode v2");

        // The engine-side bookkeeping round-trips field for field.
        let (glr_cfg, glr_snap) = decoded.glr.as_ref().expect("GLR section");
        let (ref_cfg, ref_snap) = ck.glr.as_ref().unwrap();
        assert_eq!(glr_cfg, ref_cfg);
        assert_eq!(glr_snap.pending, ref_snap.pending);
        assert_eq!(glr_snap.closes, ref_snap.closes);
        assert_eq!(glr_snap.ingest_interval, ref_snap.ingest_interval);

        // Behavioral bit-exactness: detectors restored from the decoded
        // and the in-memory snapshots emit identical alarms forever after.
        let mut a = GlrDetector::restore(ref_cfg.clone(), ref_snap.detector.clone())
            .expect("restore reference GLR");
        let mut b = GlrDetector::restore(glr_cfg.clone(), glr_snap.detector.clone())
            .expect("restore decoded GLR");
        for s in 11..30u64 {
            let mut items = slot_items(s);
            if s >= 20 {
                items.push((777, 50_000.0));
            }
            a.observe_slice(&items);
            b.observe_slice(&items);
            assert_eq!(a.end_slot(), b.end_slot(), "GLR diverged at slot {s}");
        }
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir().join("scd-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("det.ckpt");
        let ck = sample_checkpoint(ModelSpec::Ewma { alpha: 0.3 }, KeyStrategy::TwoPass);
        ck.write_atomic(&path).expect("write");
        // Overwrite with a second checkpoint; the rename must replace.
        let ck2 = sample_checkpoint(ModelSpec::Ma { window: 5 }, KeyStrategy::TwoPass);
        ck2.write_atomic(&path).expect("overwrite");
        let loaded = Checkpoint::load(&path).expect("load");
        assert_eq!(loaded.config, ck2.config);
        std::fs::remove_file(&path).ok();
    }
}
