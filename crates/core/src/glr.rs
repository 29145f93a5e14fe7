//! Sub-interval GLR sequential change detection — low-latency provisional
//! alarms raised *inside* the interval, confirmed or retracted by the
//! interval-close detector.
//!
//! Every detector in this repo reports at interval close, so a DoS onset
//! pays the full interval (60 s/300 s) of detection latency. Following
//! *Sketching for Sequential Change-Point Detection* (Cao et al.), this
//! module watches a handful of **random ±1 projections** of the update
//! stream at *base-slot* granularity (an interval is `slots` base slots,
//! exactly the staggered-lane slotting of [`crate::staggered`]) and runs a
//! windowed GLR mean-shift statistic over them:
//!
//! ```text
//! x_r(s)  = Σ_updates sign_r(key) · value          (projection r, slot s)
//! G(s)    = max_r max_{w ≤ W} (S_{r,w} − w·μ̂_r)² / (2·w·σ̂_r²)
//! S_{r,w} = Σ_{i=s−w+1..s} x_r(i)
//! ```
//!
//! where `μ̂_r, σ̂_r²` are running baseline moments (Welford) over slots
//! that have aged out of the `W`-slot window. When `G` crosses the
//! threshold, a [`ProvisionalAlarm`] fires carrying the maximizing window
//! `ŵ` (its start is the estimated change onset) and a **key hint**:
//! the per-slot partial sketches are summed over the `ŵ` alarm slots,
//! the per-slot baseline mean sketch is subtracted `ŵ` times (sketch
//! linearity — the same COMBINE trick `StaggeredDetector` uses), and the
//! logged slot keys are scored against that window-delta sketch.
//!
//! The layer is **contractually invisible**: it observes updates but never
//! touches the interval detector's sketches, RNG, or key stream, so
//! [`crate::detector::IntervalReport`]s are bit-identical with GLR on or
//! off (`tests/glr_invisibility.rs`). Confirm/retract bookkeeping against
//! interval reports lives in the engine ([`crate::engine::ShardedEngine`]),
//! which tags each provisional with the interval that was being ingested
//! and matches its key hint against that interval's close-time alarms.
//!
//! Everything here is a pure function of the observed update/slot
//! sequence — no wall clock, no global RNG — so a checkpointed detector
//! resumes mid-window bit-exactly ([`GlrDetector::snapshot`]).

use scd_hash::{mix64, HashRows, MixBuildHasher};
use scd_sketch::{KarySketch, SketchConfig};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Domain-separation salt for the projection sign hash, mixed with the
/// sketch seed so GLR signs are independent of the sketch's hash family.
const PROJ_SALT: u64 = 0x6752_4C52_5F73_6C74;

/// Variance floor for the GLR denominator: keeps a literally-constant
/// baseline (exact integer slots) from producing `0/0 = NaN` while still
/// letting any real deviation dominate.
const VAR_FLOOR: f64 = 1e-12;

/// Configuration of the sequential GLR layer.
#[derive(Debug, Clone, PartialEq)]
pub struct GlrConfig {
    /// Hash family for the per-slot partial sketches used for key hints.
    /// Deliberately small — these are slot-lifetime scratch sketches, not
    /// the detection sketch.
    pub sketch: SketchConfig,
    /// Number of ±1 projections (1..=64; all signs for one key come from
    /// a single 64-bit mix).
    pub projections: usize,
    /// Maximum GLR window `W` in base slots; also the size of the slot
    /// ring buffer.
    pub max_window: usize,
    /// Alarm threshold on the GLR statistic (units of squared standard
    /// deviations over two).
    pub threshold: f64,
    /// Baseline slots (aged out of the window) required before the
    /// statistic is armed; must be ≥ 2 so a sample variance exists.
    pub min_baseline: usize,
    /// Cap on distinct keys logged per slot for key-hint scoring.
    pub hint_keys: usize,
    /// Slots to suppress further alarms after one fires. A change that
    /// persists would otherwise re-fire every slot until it ages into the
    /// baseline; the cooldown makes the event stream one alarm per onset.
    pub cooldown: usize,
}

impl GlrConfig {
    /// A reasonable default configuration at the given threshold: 8
    /// projections, 8-slot window, 8 baseline slots, a small `h=3, k=1024`
    /// hint-sketch family derived from `seed`.
    pub fn new(threshold: f64, seed: u64) -> Self {
        GlrConfig {
            sketch: SketchConfig { h: 3, k: 1024, seed },
            projections: 8,
            max_window: 8,
            threshold,
            min_baseline: 8,
            hint_keys: 4096,
            cooldown: 8,
        }
    }

    fn validate(&self) {
        assert!(
            (1..=64).contains(&self.projections),
            "GLR projections must be in 1..=64 (one 64-bit mix supplies all signs)"
        );
        assert!(self.max_window >= 1, "GLR max_window must be at least one slot");
        assert!(self.min_baseline >= 2, "GLR min_baseline must be >= 2 (sample variance)");
        assert!(
            self.threshold.is_finite() && self.threshold > 0.0,
            "GLR threshold must be finite and positive"
        );
        assert!(self.hint_keys >= 1, "GLR hint_keys must be at least 1");
    }
}

/// A provisional alarm raised by the sequential statistic mid-interval,
/// awaiting confirmation or retraction at interval close.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisionalAlarm {
    /// The key the window-delta sketch blames most (largest absolute
    /// estimated change over the alarm window); `None` if the alarm
    /// window logged no keys.
    pub key_hint: Option<u64>,
    /// Base-slot index (0-based, global) where the maximizing window
    /// starts — the estimated change onset.
    pub onset_slot: u64,
    /// Base-slot index whose close raised the alarm.
    pub raised_slot: u64,
    /// Value of the GLR statistic at the firing slot.
    pub statistic: f64,
    /// The maximizing window length `ŵ` in slots.
    pub window: usize,
}

/// Lifecycle events of provisional alarms, drained from the engine via
/// [`crate::engine::ShardedEngine::take_glr_events`].
#[derive(Debug, Clone, PartialEq)]
pub enum GlrEvent {
    /// The sequential statistic crossed its threshold mid-interval.
    Provisional {
        /// Interval (0-based ingest index) being accumulated when the
        /// alarm fired.
        interval: u64,
        /// The alarm.
        alarm: ProvisionalAlarm,
    },
    /// The interval-close detector raised an alarm for the hinted key:
    /// the provisional was real.
    Confirmed {
        /// Interval whose close-time report confirmed the alarm.
        interval: u64,
        /// How many base slots before the interval's closing slot the
        /// provisional fired — the detection-latency win.
        lead_slots: u64,
        /// The original provisional alarm.
        alarm: ProvisionalAlarm,
    },
    /// The interval closed without a matching alarm (or the report never
    /// warmed up): the provisional was a false start.
    Retracted {
        /// Interval whose close retracted the alarm.
        interval: u64,
        /// The original provisional alarm.
        alarm: ProvisionalAlarm,
    },
}

/// One sealed base slot: projection values, partial sketch, logged keys.
#[derive(Debug, Clone)]
struct SlotRecord {
    proj: Vec<f64>,
    sketch: KarySketch,
    keys: Vec<u64>,
}

/// Serializable image of one slot's accumulators.
#[derive(Debug, Clone)]
pub struct GlrSlotSnapshot {
    /// Per-projection ±1-signed sums.
    pub proj: Vec<f64>,
    /// Partial sketch of the slot's updates.
    pub sketch: KarySketch,
    /// Distinct keys logged (capped at `hint_keys`), in first-seen order.
    pub keys: Vec<u64>,
}

/// Complete mutable state of a [`GlrDetector`], sufficient to resume
/// mid-window — and mid-slot — bit-exactly.
#[derive(Debug, Clone)]
pub struct GlrSnapshot {
    /// Base slots closed so far.
    pub slot: u64,
    /// Remaining alarm-suppression slots.
    pub cooldown_left: u64,
    /// Slots folded into the baseline.
    pub base_count: u64,
    /// Per-projection baseline means.
    pub base_mean: Vec<f64>,
    /// Per-projection baseline Welford M2 accumulators.
    pub base_m2: Vec<f64>,
    /// Sum of all baseline slot sketches.
    pub base_sketch: KarySketch,
    /// The ring of sealed slots still inside the window, oldest first.
    pub window: Vec<GlrSlotSnapshot>,
    /// The partially accumulated current slot.
    pub cur: GlrSlotSnapshot,
}

/// Errors restoring a [`GlrDetector`] from a snapshot.
#[derive(Debug)]
pub enum GlrRestoreError {
    /// A snapshot field does not fit the configuration.
    Config(String),
    /// An embedded sketch was built from a different hash family than the
    /// configuration derives.
    FamilyMismatch,
}

impl std::fmt::Display for GlrRestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GlrRestoreError::Config(what) => write!(f, "GLR snapshot rejected: {what}"),
            GlrRestoreError::FamilyMismatch => {
                write!(f, "GLR snapshot sketch family differs from the configuration")
            }
        }
    }
}

impl std::error::Error for GlrRestoreError {}

/// The sequential GLR detector: feed it every update, close a base slot
/// with [`end_slot`](Self::end_slot), collect [`ProvisionalAlarm`]s.
pub struct GlrDetector {
    config: GlrConfig,
    rows: Arc<HashRows>,
    proj_salt: u64,
    // Current (open) slot accumulators.
    cur_proj: Vec<f64>,
    cur_sketch: KarySketch,
    cur_keys: Vec<u64>,
    cur_seen: HashSet<u64, MixBuildHasher>,
    cur_dirty: bool,
    // Sealed slots inside the window, oldest first.
    window: VecDeque<SlotRecord>,
    // Baseline moments over expired slots.
    base_count: u64,
    base_mean: Vec<f64>,
    base_m2: Vec<f64>,
    base_sketch: KarySketch,
    // Slots closed so far; the slot being accumulated has this index.
    slot: u64,
    cooldown_left: u64,
    // Recycled buffers (sketches here are small, but end_slot runs on the
    // ingest thread and must not allocate per slot in steady state).
    spare_sketch: Option<KarySketch>,
    spare_proj: Option<Vec<f64>>,
    spare_keys: Option<Vec<u64>>,
    hint_scratch: Option<KarySketch>,
}

impl std::fmt::Debug for GlrDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlrDetector")
            .field("slot", &self.slot)
            .field("window", &self.window.len())
            .field("base_count", &self.base_count)
            .field("cooldown_left", &self.cooldown_left)
            .finish()
    }
}

impl GlrDetector {
    /// Builds a detector from the configuration.
    ///
    /// # Panics
    /// Panics if the configuration is structurally invalid (see
    /// [`GlrConfig`] field docs).
    pub fn new(config: GlrConfig) -> Self {
        config.validate();
        let rows = HashRows::shared(config.sketch.h, config.sketch.k, config.sketch.seed);
        let r = config.projections;
        GlrDetector {
            proj_salt: config.sketch.seed ^ PROJ_SALT,
            rows: Arc::clone(&rows),
            cur_proj: vec![0.0; r],
            cur_sketch: KarySketch::with_rows(Arc::clone(&rows)),
            cur_keys: Vec::new(),
            cur_seen: HashSet::with_hasher(MixBuildHasher),
            cur_dirty: false,
            window: VecDeque::with_capacity(config.max_window + 1),
            base_count: 0,
            base_mean: vec![0.0; r],
            base_m2: vec![0.0; r],
            base_sketch: KarySketch::with_rows(rows),
            slot: 0,
            cooldown_left: 0,
            spare_sketch: None,
            spare_proj: None,
            spare_keys: None,
            hint_scratch: None,
            config,
        }
    }

    /// The configuration this detector was built from.
    pub fn config(&self) -> &GlrConfig {
        &self.config
    }

    /// Base slots closed so far (the open slot has this index).
    pub fn slots_closed(&self) -> u64 {
        self.slot
    }

    /// Whether the current (open) slot has absorbed any updates.
    pub fn slot_dirty(&self) -> bool {
        self.cur_dirty
    }

    /// Whether enough baseline has accumulated for the statistic to fire.
    pub fn armed(&self) -> bool {
        self.base_count >= self.config.min_baseline as u64
    }

    /// Folds one update into the open slot: one `mix64` supplies the ±1
    /// signs for every projection, plus `h` small-sketch adds.
    #[inline]
    pub fn observe(&mut self, key: u64, value: f64) {
        let bits = mix64(key ^ self.proj_salt);
        for (r, p) in self.cur_proj.iter_mut().enumerate() {
            if (bits >> r) & 1 == 1 {
                *p += value;
            } else {
                *p -= value;
            }
        }
        self.cur_sketch.update(key, value);
        if self.cur_keys.len() < self.config.hint_keys && self.cur_seen.insert(key) {
            self.cur_keys.push(key);
        }
        self.cur_dirty = true;
    }

    /// Folds a batch of updates; bit-identical to per-update
    /// [`observe`](Self::observe) in order.
    pub fn observe_slice(&mut self, items: &[(u64, f64)]) {
        for &(key, value) in items {
            self.observe(key, value);
        }
    }

    /// Seals the open slot, ages the oldest windowed slot into the
    /// baseline, and evaluates the GLR statistic. Returns an alarm when
    /// the statistic crosses the threshold (at most one per slot; a fire
    /// starts the configured cooldown).
    pub fn end_slot(&mut self) -> Option<ProvisionalAlarm> {
        let r = self.config.projections;
        // Seal the current slot, swapping in recycled buffers.
        let proj = std::mem::replace(
            &mut self.cur_proj,
            self.spare_proj.take().map_or_else(
                || vec![0.0; r],
                |mut v| {
                    v.iter_mut().for_each(|x| *x = 0.0);
                    v
                },
            ),
        );
        let sketch = std::mem::replace(
            &mut self.cur_sketch,
            self.spare_sketch
                .take()
                .unwrap_or_else(|| KarySketch::with_rows(Arc::clone(&self.rows))),
        );
        let keys =
            std::mem::replace(&mut self.cur_keys, self.spare_keys.take().unwrap_or_default());
        self.cur_seen.clear();
        self.cur_dirty = false;
        self.window.push_back(SlotRecord { proj, sketch, keys });

        // Age the oldest slot out of the window into the baseline.
        if self.window.len() > self.config.max_window {
            let expired = self.window.pop_front().expect("window non-empty");
            self.base_count += 1;
            let n = self.base_count as f64;
            for (i, &x) in expired.proj.iter().enumerate() {
                let d = x - self.base_mean[i];
                self.base_mean[i] += d / n;
                self.base_m2[i] += d * (x - self.base_mean[i]);
            }
            self.base_sketch
                .add_scaled(&expired.sketch, 1.0)
                .expect("slot sketches share the configured family");
            let SlotRecord { proj, mut sketch, mut keys } = expired;
            sketch.clear();
            keys.clear();
            self.spare_sketch = Some(sketch);
            self.spare_proj = Some(proj);
            self.spare_keys = Some(keys);
        }

        let closed = self.slot;
        self.slot += 1;
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return None;
        }
        if self.base_count < self.config.min_baseline as u64 {
            return None;
        }

        // GLR scan: for each projection, the best window ending here.
        let nwin = self.window.len();
        let denom_n = (self.base_count - 1).max(1) as f64;
        let mut best_stat = 0.0f64;
        let mut best_w = 0usize;
        for i in 0..r {
            let mu = self.base_mean[i];
            let var = (self.base_m2[i] / denom_n).max(VAR_FLOOR);
            let mut s = 0.0;
            for w in 1..=nwin {
                s += self.window[nwin - w].proj[i];
                let dev = s - (w as f64) * mu;
                let g = dev * dev / (2.0 * (w as f64) * var);
                if g > best_stat {
                    best_stat = g;
                    best_w = w;
                }
            }
        }
        let fired = best_stat > self.config.threshold && best_w != 0;
        if !fired {
            return None;
        }
        self.cooldown_left = self.config.cooldown as u64;
        let key_hint = self.key_hint(best_w);
        Some(ProvisionalAlarm {
            key_hint,
            onset_slot: closed + 1 - best_w as u64,
            raised_slot: closed,
            statistic: best_stat,
            window: best_w,
        })
    }

    /// Scores logged keys against the window-delta sketch
    /// `Σ_{alarm slots} S_slot − ŵ · (S_baseline / N)` and returns the key
    /// with the largest absolute estimated change (ties to the smaller
    /// key, for determinism).
    fn key_hint(&mut self, w: usize) -> Option<u64> {
        let nwin = self.window.len();
        let mut delta = match self.hint_scratch.take() {
            Some(mut s) => {
                s.clear();
                s
            }
            None => KarySketch::with_rows(Arc::clone(&self.rows)),
        };
        for i in 0..w {
            delta
                .add_scaled(&self.window[nwin - 1 - i].sketch, 1.0)
                .expect("slot sketches share the configured family");
        }
        if self.base_count > 0 {
            delta
                .add_scaled(&self.base_sketch, -(w as f64) / (self.base_count as f64))
                .expect("baseline sketch shares the configured family");
        }
        let mut best: Option<(f64, u64)> = None;
        {
            let est = delta.estimator();
            let mut seen: HashSet<u64, MixBuildHasher> = HashSet::with_hasher(MixBuildHasher);
            for i in 0..w {
                for &key in &self.window[nwin - 1 - i].keys {
                    if !seen.insert(key) {
                        continue;
                    }
                    let e = est.estimate(key).abs();
                    let better = match best {
                        None => true,
                        Some((be, bk)) => e > be || (e == be && key < bk),
                    };
                    if better {
                        best = Some((e, key));
                    }
                }
            }
        }
        self.hint_scratch = Some(delta);
        best.map(|(_, key)| key)
    }

    /// Captures the complete mutable state, including the partially
    /// accumulated open slot.
    pub fn snapshot(&self) -> GlrSnapshot {
        let snap_slot = |s: &SlotRecord| GlrSlotSnapshot {
            proj: s.proj.clone(),
            sketch: s.sketch.clone(),
            keys: s.keys.clone(),
        };
        GlrSnapshot {
            slot: self.slot,
            cooldown_left: self.cooldown_left,
            base_count: self.base_count,
            base_mean: self.base_mean.clone(),
            base_m2: self.base_m2.clone(),
            base_sketch: self.base_sketch.clone(),
            window: self.window.iter().map(snap_slot).collect(),
            cur: GlrSlotSnapshot {
                proj: self.cur_proj.clone(),
                sketch: self.cur_sketch.clone(),
                keys: self.cur_keys.clone(),
            },
        }
    }

    /// Rebuilds a detector from a snapshot taken under the same
    /// configuration; the restored detector is bit-identical to the
    /// snapshotted one for every subsequent observation.
    ///
    /// # Errors
    /// [`GlrRestoreError`] if the snapshot's shapes or sketch families do
    /// not match `config`.
    pub fn restore(config: GlrConfig, snap: GlrSnapshot) -> Result<Self, GlrRestoreError> {
        config.validate();
        let r = config.projections;
        let rows = HashRows::shared(config.sketch.h, config.sketch.k, config.sketch.seed);
        let family = rows.identity();
        let check_slot = |s: &GlrSlotSnapshot, what: &str| -> Result<(), GlrRestoreError> {
            if s.proj.len() != r {
                return Err(GlrRestoreError::Config(format!(
                    "{what} has {} projections, config has {r}",
                    s.proj.len()
                )));
            }
            if s.sketch.rows().identity() != family {
                return Err(GlrRestoreError::FamilyMismatch);
            }
            Ok(())
        };
        if snap.base_mean.len() != r || snap.base_m2.len() != r {
            return Err(GlrRestoreError::Config(format!(
                "baseline has {} projections, config has {r}",
                snap.base_mean.len()
            )));
        }
        if snap.base_sketch.rows().identity() != family {
            return Err(GlrRestoreError::FamilyMismatch);
        }
        if snap.window.len() > config.max_window {
            return Err(GlrRestoreError::Config(format!(
                "window holds {} slots, config max is {}",
                snap.window.len(),
                config.max_window
            )));
        }
        for s in &snap.window {
            check_slot(s, "windowed slot")?;
        }
        check_slot(&snap.cur, "open slot")?;
        let mut cur_seen: HashSet<u64, MixBuildHasher> = HashSet::with_hasher(MixBuildHasher);
        for &k in &snap.cur.keys {
            cur_seen.insert(k);
        }
        let window: VecDeque<SlotRecord> = snap
            .window
            .into_iter()
            .map(|s| SlotRecord { proj: s.proj, sketch: s.sketch, keys: s.keys })
            .collect();
        let cur_dirty = !snap.cur.keys.is_empty()
            || snap.cur.proj.iter().any(|&x| x != 0.0)
            || snap.cur.sketch.table().iter().any(|&x| x != 0.0);
        Ok(GlrDetector {
            proj_salt: config.sketch.seed ^ PROJ_SALT,
            rows,
            cur_proj: snap.cur.proj,
            cur_sketch: snap.cur.sketch,
            cur_keys: snap.cur.keys,
            cur_seen,
            cur_dirty,
            window,
            base_count: snap.base_count,
            base_mean: snap.base_mean,
            base_m2: snap.base_m2,
            base_sketch: snap.base_sketch,
            slot: snap.slot,
            cooldown_left: snap.cooldown_left,
            spare_sketch: None,
            spare_proj: None,
            spare_keys: None,
            hint_scratch: None,
            config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_hash::SplitMix64;

    fn config() -> GlrConfig {
        GlrConfig {
            sketch: SketchConfig { h: 3, k: 1024, seed: 0x5CD },
            projections: 8,
            max_window: 6,
            threshold: 16.0,
            min_baseline: 6,
            hint_keys: 4096,
            cooldown: 6,
        }
    }

    /// A noisy but stationary slot: ~40 keys with per-slot jitter.
    fn steady_slot(rng: &mut SplitMix64) -> Vec<(u64, f64)> {
        (0..40u64).map(|k| (k, 1_000.0 + (rng.next_below(101) as f64) - 50.0)).collect()
    }

    #[test]
    fn step_change_fires_and_hints_the_key() {
        let mut det = GlrDetector::new(config());
        let mut rng = SplitMix64::new(42);
        let onset = 30u64;
        let mut fired_at = None;
        for s in 0..45u64 {
            let mut items = steady_slot(&mut rng);
            if s >= onset {
                items.push((777, 40_000.0));
            }
            det.observe_slice(&items);
            if let Some(alarm) = det.end_slot() {
                assert!(s >= onset, "false alarm at slot {s}: {alarm:?}");
                fired_at = Some((s, alarm));
                break;
            }
        }
        let (slot, alarm) = fired_at.expect("step change never fired");
        assert!(slot <= onset + 2, "fired late, at slot {slot}");
        assert_eq!(alarm.key_hint, Some(777));
        assert!(alarm.onset_slot >= onset.saturating_sub(1) && alarm.onset_slot <= onset + 1);
        assert!(alarm.statistic > det.config().threshold);
    }

    #[test]
    fn steady_stream_stays_quiet() {
        let mut det = GlrDetector::new(config());
        let mut rng = SplitMix64::new(9);
        for _ in 0..200 {
            let items = steady_slot(&mut rng);
            det.observe_slice(&items);
            assert!(det.end_slot().is_none(), "false alarm on a stationary stream");
        }
        assert!(det.armed());
    }

    #[test]
    fn cooldown_suppresses_refires() {
        let mut det = GlrDetector::new(config());
        let mut rng = SplitMix64::new(3);
        let mut alarms = Vec::new();
        for s in 0..40u64 {
            let mut items = steady_slot(&mut rng);
            if s >= 25 {
                items.push((5, 60_000.0));
            }
            det.observe_slice(&items);
            if let Some(a) = det.end_slot() {
                alarms.push(a.raised_slot);
            }
        }
        assert!(!alarms.is_empty());
        for pair in alarms.windows(2) {
            assert!(
                pair[1] - pair[0] > det.config().cooldown as u64,
                "alarms {pair:?} closer than the cooldown"
            );
        }
    }

    #[test]
    fn snapshot_restore_mid_slot_is_bit_exact() {
        let cfg = config();
        let mut rng = SplitMix64::new(1234);
        let slots: Vec<Vec<(u64, f64)>> = (0..50u64)
            .map(|s| {
                let mut items = steady_slot(&mut rng);
                if s >= 33 {
                    items.push((99, 35_000.0));
                }
                items
            })
            .collect();

        // Reference run, recording every alarm.
        let mut a = GlrDetector::new(cfg.clone());
        let mut ref_alarms = Vec::new();
        for items in &slots {
            a.observe_slice(items);
            ref_alarms.push(a.end_slot());
        }

        // Interrupted run: snapshot mid-slot 20 (after half its updates),
        // restore, finish the slot, continue.
        let mut b = GlrDetector::new(cfg.clone());
        let mut got = Vec::new();
        for (s, items) in slots.iter().enumerate() {
            if s == 20 {
                let (first, rest) = items.split_at(items.len() / 2);
                b.observe_slice(first);
                let snap = b.snapshot();
                let mut c = GlrDetector::restore(cfg.clone(), snap).expect("restore");
                c.observe_slice(rest);
                got.push(c.end_slot());
                b = c;
            } else {
                b.observe_slice(items);
                got.push(b.end_slot());
            }
        }
        assert_eq!(ref_alarms, got);
    }

    #[test]
    fn restore_rejects_mismatched_family() {
        let det = GlrDetector::new(config());
        let snap = det.snapshot();
        let mut other = config();
        other.sketch.seed ^= 1;
        assert!(matches!(GlrDetector::restore(other, snap), Err(GlrRestoreError::FamilyMismatch)));
    }

    #[test]
    fn restore_rejects_wrong_projection_count() {
        let det = GlrDetector::new(config());
        let snap = det.snapshot();
        let mut other = config();
        other.projections = 4;
        assert!(matches!(GlrDetector::restore(other, snap), Err(GlrRestoreError::Config(_))));
    }

    #[test]
    fn observe_slice_matches_per_update() {
        let mut a = GlrDetector::new(config());
        let mut b = GlrDetector::new(config());
        let mut rng = SplitMix64::new(77);
        for _ in 0..20 {
            let items = steady_slot(&mut rng);
            a.observe_slice(&items);
            for &(k, v) in &items {
                b.observe(k, v);
            }
            assert_eq!(a.end_slot(), b.end_slot());
        }
        assert_eq!(a.snapshot().base_mean, b.snapshot().base_mean);
    }
}
