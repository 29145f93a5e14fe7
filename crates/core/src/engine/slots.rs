//! GLR slotting: the sequential layer that rides the ingest path, and the
//! confirm/retract book it keeps against interval-close reports.

use crate::detector::IntervalReport;
use crate::glr::{
    GlrConfig, GlrDetector, GlrEvent, GlrRestoreError, GlrSnapshot, ProvisionalAlarm,
};
use crate::telemetry::PipelineMetrics;
use std::collections::VecDeque;

/// Serializable state of the engine's GLR runtime: the sequential
/// detector plus the engine-side confirm/retract bookkeeping (pending
/// provisionals, interval-close slot markers, the ingest-interval
/// counter). Undrained [`GlrEvent`]s are *not* part of the snapshot —
/// drain them before checkpointing; a restored engine re-emits nothing.
#[derive(Debug, Clone)]
pub struct GlrEngineSnapshot {
    /// The sequential detector's complete state (mid-slot included).
    pub detector: GlrSnapshot,
    /// Provisionals awaiting their interval's report: `(interval, alarm)`.
    pub pending: Vec<(u64, ProvisionalAlarm)>,
    /// Slot counter at each recorded interval close: `(interval, slot)`.
    pub closes: Vec<(u64, u64)>,
    /// Ingest intervals closed so far.
    pub ingest_interval: u64,
}

impl GlrEngineSnapshot {
    /// Settles the snapshot's pending provisionals against `report`, the
    /// way the live runtime it was taken from will once the report reaches
    /// it. A snapshot taken at interval `t`'s close and resolved against
    /// `t`'s report is the state "everything up to `t` done" — what a
    /// checkpoint written after that report has to hold.
    pub(super) fn resolve(&mut self, report: &IntervalReport) {
        let mut pending = std::mem::take(&mut self.pending).into();
        let mut closes = std::mem::take(&mut self.closes).into();
        resolve(&mut pending, &mut closes, report, None, &mut Vec::new());
        (self.pending, self.closes) = (pending.into(), closes.into());
    }
}

/// Resolves pending provisional alarms against a freshly delivered
/// interval report: a provisional from interval `t` is **confirmed**
/// when `t`'s warmed-up report alarms on the provisional's hinted
/// key, and **retracted** otherwise. Reports are matched on
/// [`IntervalReport::interval`], which is the *covered* interval —
/// under `NextInterval` the report closing interval `t` covers
/// `t − 1`, and this matching handles that lag uniformly.
fn resolve(
    pending: &mut VecDeque<(u64, ProvisionalAlarm)>,
    closes: &mut VecDeque<(u64, u64)>,
    report: &IntervalReport,
    metrics: Option<&PipelineMetrics>,
    events: &mut Vec<GlrEvent>,
) {
    let rint = report.interval as u64;
    while let Some(&(iv, _)) = pending.front() {
        if iv > rint {
            break;
        }
        if iv == rint && !report.warmed_up {
            // The covering report has not arrived yet (warm-up, or
            // NextInterval's one-close lag). Keep waiting.
            break;
        }
        let (_, alarm) = pending.pop_front().expect("front checked above");
        let confirmed =
            iv == rint && alarm.key_hint.is_some_and(|k| report.alarms.iter().any(|a| a.key == k));
        if confirmed {
            while closes.front().is_some_and(|&(i, _)| i < iv) {
                closes.pop_front();
            }
            let close_slot = closes.front().filter(|&&(i, _)| i == iv).map(|&(_, s)| s);
            let lead = close_slot.map_or(0, |c| c.saturating_sub(alarm.raised_slot));
            if let Some(m) = metrics {
                m.glr.confirmed_total.inc();
                m.glr.lead_slots.record(lead);
            }
            events.push(GlrEvent::Confirmed { interval: iv, lead_slots: lead, alarm });
        } else {
            if let Some(m) = metrics {
                m.glr.retracted_total.inc();
            }
            events.push(GlrEvent::Retracted { interval: iv, alarm });
        }
    }
    while closes.front().is_some_and(|&(i, _)| i < rint) {
        closes.pop_front();
    }
}

/// The GLR layer riding the engine's ingest path: the sequential detector
/// plus confirm/retract bookkeeping against interval-close reports.
pub(super) struct GlrRuntime {
    pub(super) det: GlrDetector,
    /// Provisionals awaiting their interval's close-time report, oldest
    /// first, tagged with the ingest interval they fired in.
    pending: VecDeque<(u64, ProvisionalAlarm)>,
    /// `(interval, slots_closed at its close)` markers, for lead-time
    /// accounting when a provisional is confirmed.
    closes: VecDeque<(u64, u64)>,
    /// Event log drained by [`take_events`](Self::take_events).
    events: Vec<GlrEvent>,
    /// Ingest intervals closed so far — the tag for new provisionals.
    ingest_interval: u64,
}

impl GlrRuntime {
    pub(super) fn new(config: GlrConfig) -> Self {
        GlrRuntime {
            det: GlrDetector::new(config),
            pending: VecDeque::new(),
            closes: VecDeque::new(),
            events: Vec::new(),
            ingest_interval: 0,
        }
    }

    /// Seals the detector's open slot and records any provisional alarm
    /// against the interval currently being ingested.
    pub(super) fn close_slot(&mut self, metrics: Option<&PipelineMetrics>) {
        if let Some(alarm) = self.det.end_slot() {
            if let Some(m) = metrics {
                m.glr.provisional_total.inc();
            }
            self.pending.push_back((self.ingest_interval, alarm.clone()));
            self.events.push(GlrEvent::Provisional { interval: self.ingest_interval, alarm });
        }
    }

    /// Interval-boundary bookkeeping for the GLR layer: force-close a
    /// dirty open slot (updates never bleed across interval boundaries),
    /// remember which slot count the closing interval ended at (for the
    /// lead-time histogram), and advance the ingest interval counter.
    pub(super) fn note_interval_close(&mut self, metrics: Option<&PipelineMetrics>) {
        if self.det.slot_dirty() {
            self.close_slot(metrics);
        }
        self.closes.push_back((self.ingest_interval, self.det.slots_closed()));
        self.ingest_interval += 1;
    }

    /// Settles pending provisionals against a delivered report, logging
    /// the confirmations and retractions.
    pub(super) fn on_report(&mut self, report: &IntervalReport, metrics: Option<&PipelineMetrics>) {
        resolve(&mut self.pending, &mut self.closes, report, metrics, &mut self.events);
    }

    /// Drains the event log accumulated since the last call.
    pub(super) fn take_events(&mut self) -> Vec<GlrEvent> {
        std::mem::take(&mut self.events)
    }

    pub(super) fn snapshot(&self) -> GlrEngineSnapshot {
        GlrEngineSnapshot {
            detector: self.det.snapshot(),
            pending: self.pending.iter().cloned().collect(),
            closes: self.closes.iter().copied().collect(),
            ingest_interval: self.ingest_interval,
        }
    }

    pub(super) fn restore(&mut self, snap: GlrEngineSnapshot) -> Result<(), GlrRestoreError> {
        self.det = GlrDetector::restore(self.det.config().clone(), snap.detector)?;
        (self.pending, self.closes) = (snap.pending.into(), snap.closes.into());
        self.ingest_interval = snap.ingest_interval;
        self.events.clear();
        Ok(())
    }
}
