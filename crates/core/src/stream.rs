//! Interval segmentation of timestamped flow records (paper §4.2).
//!
//! The detector consumes discrete intervals `I1, I2, …`. Given a flat
//! stream of records — e.g. one read back from a trace file, where interval
//! boundaries are not materialized — this module bins records by timestamp
//! and projects them to `(key, value)` updates. The paper's interval sizes
//! are 300 s ("a reasonable tradeoff between responsiveness and
//! computational overhead") and 60 s.

use scd_traffic::{FlowRecord, KeySpec, ValueSpec};

/// Bins `records` into consecutive intervals of `interval_secs`, starting
/// at time 0, and projects each to the `(key, value)` update stream.
///
/// Records need not be sorted. The returned vector covers every interval
/// from 0 through the last non-empty one; intervening empty intervals are
/// present (empty), because the forecasting models must still advance
/// through silent periods.
pub fn segment_records(
    records: &[FlowRecord],
    interval_secs: u32,
    key: KeySpec,
    value: ValueSpec,
) -> Vec<Vec<(u64, f64)>> {
    assert!(interval_secs > 0, "interval length must be positive");
    let interval_ms = interval_secs as u64 * 1000;
    let n_intervals =
        records.iter().map(|r| (r.timestamp_ms / interval_ms) as usize + 1).max().unwrap_or(0);
    let mut out: Vec<Vec<(u64, f64)>> = vec![Vec::new(); n_intervals];
    for r in records {
        let idx = (r.timestamp_ms / interval_ms) as usize;
        out[idx].push((key.key_of(r), value.value_of(r)));
    }
    out
}

/// Streaming counterpart of [`segment_records`]: push record chunks as
/// they decode — e.g. straight from `scd_traffic::ChunkedTraceReader` —
/// and take the binned intervals at the end, without ever materializing
/// the flat record stream. For any chunking of the same records,
/// [`finish`](Self::finish) returns exactly what `segment_records` would
/// (same bins, same within-bin order), so downstream reports are
/// bit-identical.
///
/// Trace records arrive in time order, so consecutive records almost
/// always share a bin. `push` therefore works in *runs*: it remembers the
/// current bin's `[lo_ms, hi_ms)`, finds how far the chunk stays inside
/// it with two compares per record, and appends that whole run to the one
/// bin it borrowed. The `u64` division and the bin-vector growth check are
/// paid once per run — once per interval on sorted input, once per record
/// on shuffled input, with the same bins either way.
#[derive(Debug)]
pub struct StreamSegmenter {
    interval_ms: u64,
    key: KeySpec,
    value: ValueSpec,
    bins: Vec<Vec<(u64, f64)>>,
    /// Index of the bin the last run went to; `[lo_ms, hi_ms)` is its
    /// time range. Empty (`lo_ms == hi_ms`) until the first record.
    current: usize,
    lo_ms: u64,
    hi_ms: u64,
}

impl StreamSegmenter {
    /// Starts an empty segmentation.
    ///
    /// # Panics
    /// Panics if `interval_secs` is zero.
    pub fn new(interval_secs: u32, key: KeySpec, value: ValueSpec) -> Self {
        assert!(interval_secs > 0, "interval length must be positive");
        StreamSegmenter {
            interval_ms: interval_secs as u64 * 1000,
            key,
            value,
            bins: Vec::new(),
            current: 0,
            lo_ms: 0,
            hi_ms: 0,
        }
    }

    /// Bins one chunk of records (any order, any chunking).
    pub fn push(&mut self, mut records: &[FlowRecord]) {
        while let Some(first) = records.first() {
            let ts = first.timestamp_ms;
            if ts < self.lo_ms || ts >= self.hi_ms {
                let idx = ts / self.interval_ms;
                self.current = idx as usize;
                self.lo_ms = idx * self.interval_ms;
                // Saturated at the top of the clock, the last bin's range
                // excludes `u64::MAX` itself; such a record only re-derives
                // its bin instead of riding the run.
                self.hi_ms = self.lo_ms.saturating_add(self.interval_ms);
                if self.current >= self.bins.len() {
                    // A new bin is sized like the one before it: intervals
                    // of one trace tend to hold alike record counts.
                    let previous = self.bins.last().map_or(0, Vec::len);
                    self.bins.resize_with(self.current + 1, Vec::new);
                    self.bins[self.current].reserve(previous);
                }
            }
            // The first record chose the bin, so it always rides the run.
            let (lo, hi) = (self.lo_ms, self.hi_ms);
            let run = records
                .iter()
                .position(|r| r.timestamp_ms < lo || r.timestamp_ms >= hi)
                .unwrap_or(records.len())
                .max(1);
            let (inside, rest) = records.split_at(run);
            let (key, value) = (self.key, self.value);
            self.bins[self.current]
                .extend(inside.iter().map(|r| (key.key_of(r), value.value_of(r))));
            records = rest;
        }
    }

    /// The binned intervals, 0 through the last non-empty one (silent
    /// intervals present but empty, as in [`segment_records`]).
    pub fn finish(self) -> Vec<Vec<(u64, f64)>> {
        self.bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ts_ms: u64, dst_ip: u32, bytes: u64) -> FlowRecord {
        FlowRecord {
            timestamp_ms: ts_ms,
            src_ip: 1,
            dst_ip,
            src_port: 1234,
            dst_port: 80,
            protocol: 6,
            bytes,
            packets: 1,
        }
    }

    #[test]
    fn bins_by_timestamp() {
        let records = vec![
            record(0, 10, 100),
            record(59_999, 11, 200),
            record(60_000, 12, 300),
            record(185_000, 13, 400),
        ];
        let intervals = segment_records(&records, 60, KeySpec::DstIp, ValueSpec::Bytes);
        assert_eq!(intervals.len(), 4);
        assert_eq!(intervals[0], vec![(10, 100.0), (11, 200.0)]);
        assert_eq!(intervals[1], vec![(12, 300.0)]);
        assert!(intervals[2].is_empty(), "silent interval must exist");
        assert_eq!(intervals[3], vec![(13, 400.0)]);
    }

    #[test]
    fn unsorted_input_is_fine() {
        let records = vec![record(70_000, 2, 20), record(5_000, 1, 10)];
        let intervals = segment_records(&records, 60, KeySpec::DstIp, ValueSpec::Bytes);
        assert_eq!(intervals[0], vec![(1, 10.0)]);
        assert_eq!(intervals[1], vec![(2, 20.0)]);
    }

    #[test]
    fn empty_input_gives_empty_trace() {
        let intervals = segment_records(&[], 300, KeySpec::DstIp, ValueSpec::Bytes);
        assert!(intervals.is_empty());
    }

    #[test]
    fn respects_key_and_value_specs() {
        let records = vec![record(0, 0xC0A80101, 1500)];
        let by_count = segment_records(&records, 60, KeySpec::DstPrefix(24), ValueSpec::Count);
        assert_eq!(by_count[0], vec![(0xC0A801, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = segment_records(&[], 0, KeySpec::DstIp, ValueSpec::Bytes);
    }

    #[test]
    fn stream_segmenter_matches_segment_records_for_any_chunking() {
        // Orders the run cache must survive: scattered, time-sorted (one
        // run per bin), reversed (a cache miss that moves *down*), and a
        // seeded shuffle.
        let scattered: Vec<FlowRecord> =
            (0..137u64).map(|i| record((i * 7919) % 400_000, (i % 23) as u32, 100 + i)).collect();
        let mut sorted = scattered.clone();
        sorted.sort_by_key(|r| r.timestamp_ms);
        let reversed: Vec<FlowRecord> = sorted.iter().rev().copied().collect();
        let mut shuffled = sorted.clone();
        let mut rng = scd_hash::SplitMix64::new(0x5E6);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        // Records hugging both sides of a bin edge, in and out of order.
        let straddling: Vec<FlowRecord> = [59_999, 60_000, 59_999, 60_000, 119_999, 120_000, 0]
            .iter()
            .enumerate()
            .map(|(i, &ts)| record(ts, i as u32, 10 + i as u64))
            .collect();
        // A silent gap: bins 1..=4 must exist, empty, between the runs.
        let gapped = vec![record(1_000, 1, 1), record(2_000, 2, 2), record(5 * 60_000 + 1, 3, 3)];

        for (name, records) in [
            ("scattered", &scattered),
            ("sorted", &sorted),
            ("reversed", &reversed),
            ("shuffled", &shuffled),
            ("straddling", &straddling),
            ("gapped", &gapped),
        ] {
            let expect = segment_records(records, 60, KeySpec::DstIp, ValueSpec::Bytes);
            for chunk in [1usize, 2, 5, 64, 137, 1000] {
                let mut seg = StreamSegmenter::new(60, KeySpec::DstIp, ValueSpec::Bytes);
                for c in records.chunks(chunk) {
                    seg.push(c);
                }
                assert_eq!(seg.finish(), expect, "{name}, chunk size {chunk}");
            }
        }
        let gap_bins = segment_records(&gapped, 60, KeySpec::DstIp, ValueSpec::Bytes);
        assert_eq!(gap_bins.len(), 6);
        assert!(gap_bins[1..5].iter().all(Vec::is_empty), "silent intervals must exist");

        let empty = StreamSegmenter::new(300, KeySpec::DstIp, ValueSpec::Bytes);
        assert!(empty.finish().is_empty());
    }
}
