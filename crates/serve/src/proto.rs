//! The `SCDQ` query wire protocol: the messages between `scd ask` (or any
//! client) and the serving plane's listener, each one frame of
//! `scd_hash::envelope`'s frame envelope — the same one the ingest plane's
//! `SCDN` frames use.
//!
//! Requests use type bytes `0..=3`, responses `16..=21`; the ranges are
//! disjoint so a confused peer (client answering, server asking) is
//! caught at the type byte, not by misparsing a payload. A decode error
//! tears down the connection; queries are idempotent reads, so the client
//! just reconnects and retries.
//!
//! Every data-bearing response carries `as_of` — the interval of the
//! [`ServingView`](crate::ServingView) that answered — so callers can
//! correlate answers with pipeline progress (the soak test matches
//! served answers against per-interval reference snapshots by exactly
//! this field).

use scd_hash::byteio::{put_f64, put_u64, Cursor};
use scd_hash::envelope::{
    bounded_count, flag, opt_u64, put_flag, put_opt_u64, put_str, str as take_str, FrameSpec,
};
use std::io::Read;

/// Errors from encoding or decoding query frames: the workspace's one
/// frame error, under this protocol's historical name.
pub use scd_hash::envelope::FrameError as ProtoError;

/// The protocol's frame envelope: magic, and a 16 MiB payload bound that
/// rejects absurd length prefixes before any allocation happens.
pub const SCDQ: FrameSpec = FrameSpec { magic: *b"SCDQ", max_payload: 16 << 20 };

/// One query, client → server. Intervals are half-open `[from, to)` in
/// detector-interval units, matching `scd query` and the archive API.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Point estimate for one key. `from == to` asks the **live** slim
    /// sketch (the latest interval's forecast error, read-optimized);
    /// `from < to` asks the archive for the key's accumulated error over
    /// the window (exact — the same combine offline `scd query` runs).
    Estimate {
        /// The key to estimate.
        key: u64,
        /// Window start (inclusive), or the live marker when `== to`.
        from: u64,
        /// Window end (exclusive).
        to: u64,
    },
    /// Keys whose accumulated error over `[from, to)` crosses the alarm
    /// bar `threshold · √F2` — the archive's heavy-change query.
    ChangedKeys {
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive).
        to: u64,
        /// The paper's detection threshold `T` (e.g. `0.05`).
        threshold: f64,
    },
    /// One key's per-epoch history across `[from, to)`.
    KeyHistory {
        /// The key to trace.
        key: u64,
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive).
        to: u64,
    },
    /// Summary of the combined error sketch over `[from, to)`: stream
    /// total and F2 energy (the range's "how much changed overall").
    RangeSketch {
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive).
        to: u64,
    },
}

/// One answer, server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The question was well-formed but there is nothing to answer from —
    /// the window is empty, the archive holds no epochs yet (warm-up), or
    /// no interval has closed. Not an error: clients print the reason and
    /// move on.
    NoData {
        /// Interval of the view that answered, when one has closed
        /// (`None` only before the first interval boundary) — so even
        /// data-free answers are attributable to a pipeline position.
        as_of: Option<u64>,
        /// Human-readable explanation.
        reason: String,
    },
    /// The query failed (window outside coverage, sketch fault, …). The
    /// connection stays up; only protocol-level corruption tears it down.
    Error {
        /// Interval of the view that answered, when one has closed.
        as_of: Option<u64>,
        /// Human-readable explanation.
        message: String,
    },
    /// Answer to [`Request::Estimate`].
    Estimate {
        /// Interval of the view that answered.
        as_of: u64,
        /// True when the live slim sketch answered (`from == to`); false
        /// for an archive range estimate.
        live: bool,
        /// The point estimate.
        value: f64,
        /// Worst-case |slim − fat| rounding bound for live answers
        /// ([`SlimSketch::error_bound`](crate::SlimSketch::error_bound));
        /// `0.0` for archive answers, which are exact `f64` combines.
        error_bound: f64,
    },
    /// Answer to [`Request::ChangedKeys`].
    ChangedKeys {
        /// Interval of the view that answered.
        as_of: u64,
        /// The window as asked.
        requested: (u64, u64),
        /// The window as answered (snapped outward to epoch bounds).
        covered: (u64, u64),
        /// Epochs summed to answer.
        epochs_used: u64,
        /// `ESTIMATEF2` of the range sketch.
        error_f2: f64,
        /// The alarm bar applied: `threshold · √max(F2, 0)`.
        alarm_threshold: f64,
        /// `(key, magnitude)` pairs, decreasing |magnitude|.
        changes: Vec<(u64, f64)>,
    },
    /// Answer to [`Request::KeyHistory`].
    KeyHistory {
        /// Interval of the view that answered.
        as_of: u64,
        /// The window as answered (snapped outward to epoch bounds).
        covered: (u64, u64),
        /// Per-epoch `(start, len, total, mean)` in ascending time.
        points: Vec<(u64, u64, f64, f64)>,
    },
    /// Answer to [`Request::RangeSketch`].
    RangeSketch {
        /// Interval of the view that answered.
        as_of: u64,
        /// The window as answered (snapped outward to epoch bounds).
        covered: (u64, u64),
        /// Epochs summed to answer.
        epochs_used: u64,
        /// Stream total of the combined error sketch.
        sum: f64,
        /// `ESTIMATEF2` of the combined error sketch.
        error_f2: f64,
    },
}

impl Request {
    fn type_byte(&self) -> u8 {
        match self {
            Request::Estimate { .. } => 0,
            Request::ChangedKeys { .. } => 1,
            Request::KeyHistory { .. } => 2,
            Request::RangeSketch { .. } => 3,
        }
    }

    /// Encodes the request, envelope included.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = SCDQ.begin(self.type_byte());
        match self {
            Request::Estimate { key, from, to } => {
                put_u64(&mut payload, *key);
                put_u64(&mut payload, *from);
                put_u64(&mut payload, *to);
            }
            Request::ChangedKeys { from, to, threshold } => {
                put_u64(&mut payload, *from);
                put_u64(&mut payload, *to);
                put_f64(&mut payload, *threshold);
            }
            Request::KeyHistory { key, from, to } => {
                put_u64(&mut payload, *key);
                put_u64(&mut payload, *from);
                put_u64(&mut payload, *to);
            }
            Request::RangeSketch { from, to } => {
                put_u64(&mut payload, *from);
                put_u64(&mut payload, *to);
            }
        }
        SCDQ.seal(payload)
    }

    /// Decodes one request from a complete byte buffer.
    ///
    /// # Errors
    /// Any [`ProtoError`] a buffer can produce (not the stream-only ones).
    pub fn decode(bytes: &[u8]) -> Result<Request, ProtoError> {
        let (ty, payload) = SCDQ.open(bytes)?;
        Request::decode_payload(ty, payload)
    }

    /// Reads exactly one request from a stream.
    ///
    /// # Errors
    /// Any [`ProtoError`]: `Closed` on a clean EOF at a frame boundary,
    /// `Idle` / `Stalled` when the stream's read timeout fires before /
    /// inside a frame, `Io` for other transport failures.
    pub fn read_from(r: &mut impl Read) -> Result<Request, ProtoError> {
        let (ty, payload) = SCDQ.read_from(r)?;
        Request::decode_payload(ty, &payload)
    }

    fn decode_payload(ty: u8, payload: &[u8]) -> Result<Request, ProtoError> {
        let mut cur = Cursor::new(payload);
        let req = match ty {
            0 => Request::Estimate { key: cur.u64()?, from: cur.u64()?, to: cur.u64()? },
            1 => Request::ChangedKeys { from: cur.u64()?, to: cur.u64()?, threshold: cur.f64()? },
            2 => Request::KeyHistory { key: cur.u64()?, from: cur.u64()?, to: cur.u64()? },
            3 => Request::RangeSketch { from: cur.u64()?, to: cur.u64()? },
            other => return Err(ProtoError::BadType(other)),
        };
        if cur.remaining() != 0 {
            return Err(ProtoError::Malformed);
        }
        Ok(req)
    }
}

impl Response {
    fn type_byte(&self) -> u8 {
        match self {
            Response::NoData { .. } => 16,
            Response::Error { .. } => 17,
            Response::Estimate { .. } => 18,
            Response::ChangedKeys { .. } => 19,
            Response::KeyHistory { .. } => 20,
            Response::RangeSketch { .. } => 21,
        }
    }

    /// Encodes the response, envelope included.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = SCDQ.begin(self.type_byte());
        match self {
            Response::NoData { as_of, reason } => {
                put_opt_u64(&mut payload, *as_of);
                put_str(&mut payload, reason);
            }
            Response::Error { as_of, message } => {
                put_opt_u64(&mut payload, *as_of);
                put_str(&mut payload, message);
            }
            Response::Estimate { as_of, live, value, error_bound } => {
                put_u64(&mut payload, *as_of);
                put_flag(&mut payload, *live);
                put_f64(&mut payload, *value);
                put_f64(&mut payload, *error_bound);
            }
            Response::ChangedKeys {
                as_of,
                requested,
                covered,
                epochs_used,
                error_f2,
                alarm_threshold,
                changes,
            } => {
                put_u64(&mut payload, *as_of);
                put_u64(&mut payload, requested.0);
                put_u64(&mut payload, requested.1);
                put_u64(&mut payload, covered.0);
                put_u64(&mut payload, covered.1);
                put_u64(&mut payload, *epochs_used);
                put_f64(&mut payload, *error_f2);
                put_f64(&mut payload, *alarm_threshold);
                put_u64(&mut payload, changes.len() as u64);
                for &(key, magnitude) in changes {
                    put_u64(&mut payload, key);
                    put_f64(&mut payload, magnitude);
                }
            }
            Response::KeyHistory { as_of, covered, points } => {
                put_u64(&mut payload, *as_of);
                put_u64(&mut payload, covered.0);
                put_u64(&mut payload, covered.1);
                put_u64(&mut payload, points.len() as u64);
                for &(start, len, total, mean) in points {
                    put_u64(&mut payload, start);
                    put_u64(&mut payload, len);
                    put_f64(&mut payload, total);
                    put_f64(&mut payload, mean);
                }
            }
            Response::RangeSketch { as_of, covered, epochs_used, sum, error_f2 } => {
                put_u64(&mut payload, *as_of);
                put_u64(&mut payload, covered.0);
                put_u64(&mut payload, covered.1);
                put_u64(&mut payload, *epochs_used);
                put_f64(&mut payload, *sum);
                put_f64(&mut payload, *error_f2);
            }
        }
        SCDQ.seal(payload)
    }

    /// Decodes one response from a complete byte buffer.
    ///
    /// # Errors
    /// Any [`ProtoError`] a buffer can produce (not the stream-only ones).
    pub fn decode(bytes: &[u8]) -> Result<Response, ProtoError> {
        let (ty, payload) = SCDQ.open(bytes)?;
        Response::decode_payload(ty, payload)
    }

    /// Reads exactly one response from a stream.
    ///
    /// # Errors
    /// As [`Request::read_from`].
    pub fn read_from(r: &mut impl Read) -> Result<Response, ProtoError> {
        let (ty, payload) = SCDQ.read_from(r)?;
        Response::decode_payload(ty, &payload)
    }

    fn decode_payload(ty: u8, payload: &[u8]) -> Result<Response, ProtoError> {
        let mut cur = Cursor::new(payload);
        let resp = match ty {
            16 => Response::NoData { as_of: opt_u64(&mut cur)?, reason: take_str(&mut cur)? },
            17 => Response::Error { as_of: opt_u64(&mut cur)?, message: take_str(&mut cur)? },
            18 => Response::Estimate {
                as_of: cur.u64()?,
                live: flag(&mut cur)?,
                value: cur.f64()?,
                error_bound: cur.f64()?,
            },
            19 => Response::ChangedKeys {
                as_of: cur.u64()?,
                requested: (cur.u64()?, cur.u64()?),
                covered: (cur.u64()?, cur.u64()?),
                epochs_used: cur.u64()?,
                error_f2: cur.f64()?,
                alarm_threshold: cur.f64()?,
                changes: (0..bounded_count(&mut cur, 16)?)
                    .map(|_| Ok((cur.u64()?, cur.f64()?)))
                    .collect::<Result<_, ProtoError>>()?,
            },
            20 => Response::KeyHistory {
                as_of: cur.u64()?,
                covered: (cur.u64()?, cur.u64()?),
                points: (0..bounded_count(&mut cur, 32)?)
                    .map(|_| Ok((cur.u64()?, cur.u64()?, cur.f64()?, cur.f64()?)))
                    .collect::<Result<_, ProtoError>>()?,
            },
            21 => Response::RangeSketch {
                as_of: cur.u64()?,
                covered: (cur.u64()?, cur.u64()?),
                epochs_used: cur.u64()?,
                sum: cur.f64()?,
                error_f2: cur.f64()?,
            },
            other => return Err(ProtoError::BadType(other)),
        };
        if cur.remaining() != 0 {
            return Err(ProtoError::Malformed);
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Estimate { key: 0xDEAD_BEEF, from: 7, to: 7 },
            Request::Estimate { key: 1, from: 0, to: 12 },
            Request::ChangedKeys { from: 3, to: 9, threshold: 0.05 },
            Request::KeyHistory { key: u64::MAX, from: 0, to: u64::MAX },
            Request::RangeSketch { from: 2, to: 6 },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::NoData { as_of: None, reason: "no epochs yet".into() },
            Response::NoData { as_of: Some(7), reason: "window [3, 3) is empty".into() },
            Response::Error { as_of: None, message: "window [9, 3) is empty".into() },
            Response::Error { as_of: Some(31), message: "window outside coverage".into() },
            Response::Estimate { as_of: 12, live: true, value: -42.5, error_bound: 1e-4 },
            Response::Estimate { as_of: 12, live: false, value: 0.0, error_bound: 0.0 },
            Response::ChangedKeys {
                as_of: 31,
                requested: (3, 9),
                covered: (2, 10),
                epochs_used: 4,
                error_f2: 123.5,
                alarm_threshold: 0.55,
                changes: vec![(9, 100.0), (4, -55.5)],
            },
            Response::KeyHistory {
                as_of: 31,
                covered: (0, 8),
                points: vec![(0, 4, 20.0, 5.0), (4, 2, -3.0, -1.5), (6, 1, 0.0, 0.0)],
            },
            Response::RangeSketch {
                as_of: 31,
                covered: (2, 10),
                epochs_used: 4,
                sum: 1e9,
                error_f2: f64::MAX,
            },
        ]
    }

    #[test]
    fn requests_round_trip_buffers_and_streams() {
        for req in sample_requests() {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req);
            let mut stream = std::io::Cursor::new(bytes);
            assert_eq!(Request::read_from(&mut stream).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip_buffers_and_streams() {
        for resp in sample_responses() {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
            let mut stream = std::io::Cursor::new(bytes);
            assert_eq!(Response::read_from(&mut stream).unwrap(), resp);
        }
    }

    #[test]
    fn back_to_back_frames_read_in_order() {
        let mut wire = Vec::new();
        let reqs = sample_requests();
        for req in &reqs {
            wire.extend_from_slice(&req.encode());
        }
        let mut stream = std::io::Cursor::new(wire);
        for req in &reqs {
            assert_eq!(&Request::read_from(&mut stream).unwrap(), req);
        }
        assert!(matches!(Request::read_from(&mut stream), Err(ProtoError::Closed)));
    }

    /// Request and response type ranges are disjoint: parsing a response
    /// as a request (or vice versa) fails at the type byte.
    #[test]
    fn crossed_roles_fail_at_type_byte() {
        let req = Request::RangeSketch { from: 0, to: 4 }.encode();
        assert!(matches!(Response::decode(&req), Err(ProtoError::BadType(3))));
        let resp = Response::NoData { as_of: None, reason: "x".into() }.encode();
        assert!(matches!(Request::decode(&resp), Err(ProtoError::BadType(16))));
    }

    /// Unknown type bytes are rejected by name.
    #[test]
    fn unknown_types_are_rejected() {
        let bytes = SCDQ.seal(SCDQ.begin(250));
        assert!(matches!(Request::decode(&bytes), Err(ProtoError::BadType(250))));
        assert!(matches!(Response::decode(&bytes), Err(ProtoError::BadType(250))));
    }

    /// Trailing bytes after a well-formed payload are malformed, even
    /// with a matching CRC.
    #[test]
    fn trailing_payload_bytes_are_malformed() {
        let mut frame = SCDQ.begin(3);
        put_u64(&mut frame, 0);
        put_u64(&mut frame, 4);
        frame.push(0xEE);
        assert!(matches!(Request::decode(&SCDQ.seal(frame)), Err(ProtoError::Malformed)));
    }

    /// Non-UTF-8 string bytes are malformed, not a panic.
    #[test]
    fn invalid_utf8_strings_are_malformed() {
        let mut frame = SCDQ.begin(16);
        put_opt_u64(&mut frame, None);
        put_u64(&mut frame, 2);
        frame.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(Response::decode(&SCDQ.seal(frame)), Err(ProtoError::Malformed)));
    }

    /// A presence byte other than 0/1 for the optional as_of is
    /// malformed.
    #[test]
    fn invalid_presence_bytes_are_malformed() {
        let mut frame = SCDQ.begin(16);
        frame.push(2); // neither absent nor present
        put_str(&mut frame, "reason");
        assert!(matches!(Response::decode(&SCDQ.seal(frame)), Err(ProtoError::Malformed)));
    }
}
