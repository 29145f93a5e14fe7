//! The `SCDN` wire protocol: the messages exchanged between ingest nodes
//! and the aggregator, each one frame of `scd_hash::envelope`'s frame
//! envelope.
//!
//! Interval payloads embed two `scd_sketch::wire` blobs, opaquely: the
//! packed `SCDSKP01` an ingest node writes whenever its cells are
//! integers, or the dense `SCDSKT02`. Either carries its *own* magic and
//! CRC: sketch bytes cross process, disk (spool) and network boundaries,
//! and each hop re-verifies them.
//!
//! A decode error tears down the connection — the sender reconnects and
//! resends unacknowledged intervals from its spool, so a corrupted frame
//! costs a round trip, not correctness.

use scd_hash::byteio::{put_u32, put_u64, Cursor};
use scd_hash::envelope::{self, put_blob, put_keys, FrameSpec};
use std::io::Read;

pub use scd_hash::envelope::FrameError;

/// The protocol's frame envelope: magic, and a 64 MiB payload bound that
/// rejects absurd length prefixes before any allocation happens.
pub const SCDN: FrameSpec = FrameSpec { magic: *b"SCDN", max_payload: 64 << 20 };

/// Protocol version announced in [`Frame::Hello`]. Version 2 nodes ship
/// packed sketch blobs; a version 1 aggregator could not read them, so
/// the mismatch is refused at the handshake.
pub const VERSION: u32 = 2;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection preamble: who is calling and what sketch family it uses.
    /// The aggregator refuses mismatched families — COMBINE is only linear
    /// across identical hash rows.
    Hello {
        /// Node id in `0..nodes`.
        node: u32,
        /// Cluster size the node was configured with.
        nodes: u32,
        /// Sketch depth H.
        h: u64,
        /// Sketch width K.
        k: u64,
        /// Hash-family seed.
        seed: u64,
        /// Protocol version ([`VERSION`]).
        version: u32,
    },
    /// One closed interval from one node: its own data shard plus the
    /// parity material protecting its ring predecessor.
    Interval {
        /// Sending node id.
        node: u32,
        /// Interval index (0-based, global).
        interval: u64,
        /// Sketch blob (`SCDSKP01` or `SCDSKT02`) of the node's own
        /// data-shard sketch `D_i`.
        data: Vec<u8>,
        /// First-seen-order distinct keys of the data shard.
        data_keys: Vec<u64>,
        /// Sketch blob of the parity sketch `P_i = D_{i−1} + D_i`.
        parity: Vec<u8>,
        /// First-seen-order distinct keys of the *buddy* shard `i−1` —
        /// exactly the key list the aggregator needs if node `i−1` is
        /// lost and its data sketch must be recovered from `P_i − D_i`.
        parity_keys: Vec<u64>,
    },
    /// Clean end of stream: the node has shipped (though not necessarily
    /// had acknowledged) this many intervals.
    Bye {
        /// Sending node id.
        node: u32,
        /// Total intervals the node produced.
        intervals_total: u64,
    },
    /// Aggregator → node: the interval is safely received and may be
    /// dropped from the node's spool.
    Ack {
        /// Acknowledged interval index.
        interval: u64,
    },
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0,
            Frame::Interval { .. } => 1,
            // 2 is unassigned: it decodes as `BadType(2)`.
            Frame::Bye { .. } => 3,
            Frame::Ack { .. } => 4,
        }
    }

    /// Encodes the frame, envelope included.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = SCDN.begin(self.type_byte());
        match self {
            Frame::Hello { node, nodes, h, k, seed, version } => {
                put_u32(&mut out, *node);
                put_u32(&mut out, *nodes);
                put_u64(&mut out, *h);
                put_u64(&mut out, *k);
                put_u64(&mut out, *seed);
                put_u32(&mut out, *version);
            }
            Frame::Interval { node, interval, data, data_keys, parity, parity_keys } => {
                // Up to megabytes of sketch (dense blobs): size the frame
                // once instead of growing (and re-copying) it blob by blob.
                let keys = data_keys.len() + parity_keys.len();
                out.reserve(64 + data.len() + parity.len() + 8 * keys);
                put_u32(&mut out, *node);
                put_u64(&mut out, *interval);
                put_blob(&mut out, data);
                put_keys(&mut out, data_keys);
                put_blob(&mut out, parity);
                put_keys(&mut out, parity_keys);
            }
            Frame::Bye { node, intervals_total } => {
                put_u32(&mut out, *node);
                put_u64(&mut out, *intervals_total);
            }
            Frame::Ack { interval } => put_u64(&mut out, *interval),
        }
        SCDN.seal(out)
    }

    /// Decodes one frame from a complete byte buffer (header + payload +
    /// CRC), e.g. a spool file.
    ///
    /// # Errors
    /// Any [`FrameError`] a buffer can produce (not the stream-only ones).
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        let (ty, payload) = SCDN.open(bytes)?;
        decode_payload(ty, payload)
    }

    /// Reads exactly one frame from a stream.
    ///
    /// # Errors
    /// Any [`FrameError`]: `Closed` on a clean EOF at a frame boundary,
    /// `Idle` / `Stalled` when the stream's read timeout fires before /
    /// inside a frame, `Io` for other transport failures.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, FrameError> {
        let (ty, payload) = SCDN.read_from(r)?;
        decode_payload(ty, &payload)
    }
}

fn decode_payload(ty: u8, payload: &[u8]) -> Result<Frame, FrameError> {
    let mut cur = Cursor::new(payload);
    let frame = match ty {
        0 => Frame::Hello {
            node: cur.u32()?,
            nodes: cur.u32()?,
            h: cur.u64()?,
            k: cur.u64()?,
            seed: cur.u64()?,
            version: cur.u32()?,
        },
        1 => Frame::Interval {
            node: cur.u32()?,
            interval: cur.u64()?,
            data: envelope::blob(&mut cur)?.to_vec(),
            data_keys: envelope::keys(&mut cur)?,
            parity: envelope::blob(&mut cur)?.to_vec(),
            parity_keys: envelope::keys(&mut cur)?,
        },
        3 => Frame::Bye { node: cur.u32()?, intervals_total: cur.u64()? },
        4 => Frame::Ack { interval: cur.u64()? },
        other => return Err(FrameError::BadType(other)),
    };
    if cur.remaining() != 0 {
        return Err(FrameError::Malformed);
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { node: 2, nodes: 3, h: 5, k: 4096, seed: 9, version: VERSION },
            Frame::Interval {
                node: 1,
                interval: 42,
                data: vec![1, 2, 3, 4],
                data_keys: vec![10, 20, 30],
                parity: vec![9, 8],
                parity_keys: vec![],
            },
            Frame::Bye { node: 2, intervals_total: 100 },
            Frame::Ack { interval: 7 },
        ]
    }

    #[test]
    fn frames_round_trip_through_buffers_and_streams() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            assert_eq!(Frame::decode(&bytes).unwrap(), frame);
            let mut reader = std::io::Cursor::new(bytes);
            assert_eq!(Frame::read_from(&mut reader).unwrap(), frame);
        }
    }

    #[test]
    fn unknown_type_is_rejected() {
        for ty in [2u8, 9] {
            let mut bytes = Frame::Ack { interval: 1 }.encode();
            bytes[4] = ty;
            bytes.truncate(bytes.len() - 4);
            envelope::seal(&mut bytes);
            assert!(matches!(Frame::decode(&bytes), Err(FrameError::BadType(t)) if t == ty));
        }
    }
}
