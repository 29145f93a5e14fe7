//! Wire format for shipping sketches between hosts.
//!
//! The distributed use-case the paper's linearity enables — build sketches
//! at many routers, COMBINE at a collector — needs sketches to travel.
//! The format is self-describing and guards the only invariant that
//! matters: a deserialized sketch carries its hash-family identity
//! `(H, K, seed)`, so an incompatible COMBINE is still caught.
//!
//! The `SCDSKT02` file envelope (`scd_hash::envelope`) around this body
//! (little-endian):
//!
//! ```text
//! h       8  u64
//! k       8  u64
//! seed    8  u64
//! cells   H*K*8  f64 bits, row-major
//! ```
//!
//! At the paper's `H = 5, K = 32768` a sketch serializes to 1.25 MiB + 36
//! bytes — the "ship a sketch, not per-flow tables" story in §1.3.
//! Deserialization re-derives the hash tables from the seed (~2 MiB of
//! tabulation per row, built once per family thanks to the shared
//! `Arc<HashRows>`); [`from_bytes_with_rows`] skips even that when the
//! caller already holds the family.

use crate::error::SketchError;
use crate::kary::{KarySketch, SketchConfig};
use scd_hash::byteio::{put_f64, put_u64, Cursor, ShortInput};
use scd_hash::envelope::{self, SealError};
use scd_hash::HashRows;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"SCDSKT02";

/// Errors from sketch (de)serialization.
#[derive(Debug)]
pub enum WireError {
    /// The envelope did not open (wrong magic, truncation, checksum), or
    /// the body is not exactly the declared `H × K` table.
    Envelope(SealError),
    /// Header fields fail validation (K not a power of two, H = 0, or
    /// implausibly large dimensions).
    BadHeader {
        /// Declared rows.
        h: u64,
        /// Declared buckets.
        k: u64,
    },
    /// The serialized family does not match the one the caller supplied to
    /// [`from_bytes_with_rows`].
    FamilyMismatch,
    /// A combine against an incompatible family after deserialization.
    Incompatible(SketchError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Envelope(e) => write!(f, "serialized sketch: {e}"),
            WireError::BadHeader { h, k } => {
                write!(f, "invalid sketch header: H={h}, K={k}")
            }
            WireError::FamilyMismatch => {
                write!(f, "serialized sketch belongs to a different hash family")
            }
            WireError::Incompatible(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<SealError> for WireError {
    fn from(e: SealError) -> Self {
        WireError::Envelope(e)
    }
}

impl From<ShortInput> for WireError {
    fn from(e: ShortInput) -> Self {
        WireError::Envelope(e.into())
    }
}

/// Maximum accepted table size on deserialization (64 Mi cells = 512 MiB):
/// a defensive bound so corrupt headers cannot trigger huge allocations.
const MAX_CELLS: u64 = 64 * 1024 * 1024;

/// Serializes the sketch: envelope, header, raw cells.
pub fn to_bytes(sketch: &KarySketch) -> Vec<u8> {
    let (h, k, seed) = sketch.rows().identity();
    let mut buf = Vec::with_capacity(36 + sketch.table().len() * 8);
    buf.extend_from_slice(MAGIC);
    put_u64(&mut buf, h as u64);
    put_u64(&mut buf, k as u64);
    put_u64(&mut buf, seed);
    for &cell in sketch.table() {
        put_f64(&mut buf, cell);
    }
    envelope::seal(&mut buf);
    buf
}

/// Validated header + cell payload, shared by the two decode entry points.
struct Decoded<'a> {
    h: u64,
    k: u64,
    seed: u64,
    cells: Cursor<'a>,
    n_cells: usize,
}

fn decode(data: &[u8]) -> Result<Decoded<'_>, WireError> {
    let mut cur = Cursor::new(envelope::open(MAGIC, data)?);
    let h = cur.u64()?;
    let k = cur.u64()?;
    let seed = cur.u64()?;
    if h == 0 || k == 0 || !k.is_power_of_two() || h.saturating_mul(k) > MAX_CELLS {
        return Err(WireError::BadHeader { h, k });
    }
    let n_cells = (h * k) as usize;
    if cur.remaining() != n_cells * 8 {
        return Err(SealError::Truncated.into());
    }
    Ok(Decoded { h, k, seed, cells: cur, n_cells })
}

fn read_table(mut d: Decoded<'_>) -> Vec<f64> {
    let mut table = Vec::with_capacity(d.n_cells);
    for _ in 0..d.n_cells {
        table.push(d.cells.f64().expect("cell count validated"));
    }
    table
}

/// Deserializes a sketch, re-deriving its hash family from the header.
pub fn from_bytes(data: &[u8]) -> Result<KarySketch, WireError> {
    let d = decode(data)?;
    let config = SketchConfig { h: d.h as usize, k: d.k as usize, seed: d.seed };
    let mut sketch = KarySketch::new(config);
    sketch.load_table(read_table(d));
    Ok(sketch)
}

/// Deserializes a sketch into an existing hash family, skipping the (large)
/// table re-derivation. The serialized identity must match `rows` exactly;
/// a mismatch is [`WireError::FamilyMismatch`]. This is the hot path for
/// checkpoint restore, which decodes several sketches of one family.
pub fn from_bytes_with_rows(data: &[u8], rows: &Arc<HashRows>) -> Result<KarySketch, WireError> {
    let d = decode(data)?;
    let (h, k, seed) = rows.identity();
    if (d.h, d.k, d.seed) != (h as u64, k as u64, seed) {
        return Err(WireError::FamilyMismatch);
    }
    let mut sketch = KarySketch::with_rows(Arc::clone(rows));
    sketch.load_table(read_table(d));
    Ok(sketch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KarySketch {
        let mut s = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 42 });
        for key in 0..100u64 {
            s.update(key, (key % 7) as f64 - 3.0);
        }
        s
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = sample();
        let bytes = to_bytes(&original);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(original.table(), back.table());
        assert_eq!(original.rows().identity(), back.rows().identity());
        // Estimates agree because both table and family agree.
        for key in 0..100u64 {
            assert_eq!(original.estimate(key), back.estimate(key));
        }
    }

    #[test]
    fn deserialized_sketch_combines_with_local() {
        let remote = sample();
        let bytes = to_bytes(&remote);
        let shipped = from_bytes(&bytes).unwrap();
        let mut local = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 42 });
        local.update(5, 10.0);
        let sum = local.combine(&[(1.0, &local), (1.0, &shipped)]).unwrap();
        let expect = local.estimate(5) + remote.estimate(5);
        assert!((sum.estimate(5) - expect).abs() < 1e-9);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(from_bytes(b"nope"), Err(WireError::Envelope(SealError::BadMagic))));
        let mut ok = to_bytes(&sample());
        ok.pop();
        // Dropping a footer byte breaks the checksum/length invariant.
        assert!(from_bytes(&ok).is_err());
    }

    #[test]
    fn legacy_v01_magic_is_rejected() {
        // The unchecksummed v01 layout (old magic, no footer) is not read.
        let v2 = to_bytes(&sample());
        let mut v1 = b"SCDSKT01".to_vec();
        v1.extend_from_slice(&v2[8..v2.len() - 4]);
        assert!(matches!(from_bytes(&v1), Err(WireError::Envelope(SealError::BadMagic))));
    }

    #[test]
    fn with_rows_shares_family_and_rejects_mismatch() {
        let s = sample();
        let bytes = to_bytes(&s);
        let rows = Arc::clone(s.rows());
        let back = from_bytes_with_rows(&bytes, &rows).unwrap();
        assert_eq!(back.table(), s.table());

        let other = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 43 });
        let other_rows = Arc::clone(other.rows());
        assert!(matches!(
            from_bytes_with_rows(&bytes, &other_rows),
            Err(WireError::FamilyMismatch)
        ));
    }

    #[test]
    fn rejects_hostile_header() {
        fn frame(h: u64, k: u64) -> Vec<u8> {
            let mut buf = MAGIC.to_vec();
            buf.extend_from_slice(&h.to_le_bytes());
            buf.extend_from_slice(&k.to_le_bytes());
            buf.extend_from_slice(&0u64.to_le_bytes()); // seed
            envelope::seal(&mut buf);
            buf
        }
        assert!(matches!(from_bytes(&frame(u64::MAX, 1024)), Err(WireError::BadHeader { .. })));
        assert!(matches!(
            from_bytes(&frame(1, 1000)), // not a power of two
            Err(WireError::BadHeader { .. })
        ));
    }

    #[test]
    fn size_matches_layout() {
        let s = sample();
        assert_eq!(to_bytes(&s).len(), 36 + 3 * 256 * 8);
    }
}
