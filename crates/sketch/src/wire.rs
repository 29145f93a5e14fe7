//! Wire format for shipping sketches between hosts.
//!
//! The distributed use-case the paper's linearity enables — build sketches
//! at many routers, COMBINE at a collector — needs sketches to travel.
//! The format is self-describing and guards the only invariant that
//! matters: a deserialized sketch carries its hash-family identity
//! `(H, K, seed)`, so an incompatible COMBINE is still caught.
//!
//! Two bodies share the file envelope (`scd_hash::envelope`) and the
//! header (little-endian):
//!
//! ```text
//! h       8  u64
//! k       8  u64
//! seed    8  u64
//! ```
//!
//! **Dense, `SCDSKT02`** ([`to_bytes`]) — what archives and checkpoints
//! embed, and what every table can be written as:
//!
//! ```text
//! cells   H*K*8  f64 bits, row-major
//! ```
//!
//! At the paper's `H = 5, K = 32768` that is 1.25 MiB + 36 bytes — the
//! "ship a sketch, not per-flow tables" story in §1.3.
//!
//! **Packed, `SCDSKP01`** ([`to_bytes_packed`]) — what an ingest node
//! ships. The update-optimised table is mostly zero cells around integer
//! byte counts, and the form that travels need not be the form that is
//! updated (SF-sketch): after the header come the non-zero cells only, in
//! row-major order, to the end of the envelope:
//!
//! ```text
//! gap     unsigned LEB128   zero cells skipped since the previous pair
//! value   zigzag LEB128     the cell, a non-zero integer, |value| <= 2^53
//! ```
//!
//! Every integer of magnitude up to 2⁵³ is one `f64` and back, so the
//! packed body is *exact*: decoding gives the encoder's table bit for bit.
//! A table holding anything else — a fractional cell from reweighted
//! sampling, `-0.0`, a NaN, an infinity, an integer past 2⁵³ — is written
//! dense instead, as is a table the packed body would not make shorter;
//! [`from_bytes_with_rows`] reads either by its magic. A body has one
//! encoding only (shortest LEB128 forms, no zero value, no gap past the
//! table), and there is no cell count for a hostile sender to lie in: the
//! table a decode fills is the receiver's own family's, sized before the
//! first pair is read.
//!
//! [`from_bytes`] takes the hash family the header names from
//! `HashRows::shared`: a family the process already holds is reused, and
//! only one nothing holds is derived from the seed (~1 MiB of tabulation
//! per row). [`from_bytes_with_rows`] skips even the lookup when the
//! caller already holds the family.
//!
//! A receiver that only sums blobs need not decode them at all:
//! [`validate_with_rows`] checks a blob as the decoder would, writing
//! nothing, and [`add_into`] adds its cells straight into a sum — for a
//! packed blob, its non-zero cells only. Decode, validation and that
//! COMBINE share one walk over the packed body.

use crate::error::SketchError;
use crate::kary::{KarySketch, SketchConfig};
use scd_hash::byteio::{put_f64, put_u64, put_uleb128, unzigzag, zigzag, Cursor, ShortInput};
use scd_hash::envelope::{self, SealError, FOOTER_LEN};
use scd_hash::HashRows;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"SCDSKT02";
const PACKED_MAGIC: &[u8; 8] = b"SCDSKP01";

/// Magic plus the `h ‖ k ‖ seed` header both bodies start with.
const HEADER_LEN: usize = 32;

/// Largest cell magnitude the packed body carries: up to here every
/// integer is exactly one `f64`.
const MAX_PACKED: u64 = 1 << 53;

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
    /// A packed body breaks its own rules; the payload names which.
    BadCell(&'static str),
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
            WireError::BadCell(what) => write!(f, "packed sketch cells: {what}"),
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

/// `(H, K, seed)`, as `HashRows::identity` gives it.
type Identity = (usize, usize, u64);

fn begin(magic: &[u8; 8], (h, k, seed): Identity, capacity: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(capacity);
    buf.extend_from_slice(magic);
    put_u64(&mut buf, h as u64);
    put_u64(&mut buf, k as u64);
    put_u64(&mut buf, seed);
    buf
}

fn dense(family: Identity, cells: impl ExactSizeIterator<Item = f64>) -> Vec<u8> {
    let mut buf = begin(MAGIC, family, HEADER_LEN + cells.len() * 8 + FOOTER_LEN);
    for cell in cells {
        put_f64(&mut buf, cell);
    }
    envelope::seal(&mut buf);
    buf
}

/// The packed blob of `cells`, or `None` at the first cell it cannot
/// carry exactly.
fn packed(family: Identity, cells: impl Iterator<Item = f64>) -> Option<Vec<u8>> {
    let mut buf = begin(PACKED_MAGIC, family, 4096);
    let mut gap = 0u64;
    for cell in cells {
        if cell.to_bits() == 0 {
            gap += 1;
            continue;
        }
        // Through `i64` and back, bit for bit: stops `-0.0` (which would
        // come back `+0.0`), fractions, NaN and the infinities.
        let value = cell as i64;
        if (value as f64).to_bits() != cell.to_bits() || value.unsigned_abs() > MAX_PACKED {
            return None;
        }
        put_uleb128(&mut buf, gap);
        put_uleb128(&mut buf, zigzag(value));
        gap = 0;
    }
    envelope::seal(&mut buf);
    Some(buf)
}

fn packed_or_dense(family: Identity, cells: impl ExactSizeIterator<Item = f64> + Clone) -> Vec<u8> {
    let dense_len = HEADER_LEN + cells.len() * 8 + FOOTER_LEN;
    match packed(family, cells.clone()) {
        Some(blob) if blob.len() < dense_len => blob,
        _ => dense(family, cells),
    }
}

/// Serializes the sketch: envelope, header, raw cells.
pub fn to_bytes(sketch: &KarySketch) -> Vec<u8> {
    dense(sketch.rows().identity(), sketch.table().iter().copied())
}

/// Serializes the sketch for shipping: the packed body when it is exact
/// and shorter, the dense [`to_bytes`] blob otherwise (module docs).
pub fn to_bytes_packed(sketch: &KarySketch) -> Vec<u8> {
    packed_or_dense(sketch.rows().identity(), sketch.table().iter().copied())
}

/// [`to_bytes_packed`] of the cell-wise sum `a + b`, each cell added as
/// it is written: an ingest node's ring parity, without a third table.
///
/// # Errors
/// [`SketchError::IncompatibleSketches`] if the hash families differ.
pub fn to_bytes_packed_sum(a: &KarySketch, b: &KarySketch) -> Result<Vec<u8>, SketchError> {
    a.check_family(b)?;
    let cells = a.table().iter().zip(b.table()).map(|(x, y)| x + y);
    Ok(packed_or_dense(a.rows().identity(), cells))
}

/// The header both bodies share, validated.
struct Header {
    h: u64,
    k: u64,
    seed: u64,
}

impl Header {
    fn read(cur: &mut Cursor<'_>) -> Result<Header, WireError> {
        let (h, k, seed) = (cur.u64()?, cur.u64()?, cur.u64()?);
        if h == 0 || k == 0 || !k.is_power_of_two() || h.saturating_mul(k) > MAX_CELLS {
            return Err(WireError::BadHeader { h, k });
        }
        Ok(Header { h, k, seed })
    }

    fn check_family(&self, rows: &HashRows) -> Result<(), WireError> {
        let (h, k, seed) = rows.identity();
        if (self.h, self.k, self.seed) != (h as u64, k as u64, seed) {
            return Err(WireError::FamilyMismatch);
        }
        Ok(())
    }
}

/// Opens a dense blob: the validated header and a cursor over exactly the
/// `H × K` cells it declares.
fn decode(data: &[u8]) -> Result<(Header, Cursor<'_>), WireError> {
    let mut cur = Cursor::new(envelope::open(MAGIC, data)?);
    let header = Header::read(&mut cur)?;
    if cur.remaining() as u64 != header.h * header.k * 8 {
        return Err(SealError::Truncated.into());
    }
    Ok((header, cur))
}

/// Opens a dense blob of `rows`' family: a cursor over exactly its cells.
fn dense_cells<'a>(data: &'a [u8], rows: &HashRows) -> Result<Cursor<'a>, WireError> {
    let (header, cells) = decode(data)?;
    header.check_family(rows)?;
    Ok(cells)
}

fn read_table(mut cells: Cursor<'_>) -> Vec<f64> {
    let n_cells = cells.remaining() / 8;
    let mut table = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        table.push(cells.f64().expect("cell count validated"));
    }
    table
}

/// Opens a packed blob of `rows`' family: a cursor at its first pair.
fn packed_pairs<'a>(data: &'a [u8], rows: &HashRows) -> Result<Cursor<'a>, WireError> {
    let mut cur = Cursor::new(envelope::open(PACKED_MAGIC, data)?);
    Header::read(&mut cur)?.check_family(rows)?;
    Ok(cur)
}

/// The one walk over a packed body, shared by decode, validation and
/// COMBINE: checks every pair against the body's rules (module docs) and
/// hands each non-zero cell of a `cells`-cell table to `cell` as
/// `(index, value)`, in row-major order. On an error, the cells before
/// it have been handed over.
fn walk_pairs(
    mut cur: Cursor<'_>,
    cells: usize,
    mut cell: impl FnMut(usize, f64),
) -> Result<(), WireError> {
    let mut next = 0u64;
    while cur.remaining() > 0 {
        let gap = cur.uleb128()?.ok_or(WireError::BadCell("gap is not a shortest-form LEB128"))?;
        let value =
            cur.uleb128()?.ok_or(WireError::BadCell("value is not a shortest-form LEB128"))?;
        let value = unzigzag(value);
        if value == 0 || value.unsigned_abs() > MAX_PACKED {
            return Err(WireError::BadCell("value is zero or beyond 2^53"));
        }
        let at = next
            .checked_add(gap)
            .filter(|&at| at < cells as u64)
            .ok_or(WireError::BadCell("gap runs past the table"))?;
        cell(at as usize, value as f64);
        next = at + 1;
    }
    Ok(())
}

/// Deserializes a sketch over the process's hash family for its header.
pub fn from_bytes(data: &[u8]) -> Result<KarySketch, WireError> {
    let (header, cells) = decode(data)?;
    let config = SketchConfig { h: header.h as usize, k: header.k as usize, seed: header.seed };
    let mut sketch = KarySketch::new(config);
    sketch.load_table(read_table(cells));
    Ok(sketch)
}

/// Deserializes a sketch — dense or packed, told apart by the magic — into
/// an existing hash family, skipping the family lookup. The
/// serialized identity must match `rows` exactly; a mismatch is
/// [`WireError::FamilyMismatch`], found before anything is allocated. This
/// is the hot path for checkpoint restore, which decodes several sketches
/// of one family, and for the aggregator's parity recovery.
pub fn from_bytes_with_rows(data: &[u8], rows: &Arc<HashRows>) -> Result<KarySketch, WireError> {
    if data.starts_with(PACKED_MAGIC) {
        let pairs = packed_pairs(data, rows)?;
        let mut sketch = KarySketch::with_rows(Arc::clone(rows));
        let table = sketch.table_mut();
        walk_pairs(pairs, table.len(), |at, value| table[at] = value)?;
        return Ok(sketch);
    }
    let cells = dense_cells(data, rows)?;
    let mut sketch = KarySketch::with_rows(Arc::clone(rows));
    sketch.load_table(read_table(cells));
    Ok(sketch)
}

/// Checks a blob — dense or packed — against `rows`' family the way
/// [`from_bytes_with_rows`] decodes it, without building a table: it
/// rejects exactly what that decoder rejects, with the same error, and
/// allocates nothing. What an aggregator runs at receipt, before it keeps
/// the bytes for [`add_into`].
///
/// # Errors
/// As [`from_bytes_with_rows`].
pub fn validate_with_rows(data: &[u8], rows: &HashRows) -> Result<(), WireError> {
    if data.starts_with(PACKED_MAGIC) {
        return walk_pairs(packed_pairs(data, rows)?, rows.h() * rows.k(), |_, _| {});
    }
    dense_cells(data, rows).map(drop)
}

/// **COMBINE** straight from a blob: `sketch += S` for the sketch `S` the
/// blob holds, without decoding `S` into a table of its own — a packed
/// blob costs its non-zero cells only. Per cell this is the addition
/// [`KarySketch::add_scaled`]`(S, 1.0)` performs, so the sum is
/// bit-identical to decoding first: a skipped zero cell would add `+0.0`,
/// which changes no cell but `-0.0`, and a sum that starts from a zeroed
/// table never holds `-0.0`.
///
/// # Errors
/// As [`from_bytes_with_rows`] against `sketch`'s family. Envelope, header
/// and family errors leave `sketch` untouched; a broken packed body is
/// found part way, so run [`validate_with_rows`] first where a partial sum
/// matters.
pub fn add_into(data: &[u8], sketch: &mut KarySketch) -> Result<(), WireError> {
    if data.starts_with(PACKED_MAGIC) {
        let pairs = packed_pairs(data, sketch.rows())?;
        let table = sketch.table_mut();
        return walk_pairs(pairs, table.len(), |at, value| table[at] += value);
    }
    let mut cells = dense_cells(data, sketch.rows())?;
    for cell in sketch.table_mut() {
        *cell += cells.f64().expect("cell count validated");
    }
    Ok(())
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
