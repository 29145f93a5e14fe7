//! On-disk format for k-ary sketch archives.
//!
//! Same durability posture as `scd-core`'s checkpoints (both go through
//! `scd_hash::envelope`'s file envelope and atomic write). An archive
//! file and a detector checkpoint side by side capture a node's full
//! state: the checkpoint resumes the live pipeline, the archive resumes
//! history.
//!
//! Body inside the `SCDARCH1` envelope (little-endian):
//!
//! ```text
//! max_sketches: u32, full_resolution: u32, keys_per_epoch: u32
//! next_interval: u64
//! n_epochs: u32
//! per epoch:
//!   start: u64, len: u64
//!   n_notable: u32, then (key: u64, weight: f64) pairs
//!   sketch blob: u64 length + scd-sketch wire bytes (self-checksummed)
//! ```
//!
//! Decoding trusts nothing: envelope first, then per-field validation,
//! then [`SketchArchive`] re-validates the structural invariants
//! (contiguous epochs, one hash family) before any query can run. Hash
//! tables are derived once from the first epoch's header and shared
//! across the remaining blobs.

use crate::archive::{ArchiveConfig, ArchiveError, Epoch, SketchArchive};
use crate::store::Table;
use scd_hash::byteio::{self, Cursor};
use scd_hash::envelope::{self, BadField, SealError};
use scd_sketch::{wire as sketch_wire, KarySketch};
use std::path::Path;
use std::sync::Arc;

/// File magic for archive version 1.
pub const MAGIC: &[u8; 8] = b"SCDARCH1";

/// Errors from reading or writing archive files.
#[derive(Debug)]
pub enum ArchiveWireError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The envelope did not open (wrong magic, truncation, checksum), or
    /// the body ends before its structure does.
    Envelope(SealError),
    /// A structurally invalid field.
    Malformed(String),
    /// An embedded sketch blob failed to decode.
    Sketch(sketch_wire::WireError),
    /// The decoded structure was rejected by the archive's invariants.
    Archive(ArchiveError),
}

impl std::fmt::Display for ArchiveWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveWireError::Io(e) => write!(f, "archive i/o: {e}"),
            ArchiveWireError::Envelope(e) => write!(f, "archive file: {e}"),
            ArchiveWireError::Malformed(what) => write!(f, "malformed archive: {what}"),
            ArchiveWireError::Sketch(e) => write!(f, "embedded sketch: {e}"),
            ArchiveWireError::Archive(e) => write!(f, "archive rejected: {e}"),
        }
    }
}

impl std::error::Error for ArchiveWireError {}

impl From<std::io::Error> for ArchiveWireError {
    fn from(e: std::io::Error) -> Self {
        ArchiveWireError::Io(e)
    }
}

impl From<SealError> for ArchiveWireError {
    fn from(e: SealError) -> Self {
        ArchiveWireError::Envelope(e)
    }
}

impl From<byteio::ShortInput> for ArchiveWireError {
    fn from(e: byteio::ShortInput) -> Self {
        ArchiveWireError::Envelope(e.into())
    }
}

impl From<BadField> for ArchiveWireError {
    fn from(e: BadField) -> Self {
        ArchiveWireError::Malformed(e.0.into())
    }
}

impl From<sketch_wire::WireError> for ArchiveWireError {
    fn from(e: sketch_wire::WireError) -> Self {
        ArchiveWireError::Sketch(e)
    }
}

impl From<ArchiveError> for ArchiveWireError {
    fn from(e: ArchiveError) -> Self {
        ArchiveWireError::Archive(e)
    }
}

/// Serializes the archive, envelope included.
pub fn to_bytes(archive: &SketchArchive<KarySketch>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let cfg = archive.config();
    byteio::put_u32(&mut out, cfg.max_sketches as u32);
    byteio::put_u32(&mut out, cfg.full_resolution as u32);
    byteio::put_u32(&mut out, cfg.keys_per_epoch as u32);
    byteio::put_u64(&mut out, archive.next_interval());
    byteio::put_u32(&mut out, archive.sketch_count() as u32);
    for epoch in archive.epochs() {
        byteio::put_u64(&mut out, epoch.start());
        byteio::put_u64(&mut out, epoch.len());
        byteio::put_u32(&mut out, epoch.notable().len() as u32);
        for &(key, weight) in epoch.notable() {
            byteio::put_u64(&mut out, key);
            byteio::put_f64(&mut out, weight);
        }
        envelope::put_blob(&mut out, &sketch_wire::to_bytes(&archive.dense_sketch(epoch)));
    }
    envelope::seal(&mut out);
    out
}

/// Parses an archive, opening the envelope before trusting any field and
/// re-validating every archive invariant before returning.
pub fn from_bytes(data: &[u8]) -> Result<SketchArchive<KarySketch>, ArchiveWireError> {
    let mut cur = Cursor::new(envelope::open(MAGIC, data)?);
    let config = ArchiveConfig {
        max_sketches: cur.u32()? as usize,
        full_resolution: cur.u32()? as usize,
        keys_per_epoch: cur.u32()? as usize,
    };
    let next_interval = cur.u64()?;
    let n_epochs = cur.u32()? as usize;
    if n_epochs > config.max_sketches {
        return Err(ArchiveWireError::Malformed(format!(
            "{n_epochs} epochs exceed the declared budget of {}",
            config.max_sketches
        )));
    }
    // `max_sketches` is itself a file-supplied field, so bound the count
    // against the bytes actually present before sizing any allocation: an
    // epoch cannot be smaller than start + len + n_notable + blob_len.
    const MIN_EPOCH_BYTES: usize = 8 + 8 + 4 + 8;
    if n_epochs > cur.remaining() / MIN_EPOCH_BYTES {
        return Err(ArchiveWireError::Malformed(format!(
            "{n_epochs} epochs cannot fit in {} remaining bytes",
            cur.remaining()
        )));
    }
    let mut rows = None;
    let mut epochs = Vec::with_capacity(n_epochs);
    for _ in 0..n_epochs {
        let start = cur.u64()?;
        let len = cur.u64()?;
        let n_notable = cur.u32()? as usize;
        if n_notable > config.keys_per_epoch {
            return Err(ArchiveWireError::Malformed(format!(
                "{n_notable} directory keys exceed keys_per_epoch {}",
                config.keys_per_epoch
            )));
        }
        // Same defense as the epoch count: `keys_per_epoch` came off the
        // wire too, so cap the allocation by the 16 bytes each entry needs.
        if n_notable > cur.remaining() / 16 {
            return Err(ArchiveWireError::Malformed(format!(
                "{n_notable} directory keys cannot fit in {} remaining bytes",
                cur.remaining()
            )));
        }
        let mut notable = Vec::with_capacity(n_notable);
        for _ in 0..n_notable {
            let key = cur.u64()?;
            let weight = cur.f64()?;
            if !weight.is_finite() || weight < 0.0 {
                return Err(ArchiveWireError::Malformed(format!(
                    "directory weight {weight} for key {key} is not a finite nonnegative number"
                )));
            }
            notable.push((key, weight));
        }
        let blob = envelope::blob(&mut cur)?;
        // First epoch derives the hash family; the rest must share it
        // (enforced by `from_bytes_with_rows`, then re-checked by
        // `from_parts`).
        let sketch = match &rows {
            None => {
                let s = sketch_wire::from_bytes(blob)?;
                rows = Some(Arc::clone(s.rows()));
                s
            }
            Some(rows) => sketch_wire::from_bytes_with_rows(blob, rows)?,
        };
        epochs.push(Epoch { start, len, table: Table::Dense(sketch), notable });
    }
    if cur.remaining() != 0 {
        return Err(ArchiveWireError::Malformed(format!("{} trailing bytes", cur.remaining())));
    }
    Ok(SketchArchive::from_parts(config, next_interval, epochs)?)
}

/// Writes the archive atomically (`scd_hash::envelope::write_atomic`): a
/// crash leaves either the old file or the new one, never a torn hybrid.
pub fn write_atomic(
    archive: &SketchArchive<KarySketch>,
    path: &Path,
) -> Result<(), ArchiveWireError> {
    Ok(envelope::write_atomic(path, &to_bytes(archive))?)
}

/// Reads and verifies an archive from disk.
pub fn load(path: &Path) -> Result<SketchArchive<KarySketch>, ArchiveWireError> {
    let bytes = std::fs::read(path)?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_sketch::SketchConfig;

    fn sample() -> SketchArchive<KarySketch> {
        let cfg = ArchiveConfig { max_sketches: 8, full_resolution: 2, keys_per_epoch: 4 };
        let mut archive = SketchArchive::new(cfg).unwrap();
        let proto = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 21 });
        for t in 0..40u64 {
            let mut s = proto.zero_like();
            s.update(t % 10, (t + 1) as f64);
            archive.push(s, &[(t % 10, (t + 1) as f64)]).unwrap();
        }
        archive
    }

    #[test]
    fn round_trip_preserves_structure_and_answers() {
        let original = sample();
        let back = from_bytes(&to_bytes(&original)).expect("decode");
        assert_eq!(back.config(), original.config());
        assert_eq!(back.next_interval(), original.next_interval());
        assert_eq!(back.sketch_count(), original.sketch_count());
        for (a, b) in original.epochs().zip(back.epochs()) {
            assert_eq!(a.start(), b.start());
            assert_eq!(a.len(), b.len());
            assert_eq!(a.notable(), b.notable());
            assert_eq!(original.dense_sketch(a).table(), back.dense_sketch(b).table());
        }
        // Queries agree bit for bit.
        let qa = original.changed_keys(8, 24, 0.05, &[]).unwrap();
        let qb = back.changed_keys(8, 24, 0.05, &[]).unwrap();
        assert_eq!(qa, qb);
    }

    #[test]
    fn empty_archive_round_trips() {
        let cfg = ArchiveConfig { max_sketches: 8, full_resolution: 2, keys_per_epoch: 4 };
        let empty = SketchArchive::<KarySketch>::new(cfg).unwrap();
        let back = from_bytes(&to_bytes(&empty)).expect("decode");
        assert_eq!(back.sketch_count(), 0);
        assert_eq!(back.coverage(), None);
    }

    /// A syntactically framed archive (magic + valid CRC footer) whose
    /// header fields are attacker-chosen.
    fn framed(fields: &[u8]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(fields);
        envelope::seal(&mut buf);
        buf
    }

    #[test]
    fn hostile_epoch_count_is_bounded_by_remaining_bytes() {
        // The file declares a huge budget AND a huge epoch count: both
        // self-consistent, so only the remaining-bytes bound stands
        // between the decoder and a multi-gigabyte allocation.
        let mut fields = Vec::new();
        byteio::put_u32(&mut fields, u32::MAX); // max_sketches
        byteio::put_u32(&mut fields, 1); // full_resolution
        byteio::put_u32(&mut fields, 4); // keys_per_epoch
        byteio::put_u64(&mut fields, 0); // next_interval
        byteio::put_u32(&mut fields, u32::MAX); // n_epochs, but no epoch bytes
        assert!(matches!(
            from_bytes(&framed(&fields)),
            Err(ArchiveWireError::Malformed(msg)) if msg.contains("cannot fit")
        ));
    }

    #[test]
    fn hostile_notable_count_is_bounded_by_remaining_bytes() {
        // One plausible epoch whose directory claims u32::MAX entries
        // against a file-declared budget that happily allows it.
        let mut fields = Vec::new();
        byteio::put_u32(&mut fields, 1); // max_sketches
        byteio::put_u32(&mut fields, 1); // full_resolution
        byteio::put_u32(&mut fields, u32::MAX); // keys_per_epoch
        byteio::put_u64(&mut fields, 0); // next_interval
        byteio::put_u32(&mut fields, 1); // n_epochs
        byteio::put_u64(&mut fields, 0); // epoch start
        byteio::put_u64(&mut fields, 1); // epoch len
        byteio::put_u32(&mut fields, u32::MAX); // n_notable, no entries
        byteio::put_u64(&mut fields, 0); // blob_len (padding past the epoch floor)
        assert!(matches!(
            from_bytes(&framed(&fields)),
            Err(ArchiveWireError::Malformed(msg)) if msg.contains("directory keys cannot fit")
        ));
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut bytes = to_bytes(&sample());
        bytes[..8].copy_from_slice(b"SCDCKPT2");
        assert!(matches!(from_bytes(&bytes), Err(ArchiveWireError::Envelope(SealError::BadMagic))));
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir().join("scd-archive-wire-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node.arch");
        let archive = sample();
        write_atomic(&archive, &path).expect("write");
        // Overwrite must replace atomically.
        write_atomic(&archive, &path).expect("overwrite");
        let back = load(&path).expect("load");
        assert_eq!(back.sketch_count(), archive.sketch_count());
        std::fs::remove_file(&path).ok();
    }
}
