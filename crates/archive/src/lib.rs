//! Multi-resolution sketch archive with historical change queries.
//!
//! The paper's detector answers "what changed *now*?" and then discards
//! the interval it just explained. This crate keeps those intervals
//! around: every per-interval sketch the engine produces is [`push`]ed
//! into a [`SketchArchive`], which retains history under a **fixed
//! sketch-count budget** by decaying resolution with age — the time
//! aggregation of Matusevych, Smola & Ahmed's *Hokusai* (UAI 2012)
//! adapted to the paper's linear sketches.
//!
//! The mechanism is the sketches' linearity (paper §3.1): COMBINE of two
//! adjacent intervals' sketches *is* the sketch of their union, exactly,
//! so halving resolution is a per-cell addition and never re-reads the
//! stream. The archive keeps the most recent `full_resolution` intervals
//! at width 1 and, whenever the budget is exceeded, merges the oldest
//! adjacent *buddy* pair (equal widths `w` at a `2w`-aligned start) —
//! the classic binary-counter layout: after `T` pushes the tail holds
//! epochs of width 1, 2, 4, 8, …, so `O(log T)` sketches cover the whole
//! history and any query window is answered from `O(log T)` COMBINEs.
//!
//! Queries:
//!
//! * [`SketchArchive::range_sketch`] — the (exact, by linearity) sketch
//!   of any past window `[from, to)`, snapped to epoch boundaries.
//! * [`SketchArchive::changed_keys`] — top changed keys over a past
//!   window, using the same `TA = T·√F2` alarm rule as the live
//!   detector. Candidate keys come from the archive's per-epoch *key
//!   directory*: each epoch remembers its most salient keys (bounded by
//!   [`ArchiveConfig::keys_per_epoch`]), merged as epochs merge.
//! * [`SketchArchive::key_history`] — a key's accumulated value per
//!   epoch across a window: forecast-error history at the archive's
//!   decayed resolution.
//!
//! **Epochs keep only their written cells.** A register no key hashed to
//! is `+0.0` and stays `+0.0` through every buddy merge, and most of an
//! error sketch is such registers. So every epoch but the newest — which
//! stays exactly as pushed — is held *packed* (the `(index, value)` pairs
//! of the registers whose bits are not `+0.0`, plus the scalars reads
//! take) whenever that is at most half its dense bytes. Every read,
//! merge and dump keeps the dense archive's bits; the epoch store's
//! module docs say why, and [`SketchArchive::memory_bytes`] gives the
//! budget.
//!
//! The archive is generic over any [`CellTable`](scd_sketch::CellTable) —
//! a [`LinearSketch`](scd_sketch::LinearSketch) that lends out its
//! registers, its read scalars and its estimator: the k-ary and count
//! sketches here, the serving plane's `f32` slim sketch in `scd-serve`.
//! Change queries additionally need
//! [`SecondMoment`](scd_sketch::SecondMoment) for the threshold. The
//! [`wire`] module gives k-ary archives a checksummed on-disk format
//! with atomic writes, mirroring `scd-core`'s checkpoints.
//!
//! [`push`]: SketchArchive::push
//!
//! # Example
//!
//! ```
//! use scd_archive::{ArchiveConfig, SketchArchive};
//! use scd_sketch::{KarySketch, SketchConfig};
//!
//! let cfg = ArchiveConfig { max_sketches: 8, full_resolution: 2, keys_per_epoch: 16 };
//! let mut archive = SketchArchive::new(cfg).unwrap();
//! let proto = KarySketch::new(SketchConfig { h: 3, k: 256, seed: 1 });
//! for t in 0..32u64 {
//!     let mut s = proto.zero_like();
//!     s.update(7, 100.0);
//!     if t == 20 {
//!         s.update(99, 5_000.0); // the change we'll query for later
//!     }
//!     archive.push(s, &[(7, 100.0), (99, if t == 20 { 5_000.0 } else { 0.0 })]).unwrap();
//! }
//! assert!(archive.sketch_count() <= 8);
//! let report = archive.changed_keys(16, 24, 0.05, &[]).unwrap();
//! assert_eq!(report.changes[0].key, 99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
mod store;
pub mod wire;

pub use archive::{
    ArchiveConfig, ArchiveError, ChangeQueryReport, Epoch, HistoryPoint, KeyChange, RangeSketch,
    SketchArchive,
};
pub use store::Packed;
pub use wire::ArchiveWireError;
