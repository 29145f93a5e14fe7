//! One hostile-input suite for every persisted and transmitted format.
//!
//! The seven formats share two envelopes (`scd_hash::envelope`), so they
//! share one contract: whatever arrives — a flipped bit, a cut, a stray
//! byte, a foreign magic, a length or count that promises more than the
//! input holds — decoding returns a typed error, never panics, never
//! sizes an allocation by a number the input has not earned, and leaves
//! nothing behind that would stop the pristine bytes decoding next. Each
//! row of [`cases`] is one format instance; every check runs over every
//! row, through the buffer decoder, (where the format has one) the stream
//! reader fed by a reader that dribbles 1..=n bytes at a time and
//! interrupts itself, and (for a sketch blob) the aggregator's receipt
//! check, which must reject what the decoder rejects and allocate nothing.
//!
//! Checks that only make sense for one format (hostile sketch `H`/`K`,
//! archive budgets, crossed SCDQ roles, invalid UTF-8, …) live in that
//! format's module.

mod common;

use common::*;
use sketch_change::archive::{wire as archive_wire, ArchiveConfig, SketchArchive};
use sketch_change::core::{Checkpoint, DetectorConfig, KeyStrategy, SketchChangeDetector};
use sketch_change::forecast::ModelSpec;
use sketch_change::hash::byteio::{put_uleb128, zigzag};
use sketch_change::hash::envelope::{self, FrameSpec, FOOTER_LEN, FRAME_HEADER_LEN};
use sketch_change::hash::{HashRows, SplitMix64};
use sketch_change::net::{Frame, FrameError, SCDN};
use sketch_change::serve::{Request, Response, SCDQ};
use sketch_change::sketch::{self, KarySketch, SketchConfig};
use sketch_change::traffic::{io, Corruptor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;
use std::sync::{Arc, OnceLock};

/// Counts the largest single request made on this thread — enough to
/// catch a decoder sizing a buffer from a hostile length — and how many
/// requests were made, for the reader that must make none.
struct PeakRequest;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static REQUESTS: Cell<usize> = const { Cell::new(0) };
}

fn note_request(size: usize) {
    PEAK.with(|p| p.set(p.get().max(size)));
    REQUESTS.with(|r| r.set(r.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// behaviour is stores to destructor-free thread-local `Cell`s.
unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakRequest = PeakRequest;

/// The most one decode attempt may request at once: room for what a
/// legitimate decode of this input builds (a sketch's hash tables are
/// 512 KiB each whatever the input says) and for the one 4 MiB chunk a
/// frame stream reader allocates ahead of the bytes it has received —
/// below what the hostile length prefixes and element counts here ask
/// for (a flipped high length bit: 8 MiB and up; all-ones: exabytes).
fn allocation_bound(input_len: usize) -> usize {
    (4 << 20) + 2 * input_len
}

/// `Ok` or the error's `Debug` text: enough to tell variants apart
/// without the table knowing six error types.
type Verdict = Result<(), String>;

fn verdict<T, E: std::fmt::Debug>(r: Result<T, E>) -> Verdict {
    r.map(drop).map_err(|e| format!("{e:?}"))
}

/// Which envelope wraps a case, for the checks that patch one.
#[derive(Clone, Copy)]
enum Wrap {
    File,
    Frame(FrameSpec),
}

struct Case {
    name: &'static str,
    clean: Vec<u8>,
    wrap: Wrap,
    decode: fn(&[u8]) -> Verdict,
    /// The format's stream reader, if it has one.
    stream: Option<fn(&mut dyn Read) -> Verdict>,
    /// For a sketch blob, the family the aggregator's receipt check
    /// (`wire::validate_with_rows`) reads it against.
    family: Option<&'static Arc<HashRows>>,
    /// `(offset, width)` of every length prefix or element count in
    /// `clean` that sizes something: each is overwritten with all-ones
    /// (and the checksum recomputed) to claim more than the input holds.
    counts: Vec<(usize, usize)>,
}

fn tiny_sketch(t: u64) -> KarySketch {
    let mut s = KarySketch::new(SketchConfig { h: 2, k: 8, seed: 3 });
    for (key, value) in items(t).into_iter().take(5) {
        s.update(key, value);
    }
    s
}

fn tiny_archive() -> SketchArchive<KarySketch> {
    let config = ArchiveConfig { max_sketches: 4, full_resolution: 2, keys_per_epoch: 2 };
    let mut archive = SketchArchive::new(config).unwrap();
    for t in 0..2 {
        archive.push(tiny_sketch(t), &items(t)[..2]).unwrap();
    }
    archive
}

fn tiny_checkpoint() -> Checkpoint {
    let config = DetectorConfig {
        sketch: SketchConfig { h: 2, k: 8, seed: 3 },
        model: ModelSpec::Ewma { alpha: 0.5 },
        threshold: 0.05,
        key_strategy: KeyStrategy::TwoPass,
    };
    let mut det = SketchChangeDetector::new(config.clone());
    for t in 0..3 {
        det.process_interval(&items(t)[..5]);
    }
    Checkpoint {
        config,
        snapshot: det.snapshot(),
        next_interval: Some(3),
        processed: 15,
        staggered: None,
        glr: None,
    }
}

/// A packed blob fills a table the receiver already holds the rows for:
/// the two families the fixtures come in, built once.
fn rows_of(tiny: bool) -> &'static Arc<HashRows> {
    static ROWS: [OnceLock<Arc<HashRows>>; 2] = [OnceLock::new(), OnceLock::new()];
    ROWS[usize::from(tiny)]
        .get_or_init(|| Arc::clone(if tiny { tiny_sketch(0) } else { sample_sketch(1) }.rows()))
}

fn decode_packed(blob: &[u8], tiny: bool) -> Verdict {
    verdict(sketch::wire::from_bytes_with_rows(blob, rows_of(tiny)))
}

/// What the aggregator does with an interval frame: open it, then open
/// both blobs against its own family.
fn decode_shipped(frame: Result<Frame, FrameError>) -> Verdict {
    match frame {
        Ok(Frame::Interval { data, parity, .. }) => {
            decode_packed(&data, true).and(decode_packed(&parity, true))
        }
        other => verdict(other),
    }
}

fn tiny_packed_interval_frame() -> Frame {
    Frame::Interval {
        node: 0,
        interval: 3,
        data: sketch::wire::to_bytes_packed(&tiny_sketch(0)),
        data_keys: vec![1, 2],
        parity: sketch::wire::to_bytes_packed(&tiny_sketch(1)),
        parity_keys: vec![3],
    }
}

fn tiny_interval_frame() -> Frame {
    Frame::Interval {
        node: 0,
        interval: 3,
        data: sketch::to_bytes(&tiny_sketch(0)),
        data_keys: vec![1, 2],
        parity: sketch::to_bytes(&tiny_sketch(1)),
        parity_keys: vec![3],
    }
}

/// One row per format instance. The tiny ones (≤ 4 KiB) take every bit
/// flip and every truncation; the golden-sized ones a seeded sample.
///
/// Count offsets, by format:
/// * sketch, dense or packed — `h`, `k` right after the 8-byte magic (a
///   packed body has no count of its own: its table is the receiver's);
/// * archive — `n_epochs` after magic + 3×u32 config + u64 next interval,
///   then the first epoch's `n_notable` after its start and length;
/// * checkpoint — the model spec's `u32` length after magic + sketch
///   shape, and the length in front of the first embedded sketch blob;
/// * SCDN interval — the data blob's length after header + node +
///   interval, and the key count behind the blob;
/// * SCDQ `ChangedKeys` response — the change count after header + eight
///   8-byte fields.
fn cases() -> Vec<Case> {
    let file = |name, clean, decode, counts: &[(usize, usize)]| Case {
        name,
        clean,
        wrap: Wrap::File,
        decode,
        stream: None,
        family: None,
        counts: counts.to_vec(),
    };
    // The u64 length in front of the first embedded sketch blob.
    let first_blob_len =
        |bytes: &[u8]| bytes.windows(8).position(|w| w == b"SCDSKT02").expect("a blob") - 8;
    let scdn = |name, frame: Frame| {
        let clean = frame.encode();
        let counts = match &frame {
            Frame::Interval { data, .. } => vec![(21, 8), (21 + 8 + data.len(), 8)],
            _ => vec![],
        };
        Case {
            name,
            clean,
            wrap: Wrap::Frame(SCDN),
            decode: |b| verdict(Frame::decode(b)),
            stream: Some(|mut r| verdict(Frame::read_from(&mut r))),
            family: None,
            counts,
        }
    };
    let sketch_case = |name, s: &KarySketch, tiny| Case {
        family: Some(rows_of(tiny)),
        ..file(name, sketch::to_bytes(s), |b| verdict(sketch::from_bytes(b)), &[(8, 8), (16, 8)])
    };
    let packed_case = |name, s: &KarySketch, tiny, decode| {
        let clean = sketch::wire::to_bytes_packed(s);
        assert!(clean.starts_with(b"SCDSKP01"), "{name}: the fixture must pack");
        Case { family: Some(rows_of(tiny)), ..file(name, clean, decode, &[(8, 8), (16, 8)]) }
    };
    let archive_case = |name, a: &SketchArchive<KarySketch>| {
        let bytes = archive_wire::to_bytes(a);
        let counts = [(28, 4), (48, 4), (first_blob_len(&bytes), 8)];
        file(name, bytes, |b| verdict(archive_wire::from_bytes(b)), &counts)
    };
    let checkpoint_case = |name, ck: &Checkpoint| {
        let bytes = ck.to_bytes();
        let counts = [(24, 4), (first_blob_len(&bytes), 8)];
        file(name, bytes, |b| verdict(Checkpoint::from_bytes(b)), &counts)
    };
    let trace_case = |name, records: &[_]| Case {
        stream: Some(|r| verdict(io::read_binary(r))),
        ..file(name, io::to_binary(records), |b| verdict(io::from_binary(b)), &[])
    };
    vec![
        sketch_case("SCDSKT02 (tiny)", &tiny_sketch(0), true),
        sketch_case("SCDSKT02", &sample_sketch(1), false),
        packed_case("SCDSKP01 (tiny)", &tiny_sketch(0), true, |b| decode_packed(b, true)),
        packed_case("SCDSKP01", &sample_sketch(1), false, |b| decode_packed(b, false)),
        trace_case("SCDTRC02 (tiny)", &sample_trace()[..5]),
        trace_case("SCDTRC02", &sample_trace()),
        archive_case("SCDARCH1 (tiny)", &tiny_archive()),
        archive_case("SCDARCH1", &sample_archive()),
        checkpoint_case("SCDCKPT2 (tiny)", &tiny_checkpoint()),
        checkpoint_case("SCDCKPT2 (plain)", &plain_checkpoint()),
        checkpoint_case("SCDCKPT2 (staggered + GLR)", &v2_checkpoint()),
        scdn("SCDN ack", Frame::Ack { interval: 7 }),
        scdn("SCDN interval (tiny)", tiny_interval_frame()),
        scdn("SCDN interval", interval_frame()),
        // A packed frame, opened the way the aggregator opens it.
        Case {
            decode: |b| decode_shipped(Frame::decode(b)),
            stream: Some(|mut r| decode_shipped(Frame::read_from(&mut r))),
            ..scdn("SCDN packed interval (tiny)", tiny_packed_interval_frame())
        },
        Case {
            name: "SCDQ request",
            clean: changed_keys_request().encode(),
            wrap: Wrap::Frame(SCDQ),
            decode: |b| verdict(Request::decode(b)),
            stream: Some(|mut r| verdict(Request::read_from(&mut r))),
            family: None,
            counts: vec![],
        },
        Case {
            name: "SCDQ response",
            clean: changed_keys_response().encode(),
            wrap: Wrap::Frame(SCDQ),
            decode: |b| verdict(Response::decode(b)),
            stream: Some(|mut r| verdict(Response::read_from(&mut r))),
            family: None,
            counts: vec![(FRAME_HEADER_LEN + 64, 8)],
        },
    ]
}

/// Hands out the wrapped bytes 1..=`max` at a time (seeded), and now and
/// then fails with `Interrupted` first — everything `Read` allows a pipe
/// or socket to do that a slice never does.
struct DribbleReader<'a> {
    data: &'a [u8],
    max: u64,
    rng: SplitMix64,
}

impl Read for DribbleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.rng.next_below(8) == 0 {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let want = 1 + self.rng.next_below(self.max) as usize;
        let n = want.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

impl Case {
    /// The aggregator's receipt check, for a sketch blob: it writes no
    /// table, so it must not allocate at all.
    fn receipt_check(&self, bytes: &[u8]) -> Option<Verdict> {
        let rows = self.family?;
        REQUESTS.with(|r| r.set(0));
        let got = sketch::wire::validate_with_rows(bytes, rows);
        let requests = REQUESTS.with(Cell::get);
        assert_eq!(requests, 0, "{}: the receipt check allocated", self.name);
        Some(verdict(got))
    }

    /// Every way this case's bytes can be decoded, each under the
    /// allocation bound: the buffer decoder, then the stream reader
    /// dribbled a byte at a time and in larger gulps, then the receipt
    /// check.
    fn verdicts(&self, bytes: &[u8]) -> Vec<(String, Verdict)> {
        let guarded = |how: String, run: &dyn Fn() -> Verdict| {
            PEAK.with(|p| p.set(0));
            let got = run();
            let peak = PEAK.with(Cell::get);
            assert!(
                peak <= allocation_bound(bytes.len()),
                "{}: {how} requested {peak} bytes at once for a {}-byte input",
                self.name,
                bytes.len()
            );
            (how, got)
        };
        let mut all = vec![guarded("buffer".into(), &|| (self.decode)(bytes))];
        if let Some(stream) = self.stream {
            // A byte at a time is affordable on the tiny cases only.
            for max in [1, 7, 1 << 16].into_iter().skip(usize::from(bytes.len() > 4096)) {
                all.push(guarded(format!("stream (reads <= {max} B)"), &|| {
                    let rng = SplitMix64::new(0xD81B ^ max);
                    stream(&mut DribbleReader { data: bytes, max, rng })
                }));
            }
        }
        all.extend(self.receipt_check(bytes).map(|got| ("receipt check".into(), got)));
        all
    }

    fn assert_rejected(&self, bytes: &[u8], what: &str) -> Vec<String> {
        self.verdicts(bytes)
            .into_iter()
            .map(|(how, got)| match got {
                Err(e) => e,
                Ok(()) => panic!("{}: {what} decoded successfully via {how}", self.name),
            })
            .collect()
    }

    fn assert_pristine(&self) {
        for (how, got) in self.verdicts(&self.clean) {
            assert_eq!(got, Ok(()), "{}: pristine bytes via {how}", self.name);
        }
    }

    /// `clean` with `patch` applied to everything before the footer and
    /// the checksum recomputed, so only the patched field is under test.
    fn resealed(&self, patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut bytes = self.clean[..self.clean.len() - FOOTER_LEN].to_vec();
        patch(&mut bytes);
        envelope::seal(&mut bytes);
        bytes
    }

    fn is_small(&self) -> bool {
        self.clean.len() <= 4096
    }
}

#[test]
fn pristine_bytes_decode_every_way() {
    for case in cases() {
        case.assert_pristine();
    }
}

#[test]
fn every_single_bit_flip_is_a_typed_error() {
    for case in cases() {
        let flip = |pos: usize, mask: u8| {
            let mut bad = case.clean.clone();
            bad[pos] ^= mask;
            case.assert_rejected(&bad, &format!("flip at byte {pos} (mask {mask:#04x})"));
        };
        if case.is_small() {
            for pos in 0..case.clean.len() {
                (0..8).for_each(|bit| flip(pos, 1 << bit));
            }
        } else {
            // The envelope's own bytes exhaustively, the body by sample.
            for pos in (0..16).chain(case.clean.len() - 8..case.clean.len()) {
                (0..8).for_each(|bit| flip(pos, 1 << bit));
            }
            for seed in 0..200 {
                let (pos, mask) = Corruptor::new(seed).flip_one_byte(&mut case.clean.clone());
                flip(pos, mask);
            }
        }
        case.assert_pristine();
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    for case in cases() {
        let len = case.clean.len();
        let lengths: Vec<usize> = if case.is_small() {
            (0..len).collect()
        } else {
            // Both ends densely, the middle on a stride coprime to every
            // record and cell width.
            (0..64).chain((64..len - 64).step_by((len / 61) | 1)).chain(len - 64..len).collect()
        };
        for keep in lengths {
            let errors = case.assert_rejected(&case.clean[..keep], &format!("cut to {keep}"));
            // On a stream, only a cut at the frame boundary is a clean
            // close; inside a frame it must read as a failure.
            if let Wrap::Frame(_) = case.wrap {
                for e in &errors[1..] {
                    assert_eq!(e == "Closed", keep == 0, "{}: cut to {keep}: {e}", case.name);
                }
            }
        }
        case.assert_pristine();
    }
}

#[test]
fn one_appended_byte_is_a_typed_error() {
    for case in cases() {
        let mut longer = case.clean.clone();
        longer.push(0);
        // A stream reader stops at the frame's end by design: the stray
        // byte is the next frame's problem. Buffers must be exact.
        let got = (case.decode)(&longer);
        assert!(got.is_err(), "{}: a trailing byte decoded successfully", case.name);
        if let Some(got) = case.receipt_check(&longer) {
            assert!(got.is_err(), "{}: a trailing byte passed the receipt check", case.name);
        }
        if let (Wrap::File, Some(stream)) = (case.wrap, case.stream) {
            assert!(stream(&mut &longer[..]).is_err(), "{}: trailing byte via stream", case.name);
        }
    }
}

#[test]
fn a_foreign_magic_is_named_as_such() {
    for case in cases() {
        // Other formats' magics (of formats read by one decoder each: a
        // sketch blob under the other sketch magic is a checksum error),
        // then no format's.
        let foreign: [&[u8]; 3] = match case.wrap {
            Wrap::File => [b"SCDARCH1", b"SCDCKPT2", &[0; 8]],
            Wrap::Frame(_) => [b"SCDN", b"SCDQ", &[0; 4]],
        };
        for magic in foreign.into_iter().filter(|m| !case.clean.starts_with(m)) {
            let mut bad = case.clean.clone();
            bad[..magic.len()].copy_from_slice(magic);
            for e in case.assert_rejected(&bad, "a foreign magic") {
                assert!(e.contains("BadMagic"), "{}: foreign magic reported as {e}", case.name);
            }
        }
    }
}

#[test]
fn a_length_prefix_just_over_the_limit_is_refused_from_the_header() {
    for case in cases() {
        let Wrap::Frame(spec) = case.wrap else { continue };
        let bad = case.resealed(|bytes| {
            bytes[5..FRAME_HEADER_LEN].copy_from_slice(&(spec.max_payload + 1).to_le_bytes());
        });
        for e in case.assert_rejected(&bad, "an oversized length prefix") {
            assert!(e.contains("TooLarge"), "{}: oversized length reported as {e}", case.name);
        }
        // The header alone is enough: nothing behind it is waited for.
        for e in case.assert_rejected(&bad[..FRAME_HEADER_LEN], "an oversized bare header") {
            assert!(e.contains("TooLarge"), "{}: bare header reported as {e}", case.name);
        }
    }
}

#[test]
fn counts_larger_than_the_bytes_remaining_are_typed_errors() {
    for case in cases() {
        for &(at, width) in &case.counts {
            let bad = case.resealed(|bytes| bytes[at..at + width].fill(0xFF));
            case.assert_rejected(&bad, &format!("an all-ones count at {at}"));
            // One more than the truth is as unearned as all-ones.
            let bad = case.resealed(|bytes| {
                let carry = bytes[at..at + width].iter_mut().all(|b| {
                    *b = b.wrapping_add(1);
                    *b == 0
                });
                assert!(!carry, "{}: count at {at} was already all-ones", case.name);
            });
            case.assert_rejected(&bad, &format!("a count one too large at {at}"));
        }
        case.assert_pristine();
    }
}

/// The packed cell body's own rules, each broken once under a valid
/// checksum: a typed error every time, and never a table beyond the
/// receiver's own (the allocation bound rides on `assert_rejected`).
#[test]
fn packed_cell_bodies_that_break_their_rules_are_typed_errors() {
    let all = cases();
    let case = all.iter().find(|c| c.name == "SCDSKP01 (tiny)").expect("the tiny packed row");
    let cells = 2 * 8; // `tiny_sketch` is H = 2, K = 8
    let body = |pairs: &[u8]| {
        case.resealed(|bytes| {
            bytes.truncate(32); // magic ‖ h ‖ k ‖ seed
            bytes.extend_from_slice(pairs);
        })
    };
    let pair = |gap: u64, value: i64| {
        let mut out = Vec::new();
        put_uleb128(&mut out, gap);
        put_uleb128(&mut out, zigzag(value));
        out
    };
    // The harness is not vacuous: bodies that keep the rules decode.
    let last_cell = [pair(0, -3), pair(cells - 2, 1 << 53)].concat();
    for good in [&[][..], &pair(5, 7), &last_cell] {
        assert_eq!((case.decode)(&body(good)), Ok(()), "a valid body {good:02x?}");
    }
    let two_53_plus_1 = pair(0, (1 << 53) + 1);
    let past_the_end = [last_cell.clone(), pair(0, 1)].concat();
    let trailing_byte = [pair(5, 7), vec![0]].concat();
    let overlong = [vec![0x80; 10], vec![0x00, 0x02]].concat();
    let broken: [(&str, &[u8]); 10] = [
        ("a gap of exactly H*K", &pair(cells, 1)),
        ("a gap of u64::MAX", &pair(u64::MAX, 1)),
        ("a pair behind the last cell", &past_the_end),
        ("a zero value", &[0x00, 0x00]),
        ("a value of 2^53 + 1", &two_53_plus_1),
        ("a zero-padded gap", &[0x80, 0x00, 0x02]),
        ("a zero-padded value", &[0x00, 0x82, 0x00]),
        ("an eleven-byte varint", &overlong),
        ("a gap with no value", &[0x03]),
        ("one trailing byte", &trailing_byte),
    ];
    for (what, pairs) in broken {
        case.assert_rejected(&body(pairs), what);
    }
    case.assert_pristine();
}
