//! The two envelopes every persisted or transmitted format in the
//! workspace is wrapped in, plus the length-prefixed fields their bodies
//! share. A format module owns its *body* only; magic, length prefix,
//! CRC-32 placement, truncation handling and the atomic file write are
//! decided here, once.
//!
//! **File envelope** — sketch blobs, traces, archives, checkpoints:
//!
//! ```text
//! magic   8 bytes
//! body    any length
//! crc32   u32 LE over magic ‖ body
//! ```
//!
//! **Frame envelope** — one message on a byte stream, instantiated per
//! protocol by a [`FrameSpec`] constant (`SCDN`, `SCDQ`):
//!
//! ```text
//! magic   4 bytes
//! type    u8
//! len     u32 LE  (payload length, ≤ the protocol's `max_payload`)
//! payload len bytes
//! crc32   u32 LE over everything above
//! ```
//!
//! The frame CRC covers the header too, so a bit flip in the length field
//! that already sized the read is still caught before the payload is
//! decoded. Decoders treat input as hostile: every failure is a typed
//! error, and no allocation is sized by a length the input has not
//! already been checked against.

use crate::byteio::{put_u32, put_u64, put_u8, Cursor, ShortInput};
use crate::crc32::{crc32, Crc32};
use std::io::{self, Read, Write};
use std::path::Path;

/// Length of the CRC-32 footer closing both envelopes.
pub const FOOTER_LEN: usize = 4;

/// Why a file envelope did not open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The bytes do not start with the format's magic.
    BadMagic,
    /// The bytes end before the structure does.
    Truncated,
    /// The CRC-32 footer does not match the bytes before it.
    BadChecksum {
        /// Checksum recomputed over the bytes as read.
        computed: u32,
        /// Checksum stored in the footer.
        stored: u32,
    },
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::BadMagic => write!(f, "bad magic"),
            SealError::Truncated => write!(f, "truncated"),
            SealError::BadChecksum { computed, stored } => {
                write!(f, "checksum mismatch: computed {computed:#010x}, stored {stored:#010x}")
            }
        }
    }
}

impl std::error::Error for SealError {}

impl From<ShortInput> for SealError {
    fn from(_: ShortInput) -> Self {
        SealError::Truncated
    }
}

/// Closes a file envelope: appends the CRC-32 of everything in `buf`
/// (magic and body, written by the caller).
pub fn seal(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    put_u32(buf, crc);
}

/// The body of a file envelope, judged by framing alone: the magic
/// matches and a footer fits. The checksum is *not* verified — use
/// [`open`] unless the body's own framing must be judged first.
pub fn body<'a>(magic: &[u8; 8], data: &'a [u8]) -> Result<&'a [u8], SealError> {
    if !data.starts_with(magic) {
        return Err(SealError::BadMagic);
    }
    data.get(magic.len()..data.len().saturating_sub(FOOTER_LEN)).ok_or(SealError::Truncated)
}

/// Opens a file envelope: checks the magic, verifies the CRC-32 footer
/// over every preceding byte, and returns the body between them.
pub fn open<'a>(magic: &[u8; 8], data: &'a [u8]) -> Result<&'a [u8], SealError> {
    let body = body(magic, data)?;
    let (covered, footer) = data.split_at(data.len() - FOOTER_LEN);
    check_footer(crc32(covered), footer)?;
    Ok(body)
}

/// The one footer comparison: `footer` must hold `computed`, little-endian.
/// Stream readers that fold the CRC incrementally call this at EOF.
///
/// # Panics
/// If `footer` is not [`FOOTER_LEN`] bytes — a caller bug, not an input
/// property.
pub fn check_footer(computed: u32, footer: &[u8]) -> Result<(), SealError> {
    match footer_mismatch(computed, footer) {
        Some(stored) => Err(SealError::BadChecksum { computed, stored }),
        None => Ok(()),
    }
}

/// The stored checksum, if it differs from `computed`.
fn footer_mismatch(computed: u32, footer: &[u8]) -> Option<u32> {
    let stored = u32::from_le_bytes(footer.try_into().expect("footer is FOOTER_LEN bytes"));
    (stored != computed).then_some(stored)
}

/// Replaces the file at `path` atomically: write `<path>.tmp`, fsync,
/// rename over `path`, fsync the parent directory. A crash at any point
/// leaves the old file or the new one, never a torn hybrid. `.tmp` is
/// appended to the whole file name, so siblings `a.ckpt` and `a.state`
/// never share a temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("path has no file name: {}", path.display()),
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // The rename is durable only once the directory entry itself is
    // synced; without this a power loss can roll back to the old file.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

/// Bytes before a frame's payload: magic, type, length.
pub const FRAME_HEADER_LEN: usize = 9;

/// Most that [`FrameSpec::read_from`] allocates ahead of the bytes it has
/// actually received: above the 2.5 MiB of an interval frame at the
/// paper's `H = 5, K = 32768`, far below a protocol's `max_payload`.
const READ_CHUNK: usize = 4 << 20;

/// One protocol's instantiation of the frame envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpec {
    /// The four bytes every frame of the protocol starts with.
    pub magic: [u8; 4],
    /// Largest accepted payload: a longer length prefix is rejected from
    /// the header alone, before any allocation.
    pub max_payload: u32,
}

/// Errors from sealing, opening or reading frames — shared by every
/// protocol built on [`FrameSpec`].
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// A read timed out at a frame boundary, before any byte of the next
    /// frame: the peer is merely quiet and the stream is still in sync.
    Idle,
    /// A read timed out after part of a frame was consumed. The stream
    /// position is now mid-frame, so the connection must be dropped.
    Stalled,
    /// The bytes do not start with the protocol's magic.
    BadMagic,
    /// A type byte the protocol (or this direction of it) does not define.
    BadType(u8),
    /// The length prefix exceeds the protocol's `max_payload`.
    TooLarge(u32),
    /// The CRC-32 footer does not match the frame as read.
    BadCrc {
        /// Checksum computed over the frame as received.
        computed: u32,
        /// Checksum stored in the footer.
        stored: u32,
    },
    /// The payload ended before its structure did, had trailing bytes, or
    /// carried an invalid field.
    Malformed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::Closed => write!(f, "connection closed at frame boundary"),
            FrameError::Idle => write!(f, "no frame arrived within the read timeout"),
            FrameError::Stalled => write!(f, "peer stalled mid-frame past the read timeout"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadType(t) => write!(f, "unknown frame type {t}"),
            FrameError::TooLarge(n) => write!(f, "frame payload {n} exceeds the protocol limit"),
            FrameError::BadCrc { computed, stored } => {
                write!(f, "frame crc mismatch: computed {computed:#010x}, stored {stored:#010x}")
            }
            FrameError::Malformed => write!(f, "malformed frame payload"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<ShortInput> for FrameError {
    fn from(_: ShortInput) -> Self {
        FrameError::Malformed
    }
}

impl From<BadField> for FrameError {
    fn from(_: BadField) -> Self {
        FrameError::Malformed
    }
}

impl FrameSpec {
    /// Starts a frame of type `ty`: the header with its length still
    /// zero. The caller appends the payload directly, then [`seal`]s.
    ///
    /// [`seal`]: FrameSpec::seal
    pub fn begin(&self, ty: u8) -> Vec<u8> {
        // Room for every fixed-size message of both protocols (the
        // largest is 61 bytes sealed); longer ones grow as they are built.
        let mut frame = Vec::with_capacity(64);
        frame.extend_from_slice(&self.magic);
        put_u8(&mut frame, ty);
        put_u32(&mut frame, 0);
        frame
    }

    /// Finishes a frame started by [`begin`](FrameSpec::begin) in place:
    /// patches the length of the payload written since, appends the CRC.
    ///
    /// # Panics
    /// If the payload exceeds `max_payload` — the peer would refuse the
    /// frame, so the encoder built something the protocol cannot carry.
    pub fn seal(&self, mut frame: Vec<u8>) -> Vec<u8> {
        let len = u32::try_from(frame.len() - FRAME_HEADER_LEN)
            .ok()
            .filter(|&len| len <= self.max_payload)
            .expect("frame payload within the protocol's max_payload");
        frame[5..FRAME_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        seal(&mut frame);
        frame
    }

    /// Total length (header, payload, footer) of the frame at the front
    /// of `buf`, or `None` while its header is still incomplete — what an
    /// incremental receive buffer needs to know how much to wait for.
    ///
    /// # Errors
    /// `BadMagic` or `TooLarge`, from the header alone.
    pub fn frame_len(&self, buf: &[u8]) -> Result<Option<usize>, FrameError> {
        let Some(header) = buf.get(..FRAME_HEADER_LEN) else { return Ok(None) };
        if header[..4] != self.magic {
            return Err(FrameError::BadMagic);
        }
        let len = u32::from_le_bytes(header[5..].try_into().expect("4 length bytes"));
        if len > self.max_payload {
            return Err(FrameError::TooLarge(len));
        }
        Ok(Some(FRAME_HEADER_LEN + len as usize + FOOTER_LEN))
    }

    /// Opens exactly one frame held in a complete buffer (e.g. a spool
    /// file), returning its type byte and payload.
    ///
    /// # Errors
    /// Any [`FrameError`] except the stream-only `Io`/`Closed`/`Idle`/
    /// `Stalled`.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<(u8, &'a [u8]), FrameError> {
        if self.frame_len(bytes)? != Some(bytes.len()) {
            return Err(FrameError::Malformed);
        }
        let (covered, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
        check_frame_footer(crc32(covered), footer)?;
        Ok((bytes[4], &covered[FRAME_HEADER_LEN..]))
    }

    /// Reads exactly one frame off a stream, returning its type byte and
    /// payload.
    ///
    /// # Errors
    /// [`FrameError::Closed`] on EOF at a frame boundary,
    /// [`FrameError::Idle`] / [`FrameError::Stalled`] when the stream's
    /// read timeout fires before / after the frame's first byte, and any
    /// other [`FrameError`]; EOF mid-frame is `Io(UnexpectedEof)`.
    pub fn read_from(&self, r: &mut impl Read) -> Result<(u8, Vec<u8>), FrameError> {
        let mut header = [0u8; FRAME_HEADER_LEN];
        read_exact_or_closed(r, &mut header, true)?;
        let total = self.frame_len(&header)?.expect("header is complete");
        // Sized as the bytes arrive, not as the header promises: a hostile
        // length prefix costs one chunk, not `max_payload`. Every frame up
        // to a chunk long — all real ones — is one exact, zeroed-by-the-
        // allocator buffer.
        let want = total - FRAME_HEADER_LEN;
        let mut rest = vec![0u8; want.min(READ_CHUNK)];
        let mut filled = 0;
        loop {
            read_exact_or_closed(r, &mut rest[filled..], false)?;
            filled = rest.len();
            if filled == want {
                break;
            }
            rest.resize(want.min(filled + READ_CHUNK), 0);
        }
        let payload_len = want - FOOTER_LEN;
        let mut crc = Crc32::new();
        crc.update(&header);
        crc.update(&rest[..payload_len]);
        check_frame_footer(crc.finalize(), &rest[payload_len..])?;
        rest.truncate(payload_len);
        Ok((header[4], rest))
    }
}

fn check_frame_footer(computed: u32, footer: &[u8]) -> Result<(), FrameError> {
    match footer_mismatch(computed, footer) {
        Some(stored) => Err(FrameError::BadCrc { computed, stored }),
        None => Ok(()),
    }
}

/// `read_exact` that knows where it is in the frame. At a frame boundary
/// (`at_boundary`, nothing consumed yet) EOF is a clean [`Closed`] and a
/// timeout is [`Idle`]; once a byte of the frame has been consumed EOF is
/// a truncation (`Io`) and a timeout is [`Stalled`].
///
/// [`Closed`]: FrameError::Closed
/// [`Idle`]: FrameError::Idle
/// [`Stalled`]: FrameError::Stalled
fn read_exact_or_closed(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        let untouched = at_boundary && filled == 0;
        match r.read(&mut buf[filled..]) {
            Ok(0) if untouched => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                return Err(if untouched { FrameError::Idle } else { FrameError::Stalled });
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// A length-prefixed field that overruns its input or is not a valid
/// encoding; the payload names what was wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadField(pub &'static str);

impl From<ShortInput> for BadField {
    fn from(_: ShortInput) -> Self {
        BadField("field overruns its input")
    }
}

/// Appends a byte string: `u64` length, then the bytes.
pub fn put_blob(buf: &mut Vec<u8>, blob: &[u8]) {
    put_u64(buf, blob.len() as u64);
    buf.extend_from_slice(blob);
}

/// Reads a byte string written by [`put_blob`], borrowed from the input.
pub fn blob<'a>(cur: &mut Cursor<'a>) -> Result<&'a [u8], BadField> {
    let len = bounded_count(cur, 1)?;
    Ok(cur.take(len)?)
}

/// Appends a key list: `u64` count, then each key.
pub fn put_keys(buf: &mut Vec<u8>, keys: &[u64]) {
    put_u64(buf, keys.len() as u64);
    for &k in keys {
        put_u64(buf, k);
    }
}

/// Reads a key list written by [`put_keys`].
pub fn keys(cur: &mut Cursor<'_>) -> Result<Vec<u64>, BadField> {
    let n = bounded_count(cur, 8)?;
    (0..n).map(|_| Ok(cur.u64()?)).collect()
}

/// Appends a UTF-8 string: `u64` length, then the bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_blob(buf, s.as_bytes());
}

/// Reads a string written by [`put_str`]; non-UTF-8 bytes are an error.
pub fn str(cur: &mut Cursor<'_>) -> Result<String, BadField> {
    let bytes = blob(cur)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| BadField("string is not utf-8"))
}

/// Appends a presence byte: `1` when `present`, else `0`.
pub fn put_flag(buf: &mut Vec<u8>, present: bool) {
    put_u8(buf, u8::from(present));
}

/// Reads a presence byte; anything but `0`/`1` is an error.
pub fn flag(cur: &mut Cursor<'_>) -> Result<bool, BadField> {
    match cur.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(BadField("presence byte is neither 0 nor 1")),
    }
}

/// Appends an optional `u64`: a presence byte, then the value if any.
pub fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    put_flag(buf, v.is_some());
    if let Some(v) = v {
        put_u64(buf, v);
    }
}

/// Reads an optional `u64` written by [`put_opt_u64`].
pub fn opt_u64(cur: &mut Cursor<'_>) -> Result<Option<u64>, BadField> {
    Ok(if flag(cur)? { Some(cur.u64()?) } else { None })
}

/// Reads a `u64` element count and bounds it by the bytes actually left
/// (`elem_bytes` is the least one element can occupy), so a hostile count
/// cannot size an allocation past the input it arrived in.
pub fn bounded_count(cur: &mut Cursor<'_>, elem_bytes: usize) -> Result<usize, BadField> {
    let n = cur.u64()?;
    if n > (cur.remaining() / elem_bytes) as u64 {
        return Err(BadField("element count exceeds the bytes remaining"));
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"SCDTEST1";
    const SPEC: FrameSpec = FrameSpec { magic: *b"SCDT", max_payload: 1 << 10 };

    fn sealed_file(body: &[u8]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(body);
        seal(&mut buf);
        buf
    }

    fn sealed_frame(ty: u8, payload: &[u8]) -> Vec<u8> {
        let mut frame = SPEC.begin(ty);
        frame.extend_from_slice(payload);
        SPEC.seal(frame)
    }

    #[test]
    fn file_envelope_round_trips_and_names_each_failure() {
        let file = sealed_file(b"hello");
        assert_eq!(open(MAGIC, &file), Ok(&b"hello"[..]));
        assert_eq!(open(MAGIC, &sealed_file(b"")), Ok(&b""[..]));
        assert_eq!(open(b"SCDOTHER", &file), Err(SealError::BadMagic));
        assert_eq!(open(MAGIC, &file[..5]), Err(SealError::BadMagic));
        assert_eq!(open(MAGIC, &file[..10]), Err(SealError::Truncated));
        assert!(matches!(open(MAGIC, &file[..file.len() - 1]), Err(SealError::BadChecksum { .. })));
        // `body` judges framing only: a flipped body byte passes it and
        // fails `open`.
        let mut flipped = file.clone();
        flipped[9] ^= 1;
        assert_eq!(body(MAGIC, &flipped).map(<[u8]>::len), Ok(5));
        assert!(matches!(open(MAGIC, &flipped), Err(SealError::BadChecksum { .. })));
    }

    #[test]
    fn frame_round_trips_through_buffer_stream_and_incremental_paths() {
        let frame = sealed_frame(7, b"payload");
        assert_eq!(frame.len(), FRAME_HEADER_LEN + 7 + FOOTER_LEN);
        assert_eq!(SPEC.open(&frame).unwrap(), (7, &b"payload"[..]));
        let mut two = frame.clone();
        two.extend_from_slice(&sealed_frame(8, b""));
        let mut stream = io::Cursor::new(two.clone());
        assert_eq!(SPEC.read_from(&mut stream).unwrap(), (7, b"payload".to_vec()));
        assert_eq!(SPEC.read_from(&mut stream).unwrap(), (8, Vec::new()));
        assert!(matches!(SPEC.read_from(&mut stream), Err(FrameError::Closed)));
        // An incremental buffer learns the first frame's extent from its
        // header and nothing from less.
        assert_eq!(SPEC.frame_len(&two[..FRAME_HEADER_LEN - 1]).unwrap(), None);
        assert_eq!(SPEC.frame_len(&two).unwrap(), Some(frame.len()));
        assert!(matches!(SPEC.open(&two), Err(FrameError::Malformed)));
    }

    #[test]
    fn stream_reads_grow_with_the_bytes_received() {
        // A payload of several read chunks arrives whole...
        let big = FrameSpec { magic: *b"SCDT", max_payload: 16 << 20 };
        let payload: Vec<u8> = (0..2 * READ_CHUNK + 12_345).map(|i| i as u8).collect();
        let mut frame = big.begin(2);
        frame.extend_from_slice(&payload);
        let frame = big.seal(frame);
        assert_eq!(big.read_from(&mut io::Cursor::new(&frame)).unwrap(), (2, payload));
        // ...and a header promising one, with nothing behind it, is a
        // truncation that never held more than a chunk.
        let err = big.read_from(&mut io::Cursor::new(&frame[..FRAME_HEADER_LEN])).unwrap_err();
        assert!(matches!(err, FrameError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof));
    }

    #[test]
    fn oversized_length_prefix_is_refused_from_the_header() {
        let mut frame = sealed_frame(1, b"x");
        frame[5..9].copy_from_slice(&(SPEC.max_payload + 1).to_le_bytes());
        assert!(matches!(SPEC.frame_len(&frame), Err(FrameError::TooLarge(_))));
        assert!(matches!(SPEC.open(&frame), Err(FrameError::TooLarge(_))));
        assert!(matches!(
            SPEC.read_from(&mut io::Cursor::new(frame)),
            Err(FrameError::TooLarge(_))
        ));
    }

    /// Yields its bytes, then times out forever — a socket with a read
    /// timeout and a peer that went quiet.
    struct ThenTimeout(Vec<u8>);

    impl Read for ThenTimeout {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = self.0.len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn timeouts_are_idle_at_a_boundary_and_stalled_inside_a_frame() {
        let frame = sealed_frame(3, b"abcdef");
        assert!(matches!(SPEC.read_from(&mut ThenTimeout(vec![])), Err(FrameError::Idle)));
        for cut in [1, 5, FRAME_HEADER_LEN, FRAME_HEADER_LEN + 2, frame.len() - 1] {
            let mut quiet = ThenTimeout(frame[..cut].to_vec());
            assert!(
                matches!(SPEC.read_from(&mut quiet), Err(FrameError::Stalled)),
                "timeout after {cut} bytes must read as a mid-frame stall"
            );
        }
        // A whole frame, then quiet: the frame is delivered, the next
        // read is idle again.
        let mut quiet = ThenTimeout(frame.clone());
        assert_eq!(SPEC.read_from(&mut quiet).unwrap().0, 3);
        assert!(matches!(SPEC.read_from(&mut quiet), Err(FrameError::Idle)));
    }

    #[test]
    fn fields_round_trip() {
        let mut buf = Vec::new();
        put_blob(&mut buf, b"blob");
        put_keys(&mut buf, &[1, u64::MAX]);
        put_str(&mut buf, "héllo");
        put_opt_u64(&mut buf, None);
        put_opt_u64(&mut buf, Some(9));
        let mut cur = Cursor::new(&buf);
        assert_eq!(blob(&mut cur).unwrap(), b"blob");
        assert_eq!(keys(&mut cur).unwrap(), vec![1, u64::MAX]);
        assert_eq!(str(&mut cur).unwrap(), "héllo");
        assert_eq!(opt_u64(&mut cur).unwrap(), None);
        assert_eq!(opt_u64(&mut cur).unwrap(), Some(9));
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn hostile_fields_are_typed_errors() {
        // Counts and lengths beyond the bytes present.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        buf.extend_from_slice(&[0; 16]);
        assert!(blob(&mut Cursor::new(&buf)).is_err());
        assert!(keys(&mut Cursor::new(&buf)).is_err());
        assert!(bounded_count(&mut Cursor::new(&buf), 16).is_err());
        let mut three = Vec::new();
        put_u64(&mut three, 3);
        three.extend_from_slice(&[0; 16]);
        assert!(keys(&mut Cursor::new(&three)).is_err(), "3 keys need 24 bytes, 16 present");
        assert_eq!(
            bounded_count(&mut Cursor::new(&three), 8),
            Err(BadField("element count exceeds the bytes remaining"))
        );
        // Presence bytes other than 0/1, and non-UTF-8 strings.
        assert!(flag(&mut Cursor::new(&[2])).is_err());
        assert!(opt_u64(&mut Cursor::new(&[1, 0, 0])).is_err());
        let mut bad = Vec::new();
        put_blob(&mut bad, &[0xFF, 0xFE]);
        assert_eq!(str(&mut Cursor::new(&bad)), Err(BadField("string is not utf-8")));
    }
}
