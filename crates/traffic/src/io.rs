//! Trace persistence: CSV (human-inspectable) and a compact binary format.
//!
//! The binary body is a run of fixed 33-byte little-endian records —
//! `timestamp_ms:u64, src_ip:u32, dst_ip:u32, src_port:u16, dst_port:u16,
//! protocol:u8, bytes:u64, packets:u32` — inside the `SCDTRC02` file
//! envelope (`scd_hash::envelope`), so truncation and bit-rot produce a
//! typed error instead of silently decoding garbage flows. The format
//! exists so large generated traces can be cached between experiment runs
//! without paying CSV parsing costs.
//!
//! Both directions stream: [`ChunkedTraceReader`] decodes from one bounded
//! buffer and [`write_binary`] encodes into one, so neither side ever holds
//! a second copy of the trace. One fixed-width decoder and its mirrored
//! encoder serve every entry point.

use crate::record::FlowRecord;
use scd_hash::envelope::{self, SealError, FOOTER_LEN};
use scd_hash::Crc32;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// Magic + format version of the binary format.
const MAGIC: &[u8; 8] = b"SCDTRC02";
/// Serialized size of one record.
const RECORD_LEN: usize = 8 + 4 + 4 + 2 + 2 + 1 + 8 + 4;

/// Errors from trace I/O.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The binary envelope did not open (wrong magic, checksum), or the
    /// body is not a whole number of records.
    Envelope(SealError),
    /// A CSV line could not be parsed.
    BadCsv {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Envelope(e) => write!(f, "trace file: {e}"),
            TraceIoError::BadCsv { line } => write!(f, "malformed CSV at line {line}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<SealError> for TraceIoError {
    fn from(e: SealError) -> Self {
        TraceIoError::Envelope(e)
    }
}

/// The `N` bytes of a record starting at `at`. Offsets are constants at
/// every call site, so the range check folds away.
#[inline(always)]
fn field<const N: usize>(bytes: &[u8; RECORD_LEN], at: usize) -> [u8; N] {
    bytes[at..at + N].try_into().expect("range has length N")
}

/// Decodes one 33-byte record.
#[inline]
fn decode_record(b: &[u8; RECORD_LEN]) -> FlowRecord {
    FlowRecord {
        timestamp_ms: u64::from_le_bytes(field(b, 0)),
        src_ip: u32::from_le_bytes(field(b, 8)),
        dst_ip: u32::from_le_bytes(field(b, 12)),
        src_port: u16::from_le_bytes(field(b, 16)),
        dst_port: u16::from_le_bytes(field(b, 18)),
        protocol: b[20],
        bytes: u64::from_le_bytes(field(b, 21)),
        packets: u32::from_le_bytes(field(b, 29)),
    }
}

/// Encodes one record: the mirror of [`decode_record`].
#[inline]
fn encode_record(r: &FlowRecord) -> [u8; RECORD_LEN] {
    let mut b = [0u8; RECORD_LEN];
    b[0..8].copy_from_slice(&r.timestamp_ms.to_le_bytes());
    b[8..12].copy_from_slice(&r.src_ip.to_le_bytes());
    b[12..16].copy_from_slice(&r.dst_ip.to_le_bytes());
    b[16..18].copy_from_slice(&r.src_port.to_le_bytes());
    b[18..20].copy_from_slice(&r.dst_port.to_le_bytes());
    b[20] = r.protocol;
    b[21..29].copy_from_slice(&r.bytes.to_le_bytes());
    b[29..33].copy_from_slice(&r.packets.to_le_bytes());
    b
}

/// Appends the records in `body` (a whole number of records) to `out`.
fn decode_records(body: &[u8], out: &mut Vec<FlowRecord>) {
    debug_assert_eq!(body.len() % RECORD_LEN, 0);
    out.extend(
        body.chunks_exact(RECORD_LEN)
            .map(|b| decode_record(b.try_into().expect("chunks_exact yields RECORD_LEN bytes"))),
    );
}

/// Appends the encoding of `records` to `buf`.
fn encode_records(records: &[FlowRecord], buf: &mut Vec<u8>) {
    buf.reserve(records.len() * RECORD_LEN);
    for r in records {
        buf.extend_from_slice(&encode_record(r));
    }
}

/// Serializes records to the binary format.
pub fn to_binary(records: &[FlowRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(MAGIC.len() + records.len() * RECORD_LEN + FOOTER_LEN);
    buf.extend_from_slice(MAGIC);
    encode_records(records, &mut buf);
    envelope::seal(&mut buf);
    buf
}

/// Deserializes records from the binary format.
///
/// Framing is judged before the checksum, exactly as a stream reader must
/// judge it (it cannot know the footer until the bytes stop): a body that
/// is not a whole number of records is [`SealError::Truncated`], a
/// well-framed one with the wrong footer is [`SealError::BadChecksum`].
pub fn from_binary(data: &[u8]) -> Result<Vec<FlowRecord>, TraceIoError> {
    if envelope::body(MAGIC, data)?.len() % RECORD_LEN != 0 {
        return Err(SealError::Truncated.into());
    }
    let body = envelope::open(MAGIC, data)?;
    let mut out = Vec::with_capacity(body.len() / RECORD_LEN);
    decode_records(body, &mut out);
    Ok(out)
}

/// Incremental binary-trace reader: decodes an `SCDTRC02` stream
/// chunk-by-chunk so large traces can feed shard producers directly,
/// without first materializing the whole `Vec<FlowRecord>` (and without
/// the single-threaded full-file decode hop). The CRC-32 footer is
/// verified *incrementally* — the checksum is folded over every payload
/// byte as it streams past and compared against the stored footer at EOF,
/// so a fully drained reader gives exactly the same integrity guarantee
/// (and the same errors) as [`from_binary`].
///
/// Bytes live in one reader-owned buffer that `read()` fills in place:
///
/// ```text
///  0          head                     tail            READ_BUF_LEN
///  |-consumed--|--whole records--|-<37 B-|----free------|
///               decode + CRC ^    ^ partial record + possible footer
/// ```
///
/// Decoding advances `head`; the CRC is folded once over each decoded
/// span. Only when fewer than one record (plus the 4 bytes that may be the
/// footer) remain are those few bytes moved to the front and the buffer
/// refilled, so no payload byte is copied after `read()` delivers it.
#[derive(Debug)]
pub struct ChunkedTraceReader<R: Read> {
    inner: R,
    /// Fixed-size read buffer; `buf[head..tail]` is read but not decoded.
    buf: Box<[u8]>,
    head: usize,
    tail: usize,
    crc: Crc32,
    /// Set once `read()` returned 0; the unread bytes are then exactly the
    /// footer until it has been checked, and empty afterwards.
    at_eof: bool,
    records_read: usize,
}

/// Size of [`ChunkedTraceReader`]'s buffer: large enough that a `read()`
/// amortizes its syscall and the CRC kernel gets long spans, small enough
/// to stay cache-resident between the fill and the decode.
const READ_BUF_LEN: usize = 256 * 1024;

impl<R: Read> ChunkedTraceReader<R> {
    /// Opens a binary trace stream, consuming and validating the magic.
    pub fn new(mut inner: R) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 8];
        let mut filled = 0;
        while filled < magic.len() {
            match inner.read(&mut magic[filled..]) {
                Ok(0) => return Err(SealError::BadMagic.into()),
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        if &magic != MAGIC {
            return Err(SealError::BadMagic.into());
        }
        let mut crc = Crc32::new();
        crc.update(&magic);
        Ok(ChunkedTraceReader {
            inner,
            buf: vec![0u8; READ_BUF_LEN].into_boxed_slice(),
            head: 0,
            tail: 0,
            crc,
            at_eof: false,
            records_read: 0,
        })
    }

    /// Total records decoded so far.
    pub fn records_read(&self) -> usize {
        self.records_read
    }

    /// Appends up to `max_records` decoded records to `out`. Returns the
    /// number appended; `0` means clean end-of-stream (footer verified).
    /// Errors mirror [`from_binary`]: a mid-record end is
    /// [`SealError::Truncated`], a footer mismatch is
    /// [`SealError::BadChecksum`].
    pub fn next_chunk(
        &mut self,
        max_records: usize,
        out: &mut Vec<FlowRecord>,
    ) -> Result<usize, TraceIoError> {
        let mut appended = 0;
        while appended < max_records {
            // Decode whole records from `head`, always keeping the last
            // four bytes back: until EOF they may be the footer, and at
            // EOF they are.
            let unread = self.tail - self.head;
            let whole = unread.saturating_sub(FOOTER_LEN) / RECORD_LEN;
            if whole > 0 {
                let n = whole.min(max_records - appended);
                let span = &self.buf[self.head..self.head + n * RECORD_LEN];
                self.crc.update(span);
                decode_records(span, out);
                self.head += span.len();
                self.records_read += n;
                appended += n;
                continue;
            }
            if self.at_eof {
                // Every record is decoded: what `fill` left is the footer
                // of the CRC folded over magic + records. Checked once,
                // then consumed, so later calls stay a clean `Ok(0)`.
                if self.head < self.tail {
                    envelope::check_footer(self.crc.finalize(), &self.buf[self.head..self.tail])?;
                    self.head = self.tail;
                }
                break;
            }
            self.fill()?;
        }
        Ok(appended)
    }

    /// Moves the undecoded leftover (less than a record plus a footer) to
    /// the front of the buffer and reads more bytes in behind it. At EOF
    /// the leftover must be exactly the footer.
    fn fill(&mut self) -> Result<(), TraceIoError> {
        self.buf.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
        loop {
            match self.inner.read(&mut self.buf[self.tail..]) {
                Ok(0) => {
                    self.at_eof = true;
                    // Every whole record was decoded before this fill, so
                    // anything but a bare footer is a cut-off record.
                    return if self.tail == FOOTER_LEN {
                        Ok(())
                    } else {
                        Err(SealError::Truncated.into())
                    };
                }
                Ok(n) => {
                    self.tail += n;
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Drains the remaining stream, returning the total number of records
    /// appended to `out`. Equivalent to calling [`Self::next_chunk`] until
    /// it returns `0`.
    pub fn read_to_end(&mut self, out: &mut Vec<FlowRecord>) -> Result<usize, TraceIoError> {
        let mut total = 0;
        loop {
            let n = self.next_chunk(usize::MAX, out)?;
            if n == 0 {
                return Ok(total);
            }
            total += n;
        }
    }
}

/// Records encoded per [`write_binary`] buffer flush.
const WRITE_CHUNK_RECORDS: usize = 8_192;

/// Writes records as binary to any writer (file, socket, buffer), encoding
/// through one bounded buffer: the output is byte-identical to
/// [`to_binary`] without ever holding a second copy of the trace.
pub fn write_binary<W: Write>(mut w: W, records: &[FlowRecord]) -> Result<(), TraceIoError> {
    let mut crc = Crc32::new();
    let mut buf = Vec::with_capacity(
        MAGIC.len() + records.len().min(WRITE_CHUNK_RECORDS) * RECORD_LEN + FOOTER_LEN,
    );
    buf.extend_from_slice(MAGIC);
    for chunk in records.chunks(WRITE_CHUNK_RECORDS) {
        encode_records(chunk, &mut buf);
        crc.update(&buf);
        w.write_all(&buf)?;
        buf.clear();
    }
    // An empty trace never entered the loop: the magic is still pending.
    crc.update(&buf);
    buf.extend_from_slice(&crc.finalize().to_le_bytes());
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Reads binary records from any reader.
pub fn read_binary<R: Read>(r: R) -> Result<Vec<FlowRecord>, TraceIoError> {
    let mut out = Vec::new();
    ChunkedTraceReader::new(r)?.read_to_end(&mut out)?;
    Ok(out)
}

/// CSV header line.
pub const CSV_HEADER: &str = "timestamp_ms,src_ip,dst_ip,src_port,dst_port,protocol,bytes,packets";

/// Writes records as CSV with header.
pub fn write_csv<W: Write>(w: W, records: &[FlowRecord]) -> Result<(), TraceIoError> {
    let mut w = BufWriter::new(w);
    writeln!(w, "{CSV_HEADER}")?;
    for r in records {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{}",
            r.timestamp_ms,
            r.src_ip,
            r.dst_ip,
            r.src_port,
            r.dst_port,
            r.protocol,
            r.bytes,
            r.packets
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Reads CSV records (header optional).
pub fn read_csv<R: Read>(r: R) -> Result<Vec<FlowRecord>, TraceIoError> {
    let reader = BufReader::new(r);
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || (i == 0 && line == CSV_HEADER) {
            continue;
        }
        let mut fields = line.split(',');
        let mut next = || fields.next().ok_or(TraceIoError::BadCsv { line: i + 1 });
        let parse = |s: &str, i: usize| -> Result<u64, TraceIoError> {
            s.parse().map_err(|_| TraceIoError::BadCsv { line: i + 1 })
        };
        let rec = FlowRecord {
            timestamp_ms: parse(next()?, i)?,
            src_ip: parse(next()?, i)? as u32,
            dst_ip: parse(next()?, i)? as u32,
            src_port: parse(next()?, i)? as u16,
            dst_port: parse(next()?, i)? as u16,
            protocol: parse(next()?, i)? as u8,
            bytes: parse(next()?, i)?,
            packets: parse(next()?, i)? as u32,
        };
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{RouterProfile, TrafficGenerator};

    fn sample_records() -> Vec<FlowRecord> {
        let mut cfg = RouterProfile::Small.config(3);
        cfg.records_per_sec = 1.0;
        cfg.interval_secs = 30;
        let mut g = TrafficGenerator::new(cfg);
        g.interval_records(0)
    }

    #[test]
    fn binary_round_trip() {
        let records = sample_records();
        let bytes = to_binary(&records);
        let back = from_binary(&bytes).unwrap();
        assert_eq!(records, back);
    }

    #[test]
    fn binary_round_trip_empty() {
        let bytes = to_binary(&[]);
        assert_eq!(from_binary(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(matches!(
            from_binary(b"not a trace"),
            Err(TraceIoError::Envelope(SealError::BadMagic))
        ));
        let mut ok = to_binary(&sample_records());
        ok.pop(); // truncate one byte: checksum can no longer match
        assert!(from_binary(&ok).is_err());
    }

    #[test]
    fn record_layout_is_33_bytes() {
        assert_eq!(RECORD_LEN, 33);
        let one = sample_records()[0];
        assert_eq!(to_binary(&[one]).len(), 8 + 33 + 4);
    }

    #[test]
    fn legacy_v01_magic_is_rejected() {
        // The unchecksummed SCDTRC01 format (old magic, no footer) is no
        // longer readable by either entry point.
        let v2 = to_binary(&sample_records());
        let mut v1 = b"SCDTRC01".to_vec();
        v1.extend_from_slice(&v2[8..v2.len() - 4]);
        assert!(matches!(from_binary(&v1), Err(TraceIoError::Envelope(SealError::BadMagic))));
        assert!(matches!(
            ChunkedTraceReader::new(&v1[..]),
            Err(TraceIoError::Envelope(SealError::BadMagic))
        ));
        assert!(matches!(read_binary(&v1[..]), Err(TraceIoError::Envelope(SealError::BadMagic))));
    }

    #[test]
    fn csv_round_trip() {
        let records = sample_records();
        let mut buf = Vec::new();
        write_csv(&mut buf, &records).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(records, back);
    }

    #[test]
    fn csv_reports_bad_line() {
        let data = format!("{CSV_HEADER}\n1,2,3\n");
        match read_csv(data.as_bytes()) {
            Err(TraceIoError::BadCsv { line }) => assert_eq!(line, 2),
            other => panic!("expected BadCsv, got {other:?}"),
        }
    }

    #[test]
    fn chunked_reader_matches_from_binary() {
        let records = sample_records();
        let bytes = to_binary(&records);
        for chunk in [1usize, 7, 33, 1000] {
            let mut reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
            let mut out = Vec::new();
            loop {
                if reader.next_chunk(chunk, &mut out).unwrap() == 0 {
                    break;
                }
            }
            assert_eq!(out, records, "chunk size {chunk}");
            assert_eq!(reader.records_read(), records.len());
            // Reading past the end stays a clean EOF.
            assert_eq!(reader.next_chunk(chunk, &mut out).unwrap(), 0);
        }
    }

    #[test]
    fn chunked_reader_handles_empty_traces() {
        let empty = to_binary(&[]);
        let mut reader = ChunkedTraceReader::new(&empty[..]).unwrap();
        let mut out = Vec::new();
        assert_eq!(reader.read_to_end(&mut out).unwrap(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn writer_reader_round_trip_via_io() {
        let records = sample_records();
        let mut buf = Vec::new();
        write_binary(&mut buf, &records).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(records, back);
    }

    #[test]
    fn streamed_writer_matches_to_binary_around_the_chunk_boundary() {
        let template = sample_records();
        for n in [0, 1, WRITE_CHUNK_RECORDS - 1, WRITE_CHUNK_RECORDS, WRITE_CHUNK_RECORDS + 1] {
            let records: Vec<FlowRecord> = (0..n)
                .map(|i| FlowRecord { timestamp_ms: i as u64, ..template[i % template.len()] })
                .collect();
            let mut streamed = Vec::new();
            write_binary(&mut streamed, &records).unwrap();
            assert_eq!(streamed, to_binary(&records), "{n} records");
        }
    }

    /// Hands out the wrapped bytes 1..=`max` at a time (seeded), and now
    /// and then fails with `Interrupted` first — everything `Read` allows
    /// a pipe or socket to do that a slice never does.
    struct DribbleReader<'a> {
        data: &'a [u8],
        max: u64,
        rng: scd_hash::SplitMix64,
    }

    impl<'a> DribbleReader<'a> {
        fn new(data: &'a [u8], max: u64, seed: u64) -> Self {
            DribbleReader { data, max, rng: scd_hash::SplitMix64::new(seed) }
        }
    }

    impl Read for DribbleReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.rng.next_below(8) == 0 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let want = 1 + self.rng.next_below(self.max) as usize;
            let n = want.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Drains a dribbled stream `chunk` records at a time.
    fn dribble(data: &[u8], max: u64, chunk: usize) -> Result<Vec<FlowRecord>, TraceIoError> {
        let mut reader = ChunkedTraceReader::new(DribbleReader::new(data, max, 0xD81B ^ max))?;
        let mut out = Vec::new();
        while reader.next_chunk(chunk, &mut out)? != 0 {}
        assert_eq!(reader.records_read(), out.len());
        // Reading past the end stays a clean EOF.
        assert_eq!(reader.next_chunk(chunk, &mut out)?, 0);
        assert_eq!(reader.next_chunk(chunk, &mut out)?, 0);
        Ok(out)
    }

    #[test]
    fn chunked_reader_survives_short_and_interrupted_reads() {
        // Enough records that the stream outgrows the reader's buffer
        // several times over.
        let template = sample_records();
        let records: Vec<FlowRecord> = (0..3 * READ_BUF_LEN / RECORD_LEN + 5)
            .map(|i| FlowRecord { bytes: i as u64, ..template[i % template.len()] })
            .collect();
        let bytes = to_binary(&records);
        assert_eq!(from_binary(&bytes).unwrap(), records);
        for max in [1, 7, 4096, 1 << 20] {
            for chunk in [1usize, 7, 33, 8_192, usize::MAX] {
                if max == 1 && chunk < 8_192 {
                    continue; // a byte at a time is slow enough once per shape
                }
                let out = dribble(&bytes, max, chunk).unwrap();
                assert_eq!(out, records, "reads <= {max} B, chunk {chunk}");
            }
        }
    }

    /// Error variant plus payload, comparable across the two readers.
    fn verdict(r: Result<Vec<FlowRecord>, TraceIoError>) -> String {
        match r {
            Ok(records) => format!("ok({})", records.len()),
            Err(TraceIoError::Envelope(e)) => format!("{e:?}"),
            Err(e) => format!("{e:?}"),
        }
    }

    #[test]
    fn chunked_reader_fails_exactly_like_from_binary() {
        let clean = to_binary(&sample_records()[..5]);
        let check = |bad: &[u8], what: &str| {
            let want = verdict(from_binary(bad));
            for (max, chunk) in [(1, usize::MAX), (5, 2), (1 << 20, 8_192)] {
                assert_eq!(verdict(dribble(bad, max, chunk)), want, "{what}, reads <= {max} B");
            }
            want
        };
        assert_eq!(check(&clean, "clean"), "ok(5)");
        // Every single-byte flip: the magic's own bytes are BadMagic,
        // anything after them a checksum mismatch.
        for pos in 0..clean.len() {
            let mut bad = clean.clone();
            bad[pos] ^= 0x40;
            let got = check(&bad, &format!("flip at {pos}"));
            let want = if pos < 8 { "BadMagic" } else { "BadChecksum" };
            assert!(got.starts_with(want), "flip at {pos}: {got}");
        }
        // Every truncation length: short of the magic, short of the
        // footer or mid-record, and cut at a record boundary (well framed,
        // so only the checksum can tell).
        for len in 0..clean.len() {
            let got = check(&clean[..len], &format!("cut to {len}"));
            let want = match len {
                0..=7 => "BadMagic",
                8..=11 => "Truncated",
                _ if (len - 12) % RECORD_LEN != 0 => "Truncated",
                _ => "BadChecksum",
            };
            assert!(got.starts_with(want), "cut to {len}: {got}");
        }
        // A footer with nothing before it, and one behind a bare magic
        // that it does not match.
        assert_eq!(check(&clean[clean.len() - 4..], "footer only"), "BadMagic");
        let mut wrong = MAGIC.to_vec();
        wrong.extend_from_slice(&clean[clean.len() - 4..]);
        assert!(check(&wrong, "magic + foreign footer").starts_with("BadChecksum"));
    }
}
