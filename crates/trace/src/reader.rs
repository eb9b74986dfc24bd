//! Text trace reading from any [`io::Read`].
//!
//! [`TextStreamReader`] is the one text decode path: every front door of
//! [`crate::TraceSource`] reads a text trace through it, whether it
//! streams ([`stream`](crate::TraceSource::stream)) or materializes
//! ([`records`](crate::TraceSource::records)) the records, and whether the
//! input is in memory, a file or a reader. It reads its input 64 KiB at a
//! time into one window and decodes each line straight out of it, in one
//! pass, into a record slot of the stream's batch (see [`crate::parser`]).
//! Peak memory is the window plus the symbol cache, whatever the trace's
//! length.

use crate::ctx::AnalysisCtx;
use crate::parser::{Header, Line, ParseError, TextDecoder};
use crate::record::Record;
use std::fmt;
use std::io::{self, Read};

/// Bytes the text reader asks its input for at once.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Room the window keeps for the partial line a read leaves at its end, on
/// top of one read's bytes. Only a line longer than this grows the window.
const LINE_ROOM: usize = 4 * 1024;

/// A failure while streaming records from a reader: the underlying I/O
/// failed, the trace text did not parse, a binary trace was malformed, or
/// the session crossed one of its [`ResourceLimits`](crate::ResourceLimits).
#[derive(Debug)]
pub enum TraceReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The trace text is malformed.
    Parse(ParseError),
    /// The binary trace is malformed.
    Binary(crate::binary::BinaryError),
    /// The session crossed a configured resource ceiling.
    Resource(crate::limits::ResourceExceeded),
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace read error: {e}"),
            TraceReadError::Parse(e) => write!(f, "{e}"),
            TraceReadError::Binary(e) => write!(f, "{e}"),
            TraceReadError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceReadError::Io(e) => Some(e),
            TraceReadError::Parse(e) => Some(e),
            TraceReadError::Binary(e) => Some(e),
            TraceReadError::Resource(e) => Some(e),
        }
    }
}

impl From<io::Error> for TraceReadError {
    fn from(e: io::Error) -> Self {
        TraceReadError::Io(e)
    }
}

impl From<ParseError> for TraceReadError {
    fn from(e: ParseError) -> Self {
        TraceReadError::Parse(e)
    }
}

impl From<crate::binary::BinaryError> for TraceReadError {
    fn from(e: crate::binary::BinaryError) -> Self {
        TraceReadError::Binary(e)
    }
}

impl From<crate::limits::ResourceExceeded> for TraceReadError {
    fn from(e: crate::limits::ResourceExceeded) -> Self {
        TraceReadError::Resource(e)
    }
}

/// Streaming text trace reader over any [`Read`], with bounded memory: one
/// read window (64 KiB plus room for a partial line, or the longest line
/// when that is bigger) and the decoder's symbol cache.
///
/// Each read asks for exactly [`DEFAULT_CHUNK_BYTES`], and the next read
/// happens only once every complete line in the window has decoded, so a
/// `trace-bytes` ceiling, an I/O error or the end of input shows after the
/// same records whatever the window holds. UTF-8 is checked once per read,
/// over the lines that read completed; an invalid byte fails at its own
/// line, after every earlier line has decoded.
///
/// Records decode in place into the caller's slot, reusing its operand
/// buffer: [`TraceStream`](crate::TraceStream) fills a batch of reused
/// slots and lends them, and the [`Iterator`] impl hands each record over
/// by value. A record is complete once the next block's header has parsed,
/// or at the end of input: a header that fails to parse therefore also
/// loses the record before it, as it always has. The next block's header
/// waits in the reader, so no record spans two steps. The stream fuses
/// after its first error.
///
/// The counterpart of the binary format's
/// [`BinaryStreamReader`](crate::BinaryStreamReader);
/// [`crate::TraceSource`] picks between the two by magic bytes.
pub struct TextStreamReader<R: Read> {
    inner: R,
    decoder: TextDecoder,
    /// The read window: `window[start..lines]` holds whole lines not yet
    /// decoded, `window[lines..end]` the partial line after them.
    window: Vec<u8>,
    start: usize,
    lines: usize,
    end: usize,
    /// Start of the first line in `window[start..lines]` that is not valid
    /// UTF-8.
    bad_line: Option<usize>,
    chunk: usize,
    eof: bool,
    /// The step's slot holds a record whose successor's header has not
    /// parsed.
    open: bool,
    /// The next record's header, parsed while the slot still held the
    /// record before it.
    pending: Option<Header>,
    failed: bool,
}

impl<R: Read> TextStreamReader<R> {
    /// Read a text trace from `inner`, interning symbols into `ctx`'s
    /// space.
    pub fn new(inner: R, ctx: &AnalysisCtx) -> TextStreamReader<R> {
        TextStreamReader::with_chunk_size(inner, ctx, DEFAULT_CHUNK_BYTES)
    }

    /// Like [`new`](Self::new), asking `inner` for `chunk` bytes at a time.
    pub(crate) fn with_chunk_size(
        inner: R,
        ctx: &AnalysisCtx,
        chunk: usize,
    ) -> TextStreamReader<R> {
        let chunk = chunk.max(1);
        TextStreamReader {
            inner,
            decoder: TextDecoder::with_ctx(ctx.clone()),
            window: vec![0; chunk + LINE_ROOM],
            start: 0,
            lines: 0,
            end: 0,
            bad_line: None,
            chunk,
            eof: false,
            open: false,
            pending: None,
            failed: false,
        }
    }

    /// The one decode step behind [`TraceStream`](crate::TraceStream)'s
    /// batches and the [`Iterator`] impl: the next record into `slot`.
    /// `None` at the end of input, and after an error.
    #[inline]
    pub(crate) fn advance(&mut self, slot: &mut Record) -> Option<Result<(), TraceReadError>> {
        if self.failed {
            return None;
        }
        match self.decode_next(slot) {
            Ok(true) => Some(Ok(())),
            Ok(false) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }

    /// Every record (the tests' whole-input decode).
    #[cfg(test)]
    pub(crate) fn read_all(self) -> Result<Vec<Record>, TraceReadError> {
        self.collect()
    }

    /// Decode lines until `slot` holds a complete record: true once the
    /// next header has parsed, or at the end of input with a record open.
    ///
    /// The decoder gets the window's whole lines, decodes the first in one
    /// pass and says how long it was, so no line is searched for its end
    /// before it decodes (see [`crate::parser`]). The window's line that is
    /// not valid UTF-8 fails without decoding.
    fn decode_next(&mut self, slot: &mut Record) -> Result<bool, TraceReadError> {
        if let Some(header) = self.pending.take() {
            header.start(slot);
            self.open = true;
        }
        while self.has_line()? {
            if self.bad_line == Some(self.start) {
                return Err(self.decoder.not_utf8().into());
            }
            let (len, line) =
                self.decoder
                    .decode(&self.window[self.start..self.lines], slot, self.open)?;
            self.start += len;
            match line {
                Line::Header(header) if self.open => {
                    self.pending = Some(header);
                    return Ok(true);
                }
                Line::Header(header) => {
                    header.start(slot);
                    self.open = true;
                }
                Line::Blank | Line::Operand => {}
            }
        }
        Ok(std::mem::take(&mut self.open))
    }

    /// True when the window holds a line not yet decoded, reading more
    /// input when none is left; false at the end of input.
    #[inline]
    fn has_line(&mut self) -> Result<bool, TraceReadError> {
        while self.start == self.lines {
            if self.eof {
                return Ok(false);
            }
            self.refill()?;
        }
        Ok(true)
    }

    /// One read of `chunk` bytes after the partial line, which moves to the
    /// window's front first. At the end of input the partial line becomes
    /// the last line.
    fn refill(&mut self) -> Result<(), TraceReadError> {
        if self.start > 0 {
            self.window.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.lines -= self.start;
            self.start = 0;
        }
        let want = self.end + self.chunk;
        if self.window.len() < want {
            self.window.resize(want, 0);
        }
        let read = self.end;
        let n = self.inner.read(&mut self.window[read..want])?;
        self.end += n;
        let lines = if n == 0 {
            self.eof = true;
            self.end
        } else {
            match self.window[read..self.end]
                .iter()
                .rposition(|&b| b == b'\n')
            {
                Some(i) => read + i + 1,
                None => return Ok(()),
            }
        };
        // Check each byte once: the lines this read completed. ASCII, the
        // common case, is a cheaper scan than full UTF-8 validation.
        let fresh = &self.window[self.lines..lines];
        if !fresh.is_ascii() {
            if let Err(e) = std::str::from_utf8(fresh) {
                let line_start = fresh[..e.valid_up_to()]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                self.bad_line = Some(self.lines + line_start);
            }
        }
        self.lines = lines;
        Ok(())
    }
}

/// The lines the reader finds in `input`, each without its `\n`, read
/// `chunk` bytes at a time.
#[cfg(test)]
pub(crate) fn split_lines(input: &[u8], chunk: usize) -> Vec<Vec<u8>> {
    let mut r = TextStreamReader::with_chunk_size(input, &AnalysisCtx::current(), chunk);
    let mut lines = Vec::new();
    while r.has_line().expect("in-memory reads cannot fail") {
        let (from, lines_end) = (r.start, r.lines);
        let to = crate::parser::find_newline(&r.window[..lines_end], from);
        r.start = (to + 1).min(lines_end);
        lines.push(r.window[from..to].to_vec());
    }
    lines
}

impl<R: Read> Iterator for TextStreamReader<R> {
    type Item = Result<Record, TraceReadError>;

    /// The decode step into a fresh record, handed over by value.
    fn next(&mut self) -> Option<Self::Item> {
        let mut record = Record::blank();
        Some(self.advance(&mut record)?.map(|()| record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{opcodes, OpTag, Operand, TraceValue};
    use crate::{writer, Name, SymId};

    /// The windows the tests read through: one byte, odd sizes, and the
    /// default.
    const CHUNKS: [usize; 5] = [1, 7, 64, 4096, DEFAULT_CHUNK_BYTES];

    fn read_with(input: &[u8], chunk: usize) -> Result<Vec<Record>, TraceReadError> {
        TextStreamReader::with_chunk_size(input, &AnalysisCtx::current(), chunk).read_all()
    }

    fn parse_read<R: Read>(reader: R) -> Result<Vec<Record>, TraceReadError> {
        TextStreamReader::new(reader, &AnalysisCtx::current()).read_all()
    }

    fn synth_records(blocks: usize) -> Vec<Record> {
        let mut recs = Vec::with_capacity(blocks);
        for i in 0..blocks {
            recs.push(Record {
                src_line: (i % 90 + 1) as i32,
                func: SymId::intern(if i % 3 == 0 { "main" } else { "foo" }),
                bb: (1, 1),
                bb_label: SymId::intern("0"),
                opcode: if i % 2 == 0 {
                    opcodes::LOAD
                } else {
                    opcodes::MUL
                },
                dyn_id: i as u64,
                operands: vec![Operand::reg(
                    OpTag::Pos(1),
                    64,
                    TraceValue::Ptr(0x1000 + i as u64 * 8),
                    Name::sym("p"),
                )],
                result: Some(Operand::reg(
                    OpTag::Result,
                    64,
                    TraceValue::I(i as i64),
                    Name::Temp(i as u32),
                )),
            });
        }
        recs
    }

    fn synth_trace(blocks: usize) -> String {
        writer::to_string(&synth_records(blocks))
    }

    /// Drain through the lending step: the records delivered, then the
    /// error, if any.
    fn lend(input: &[u8], chunk: usize) -> (usize, Option<TraceReadError>) {
        let mut r = TextStreamReader::with_chunk_size(input, &AnalysisCtx::current(), chunk);
        let mut slot = Record::blank();
        let mut delivered = 0;
        while let Some(step) = r.advance(&mut slot) {
            match step {
                Ok(()) => delivered += 1,
                Err(e) => return (delivered, Some(e)),
            }
        }
        (delivered, None)
    }

    #[test]
    fn reader_equals_parse_str_at_every_chunk_size() {
        let recs = synth_records(200);
        let text = writer::to_string(&recs);
        for chunk in CHUNKS.into_iter().chain([1 << 20]) {
            assert_eq!(
                read_with(text.as_bytes(), chunk).unwrap(),
                recs,
                "chunk = {chunk}"
            );
            let owned: Vec<Record> =
                TextStreamReader::with_chunk_size(text.as_bytes(), &AnalysisCtx::current(), chunk)
                    .collect::<Result<_, _>>()
                    .unwrap();
            assert_eq!(owned, recs, "chunk = {chunk}");
        }
    }

    #[test]
    fn unterminated_final_line_is_parsed() {
        let mut text = synth_trace(3);
        text.pop(); // drop the final newline
        let streamed = parse_read(text.as_bytes()).unwrap();
        assert_eq!(streamed, synth_records(3));
        for chunk in CHUNKS {
            assert_eq!(read_with(text.as_bytes(), chunk).unwrap(), streamed);
        }
    }

    #[test]
    fn crlf_traces_match_the_batch_parser() {
        // Lines split on raw b'\n' and keep a trailing '\r', which the
        // kernel trims, so CRLF files decode exactly like LF files.
        let lf = synth_trace(20);
        let crlf = lf.replace('\n', "\r\n");
        let want = synth_records(20);
        for chunk in CHUNKS {
            assert_eq!(read_with(lf.as_bytes(), chunk).unwrap(), want);
            assert_eq!(
                read_with(crlf.as_bytes(), chunk).unwrap(),
                want,
                "chunk = {chunk}"
            );
        }
        // End of input right after a final '\r', without its '\n'.
        let mut cut = crlf.clone();
        cut.pop();
        assert_eq!(parse_read(cut.as_bytes()).unwrap(), want);
    }

    #[test]
    fn parse_errors_surface_once_then_stop() {
        let mut text = synth_trace(5);
        text.push_str("0,zz,broken,1:1,0,27,9,\n");
        let mut reader = TextStreamReader::new(text.as_bytes(), &AnalysisCtx::current());
        let mut seen_err = false;
        let mut after_err = 0;
        for item in &mut reader {
            match item {
                Ok(_) => {
                    assert!(!seen_err);
                }
                Err(TraceReadError::Parse(e)) => {
                    assert!(e.message.contains("src line"));
                    seen_err = true;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
            if seen_err {
                after_err += 1;
            }
        }
        assert!(seen_err);
        assert_eq!(after_err, 1, "iterator fuses after the error");
    }

    #[test]
    fn records_before_a_bad_header_are_delivered_at_every_window() {
        // 200 records of three lines each, then a header that fails to
        // parse on line 601. Every record whose successor's header parsed
        // is delivered, whatever the window: all but the last good one.
        let mut text = synth_trace(200);
        text.push_str("0,zz,broken,1:1,0,27,9,\n");
        for chunk in CHUNKS {
            let (delivered, err) = lend(text.as_bytes(), chunk);
            let Some(TraceReadError::Parse(e)) = err else {
                panic!("chunk {chunk}: expected a parse error, got {err:?}");
            };
            assert_eq!(delivered, 199, "chunk = {chunk}");
            assert_eq!((e.line, e.message.as_str()), (601, "bad src line `zz`"));
        }
    }

    #[test]
    fn empty_reader_is_empty_trace() {
        assert_eq!(parse_read(&b""[..]).unwrap(), vec![]);
        assert_eq!(parse_read(&b"\n\r\n\n"[..]).unwrap(), vec![]);
    }

    #[test]
    fn invalid_utf8_is_a_parse_error_at_the_right_line() {
        let bytes: &[u8] = b"0,3,foo,6:1,11,27,215,\n1,64,\xff\xfe,1,p,\n";
        for chunk in CHUNKS {
            let err = read_with(bytes, chunk).unwrap_err();
            assert!(err.to_string().contains("UTF-8"));
            let TraceReadError::Parse(e) = err else {
                panic!("expected a parse error");
            };
            assert_eq!(e.line, 2, "the invalid byte sits on line 2");
        }
        // In a final line without its '\n', and cut inside a character.
        let err = parse_read(&b"0,3,foo,6:1,11,27,215,\n\n1,64,\xc3"[..]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "trace parse error at line 3: trace is not valid UTF-8"
        );
    }

    #[test]
    fn utf8_errors_keep_their_place_among_parse_errors() {
        // A parse error on an earlier line wins...
        let bytes: &[u8] = b"0,3,foo,6:1,11,27,215,\n0,zz,foo,6:1,11,27,216,\n1,64,\xff,1,p,\n";
        for chunk in CHUNKS {
            let TraceReadError::Parse(e) = read_with(bytes, chunk).unwrap_err() else {
                panic!("expected a parse error");
            };
            assert_eq!((e.line, e.message.contains("src line")), (2, true));
        }
        // ...and an invalid byte further down is reported at its own line,
        // after the records before it, whatever the chunk size.
        let bytes: &[u8] =
            b"0,3,foo,6:1,11,27,215,\n1,64,5,1,p,\n0,3,foo,6:1,11,27,216,\n\n1,64,\xff,1,p,\n2,64,1,1,q,\n";
        for chunk in CHUNKS {
            let (delivered, err) = lend(bytes, chunk);
            let Some(TraceReadError::Parse(e)) = err else {
                panic!("expected a parse error");
            };
            assert_eq!((delivered, e.line), (1, 5), "chunk = {chunk}");
            assert!(e.message.contains("UTF-8"));
        }
    }

    #[test]
    fn io_errors_propagate() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        let err = parse_read(Failing).unwrap_err();
        assert!(matches!(err, TraceReadError::Io(_)));
        assert!(err.to_string().contains("disk on fire"));
    }

    #[test]
    fn every_read_asks_for_one_chunk() {
        // The reader asks for exactly one chunk per read, however much of
        // a partial line it carries, so a byte ceiling trips on the same
        // read as it always has.
        struct Recording<'a>(&'a [u8], Vec<usize>);
        impl Read for Recording<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1.push(buf.len());
                self.0.read(buf)
            }
        }
        let text = synth_trace(3000);
        for chunk in [7, 4096, DEFAULT_CHUNK_BYTES] {
            let mut input = Recording(text.as_bytes(), Vec::new());
            let mut r =
                TextStreamReader::with_chunk_size(&mut input, &AnalysisCtx::current(), chunk);
            let mut slot = Record::blank();
            while let Some(step) = r.advance(&mut slot) {
                step.unwrap();
            }
            drop(r);
            assert!(input.1.iter().all(|&n| n == chunk), "chunk = {chunk}");
            assert_eq!(
                input.1.len(),
                text.len().div_ceil(chunk) + 1,
                "chunk = {chunk}"
            );
        }
    }

    #[test]
    fn windowed_parse_equals_serial_at_every_window() {
        // Every front door reads through the same reader: in memory, from
        // a reader, and at any window.
        let text = synth_trace(400);
        let serial = crate::TraceSource::from_str(&text).records().unwrap();
        assert_eq!(serial, synth_records(400));
        let from_reader = crate::TraceSource::from_reader(text.as_bytes())
            .records()
            .unwrap();
        assert_eq!(from_reader, serial);
        for window in [64, 100, 1000, 1 << 22] {
            assert_eq!(
                read_with(text.as_bytes(), window).unwrap(),
                serial,
                "window = {window}"
            );
        }
    }

    #[test]
    fn windowed_parse_propagates_parse_errors() {
        let mut text = synth_trace(100);
        text.push_str("0,zz,broken,1:1,0,27,9,\n");
        let err = read_with(text.as_bytes(), 128).unwrap_err();
        assert!(err.to_string().contains("src line"));
        let err = crate::TraceSource::from_reader(text.as_bytes())
            .records()
            .unwrap_err();
        assert!(err.to_string().contains("src line"));
    }

    #[test]
    fn windowed_parse_error_lines_are_absolute() {
        // The broken line lands well past the first window, so a
        // window-relative count would report a much smaller number.
        let mut text = synth_trace(100);
        let bad_line = text.lines().count() as u64 + 1;
        text.push_str("0,zz,broken,1:1,0,27,9,\n");
        for window in [1, 256, DEFAULT_CHUNK_BYTES] {
            let TraceReadError::Parse(e) = read_with(text.as_bytes(), window).unwrap_err() else {
                panic!("expected a parse error");
            };
            assert_eq!(e.line, bad_line, "window = {window}");
        }
    }

    #[test]
    fn window_grows_when_one_block_exceeds_it() {
        // A block of many operand lines and a line far longer than the
        // window: the window grows to hold the line, and nothing splits.
        let mut text = String::from("0,3,foo,6:1,11,49,0,\n");
        for i in 0..64 {
            text.push_str(&format!("{},64,{},0,,\n", i + 1, i));
        }
        let long = "x".repeat(3 * LINE_ROOM);
        text.push_str(&format!("0,3,{long},6:1,11,49,1,\n1,64,5,1,{long},\n"));
        for chunk in [1, 64, 4096] {
            let mut r =
                TextStreamReader::with_chunk_size(text.as_bytes(), &AnalysisCtx::current(), chunk);
            let recs: Vec<Record> = (&mut r).collect::<Result<_, _>>().unwrap();
            assert_eq!(recs.len(), 2);
            assert_eq!(recs[0].positional().count(), 64);
            assert_eq!(recs[1].func.as_str().len(), long.len());
            assert!(r.window.len() > long.len(), "chunk = {chunk}");
        }
        // A window that holds every line never grows.
        let text = synth_trace(5000);
        let mut r = TextStreamReader::new(text.as_bytes(), &AnalysisCtx::current());
        let mut slot = Record::blank();
        while let Some(step) = r.advance(&mut slot) {
            step.unwrap();
        }
        assert_eq!(r.window.len(), DEFAULT_CHUNK_BYTES + LINE_ROOM);
    }
}
