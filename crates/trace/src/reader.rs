//! Trace reading from any [`io::Read`].
//!
//! [`RecordReader`] reads fixed-size byte chunks into a bounded carry
//! buffer, splits them at line boundaries, and feeds complete lines through
//! the incremental [`TraceParser`] — yielding records one at a time. Peak
//! memory is the chunk size plus one partial line plus the records
//! completed by the current chunk, regardless of trace length.
//!
//! The materializing counterpart, behind [`crate::TraceSource::records`]
//! on reader and path inputs, parses a bounded lookahead window at a time,
//! cut at the last block header.

use crate::ctx::AnalysisCtx;
use crate::parser::{lines, parse_str_core, ParseError, TraceParser};
use crate::record::Record;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read};

/// Default read-chunk size (bytes).
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Lookahead window of [`parse_windowed`] as [`crate::TraceSource`] runs it
/// (bytes).
pub(crate) const WINDOW_BYTES: usize = 8 * 1024 * 1024;

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

/// Streaming record iterator over any [`Read`] with bounded buffering.
pub struct RecordReader<R: Read> {
    inner: R,
    parser: TraceParser,
    /// Bytes read but not yet consumed (at most one partial line after each
    /// refill).
    carry: Vec<u8>,
    chunk: usize,
    ready: VecDeque<Record>,
    /// Lines already fed to the parser, so a UTF-8 failure can be reported
    /// at its absolute line like any parse error.
    lines_fed: u64,
    eof: bool,
    failed: bool,
}

impl<R: Read> RecordReader<R> {
    /// Stream records from `inner` with the default chunk size.
    pub fn new(inner: R) -> RecordReader<R> {
        RecordReader::with_chunk_size(inner, DEFAULT_CHUNK_BYTES)
    }

    /// Stream records from `inner`, interning symbols into `ctx`'s space.
    pub fn with_ctx(inner: R, ctx: &AnalysisCtx) -> RecordReader<R> {
        let mut r = RecordReader::with_chunk_size(inner, DEFAULT_CHUNK_BYTES);
        r.parser = TraceParser::with_ctx(ctx.clone());
        r
    }

    /// Stream records from `inner`, reading `chunk` bytes at a time.
    pub fn with_chunk_size(inner: R, chunk: usize) -> RecordReader<R> {
        RecordReader {
            inner,
            parser: TraceParser::new(),
            carry: Vec::new(),
            chunk: chunk.max(1),
            ready: VecDeque::new(),
            lines_fed: 0,
            eof: false,
            failed: false,
        }
    }

    /// Validate one line's bytes, rebasing a UTF-8 failure onto the stream.
    fn line_str<'a>(&self, raw: &'a [u8]) -> Result<&'a str, ParseError> {
        utf8_text(raw).map_err(|mut e| {
            e.line += self.lines_fed;
            e
        })
    }

    /// Read one more chunk and feed every complete line through the parser.
    fn refill(&mut self) -> Result<(), TraceReadError> {
        let start = self.carry.len();
        self.carry.resize(start + self.chunk, 0);
        let n = self.inner.read(&mut self.carry[start..])?;
        self.carry.truncate(start + n);
        if n == 0 {
            self.eof = true;
            // Flush: the carry holds at most one final unterminated line.
            let tail = std::mem::take(&mut self.carry);
            if !tail.is_empty() {
                let line = self.line_str(&tail)?;
                self.lines_fed += 1;
                if let Some(rec) = self.parser.feed_line(line)? {
                    self.ready.push_back(rec);
                }
            }
            if let Some(rec) = self.parser.finish() {
                self.ready.push_back(rec);
            }
            return Ok(());
        }
        // Consume every complete line; keep the trailing partial line.
        let Some(last_nl) = self.carry.iter().rposition(|&b| b == b'\n') else {
            return Ok(());
        };
        let rest = self.carry.split_off(last_nl + 1);
        let complete = std::mem::replace(&mut self.carry, rest);
        // `complete` ends with '\n', so it splits into whole lines exactly
        // as `str::lines` splits the batch parser's input (including
        // interior blank lines), keeping parse-error line numbers identical.
        let valid = match std::str::from_utf8(&complete) {
            Ok(text) => return self.feed_lines(text),
            // Every line before the one holding the first invalid byte.
            Err(e) => complete[..e.valid_up_to()]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1),
        };
        self.feed_lines(utf8_text(&complete[..valid])?)?;
        // The invalid line fails its own check, at its own line number.
        self.line_str(&complete[valid..])?;
        Ok(())
    }

    /// Feed every line of `text` through the parser.
    fn feed_lines(&mut self, text: &str) -> Result<(), TraceReadError> {
        for line in lines(text) {
            self.lines_fed += 1;
            if let Some(rec) = self.parser.feed_line(line)? {
                self.ready.push_back(rec);
            }
        }
        Ok(())
    }
}

/// Shared UTF-8 gate for streamed trace bytes — one copy of the error
/// contract for [`RecordReader`] and [`parse_windowed`]. The error's line
/// number is the 1-based line of the first invalid byte *within `raw`*;
/// callers add the lines already consumed before `raw` to keep the number
/// absolute.
pub(crate) fn utf8_text(raw: &[u8]) -> Result<&str, ParseError> {
    std::str::from_utf8(raw).map_err(|e| ParseError {
        line: raw[..e.valid_up_to()]
            .iter()
            .filter(|&&b| b == b'\n')
            .count() as u64
            + 1,
        message: "trace is not valid UTF-8".into(),
    })
}

impl<R: Read> Iterator for RecordReader<R> {
    type Item = Result<Record, TraceReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(rec) = self.ready.pop_front() {
                return Some(Ok(rec));
            }
            if self.eof {
                return None;
            }
            if let Err(e) = self.refill() {
                self.failed = true;
                return Some(Err(e));
            }
        }
    }
}

/// Parse a whole trace from `reader`, `window_bytes` of lookahead at a
/// time: bytes are pulled into a window, the window is cut at the start of
/// its last block header, and the complete-block prefix is parsed while the
/// partial tail carries into the next window. The window grows past
/// `window_bytes` only while one block is larger than it. Parse-error line
/// numbers are absolute in the stream, as [`RecordReader`] reports them.
pub(crate) fn parse_windowed<R: Read>(
    mut reader: R,
    window_bytes: usize,
    ctx: &AnalysisCtx,
) -> Result<Vec<Record>, TraceReadError> {
    let window_bytes = window_bytes.max(64);
    let mut out = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; window_bytes.clamp(4096, 1 << 20)];
    let mut target = window_bytes;
    // `buf[..scanned]` is known to contain no block-header split, so each
    // header search only covers newly read bytes (minus the 2-byte pattern
    // overlap). Without this, a block larger than the window would rescan
    // the whole buffer on every refill — quadratic in the block size.
    let mut scanned = 0usize;
    // Lines already parsed out of earlier windows, so in-window parse-error
    // line numbers can be reported as absolute positions in the stream.
    let mut lines_done = 0u64;
    let mut eof = false;
    loop {
        while buf.len() < target && !eof {
            let n = reader.read(&mut chunk)?;
            if n == 0 {
                eof = true;
            } else {
                buf.extend_from_slice(&chunk[..n]);
            }
        }
        if eof {
            if !buf.is_empty() {
                out.extend(parse_window(&buf, lines_done, ctx)?);
            }
            return Ok(out);
        }
        // Cut at the start of the last block header: everything before it
        // is complete blocks; the tail may continue beyond the window.
        let from = scanned.saturating_sub(2);
        match last_block_header(&buf[from..]).map(|cut| cut + from) {
            Some(cut) if cut > 0 => {
                out.extend(parse_window(&buf[..cut], lines_done, ctx)?);
                lines_done += buf[..cut].iter().filter(|&&b| b == b'\n').count() as u64;
                buf.drain(..cut);
                scanned = 0;
                target = window_bytes;
            }
            _ => {
                // No interior split point yet — keep reading until the next
                // block header shows up.
                scanned = buf.len();
                target = buf.len() + window_bytes;
            }
        }
    }
}

/// Offset just past the last `\n` that is followed by a block header.
fn last_block_header(buf: &[u8]) -> Option<usize> {
    buf.windows(3).rposition(|w| w == b"\n0,").map(|i| i + 1)
}

/// Parse one window of whole blocks, rebasing an error's window-relative
/// line onto the stream.
fn parse_window(
    buf: &[u8],
    lines_before: u64,
    ctx: &AnalysisCtx,
) -> Result<Vec<Record>, TraceReadError> {
    utf8_text(buf)
        .and_then(|text| parse_str_core(text, ctx))
        .map_err(|mut e| {
            e.line += lines_before;
            TraceReadError::Parse(e)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{opcodes, OpTag, Operand, TraceValue};
    use crate::{writer, AnalysisCtx, Name, SymId};

    // Test shorthands for the current-space entry points.
    fn parse_str(input: &str) -> Result<Vec<Record>, ParseError> {
        parse_str_core(input, &AnalysisCtx::current())
    }

    fn parse_read<R: Read>(reader: R) -> Result<Vec<Record>, TraceReadError> {
        RecordReader::new(reader).collect()
    }

    fn synth_trace(blocks: usize) -> String {
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
        writer::to_string(&recs)
    }

    #[test]
    fn reader_equals_parse_str_at_every_chunk_size() {
        let text = synth_trace(200);
        let whole = parse_str(&text).unwrap();
        for chunk in [1, 7, 64, 4096, 1 << 20] {
            let streamed: Vec<Record> = RecordReader::with_chunk_size(text.as_bytes(), chunk)
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(whole, streamed, "chunk = {chunk}");
        }
    }

    #[test]
    fn unterminated_final_line_is_parsed() {
        let mut text = synth_trace(3);
        text.pop(); // drop the final newline
        let streamed = parse_read(text.as_bytes()).unwrap();
        assert_eq!(streamed, parse_str(&text).unwrap());
        assert_eq!(streamed.len(), 3);
    }

    #[test]
    fn crlf_traces_match_the_batch_parser() {
        // The reader splits on raw b'\n' and hands the parser lines with a
        // trailing '\r'; feed_line trims both, so CRLF files must parse
        // identically to LF files in every mode (batch uses str::lines,
        // which strips the '\r' itself).
        let lf = synth_trace(20);
        let crlf = lf.replace('\n', "\r\n");
        let want = parse_str(&lf).unwrap();
        assert_eq!(parse_str(&crlf).unwrap(), want);
        for chunk in [1, 7, 4096] {
            let streamed: Vec<Record> = RecordReader::with_chunk_size(crlf.as_bytes(), chunk)
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(streamed, want, "chunk = {chunk}");
        }
        // EOF-flush path: final CRLF line without its '\n'.
        let mut cut = crlf.clone();
        cut.pop();
        assert_eq!(parse_read(cut.as_bytes()).unwrap(), want);
    }

    #[test]
    fn parse_errors_surface_once_then_stop() {
        let mut text = synth_trace(5);
        text.push_str("0,zz,broken,1:1,0,27,9,\n");
        let mut reader = RecordReader::new(text.as_bytes());
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
    fn empty_reader_is_empty_trace() {
        assert_eq!(parse_read(&b""[..]).unwrap(), vec![]);
    }

    #[test]
    fn invalid_utf8_is_a_parse_error_at_the_right_line() {
        let bytes: &[u8] = b"0,3,foo,6:1,11,27,215,\n1,64,\xff\xfe,1,p,\n";
        let err = parse_read(bytes).unwrap_err();
        assert!(err.to_string().contains("UTF-8"));
        let TraceReadError::Parse(e) = err else {
            panic!("expected a parse error");
        };
        assert_eq!(e.line, 2, "the invalid byte sits on line 2");
    }

    #[test]
    fn utf8_errors_keep_their_place_among_parse_errors() {
        // A parse error on an earlier line of the same chunk wins...
        let bytes: &[u8] = b"0,3,foo,6:1,11,27,215,\n0,zz,foo,6:1,11,27,216,\n1,64,\xff,1,p,\n";
        let TraceReadError::Parse(e) = parse_read(bytes).unwrap_err() else {
            panic!("expected a parse error");
        };
        assert_eq!((e.line, e.message.contains("src line")), (2, true));
        // ...and an invalid byte further down is reported at its own line,
        // whatever the chunk size.
        let bytes: &[u8] = b"0,3,foo,6:1,11,27,215,\n1,64,5,1,p,\n\n1,64,\xff,1,p,\n2,64,1,1,q,\n";
        for chunk in [1, 7, 4096] {
            let err = RecordReader::with_chunk_size(bytes, chunk)
                .collect::<Result<Vec<_>, _>>()
                .unwrap_err();
            let TraceReadError::Parse(e) = err else {
                panic!("expected a parse error");
            };
            assert_eq!(e.line, 4, "chunk = {chunk}");
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

    fn parse_windowed_with(reader: &[u8], window: usize) -> Result<Vec<Record>, TraceReadError> {
        parse_windowed(reader, window, &AnalysisCtx::current())
    }

    #[test]
    fn windowed_parse_equals_serial_at_every_window() {
        let text = synth_trace(400);
        let serial = parse_str(&text).unwrap();
        for window in [64, 100, 1000, 1 << 22, WINDOW_BYTES] {
            let windowed = parse_windowed_with(text.as_bytes(), window).unwrap();
            assert_eq!(serial, windowed, "window = {window}");
        }
    }

    #[test]
    fn windowed_parse_propagates_parse_errors() {
        let mut text = synth_trace(100);
        text.push_str("0,zz,broken,1:1,0,27,9,\n");
        let err = parse_windowed_with(text.as_bytes(), 128).unwrap_err();
        assert!(err.to_string().contains("src line"));
    }

    #[test]
    fn windowed_parse_error_lines_are_absolute() {
        // The broken line lands well past the first window, so a
        // window-relative count would report a much smaller number than
        // the whole-input parser does.
        let mut text = synth_trace(100);
        let bad_line = text.lines().count() as u64 + 1;
        text.push_str("0,zz,broken,1:1,0,27,9,\n");

        let serial = parse_str(&text).unwrap_err();
        assert_eq!(serial.line, bad_line);

        let TraceReadError::Parse(windowed) =
            parse_windowed_with(text.as_bytes(), 256).unwrap_err()
        else {
            panic!("expected a parse error");
        };
        assert_eq!(windowed.line, bad_line);
    }

    #[test]
    fn window_grows_when_one_block_exceeds_it() {
        // A single block with many operand lines, far larger than the
        // 64-byte minimum window: the reader must keep growing its
        // lookahead instead of mis-splitting the block.
        let mut text = String::from("0,3,foo,6:1,11,49,0,\n");
        for i in 0..64 {
            text.push_str(&format!("{},64,{},0,,\n", i + 1, i));
        }
        let recs = parse_windowed_with(text.as_bytes(), 64).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].positional().count(), 64);
    }
}
