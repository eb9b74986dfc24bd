//! [`TraceSource`]: the one front door for trace ingest.
//!
//! Ingest used to be an eight-function zoo (`parse_str[_in]`,
//! `parse_parallel[_in]`, `parse_parallel_read[_with_window][_in]`, plus
//! `parse_read`) — one function per (input kind × parallelism × ctx)
//! combination, and the binary format would have doubled it again. The
//! builder collapses every combination into one entry point:
//!
//! ```
//! use autocheck_trace::{AnalysisCtx, ParallelConfig, TraceSource};
//!
//! let ctx = AnalysisCtx::session();
//! let records = TraceSource::from_str("0,3,foo,6:1,11,27,215,\n")
//!     .ctx(&ctx)
//!     .parallel(ParallelConfig { threads: 4 })
//!     .records()
//!     .unwrap();
//! assert_eq!(records.len(), 1);
//! ```
//!
//! * **Input**: [`from_str`](TraceSource::from_str) /
//!   [`from_bytes`](TraceSource::from_bytes) /
//!   [`from_path`](TraceSource::from_path) /
//!   [`from_reader`](TraceSource::from_reader).
//! * **Format**: text and binary traces both enter here.
//!   [`TraceFormat::Auto`] (the default) detects binary by its magic bytes —
//!   the magic's first byte is never valid UTF-8, so no text trace can
//!   shadow it (and a `&str` source is provably text).
//! * **Output**: [`records`](TraceSource::records) materializes the whole
//!   trace (optionally in parallel), [`stream`](TraceSource::stream) pulls
//!   records one at a time with bounded memory.
//!
//! Symbols intern into the ctx given via [`ctx`](TraceSource::ctx), or the
//! thread's current space when none is given — the same contract every
//! replaced function had.

use crate::binary::{self, BinaryReader, BinaryStreamReader};
use crate::ctx::AnalysisCtx;
use crate::limits::{ResourceExceeded, ResourceKind};
use crate::overlap::{resolve_overlap_depth, run_pipeline, BatchStream, IngestErrorClass};
use crate::parallel::{parse_chunks, parse_windowed_core, ParallelConfig, DEFAULT_WINDOW_BYTES};
use crate::reader::{utf8_text, RecordReader, TraceReadError};
use crate::record::Record;
use autocheck_obs::{CounterId, Metrics, TimerId};
use std::io::Read;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The boxed reader every adapter in the ingest stack wraps. `Send` so the
/// decode-ahead pipeline can move the stack onto a producer thread.
type BoxedReader<'a> = Box<dyn Read + Send + 'a>;

/// Which on-disk trace format to expect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// Detect by magic bytes (the default): a trace starting with the
    /// binary magic is binary, anything else is text.
    #[default]
    Auto,
    /// Force the textual format.
    Text,
    /// Force the binary format.
    Binary,
}

enum Input<'a> {
    Str(&'a str),
    Bytes(&'a [u8]),
    Path(PathBuf),
    Reader(BoxedReader<'a>),
}

/// Builder-style trace ingest over any input, either format, serial or
/// parallel. See the [module docs](self).
pub struct TraceSource<'a> {
    input: Input<'a>,
    ctx: AnalysisCtx,
    parallel: Option<ParallelConfig>,
    window: usize,
    format: TraceFormat,
    overlap: usize,
}

impl<'a> TraceSource<'a> {
    fn new(input: Input<'a>) -> TraceSource<'a> {
        TraceSource {
            input,
            ctx: AnalysisCtx::current(),
            parallel: None,
            window: DEFAULT_WINDOW_BYTES,
            format: TraceFormat::Auto,
            overlap: 1,
        }
    }

    /// Ingest from in-memory text. (A `&str` can never be a binary trace —
    /// the magic is invalid UTF-8 — so this is always the textual format.)
    // The inherent name mirrors `from_bytes`/`from_path`/`from_reader`; a
    // `FromStr` impl could not carry the input's lifetime.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &'a str) -> TraceSource<'a> {
        TraceSource::new(Input::Str(s))
    }

    /// Ingest from in-memory bytes (either format; binary decodes
    /// zero-copy straight out of the buffer).
    pub fn from_bytes(bytes: &'a [u8]) -> TraceSource<'a> {
        TraceSource::new(Input::Bytes(bytes))
    }

    /// Ingest from a file (either format, detected from the first bytes).
    pub fn from_path(path: impl Into<PathBuf>) -> TraceSource<'a> {
        TraceSource::new(Input::Path(path.into()))
    }

    /// Ingest from any [`Read`] (either format, detected by peeking the
    /// first bytes). `Send` so ingest can be moved onto a decode-ahead
    /// producer thread when [`overlap`](Self::overlap) asks for one.
    pub fn from_reader(reader: impl Read + Send + 'a) -> TraceSource<'a> {
        TraceSource::new(Input::Reader(Box::new(reader)))
    }

    /// Intern symbols into `ctx`'s space (default: the thread's current
    /// space, snapshotted when the source was constructed).
    pub fn ctx(mut self, ctx: &AnalysisCtx) -> TraceSource<'a> {
        self.ctx = ctx.clone();
        self
    }

    /// Parse with `cfg.threads` workers in [`records`](Self::records)
    /// (default: serial). Streaming is unaffected.
    pub fn parallel(mut self, cfg: ParallelConfig) -> TraceSource<'a> {
        self.parallel = Some(cfg);
        self
    }

    /// Bounded-lookahead window in bytes for parallel text parsing from a
    /// reader (default: [`DEFAULT_WINDOW_BYTES`]).
    pub fn window(mut self, bytes: usize) -> TraceSource<'a> {
        self.window = bytes;
        self
    }

    /// Expect a specific format instead of auto-detecting (default:
    /// [`TraceFormat::Auto`]).
    pub fn format(mut self, format: TraceFormat) -> TraceSource<'a> {
        self.format = format;
        self
    }

    /// Decode-ahead depth for [`records`](Self::records) and
    /// [`overlapped`](Self::overlapped) on path/reader inputs: `0` = auto
    /// (serial on single-core hosts), `1` = serial (the default), `n >= 2`
    /// = read and decode on background threads, `n` batches ahead of the
    /// consumer. In-memory inputs and [`stream`](Self::stream) are
    /// unaffected. See [`resolve_overlap_depth`].
    pub fn overlap(mut self, depth: usize) -> TraceSource<'a> {
        self.overlap = depth;
        self
    }

    /// Parse the whole trace into a `Vec<Record>`.
    ///
    /// In-memory and file inputs parse with the configured parallelism in
    /// both formats (block-aligned chunks for text, record-aligned chunks
    /// for binary). Reader inputs parse text through the bounded-lookahead
    /// windowed parser and binary through the streaming decoder.
    pub fn records(self) -> Result<Vec<Record>, TraceReadError> {
        let threads = self.parallel.map(|c| c.threads.max(1)).unwrap_or(1);
        let metrics = self.ctx.metrics().clone();
        let span = metrics.span(TimerId::Ingest);
        let result = match self.input {
            Input::Str(s) => records_from_bytes(s.as_bytes(), self.format, threads, &self.ctx),
            Input::Bytes(b) => records_from_bytes(b, self.format, threads, &self.ctx),
            Input::Path(p) => open_path(&p, &self.ctx).and_then(|file| {
                records_from_reader(
                    file,
                    self.format,
                    threads,
                    self.window,
                    self.overlap,
                    &self.ctx,
                    &metrics,
                )
            }),
            Input::Reader(r) => records_from_reader(
                r,
                self.format,
                threads,
                self.window,
                self.overlap,
                &self.ctx,
                &metrics,
            ),
        };
        drop(span);
        if let Err(e) = &result {
            note_error(&metrics, e);
        }
        result
    }

    /// Run `consume` against a decode-ahead pipeline: trace bytes are read
    /// and decoded on background threads while `consume` pulls finished
    /// record batches from the [`BatchStream`] — so the caller's fold runs
    /// concurrently with ingest.
    ///
    /// The pipeline is always built, whatever the configured overlap depth
    /// (the depth only sizes the bounded channel); callers that want the
    /// serial path at depth 1 branch before calling this. Producer-side
    /// failures — I/O errors, parse errors, resource ceilings, even worker
    /// panics — surface through the stream as the same typed
    /// [`TraceReadError`]s serial ingest returns. Errors the producers hit
    /// *before* the pipeline exists (opening the file, peeking the format)
    /// surface as this function's own `Err`.
    pub fn overlapped<T>(
        self,
        consume: impl FnOnce(&mut BatchStream) -> T,
    ) -> Result<T, TraceReadError> {
        let threads = self.parallel.map(|c| c.threads.max(1)).unwrap_or(1);
        let metrics = self.ctx.metrics().clone();
        let reader: BoxedReader<'a> = match self.input {
            Input::Str(s) => Box::new(s.as_bytes()),
            Input::Bytes(b) => Box::new(b),
            Input::Path(p) => open_path(&p, &self.ctx).inspect_err(|e| note_error(&metrics, e))?,
            Input::Reader(r) => r,
        };
        let (format, reader) = peek_format(reader, self.format)?;
        let (reader, read_bytes) = MeteredReader::wrap(reader);
        let reader = ByteLimitReader::wrap(reader, &self.ctx);
        let depth = resolve_overlap_depth(self.overlap).max(1);
        let (out, summary) = run_pipeline(
            reader,
            format,
            threads,
            self.window,
            depth,
            &self.ctx,
            &read_bytes,
            consume,
        );
        // Book what the serial streaming path would have booked: ingest
        // volume per delivered record (bytes as of the last delivery), and
        // the error-kind counter if the consumer was handed an error.
        if summary.records > 0 {
            note_ingest(
                &metrics,
                format,
                summary.bytes_at_last_batch,
                summary.records,
            );
        }
        match summary.error {
            Some(IngestErrorClass::Parse) => metrics.count(CounterId::ParseErrors, 1),
            Some(IngestErrorClass::Resource) => metrics.count(CounterId::LimitExceeded, 1),
            Some(IngestErrorClass::Io) | None => {}
        }
        Ok(out)
    }

    /// Pull records one at a time with bounded memory (text: chunked line
    /// reader; binary: string table plus one read window). A path input is
    /// opened as [`records`](Self::records) opens it: a `trace-bytes`
    /// ceiling is checked against the file's length first.
    pub fn stream(self) -> Result<TraceStream<'a>, TraceReadError> {
        let ctx = self.ctx;
        let (format, reader): (TraceFormat, BoxedReader<'a>) = match self.input {
            Input::Str(s) => (
                resolve_format(s.as_bytes(), self.format),
                Box::new(s.as_bytes()),
            ),
            Input::Bytes(b) => (resolve_format(b, self.format), Box::new(b)),
            Input::Path(p) => {
                let file = open_path(&p, &ctx).inspect_err(|e| note_error(ctx.metrics(), e))?;
                peek_format(file, self.format)?
            }
            Input::Reader(r) => peek_format(r, self.format)?,
        };
        let metrics = ctx.metrics().clone();
        let (reader, read_bytes) = MeteredReader::wrap(reader);
        let reader = ByteLimitReader::wrap(reader, &ctx);
        let inner = match format {
            TraceFormat::Binary => match BinaryStreamReader::open(reader, &ctx) {
                Ok(r) => StreamInner::Binary(r),
                Err(e) => {
                    // The open path reads the string table, so a byte
                    // ceiling can trip before the stream even exists.
                    let e = unsmuggle_limit(e);
                    note_error(&metrics, &e);
                    return Err(e);
                }
            },
            _ => StreamInner::Text(
                Box::new(RecordReader::with_ctx(reader, &ctx)),
                Record::blank(),
            ),
        };
        Ok(TraceStream {
            inner,
            metrics,
            format,
            read_bytes,
            reported_bytes: 0,
            ctx,
            records_seen: 0,
            limit_tripped: false,
        })
    }
}

/// Open a file for chunked ingest, pre-checking the byte ceiling against
/// its length so an oversized file is rejected without reading a byte.
///
/// Path ingest is O(window) resident by construction: the file feeds the
/// same bounded-lookahead machinery as reader inputs, so the whole trace
/// is never materialized in memory.
fn open_path<'a>(
    path: &std::path::Path,
    ctx: &AnalysisCtx,
) -> Result<BoxedReader<'a>, TraceReadError> {
    if ctx.limits().get(ResourceKind::TraceBytes).is_some() {
        let len = std::fs::metadata(path)?.len();
        ctx.limits().check(ResourceKind::TraceBytes, len)?;
    }
    Ok(Box::new(std::io::BufReader::new(std::fs::File::open(
        path,
    )?)))
}

/// The reader-input body of [`TraceSource::records`]: wrap the metering
/// and limit stack, then parse serially (overlap depth 1) or through the
/// decode-ahead pipeline. Error *counter* bookkeeping stays with the
/// caller, which books it off the returned `Result` either way.
#[allow(clippy::too_many_arguments)]
fn records_from_reader(
    r: BoxedReader<'_>,
    format: TraceFormat,
    threads: usize,
    window: usize,
    overlap: usize,
    ctx: &AnalysisCtx,
    metrics: &Metrics,
) -> Result<Vec<Record>, TraceReadError> {
    let (format, reader) = peek_format(r, format)?;
    let (reader, read_bytes) = MeteredReader::wrap(reader);
    let reader = ByteLimitReader::wrap(reader, ctx);
    let depth = resolve_overlap_depth(overlap);
    let result = if depth > 1 {
        let (folded, _summary) = run_pipeline(
            reader,
            format,
            threads,
            window,
            depth,
            ctx,
            &read_bytes,
            |batches| {
                let mut out: Vec<Record> = Vec::new();
                while let Some(batch) = batches.next_batch() {
                    out.extend(batch?);
                }
                Ok(out)
            },
        );
        // The batch stream already applied `unsmuggle_limit` and the
        // per-batch ceiling checks; by the final batch they cover the
        // whole trace, so no trailing re-check is needed.
        folded
    } else {
        match format {
            TraceFormat::Binary => BinaryStreamReader::open(reader, ctx).and_then(|r| r.collect()),
            _ => parse_windowed_core(reader, threads, window, ctx),
        }
        .map_err(unsmuggle_limit)
        .and_then(|recs| {
            check_ingest_limits(ctx, recs.len() as u64, read_bytes.load(Ordering::Relaxed))?;
            Ok(recs)
        })
    };
    if let Ok(recs) = &result {
        note_ingest(
            metrics,
            format,
            read_bytes.load(Ordering::Relaxed),
            recs.len() as u64,
        );
    }
    result
}

/// Check the ingest-side resource ceilings for one source: records and raw
/// bytes for this trace, plus the session-wide symbol count and owned
/// string bytes (which grow only through interning — i.e. through ingest).
pub(crate) fn check_ingest_limits(
    ctx: &AnalysisCtx,
    records: u64,
    bytes: u64,
) -> Result<(), ResourceExceeded> {
    let limits = ctx.limits();
    limits.check(ResourceKind::TraceRecords, records)?;
    limits.check(ResourceKind::TraceBytes, bytes)?;
    // The space's counts sit behind its lock: read them only when a
    // ceiling needs them.
    if limits.get(ResourceKind::Symbols).is_some() {
        limits.check(ResourceKind::Symbols, ctx.space().len() as u64)?;
    }
    if limits.get(ResourceKind::ArenaBytes).is_some() {
        limits.check(ResourceKind::ArenaBytes, ctx.space().owned_bytes() as u64)?;
    }
    Ok(())
}

/// Recover a [`ResourceExceeded`] that [`ByteLimitReader`] smuggled through
/// the `io::Error` channel (the only error type a [`Read`] can raise).
pub(crate) fn unsmuggle_limit(e: TraceReadError) -> TraceReadError {
    let TraceReadError::Io(io_err) = &e else {
        return e;
    };
    match io_err
        .get_ref()
        .and_then(|inner| inner.downcast_ref::<ResourceExceeded>())
    {
        Some(r) => TraceReadError::Resource(*r),
        None => e,
    }
}

/// A [`Read`] adapter enforcing `max_trace_bytes` *during* the read — the
/// guard that stops an unbounded (or lying-header) stream before downstream
/// buffers can over-allocate. The violation travels as an `io::Error`
/// wrapping the typed [`ResourceExceeded`]; [`unsmuggle_limit`] restores it
/// at the `TraceSource` boundary.
pub(crate) struct ByteLimitReader<'a> {
    inner: BoxedReader<'a>,
    served: u64,
    limit: u64,
}

impl<'a> ByteLimitReader<'a> {
    pub(crate) fn wrap(inner: BoxedReader<'a>, ctx: &AnalysisCtx) -> BoxedReader<'a> {
        match ctx.limits().get(ResourceKind::TraceBytes) {
            Some(limit) => Box::new(ByteLimitReader {
                inner,
                served: 0,
                limit,
            }),
            None => inner,
        }
    }
}

impl Read for ByteLimitReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        // Serve at most one byte past the ceiling: crossing it (rather than
        // reaching it exactly) is what constitutes the violation. Saturate:
        // at limit == u64::MAX the `+ 1` would otherwise wrap to a
        // zero-length read, silently treating the trace as empty.
        let remaining = (self.limit - self.served.min(self.limit)).saturating_add(1);
        let want = (buf.len() as u64).min(remaining) as usize;
        let n = self.inner.read(&mut buf[..want])?;
        self.served += n as u64;
        if self.served > self.limit {
            return Err(std::io::Error::other(ResourceExceeded {
                kind: ResourceKind::TraceBytes,
                used: self.served,
                limit: self.limit,
            }));
        }
        Ok(n)
    }
}

/// Book a failed ingest on the session's error counters.
fn note_error(metrics: &Metrics, e: &TraceReadError) {
    match e {
        TraceReadError::Parse(_) | TraceReadError::Binary(_) => {
            metrics.count(CounterId::ParseErrors, 1);
        }
        TraceReadError::Resource(_) => metrics.count(CounterId::LimitExceeded, 1),
        TraceReadError::Io(_) => {}
    }
}

/// Book ingested volume under the resolved format's counters.
fn note_ingest(metrics: &Metrics, format: TraceFormat, bytes: u64, records: u64) {
    let (rec_id, byte_id) = match format {
        TraceFormat::Binary => (CounterId::IngestRecordsBinary, CounterId::IngestBytesBinary),
        _ => (CounterId::IngestRecordsText, CounterId::IngestBytesText),
    };
    metrics.count(rec_id, records);
    metrics.count(byte_id, bytes);
}

/// A [`Read`] adapter that tallies consumed bytes into a shared counter —
/// how reader inputs (where no one knows the length up front) feed the
/// ingest byte counters.
struct MeteredReader<'a> {
    inner: BoxedReader<'a>,
    bytes: Arc<AtomicU64>,
}

impl<'a> MeteredReader<'a> {
    fn wrap(inner: BoxedReader<'a>) -> (BoxedReader<'a>, Arc<AtomicU64>) {
        let bytes = Arc::new(AtomicU64::new(0));
        (
            Box::new(MeteredReader {
                inner,
                bytes: Arc::clone(&bytes),
            }),
            bytes,
        )
    }
}

impl Read for MeteredReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// The pull stream behind [`TraceSource::stream`]. Yields records until
/// the first error, then fuses.
///
/// [`next_record`](Self::next_record) lends each record from one reused
/// slot (a binary trace decodes into it in place); the [`Iterator`] impl
/// runs the same step and hands the record over by value.
pub struct TraceStream<'a> {
    inner: StreamInner<'a>,
    metrics: Metrics,
    format: TraceFormat,
    read_bytes: Arc<AtomicU64>,
    reported_bytes: u64,
    /// The session whose limits this stream enforces per record.
    ctx: AnalysisCtx,
    records_seen: u64,
    /// Set when a resource ceiling tripped: the stream fuses (the inner
    /// readers fuse themselves after their own errors, but a limit
    /// violation replaces an otherwise-good record).
    limit_tripped: bool,
}

enum StreamInner<'a> {
    // Boxed: the text reader's line-carry buffers dwarf the binary variant.
    // The slot holds the last record the text reader parsed.
    Text(Box<RecordReader<BoxedReader<'a>>>, Record),
    // The binary reader keeps its own slot.
    Binary(BinaryStreamReader<BoxedReader<'a>>),
}

impl TraceStream<'_> {
    /// True when the underlying trace is binary.
    pub fn is_binary(&self) -> bool {
        matches!(self.inner, StreamInner::Binary(_))
    }

    /// The next record, lent from the stream's slot until the next call.
    pub fn next_record(&mut self) -> Option<Result<&Record, TraceReadError>> {
        match self.advance()? {
            Ok(()) => Some(Ok(self.slot())),
            Err(e) => Some(Err(e)),
        }
    }

    /// The record the last step delivered.
    fn slot(&mut self) -> &mut Record {
        match &mut self.inner {
            StreamInner::Text(_, slot) => slot,
            StreamInner::Binary(r) => r.slot(),
        }
    }

    /// One step: the next record into the slot, then the session's ingest
    /// ceilings and counters.
    fn advance(&mut self) -> Option<Result<(), TraceReadError>> {
        if self.limit_tripped {
            return None;
        }
        let (step, bytes) = match &mut self.inner {
            StreamInner::Text(r, slot) => {
                let step = r.next().map(|item| item.map(|rec| *slot = rec));
                (step, self.read_bytes.load(Ordering::Relaxed))
            }
            // The decode offset, not the bytes the window has read ahead:
            // ingest books exactly the bytes of the records delivered.
            StreamInner::Binary(r) => (r.advance(), r.offset()),
        };
        // Per-record limit enforcement: each delivered record re-checks the
        // session's ingest ceilings, so a violation surfaces within one
        // record of crossing the line — bounded growth by construction.
        let step = match step {
            Some(Ok(())) => {
                self.records_seen += 1;
                match check_ingest_limits(&self.ctx, self.records_seen, bytes) {
                    Ok(()) => Some(Ok(())),
                    Err(limit) => {
                        self.limit_tripped = true;
                        Some(Err(TraceReadError::Resource(limit)))
                    }
                }
            }
            Some(Err(e)) => Some(Err(unsmuggle_limit(e))),
            None => None,
        };
        match &step {
            Some(Ok(())) if self.metrics.is_enabled() => {
                note_ingest(&self.metrics, self.format, bytes - self.reported_bytes, 1);
                self.reported_bytes = bytes;
            }
            Some(Err(e)) => note_error(&self.metrics, e),
            _ => {}
        }
        step
    }
}

impl Iterator for TraceStream<'_> {
    type Item = Result<Record, TraceReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(
            self.advance()?
                .map(|()| std::mem::replace(self.slot(), Record::blank())),
        )
    }
}

/// Resolve [`TraceFormat::Auto`] against the input's first bytes.
fn resolve_format(head: &[u8], format: TraceFormat) -> TraceFormat {
    match format {
        TraceFormat::Auto => {
            if binary::is_binary(head) {
                TraceFormat::Binary
            } else {
                TraceFormat::Text
            }
        }
        other => other,
    }
}

/// Peek up to four bytes off `r` to resolve the format, returning a reader
/// that replays the peeked bytes first.
fn peek_format<'a>(
    mut r: BoxedReader<'a>,
    format: TraceFormat,
) -> Result<(TraceFormat, BoxedReader<'a>), TraceReadError> {
    let mut head = [0u8; 4];
    let mut got = 0;
    while got < head.len() {
        match r.read(&mut head[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TraceReadError::Io(e)),
        }
    }
    let format = resolve_format(&head[..got], format);
    let replay = std::io::Cursor::new(head).take(got as u64);
    Ok((format, Box::new(replay.chain(r))))
}

fn records_from_bytes(
    bytes: &[u8],
    format: TraceFormat,
    threads: usize,
    ctx: &AnalysisCtx,
) -> Result<Vec<Record>, TraceReadError> {
    // The byte ceiling gates the parse up front: everything downstream
    // (record count, interned symbols, owned arena bytes) is bounded by the
    // input's byte length, so the post-parse checks below can never observe
    // more than one bounded input's worth of growth.
    ctx.limits()
        .check(ResourceKind::TraceBytes, bytes.len() as u64)?;
    let format = resolve_format(bytes, format);
    let result = match format {
        TraceFormat::Binary => BinaryReader::open(bytes, ctx)?.read_all_parallel(threads),
        _ => {
            let text = utf8_text(bytes)?;
            parse_chunks(text, threads, ctx).map_err(TraceReadError::Parse)
        }
    }
    .and_then(|recs| {
        check_ingest_limits(ctx, recs.len() as u64, bytes.len() as u64)?;
        Ok(recs)
    });
    if let Ok(recs) = &result {
        note_ingest(ctx.metrics(), format, bytes.len() as u64, recs.len() as u64);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::to_bytes;
    use crate::name::Name;
    use crate::record::{opcodes, OpTag, Operand, TraceValue};
    use crate::writer;

    fn synth(ctx: &AnalysisCtx, blocks: usize) -> Vec<Record> {
        (0..blocks)
            .map(|i| Record {
                src_line: (i % 90 + 1) as i32,
                func: ctx.intern(if i % 3 == 0 { "main" } else { "foo" }),
                bb: (1, 1),
                bb_label: ctx.intern("0"),
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
                    Name::Sym(ctx.intern("p")),
                )],
                result: Some(Operand::reg(
                    OpTag::Result,
                    64,
                    TraceValue::I(i as i64),
                    Name::Temp(i as u32),
                )),
            })
            .collect()
    }

    fn text_of(ctx: &AnalysisCtx, recs: &[Record]) -> String {
        let _g = ctx.enter();
        writer::to_string(recs)
    }

    #[test]
    fn every_input_kind_parses_text() {
        let ctx = AnalysisCtx::session();
        let recs = synth(&ctx, 100);
        let text = text_of(&ctx, &recs);

        let from_str = TraceSource::from_str(&text).ctx(&ctx).records().unwrap();
        let from_bytes = TraceSource::from_bytes(text.as_bytes())
            .ctx(&ctx)
            .records()
            .unwrap();
        let from_reader = TraceSource::from_reader(text.as_bytes())
            .ctx(&ctx)
            .records()
            .unwrap();
        assert_eq!(recs, from_str);
        assert_eq!(recs, from_bytes);
        assert_eq!(recs, from_reader);
    }

    #[test]
    fn every_input_kind_parses_binary() {
        let ctx = AnalysisCtx::session();
        let recs = synth(&ctx, 100);
        let bytes = to_bytes(&recs, &ctx);

        let from_bytes = TraceSource::from_bytes(&bytes).ctx(&ctx).records().unwrap();
        let from_reader = TraceSource::from_reader(&bytes[..])
            .ctx(&ctx)
            .records()
            .unwrap();
        assert_eq!(recs, from_bytes);
        assert_eq!(recs, from_reader);
    }

    #[test]
    fn paths_parse_both_formats() {
        let ctx = AnalysisCtx::session();
        let recs = synth(&ctx, 50);
        let dir = std::env::temp_dir().join(format!("autocheck-source-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("t.txt");
        let bin_path = dir.join("t.bin");
        std::fs::write(&text_path, text_of(&ctx, &recs)).unwrap();
        std::fs::write(&bin_path, to_bytes(&recs, &ctx)).unwrap();

        for p in [&text_path, &bin_path] {
            let batch = TraceSource::from_path(p).ctx(&ctx).records().unwrap();
            assert_eq!(recs, batch, "batch {}", p.display());
            let streamed: Vec<Record> = TraceSource::from_path(p)
                .ctx(&ctx)
                .stream()
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(recs, streamed, "stream {}", p.display());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_matches_serial_in_both_formats() {
        let ctx = AnalysisCtx::session();
        let recs = synth(&ctx, 400);
        let text = text_of(&ctx, &recs);
        let bytes = to_bytes(&recs, &ctx);
        for threads in [2, 4, 7] {
            let cfg = ParallelConfig { threads };
            let t = TraceSource::from_str(&text)
                .ctx(&ctx)
                .parallel(cfg)
                .records()
                .unwrap();
            let b = TraceSource::from_bytes(&bytes)
                .ctx(&ctx)
                .parallel(cfg)
                .records()
                .unwrap();
            assert_eq!(recs, t, "text, threads = {threads}");
            assert_eq!(recs, b, "binary, threads = {threads}");
        }
    }

    #[test]
    fn streams_detect_format_and_match_batch() {
        let ctx = AnalysisCtx::session();
        let recs = synth(&ctx, 120);
        let text = text_of(&ctx, &recs);
        let bytes = to_bytes(&recs, &ctx);

        let ts = TraceSource::from_reader(text.as_bytes())
            .ctx(&ctx)
            .stream()
            .unwrap();
        assert!(!ts.is_binary());
        let streamed: Vec<Record> = ts.collect::<Result<_, _>>().unwrap();
        assert_eq!(recs, streamed);

        let bs = TraceSource::from_reader(&bytes[..])
            .ctx(&ctx)
            .stream()
            .unwrap();
        assert!(bs.is_binary());
        let streamed: Vec<Record> = bs.collect::<Result<_, _>>().unwrap();
        assert_eq!(recs, streamed);
    }

    #[test]
    fn forced_format_overrides_detection() {
        let ctx = AnalysisCtx::session();
        let recs = synth(&ctx, 5);
        let bytes = to_bytes(&recs, &ctx);
        // Forcing text on a binary trace fails the UTF-8 gate (the magic is
        // deliberately invalid UTF-8).
        let err = TraceSource::from_bytes(&bytes)
            .ctx(&ctx)
            .format(TraceFormat::Text)
            .records()
            .unwrap_err();
        assert!(err.to_string().contains("UTF-8"));
        // Forcing binary on a text trace fails the magic check.
        let text = text_of(&ctx, &recs);
        let err = TraceSource::from_str(&text)
            .ctx(&ctx)
            .format(TraceFormat::Binary)
            .records()
            .unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn empty_inputs_are_empty_traces() {
        let ctx = AnalysisCtx::session();
        assert!(TraceSource::from_str("")
            .ctx(&ctx)
            .records()
            .unwrap()
            .is_empty());
        let streamed: Vec<Record> = TraceSource::from_reader(&b""[..])
            .ctx(&ctx)
            .stream()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert!(streamed.is_empty());
    }

    #[test]
    fn tiny_reader_inputs_survive_the_format_peek() {
        // Shorter than the 4-byte magic: must still parse as text.
        let ctx = AnalysisCtx::session();
        let streamed: Vec<Record> = TraceSource::from_reader(&b"\n"[..])
            .ctx(&ctx)
            .stream()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert!(streamed.is_empty());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = TraceSource::from_path("/nonexistent/trace.bin")
            .records()
            .unwrap_err();
        assert!(matches!(err, TraceReadError::Io(_)));
    }

    #[test]
    fn window_and_threads_compose_on_readers() {
        let ctx = AnalysisCtx::session();
        let recs = synth(&ctx, 300);
        let text = text_of(&ctx, &recs);
        let parsed = TraceSource::from_reader(text.as_bytes())
            .ctx(&ctx)
            .parallel(ParallelConfig { threads: 4 })
            .window(256)
            .records()
            .unwrap();
        assert_eq!(recs, parsed);
    }

    /// The deprecated free functions must keep working verbatim until
    /// removal — they are thin wrappers over the same cores.
    #[test]
    #[allow(deprecated)]
    fn deprecated_wrappers_delegate_to_the_same_cores() {
        let ctx = AnalysisCtx::session();
        let recs = synth(&ctx, 30);
        let text = text_of(&ctx, &recs);
        let cfg = ParallelConfig { threads: 2 };
        assert_eq!(crate::parser::parse_str_in(&text, &ctx).unwrap(), recs);
        assert_eq!(
            crate::parallel::parse_parallel_in(&text, cfg, &ctx).unwrap(),
            recs
        );
        assert_eq!(
            crate::parallel::parse_parallel_read_in(text.as_bytes(), cfg, &ctx).unwrap(),
            recs
        );
        assert_eq!(
            crate::parallel::parse_parallel_read_with_window_in(text.as_bytes(), cfg, 128, &ctx)
                .unwrap(),
            recs
        );
        let _g = ctx.enter();
        assert_eq!(crate::parser::parse_str(&text).unwrap(), recs);
        assert_eq!(crate::parallel::parse_parallel(&text, cfg).unwrap(), recs);
        assert_eq!(
            crate::parallel::parse_parallel_read(text.as_bytes(), cfg).unwrap(),
            recs
        );
        assert_eq!(
            crate::parallel::parse_parallel_read_with_window(text.as_bytes(), cfg, 128).unwrap(),
            recs
        );
        assert_eq!(crate::reader::parse_read(text.as_bytes()).unwrap(), recs);
    }

    #[test]
    fn ingest_counters_track_records_bytes_and_errors() {
        use autocheck_obs::{CounterId, Metrics};
        let base = AnalysisCtx::session();
        let recs = synth(&base, 40);
        let text = text_of(&base, &recs);
        let bin = to_bytes(&recs, &base);

        // Batch text: record + byte counters under the text ids.
        let ctx = AnalysisCtx::session().with_metrics(Metrics::enabled());
        TraceSource::from_str(&text).ctx(&ctx).records().unwrap();
        let m = ctx.metrics();
        assert_eq!(m.counter(CounterId::IngestRecordsText), 40);
        assert_eq!(m.counter(CounterId::IngestBytesText), text.len() as u64);
        assert_eq!(m.counter(CounterId::IngestRecordsBinary), 0);
        assert_eq!(m.counter(CounterId::ParseErrors), 0);
        let (ns, spans) = m.timer(autocheck_obs::TimerId::Ingest);
        assert_eq!(spans, 1);
        assert!(ns > 0);

        // Batch binary from a reader: bytes metered through the adapter.
        let ctx = AnalysisCtx::session().with_metrics(Metrics::enabled());
        TraceSource::from_reader(&bin[..])
            .ctx(&ctx)
            .records()
            .unwrap();
        assert_eq!(ctx.metrics().counter(CounterId::IngestRecordsBinary), 40);
        assert_eq!(
            ctx.metrics().counter(CounterId::IngestBytesBinary),
            bin.len() as u64
        );

        // Streaming text: per-record counting adds up to the same totals.
        let ctx = AnalysisCtx::session().with_metrics(Metrics::enabled());
        let n = TraceSource::from_reader(text.as_bytes())
            .ctx(&ctx)
            .stream()
            .unwrap()
            .filter(|r| r.is_ok())
            .count();
        assert_eq!(n, 40);
        assert_eq!(ctx.metrics().counter(CounterId::IngestRecordsText), 40);
        assert_eq!(
            ctx.metrics().counter(CounterId::IngestBytesText),
            text.len() as u64
        );

        // A malformed trace books one parse error, batch and stream alike.
        let ctx = AnalysisCtx::session().with_metrics(Metrics::enabled());
        TraceSource::from_str("0,zz,broken,1:1,0,27,9,\n")
            .ctx(&ctx)
            .records()
            .unwrap_err();
        assert_eq!(ctx.metrics().counter(CounterId::ParseErrors), 1);
        let errs = TraceSource::from_str("0,zz,broken,1:1,0,27,9,\n")
            .ctx(&ctx)
            .stream()
            .unwrap()
            .filter(|r| r.is_err())
            .count();
        assert_eq!(errs, 1);
        assert_eq!(ctx.metrics().counter(CounterId::ParseErrors), 2);
    }

    #[test]
    fn limits_trip_typed_errors_on_every_input_kind() {
        use crate::limits::{ResourceKind, ResourceLimits};
        let base = AnalysisCtx::session();
        let recs = synth(&base, 50);
        let text = text_of(&base, &recs);
        let bin = to_bytes(&recs, &base);

        // Record ceiling, in-memory text.
        let ctx = AnalysisCtx::session().with_limits(ResourceLimits::new().max_trace_records(10));
        let err = TraceSource::from_str(&text)
            .ctx(&ctx)
            .records()
            .unwrap_err();
        let TraceReadError::Resource(r) = err else {
            panic!("expected a resource error");
        };
        assert_eq!(r.kind, ResourceKind::TraceRecords);
        assert_eq!(r.limit, 10);

        // Byte ceiling, binary from a reader: trips mid-read.
        let ctx = AnalysisCtx::session().with_limits(ResourceLimits::new().max_trace_bytes(64));
        let err = TraceSource::from_reader(&bin[..])
            .ctx(&ctx)
            .records()
            .unwrap_err();
        let TraceReadError::Resource(r) = err else {
            panic!("expected a resource error, not {err}");
        };
        assert_eq!(r.kind, ResourceKind::TraceBytes);

        // Symbol ceiling, in-memory binary.
        let ctx = AnalysisCtx::session().with_limits(ResourceLimits::new().max_symbols(2));
        let err = TraceSource::from_bytes(&bin)
            .ctx(&ctx)
            .records()
            .unwrap_err();
        let TraceReadError::Resource(r) = err else {
            panic!("expected a resource error, not {err}");
        };
        assert_eq!(r.kind, ResourceKind::Symbols);

        // Arena-byte ceiling.
        let ctx = AnalysisCtx::session().with_limits(ResourceLimits::new().max_arena_bytes(3));
        let err = TraceSource::from_str(&text)
            .ctx(&ctx)
            .records()
            .unwrap_err();
        let TraceReadError::Resource(r) = err else {
            panic!("expected a resource error, not {err}");
        };
        assert_eq!(r.kind, ResourceKind::ArenaBytes);

        // Path input: an oversized file is rejected before being read.
        let dir = std::env::temp_dir().join(format!("autocheck-limits-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("big.txt");
        std::fs::write(&p, &text).unwrap();
        let ctx = AnalysisCtx::session().with_limits(ResourceLimits::new().max_trace_bytes(10));
        let err = TraceSource::from_path(&p).ctx(&ctx).records().unwrap_err();
        assert!(matches!(err, TraceReadError::Resource(_)));
        std::fs::remove_dir_all(&dir).ok();

        // Unlimited ctx still parses everything (no behavior change).
        let ctx = AnalysisCtx::session();
        assert_eq!(
            TraceSource::from_str(&text)
                .ctx(&ctx)
                .records()
                .unwrap()
                .len(),
            50
        );
    }

    #[test]
    fn byte_limit_of_u64_max_reads_everything() {
        use crate::limits::ResourceLimits;
        // `--limit trace-bytes=18446744073709551615` parses as a valid u64;
        // the one-past-the-ceiling arithmetic must saturate instead of
        // wrapping to a zero-length read (which would silently treat every
        // trace as empty).
        let ctx =
            AnalysisCtx::session().with_limits(ResourceLimits::new().max_trace_bytes(u64::MAX));
        let base = AnalysisCtx::session();
        let recs = synth(&base, 10);
        let text = text_of(&base, &recs);
        assert_eq!(
            TraceSource::from_reader(text.as_bytes())
                .ctx(&ctx)
                .records()
                .unwrap()
                .len(),
            10
        );
    }

    #[test]
    fn streams_enforce_limits_per_record_and_fuse() {
        use crate::limits::{ResourceKind, ResourceLimits};
        use autocheck_obs::Metrics;
        let base = AnalysisCtx::session();
        let recs = synth(&base, 30);
        let text = text_of(&base, &recs);
        let bin = to_bytes(&recs, &base);

        for (name, input) in [("text", text.as_bytes()), ("binary", &bin[..])] {
            let ctx = AnalysisCtx::session()
                .with_metrics(Metrics::enabled())
                .with_limits(ResourceLimits::new().max_trace_records(5));
            let items: Vec<_> = TraceSource::from_reader(input)
                .ctx(&ctx)
                .stream()
                .unwrap()
                .collect();
            assert_eq!(items.len(), 6, "{name}: 5 records then the violation");
            assert!(items[..5].iter().all(|r| r.is_ok()), "{name}");
            let Err(TraceReadError::Resource(r)) = &items[5] else {
                panic!("{name}: expected a resource error, got {:?}", items[5]);
            };
            assert_eq!(r.kind, ResourceKind::TraceRecords);
            assert_eq!(
                ctx.metrics()
                    .counter(autocheck_obs::CounterId::LimitExceeded),
                1,
                "{name}: the violation books the limit counter"
            );
        }

        // Byte ceiling through the streaming path trips as a typed error
        // too (smuggled through the reader stack, restored at the stream).
        let ctx = AnalysisCtx::session().with_limits(ResourceLimits::new().max_trace_bytes(40));
        let items: Vec<_> = TraceSource::from_reader(text.as_bytes())
            .ctx(&ctx)
            .stream()
            .unwrap()
            .collect();
        let last = items.last().unwrap();
        assert!(
            matches!(last, Err(TraceReadError::Resource(r)) if r.kind == ResourceKind::TraceBytes),
            "expected a trace-bytes violation, got {last:?}"
        );
    }

    #[test]
    fn parse_error_lines_stay_absolute() {
        let ctx = AnalysisCtx::session();
        let recs = synth(&ctx, 50);
        let mut text = text_of(&ctx, &recs);
        let bad_line = text.lines().count() as u64 + 1;
        text.push_str("0,zz,broken,1:1,0,27,9,\n");
        for source in [
            TraceSource::from_str(&text).ctx(&ctx),
            TraceSource::from_reader(text.as_bytes())
                .ctx(&ctx)
                .window(128),
        ] {
            let err = source.records().unwrap_err();
            let TraceReadError::Parse(e) = err else {
                panic!("expected a parse error");
            };
            assert_eq!(e.line, bad_line);
        }
    }
}
