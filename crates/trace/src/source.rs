//! [`TraceSource`]: the one front door for trace ingest.
//!
//! One builder covers every input kind, both formats and both output
//! shapes:
//!
//! ```
//! use autocheck_trace::{AnalysisCtx, TraceSource};
//!
//! let ctx = AnalysisCtx::session();
//! let records = TraceSource::from_str("0,3,foo,6:1,11,27,215,\n")
//!     .ctx(&ctx)
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
//!   trace, [`stream`](TraceSource::stream) pulls records a batch at a time
//!   with bounded memory. Both are serial, and `records` is `stream`
//!   drained: the format's one windowed reader ([`TextStreamReader`] or
//!   [`BinaryStreamReader`]) behind the same byte meter and ceilings,
//!   decoding in one loop per format into the stream's batch of slots. Both
//!   output shapes therefore decode the same records and fail with the
//!   same error on the same input.
//!
//! Symbols intern into the ctx given via [`ctx`](TraceSource::ctx), or the
//! thread's current space when none is given — the same contract every
//! replaced function had.

use crate::binary::{self, BinaryStreamReader};
use crate::ctx::AnalysisCtx;
use crate::limits::{ResourceExceeded, ResourceKind};
use crate::reader::{TextStreamReader, TraceReadError};
use crate::record::Record;
use autocheck_obs::{CounterId, Metrics, TimerId};
use std::cell::Cell;
use std::io::Read;
use std::path::PathBuf;
use std::rc::Rc;

/// The boxed reader every adapter in the ingest stack wraps.
type BoxedReader<'a> = Box<dyn Read + 'a>;

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

/// Builder-style trace ingest over any input, either format. See the
/// [module docs](self).
pub struct TraceSource<'a> {
    input: Input<'a>,
    ctx: AnalysisCtx,
    format: TraceFormat,
}

impl<'a> TraceSource<'a> {
    fn new(input: Input<'a>) -> TraceSource<'a> {
        TraceSource {
            input,
            ctx: AnalysisCtx::current(),
            format: TraceFormat::Auto,
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

    /// Ingest from in-memory bytes (either format).
    pub fn from_bytes(bytes: &'a [u8]) -> TraceSource<'a> {
        TraceSource::new(Input::Bytes(bytes))
    }

    /// Ingest from a file (either format, detected from the first bytes).
    pub fn from_path(path: impl Into<PathBuf>) -> TraceSource<'a> {
        TraceSource::new(Input::Path(path.into()))
    }

    /// Ingest from any [`Read`] (either format, detected by peeking the
    /// first bytes).
    pub fn from_reader(reader: impl Read + 'a) -> TraceSource<'a> {
        TraceSource::new(Input::Reader(Box::new(reader)))
    }

    /// Intern symbols into `ctx`'s space (default: the thread's current
    /// space, snapshotted when the source was constructed).
    pub fn ctx(mut self, ctx: &AnalysisCtx) -> TraceSource<'a> {
        self.ctx = ctx.clone();
        self
    }

    /// Expect a specific format instead of auto-detecting (default:
    /// [`TraceFormat::Auto`]).
    pub fn format(mut self, format: TraceFormat) -> TraceSource<'a> {
        self.format = format;
        self
    }

    /// Parse the whole trace into a `Vec<Record>`: [`stream`](Self::stream)
    /// drained, each record copied out of the stream's slot, so both fail
    /// alike on the same input.
    pub fn records(self) -> Result<Vec<Record>, TraceReadError> {
        let metrics = self.ctx.metrics().clone();
        let _span = metrics.span(TimerId::Ingest);
        self.stream()?.collect()
    }

    /// Pull records a batch at a time with bounded memory (text: one read
    /// window; binary: string table plus one read window; both: at most
    /// [`BATCH_RECORDS`] record slots). A path input is opened as
    /// [`records`](Self::records) opens it: a `trace-bytes` ceiling is
    /// checked against the file's length first.
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
            _ => StreamInner::Text(Box::new(TextStreamReader::new(reader, &ctx))),
        };
        Ok(TraceStream {
            inner,
            metrics,
            format,
            read_bytes,
            reported_bytes: 0,
            ctx,
            records_seen: 0,
            batch: Batch::default(),
            failure: None,
            ended: false,
        })
    }
}

/// Open a file for chunked ingest, pre-checking the byte ceiling against
/// its length so an oversized file is rejected without reading a byte.
///
/// Path ingest is O(window) resident by construction: the file feeds the
/// same windowed readers as reader inputs, so the whole trace is never
/// held in memory (unless [`TraceSource::records`] materializes it).
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
    bytes: Rc<Cell<u64>>,
}

impl<'a> MeteredReader<'a> {
    fn wrap(inner: BoxedReader<'a>) -> (BoxedReader<'a>, Rc<Cell<u64>>) {
        let bytes = Rc::new(Cell::new(0));
        (
            Box::new(MeteredReader {
                inner,
                bytes: Rc::clone(&bytes),
            }),
            bytes,
        )
    }
}

impl Read for MeteredReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.set(self.bytes.get() + n as u64);
        Ok(n)
    }
}

/// Records [`TraceStream::next_batch`] decodes and lends at most at once.
/// Enough to keep the decode loop and the consumer's loop (the engine fold)
/// each hot in turn, while the slots stay small: each slot keeps its
/// operand buffer from batch to batch, so a stream holds about 30 KiB of
/// them. On the cg traces, batches of 128 and 256 records ran equally
/// fast and 64 ran slower.
pub const BATCH_RECORDS: usize = 128;

/// The pull stream behind [`TraceSource::stream`]. Yields records until
/// the first error, then fuses.
///
/// The format's reader decodes up to [`BATCH_RECORDS`] records at a time,
/// in one loop, into a batch of reused slots, checking the session's
/// ingest ceilings after each record. [`next_batch`](Self::next_batch)
/// lends the batch as a slice; [`next_record`](Self::next_record) lends its
/// records one by one, and the [`Iterator`] impl hands over copies. A
/// decode error, an I/O error or a crossed ceiling ends the batch at the
/// record where it happened: the records before it come first, the error
/// on the next call.
///
/// The ingest counters book only the records the consumer took, when it
/// moves on to the next batch or drops the stream; a consumer that stops
/// inside a batch says where with [`stop_after`](Self::stop_after).
pub struct TraceStream<'a> {
    inner: StreamInner<'a>,
    metrics: Metrics,
    format: TraceFormat,
    read_bytes: Rc<Cell<u64>>,
    /// Bytes the ingest counters have booked.
    reported_bytes: u64,
    /// The session whose limits this stream enforces per record.
    ctx: AnalysisCtx,
    /// Records decoded so far: what the `trace-records` ceiling counts.
    records_seen: u64,
    batch: Batch,
    /// The failure that ended the batch, delivered after its records.
    failure: Option<TraceReadError>,
    /// No record follows the batch: the input ended, an error was
    /// delivered, or the consumer stopped.
    ended: bool,
}

enum StreamInner<'a> {
    // Boxed: the text decoder's symbol cache dwarfs the binary variant.
    Text(Box<TextStreamReader<BoxedReader<'a>>>),
    Binary(BinaryStreamReader<BoxedReader<'a>>),
}

/// The stream's record slots: `slots[..filled]` hold the batch last
/// decoded, `slots[..taken]` the part the consumer took.
#[derive(Default)]
struct Batch {
    slots: Vec<Record>,
    /// The ingest byte count after each record: the decode offset for
    /// binary, the bytes read so far for text.
    marks: Vec<u64>,
    filled: usize,
    taken: usize,
    /// Where the slice [`TraceStream::next_batch`] lent last starts.
    lent: usize,
}

/// How a batch's decode loop ended.
enum Fill {
    /// Every slot holds a record; more may follow.
    Full,
    /// The input ended.
    End,
    /// A decode error, an I/O error or a crossed ceiling.
    Failed(TraceReadError),
}

impl Batch {
    /// The decode loop: records from `step` into the slots until the batch
    /// is full, the input ends or a step fails. The session's ingest
    /// ceilings are checked right after each record (`seen` counts the
    /// stream's records), and a crossed one replaces that record with its
    /// error.
    #[inline]
    fn fill<D>(
        &mut self,
        reader: &mut D,
        mut step: impl FnMut(&mut D, &mut Record) -> Option<Result<(), TraceReadError>>,
        bytes: impl Fn(&D) -> u64,
        ctx: &AnalysisCtx,
        seen: &mut u64,
    ) -> Fill {
        let mut n = 0;
        let stop = loop {
            if n == BATCH_RECORDS {
                break Fill::Full;
            }
            if n == self.slots.len() {
                self.slots.push(Record::blank());
                self.marks.push(0);
            }
            match step(reader, &mut self.slots[n]) {
                None => break Fill::End,
                Some(Err(e)) => break Fill::Failed(unsmuggle_limit(e)),
                Some(Ok(())) => {
                    let at = bytes(reader);
                    *seen += 1;
                    if let Err(limit) = check_ingest_limits(ctx, *seen, at) {
                        break Fill::Failed(TraceReadError::Resource(limit));
                    }
                    self.marks[n] = at;
                    n += 1;
                }
            }
        };
        self.filled = n;
        stop
    }
}

impl TraceStream<'_> {
    /// True when the underlying trace is binary.
    pub fn is_binary(&self) -> bool {
        matches!(self.inner, StreamInner::Binary(_))
    }

    /// The next batch: up to [`BATCH_RECORDS`] records, lent until the next
    /// call (or the rest of a batch [`next_record`](Self::next_record) began).
    /// Records before a failure come in one batch, the failure on the next
    /// call; `None` after the end of the input and after an error.
    pub fn next_batch(&mut self) -> Option<Result<&[Record], TraceReadError>> {
        if let Err(e) = self.ensure()? {
            return Some(Err(e));
        }
        let b = &mut self.batch;
        b.lent = b.taken;
        b.taken = b.filled;
        Some(Ok(&b.slots[b.lent..b.filled]))
    }

    /// The next record, lent from the batch until the next call.
    pub fn next_record(&mut self) -> Option<Result<&Record, TraceReadError>> {
        if let Err(e) = self.ensure()? {
            return Some(Err(e));
        }
        let b = &mut self.batch;
        b.taken += 1;
        Some(Ok(&b.slots[b.taken - 1]))
    }

    /// End the stream after the first `n` records of the slice
    /// [`next_batch`](Self::next_batch) lent last, for a consumer that stops
    /// inside it: the ingest counters book the records up to there and no
    /// more, and the stream yields nothing further.
    pub fn stop_after(&mut self, n: usize) {
        let b = &mut self.batch;
        b.taken = (b.lent + n).min(b.filled);
        b.filled = b.taken;
        self.failure = None;
        self.ended = true;
    }

    /// Make the batch hold a record the consumer has not taken: decode the
    /// next batch once this one is taken, or deliver the failure that ended
    /// it. `None` at the end of the stream.
    fn ensure(&mut self) -> Option<Result<(), TraceReadError>> {
        if self.batch.taken < self.batch.filled {
            return Some(Ok(()));
        }
        self.refill();
        if self.batch.filled > 0 {
            return Some(Ok(()));
        }
        let e = self.failure.take()?;
        note_error(&self.metrics, &e);
        self.ended = true;
        Some(Err(e))
    }

    /// Book the batch taken so far, then decode the next one unless the
    /// stream ended or a failure waits for delivery.
    fn refill(&mut self) {
        self.book();
        let b = &mut self.batch;
        (b.filled, b.taken, b.lent) = (0, 0, 0);
        if self.ended || self.failure.is_some() {
            return;
        }
        let (ctx, seen) = (&self.ctx, &mut self.records_seen);
        let stop = match &mut self.inner {
            StreamInner::Text(r) => {
                let read = &self.read_bytes;
                b.fill(
                    &mut **r,
                    |r, slot| r.advance(slot),
                    |_| read.get(),
                    ctx,
                    seen,
                )
            }
            // The decode offset, not the bytes the window has read ahead:
            // ingest books exactly the bytes of the records delivered.
            StreamInner::Binary(r) => {
                b.fill(r, |r, slot| r.advance(slot), |r| r.offset(), ctx, seen)
            }
        };
        match stop {
            Fill::Full => {}
            Fill::End => self.ended = true,
            Fill::Failed(e) => self.failure = Some(e),
        }
    }

    /// Book the records taken from the batch on the ingest counters: once
    /// per batch, as the next one is decoded or the stream drops.
    fn book(&mut self) {
        let b = &self.batch;
        if b.taken > 0 && self.metrics.is_enabled() {
            let bytes = b.marks[b.taken - 1];
            let records = b.taken as u64;
            note_ingest(
                &self.metrics,
                self.format,
                bytes - self.reported_bytes,
                records,
            );
            self.reported_bytes = bytes;
        }
    }
}

impl Drop for TraceStream<'_> {
    fn drop(&mut self) {
        self.book();
    }
}

impl Iterator for TraceStream<'_> {
    type Item = Result<Record, TraceReadError>;

    /// The lending step, handing over a copy of the slot: the copy's
    /// operand buffer is exactly its size, and the slot keeps its own.
    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_record()?.cloned())
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
    fn every_front_door_reports_the_first_bad_line() {
        // A bad header on line 2 and an invalid byte on line 4: the first
        // bad line wins, through every input kind and both output shapes.
        let bytes: &[u8] =
            b"0,3,foo,6:1,11,27,215,\n0,zz,foo,6:1,11,27,216,\n1,64,5,1,p,\n1,64,\xff,1,p,\n";
        let dir = std::env::temp_dir().join(format!("autocheck-first-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.txt");
        std::fs::write(&path, bytes).unwrap();
        let ctx = AnalysisCtx::session();
        let sources = || {
            [
                ("bytes", TraceSource::from_bytes(bytes)),
                ("reader", TraceSource::from_reader(bytes)),
                ("path", TraceSource::from_path(&path)),
            ]
        };
        let errors = sources()
            .into_iter()
            .map(|(name, s)| (name, "records", s.ctx(&ctx).records().unwrap_err()))
            .chain(sources().into_iter().map(|(name, s)| {
                let mut stream = s.ctx(&ctx).stream().unwrap();
                (name, "stream", stream.find_map(Result::err).unwrap())
            }));
        for (input, output, err) in errors {
            assert_eq!(
                err.to_string(),
                "trace parse error at line 2: bad src line `zz`",
                "{output} from {input}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streams_deliver_every_record_before_a_bad_header() {
        // Record k is delivered once header k + 1 parses: all 199 records
        // before the last good one, then the error, not 0 records because
        // the failing line shares their read.
        let ctx = AnalysisCtx::session();
        let mut text = text_of(&ctx, &synth(&ctx, 200));
        text.push_str("0,zz,broken,1:1,0,27,9,\n");
        let metrics = AnalysisCtx::session().with_metrics(Metrics::enabled());
        let items: Vec<_> = TraceSource::from_str(&text)
            .ctx(&metrics)
            .stream()
            .unwrap()
            .collect();
        assert_eq!(items.len(), 200);
        assert!(items[..199].iter().all(Result::is_ok));
        let Err(TraceReadError::Parse(e)) = &items[199] else {
            panic!("expected a parse error, got {:?}", items[199]);
        };
        assert_eq!((e.line, e.message.as_str()), (601, "bad src line `zz`"));
        let m = metrics.metrics();
        assert_eq!(m.counter(CounterId::IngestRecordsText), 199);
        assert_eq!(m.counter(CounterId::ParseErrors), 1);
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
            TraceSource::from_reader(text.as_bytes()).ctx(&ctx),
        ] {
            let err = source.records().unwrap_err();
            let TraceReadError::Parse(e) = err else {
                panic!("expected a parse error");
            };
            assert_eq!(e.line, bad_line);
        }
    }
}
