//! Decode-ahead ingest pipeline — overlapping trace I/O and decode with
//! the analysis fold.
//!
//! The serial ingest paths (`crate::parallel::parse_windowed_core`, the
//! streaming [`crate::TraceSource::stream`]) interleave reading, decoding
//! and consuming on one thread: the DDG/MLI/stats fold only runs after the
//! bytes that feed it have been read *and* parsed. This module splits those
//! stages onto background threads so they overlap:
//!
//! ```text
//!   text:    [reader thread] --windows--> [decoder thread] --batches--+
//!              pooled buffers               parse_chunks              |
//!   binary:  [producer thread: BinaryStreamReader] ------batches-----+
//!                                                                    v
//!                                       [consumer: BatchStream::next_batch]
//! ```
//!
//! Invariants the pipeline preserves relative to the serial paths:
//!
//! * **Bounded memory.** Window buffers cycle through a fixed pool of
//!   `depth + 2` buffers (reader-owned, decoder-owned, plus the channel's
//!   slack); record batches travel through a `sync_channel` bounded at
//!   `depth`. Nothing ever holds the whole trace.
//! * **Typed errors.** Producer-side `io::Error`s, parse errors, binary
//!   framing errors, smuggled [`ResourceExceeded`](crate::ResourceExceeded)
//!   violations, and even producer panics all surface to the consumer as
//!   ordinary [`TraceReadError`] values in stream order — never a poisoned
//!   channel or a propagated panic.
//! * **Identical cut points.** The text reader cuts windows at exactly the
//!   block-header boundaries the serial windowed parser uses, and rebases
//!   error lines the same way, so errors and records are byte-for-byte the
//!   ones serial ingest produces.
//! * **Backpressure respects limits.** Producers read through the same
//!   [`ByteLimitReader`](crate::TraceSource) stack as serial ingest, and
//!   the consumer re-checks the session's ingest ceilings per batch, so a
//!   violation surfaces within one batch of crossing the line.

use crate::binary::BinaryStreamReader;
use crate::ctx::AnalysisCtx;
use crate::parallel::{last_block_header, offset_lines, parse_chunks};
use crate::reader::{utf8_text, TraceReadError};
use crate::record::Record;
use crate::source::{check_ingest_limits, unsmuggle_limit, TraceFormat};
use autocheck_obs::{GaugeId, Metrics, TimerId};
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Records per batch the binary producer hands downstream. Small enough to
/// keep the consumer busy early, large enough to amortize channel traffic.
const BINARY_BATCH_RECORDS: usize = 4096;

/// Resolve an overlap-depth request: `0` means "auto" — serial on
/// single-core hosts (a pipeline would only add handoffs there), otherwise
/// up to four in-flight batches, capped by the core count. Any explicit
/// request passes through: `1` is the serial path, `n >= 2` always builds
/// the pipeline (even on one core — parity tests rely on that).
pub fn resolve_overlap_depth(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores <= 1 {
        1
    } else {
        cores.min(4)
    }
}

/// How an ingest error surfaced, for the wrapper's counter bookkeeping
/// (mirrors what the serial paths count on the same failure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum IngestErrorClass {
    /// Text parse or binary framing error → `parse.errors`.
    Parse,
    /// A resource ceiling tripped → `limits.exceeded`.
    Resource,
    /// Plain I/O failure (no counter, same as serial).
    Io,
}

fn classify(e: &TraceReadError) -> IngestErrorClass {
    match e {
        TraceReadError::Parse(_) | TraceReadError::Binary(_) => IngestErrorClass::Parse,
        TraceReadError::Resource(_) => IngestErrorClass::Resource,
        TraceReadError::Io(_) => IngestErrorClass::Io,
    }
}

/// What the pipeline delivered, reported to the caller after the consumer
/// returns so it can book the same ingest counters the serial paths book.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IngestSummary {
    /// Records delivered to the consumer (across all batches).
    pub records: u64,
    /// The ingest byte count as of the last delivered batch — the figure
    /// serial streaming ingest would have booked by its last record.
    pub bytes_at_last_batch: u64,
    /// Set when the consumer was handed an error (even if it swallowed it).
    pub error: Option<IngestErrorClass>,
}

/// One decoded-ahead batch plus the ingest byte count when its last
/// record was produced.
type BatchMsg = Result<(Vec<Record>, u64), TraceReadError>;

/// The consumer's view of a decode-ahead pipeline: pull record batches
/// with [`next_batch`](BatchStream::next_batch) until `None`.
///
/// The stream fuses after the first error and enforces the session's
/// ingest ceilings per batch, exactly as [`crate::TraceStream`] does per
/// record.
pub struct BatchStream {
    rx: Option<Receiver<BatchMsg>>,
    metrics: Metrics,
    ctx: AnalysisCtx,
    read_bytes: Arc<AtomicU64>,
    records_seen: u64,
    last_bytes: u64,
    error: Option<IngestErrorClass>,
    done: bool,
}

impl BatchStream {
    /// Next decoded batch, in trace order. Blocks while the producers are
    /// behind (the wait is metered as `ingest.queue_wait`); returns `None`
    /// once the trace is exhausted or after the first error.
    pub fn next_batch(&mut self) -> Option<Result<Vec<Record>, TraceReadError>> {
        if self.done {
            return None;
        }
        let Some(rx) = &self.rx else {
            self.done = true;
            return None;
        };
        let item = {
            let _wait = self.metrics.span(TimerId::IngestQueueWait);
            rx.recv()
        };
        let Ok(item) = item else {
            // Producers gone with no error in flight: clean end of trace.
            self.done = true;
            return None;
        };
        self.metrics.gauge_sub(GaugeId::IngestDepth, 1);
        match item {
            Ok((batch, bytes)) => {
                self.records_seen += batch.len() as u64;
                self.last_bytes = bytes;
                // Per-batch limit enforcement: same ceilings, same typed
                // error as the serial paths, within one batch of the line.
                match check_ingest_limits(
                    &self.ctx,
                    self.records_seen,
                    self.read_bytes.load(Ordering::Relaxed),
                ) {
                    Ok(()) => Some(Ok(batch)),
                    Err(limit) => {
                        self.done = true;
                        self.error = Some(IngestErrorClass::Resource);
                        Some(Err(TraceReadError::Resource(limit)))
                    }
                }
            }
            Err(e) => {
                let e = unsmuggle_limit(e);
                self.done = true;
                self.error = Some(classify(&e));
                Some(Err(e))
            }
        }
    }

    /// Records delivered so far.
    pub fn records_seen(&self) -> u64 {
        self.records_seen
    }

    fn summary(&self) -> IngestSummary {
        IngestSummary {
            records: self.records_seen,
            bytes_at_last_batch: self.last_bytes,
            error: self.error,
        }
    }
}

/// Run `consume` against a decode-ahead pipeline over `reader`.
///
/// The reader must already be wrapped in the caller's metering/limit
/// stack (`read_bytes` is the meter's counter). Producer threads live in
/// a [`std::thread::scope`], so they are joined — and their buffers freed
/// — before this returns, even if `consume` exits early or panics
/// (dropping the consumer's receiver unblocks any producer parked on the
/// bounded channel).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pipeline<'env, T>(
    reader: Box<dyn Read + Send + 'env>,
    format: TraceFormat,
    threads: usize,
    window_bytes: usize,
    depth: usize,
    ctx: &AnalysisCtx,
    read_bytes: &Arc<AtomicU64>,
    consume: impl FnOnce(&mut BatchStream) -> T,
) -> (T, IngestSummary) {
    let depth = depth.max(1);
    let metrics = ctx.metrics().clone();
    let (batch_tx, batch_rx) = sync_channel::<BatchMsg>(depth);

    std::thread::scope(|scope| {
        // The stream lives inside the scope so an unwinding consumer drops
        // the receiver, which unblocks (and thus terminates) the producers
        // before the scope joins them — no deadlock on consumer panic.
        let mut stream = BatchStream {
            rx: Some(batch_rx),
            metrics: metrics.clone(),
            ctx: ctx.clone(),
            read_bytes: Arc::clone(read_bytes),
            records_seen: 0,
            last_bytes: 0,
            error: None,
            done: false,
        };

        match format {
            TraceFormat::Binary => {
                let ctx = ctx.clone();
                let metrics = metrics.clone();
                scope.spawn(move || {
                    let tx = batch_tx;
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        binary_producer(reader, &ctx, &tx, &metrics)
                    }));
                    if out.is_err() {
                        send_msg(&tx, &metrics, Err(panic_error()));
                    }
                });
            }
            _ => {
                // Stage 1: raw I/O into pooled window buffers, cut at block
                // boundaries. Stage 2: UTF-8 + parallel parse, recycling
                // each buffer back to the pool.
                let (win_tx, win_rx) = sync_channel::<Result<TextWindow, TraceReadError>>(depth);
                let (pool_tx, pool_rx) = sync_channel::<Vec<u8>>(depth + 2);
                for _ in 0..depth + 2 {
                    // Seeded empty: each buffer grows to window size on
                    // first use and keeps that capacity for its whole life.
                    pool_tx
                        .send(Vec::new())
                        .expect("pool channel sized for seed");
                }
                {
                    let metrics = metrics.clone();
                    let read_bytes = Arc::clone(read_bytes);
                    scope.spawn(move || {
                        let tx = win_tx;
                        let out = catch_unwind(AssertUnwindSafe(|| {
                            text_reader_loop(
                                reader,
                                &pool_rx,
                                &tx,
                                window_bytes,
                                &metrics,
                                &read_bytes,
                            )
                        }));
                        match out {
                            Ok(Ok(())) => {}
                            Ok(Err(e)) => {
                                let _ = tx.send(Err(e));
                            }
                            Err(_) => {
                                let _ = tx.send(Err(panic_error()));
                            }
                        }
                    });
                }
                {
                    let ctx = ctx.clone();
                    let metrics = metrics.clone();
                    scope.spawn(move || {
                        let tx = batch_tx;
                        let out = catch_unwind(AssertUnwindSafe(|| {
                            text_decoder_loop(&win_rx, &pool_tx, &tx, threads, &ctx, &metrics)
                        }));
                        if out.is_err() {
                            send_msg(&tx, &metrics, Err(panic_error()));
                        }
                    });
                }
            }
        }

        let out = consume(&mut stream);
        let summary = stream.summary();
        (out, summary)
    })
}

/// The error a producer panic is converted into: a plain typed I/O error,
/// indistinguishable in shape from any other ingest failure.
fn panic_error() -> TraceReadError {
    TraceReadError::Io(std::io::Error::other("trace ingest worker panicked"))
}

/// Send one batch message, keeping the `ingest.depth` gauge equal to the
/// number of in-flight messages (add before send; undo if the consumer is
/// gone). Returns false when the consumer hung up.
fn send_msg(tx: &SyncSender<BatchMsg>, metrics: &Metrics, msg: BatchMsg) -> bool {
    metrics.gauge_add(GaugeId::IngestDepth, 1);
    if tx.send(msg).is_err() {
        metrics.gauge_sub(GaugeId::IngestDepth, 1);
        return false;
    }
    true
}

/// One complete-blocks window of trace text plus the newline count of
/// everything before it (for absolute error lines, as in serial ingest).
struct TextWindow {
    buf: Vec<u8>,
    lines_before: u64,
    /// Metered bytes when this window was cut.
    bytes: u64,
}

/// Stage-1 body: fill pooled buffers from the reader, cut at the last
/// block header (identical logic to the serial windowed parser), pass
/// complete-block windows downstream and carry the partial tail.
///
/// Returns `Ok(())` both on clean EOF and when the decoder hung up; I/O
/// errors bubble up for the caller to forward downstream.
fn text_reader_loop(
    mut reader: impl Read,
    pool_rx: &Receiver<Vec<u8>>,
    win_tx: &SyncSender<Result<TextWindow, TraceReadError>>,
    window_bytes: usize,
    metrics: &Metrics,
    read_bytes: &AtomicU64,
) -> Result<(), TraceReadError> {
    let window_bytes = window_bytes.max(64);
    let mut chunk = vec![0u8; window_bytes.clamp(4096, 1 << 20)];
    // Partial tail of the last window: always a single incomplete block,
    // so it never contains an interior cut point.
    let mut carry: Vec<u8> = Vec::new();
    let mut lines_done = 0u64;
    let mut eof = false;
    while !eof {
        let Ok(mut buf) = pool_rx.recv() else {
            // Decoder gone (error or consumer hangup): stop reading.
            return Ok(());
        };
        buf.clear();
        buf.extend_from_slice(&carry);
        carry.clear();
        let mut scanned = 0usize;
        let mut target = window_bytes;
        loop {
            while buf.len() < target && !eof {
                let n = reader.read(&mut chunk)?;
                if n == 0 {
                    eof = true;
                } else {
                    buf.extend_from_slice(&chunk[..n]);
                }
            }
            let cut = if eof {
                // Final window: ship everything that's left.
                if buf.is_empty() {
                    return Ok(());
                }
                buf.len()
            } else {
                let from = scanned.saturating_sub(2);
                match last_block_header(&buf[from..]).map(|c| c + from) {
                    Some(cut) if cut > 0 => cut,
                    _ => {
                        // No interior split yet — grow the lookahead, as
                        // the serial windowed parser does.
                        scanned = buf.len();
                        target = buf.len() + window_bytes;
                        continue;
                    }
                }
            };
            carry.extend_from_slice(&buf[cut..]);
            buf.truncate(cut);
            let lines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
            metrics.gauge_add(GaugeId::IngestBufferBytes, buf.capacity() as u64);
            let window = TextWindow {
                buf,
                lines_before: lines_done,
                bytes: read_bytes.load(Ordering::Relaxed),
            };
            lines_done += lines;
            if win_tx.send(Ok(window)).is_err() {
                return Ok(());
            }
            break;
        }
    }
    Ok(())
}

/// Stage-2 body: parse each window (same UTF-8 validation, parallel block
/// parse, and error-line rebasing as serial ingest), recycle the buffer,
/// and forward record batches. Exits after forwarding the first error.
fn text_decoder_loop(
    win_rx: &Receiver<Result<TextWindow, TraceReadError>>,
    pool_tx: &SyncSender<Vec<u8>>,
    batch_tx: &SyncSender<BatchMsg>,
    threads: usize,
    ctx: &AnalysisCtx,
    metrics: &Metrics,
) {
    while let Ok(item) = win_rx.recv() {
        let window = match item {
            Ok(w) => w,
            Err(e) => {
                send_msg(batch_tx, metrics, Err(e));
                return;
            }
        };
        let parsed = utf8_text(&window.buf)
            .map_err(|e| offset_lines(e, window.lines_before))
            .and_then(|text| {
                parse_chunks(text, threads, ctx).map_err(|e| offset_lines(e, window.lines_before))
            });
        // Recycle the buffer before shipping the batch: the reader can
        // start on the next window while the consumer folds this one.
        metrics.gauge_sub(GaugeId::IngestBufferBytes, window.buf.capacity() as u64);
        let mut buf = window.buf;
        buf.clear();
        let _ = pool_tx.try_send(buf);
        match parsed {
            Ok(records) => {
                if !send_msg(batch_tx, metrics, Ok((records, window.bytes))) {
                    return;
                }
            }
            Err(e) => {
                send_msg(batch_tx, metrics, Err(e));
                return;
            }
        }
    }
}

/// Binary producer: the framing layer can't be cut without parsing, so one
/// thread runs the incremental [`BinaryStreamReader`] and batches records.
/// Decode still overlaps the consumer's fold, which is where binary ingest
/// time goes (the record decode, not the raw I/O).
fn binary_producer(
    reader: impl Read,
    ctx: &AnalysisCtx,
    batch_tx: &SyncSender<BatchMsg>,
    metrics: &Metrics,
) {
    let mut stream = match BinaryStreamReader::open(reader, ctx) {
        Ok(s) => s,
        Err(e) => {
            send_msg(batch_tx, metrics, Err(e));
            return;
        }
    };
    let mut batch: Vec<Record> = Vec::with_capacity(BINARY_BATCH_RECORDS);
    // The decode offset as of the last record pulled: the bytes of the
    // records delivered, excluding the footer and the window's read-ahead,
    // exactly what serial streaming ingest books by its last record.
    let mut bytes_at_last = 0u64;
    loop {
        match stream.next() {
            Some(Ok(record)) => {
                batch.push(record);
                bytes_at_last = stream.offset();
                if batch.len() >= BINARY_BATCH_RECORDS {
                    let full =
                        std::mem::replace(&mut batch, Vec::with_capacity(BINARY_BATCH_RECORDS));
                    if !send_msg(batch_tx, metrics, Ok((full, bytes_at_last))) {
                        return;
                    }
                }
            }
            Some(Err(e)) => {
                // Records decoded before the error still reach the
                // consumer, exactly as the serial stream yields them.
                if !batch.is_empty() && !send_msg(batch_tx, metrics, Ok((batch, bytes_at_last))) {
                    return;
                }
                send_msg(batch_tx, metrics, Err(e));
                return;
            }
            None => {
                if !batch.is_empty() {
                    send_msg(batch_tx, metrics, Ok((batch, bytes_at_last)));
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceSource;

    #[test]
    fn resolve_depth_auto_and_passthrough() {
        let auto = resolve_overlap_depth(0);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores <= 1 {
            assert_eq!(auto, 1, "single-core auto short-circuits to serial");
        } else {
            assert!((2..=4).contains(&auto), "multi-core auto pipelines");
            assert!(auto <= cores);
        }
        assert_eq!(resolve_overlap_depth(1), 1);
        assert_eq!(resolve_overlap_depth(2), 2);
        assert_eq!(resolve_overlap_depth(64), 64);
    }

    #[test]
    fn classify_matches_serial_counters() {
        let io = TraceReadError::Io(std::io::Error::other("x"));
        assert_eq!(classify(&io), IngestErrorClass::Io);
        let parse = TraceReadError::Parse(crate::ParseError {
            line: 1,
            message: "x".into(),
        });
        assert_eq!(classify(&parse), IngestErrorClass::Parse);
    }

    /// A reader that panics mid-stream: the pipeline must convert it into
    /// a typed error, never propagate the panic to the consumer.
    struct PanicReader {
        served: usize,
        body: Vec<u8>,
    }

    impl Read for PanicReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.served >= self.body.len() {
                panic!("reader exploded");
            }
            let n = buf.len().min(self.body.len() - self.served).min(97);
            buf[..n].copy_from_slice(&self.body[self.served..self.served + n]);
            self.served += n;
            Ok(n)
        }
    }

    fn synth_trace_text(blocks: usize) -> String {
        let mut out = String::new();
        for i in 0..blocks {
            out.push_str(&format!("0,3,foo,6:1,11,27,{i},\n"));
            out.push_str(&format!("1,64,0x{:x},1,p,\n", 0x1000 + i * 8));
            out.push_str(&format!("r,64,{i},1,t{i},\n"));
        }
        out
    }

    #[test]
    fn overlapped_records_match_serial_at_every_depth_both_formats() {
        let text = synth_trace_text(500);
        let ctx = AnalysisCtx::session();
        let serial = TraceSource::from_str(&text).ctx(&ctx).records().unwrap();
        let bin = crate::binary::to_bytes(&serial, &ctx);
        for depth in [2usize, 3, 4, 8] {
            let via_text = TraceSource::from_reader(text.as_bytes())
                .ctx(&ctx)
                .overlap(depth)
                .window(256)
                .records()
                .unwrap();
            assert_eq!(via_text, serial, "text, depth {depth}");
            let via_bin = TraceSource::from_reader(&bin[..])
                .ctx(&ctx)
                .overlap(depth)
                .records()
                .unwrap();
            assert_eq!(via_bin, serial, "binary, depth {depth}");
        }
    }

    #[test]
    fn parse_error_lines_match_serial_under_overlap() {
        let mut text = synth_trace_text(300);
        let bad_line = text.lines().count() as u64 + 1;
        text.push_str("0,zz,broken,1:1,0,27,9,\n");
        let ctx = AnalysisCtx::session();
        for depth in [1usize, 2, 4] {
            let err = TraceSource::from_reader(text.as_bytes())
                .ctx(&ctx)
                .overlap(depth)
                .window(256)
                .records()
                .unwrap_err();
            let TraceReadError::Parse(e) = err else {
                panic!("expected parse error at depth {depth}");
            };
            assert_eq!(e.line, bad_line, "depth {depth}");
        }
    }

    /// A reader that fails with an I/O error after serving a prefix.
    struct FailAfter {
        served: usize,
        body: Vec<u8>,
    }

    impl Read for FailAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.served >= self.body.len() {
                return Err(std::io::Error::other("disk on fire"));
            }
            let n = buf.len().min(self.body.len() - self.served).min(113);
            buf[..n].copy_from_slice(&self.body[self.served..self.served + n]);
            self.served += n;
            Ok(n)
        }
    }

    #[test]
    fn mid_stream_io_errors_stay_typed_under_overlap() {
        let body = synth_trace_text(200).into_bytes();
        for depth in [1usize, 3] {
            let err = TraceSource::from_reader(FailAfter {
                served: 0,
                body: body.clone(),
            })
            .overlap(depth)
            .window(128)
            .records()
            .unwrap_err();
            let TraceReadError::Io(io) = err else {
                panic!("expected io error at depth {depth}");
            };
            assert!(io.to_string().contains("disk on fire"), "depth {depth}");
        }
    }

    #[test]
    fn queue_depth_gauge_stays_within_channel_bound() {
        use autocheck_obs::Metrics;
        let text = synth_trace_text(800);
        let depth = 3usize;
        let ctx = AnalysisCtx::session().with_metrics(Metrics::enabled());
        TraceSource::from_reader(text.as_bytes())
            .ctx(&ctx)
            .overlap(depth)
            .window(256)
            .records()
            .unwrap();
        let (value, peak) = ctx.metrics().gauge(GaugeId::IngestDepth);
        assert_eq!(value, 0, "every sent batch was consumed");
        assert!(peak >= 1, "at least one batch was in flight");
        assert!(
            peak <= (depth + 2) as u64,
            "peak {peak} exceeds channel bound + producer/consumer slack"
        );
    }

    #[test]
    fn path_ingest_stays_chunk_resident_at_every_depth() {
        use autocheck_obs::Metrics;
        // A trace far larger than the lookahead window: if `from_path`
        // materialized the file (or the pipeline allocated per chunk
        // instead of recycling), the buffer gauge would reach file size.
        let text = synth_trace_text(20_000);
        let dir = std::env::temp_dir().join(format!("autocheck-overlap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.trace");
        std::fs::write(&path, &text).unwrap();
        for depth in [1usize, 2, 4] {
            let ctx = AnalysisCtx::session().with_metrics(Metrics::enabled());
            let records = TraceSource::from_path(&path)
                .ctx(&ctx)
                .overlap(depth)
                .window(4096)
                .records()
                .unwrap();
            assert_eq!(records.len(), 20_000);
            let (_, peak) = ctx.metrics().gauge(GaugeId::IngestBufferBytes);
            assert!(peak >= 1, "gauge was populated at depth {depth}");
            assert!(
                (peak as usize) < text.len() / 4,
                "depth {depth}: resident ingest buffers ({peak} B) should stay \
                 far below the {} B trace",
                text.len()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn producer_panic_surfaces_as_typed_error() {
        let body = synth_trace_text(200).into_bytes();
        let err = TraceSource::from_reader(PanicReader { served: 0, body })
            .overlap(3)
            .records()
            .unwrap_err();
        let TraceReadError::Io(io) = err else {
            panic!("expected a typed io error, got {err:?}");
        };
        assert!(io.to_string().contains("panicked"));
    }
}
