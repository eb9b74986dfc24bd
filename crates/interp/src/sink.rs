//! Trace sinks: where emitted records go.

use crate::error::ExecError;
use autocheck_trace::{AnalysisCtx, BinaryWriter, Record, TraceWriter};
use std::io::Write;

/// Consumer of emitted trace records.
pub trait TraceSink {
    /// Receive one record, borrowed from the interpreter's one record slot
    /// until the call returns. A sink that keeps records clones them.
    fn record(&mut self, rec: &Record) -> Result<(), ExecError>;

    /// True when the sink wants records at all. The interpreter skips record
    /// *construction* entirely when this is false, so untraced runs (the
    /// checkpoint-validation executions) pay nothing.
    fn enabled(&self) -> bool {
        true
    }
}

/// Discards everything; `enabled()` is false so emission is skipped.
#[derive(Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _rec: &Record) -> Result<(), ExecError> {
        Ok(())
    }

    fn enabled(&self) -> bool {
        false
    }
}

/// Collects records in memory — used by tests and the in-process pipeline.
/// Each record is cloned out of the interpreter's slot.
#[derive(Default)]
pub struct VecSink {
    /// The collected records.
    pub records: Vec<Record>,
}

impl TraceSink for VecSink {
    fn record(&mut self, rec: &Record) -> Result<(), ExecError> {
        self.records.push(rec.clone());
        Ok(())
    }
}

/// Counts records without keeping them.
#[derive(Default)]
pub struct CountSink {
    /// Number of records seen.
    pub count: u64,
}

impl TraceSink for CountSink {
    fn record(&mut self, _rec: &Record) -> Result<(), ExecError> {
        self.count += 1;
        Ok(())
    }
}

/// Push-based adapter: lends every record to a closure. This is the
/// interpreter→analyzer direct path — a streaming analysis session can sit
/// on the other side of the closure, so a program is traced and analyzed
/// with **no intermediate trace file or record buffer at all**.
///
/// ```ignore
/// let mut session = analyzer.session();
/// let mut sink = FnSink::new(|rec: &Record| {
///     session.push(rec).map_err(|e| ExecError::Sink { message: e.to_string() })
/// });
/// machine.run(&mut sink, &mut NoHook)?;
/// let report = session.finish();
/// ```
pub struct FnSink<F: FnMut(&Record) -> Result<(), ExecError>> {
    f: F,
}

impl<F: FnMut(&Record) -> Result<(), ExecError>> FnSink<F> {
    /// Wrap `f`.
    pub fn new(f: F) -> FnSink<F> {
        FnSink { f }
    }
}

impl<F: FnMut(&Record) -> Result<(), ExecError>> TraceSink for FnSink<F> {
    fn record(&mut self, rec: &Record) -> Result<(), ExecError> {
        (self.f)(rec)
    }
}

/// Streams the textual trace format into any [`Write`] — the equivalent of
/// LLVM-Tracer's trace file. Dropped without [`finish`](Self::finish), it
/// hands every record written so far to `out`, as a `BufWriter` does.
pub struct WriterSink<W: Write> {
    writer: TraceWriter<W>,
}

impl<W: Write> WriterSink<W> {
    /// Wrap `out`.
    pub fn new(out: W) -> Self {
        WriterSink {
            writer: TraceWriter::new(out),
        }
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.writer.bytes_written()
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.writer.records_written()
    }

    /// Flush and recover the inner writer.
    pub fn finish(self) -> Result<W, ExecError> {
        self.writer.finish().map_err(|e| ExecError::Sink {
            message: e.to_string(),
        })
    }
}

impl<W: Write> TraceSink for WriterSink<W> {
    fn record(&mut self, rec: &Record) -> Result<(), ExecError> {
        self.writer.write_record(rec).map_err(|e| ExecError::Sink {
            message: e.to_string(),
        })
    }
}

/// Streams the **binary** trace format into any [`Write`] — the compact
/// counterpart of [`WriterSink`]. Memory stays bounded whatever the trace
/// length: records go through one 64 KiB buffer into an unlinked temporary
/// file, and [`finish`](Self::finish) writes the header and string table,
/// then copies the records in (see [`BinaryWriter`]). Nothing reaches
/// `out` before `finish`: the header carries the record count and the
/// string table, which are known only at the end.
pub struct BinarySink<W: Write> {
    writer: BinaryWriter<W>,
}

impl<W: Write> BinarySink<W> {
    /// Wrap `out`, resolving symbols via the thread-current session.
    pub fn new(out: W) -> Self {
        BinarySink {
            writer: BinaryWriter::new(out),
        }
    }

    /// Wrap `out`, resolving symbols via `ctx`'s session.
    pub fn with_ctx(out: W, ctx: &AnalysisCtx) -> Self {
        BinarySink {
            writer: BinaryWriter::with_ctx(out, ctx),
        }
    }

    /// Records accepted so far (none is in `out` before `finish`).
    pub fn records_written(&self) -> u64 {
        self.writer.records_written()
    }

    /// Bytes the trace would occupy if finished now (header, string table
    /// so far, spilled and buffered records).
    pub fn bytes_written(&self) -> u64 {
        self.writer.bytes_written()
    }

    /// Emit header, string table and records, then recover the inner writer.
    pub fn finish(self) -> Result<W, ExecError> {
        self.writer.finish().map_err(|e| ExecError::Sink {
            message: e.to_string(),
        })
    }
}

impl<W: Write> TraceSink for BinarySink<W> {
    fn record(&mut self, rec: &Record) -> Result<(), ExecError> {
        self.writer.write_record(rec).map_err(|e| ExecError::Sink {
            message: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocheck_trace::SymId;

    fn rec(id: u64) -> Record {
        Record {
            src_line: 1,
            func: SymId::intern("main"),
            bb: (1, 1),
            bb_label: SymId::intern("0"),
            opcode: 2,
            dyn_id: id,
            operands: vec![],
            result: None,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
    }

    #[test]
    fn vec_sink_collects() {
        let mut s = VecSink::default();
        s.record(&rec(0)).unwrap();
        s.record(&rec(1)).unwrap();
        assert_eq!(s.records.len(), 2);
        assert!(s.enabled());
    }

    #[test]
    fn count_sink_counts() {
        let mut s = CountSink::default();
        for i in 0..5 {
            s.record(&rec(i)).unwrap();
        }
        assert_eq!(s.count, 5);
    }

    #[test]
    fn fn_sink_forwards_records_and_errors() {
        let mut ids = Vec::new();
        let mut s = FnSink::new(|r: &Record| {
            if r.dyn_id >= 2 {
                return Err(ExecError::Sink {
                    message: "full".into(),
                });
            }
            ids.push(r.dyn_id);
            Ok(())
        });
        s.record(&rec(0)).unwrap();
        s.record(&rec(1)).unwrap();
        assert!(s.record(&rec(2)).is_err());
        assert_eq!(ids, vec![0, 1]);
        assert!(FnSink::new(|_| Ok(())).enabled());
    }

    #[test]
    fn binary_sink_produces_parsable_binary() {
        let mut s = BinarySink::new(Vec::new());
        s.record(&rec(0)).unwrap();
        s.record(&rec(1)).unwrap();
        assert_eq!(s.records_written(), 2);
        let bytes = s.finish().unwrap();
        assert!(autocheck_trace::binary::is_binary(&bytes));
        let parsed = autocheck_trace::TraceSource::from_bytes(&bytes)
            .records()
            .unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].dyn_id, 1);
    }

    #[test]
    fn binary_and_writer_sinks_agree_on_records() {
        let mut text = WriterSink::new(Vec::new());
        let mut bin = BinarySink::new(Vec::new());
        for i in 0..4 {
            text.record(&rec(i)).unwrap();
            bin.record(&rec(i)).unwrap();
        }
        let from_text = autocheck_trace::TraceSource::from_bytes(&text.finish().unwrap())
            .records()
            .unwrap();
        let from_bin = autocheck_trace::TraceSource::from_bytes(&bin.finish().unwrap())
            .records()
            .unwrap();
        assert_eq!(from_text, from_bin);
    }

    #[test]
    fn writer_sink_produces_parsable_text() {
        let mut s = WriterSink::new(Vec::new());
        s.record(&rec(0)).unwrap();
        s.record(&rec(1)).unwrap();
        assert_eq!(s.records_written(), 2);
        let bytes = s.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let parsed = autocheck_trace::TraceSource::from_str(&text)
            .records()
            .unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].dyn_id, 1);
    }
}
