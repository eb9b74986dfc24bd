//! The binary writer runs in bounded memory and leaves no file behind.
//!
//! - Its live heap stays under a fixed bound whatever the record count:
//!   records spill from one 64 KiB buffer to a temporary file, so a trace
//!   four times as long peaks at the same heap.
//! - The spill file is unlinked as soon as it is created: none is left in
//!   the temporary directory after `finish`, after a failed write to the
//!   output, or after a drop without `finish`, which writes nothing.
//!
//! The counting allocator counts per thread; the tests hold one lock so
//! that no other test's spill file is in flight while the directory is
//! listed.

use autocheck_trace::{AnalysisCtx, BinaryWriter, Name, OpTag, Operand, Record, TraceValue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::rc::Rc;
use std::sync::Mutex;

struct Counting;

thread_local! {
    /// Bytes allocated and not yet freed on this thread, and their peak.
    static LIVE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn grow(by: u64) {
    let _ = LIVE.try_with(|c| {
        let (live, peak) = c.get();
        c.set((live + by, peak.max(live + by)));
    });
}

fn shrink(by: u64) {
    let _ = LIVE.try_with(|c| {
        let (live, peak) = c.get();
        c.set((live.saturating_sub(by), peak));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain per-thread statistics that touch no
// memory the allocator hands out. (`alloc_zeroed` keeps its default, which
// calls `alloc`.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size() as u64);
        grow(new_size as u64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by every test that writes binary traces.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Write `n` records into `out`, filling one reused record in place, so
/// the test's own heap does not grow with `n`.
fn write_records<W: Write>(w: &mut BinaryWriter<W>, ctx: &AnalysisCtx, n: u64) -> io::Result<()> {
    let (func, label, var) = (ctx.intern("main"), ctx.intern("31"), ctx.intern("sum"));
    let mut r = Record {
        src_line: 12,
        func,
        bb: (12, 5),
        bb_label: label,
        opcode: 27,
        dyn_id: 0,
        operands: vec![
            Operand::reg(OpTag::Pos(1), 64, TraceValue::Ptr(0), Name::Sym(var)),
            Operand::imm(OpTag::Pos(2), 64, TraceValue::F(0.0)),
        ],
        result: Some(Operand::reg(
            OpTag::Result,
            64,
            TraceValue::I(0),
            Name::Temp(0),
        )),
    };
    for i in 0..n {
        r.dyn_id = i;
        r.operands[0].value = TraceValue::Ptr(0x7f00_0000_0000 + 8 * (i % 512));
        r.operands[1].value = TraceValue::F(i as f64 / 7.0);
        r.result.as_mut().unwrap().name = Name::Temp(i as u32);
        w.write_record(&r)?;
    }
    Ok(())
}

/// Peak live heap above the starting level while writing and finishing
/// `n` records into `io::sink()`.
fn peak_heap_writing(n: u64) -> u64 {
    let ctx = AnalysisCtx::session();
    let (base, _) = LIVE.with(Cell::get);
    LIVE.with(|c| c.set((base, base)));
    let mut w = BinaryWriter::with_ctx(io::sink(), &ctx);
    write_records(&mut w, &ctx, n).unwrap();
    assert_eq!(w.records_written(), n);
    w.finish().unwrap();
    let (_, peak) = LIVE.with(Cell::get);
    peak - base
}

#[test]
fn binary_writer_heap_stays_bounded_whatever_the_record_count() {
    let _one = ONE_AT_A_TIME.lock().unwrap();
    const N: u64 = 40_000; // 3.6 MB of records, 55 buffers' worth
    let small = peak_heap_writing(N);
    let large = peak_heap_writing(4 * N);
    // The 64 KiB buffer, the string table and the symbol index.
    const BOUND: u64 = 128 * 1024;
    assert!(
        small < BOUND && large < BOUND,
        "peak heap {small} B for {N} records, {large} B for {}",
        4 * N
    );
    assert!(large <= small + 4096, "{small} B vs {large} B");
}

/// This process's spill files in the temporary directory.
fn spill_files() -> Vec<String> {
    let prefix = format!("autocheck-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

/// A `Write` that keeps what it is given and can be told to fail.
#[derive(Clone, Debug, Default)]
struct Output {
    bytes: Rc<RefCell<Vec<u8>>>,
    fail: bool,
}

impl Write for Output {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.fail {
            return Err(io::Error::other("disk full"));
        }
        self.bytes.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn no_spill_file_outlives_the_writer() {
    let _one = ONE_AT_A_TIME.lock().unwrap();
    let ctx = AnalysisCtx::session();
    // 5,000 records are about 450 KB: several spills.
    let n = 5_000;
    assert_eq!(spill_files(), Vec::<String>::new(), "before");

    let out = Output::default();
    let mut w = BinaryWriter::with_ctx(out.clone(), &ctx);
    write_records(&mut w, &ctx, n).unwrap();
    assert_eq!(spill_files(), Vec::<String>::new(), "while writing");
    let bytes = w.bytes_written();
    w.finish().unwrap();
    assert_eq!(out.bytes.borrow().len() as u64, bytes);
    assert_eq!(spill_files(), Vec::<String>::new(), "after finish");

    let failing = Output {
        fail: true,
        ..Output::default()
    };
    let mut w = BinaryWriter::with_ctx(failing, &ctx);
    write_records(&mut w, &ctx, n).unwrap();
    let e = w.finish().unwrap_err();
    assert_eq!(e.to_string(), "disk full");
    assert_eq!(spill_files(), Vec::<String>::new(), "after a failed write");

    let out = Output::default();
    let mut w = BinaryWriter::with_ctx(out.clone(), &ctx);
    write_records(&mut w, &ctx, n).unwrap();
    drop(w);
    assert!(
        out.bytes.borrow().is_empty(),
        "a dropped writer writes nothing"
    );
    assert_eq!(spill_files(), Vec::<String>::new(), "after a drop");
}
