//! Draining `TraceSource::stream()` through `next_batch()` — the path the
//! engine runs — or `next_record()` allocates nothing per record in either
//! format: the read window, the symbols and the batch's slots with their
//! operand buffers are allocated once, so a trace four times as long costs
//! no more allocations.
//!
//! A counting global allocator sees every allocation in this process, so
//! this binary holds a single test.

use autocheck_trace::{
    binary, writer, AnalysisCtx, Name, OpTag, Operand, Record, TraceSource, TraceValue,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain statistic and touches no memory the
// allocator hands out. (`alloc_zeroed` keeps its default, which calls
// `alloc`.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `n` records over a fixed set of symbols, with zero to four operands, a
/// result on most, and integer, pointer and float values.
fn records(ctx: &AnalysisCtx, n: usize) -> Vec<Record> {
    let funcs = [ctx.intern("main"), ctx.intern("conj_grad")];
    let vars = [ctx.intern("p"), ctx.intern("sum"), ctx.intern("it")];
    let label = ctx.intern("31");
    (0..n)
        .map(|i| {
            let operand = |k: usize| {
                let value = match (i + k) % 3 {
                    0 => TraceValue::I(i as i64 - 7),
                    1 => TraceValue::Ptr(0x7f00_0000_1000 + 8 * i as u64),
                    _ => TraceValue::F(i as f64 / 64.0),
                };
                let name = if k.is_multiple_of(2) {
                    Name::Sym(vars[(i + k) % vars.len()])
                } else {
                    Name::Temp(i as u32)
                };
                Operand::reg(OpTag::Pos(k as u8 + 1), 64, value, name)
            };
            Record {
                src_line: (i % 90) as i32,
                func: funcs[i % 2],
                bb: (20, 27),
                bb_label: label,
                opcode: 27,
                dyn_id: i as u64,
                operands: (0..i % 5).map(operand).collect(),
                result: (i % 4 != 0).then(|| {
                    Operand::reg(
                        OpTag::Result,
                        64,
                        TraceValue::I(i as i64),
                        Name::Temp(i as u32),
                    )
                }),
            }
        })
        .collect()
}

/// Allocations made while opening `input` as a stream and lending every
/// record, a batch at a time or one by one, in a fresh session.
fn allocations_draining(input: &[u8], batches: bool) -> (u64, usize) {
    let ctx = AnalysisCtx::session();
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut stream = TraceSource::from_bytes(input).ctx(&ctx).stream().unwrap();
    let mut records = 0;
    if batches {
        while let Some(batch) = stream.next_batch() {
            records += std::hint::black_box(batch.unwrap()).len();
        }
    } else {
        while let Some(record) = stream.next_record() {
            std::hint::black_box(record.unwrap());
            records += 1;
        }
    }
    drop(stream);
    (ALLOCS.load(Ordering::Relaxed) - before, records)
}

#[test]
fn lending_a_stream_allocates_nothing_per_record() {
    const N: usize = 5_000;
    let ctx = AnalysisCtx::session();
    let (short, long) = (records(&ctx, N), records(&ctx, 4 * N));
    let text = |recs: &[Record]| {
        let _space = ctx.enter();
        writer::to_string(recs).into_bytes()
    };
    for (format, small, large) in [
        ("text", text(&short), text(&long)),
        (
            "binary",
            binary::to_bytes(&short, &ctx),
            binary::to_bytes(&long, &ctx),
        ),
    ] {
        for batches in [true, false] {
            let (a_small, n_small) = allocations_draining(&small, batches);
            let (a_large, n_large) = allocations_draining(&large, batches);
            assert_eq!((n_small, n_large), (N, 4 * N), "{format}");
            // The same windows, symbols and slots either way; a few spare
            // allocations cover a larger operand buffer or window growth.
            assert!(
                a_large <= a_small + 8,
                "{format}, batches {batches}: {a_small} allocations for {N} records, \
                 {a_large} for {}",
                4 * N
            );
        }
    }
}
