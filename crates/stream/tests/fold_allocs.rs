//! The engine fold allocates nothing per record: with the records of a
//! loop that calls a function each iteration materialized first, pushing
//! four times as many iterations through an `Engine` costs the same
//! allocations, in both occurrence-collection modes. And its dense
//! per-iteration windows stay within the engine-wide cap however many
//! variables each touch one far element.
//!
//! The counting allocator counts per thread, so the tests of this binary
//! may run side by side.

use autocheck_interp::{ExecOptions, Machine, NoHook, VecSink};
use autocheck_stream::stats::{DENSE_SLOTS_PER_ENGINE, DENSE_SLOTS_PER_VAR};
use autocheck_stream::{Collect, Engine, EngineConfig};
use autocheck_trace::record::opcodes;
use autocheck_trace::{AnalysisCtx, Name, OpTag, Operand, Record, TraceValue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed on this thread, and their peak.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

/// Book `delta` live bytes on this thread.
fn book(delta: i64) {
    let _ = LIVE.try_with(|c| {
        let (live, peak) = c.get();
        c.set((live + delta, peak.max(live + delta)));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain per-thread statistics that touch no
// memory the allocator hands out. (`alloc_zeroed` keeps its default, which
// calls `alloc`.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        book(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        book(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(-(layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Restart the peak at the current live bytes; returns them.
fn reset_peak() -> i64 {
    LIVE.with(|c| {
        let (live, _) = c.get();
        c.set((live, live));
        live
    })
}

fn peak() -> i64 {
    LIVE.with(|c| c.get().1)
}

/// A main loop (lines 9–13) that calls `bump` with an array and a scalar
/// each iteration, then reads the array back into an accumulator.
fn looping_calls(iters: u64) -> String {
    format!(
        "void bump(int* p, int k) {{
    p[k % 4] = p[k % 4] + k * 2;
}}
int main() {{
    int a[4]; int sum = 0;
    for (int i = 0; i < 4; i = i + 1) {{
        a[i] = 0;
    }}
    for (int it = 0; it < {iters}; it = it + 1) {{
        bump(a, it);
        int v = a[it % 4];
        sum = sum + v * 3;
    }}
    print(sum);
    return 0;
}}
"
    )
}

/// Allocations made pushing the records of `iters` iterations through an
/// engine, counted across `Engine::push` alone, and the records pushed.
fn allocations_folding(iters: u64, collect: Collect) -> (u64, usize) {
    let module = autocheck_minilang::compile(&looping_calls(iters)).expect("compiles");
    let ctx = AnalysisCtx::session();
    let _guard = ctx.enter();
    let mut sink = VecSink::default();
    Machine::with_ctx(&module, ExecOptions::default(), ctx.clone())
        .run(&mut sink, &mut NoHook)
        .expect("runs");
    let records: Vec<Record> = sink.records;
    let mut cfg = EngineConfig::for_region("main", 9, 13);
    cfg.collect = collect;
    let mut engine = Engine::with_ctx(cfg, &ctx);
    let before = allocations();
    for r in &records {
        engine.push(r).expect("no ceiling");
    }
    let spent = allocations() - before;
    let outcome = engine.finish();
    assert!(outcome.iterations as u64 >= iters, "the region was found");
    (spent, records.len())
}

#[test]
fn folding_a_loop_with_calls_allocates_nothing_per_record() {
    const N: u64 = 500;
    for collect in [Collect::AnyAccess, Collect::Arithmetic] {
        let (small, small_records) = allocations_folding(N, collect);
        let (large, large_records) = allocations_folding(4 * N, collect);
        assert!(large_records > 3 * small_records);
        assert_eq!(
            small, large,
            "{collect:?}: {small} allocations for {small_records} records, \
             {large} for {large_records}"
        );
    }
}

/// One record of `main` at source line 5, inside the region 5–7.
fn record(opcode: u16, dyn_id: u64, operands: Vec<Operand>, result: Option<Operand>) -> Record {
    Record {
        src_line: 5,
        func: autocheck_trace::SymId::intern("main"),
        bb: (5, 1),
        bb_label: autocheck_trace::SymId::intern("1"),
        opcode,
        dyn_id,
        operands,
        result,
    }
}

#[test]
fn many_variables_with_one_far_element_stay_under_the_dense_cap() {
    // Each variable's one element sits at the last dense slot of its
    // window: uncapped, every variable would grow a whole window.
    const VARS: u64 = 256;
    let far = 8 * (DENSE_SLOTS_PER_VAR as u64 - 1);
    let mut records = Vec::new();
    for v in 0..VARS {
        let name = Name::Sym(autocheck_trace::SymId::intern(&format!("far{v}")));
        let base = 0x1000_0000 + v * 0x100_0000;
        let temp = Name::Temp(v as u32);
        let elem = TraceValue::Ptr(base + far);
        records.push(record(
            opcodes::GETELEMENTPTR,
            2 * v,
            vec![Operand::reg(OpTag::Pos(1), 64, TraceValue::Ptr(base), name)],
            Some(Operand::reg(OpTag::Result, 64, elem, temp)),
        ));
        records.push(record(
            opcodes::STORE,
            2 * v + 1,
            vec![
                Operand::imm(OpTag::Pos(1), 64, TraceValue::I(1)),
                Operand::reg(OpTag::Pos(2), 64, elem, temp),
            ],
            None,
        ));
    }
    let mut engine = Engine::new(EngineConfig::for_region("main", 5, 7));
    let before = reset_peak();
    for r in &records {
        engine.push(r).expect("no ceiling");
    }
    let grown = peak() - before;
    assert_eq!(
        engine.live_records(),
        VARS as usize,
        "one live element each"
    );
    let cap = 4 * DENSE_SLOTS_PER_ENGINE as i64;
    let uncapped = 4 * (DENSE_SLOTS_PER_VAR as i64) * VARS as i64;
    assert!(
        grown <= cap + (1 << 20),
        "the fold grew the heap by {grown} bytes; the dense cap is {cap}, uncapped {uncapped}"
    );
    let stats = engine.finish().stats;
    assert_eq!(stats.len(), VARS as usize);
    assert!(stats.values().all(|s| s.written_in_loop && !s.multi_elem));
}
