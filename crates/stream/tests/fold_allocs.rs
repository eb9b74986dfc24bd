//! The engine fold allocates nothing per record: with the records of a
//! loop that calls a function each iteration materialized first, pushing
//! four times as many iterations through an `Engine` costs the same
//! allocations, in both occurrence-collection modes.
//!
//! The counting allocator counts per thread, so the tests of this binary
//! may run side by side.

use autocheck_interp::{ExecOptions, Machine, NoHook, VecSink};
use autocheck_stream::{Collect, Engine, EngineConfig};
use autocheck_trace::{AnalysisCtx, Record};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain per-thread statistic that touches no
// memory the allocator hands out. (`alloc_zeroed` keeps its default, which
// calls `alloc`.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
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

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
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
