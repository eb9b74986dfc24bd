//! Tracing allocates nothing per executed instruction: the machine fills
//! one reused record slot and lends it to the sink, so a call-free loop
//! run four times as long through a `CountSink` costs the same
//! allocations.
//!
//! The counting allocator counts per thread, so the tests of this binary
//! may run side by side.

use autocheck_interp::{CountSink, ExecOptions, Machine, NoHook};
use autocheck_trace::AnalysisCtx;
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

/// A loop of loads, stores, integer and float arithmetic, comparisons,
/// casts, array indexing and branches, with no call inside it.
fn call_free_loop(iters: u64) -> String {
    format!(
        "int main() {{
    int a[8];
    int s = 0;
    float x = 0.5;
    for (int i = 0; i < 8; i = i + 1) {{
        a[i] = i;
    }}
    for (int it = 0; it < {iters}; it = it + 1) {{
        int k = it % 8;
        a[k] = a[k] + s;
        if (s > 1000) {{
            s = s - 1000;
        }} else {{
            s = s + k * 3;
        }}
        x = x * 0.5 + float(k);
    }}
    print(s);
    print(x);
    return 0;
}}
"
    )
}

/// Allocations made building a machine for `iters` iterations and running
/// it through a `CountSink`, and the records it emitted.
fn allocations_tracing(iters: u64) -> (u64, u64) {
    let module = autocheck_minilang::compile(&call_free_loop(iters)).expect("compiles");
    let ctx = AnalysisCtx::session();
    let _guard = ctx.enter();
    let mut sink = CountSink::default();
    let before = allocations();
    let mut machine = Machine::with_ctx(&module, ExecOptions::default(), ctx.clone());
    machine.run(&mut sink, &mut NoHook).expect("runs");
    drop(machine);
    (allocations() - before, sink.count)
}

#[test]
fn tracing_a_call_free_loop_allocates_nothing_per_instruction() {
    const N: u64 = 2_000;
    let (small, small_records) = allocations_tracing(N);
    let (large, large_records) = allocations_tracing(4 * N);
    assert!(
        large_records > 3 * small_records,
        "{small_records} vs {large_records}"
    );
    assert_eq!(
        small, large,
        "{small} allocations for {small_records} records, {large} for {large_records}"
    );
}
