//! `StreamAnalyzer::run_path` — what `autocheck` runs on a trace file —
//! allocates nothing per record in the steady state, in either format: the
//! read window, the batch's slots, the engine's windows and the report cost
//! the same allocations whether the main loop ran N or 4N iterations.
//!
//! The counting allocator counts per thread, so the tests of this binary
//! may run side by side.

use autocheck_core::{Region, StreamAnalyzer};
use autocheck_interp::{BinarySink, ExecOptions, Machine, NoHook, WriterSink};
use autocheck_trace::AnalysisCtx;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

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

/// A main loop (lines 9–13) that calls a function with an array and a
/// scalar each iteration and reads the array back.
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

/// Write the program's trace in `format` to `path`.
fn write_trace(iters: u64, binary: bool, path: &Path) {
    let module = autocheck_minilang::compile(&looping_calls(iters)).expect("compiles");
    let ctx = AnalysisCtx::session();
    let _space = ctx.enter();
    let mut machine = Machine::with_ctx(&module, ExecOptions::default(), ctx.clone());
    let bytes = if binary {
        let mut sink = BinarySink::with_ctx(Vec::new(), &ctx);
        machine.run(&mut sink, &mut NoHook).expect("runs");
        sink.finish().expect("binary trace")
    } else {
        let mut sink = WriterSink::new(Vec::new());
        machine.run(&mut sink, &mut NoHook).expect("runs");
        sink.finish().expect("text trace")
    };
    std::fs::write(path, bytes).expect("trace written");
}

/// Allocations one `run_path` over `path` makes, in a fresh session, and
/// the records it analyzed.
fn allocations_analyzing(path: &Path) -> (u64, u64) {
    let ctx = AnalysisCtx::session();
    let analyzer = StreamAnalyzer::new(Region::new("main", 9, 13))
        .with_index_vars(vec!["it".into()])
        .with_ctx(ctx);
    let before = allocations();
    let run = analyzer.run_path(path).expect("analyzes");
    let spent = allocations() - before;
    assert_eq!(run.report.summary().len(), 3, "{}", run.report);
    (spent, run.report.records)
}

#[test]
fn run_path_allocates_nothing_per_record() {
    const N: u64 = 500;
    let dir =
        std::env::temp_dir().join(format!("autocheck-run-path-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for binary in [false, true] {
        let (small, large) = (dir.join("small"), dir.join("large"));
        write_trace(N, binary, &small);
        write_trace(4 * N, binary, &large);
        let (a_small, n_small) = allocations_analyzing(&small);
        let (a_large, n_large) = allocations_analyzing(&large);
        assert!(n_large > 3 * n_small);
        // A few spare allocations cover a larger operand buffer or an
        // iteration-count string one digit longer.
        assert!(
            a_large <= a_small + 8,
            "binary {binary}: {a_small} allocations for {n_small} records, \
             {a_large} for {n_large}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
