//! A MiniLang `MultiAnalyzer` job holds no trace: the interpreter pushes
//! each record into the job's engine session as it is emitted, so the
//! job's peak live heap is the same whether its main loop runs N or 4N
//! iterations.
//!
//! The counting allocator counts per thread, so the tests of this binary
//! may run side by side; a one-worker `MultiAnalyzer` runs its job on the
//! calling thread.

use autocheck_core::{AnalysisJob, JobInput, MultiAnalyzer, Region};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Bytes this thread holds live, and the most it has held since the
    /// last reset.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain per-thread statistics that touch no
// memory the allocator hands out. (`alloc_zeroed` keeps its default, which
// calls `alloc`.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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

/// Peak live heap over one streaming MiniLang job of `iters` iterations,
/// above what the thread held when it started, and the records analyzed.
fn peak_heap_of_a_job(iters: u64) -> (usize, u64) {
    let job = AnalysisJob::new(
        format!("loop-{iters}"),
        JobInput::MiniLang(looping_calls(iters)),
        Region::new("main", 9, 13),
    )
    .streaming(true);
    let service = MultiAnalyzer::new(1);
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = service.run(vec![job]);
    let peak = PEAK.with(Cell::get) - base;
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    let session = &out.sessions[0];
    assert!(session.iterations as u64 >= iters, "the region was found");
    assert_eq!(
        session
            .summary
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>(),
        ["a", "it", "sum"]
    );
    (peak, session.records)
}

#[test]
fn a_minilang_job_holds_no_trace() {
    const N: u64 = 2000;
    let (small, small_records) = peak_heap_of_a_job(N);
    let (large, large_records) = peak_heap_of_a_job(4 * N);
    assert!(large_records > 3 * small_records);
    // Every record costs more than a byte held, so a job that kept its
    // trace would grow by far more than this slack.
    assert!(
        large <= small + 4096,
        "{small} B peak for {small_records} records, {large} B for {large_records}"
    );
}
