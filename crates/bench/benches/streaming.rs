//! Criterion bench: the analyzer's inputs.
//!
//! Three ways to turn one app's trace into a report: the engine over
//! pre-parsed records (push path), and the engine pulling the textual or
//! the binary trace through the bounded reader (parse + analyze fused).
//! The reader paths are the mode that scales to traces bigger than memory.

use autocheck_core::{index_variables_of, StreamAnalyzer};
use autocheck_interp::{ExecOptions, Machine, NoHook, VecSink, WriterSink};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming-analysis");
    group.sample_size(10);
    for name in ["cg", "hpccg", "is"] {
        let spec = autocheck_apps::app_by_name(name).expect("known app");
        let module = autocheck_minilang::compile(&spec.source).expect("compiles");
        let mut sink = VecSink::default();
        Machine::new(&module, ExecOptions::default())
            .run(&mut sink, &mut NoHook)
            .expect("runs");
        let records = sink.records;
        let mut text_sink = WriterSink::new(Vec::new());
        for r in &records {
            use autocheck_interp::TraceSink as _;
            text_sink.record(r).expect("sink");
        }
        let text = text_sink.finish().expect("trace bytes");
        let index = index_variables_of(&module, &spec.region);

        group.bench_function(format!("{name}/stream-records"), |b| {
            let analyzer = StreamAnalyzer::new(spec.region.clone()).with_index_vars(index.clone());
            b.iter(|| {
                let report = analyzer.analyze(black_box(&records)).expect("streams");
                black_box(report.critical.len())
            })
        });
        group.bench_function(format!("{name}/stream-read"), |b| {
            let analyzer = StreamAnalyzer::new(spec.region.clone()).with_index_vars(index.clone());
            b.iter(|| {
                let report = analyzer
                    .analyze_read(black_box(&text[..]))
                    .expect("streams");
                black_box(report.critical.len())
            })
        });
        // Same fused parse+analyze pull, but over the binary trace (format
        // auto-detected from the leading magic).
        let bin =
            autocheck_trace::binary::to_bytes(&records, &autocheck_trace::AnalysisCtx::current());
        group.bench_function(format!("{name}/stream-read-binary"), |b| {
            let analyzer = StreamAnalyzer::new(spec.region.clone()).with_index_vars(index.clone());
            b.iter(|| {
                let report = analyzer.analyze_read(black_box(&bin[..])).expect("streams");
                black_box(report.critical.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
