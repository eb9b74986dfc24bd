//! Criterion bench: end-to-end AutoCheck analysis per benchmark
//! (Table III's "Total Time" column as a repeatable microbenchmark).

use autocheck_apps::{analyze_app, app_by_name};
use autocheck_core::{index_variables_of, Analyzer};
use autocheck_interp::{BinarySink, ExecOptions, Machine, NoHook, VecSink, WriterSink};
use autocheck_obs::Metrics;
use autocheck_trace::AnalysisCtx;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis-pipeline");
    group.sample_size(10);
    for name in ["cg", "hpccg", "is", "comd"] {
        let spec = app_by_name(name).expect("known app");
        let module = autocheck_minilang::compile(&spec.source).expect("compiles");
        let mut sink = VecSink::default();
        Machine::new(&module, ExecOptions::default())
            .run(&mut sink, &mut NoHook)
            .expect("runs");
        let index = index_variables_of(&module, &spec.region);
        let records = sink.records;
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = Analyzer::new(spec.region.clone())
                    .with_index_vars(index.clone())
                    .analyze(black_box(&records))
                    .expect("no ceilings set");
                black_box(report.critical.len())
            })
        });
        // The observability overhead budget (README: <2%): the identical
        // analysis with a live metrics registry riding the ctx.
        if matches!(name, "cg" | "is") {
            let ctx = AnalysisCtx::current().with_metrics(Metrics::enabled());
            group.bench_function(format!("{name}/metrics"), |b| {
                b.iter(|| {
                    let report = Analyzer::new(spec.region.clone())
                        .with_index_vars(index.clone())
                        .with_ctx(ctx.clone())
                        .analyze(black_box(&records))
                        .expect("no ceilings set");
                    black_box(report.critical.len())
                })
            });
        }
    }
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace-generation");
    group.sample_size(10);
    for name in ["cg", "sp"] {
        let spec = app_by_name(name).expect("known app");
        let module = autocheck_minilang::compile(&spec.source).expect("compiles");
        // In-memory records (no serialization), then each on-disk format:
        // execute + serialize the full trace into a buffer.
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut sink = VecSink::default();
                Machine::new(&module, ExecOptions::default())
                    .run(&mut sink, &mut NoHook)
                    .expect("runs");
                black_box(sink.records.len())
            })
        });
        group.bench_function(format!("{name}/text"), |b| {
            b.iter(|| {
                let mut sink = WriterSink::new(Vec::new());
                Machine::new(&module, ExecOptions::default())
                    .run(&mut sink, &mut NoHook)
                    .expect("runs");
                black_box(sink.finish().expect("trace").len())
            })
        });
        group.bench_function(format!("{name}/binary"), |b| {
            b.iter(|| {
                let mut sink = BinarySink::new(Vec::new());
                Machine::new(&module, ExecOptions::default())
                    .run(&mut sink, &mut NoHook)
                    .expect("runs");
                black_box(sink.finish().expect("trace").len())
            })
        });
    }
    group.finish();
}

fn bench_full_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile-trace-analyze");
    group.sample_size(10);
    let spec = app_by_name("mg").expect("known app");
    group.bench_function("mg-end-to-end", |b| {
        b.iter(|| {
            let run = analyze_app(black_box(&spec));
            black_box(run.report.critical.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_trace_generation,
    bench_full_chain
);
criterion_main!(benches);
