//! Criterion bench: ablations of AutoCheck's design choices (DESIGN.md §5).
//!
//! * **selective iteration** (paper §IV-B: only Table-I opcodes are
//!   examined) vs. pushing every record through the dependency machinery;
//! * **collection mode** (the paper's "arithmetic variables" wording vs.
//!   the any-access reading its own example implies);
//! * **DDG contraction** (Algorithm 1) cost relative to the rest of the
//!   dependency stage.

use autocheck_apps::app_by_name;
use autocheck_core::{
    contract_ddg, index_variables_of, Analyzer, CollectMode, DdgAnalysis, NodeKind, Phases,
    StreamConfig,
};
use autocheck_interp::{ExecOptions, Machine, NoHook, VecSink};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn traced(
    name: &str,
) -> (
    autocheck_apps::AppSpec,
    Vec<autocheck_trace::Record>,
    Vec<String>,
) {
    let spec = app_by_name(name).expect("known app");
    let module = autocheck_minilang::compile(&spec.source).expect("compiles");
    let mut sink = VecSink::default();
    Machine::new(&module, ExecOptions::default())
        .run(&mut sink, &mut NoHook)
        .expect("runs");
    let index = index_variables_of(&module, &spec.region);
    (spec, sink.records, index)
}

fn bench_selective_iteration(c: &mut Criterion) {
    let (spec, records, index) = traced("hpccg");
    let mut group = c.benchmark_group("ablation-selective");
    group.sample_size(10);
    for (label, selective) in [("selective", true), ("exhaustive", false)] {
        let analyzer = Analyzer::new(spec.region.clone())
            .with_index_vars(index.clone())
            .with_config(StreamConfig {
                selective,
                ..StreamConfig::default()
            });
        group.bench_function(label, |b| {
            b.iter(|| {
                let report = analyzer.analyze(black_box(&records)).expect("no ceilings");
                black_box(report.critical.len())
            })
        });
    }
    group.finish();
}

fn bench_collect_mode(c: &mut Criterion) {
    let (spec, records, index) = traced("cg");
    let mut group = c.benchmark_group("ablation-collect-mode");
    group.sample_size(10);
    for (label, collect) in [
        ("any-access", CollectMode::AnyAccess),
        ("arithmetic", CollectMode::Arithmetic),
    ] {
        let analyzer = Analyzer::new(spec.region.clone())
            .with_index_vars(index.clone())
            .with_config(StreamConfig {
                collect,
                ..StreamConfig::default()
            });
        group.bench_function(label, |b| {
            b.iter(|| {
                let report = analyzer.analyze(black_box(&records)).expect("no ceilings");
                black_box(report.mli.len())
            })
        });
    }
    group.finish();
}

fn bench_contraction(c: &mut Criterion) {
    let (spec, records, index) = traced("is");
    let analyzer = Analyzer::new(spec.region.clone()).with_index_vars(index);
    let report = analyzer.analyze(&records).expect("no ceilings set");
    let phases = Phases::compute(&records, &spec.region);
    let analysis = DdgAnalysis::run(&records, &phases, &report.mli, true);
    let bases: std::collections::HashSet<u64> = report.mli.iter().map(|m| m.base_addr).collect();
    let mut group = c.benchmark_group("ablation-contraction");
    group.sample_size(20);
    group.bench_function("ddg-build", |b| {
        b.iter(|| {
            black_box(
                DdgAnalysis::run(black_box(&records), &phases, &report.mli, true)
                    .graph
                    .len(),
            )
        })
    });
    group.bench_function("contract-algorithm1", |b| {
        b.iter(|| {
            let c = contract_ddg(
                black_box(&analysis.graph),
                |n| matches!(n, NodeKind::Var { base, .. } if bases.contains(base)),
            );
            black_box(c.nodes.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_selective_iteration,
    bench_collect_mode,
    bench_contraction
);
criterion_main!(benches);
