//! Acceptance tests for the observability layer's cardinal rule: metrics
//! NEVER change analysis output. Reports and DOT renderings must be
//! byte-identical with the registry enabled and disabled — on the Fig. 4
//! example and on all 14 benchmarks, through both the batch and the
//! streaming pipeline. The captured ledgers must also agree with the
//! reports they rode along with (record counts, iteration counts, symbol
//! counts, peak live windows).

use autocheck_core::{
    capture_ledger, index_variables_of, AnalysisJob, Analyzer, JobInput, MultiAnalyzer, Region,
    StreamAnalyzer, StreamConfig,
};
use autocheck_interp::{ExecOptions, Machine, NoHook, VecSink};
use autocheck_obs::{CounterId, GaugeId, Metrics, TimerId};
use autocheck_trace::{AnalysisCtx, Record};

fn trace_of(source: &str) -> (autocheck_ir::Module, Vec<Record>) {
    let module = autocheck_minilang::compile(source).expect("compiles");
    let mut sink = VecSink::default();
    Machine::new(&module, ExecOptions::default())
        .run(&mut sink, &mut NoHook)
        .expect("runs");
    (module, sink.records)
}

/// Render one batch analysis in its own session, with or without metrics,
/// returning `(rendered report, ctx)`.
fn batch_rendering(
    records: &[Record],
    region: &Region,
    index: &[String],
    metrics: bool,
) -> (String, AnalysisCtx) {
    // The records were interned via the thread-current space (the machine
    // in `trace_of` ran without a session), so analysis must resolve in
    // that same space — metrics ride the current ctx, not a fresh session.
    let mut ctx = AnalysisCtx::current();
    if metrics {
        ctx = ctx.with_metrics(Metrics::enabled());
    }
    let report = Analyzer::new(region.clone())
        .with_index_vars(index.to_vec())
        .with_ctx(ctx.clone())
        .analyze(records)
        .expect("no ceilings set");
    (report.to_string(), ctx)
}

/// Render one streaming analysis (report + contracted DOT) in its own
/// session, with or without metrics.
fn stream_rendering(
    records: &[Record],
    region: &Region,
    index: &[String],
    metrics: bool,
) -> (String, String, AnalysisCtx) {
    let mut ctx = AnalysisCtx::current();
    if metrics {
        ctx = ctx.with_metrics(Metrics::enabled());
    }
    let analyzer = StreamAnalyzer::new(region.clone())
        .with_index_vars(index.to_vec())
        .with_config(StreamConfig {
            contracted_dot: true,
            ..StreamConfig::default()
        })
        .with_ctx(ctx.clone());
    let mut session = analyzer.session();
    for r in records {
        session.push(r).expect("no bound configured");
    }
    let run = session.finish();
    (
        run.report.to_string(),
        run.contracted_dot.expect("dot requested"),
        ctx,
    )
}

#[test]
fn fig4_batch_output_is_byte_identical_with_metrics_on() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig4.mc"
    ))
    .expect("examples/fig4.mc exists");
    let (module, records) = trace_of(&src);
    let region = Region::new("main", 16, 24);
    let index = index_variables_of(&module, &region);
    let (off, _) = batch_rendering(&records, &region, &index, false);
    let (on, ctx) = batch_rendering(&records, &region, &index, true);
    assert_eq!(off, on, "fig4: metrics changed the rendered report");
    // Guard against comparing two degenerate reports: the paper's critical
    // set must actually be in there.
    for name in ["a", "it", "r", "sum"] {
        assert!(on.contains(name), "fig4 report names `{name}`:\n{on}");
    }
    assert!(on.contains("checkpoint"));

    // The ledger that rode along agrees with what the report says.
    let ledger = capture_ledger("fig4", &ctx);
    assert!(ledger.gauge(GaugeId::DdgNodes).0 > 0);
    assert!(ledger.gauge(GaugeId::Symbols).0 > 0);
    assert!(ledger.gauge(GaugeId::ArenaBytes).0 > 0);
    assert!(ledger.timer(TimerId::Preprocess).0 > 0);
    assert_eq!(ledger.timer(TimerId::Contract).1, 1, "one contract span");
}

#[test]
fn fig4_streaming_output_and_dot_are_byte_identical_with_metrics_on() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig4.mc"
    ))
    .expect("examples/fig4.mc exists");
    let (module, records) = trace_of(&src);
    let region = Region::new("main", 16, 24);
    let index = index_variables_of(&module, &region);
    let (report_off, dot_off, _) = stream_rendering(&records, &region, &index, false);
    let (report_on, dot_on, ctx) = stream_rendering(&records, &region, &index, true);
    assert_eq!(report_off, report_on, "fig4: metrics changed the report");
    assert_eq!(dot_off, dot_on, "fig4: metrics changed the DOT rendering");

    let ledger = capture_ledger("fig4", &ctx);
    assert_eq!(
        ledger.counter(CounterId::EngineRecords),
        records.len() as u64
    );
    assert!(ledger.gauge(GaugeId::LiveRecords).1 > 0, "peak tracked");
    assert!(ledger.counter(CounterId::ContractWorklistSteps) > 0);
}

#[test]
fn all_fourteen_apps_byte_identical_with_metrics_batch_and_stream() {
    for streaming in [false, true] {
        let make_jobs = || -> Vec<AnalysisJob> {
            autocheck_apps::all_apps()
                .into_iter()
                .map(|spec| {
                    AnalysisJob::new(
                        spec.name,
                        JobInput::MiniLang(spec.source.clone()),
                        spec.region.clone(),
                    )
                    .streaming(streaming)
                    .with_dot(true)
                })
                .collect()
        };
        let off = MultiAnalyzer::new(2).run(make_jobs());
        let on = MultiAnalyzer::new(2).with_metrics(true).run(make_jobs());
        assert!(off.failures.is_empty(), "{:?}", off.failures);
        assert!(on.failures.is_empty(), "{:?}", on.failures);
        assert_eq!(off.sessions.len(), 14);
        assert!(off.ledger.is_none());
        let batch_ledger = on.ledger.as_ref().expect("metrics run has a ledger");
        assert_eq!(batch_ledger.sessions.len(), 14);
        for (a, b) in off.sessions.iter().zip(&on.sessions) {
            assert_eq!(
                a.rendered, b.rendered,
                "{} (stream={streaming}): metrics changed the report",
                a.name
            );
            assert_eq!(
                a.dot, b.dot,
                "{} (stream={streaming}): metrics changed the DOT",
                a.name
            );
            assert_eq!(a.summary, b.summary);
            // The session ledger agrees with the session report.
            let l = b.ledger.as_ref().expect("session ledger present");
            assert_eq!(l.name, b.name);
            assert_eq!(l.gauge(GaugeId::Symbols).0, b.symbols as u64);
            assert!(l.timer(TimerId::SessionWall).0 > 0);
            if streaming {
                assert_eq!(l.counter(CounterId::EngineRecords), b.records);
                assert_eq!(
                    l.gauge(GaugeId::LiveRecords).1,
                    b.peak_live_records.expect("streamed") as u64,
                    "{}: ledger peak and StreamStats peak are one number",
                    b.name
                );
            }
        }
    }
}

#[test]
fn session_ledgers_round_trip_through_json() {
    // Every app's captured ledger survives serialize → parse unchanged
    // (the proptest in autocheck-obs covers arbitrary ledgers; this pins
    // the real ones the pipelines actually produce).
    let jobs: Vec<AnalysisJob> = autocheck_apps::all_apps()
        .into_iter()
        .take(4)
        .map(|spec| {
            AnalysisJob::new(
                spec.name,
                JobInput::MiniLang(spec.source.clone()),
                spec.region.clone(),
            )
            .streaming(true)
        })
        .collect();
    let out = MultiAnalyzer::new(2).with_metrics(true).run(jobs);
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    let batch = out.ledger.as_ref().unwrap();
    let parsed = autocheck_obs::ledger::BatchLedger::from_json(&batch.to_json()).expect("parses");
    assert_eq!(&parsed, batch);
    for s in &out.sessions {
        let l = s.ledger.as_ref().unwrap();
        let parsed = autocheck_obs::ledger::Ledger::from_json(&l.to_json()).expect("parses");
        assert_eq!(&parsed, l);
    }
}
