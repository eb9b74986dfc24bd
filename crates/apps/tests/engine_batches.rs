//! The engine folds a trace a batch of records at a time, and nothing
//! about a run shows it. An engine ceiling — the live-record bound, DDG
//! nodes, DDG edges — crossed inside a batch fails with the message and the
//! ledger counters of a run that pulls one record at a time: ingest books
//! the records the engine took, up to the one that crossed the ceiling,
//! and no more. And with metrics on, the ledger splits the fused pass into
//! its decode (`stage.ingest`) and fold (`stage.preprocess`) time, which
//! add up to the report's pre-processing figure.

use autocheck_core::{capture_ledger, index_variables_of, MultiAnalyzer, Region, StreamAnalyzer};
use autocheck_interp::{BinarySink, ExecOptions, Machine, NoHook, WriterSink};
use autocheck_obs::ledger::Ledger;
use autocheck_obs::{CounterId, Metrics, TimerId};
use autocheck_trace::{AnalysisCtx, ResourceKind, ResourceLimits, TraceSource, BATCH_RECORDS};

/// The counters a failed run books.
const COUNTERS: [CounterId; 8] = [
    CounterId::IngestRecordsText,
    CounterId::IngestRecordsBinary,
    CounterId::IngestBytesText,
    CounterId::IngestBytesBinary,
    CounterId::ParseErrors,
    CounterId::LimitExceeded,
    CounterId::EngineRecords,
    CounterId::AccessEvents,
];

/// A program's text and binary traces, its region and index variables.
struct Traced {
    name: String,
    text: Vec<u8>,
    binary: Vec<u8>,
    region: Region,
    index: Vec<String>,
}

fn traced(name: &str, src: &str, region: Region) -> Traced {
    let module = autocheck_minilang::compile(src).expect("compiles");
    let run = |binary: bool| {
        let ctx = AnalysisCtx::session();
        let _space = ctx.enter();
        let mut machine = Machine::with_ctx(&module, ExecOptions::default(), ctx.clone());
        if binary {
            let mut sink = BinarySink::with_ctx(Vec::new(), &ctx);
            machine.run(&mut sink, &mut NoHook).expect("runs");
            sink.finish().expect("binary trace")
        } else {
            let mut sink = WriterSink::new(Vec::new());
            machine.run(&mut sink, &mut NoHook).expect("runs");
            sink.finish().expect("text trace")
        }
    };
    Traced {
        name: name.to_string(),
        text: run(false),
        binary: run(true),
        index: index_variables_of(&module, &region),
        region,
    }
}

fn fig4() -> Traced {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig4.mc"
    ))
    .expect("examples/fig4.mc");
    traced("fig4", &src, Region::new("main", 16, 24))
}

fn cg() -> Traced {
    let spec = autocheck_apps::cg::spec();
    traced("cg", &spec.source, spec.region)
}

fn session(limits: ResourceLimits) -> AnalysisCtx {
    AnalysisCtx::session()
        .with_metrics(Metrics::enabled())
        .with_limits(limits)
}

fn analyzer(t: &Traced, ctx: &AnalysisCtx) -> StreamAnalyzer {
    StreamAnalyzer::new(t.region.clone())
        .with_index_vars(t.index.clone())
        .with_ctx(ctx.clone())
}

/// How a run ended, and its ledger.
type Outcome = (Result<(), String>, Ledger);

/// The engine run every entry point makes: batches from the source.
fn batched(t: &Traced, bytes: &[u8], limits: ResourceLimits) -> Outcome {
    let ctx = session(limits);
    let end = analyzer(t, &ctx)
        .run_bytes(bytes)
        .map(|_| ())
        .map_err(|e| e.to_string());
    (end, capture_ledger(&t.name, &ctx))
}

/// The same run, pulling one record at a time into a push session.
fn record_by_record(t: &Traced, bytes: &[u8], limits: ResourceLimits) -> Outcome {
    let ctx = session(limits);
    let _space = ctx.enter();
    let mut push = analyzer(t, &ctx).session();
    let mut stream = TraceSource::from_bytes(bytes)
        .ctx(&ctx)
        .stream()
        .expect("opens");
    let end = loop {
        match stream.next_record() {
            None => break Ok(()),
            Some(Err(e)) => break Err(e.to_string()),
            Some(Ok(r)) => {
                if let Err(e) = push.push(r) {
                    break Err(e.to_string());
                }
            }
        }
    };
    drop(stream);
    if end.is_ok() {
        push.finish();
    }
    (end, capture_ledger(&t.name, &ctx))
}

fn counters(ledger: &Ledger) -> Vec<u64> {
    COUNTERS.iter().map(|&id| ledger.counter(id)).collect()
}

/// The records a failed run's ledger says it ingested.
fn ingested(ledger: &Ledger) -> u64 {
    ledger.counter(CounterId::IngestRecordsText) + ledger.counter(CounterId::IngestRecordsBinary)
}

#[test]
fn engine_ceilings_crossed_inside_a_batch_book_the_records_the_engine_took() {
    for t in [fig4(), cg()] {
        for (format, bytes) in [("text", &t.text), ("binary", &t.binary)] {
            let mut inside = 0;
            for (kind, ceilings) in [
                (ResourceKind::LiveRecords, [1, 5, 20]),
                (ResourceKind::DdgNodes, [3, 30, 60]),
                (ResourceKind::DdgEdges, [3, 30, 60]),
            ] {
                for n in ceilings {
                    let limits = ResourceLimits::new().set(kind, n);
                    let what = format!("{} {format}, {kind:?} = {n}", t.name);
                    let (end, ledger) = batched(&t, bytes, limits);
                    let (want_end, want) = record_by_record(&t, bytes, limits);
                    assert_eq!(end, want_end, "{what}");
                    assert_eq!(counters(&ledger), counters(&want), "{what}");
                    if end.is_err() {
                        assert_eq!(ledger.counter(CounterId::LimitExceeded), 1, "{what}");
                        if !ingested(&ledger).is_multiple_of(BATCH_RECORDS as u64) {
                            inside += 1;
                        }
                    }
                }
            }
            assert!(
                inside >= 3,
                "{} {format}: too few breaches inside a batch",
                t.name
            );
        }
    }
}

#[test]
fn the_large_cg_live_bound_breach_books_the_records_up_to_it() {
    // clibench's cg-binary program with fewer outer iterations: the trace
    // shares every byte before the breach with the full one, where a run
    // that books whole batches read 6912 records and 506324 bytes.
    let spec = autocheck_apps::cg::spec_scaled(96, 1, 8);
    let t = traced("cg", &spec.source, spec.region);
    let limits = ResourceLimits::new().max_live_records(300);
    let (end, ledger) = batched(&t, &t.binary, limits);
    assert_eq!(
        end.unwrap_err(),
        "streaming live-record bound exceeded: 301 live records > bound 300"
    );
    assert_eq!(ledger.counter(CounterId::IngestRecordsBinary), 6879);
    assert_eq!(ledger.counter(CounterId::IngestBytesBinary), 503_995);
    assert_eq!(ledger.counter(CounterId::LimitExceeded), 1);
}

#[test]
fn the_ledger_splits_the_fused_pass_into_ingest_and_fold() {
    for t in [fig4(), cg()] {
        for (format, bytes) in [("text", &t.text), ("binary", &t.binary)] {
            let what = format!("{} {format}", t.name);
            let ctx = session(ResourceLimits::new());
            let run = analyzer(&t, &ctx).run_bytes(bytes).expect("analyzes");
            let m = ctx.metrics();
            let (ingest, ingest_spans) = m.timer(TimerId::Ingest);
            let (fold, fold_spans) = m.timer(TimerId::Preprocess);
            assert_eq!((ingest_spans, fold_spans), (1, 1), "{what}");
            assert!(ingest > 0 && fold > 0, "{what}: {ingest} ns, {fold} ns");
            let fused = run.report.timings.preprocess.as_nanos() as f64;
            let split = (ingest + fold) as f64;
            assert!(
                (split - fused).abs() <= 0.05 * fused,
                "{what}: ingest {ingest} + fold {fold} ns against {fused} ns"
            );
        }
    }
}

#[test]
fn an_interpreter_fed_session_books_the_fused_pass_as_preprocess() {
    let spec = autocheck_apps::cg::spec();
    let job = autocheck_core::AnalysisJob::new(
        "cg",
        autocheck_core::JobInput::MiniLang(spec.source.clone()),
        spec.region.clone(),
    );
    let out = MultiAnalyzer::new(1).with_metrics(true).run(vec![job]);
    let ledger = &out.ledger.expect("metrics on").sessions[0];
    assert_eq!(ledger.timer(TimerId::Ingest), (0, 0));
    let (fused, spans) = ledger.timer(TimerId::Preprocess);
    assert!(fused > 0 && spans == 1);
}
