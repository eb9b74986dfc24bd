//! Acceptance tests for the streaming analysis engine:
//!
//! * the streaming engine and the staged batch reference
//!   (`Analyzer::analyze_staged`) produce identical reports on the Fig. 4
//!   example and on all 14 benchmarks;
//! * streaming memory is bounded: on multi-iteration traces the peak
//!   live-record count stays strictly below the total record count, and
//!   below the session's `live-records` ceiling when one is set;
//! * the interpreter→analyzer direct mode works with no intermediate trace
//!   file (`mlc trace --stream` smoke test against the real binary).

use autocheck_core::{index_variables_of, Analyzer, Region, Report, StreamAnalyzer};
use autocheck_interp::{ExecOptions, FnSink, Machine, NoHook, VecSink};
use autocheck_trace::{AnalysisCtx, Record, ResourceLimits};

fn trace_of(source: &str) -> (autocheck_ir::Module, Vec<Record>) {
    let module = autocheck_minilang::compile(source).expect("compiles");
    let mut sink = VecSink::default();
    Machine::new(&module, ExecOptions::default())
        .run(&mut sink, &mut NoHook)
        .expect("runs");
    (module, sink.records)
}

fn assert_reports_match(name: &str, batch: &Report, stream: &Report) {
    assert_eq!(batch.mli, stream.mli, "{name}: MLI sets differ");
    assert_eq!(
        batch.critical, stream.critical,
        "{name}: critical sets differ"
    );
    assert_eq!(batch.skipped, stream.skipped, "{name}: skip sets differ");
    assert_eq!(
        batch.iterations, stream.iterations,
        "{name}: iterations differ"
    );
    assert_eq!(
        batch.records, stream.records,
        "{name}: record counts differ"
    );
    assert_eq!(
        batch.checkpoint_bytes(),
        stream.checkpoint_bytes(),
        "{name}: checkpoint byte sizes differ"
    );
}

#[test]
fn fig4_streaming_equals_batch() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig4.mc"
    ))
    .expect("examples/fig4.mc exists");
    let (module, records) = trace_of(&src);
    let region = Region::new("main", 16, 24);
    let index = index_variables_of(&module, &region);
    let batch = Analyzer::new(region.clone())
        .with_index_vars(index.clone())
        .analyze_staged(&records);
    let stream = StreamAnalyzer::new(region)
        .with_index_vars(index)
        .analyze(&records)
        .expect("streams");
    assert_reports_match("fig4", &batch, &stream);
    // And the paper's critical set comes out of the streaming path.
    let names: Vec<String> = stream.summary().iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(names, vec!["a", "it", "r", "sum"]);
}

#[test]
fn all_fourteen_apps_streaming_equals_batch() {
    for spec in autocheck_apps::all_apps() {
        let (module, records) = trace_of(&spec.source);
        let index = index_variables_of(&module, &spec.region);
        let batch = Analyzer::new(spec.region.clone())
            .with_index_vars(index.clone())
            .analyze_staged(&records);
        let stream = StreamAnalyzer::new(spec.region.clone())
            .with_index_vars(index)
            .analyze(&records)
            .expect("streams");
        assert_reports_match(spec.name, &batch, &stream);
    }
}

#[test]
fn streaming_memory_is_bounded_on_multi_iteration_traces() {
    // Every benchmark trace has multiple iterations; on each, the live
    // window must undercut the trace length — that is the whole point of
    // the streaming engine.
    for spec in autocheck_apps::all_apps() {
        let (module, records) = trace_of(&spec.source);
        let index = index_variables_of(&module, &spec.region);
        let analyzer = StreamAnalyzer::new(spec.region.clone()).with_index_vars(index);
        let mut session = analyzer.session();
        for r in &records {
            session.push(r).expect("no bound configured");
        }
        let peak = session.peak_live_records();
        let run = session.finish();
        assert!(
            run.report.iterations > 1,
            "{}: needs a multi-iteration trace",
            spec.name
        );
        assert!(
            (peak as u64) < run.report.records,
            "{}: peak live {} must be strictly below total records {}",
            spec.name,
            peak,
            run.report.records
        );

        // With a cap set above the observed peak, the bound holds and the
        // peak stays below it; with a cap below the peak, push fails fast.
        let cap = |n: usize| {
            AnalysisCtx::current().with_limits(ResourceLimits::new().max_live_records(n as u64))
        };
        let capped = StreamAnalyzer::new(spec.region.clone()).with_ctx(cap(peak + 1));
        let mut session = capped.session();
        for r in &records {
            session.push(r).expect("cap sits above the true peak");
        }
        let capped_run = session.finish();
        assert!(
            capped_run.stats.peak_live_records < peak + 2,
            "{}: peak under cap",
            spec.name
        );
        assert_eq!(capped_run.stats.live_bound, Some(peak + 1));

        if peak > 1 {
            let tight = StreamAnalyzer::new(spec.region.clone()).with_ctx(cap(peak - 1));
            let mut session = tight.session();
            let mut tripped = false;
            for r in &records {
                if session.push(r).is_err() {
                    tripped = true;
                    break;
                }
            }
            assert!(tripped, "{}: cap below peak must trip", spec.name);
        }
    }
}

#[test]
fn interpreter_to_analyzer_direct_mode_needs_no_trace_file() {
    // The push path end to end, in process: records flow from the machine
    // through FnSink into the session; nothing is buffered or written.
    let spec = autocheck_apps::app_by_name("cg").expect("cg exists");
    let (module, records) = trace_of(&spec.source);
    let index = index_variables_of(&module, &spec.region);
    let batch = Analyzer::new(spec.region.clone())
        .with_index_vars(index.clone())
        .analyze_staged(&records);

    let analyzer = StreamAnalyzer::new(spec.region.clone()).with_index_vars(index);
    let mut session = analyzer.session();
    let mut sink = FnSink::new(|rec: &Record| {
        session
            .push(rec)
            .map_err(|e| autocheck_interp::ExecError::Sink {
                message: e.to_string(),
            })
    });
    Machine::new(&module, ExecOptions::default())
        .run(&mut sink, &mut NoHook)
        .expect("runs");
    let run = session.finish();
    assert_reports_match("cg (direct)", &batch, &run.report);
    assert!((run.stats.peak_live_records as u64) < run.report.records);
}

/// `mlc trace <file> --stream` smoke test against the real binary: analyzes
/// online, prints the report and the live-record footer, and writes no
/// trace file.
#[test]
fn mlc_stream_smoke_test() {
    let fig4 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig4.mc");
    // Process-unique scratch dir: concurrent test runs must not share (or
    // delete) each other's working directory.
    let dir =
        std::env::temp_dir().join(format!("autocheck-mlc-stream-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mlc"))
        .args(["trace", fig4, "--stream", "--function", "main"])
        .args(["--start", "16", "--end", "24"])
        .args(["--max-live-records", "4096"])
        .current_dir(&dir)
        .output()
        .expect("mlc runs");
    assert!(
        out.status.success(),
        "mlc --stream failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("checkpoint a"),
        "report lists `a`:\n{stdout}"
    );
    assert!(stdout.contains("Index"), "report lists the Index class");
    assert!(
        stdout.contains("peak") && stdout.contains("live records"),
        "footer shows the live-record bound:\n{stdout}"
    );
    assert!(stdout.contains("no trace file written"));
    // Nothing was written next to us (the non-stream default would create
    // `<input>.trace` in the working directory).
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch dir readable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".trace"))
        .collect();
    assert!(leftovers.is_empty(), "stray trace files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
