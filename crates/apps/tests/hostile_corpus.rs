//! Hostile-trace corpus sweep: the fail-safe acceptance bar.
//!
//! Every file in `tests/hostile/` (repo root) goes through all three front
//! doors — the batch ingest (`TraceSource::records`), the streaming engine
//! (`StreamAnalyzer::run_read`), and `MultiAnalyzer` jobs — in untrusted
//! sessions with resource ceilings set. The bar: **no panic, typed errors
//! only, no allocation driven by lying headers**, and a failing job never
//! disturbs its neighbours. The corpus files are documented in
//! `tests/hostile/README.md`; the seeded fault sweep additionally perturbs
//! well-formed traces with `FaultReader` so short reads, injected I/O
//! errors, truncation, and bit flips all land on the same bar. Under tight
//! ceilings, the batch and streaming front doors reach the *same* outcome
//! on every file: the same report or the same error message.

use autocheck_core::{
    AnalysisJob, Analyzer, JobInput, MultiAnalyzer, Region, StreamAnalyzer, StreamConfig,
    StreamError,
};
use autocheck_interp::{BinarySink, ExecOptions, Machine, NoHook, WriterSink};
use autocheck_trace::reader::TraceReadError;
use autocheck_trace::{AnalysisCtx, FaultPlan, Record, ResourceKind, ResourceLimits, TraceSource};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/hostile")
}

/// Every corpus input (both formats), sorted for deterministic ordering.
fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("txt") | Some("bin")
            )
        })
        .collect();
    files.sort();
    assert!(files.len() >= 9, "corpus went missing: {files:?}");
    files
}

/// Ceilings generous enough for the one well-formed corpus file
/// (`adversarial_symbols.txt`: 400 records, ~50 KiB of symbol bytes) while
/// still bounding what any lying header can make us do.
fn corpus_limits() -> ResourceLimits {
    ResourceLimits::new()
        .max_trace_records(10_000)
        .max_trace_bytes(1 << 20)
        .max_symbols(4_096)
        .max_arena_bytes(1 << 20)
}

fn untrusted_ctx() -> AnalysisCtx {
    AnalysisCtx::session()
        .untrusted()
        .with_limits(corpus_limits())
}

#[test]
fn batch_ingest_survives_every_corpus_file() {
    for path in corpus_files() {
        let ctx = untrusted_ctx();
        let result = TraceSource::from_path(&path).ctx(&ctx).records();
        match result {
            // The resource-shaped files parse clean under these ceilings;
            // anything syntactically hostile must fail typed.
            Ok(recs) => assert!(
                recs.len() <= 10_000,
                "{}: parsed past the record ceiling",
                path.display()
            ),
            Err(e) => {
                let msg = e.to_string();
                assert!(!msg.is_empty(), "{}: empty diagnostic", path.display());
            }
        }
    }
}

#[test]
fn streaming_ingest_survives_every_corpus_file() {
    for path in corpus_files() {
        let ctx = untrusted_ctx();
        // Rendering/sorting resolves symbols via the thread-current space.
        let _guard = ctx.enter();
        let bytes = std::fs::read(&path).expect("corpus file readable");
        let analyzer = StreamAnalyzer::new(Region::new("main", 3, 6))
            .with_config(StreamConfig::default())
            .with_ctx(ctx.clone());
        match analyzer.run_read(&bytes[..]) {
            Ok(run) => assert!(run.report.records <= 10_000, "{}", path.display()),
            Err(e) => match e {
                StreamError::Source(_) | StreamError::Resource(_) | StreamError::LiveBound(_) => {
                    assert!(!e.to_string().is_empty());
                }
            },
        }
    }
}

#[test]
fn multi_analyzer_degrades_gracefully_over_the_corpus() {
    // All corpus files as one batch: hostile jobs fail typed and isolated,
    // and the one well-formed file still analyzes.
    let jobs: Vec<AnalysisJob> = corpus_files()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            AnalysisJob::new(
                p.file_name().unwrap().to_string_lossy().to_string(),
                JobInput::TracePath(p.display().to_string()),
                Region::new("main", 3, 6),
            )
            .untrusted(true)
            .streaming(i % 2 == 0)
            .with_limits(corpus_limits())
        })
        .collect();
    let n = jobs.len();
    let out = MultiAnalyzer::new(4).run(jobs);
    assert_eq!(out.sessions.len() + out.failures.len(), n, "no job lost");
    for f in &out.failures {
        assert!(!f.message.is_empty(), "{}: empty failure message", f.name);
        assert!(
            !f.message.starts_with("panic:"),
            "{}: panicked instead of failing typed: {}",
            f.name,
            f.message
        );
    }
    let ok_names: Vec<&str> = out.sessions.iter().map(|s| s.name.as_str()).collect();
    assert!(
        ok_names.contains(&"adversarial_symbols.txt"),
        "the well-formed file must analyze; got {ok_names:?} / {:?}",
        out.failures
    );
}

#[test]
fn tight_ceilings_trip_typed_on_the_resource_hostile_file() {
    let path = corpus_dir().join("adversarial_symbols.txt");
    for (limits, kind) in [
        (ResourceLimits::new().max_symbols(16), ResourceKind::Symbols),
        (
            ResourceLimits::new().max_trace_records(100),
            ResourceKind::TraceRecords,
        ),
        (
            ResourceLimits::new().max_trace_bytes(4_096),
            ResourceKind::TraceBytes,
        ),
        (
            ResourceLimits::new().max_arena_bytes(1_024),
            ResourceKind::ArenaBytes,
        ),
    ] {
        let ctx = AnalysisCtx::session().untrusted().with_limits(limits);
        let err = TraceSource::from_path(&path)
            .ctx(&ctx)
            .records()
            .expect_err("ceiling must trip");
        match err {
            autocheck_trace::reader::TraceReadError::Resource(e) => {
                assert_eq!(e.kind, kind, "wrong axis tripped");
                assert!(e.used > e.limit);
            }
            other => panic!("{kind}: expected Resource, got {other}"),
        }
    }
}

/// The ceiling sets of the mode-uniformity sweep: none, then each axis a
/// hostile file can reach, one at a time, set low enough to trip.
fn tight_ceilings() -> [(&'static str, ResourceLimits); 5] {
    [
        ("none", ResourceLimits::new()),
        (
            "trace-bytes=1000",
            ResourceLimits::new().max_trace_bytes(1000),
        ),
        (
            "trace-records=50",
            ResourceLimits::new().max_trace_records(50),
        ),
        ("ddg-nodes=3", ResourceLimits::new().max_ddg_nodes(3)),
        ("symbols=10", ResourceLimits::new().max_symbols(10)),
    ]
}

#[test]
fn batch_and_stream_reach_the_same_outcome_under_tight_ceilings() {
    // Every corpus file under every ceiling set, through the batch
    // `Analyzer::analyze_path` and the streaming `StreamAnalyzer::run_path`:
    // the same rendered report, or the same error message — which axis
    // tripped, at what count, or which parse error came first.
    for path in corpus_files() {
        for (name, limits) in tight_ceilings() {
            let outcome = |stream: bool| {
                let ctx = AnalysisCtx::session().untrusted().with_limits(limits);
                let _guard = ctx.enter();
                let region = Region::new("main", 3, 6);
                let result = if stream {
                    StreamAnalyzer::new(region)
                        .with_ctx(ctx.clone())
                        .run_path(&path)
                        .map(|run| run.report)
                } else {
                    Analyzer::new(region)
                        .with_ctx(ctx.clone())
                        .analyze_path(&path)
                };
                match result {
                    Ok(report) => format!("ok:{report}"),
                    Err(e) => format!("err:{e}"),
                }
            };
            assert_eq!(
                outcome(false),
                outcome(true),
                "{} under {name}: batch and stream disagree",
                path.display()
            );
        }
    }
}

/// Fig. 4's trace in both formats, written by the interpreter's sinks.
fn fig4_traces() -> [(&'static str, Vec<u8>); 2] {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig4.mc"
    ))
    .expect("examples/fig4.mc exists");
    let module = autocheck_minilang::compile(&src).expect("compiles");
    let run = |binary: bool| {
        let ctx = AnalysisCtx::session();
        let _guard = ctx.enter();
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
    [("fig4 text", run(false)), ("fig4 binary", run(true))]
}

#[test]
fn in_memory_records_and_stream_reach_the_same_outcome() {
    // Every corpus file and fig4 in both formats, with no ceiling and
    // under `trace-bytes` ceilings around the header, the string tables
    // and the 64 KiB read window: `records()` and `stream()` over the same
    // bytes deliver the same records or fail with the same error.
    let mut inputs: Vec<(String, Vec<u8>)> = corpus_files()
        .into_iter()
        .map(|p| (p.display().to_string(), std::fs::read(&p).unwrap()))
        .collect();
    inputs.extend(fig4_traces().map(|(name, bytes)| (name.to_string(), bytes)));
    let ceilings = [1, 24, 1000, 1983, 4096, 65536, 65537].map(Some);
    let mut cases = 0;
    for (name, bytes) in &inputs {
        for ceiling in [None].into_iter().chain(ceilings) {
            let ctx = || {
                let limits = ceiling.map_or(ResourceLimits::new(), |c| {
                    ResourceLimits::new().max_trace_bytes(c)
                });
                AnalysisCtx::session().untrusted().with_limits(limits)
            };
            let outcome = |r: Result<Vec<Record>, TraceReadError>| match r {
                Ok(records) => format!("ok:{}", records.len()),
                Err(e) => format!("err:{e}"),
            };
            let records = outcome(TraceSource::from_bytes(bytes).ctx(&ctx()).records());
            let stream = outcome(
                TraceSource::from_bytes(bytes)
                    .ctx(&ctx())
                    .stream()
                    .and_then(|s| s.collect()),
            );
            assert_eq!(records, stream, "{name} under trace-bytes {ceiling:?}");
            cases += 1;
        }
    }
    assert_eq!(cases, 8 * inputs.len());
}

#[test]
fn lying_binary_headers_do_not_drive_allocation() {
    // The header claims u64::MAX records over ~5 KiB of body. A byte
    // ceiling far below any such allocation must be enough: the read is
    // bounded by real input size, and the failure is typed.
    let path = corpus_dir().join("lying_header.bin");
    let ctx = AnalysisCtx::session()
        .untrusted()
        .with_limits(ResourceLimits::new().max_trace_bytes(1 << 20));
    let err = TraceSource::from_path(&path)
        .ctx(&ctx)
        .records()
        .expect_err("the record shortfall is an error");
    assert!(!err.to_string().is_empty());
}

#[test]
fn bitflip_under_a_byte_ceiling_reports_the_decode_error() {
    // The flipped tag sits at byte 322 of a 4,910-byte file. A reader that
    // reads ahead must stop at the 1,000-byte ceiling rather than cross it,
    // or the run reports `trace-bytes 1001 > limit 1000` instead.
    let bytes = std::fs::read(corpus_dir().join("bitflip.bin")).unwrap();
    let ctx = AnalysisCtx::session()
        .untrusted()
        .with_limits(ResourceLimits::new().max_trace_bytes(1000));
    let err = StreamAnalyzer::new(Region::new("main", 3, 6))
        .with_ctx(ctx)
        .run_read(&bytes[..])
        .expect_err("the flipped tag is an error");
    assert_eq!(
        err.to_string(),
        "binary trace error at byte 322: unknown operand tag kind 16"
    );
}

#[test]
fn seeded_faults_over_well_formed_traces_stay_typed() {
    // Perturb the well-formed corpus file under 64 deterministic fault
    // plans, through both front doors. Whatever the fault, the outcome is
    // Ok or a typed error — and the same seed gives the same outcome.
    let bytes = std::fs::read(corpus_dir().join("adversarial_symbols.txt")).unwrap();
    for seed in 0..64u64 {
        let outcome = |()| -> String {
            let ctx = untrusted_ctx();
            let plan = FaultPlan::from_seed(seed, bytes.len() as u64);
            let result = TraceSource::from_reader(plan.reader(&bytes[..]))
                .ctx(&ctx)
                .records();
            match result {
                Ok(recs) => format!("ok:{}", recs.len()),
                Err(e) => format!("err:{e}"),
            }
        };
        let first = outcome(());
        let second = outcome(());
        // Injected-error text embeds only seed/offset, so equality here
        // means the whole pipeline is deterministic under a given plan.
        assert_eq!(first, second, "seed {seed} diverged");

        // Stream front door under the same plan.
        let ctx = untrusted_ctx();
        let _guard = ctx.enter();
        let plan = FaultPlan::from_seed(seed, bytes.len() as u64);
        let analyzer = StreamAnalyzer::new(Region::new("main", 3, 6)).with_ctx(ctx.clone());
        let _ = analyzer.run_read(plan.reader(&bytes[..]));
    }
}
