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
use autocheck_trace::{AnalysisCtx, FaultPlan, ResourceKind, ResourceLimits, TraceSource};
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

/// One batch-ingest outcome, rendered for cross-depth comparison: the
/// record count on success, the full diagnostic on failure. Overlapped
/// ingest must reproduce the serial outcome byte for byte — same typed
/// error, same message, same record count.
fn batch_outcome(result: Result<Vec<autocheck_trace::Record>, impl std::fmt::Display>) -> String {
    match result {
        Ok(recs) => format!("ok:{}", recs.len()),
        Err(e) => format!("err:{e}"),
    }
}

#[test]
fn overlapped_batch_ingest_matches_serial_over_the_corpus() {
    // Every hostile file, at every decode-ahead depth: the outcome —
    // success or typed diagnostic — is byte-identical to the serial path.
    for path in corpus_files() {
        let run = |depth: usize| {
            let ctx = untrusted_ctx();
            batch_outcome(
                TraceSource::from_path(&path)
                    .ctx(&ctx)
                    .overlap(depth)
                    .records(),
            )
        };
        let serial = run(1);
        for depth in [2, 4] {
            assert_eq!(
                run(depth),
                serial,
                "{}: overlap {depth} diverged from serial",
                path.display()
            );
        }
    }
}

#[test]
fn overlapped_streaming_survives_the_corpus_with_serial_error_classes() {
    // The streaming front door under overlap: success renders the
    // identical report; failure lands in the same typed error class the
    // serial stream produces. (Exact error text is not compared here —
    // the serial stream reads in small chunks while the pipeline reads in
    // windows, so byte counters embedded in resource diagnostics may
    // legitimately differ.)
    for path in corpus_files() {
        let bytes = std::fs::read(&path).expect("corpus file readable");
        let run = |depth: usize| {
            let ctx = untrusted_ctx();
            let _guard = ctx.enter();
            let analyzer = StreamAnalyzer::new(Region::new("main", 3, 6))
                .with_config(StreamConfig {
                    overlap: depth,
                    ..StreamConfig::default()
                })
                .with_ctx(ctx.clone());
            match analyzer.analyze_read(&bytes[..]) {
                Ok(report) => format!("ok:{report}"),
                Err(StreamError::Source(_)) => "err:source".to_string(),
                Err(StreamError::Resource(_)) => "err:resource".to_string(),
                Err(StreamError::LiveBound(_)) => "err:livebound".to_string(),
            }
        };
        let serial = run(1);
        for depth in [2, 4] {
            assert_eq!(
                run(depth),
                serial,
                "{}: streaming overlap {depth} diverged from serial",
                path.display()
            );
        }
    }
}

#[test]
fn seeded_faults_stay_typed_and_match_serial_under_overlap() {
    // The PR 8 fault harness, pointed at the decode-ahead pipeline:
    // 64 deterministic plans of short reads, injected I/O errors,
    // truncation, and bit flips, each run serially and at overlap 2 and 4.
    // A fault that hits the producer thread must surface to the consumer
    // as the same typed error the serial path reports — never a poisoned
    // channel, never a panic.
    let bytes = std::fs::read(corpus_dir().join("adversarial_symbols.txt")).unwrap();
    for seed in 0..64u64 {
        let batch = |depth: usize| {
            let ctx = untrusted_ctx();
            let plan = FaultPlan::from_seed(seed, bytes.len() as u64);
            batch_outcome(
                TraceSource::from_reader(plan.reader(&bytes[..]))
                    .ctx(&ctx)
                    .overlap(depth)
                    .records(),
            )
        };
        let serial = batch(1);
        for depth in [2, 4] {
            assert_eq!(
                batch(depth),
                serial,
                "seed {seed}: batch overlap {depth} diverged from serial"
            );
        }

        // Streaming front door under the same plan and depths: identical
        // report on success, same error class on failure.
        let stream = |depth: usize| {
            let ctx = untrusted_ctx();
            let _guard = ctx.enter();
            let plan = FaultPlan::from_seed(seed, bytes.len() as u64);
            let analyzer = StreamAnalyzer::new(Region::new("main", 3, 6))
                .with_config(StreamConfig {
                    overlap: depth,
                    ..StreamConfig::default()
                })
                .with_ctx(ctx.clone());
            match analyzer.analyze_read(plan.reader(&bytes[..])) {
                Ok(report) => format!("ok:{report}"),
                Err(StreamError::Source(_)) => "err:source".to_string(),
                Err(StreamError::Resource(_)) => "err:resource".to_string(),
                Err(StreamError::LiveBound(_)) => "err:livebound".to_string(),
            }
        };
        let stream_serial = stream(1);
        for depth in [2, 4] {
            assert_eq!(
                stream(depth),
                stream_serial,
                "seed {seed}: streaming overlap {depth} diverged from serial"
            );
        }
    }
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
