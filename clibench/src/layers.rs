//! The traced run: in-process, on one thread, over the set-up's traces.
//! Each layer's public entry point is called on its own inside a span, so
//! its time, and for ingest its allocations, can be read off alone.
//!
//! | span | public call |
//! |---|---|
//! | `trace.read` | `std::fs::read` (the I/O floor) |
//! | `trace.decode` | `TraceSource::from_bytes(b).records()` |
//! | `trace.ingest` | `TraceSource::from_path(p).records()` |
//! | `core.region` | `Phases::compute_in` |
//! | `core.mli` | `preprocess::find_mli_vars_in` |
//! | `core.ddg` | `DdgAnalysis::fold_in`, folding `VarStatsBuilder`s in its callback |
//! | `core.contract` | `contract_for_mli` |
//! | `core.classify` | `decide` over the MLI set |
//! | `stream.push` / `stream.finish` | `StreamSession::push` over the records, then `finish` |
//! | `trace.drop` | dropping the `Vec<Record>` |
//! | `core.analyze_path` | `Analyzer::analyze_path` at library defaults |
//! | `core.render` | `Report`'s `Display` |
//! | `trace.stream` | draining `TraceSource::from_path(p).stream()` |
//! | `stream.run_read` | `StreamAnalyzer::run_read` over the file |
//! | `service.run` | `MultiAnalyzer::run` over every analysis |
//!
//! Every top-level call gets a fresh symbol session, as a new `autocheck`
//! process would.

use crate::alloc;
use crate::spans::Spans;
use crate::workload::Analysis;
use autocheck_core::preprocess::find_mli_vars_in;
use autocheck_core::{
    capture_ledger, contract_for_mli, decide, AnalysisJob, Analyzer, CollectMode, DdgAnalysis,
    DdgOptions, DepType, JobInput, MultiAnalyzer, Phase, Phases, Report, RwKind, StreamAnalyzer,
    VarStatsBuilder,
};
use autocheck_obs::{CounterId, GaugeId, Metrics};
use autocheck_trace::{AnalysisCtx, TraceSource};
use std::collections::BTreeMap;
use std::io::BufReader;

/// Per-layer sums over one pass (over every analysis of the workload).
pub type PassSums = BTreeMap<&'static str, f64>;

/// The spans whose sum is the in-process cost of one default `autocheck`
/// analysis: what is left of the end-to-end time is `unattributed_s`.
pub const BATCH_LAYERS: [&str; 8] = [
    "trace.ingest",
    "core.region",
    "core.mli",
    "core.ddg",
    "core.contract",
    "core.classify",
    "core.render",
    "trace.drop",
];

/// One pass over the workload's analyses. Failures of the library calls or
/// of their output check come back as messages naming the analysis.
pub fn pass(analyses: &[Analysis], spans: &mut Spans) -> (PassSums, Vec<String>) {
    let mut sums = PassSums::new();
    let mut failures = Vec::new();
    let mut records = 0u64;
    let mut allocs = alloc::Count::default();
    for a in analyses {
        let span = spans.open(&format!("analysis {}", a.name));
        match analysis(a, spans, &mut sums) {
            Ok(count) => {
                records += a.records;
                allocs.allocs += count.allocs;
                allocs.bytes += count.bytes;
            }
            Err(e) => failures.push(format!("{}: {e}", a.name)),
        }
        spans.close(span);
    }
    if let Err(e) = service(analyses, spans, &mut sums) {
        failures.push(format!("service: {e}"));
    }
    let per_record = |n: u64| n as f64 / records.max(1) as f64;
    sums.insert("trace.allocs_per_record", per_record(allocs.allocs));
    sums.insert("trace.alloc_bytes_per_record", per_record(allocs.bytes));
    (sums, failures)
}

/// Time `f` as span `name` and add its seconds to `sums[name]`.
fn timed<T>(
    spans: &mut Spans,
    sums: &mut PassSums,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let (out, secs) = spans.time(name, || {
        let out = f();
        settle();
        out
    });
    *sums.entry(name).or_insert(0.0) += secs;
    out
}

/// One 4 KiB allocation. glibc defers part of `free` (consolidating the
/// freed chunks) to the next large-enough `malloc`; ending every span with
/// one makes that cost land in the span that freed the memory, not in
/// whichever span allocates next.
fn settle() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(4096)));
}

/// A fresh symbol session, current on this thread while `f` runs (report
/// ordering and rendering resolve symbols through the current space).
fn in_session<T>(metrics: bool, f: impl FnOnce(&AnalysisCtx) -> T) -> T {
    let mut ctx = AnalysisCtx::session();
    if metrics {
        ctx = ctx.with_metrics(Metrics::enabled());
    }
    let _guard = ctx.enter();
    f(&ctx)
}

fn analysis(a: &Analysis, spans: &mut Spans, sums: &mut PassSums) -> Result<alloc::Count, String> {
    let region = &a.spec.region;

    let bytes = timed(spans, sums, "trace.read", || std::fs::read(&a.trace))
        .map_err(|e| format!("read: {e}"))?;
    let decoded = in_session(false, |ctx| {
        timed(spans, sums, "trace.decode", || {
            TraceSource::from_bytes(&bytes).ctx(ctx).records()
        })
    })
    .map_err(|e| format!("decode: {e}"))?;
    check_count("decode", decoded.len() as u64, a.records)?;
    drop((decoded, bytes));
    settle();

    let count = in_session(false, |ctx| stages(a, ctx, spans, sums))?;

    let (report, rendered) = in_session(false, |ctx| {
        let report = timed(spans, sums, "core.analyze_path", || {
            Analyzer::new(region.clone())
                .with_index_vars(a.index.clone())
                .with_ctx(ctx.clone())
                .analyze_path(&a.trace)
        });
        report.map(|r| {
            let rendered = timed(spans, sums, "core.render", || r.to_string());
            (r, rendered)
        })
    })
    .map_err(|e| format!("analyze_path: {e}"))?;
    check_report("analyze_path", a, &report)?;

    let drained = in_session(false, |ctx| {
        timed(spans, sums, "trace.stream", || {
            TraceSource::from_path(&a.trace)
                .ctx(ctx)
                .stream()
                .and_then(|mut s| s.try_fold(0u64, |n, r| r.map(|_| n + 1)))
        })
    })
    .map_err(|e| format!("stream: {e}"))?;
    check_count("stream", drained, a.records)?;

    let file = std::fs::File::open(&a.trace).map_err(|e| format!("open: {e}"))?;
    let run = in_session(false, |ctx| {
        timed(spans, sums, "stream.run_read", || {
            StreamAnalyzer::new(region.clone())
                .with_index_vars(a.index.clone())
                .with_ctx(ctx.clone())
                .run_read(BufReader::new(file))
        })
        .map(|run| (run.report.to_string(), run))
    })
    .map_err(|e| format!("run_read: {e}"))?;
    check_report("run_read", a, &run.1.report)?;
    if run.0 != rendered {
        return Err("run_read report differs from analyze_path's".into());
    }
    let peak = sums.entry("stream.live_records_peak").or_insert(0.0);
    *peak = peak.max(run.1.stats.peak_live_records as f64);
    Ok(count)
}

/// Ingest, then each batch stage on its own, then the streaming session
/// over the same records, then drop them. Returns ingest's allocations.
fn stages(
    a: &Analysis,
    ctx: &AnalysisCtx,
    spans: &mut Spans,
    sums: &mut PassSums,
) -> Result<alloc::Count, String> {
    let region = &a.spec.region;
    let (records, count) = timed(spans, sums, "trace.ingest", || {
        alloc::counted(|| TraceSource::from_path(&a.trace).ctx(ctx).records())
    });
    let records = records.map_err(|e| format!("ingest: {e}"))?;
    check_count("ingest", records.len() as u64, a.records)?;
    let phases = timed(spans, sums, "core.region", || {
        Phases::compute_in(&records, region, ctx)
    });
    let mli = timed(spans, sums, "core.mli", || {
        find_mli_vars_in(&records, &phases, region, CollectMode::AnyAccess, ctx)
    });
    let mut stats = ctx.addr_map::<u64, VarStatsBuilder>();
    let graph = timed(spans, sums, "core.ddg", || {
        let seed = ctx.addr_seed();
        let opts = DdgOptions {
            retain_events: false,
            ..DdgOptions::default()
        };
        DdgAnalysis::fold_in(&records, &phases, &mli, opts, ctx, |e| {
            let b = stats
                .entry(e.base)
                .or_insert_with(|| VarStatsBuilder::with_seed(seed));
            match (e.phase, e.kind) {
                (Phase::Inside, kind) => b.feed_inside(e.iter, e.elem, kind == RwKind::Write),
                (Phase::After, RwKind::Read) => b.feed_after_read(),
                _ => {}
            }
        })
    });
    let contracted = timed(spans, sums, "core.contract", || {
        contract_for_mli(&graph, &mli)
    });
    let decisions = timed(spans, sums, "core.classify", || {
        mli.iter()
            .map(|v| {
                let st = stats.remove(&v.base_addr).map(|b| b.finish());
                decide(&st.unwrap_or_default(), v.size)
            })
            .collect::<Vec<_>>()
    });
    drop((phases, graph, contracted, decisions));

    let mut session = StreamAnalyzer::new(region.clone())
        .with_index_vars(a.index.clone())
        .with_ctx(ctx.clone())
        .session();
    timed(spans, sums, "stream.push", || {
        records.iter().try_for_each(|r| session.push(r))
    })
    .map_err(|e| format!("stream push: {e}"))?;
    let pushed = timed(spans, sums, "stream.finish", || session.finish());
    timed(spans, sums, "trace.drop", || drop(records));
    check_report("stream push", a, &pushed.report)?;
    Ok(count)
}

/// `MultiAnalyzer::run` over every analysis, one worker, as
/// `autocheck --batch` runs a manifest by default.
fn service(analyses: &[Analysis], spans: &mut Spans, sums: &mut PassSums) -> Result<(), String> {
    let jobs: Vec<AnalysisJob> = analyses
        .iter()
        .map(|a| {
            let input = JobInput::TracePath(a.trace.to_string_lossy().into_owned());
            AnalysisJob::new(a.name.clone(), input, a.spec.region.clone())
                .with_index_vars(a.index.clone())
        })
        .collect();
    let out = timed(spans, sums, "service.run", || {
        MultiAnalyzer::new(1).run(jobs)
    });
    if let Some(f) = out.failures.first() {
        return Err(format!("{}: {}", f.name, f.message));
    }
    for (s, a) in out.sessions.iter().zip(analyses) {
        check_summary(&s.name, a, &s.summary, s.records)?;
    }
    let walls: Vec<f64> = out.sessions.iter().map(|s| s.wall.as_secs_f64()).collect();
    sums.insert("service.session_wall_p50_s", crate::stats::median(&walls));
    sums.insert(
        "service.session_wall_max_s",
        walls.iter().copied().fold(0.0, f64::max),
    );
    Ok(())
}

fn check_count(what: &str, got: u64, expected: u64) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: {got} records, the tracer wrote {expected}"
        ))
    }
}

fn check_report(what: &str, a: &Analysis, r: &Report) -> Result<(), String> {
    check_summary(what, a, &r.summary(), r.records)
}

/// The critical set must be the app's expected one, and every record the
/// tracer wrote must have been analyzed.
fn check_summary(
    what: &str,
    a: &Analysis,
    summary: &[(String, DepType)],
    records: u64,
) -> Result<(), String> {
    let got: Vec<(String, String)> = summary
        .iter()
        .map(|(n, d)| (n.clone(), d.to_string()))
        .collect();
    if got != a.expected() {
        return Err(format!("{what}: critical set {got:?}"));
    }
    check_count(what, records, a.records)
}

/// Ledger counts of one batch (`analyze_path`) and one streaming
/// (`run_read`) analysis of every trace, with metrics on, summed over the
/// workload. They must repeat exactly.
pub fn ledger_counts(analyses: &[Analysis]) -> Result<BTreeMap<&'static str, u64>, String> {
    let mut out = BTreeMap::new();
    for a in analyses {
        let batch = in_session(true, |ctx| {
            Analyzer::new(a.spec.region.clone())
                .with_index_vars(a.index.clone())
                .with_ctx(ctx.clone())
                .analyze_path(&a.trace)
                .map(|_| capture_ledger(&a.name, ctx))
        })
        .map_err(|e| format!("{}: {e}", a.name))?;
        let file = std::fs::File::open(&a.trace).map_err(|e| format!("{}: {e}", a.name))?;
        let stream = in_session(true, |ctx| {
            StreamAnalyzer::new(a.spec.region.clone())
                .with_index_vars(a.index.clone())
                .with_ctx(ctx.clone())
                .run_read(BufReader::new(file))
                .map(|_| capture_ledger(&a.name, ctx))
        })
        .map_err(|e| format!("{}: {e}", a.name))?;
        for (name, n) in [
            (
                "engine.access_events",
                stream.counter(CounterId::AccessEvents),
            ),
            ("ddg.nodes", batch.gauge(GaugeId::DdgNodes).0),
            ("ddg.edges", batch.gauge(GaugeId::DdgEdges).0),
            (
                "ddg.contracted_nodes",
                batch.gauge(GaugeId::ContractedNodes).0,
            ),
            (
                "contract.worklist_steps",
                batch.counter(CounterId::ContractWorklistSteps),
            ),
            ("intern.symbols", batch.gauge(GaugeId::Symbols).0),
            (
                "ingest.records",
                batch.counter(CounterId::IngestRecordsText)
                    + batch.counter(CounterId::IngestRecordsBinary),
            ),
        ] {
            *out.entry(name).or_insert(0) += n;
        }
    }
    Ok(out)
}
