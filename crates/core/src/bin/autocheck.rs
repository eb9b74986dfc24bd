//! The AutoCheck command-line tool — the interface described in the
//! paper's §VII "Use of AutoCheck".
//!
//! Inputs: (1) a dynamic execution trace file, (2) the main computation
//! loop's function and start/end line numbers, and optionally (3) the
//! loop's index variables (the paper gets them from an LLVM loop pass; the
//! `mlc` tool prints them for MiniLang programs). Output: the variables to
//! checkpoint, each with its dependency type and location.
//!
//! ```text
//! autocheck <trace-file> --function main --start 13 --end 21 \
//!     [--index it,step] [--threads N] [--shards N] [--overlap N] [--dot out.dot] \
//!     [--collect arithmetic] [--stream] [--max-live-records N] [--untrusted-trace] \
//!     [--metrics out.json]
//! autocheck --batch <manifest> [--jobs N] [--shards N] [--overlap N] [--stream] \
//!     [--untrusted-trace] [--metrics out.json]
//! ```
//!
//! Every analysis is one pass of the bounded-memory streaming engine: the
//! file is pulled chunk by chunk and per-iteration analysis state is
//! retired at iteration boundaries, so a run holds the live window, not the
//! trace. The default mode prints the Table III timing footer. `--stream`
//! prints the same report with a footer showing the peak live-record
//! count, so the memory bound is observable; `--max-live-records N` turns
//! that bound into a hard limit (exceeding it is an error, not an OOM).
//! Both modes fail with the same diagnostic. `--dot` renders the
//! contracted DDG: by default it re-reads the trace and folds it through
//! the staged batch passes (their node numbering); with `--stream` the
//! engine contracts its own frozen DDG at finish (the graph is
//! program-bounded, so the memory story is unchanged).
//!
//! `--batch <manifest>` runs many analyses concurrently, each in its own
//! session (own symbol space, own seeded hashers when `--untrusted-trace`
//! is set), on `--jobs N` worker threads. Each manifest line names one
//! analysis:
//!
//! ```text
//! # trace-file  function  start  end  [index,vars]
//! traces/cg.trace   main  13  21  it
//! traces/hpccg.trace main 9   17
//! ```
//!
//! Per-session reports, timings and (with `--stream`) peak-live windows
//! are printed for **every** session, followed by an aggregate summary.
//!
//! `--untrusted-trace` marks the trace source as third-party: every map
//! keyed by trace-supplied addresses hashes with a per-session random
//! seed, so a crafted trace cannot exploit deterministic FxHash.
//!
//! `--limit <kind>=<N>` (repeatable) puts hard ceilings on session
//! resources — `trace-records`, `trace-bytes`, `symbols`, `arena-bytes`,
//! `ddg-nodes`, `ddg-edges`, `live-records`. A crossed ceiling is a clean
//! one-line `error:` diagnostic and a nonzero exit, never an OOM; in
//! `--batch` mode the limits apply per session, so one tenant tripping its
//! quota cannot disturb the other sessions' reports.
//!
//! `--shards N` splits the trace into at most `N` iteration-aligned shards
//! analyzed on worker threads and deterministically merged — the report and
//! DOT output are byte-identical to a serial run. `0` = auto uses one shard
//! per available core; `--shards 1` forces the serial path. Left unset, it
//! is serial in every mode: a sharded run reads the whole file into
//! memory, giving up the live-window bound.
//! Works in batch, `--stream`, and `--batch` manifest modes; binary traces
//! carrying the v2 iteration-index footer shard without a planning
//! pre-scan. Resource ceilings still apply to the merged session state.
//!
//! `--overlap N` overlaps trace ingest with analysis: the file is read and
//! decoded on background threads, `N` record batches ahead of the fold,
//! through a bounded channel and a recycled buffer pool (file ingest stays
//! O(window) resident). Reports, DOT and exit codes are byte-identical to
//! serial at every depth; only the wall clock changes. `0` = auto picks a
//! depth from the core count (single-CPU hosts short-circuit to the serial
//! path) and `--overlap 1` forces serial. Left unset, it is serial in
//! every mode. Composes with `--shards` (overlap feeds the
//! materialization in front of the sharded fold) and works in batch,
//! `--stream`, and `--batch` modes.
//!
//! Neither pays on a 2-vCPU host: measured end to end, decode-ahead gave a
//! 0.87–0.96× speedup over serial and sharding 0.96–1.02×.
//!
//! `--metrics <file|->` turns on the observability layer: the session runs
//! with a metrics registry (counters, gauges, stage timers, histograms)
//! and its versioned JSON run ledger is written to the file (`-` prints a
//! human-readable table instead). In `--batch` mode every session gets its
//! own registry and the output is the aggregated batch ledger: batch-level
//! queue/flight stats plus one ledger per session. Metrics never change
//! analysis output — reports and DOT are byte-identical either way.

use autocheck_core::{
    capture_ledger, contract_for_mli, Analyzer, CollectMode, DdgAnalysis, Phases, PipelineConfig,
    Region, StreamAnalyzer, StreamConfig,
};
use autocheck_obs::Metrics;
use autocheck_trace::{parse_limit_arg, AnalysisCtx, ResourceLimits};
use std::process::ExitCode;

struct Args {
    trace: String,
    function: String,
    start: u32,
    end: u32,
    index: Vec<String>,
    threads: usize,
    dot: Option<String>,
    collect: CollectMode,
    stream: bool,
    max_live_records: Option<usize>,
    untrusted: bool,
    limits: ResourceLimits,
    batch: Option<String>,
    jobs: usize,
    metrics: Option<String>,
    shards: usize,
    overlap: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: autocheck <trace-file> --function <name> --start <line> --end <line>\n\
         \x20                [--index v1,v2] [--threads N] [--shards N] [--overlap N] [--dot <file>]\n\
         \x20                [--collect any|arithmetic] [--stream] [--max-live-records N]\n\
         \x20                [--untrusted-trace] [--metrics <file|->] [--limit <kind>=<N>]...\n\
         \x20      autocheck --batch <manifest> [--jobs N] [--shards N] [--overlap N] [--stream]\n\
         \x20                [--untrusted-trace] [--metrics <file|->] [--limit <kind>=<N>]...\n\
         \x20                (--shards: iteration-aligned trace shards; 0 = auto, 1 = serial)\n\
         \x20                (--overlap: decode-ahead ingest depth; 0 = auto, 1 = serial)\n\
         \x20                (both default to serial)\n\
         \x20                (manifest lines: <trace-file> <function> <start> <end> [index,vars])\n\
         \x20                (--limit kinds: trace-records, trace-bytes, symbols, arena-bytes,\n\
         \x20                 ddg-nodes, ddg-edges, live-records; repeatable, applies per session)"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut trace = None;
    let mut function = "main".to_string();
    let mut function_set = false;
    let (mut start, mut end) = (0u32, 0u32);
    let mut index = Vec::new();
    let mut threads = 1usize;
    let mut threads_set = false;
    let mut dot = None;
    let mut collect = CollectMode::AnyAccess;
    let mut stream = false;
    let mut max_live_records = None;
    let mut untrusted = false;
    let mut limits = ResourceLimits::default();
    let mut batch = None;
    let mut jobs = 1usize;
    let mut metrics = None;
    // Unset: serial (see `concurrency`).
    let mut shards = None;
    let mut overlap = None;
    while let Some(a) = args.next() {
        let mut take = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--function" | "-f" => {
                function = take();
                function_set = true;
            }
            "--start" | "-s" => start = take().parse().unwrap_or_else(|_| usage()),
            "--end" | "-e" => end = take().parse().unwrap_or_else(|_| usage()),
            "--index" | "-i" => index = take().split(',').map(|s| s.trim().to_string()).collect(),
            "--threads" | "-t" => {
                threads = take().parse().unwrap_or_else(|_| usage());
                threads_set = true;
            }
            "--dot" => dot = Some(take()),
            "--collect" => {
                collect = match take().as_str() {
                    "any" => CollectMode::AnyAccess,
                    "arithmetic" => CollectMode::Arithmetic,
                    _ => usage(),
                }
            }
            "--stream" => stream = true,
            "--max-live-records" => {
                max_live_records = Some(take().parse().unwrap_or_else(|_| usage()))
            }
            "--untrusted-trace" => untrusted = true,
            "--limit" => match parse_limit_arg(&take()) {
                Ok((kind, n)) => limits = limits.set(kind, n),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            },
            "--metrics" => metrics = Some(take()),
            "--shards" => shards = Some(take().parse().unwrap_or_else(|_| usage())),
            "--overlap" => overlap = Some(take().parse().unwrap_or_else(|_| usage())),
            "--batch" => batch = Some(take()),
            "--jobs" | "-j" => jobs = take().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other if trace.is_none() && !other.starts_with('-') => trace = Some(a),
            _ => usage(),
        }
    }
    let shards = concurrency(shards);
    let overlap = concurrency(overlap);
    if let Some(batch) = batch {
        if trace.is_some()
            || start != 0
            || end != 0
            || dot.is_some()
            || function_set
            || !index.is_empty()
            || threads_set
        {
            eprintln!(
                "error: --batch takes every per-analysis setting from the manifest; \
                 positional trace, --function, --start/--end, --index, --threads and \
                 --dot do not apply"
            );
            std::process::exit(2);
        }
        return Args {
            trace: String::new(),
            function,
            start,
            end,
            index,
            threads,
            dot: None,
            collect,
            stream,
            max_live_records,
            untrusted,
            limits,
            batch: Some(batch),
            jobs,
            metrics,
            shards,
            overlap,
        };
    }
    let Some(trace) = trace else { usage() };
    if start == 0 || end < start {
        eprintln!("error: --start/--end are required and must satisfy start <= end");
        std::process::exit(2);
    }
    if max_live_records.is_some() && !stream {
        eprintln!("error: --max-live-records only applies to --stream mode");
        std::process::exit(2);
    }
    if threads_set && stream {
        eprintln!("error: --threads does not apply to --stream mode (single online pass)");
        std::process::exit(2);
    }
    Args {
        trace,
        function,
        start,
        end,
        index,
        threads,
        dot,
        collect,
        stream,
        max_live_records,
        untrusted,
        limits,
        batch: None,
        jobs,
        metrics,
        shards,
        overlap,
    }
}

/// `--shards` or `--overlap` as given, or 1 (serial) when unset, in every
/// mode; an explicit 0 still means auto. More than one shard reads the
/// whole trace into memory, which gives up the live-window bound, and on a
/// 2-vCPU host neither sharding nor decode-ahead pays.
fn concurrency(flag: Option<usize>) -> usize {
    flag.unwrap_or(1)
}

/// Parse a batch manifest: one analysis per non-comment line, formatted as
/// `<trace-file> <function> <start> <end> [index,vars]`.
fn parse_manifest(path: &str, args: &Args) -> Result<Vec<autocheck_core::AnalysisJob>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut jobs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 4 || fields.len() > 5 {
            return Err(format!(
                "{path}:{}: expected `<trace-file> <function> <start> <end> [index,vars]`",
                lineno + 1
            ));
        }
        let start: u32 = fields[2]
            .parse()
            .map_err(|_| format!("{path}:{}: bad start line `{}`", lineno + 1, fields[2]))?;
        let end: u32 = fields[3]
            .parse()
            .map_err(|_| format!("{path}:{}: bad end line `{}`", lineno + 1, fields[3]))?;
        if start == 0 || end < start {
            return Err(format!(
                "{path}:{}: start/end must satisfy 1 <= start <= end",
                lineno + 1
            ));
        }
        let name = std::path::Path::new(fields[0])
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(fields[0])
            .to_string();
        let mut job = autocheck_core::AnalysisJob::new(
            name,
            autocheck_core::JobInput::TracePath(fields[0].to_string()),
            Region::new(fields[1], start, end),
        )
        .untrusted(args.untrusted)
        .streaming(args.stream)
        .with_limits(args.limits)
        .with_shards(args.shards)
        .with_overlap(args.overlap);
        job.collect = args.collect;
        job.max_live_records = args.max_live_records;
        if let Some(ix) = fields.get(4) {
            job = job.with_index_vars(ix.split(',').map(|s| s.trim().to_string()).collect());
        }
        jobs.push(job);
    }
    if jobs.is_empty() {
        return Err(format!("{path}: manifest names no analyses"));
    }
    Ok(jobs)
}

/// Emit a rendered metrics artifact: `-` prints the human-readable table,
/// anything else gets the versioned JSON.
fn emit_metrics(path: &str, table: String, json: String) -> bool {
    if path == "-" {
        println!("{table}");
    } else if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: cannot write `{path}`: {e}");
        return false;
    } else {
        println!("run ledger written to {path}");
    }
    true
}

/// `--batch`: run every manifest analysis in its own session, concurrently
/// on `--jobs` workers, reporting peak-live and timings per session.
fn run_batch(args: &Args, manifest: &str) -> ExitCode {
    let jobs = match parse_manifest(manifest, args) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let n = jobs.len();
    let out = autocheck_core::MultiAnalyzer::new(args.jobs)
        .with_metrics(args.metrics.is_some())
        .run(jobs);
    for s in &out.sessions {
        println!("=== {} ===", s.name);
        print!("{}", s.rendered);
        println!(
            "timings: preprocess {:.3?}, dependency {:.3?}, identify {:.3?}, contract {:.3?} \
             (total {:.3?}; wall {:.3?})",
            s.timings.preprocess,
            s.timings.dependency,
            s.timings.identify,
            s.timings.contract,
            s.timings.total(),
            s.wall
        );
        match s.peak_live_records {
            Some(peak) => println!(
                "session: {} symbols; streaming peak {} live records of {} total",
                s.symbols, peak, s.records
            ),
            None => println!("session: {} symbols", s.symbols),
        }
        println!();
    }
    for f in &out.failures {
        eprintln!("error: {}: {}", f.name, f.message);
    }
    println!(
        "=== aggregate ({} analyses, {} workers{}) ===",
        n,
        out.jobs,
        if args.untrusted {
            ", untrusted: per-session seeded hashing"
        } else {
            ""
        }
    );
    print!("{}", out.aggregate());
    if let (Some(path), Some(ledger)) = (&args.metrics, &out.ledger) {
        if !emit_metrics(path, ledger.render_table(), ledger.to_json()) {
            return ExitCode::FAILURE;
        }
    }
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_streaming(args: &Args, region: &Region, ctx: &AnalysisCtx) -> ExitCode {
    let analyzer = StreamAnalyzer::new(region.clone())
        .with_index_vars(args.index.clone())
        .with_config(StreamConfig {
            collect: args.collect,
            max_live_records: args.max_live_records,
            contracted_dot: args.dot.is_some(),
            shards: args.shards,
            overlap: args.overlap,
            ..StreamConfig::default()
        })
        .with_ctx(ctx.clone());
    let run = match analyzer.run_path(&args.trace) {
        Ok(r) => r,
        Err(e) => return fail(args, ctx, e),
    };
    println!("{}", run.report);
    if let (Some(dot_path), Some(dot)) = (&args.dot, &run.contracted_dot) {
        if let Err(e) = std::fs::write(dot_path, dot) {
            eprintln!("error: cannot write `{dot_path}`: {e}");
            return ExitCode::FAILURE;
        }
        println!("contracted DDG (streaming) written to {dot_path}");
    }
    println!(
        "timings: ingest {:.3?}, identify {:.3?}, contract {:.3?} (total {:.3?}; single online pass)",
        run.report.timings.preprocess,
        run.report.timings.identify,
        run.report.timings.contract,
        run.report.timings.total()
    );
    let bound = match run.stats.live_bound {
        Some(b) => format!("{b}"),
        None => "unbounded".to_string(),
    };
    println!(
        "streaming: peak {} live records of {} total (bound: {}); ddg {} nodes / {} edges",
        run.stats.peak_live_records,
        run.report.records,
        bound,
        run.stats.ddg_nodes,
        run.stats.ddg_edges
    );
    if let Some(path) = &args.metrics {
        let ledger = capture_ledger(session_name(&args.trace), ctx);
        if !emit_metrics(path, ledger.render_table(), ledger.to_json()) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// One-line diagnostic + nonzero exit for a failed single analysis. The
/// metrics artifact is still emitted so a tripped ceiling shows up in the
/// ledger (`session.limit_exceeded`), not just on stderr.
fn fail(args: &Args, ctx: &AnalysisCtx, e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {e}");
    if let Some(path) = &args.metrics {
        let ledger = capture_ledger(session_name(&args.trace), ctx);
        emit_metrics(path, ledger.render_table(), ledger.to_json());
    }
    ExitCode::FAILURE
}

/// The ledger's session name: the trace file's stem, like batch manifests.
fn session_name(trace: &str) -> &str {
    std::path::Path::new(trace)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(trace)
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(manifest) = args.batch.clone() {
        return run_batch(&args, &manifest);
    }
    // Single-analysis mode still gets a session scope when the trace is
    // third-party (fresh symbol space + seeded address hashing) — and also
    // whenever a symbol/arena ceiling is set: those are measured against
    // the session's own space, and the global space counts the whole
    // process (its `owned_bytes` never reclaims), which would make the
    // ceilings meaningless.
    let needs_session = args.untrusted
        || args.limits.max_symbols.is_some()
        || args.limits.max_arena_bytes.is_some();
    let mut ctx = if needs_session {
        AnalysisCtx::session()
    } else {
        AnalysisCtx::default()
    };
    if args.untrusted {
        ctx = ctx.untrusted();
    }
    if !args.limits.is_unlimited() {
        ctx = ctx.with_limits(args.limits);
    }
    if args.metrics.is_some() {
        ctx = ctx.with_metrics(Metrics::enabled());
    }
    // Rendering below resolves symbols via the thread-current space.
    let _guard = ctx.enter();
    let region = Region::new(args.function.clone(), args.start, args.end);
    if args.stream {
        return run_streaming(&args, &region, &ctx);
    }
    let analyzer = Analyzer::new(region.clone())
        .with_index_vars(args.index.clone())
        .with_config(PipelineConfig {
            parse_threads: args.threads,
            collect: args.collect,
            shards: args.shards,
            overlap: args.overlap,
            ..PipelineConfig::default()
        })
        .with_ctx(ctx.clone());
    // Records flow from the file (format auto-detected from the leading
    // magic) straight into the engine, which enforces every ceiling as it
    // folds — the same run `--stream` makes, reported as batch.
    let report = match analyzer.analyze_path(&args.trace) {
        Ok(r) => r,
        Err(e) => return fail(&args, &ctx, e),
    };
    println!("{report}");
    println!(
        "timings: preprocess {:.3?}, dependency {:.3?}, identify {:.3?}, contract {:.3?} (total {:.3?})",
        report.timings.preprocess,
        report.timings.dependency,
        report.timings.identify,
        report.timings.contract,
        report.timings.total()
    );

    if let Some(dot_path) = &args.dot {
        // Re-run the dependency fold (no event retention) to export the
        // contracted DDG from the frozen graph.
        let records = match autocheck_trace::TraceSource::from_path(&args.trace)
            .ctx(&ctx)
            .overlap(args.overlap)
            .records()
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let phases = Phases::compute_in(&records, &region, &ctx);
        let graph = DdgAnalysis::fold_in(
            &records,
            &phases,
            &report.mli,
            autocheck_core::DdgOptions {
                retain_events: false,
                ..autocheck_core::DdgOptions::default()
            },
            &ctx,
            |_| {},
        );
        let contracted = contract_for_mli(&graph, &report.mli);
        if let Err(e) = std::fs::write(dot_path, contracted.to_dot()) {
            eprintln!("error: cannot write `{dot_path}`: {e}");
            return ExitCode::FAILURE;
        }
        println!("contracted DDG written to {dot_path}");
    }
    if let Some(path) = &args.metrics {
        let ledger = capture_ledger(session_name(&args.trace), &ctx);
        if !emit_metrics(path, ledger.render_table(), ledger.to_json()) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
