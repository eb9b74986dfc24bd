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
//!     [--index it,step] [--dot out.dot] [--collect arithmetic] [--stream] \
//!     [--max-live-records N] [--untrusted-trace] [--metrics out.json]
//! autocheck --batch <manifest> [--jobs N] [--stream] [--max-live-records N] \
//!     [--untrusted-trace] [--metrics out.json]
//! ```
//!
//! Every analysis is one serial pass of the bounded-memory streaming
//! engine: the file is pulled chunk by chunk and per-iteration analysis
//! state is retired at iteration boundaries, so a run holds the live
//! window, not the trace. The default mode and `--stream` are that same
//! run and print the same report and `timings:` footer; `--stream` adds a
//! `streaming:` footer with the peak live-record count and the bound the
//! engine enforced, so the memory bound is observable.
//! `--max-live-records N` (with `--stream`, also in `--batch` mode) is the
//! `--stream` spelling of `--limit live-records=N` and wins over it: it
//! turns that bound into a hard limit (exceeding it is an error, not an
//! OOM). Both modes fail with the same diagnostic.
//! `--dot` writes the contracted DDG the run computed at finish from the
//! engine's own graph, in either mode (the graph is program-bounded, so
//! the memory story is unchanged).
//!
//! `--batch <manifest>` runs many analyses, each in its own session (own
//! symbol space, own seeded hashers when `--untrusted-trace` is set), on
//! `--jobs N` worker threads (default 1). `--jobs` is the tool's only
//! concurrency: one trace is always analyzed serially. The paper's §V-A
//! parallel trace parsing is deliberately not reproduced — on the hosts
//! measured, every way of splitting one trace across threads (a chunked
//! parse, iteration-aligned shards, decode-ahead overlap) was slower than
//! the serial pass and most held the whole trace in memory, while
//! `--jobs 2` over several traces ran 1.5–2.0× faster. `--threads`,
//! `--shards` and `--overlap` are usage errors. Each manifest line names
//! one analysis:
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
//! `--metrics <file|->` turns on the observability layer: the session runs
//! with a metrics registry (counters, gauges, stage timers, histograms)
//! and its versioned JSON run ledger is written to the file (`-` prints a
//! human-readable table instead). In `--batch` mode every session gets its
//! own registry and the output is the aggregated batch ledger: batch-level
//! queue/flight stats plus one ledger per session. Metrics never change
//! analysis output — reports and DOT are byte-identical either way.
//!
//! Standard output is written through one lock. When its reader goes away
//! (`autocheck --batch m.txt | head -1`), the tool stops at once, silently,
//! with exit status 141: what a shell reports for a writer that SIGPIPE
//! stopped. Any other failure to write it is an `error:` line and status 1.

use autocheck_core::{capture_ledger, CollectMode, Region, StreamAnalyzer, StreamConfig, Timings};
use autocheck_obs::Metrics;
use autocheck_trace::{parse_limit_arg, AnalysisCtx, ResourceKind, ResourceLimits};
use std::io::{self, Write};
use std::process::ExitCode;

/// Exit status when standard output's reader has closed it.
const CLOSED_STDOUT: u8 = 141;

struct Args {
    trace: String,
    function: String,
    start: u32,
    end: u32,
    index: Vec<String>,
    dot: Option<String>,
    collect: CollectMode,
    stream: bool,
    untrusted: bool,
    limits: ResourceLimits,
    batch: Option<String>,
    jobs: usize,
    metrics: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: autocheck <trace-file> --function <name> --start <line> --end <line>\n\
         \x20                [--index v1,v2] [--dot <file>] [--collect any|arithmetic]\n\
         \x20                [--stream] [--max-live-records N] [--untrusted-trace]\n\
         \x20                [--metrics <file|->] [--limit <kind>=<N>]...\n\
         \x20      autocheck --batch <manifest> [--jobs N] [--stream] [--max-live-records N]\n\
         \x20                [--untrusted-trace] [--metrics <file|->] [--limit <kind>=<N>]...\n\
         \x20                (one trace is analyzed serially; --jobs N analyzes N manifest\n\
         \x20                 traces at a time, default 1)\n\
         \x20                (manifest lines: <trace-file> <function> <start> <end> [index,vars])\n\
         \x20                (--limit kinds: trace-records, trace-bytes, symbols, arena-bytes,\n\
         \x20                 ddg-nodes, ddg-edges, live-records; repeatable, applies per session)"
    );
    std::process::exit(2)
}

/// A removed single-trace concurrency flag: a usage error naming the one
/// concurrency the tool has.
fn removed_flag(flag: &str) -> ! {
    eprintln!(
        "error: {flag} was removed: serial is the only single-trace mode; \
         to analyze several traces concurrently, list them in a --batch manifest \
         and pass --jobs N"
    );
    std::process::exit(2)
}

/// `--max-live-records` bounds the window that only `--stream` reports.
fn require_stream_for_live_bound(max_live_records: Option<u64>, stream: bool) {
    if max_live_records.is_some() && !stream {
        eprintln!("error: --max-live-records only applies to --stream mode");
        std::process::exit(2);
    }
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut trace = None;
    let mut function = "main".to_string();
    let mut function_set = false;
    let (mut start, mut end) = (0u32, 0u32);
    let mut index = Vec::new();
    let mut dot = None;
    let mut collect = CollectMode::AnyAccess;
    let mut stream = false;
    let mut max_live_records = None;
    let mut untrusted = false;
    let mut limits = ResourceLimits::default();
    let mut batch = None;
    let mut jobs = 1usize;
    let mut metrics = None;
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
            "--threads" | "-t" | "--shards" | "--overlap" => removed_flag(&a),
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
            "--batch" => batch = Some(take()),
            "--jobs" | "-j" => jobs = take().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other if trace.is_none() && !other.starts_with('-') => trace = Some(a),
            _ => usage(),
        }
    }
    // `--max-live-records N` is the `--stream` spelling of
    // `--limit live-records=N`; wherever it stands, it wins over that flag.
    if let Some(n) = max_live_records {
        limits = limits.set(ResourceKind::LiveRecords, n);
    }
    if let Some(batch) = batch {
        if trace.is_some()
            || start != 0
            || end != 0
            || dot.is_some()
            || function_set
            || !index.is_empty()
        {
            eprintln!(
                "error: --batch takes every per-analysis setting from the manifest; \
                 positional trace, --function, --start/--end, --index and --dot do not \
                 apply"
            );
            std::process::exit(2);
        }
        require_stream_for_live_bound(max_live_records, stream);
        return Args {
            trace: String::new(),
            function,
            start,
            end,
            index,
            dot: None,
            collect,
            stream,
            untrusted,
            limits,
            batch: Some(batch),
            jobs,
            metrics,
        };
    }
    let Some(trace) = trace else { usage() };
    if start == 0 || end < start {
        eprintln!("error: --start/--end are required and must satisfy start <= end");
        std::process::exit(2);
    }
    require_stream_for_live_bound(max_live_records, stream);
    Args {
        trace,
        function,
        start,
        end,
        index,
        dot,
        collect,
        stream,
        untrusted,
        limits,
        batch: None,
        jobs,
        metrics,
    }
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
        .with_limits(args.limits);
        job.collect = args.collect;
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
fn emit_metrics(out: &mut impl Write, path: &str, table: String, json: String) -> io::Result<bool> {
    if path == "-" {
        writeln!(out, "{table}")?;
    } else if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: cannot write `{path}`: {e}");
        return Ok(false);
    } else {
        writeln!(out, "run ledger written to {path}")?;
    }
    Ok(true)
}

/// `--batch`: run every manifest analysis in its own session, on `--jobs`
/// workers, reporting peak-live and timings per session.
fn run_batch(out: &mut impl Write, args: &Args, manifest: &str) -> io::Result<ExitCode> {
    let jobs = match parse_manifest(manifest, args) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let n = jobs.len();
    let batch = autocheck_core::MultiAnalyzer::new(args.jobs)
        .with_metrics(args.metrics.is_some())
        .run(jobs);
    for s in &batch.sessions {
        writeln!(out, "=== {} ===", s.name)?;
        write!(out, "{}", s.rendered)?;
        print_timings(out, &s.timings)?;
        match s.peak_live_records {
            Some(peak) => writeln!(
                out,
                "session: {} symbols; streaming peak {} live records of {} total",
                s.symbols, peak, s.records
            )?,
            None => writeln!(out, "session: {} symbols", s.symbols)?,
        }
        writeln!(out)?;
    }
    for f in &batch.failures {
        eprintln!("error: {}: {}", f.name, f.message);
    }
    writeln!(
        out,
        "=== aggregate ({} analyses, {} workers{}) ===",
        n,
        batch.jobs,
        if args.untrusted {
            ", untrusted: per-session seeded hashing"
        } else {
            ""
        }
    )?;
    write!(out, "{}", batch.aggregate())?;
    if let (Some(path), Some(ledger)) = (&args.metrics, &batch.ledger) {
        if !emit_metrics(out, path, ledger.render_table(), ledger.to_json())? {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(if batch.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The `timings:` footer of every mode: the fused engine pass is booked
/// as pre-processing.
fn print_timings(out: &mut impl Write, t: &Timings) -> io::Result<()> {
    writeln!(
        out,
        "timings: preprocess {:.3?}, identify {:.3?}, contract {:.3?} (total {:.3?})",
        t.preprocess,
        t.identify,
        t.contract,
        t.total()
    )
}

/// One trace, one engine run: the default mode and `--stream` differ only
/// in the `streaming:` footer.
fn run_single(out: &mut impl Write, args: &Args, ctx: &AnalysisCtx) -> io::Result<ExitCode> {
    let region = Region::new(args.function.clone(), args.start, args.end);
    let analyzer = StreamAnalyzer::new(region)
        .with_index_vars(args.index.clone())
        .with_config(StreamConfig {
            collect: args.collect,
            contracted_dot: args.dot.is_some(),
            ..StreamConfig::default()
        })
        .with_ctx(ctx.clone());
    // Records flow from the file (format auto-detected from the leading
    // magic) straight into the engine, which enforces every ceiling as it
    // folds.
    let run = match analyzer.run_path(&args.trace) {
        Ok(r) => r,
        Err(e) => return fail(out, args, ctx, e),
    };
    writeln!(out, "{}", run.report)?;
    print_timings(out, &run.report.timings)?;
    if args.stream {
        let bound = match run.stats.live_bound {
            Some(b) => format!("{b}"),
            None => "unbounded".to_string(),
        };
        writeln!(
            out,
            "streaming: peak {} live records of {} total (bound: {}); ddg {} nodes / {} edges",
            run.stats.peak_live_records,
            run.report.records,
            bound,
            run.stats.ddg_nodes,
            run.stats.ddg_edges
        )?;
    }
    if let (Some(dot_path), Some(dot)) = (&args.dot, &run.contracted_dot) {
        if let Err(e) = std::fs::write(dot_path, dot) {
            eprintln!("error: cannot write `{dot_path}`: {e}");
            return Ok(ExitCode::FAILURE);
        }
        writeln!(out, "contracted DDG written to {dot_path}")?;
    }
    if let Some(path) = &args.metrics {
        let ledger = capture_ledger(session_name(&args.trace), ctx);
        if !emit_metrics(out, path, ledger.render_table(), ledger.to_json())? {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// One-line diagnostic + nonzero exit for a failed single analysis. The
/// metrics artifact is still emitted so a tripped ceiling shows up in the
/// ledger (`session.limit_exceeded`), not just on stderr.
fn fail(
    out: &mut impl Write,
    args: &Args,
    ctx: &AnalysisCtx,
    e: impl std::fmt::Display,
) -> io::Result<ExitCode> {
    eprintln!("error: {e}");
    if let Some(path) = &args.metrics {
        let ledger = capture_ledger(session_name(&args.trace), ctx);
        emit_metrics(out, path, ledger.render_table(), ledger.to_json())?;
    }
    Ok(ExitCode::FAILURE)
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
    let mut out = io::stdout().lock();
    let run = match args.batch.clone() {
        Some(manifest) => run_batch(&mut out, &args, &manifest),
        None => run_one(&mut out, &args),
    };
    match run.and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::from(CLOSED_STDOUT),
        Err(e) => {
            eprintln!("error: cannot write to standard output: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Single-trace mode: set up the session, then [`run_single`].
fn run_one(out: &mut impl Write, args: &Args) -> io::Result<ExitCode> {
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
    run_single(out, args, &ctx)
}
