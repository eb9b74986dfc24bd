//! `mlc` — the MiniLang compiler/runner/tracer CLI (the substrate's
//! equivalent of `clang + LLVM-Tracer`).
//!
//! ```text
//! mlc run   <file.mc>                 # compile and execute, print output
//! mlc trace <file.mc> -o trace.txt    # execute and write the dynamic trace;
//!                                     # <out> appears only once the program
//!                                     # has run to the end
//! mlc trace <file.mc> -o t --format binary   # ... in the binary format
//! mlc trace <file.mc>... --stream --function f --start a --end b
//!                                     # execute and analyze online: records
//!                                     # flow interpreter -> analyzer with no
//!                                     # trace file or record buffer at all.
//!                                     # Several files = one session each,
//!                                     # with per-session peak-live/timing
//! mlc convert <in> <out> [--to text|binary]
//!                                     # lossless trace conversion; the input
//!                                     # format auto-detects, --to defaults
//!                                     # to the opposite format. Records
//!                                     # stream from input to output; <out>
//!                                     # appears only once it is complete
//! mlc ir    <file.mc>                 # dump the textual IR
//! mlc loops <file.mc> [--function f]  # list loops and their control vars
//! mlc app   <name> [-o file.mc]       # emit a bundled benchmark's source
//! ```
//!
//! In `--stream` mode the region defaults to `// @loop-start` /
//! `// @loop-end` markers when `--start`/`--end` are not given, and the
//! loop pass supplies the Index variables automatically. With more than
//! one input file, every file is analyzed in its **own session** (its own
//! symbol space, via `AnalysisCtx::session`), and the peak-live window and
//! timings are reported per session — not just for the last analysis.

use autocheck_core::{capture_ledger, index_variables_of, Region, StreamAnalyzer, StreamConfig};
use autocheck_interp::{
    BinarySink, ExecError, ExecOptions, FnSink, Machine, NoHook, NullSink, TraceSink, WriterSink,
};
use autocheck_ir::{Cfg, DomTree, LoopForest};
use autocheck_obs::ledger::{BatchLedger, Ledger};
use autocheck_obs::{Metrics, TimerId};
use autocheck_trace::{
    AnalysisCtx, BinaryWriter, Record, TraceReadError, TraceSource, TraceStream, TraceWriter,
};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: mlc <run|trace|convert|ir|loops|app> <file.mc | app-name> [-o out] [--function f]\n\
         \x20      mlc trace <file.mc> [-o out] [--format text|binary]\n\
         \x20      mlc trace <file.mc>... --stream [--function f] [--start n --end n]\n\
         \x20                [--max-live-records N] [--limit <kind>=<N>]... [--metrics <file|->]\n\
         \x20                (per-session stats per input file)\n\
         \x20      mlc convert <in> <out> [--to text|binary]   (trace format conversion)"
    );
    std::process::exit(2)
}

/// Every flag that consumes the following argument as its value. The
/// multi-file positional scan below and `opt()` both depend on this —
/// add new value-taking flags HERE, not inline, or their values will be
/// misread as input files.
const VALUE_FLAGS: &[&str] = &[
    "--function",
    "--start",
    "--end",
    "--max-live-records",
    "--limit",
    "--metrics",
    "--format",
    "--to",
    "-o",
];

/// Text-or-binary trace sink for `mlc trace --format`, forwarding to the
/// matching interpreter sink.
enum FileSink<W: Write> {
    Text(WriterSink<W>),
    Binary(Box<BinarySink<W>>),
}

impl<W: Write> FileSink<W> {
    fn records_written(&self) -> u64 {
        match self {
            FileSink::Text(s) => s.records_written(),
            FileSink::Binary(s) => s.records_written(),
        }
    }

    /// Bytes written so far (text), or the size the file would have if
    /// finished now (binary: header, string table, spilled and buffered
    /// records).
    fn bytes_written(&self) -> u64 {
        match self {
            FileSink::Text(s) => s.bytes_written(),
            FileSink::Binary(s) => s.bytes_written(),
        }
    }

    fn finish(self) -> Result<W, ExecError> {
        match self {
            FileSink::Text(s) => s.finish(),
            FileSink::Binary(s) => s.finish(),
        }
    }
}

impl<W: Write> TraceSink for FileSink<W> {
    fn record(&mut self, rec: &Record) -> Result<(), ExecError> {
        match self {
            FileSink::Text(s) => s.record(rec),
            FileSink::Binary(s) => s.record(rec),
        }
    }
}

/// Why writing a trace file stopped.
enum WriteError {
    /// The input trace failed to read or decode (`mlc convert`).
    Read(TraceReadError),
    /// The traced program failed, a trace sink error included (`mlc trace`).
    Run(ExecError),
    /// The output failed to write.
    Write(std::io::Error),
}

impl From<std::io::Error> for WriteError {
    fn from(e: std::io::Error) -> Self {
        WriteError::Write(e)
    }
}

impl WriteError {
    /// Print the one-line diagnostic for a failed write of `out_path`.
    fn report(&self, out_path: &str) {
        match self {
            WriteError::Read(e) => eprintln!("error: {e}"),
            WriteError::Run(e) => eprintln!("runtime error: {e}"),
            WriteError::Write(e) => eprintln!("error: cannot write `{out_path}`: {e}"),
        }
    }
}

/// Write `out` through a sibling temporary file: `write` fills the
/// temporary, which is renamed over `out` only when it succeeds, and
/// removed otherwise. A failed write leaves no output file and an existing
/// `out` unchanged, and the input of a conversion may be `out` itself.
fn write_then_rename<T>(
    out: &Path,
    write: impl FnOnce(&Path) -> Result<T, WriteError>,
) -> Result<T, WriteError> {
    let Some(name) = out.file_name() else {
        return Err(
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "not a file path").into(),
        );
    };
    let tmp = out.with_file_name(format!(
        ".{}.partial-{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let written =
        write(&tmp).and_then(|v| std::fs::rename(&tmp, out).map(|()| v).map_err(Into::into));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Stream every record of `records` into a new trace file at `path`,
/// binary or text. Returns the records and bytes written.
fn convert_into(
    records: &mut TraceStream<'_>,
    path: &Path,
    to_binary: bool,
    ctx: &AnalysisCtx,
) -> Result<(u64, u64), WriteError> {
    let out = std::io::BufWriter::new(std::fs::File::create(path)?);
    if to_binary {
        let mut w = BinaryWriter::with_ctx(out, ctx);
        while let Some(record) = records.next_record() {
            w.write_record(record.map_err(WriteError::Read)?)?;
        }
        let counts = (w.records_written(), w.bytes_written());
        w.finish()?;
        Ok(counts)
    } else {
        let mut w = TraceWriter::new(out);
        while let Some(record) = records.next_record() {
            w.write_record(record.map_err(WriteError::Read)?)?;
        }
        let counts = (w.records_written(), w.bytes_written());
        w.finish()?;
        Ok(counts)
    }
}

/// Run `module` with a `binary` or text trace sink writing to a new file at
/// `path`. Returns the records and bytes written.
fn trace_into(
    module: &autocheck_ir::Module,
    path: &Path,
    binary: bool,
) -> Result<(u64, u64), WriteError> {
    let out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut sink = if binary {
        FileSink::Binary(Box::new(BinarySink::new(out)))
    } else {
        FileSink::Text(WriterSink::new(out))
    };
    Machine::new(module, ExecOptions::default())
        .run(&mut sink, &mut NoHook)
        .map_err(WriteError::Run)?;
    let counts = (sink.records_written(), sink.bytes_written());
    sink.finish()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    Ok(counts)
}

fn compile_file(path: &str) -> Result<autocheck_ir::Module, ExitCode> {
    let src = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read `{path}`: {e}");
        ExitCode::FAILURE
    })?;
    autocheck_minilang::compile(&src).map_err(|errs| {
        for e in errs {
            eprintln!("{e}");
        }
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() < 2 {
        usage();
    }
    let cmd = argv[0].as_str();
    let target = argv[1].as_str();
    let opt = |flag: &str| {
        debug_assert!(
            VALUE_FLAGS.contains(&flag),
            "{flag} must be listed in VALUE_FLAGS"
        );
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };

    match cmd {
        "run" => {
            let module = match compile_file(target) {
                Ok(m) => m,
                Err(c) => return c,
            };
            let mut machine = Machine::new(&module, ExecOptions::default());
            match machine.run(&mut NullSink, &mut NoHook) {
                Ok(out) => {
                    for line in &out.output {
                        println!("{line}");
                    }
                    eprintln!("[{} dynamic instructions]", out.steps);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("runtime error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "trace" if argv.iter().any(|a| a == "--stream") => {
            // Every positional argument is an input file; each gets its own
            // analysis session with its own symbol space.
            let targets: Vec<&String> = argv[1..]
                .iter()
                .enumerate()
                .filter(|(i, a)| {
                    !a.starts_with('-')
                        && !argv[1..]
                            .get(i.wrapping_sub(1))
                            .is_some_and(|p| VALUE_FLAGS.contains(&p.as_str()))
                })
                .map(|(_, a)| a)
                .collect();
            if targets.is_empty() {
                usage();
            }
            if opt("-o").is_some() {
                eprintln!("note: -o is ignored in --stream mode; no trace file is written");
            }
            let max_live = match opt("--max-live-records") {
                Some(v) => match v.parse::<usize>() {
                    Ok(n) => Some(n),
                    Err(_) => usage(),
                },
                None => None,
            };
            // `--limit` is repeatable, so it is collected directly rather
            // than through `opt` (which only sees the first occurrence).
            let mut limits = autocheck_trace::ResourceLimits::default();
            for (i, a) in argv.iter().enumerate() {
                if a == "--limit" {
                    let Some(v) = argv.get(i + 1) else { usage() };
                    match autocheck_trace::parse_limit_arg(v) {
                        Ok((kind, n)) => limits = limits.set(kind, n),
                        Err(e) => {
                            eprintln!("error: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            let metrics_path = opt("--metrics");
            let mut ledgers: Vec<Ledger> = Vec::new();
            let t_all = std::time::Instant::now();
            let batch = targets.len() > 1;
            if batch && opt("--start").is_some() {
                eprintln!(
                    "note: --start/--end apply the same region to every input file; \
                     omit them to use each file's @loop-start/@loop-end markers"
                );
            }
            let mut code = ExitCode::SUCCESS;
            for target in targets {
                if batch {
                    println!("=== {target} ===");
                }
                let t0 = std::time::Instant::now();
                let src = match std::fs::read_to_string(target) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: cannot read `{target}`: {e}");
                        code = ExitCode::FAILURE;
                        continue;
                    }
                };
                // Compile from the bytes already read — re-reading the file
                // here could race with an edit and analyze a region computed
                // from different source than the module being executed.
                let module = match autocheck_minilang::compile(&src) {
                    Ok(m) => m,
                    Err(errs) => {
                        for e in errs {
                            eprintln!("{e}");
                        }
                        code = ExitCode::FAILURE;
                        continue;
                    }
                };
                let function = opt("--function").unwrap_or_else(|| "main".to_string());
                let region = match (opt("--start"), opt("--end")) {
                    (Some(s), Some(e)) => {
                        let (Ok(s), Ok(e)) = (s.parse::<u32>(), e.parse::<u32>()) else {
                            usage()
                        };
                        if s == 0 || e < s {
                            eprintln!("error: --start/--end must satisfy 1 <= start <= end");
                            return ExitCode::FAILURE;
                        }
                        Region::new(function, s, e)
                    }
                    (None, None) => {
                        match autocheck_apps::try_region_from_markers(&src, &function) {
                            Some(r) => r,
                            None => {
                                eprintln!(
                                    "error: `{target}` needs --start/--end (or a @loop-start \
                                     marker followed by @loop-end in the source)"
                                );
                                code = ExitCode::FAILURE;
                                continue;
                            }
                        }
                    }
                    _ => {
                        eprintln!("error: --start and --end must be given together");
                        return ExitCode::FAILURE;
                    }
                };
                // One session per input file: fresh symbol space, entered
                // for the whole trace+analyze+render span.
                let mut ctx = AnalysisCtx::session();
                if !limits.is_unlimited() {
                    ctx = ctx.with_limits(limits);
                }
                if metrics_path.is_some() {
                    ctx = ctx.with_metrics(Metrics::enabled());
                }
                let _guard = ctx.enter();
                let index = index_variables_of(&module, &region);
                let analyzer = StreamAnalyzer::new(region)
                    .with_index_vars(index)
                    .with_config(StreamConfig {
                        max_live_records: max_live,
                        ..StreamConfig::default()
                    })
                    .with_ctx(ctx.clone());
                // Interpreter → analyzer directly: every emitted record is
                // pushed into the session and dropped; nothing touches disk.
                let mut session = analyzer.session();
                let mut sink = FnSink::new(|rec: &Record| {
                    session.push(rec).map_err(|e| ExecError::Sink {
                        message: e.to_string(),
                    })
                });
                let mut machine = Machine::with_ctx(&module, ExecOptions::default(), ctx.clone());
                if let Err(e) = machine.run(&mut sink, &mut NoHook) {
                    eprintln!("runtime error: {e}");
                    code = ExitCode::FAILURE;
                    continue;
                }
                let run = session.finish();
                println!("{}", run.report);
                let bound = match run.stats.live_bound {
                    Some(b) => format!("{b}"),
                    None => "unbounded".to_string(),
                };
                println!(
                    "streaming: peak {} live records of {} total (bound: {}); no trace file written",
                    run.stats.peak_live_records, run.report.records, bound
                );
                println!(
                    "session: {} symbols; ingest+identify {:.3?}; wall {:.3?}",
                    ctx.space().len(),
                    run.report.timings.total(),
                    t0.elapsed()
                );
                if metrics_path.is_some() {
                    ctx.metrics()
                        .record_duration(TimerId::SessionWall, t0.elapsed());
                    let name = std::path::Path::new(target.as_str())
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or(target);
                    ledgers.push(capture_ledger(name, &ctx));
                }
                if batch {
                    println!();
                }
            }
            // One input file → its session ledger; several → the aggregated
            // batch form (one session ledger per file).
            if let Some(path) = metrics_path {
                let (table, json) = if ledgers.len() == 1 {
                    (ledgers[0].render_table(), ledgers[0].to_json())
                } else {
                    let b = BatchLedger {
                        jobs: ledgers.len() as u64,
                        wall_ns: t_all.elapsed().as_nanos() as u64,
                        batch: Ledger::empty("mlc.stream"),
                        sessions: ledgers,
                    };
                    (b.render_table(), b.to_json())
                };
                if path == "-" {
                    println!("{table}");
                } else if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("error: cannot write `{path}`: {e}");
                    code = ExitCode::FAILURE;
                } else {
                    println!("run ledger written to {path}");
                }
            }
            code
        }
        "trace" => {
            let module = match compile_file(target) {
                Ok(m) => m,
                Err(c) => return c,
            };
            let format = opt("--format").unwrap_or_else(|| "text".to_string());
            let binary = match format.as_str() {
                "text" => false,
                "binary" => true,
                other => {
                    eprintln!("error: --format must be `text` or `binary`, not `{other}`");
                    return ExitCode::FAILURE;
                }
            };
            let out_path = opt("-o").unwrap_or_else(|| format!("{target}.trace"));
            // A program that fails mid-run leaves no partial trace.
            match write_then_rename(Path::new(&out_path), |tmp| trace_into(&module, tmp, binary)) {
                Ok((records, bytes)) => {
                    eprintln!("wrote {records} records ({bytes} bytes, {format}) to {out_path}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    e.report(&out_path);
                    ExitCode::FAILURE
                }
            }
        }
        "convert" => {
            let out_path = match argv.get(2).filter(|a| !a.starts_with('-')) {
                Some(p) => p.clone(),
                None => usage(),
            };
            if ["--function", "--start", "--end"]
                .iter()
                .any(|f| opt(f).is_some())
            {
                eprintln!(
                    "error: `mlc convert` writes no iteration-index footer; \
                     --function/--start/--end do not apply"
                );
                return ExitCode::FAILURE;
            }
            // A fresh session per conversion: the trace is third-party input.
            let ctx = AnalysisCtx::session();
            let _guard = ctx.enter();
            let mut records = match TraceSource::from_path(target).ctx(&ctx).stream() {
                Ok(s) => s,
                Err(TraceReadError::Io(e)) => {
                    eprintln!("error: cannot read `{target}`: {e}");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let in_bytes = std::fs::metadata(target).map_or(0, |m| m.len());
            let src_binary = records.is_binary();
            let to_binary = match opt("--to").as_deref() {
                Some("binary") => true,
                Some("text") => false,
                // Default: flip to the other format.
                None => !src_binary,
                Some(other) => {
                    eprintln!("error: --to must be `text` or `binary`, not `{other}`");
                    return ExitCode::FAILURE;
                }
            };
            let written = write_then_rename(Path::new(&out_path), |tmp| {
                convert_into(&mut records, tmp, to_binary, &ctx)
            });
            let (n, out_bytes) = match written {
                Ok(counts) => counts,
                Err(e) => {
                    e.report(&out_path);
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "converted {} -> {} ({} records, {} -> {}, {} -> {} bytes)",
                target,
                out_path,
                n,
                if src_binary { "binary" } else { "text" },
                if to_binary { "binary" } else { "text" },
                in_bytes,
                out_bytes
            );
            ExitCode::SUCCESS
        }
        "ir" => {
            let module = match compile_file(target) {
                Ok(m) => m,
                Err(c) => return c,
            };
            print!("{}", autocheck_ir::printer::print_module(&module));
            ExitCode::SUCCESS
        }
        "loops" => {
            let module = match compile_file(target) {
                Ok(m) => m,
                Err(c) => return c,
            };
            let fname = opt("--function").unwrap_or_else(|| "main".to_string());
            let Some(fid) = module.function_by_name(&fname) else {
                eprintln!("error: no function `{fname}`");
                return ExitCode::FAILURE;
            };
            let f = module.function(fid);
            let cfg = Cfg::compute(f);
            let dom = DomTree::compute(&cfg);
            let forest = LoopForest::compute(f, &cfg, &dom);
            for (i, l) in forest.loops.iter().enumerate() {
                let line = f.blocks[l.header.index()].loc.line;
                let cv = autocheck_ir::loops::control_variables(&module, f, l);
                println!(
                    "loop {i}: header line {line}, depth {}, control vars: {}",
                    l.depth,
                    cv.iter()
                        .map(|c| {
                            if c.is_basic_induction {
                                format!("{} (induction, step {})", c.name, c.step.unwrap_or(0))
                            } else {
                                format!("{} (control flag)", c.name)
                            }
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
            ExitCode::SUCCESS
        }
        "app" => {
            let Some(spec) = autocheck_apps::app_by_name(target) else {
                eprintln!(
                    "error: unknown app `{target}`; available: {}",
                    autocheck_apps::all_apps()
                        .iter()
                        .map(|a| a.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::FAILURE;
            };
            match opt("-o") {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, &spec.source) {
                        eprintln!("error: cannot write `{path}`: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!(
                        "wrote {} ({} lines); main loop at {}:{}-{}",
                        path,
                        spec.loc(),
                        spec.region.function,
                        spec.region.start_line,
                        spec.region.end_line
                    );
                }
                None => print!("{}", spec.source),
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
