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
//!                                     # Each file is one MultiAnalyzer job
//!                                     # in its own session
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
//! loop pass supplies the Index variables automatically. Every input file
//! becomes one streaming `MultiAnalyzer` job (MiniLang source, region,
//! ceilings), run one at a time, each in its **own session** (its own
//! symbol space); reports print in argument order with each session's
//! peak-live window, bound and timings, and a failed job prints
//! `error: <file>: <message>` on stderr. `--max-live-records N` is the
//! spelling of `--limit live-records=N` that `autocheck --stream` shares,
//! and wins over it. Usage errors (a bad `--limit`, a half or inverted
//! `--start`/`--end`) exit 2 before any file runs. `--metrics` writes the
//! session's ledger for one file, the batch ledger for several.
//!
//! Standard output is written through one lock. When its reader goes away
//! (`mlc trace cg.mc --stream | head -1`), `mlc` stops at once, silently,
//! with exit status 141, as `autocheck` does; any other failure to write it
//! is an `error:` line and status 1.

use autocheck_core::{AnalysisJob, JobInput, MultiAnalyzer, Region};
use autocheck_interp::{
    BinarySink, ExecError, ExecOptions, Machine, NoHook, NullSink, TraceSink, WriterSink,
};
use autocheck_ir::{Cfg, DomTree, LoopForest};
use autocheck_trace::{
    parse_limit_arg, AnalysisCtx, BinaryWriter, Record, ResourceKind, ResourceLimits,
    TraceReadError, TraceSource, TraceStream, TraceWriter,
};
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

/// Exit status when standard output's reader has closed it.
const CLOSED_STDOUT: u8 = 141;

fn usage() -> ! {
    eprintln!(
        "usage: mlc <run|trace|convert|ir|loops|app> <file.mc | app-name> [-o out] [--function f]\n\
         \x20      mlc trace <file.mc> [-o out] [--format text|binary]\n\
         \x20      mlc trace <file.mc>... --stream [--function f] [--start n --end n]\n\
         \x20                [--max-live-records N] [--limit <kind>=<N>]... [--metrics <file|->]\n\
         \x20                (one analysis session per input file, run in order)\n\
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

/// A usage error found before any file runs: the message, then exit 2.
fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// `mlc trace <file.mc>... --stream`: one streaming `MultiAnalyzer` job per
/// input file, each in its own session, run one at a time.
fn trace_stream(
    stdout: &mut impl Write,
    argv: &[String],
    opt: impl Fn(&str) -> Option<String>,
) -> io::Result<ExitCode> {
    // Every positional argument is an input file.
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
    // Usage errors come before any file runs. `--limit` is repeatable, so
    // it is collected directly rather than through `opt` (which only sees
    // the first occurrence).
    let mut limits = ResourceLimits::default();
    for (i, a) in argv.iter().enumerate() {
        if a == "--limit" {
            let Some(v) = argv.get(i + 1) else { usage() };
            match parse_limit_arg(v) {
                Ok((kind, n)) => limits = limits.set(kind, n),
                Err(e) => usage_error(e),
            }
        }
    }
    // `--max-live-records N` is the spelling of `--limit live-records=N`
    // that `autocheck --stream` shares; wherever it stands, it wins.
    if let Some(v) = opt("--max-live-records") {
        let Ok(n) = v.parse::<u64>() else { usage() };
        limits = limits.set(ResourceKind::LiveRecords, n);
    }
    let function = opt("--function").unwrap_or_else(|| "main".to_string());
    let lines = match (opt("--start"), opt("--end")) {
        (Some(s), Some(e)) => {
            let (Ok(s), Ok(e)) = (s.parse::<u32>(), e.parse::<u32>()) else {
                usage()
            };
            if s == 0 || e < s {
                usage_error("--start/--end must satisfy 1 <= start <= end");
            }
            Some((s, e))
        }
        (None, None) => None,
        _ => usage_error("--start and --end must be given together"),
    };
    let batch = targets.len() > 1;
    if batch && lines.is_some() {
        eprintln!(
            "note: --start/--end apply the same region to every input file; \
             omit them to use each file's @loop-start/@loop-end markers"
        );
    }
    // Read and marker errors print before any job runs.
    let mut code = ExitCode::SUCCESS;
    let mut jobs = Vec::new();
    for target in targets {
        let src = match std::fs::read_to_string(target) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read `{target}`: {e}");
                code = ExitCode::FAILURE;
                continue;
            }
        };
        let region = match lines {
            Some((s, e)) => Region::new(function.clone(), s, e),
            None => match autocheck_apps::try_region_from_markers(&src, &function) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "error: `{target}` needs --start/--end (or a @loop-start \
                         marker followed by @loop-end in the source)"
                    );
                    code = ExitCode::FAILURE;
                    continue;
                }
            },
        };
        jobs.push(
            AnalysisJob::new(target.clone(), JobInput::MiniLang(src), region)
                .with_limits(limits)
                .streaming(true),
        );
    }
    let metrics_path = opt("--metrics");
    let out = MultiAnalyzer::new(1)
        .with_metrics(metrics_path.is_some())
        .run(jobs);
    let bound = limits
        .get(ResourceKind::LiveRecords)
        .map_or_else(|| "unbounded".to_string(), |b| b.to_string());
    for s in &out.sessions {
        if batch {
            writeln!(stdout, "=== {} ===", s.name)?;
        }
        writeln!(stdout, "{}", s.rendered)?;
        writeln!(
            stdout,
            "streaming: peak {} live records of {} total (bound: {bound}); no trace file written",
            s.peak_live_records.unwrap_or_default(),
            s.records
        )?;
        writeln!(
            stdout,
            "session: {} symbols; ingest+identify {:.3?}; wall {:.3?}",
            s.symbols,
            s.timings.total(),
            s.wall
        )?;
        if batch {
            writeln!(stdout)?;
        }
    }
    for f in &out.failures {
        eprintln!("error: {}: {}", f.name, f.message);
        code = ExitCode::FAILURE;
    }
    // One input file → its session ledger; several → the batch ledger
    // (the batch registry plus one session ledger per file).
    if let Some(path) = metrics_path {
        let ledger = out.ledger.expect("metrics were on");
        let rendered = if batch {
            Some((ledger.render_table(), ledger.to_json()))
        } else {
            ledger
                .sessions
                .first()
                .map(|l| (l.render_table(), l.to_json()))
        };
        if let Some((table, json)) = rendered {
            if path == "-" {
                writeln!(stdout, "{table}")?;
            } else if let Err(e) = std::fs::write(&path, json) {
                eprintln!("error: cannot write `{path}`: {e}");
                code = ExitCode::FAILURE;
            } else {
                writeln!(stdout, "run ledger written to {path}")?;
            }
        }
    }
    Ok(code)
}

fn main() -> ExitCode {
    let mut stdout = io::stdout().lock();
    match run(&mut stdout).and_then(|code| stdout.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::from(CLOSED_STDOUT),
        Err(e) => {
            eprintln!("error: cannot write to standard output: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every subcommand, printing to `stdout`.
fn run(stdout: &mut impl Write) -> io::Result<ExitCode> {
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

    Ok(match cmd {
        "run" => {
            let module = match compile_file(target) {
                Ok(m) => m,
                Err(c) => return Ok(c),
            };
            let mut machine = Machine::new(&module, ExecOptions::default());
            match machine.run(&mut NullSink, &mut NoHook) {
                Ok(out) => {
                    for line in &out.output {
                        writeln!(stdout, "{line}")?;
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
        "trace" if argv.iter().any(|a| a == "--stream") => trace_stream(stdout, &argv, opt)?,
        "trace" => {
            let module = match compile_file(target) {
                Ok(m) => m,
                Err(c) => return Ok(c),
            };
            let format = opt("--format").unwrap_or_else(|| "text".to_string());
            let binary = match format.as_str() {
                "text" => false,
                "binary" => true,
                other => {
                    eprintln!("error: --format must be `text` or `binary`, not `{other}`");
                    return Ok(ExitCode::FAILURE);
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
                return Ok(ExitCode::FAILURE);
            }
            // A fresh session per conversion: the trace is third-party input.
            let ctx = AnalysisCtx::session();
            let _guard = ctx.enter();
            let mut records = match TraceSource::from_path(target).ctx(&ctx).stream() {
                Ok(s) => s,
                Err(TraceReadError::Io(e)) => {
                    eprintln!("error: cannot read `{target}`: {e}");
                    return Ok(ExitCode::FAILURE);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return Ok(ExitCode::FAILURE);
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
                    return Ok(ExitCode::FAILURE);
                }
            };
            let written = write_then_rename(Path::new(&out_path), |tmp| {
                convert_into(&mut records, tmp, to_binary, &ctx)
            });
            let (n, out_bytes) = match written {
                Ok(counts) => counts,
                Err(e) => {
                    e.report(&out_path);
                    return Ok(ExitCode::FAILURE);
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
                Err(c) => return Ok(c),
            };
            write!(stdout, "{}", autocheck_ir::printer::print_module(&module))?;
            ExitCode::SUCCESS
        }
        "loops" => {
            let module = match compile_file(target) {
                Ok(m) => m,
                Err(c) => return Ok(c),
            };
            let fname = opt("--function").unwrap_or_else(|| "main".to_string());
            let Some(fid) = module.function_by_name(&fname) else {
                eprintln!("error: no function `{fname}`");
                return Ok(ExitCode::FAILURE);
            };
            let f = module.function(fid);
            let cfg = Cfg::compute(f);
            let dom = DomTree::compute(&cfg);
            let forest = LoopForest::compute(f, &cfg, &dom);
            for (i, l) in forest.loops.iter().enumerate() {
                let line = f.blocks[l.header.index()].loc.line;
                let cv = autocheck_ir::loops::control_variables(&module, f, l);
                writeln!(
                    stdout,
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
                )?;
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
                return Ok(ExitCode::FAILURE);
            };
            match opt("-o") {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, &spec.source) {
                        eprintln!("error: cannot write `{path}`: {e}");
                        return Ok(ExitCode::FAILURE);
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
                None => write!(stdout, "{}", spec.source)?,
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    })
}
