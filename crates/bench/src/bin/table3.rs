//! Table III reproduction: per-benchmark analysis-time breakdown —
//! pre-processing (serial and parallel), dependency analysis, variable
//! identification, total — plus the streaming engine's single-pass total,
//! so the analysis-time story covers all three modes (serial batch,
//! parallel batch, online streaming).
//!
//! Run with:
//! `cargo run --release -p autocheck-bench --bin table3 [scale] [threads] [--jobs N] [--json] [--metrics PATH]`
//!
//! With `--json`, the same timings are also written to `BENCH_table3.json`
//! as machine-readable records — the repo's perf trajectory file, so "did
//! this PR make Table III faster?" is a diff, not archaeology. Schema 2
//! added per-app DDG sizes (nodes/edges, contracted nodes/edges) and the
//! Algorithm 1 contraction wall clock; schema 3 adds per-app ingest
//! throughput (records/s and bytes/s) for both trace formats, keyed by
//! `ingest_format`, so the text-vs-binary ingest gap is part of the
//! trajectory; schema 4 sources `peak_live_records` from the session
//! ledger's live-record gauge and adds the interner arena footprint
//! (`arena_bytes`) observed at each app's capture; schema 5 runs every app
//! once more through the sharded fold (`shards = 0` = auto: one
//! iteration-aligned shard per core, serial on single-CPU hosts), asserts
//! the result identical, and records the resolved `shards` count plus
//! per-app and total `shard_wall_s`. On a single-CPU host the auto path
//! degrades to serial, and the run asserts its overhead stays within 15%
//! of the serial wall; speedup claims are only meaningful when `cpus > 1`
//! (CI gates its parallel-wall validation on that). Schema 6 runs every
//! app once more through the decode-ahead overlapped ingest (`overlap = 0`
//! = auto: serial on single-CPU hosts, `min(cores, 4)` otherwise) from a
//! trace file — the input kind the pipeline serves — asserts the result
//! identical, and records per-app `overlapped_total_s` plus the
//! ledger-sourced `ingest_depth_peak` (validated against the bounded
//! channel's `depth + 2` ceiling), and the suite-wide `overlapped_wall_s`
//! vs `overlap_serial_wall_s`. On a single-CPU host auto degrades to
//! serial and the run asserts the pipeline's overhead stays within 10%.
//!
//! With `--metrics PATH`, the parallel multi-session run goes through
//! `MultiAnalyzer::with_metrics` and its aggregated batch ledger (one
//! session ledger per app plus batch-level queue/flight stats) is written
//! to PATH as versioned JSON (`-` prints the human-readable table).
//!
//! `--jobs N` additionally runs the whole 14-app suite through the
//! concurrent `MultiAnalyzer` front door — every app compiled, traced and
//! analyzed in its **own session** (own symbol space) — once serially
//! (`jobs = 1`) and once on `N` workers, and records both wall clocks in
//! the JSON so the perf trajectory captures the parallel path.

use autocheck_apps::{all_apps_scaled, Scale};
use autocheck_bench::{secs, Table};
use autocheck_core::{
    capture_ledger, index_variables_of, AnalysisJob, Analyzer, JobInput, MultiAnalyzer,
    PipelineConfig, Report, StreamAnalyzer,
};
use autocheck_interp::{ExecOptions, Machine, NoHook, WriterSink};
use autocheck_obs::{GaugeId, Metrics};
use autocheck_trace::{binary, AnalysisCtx, TraceSource};
use std::fmt::Write as _;

/// Ingest throughput for one trace format (serial parse of the whole
/// trace, best of three).
struct IngestRate {
    format: &'static str,
    bytes: u64,
    records_per_s: f64,
    bytes_per_s: f64,
}

/// One benchmark's measurements, in seconds.
struct AppRow {
    name: String,
    serial: Report,
    parallel: Report,
    /// Dependency-analysis time of the staged reference (the fused pass
    /// books none of its own).
    dependency: std::time::Duration,
    sharded_total: std::time::Duration,
    streaming_total: std::time::Duration,
    /// End-to-end wall of the serial batch pipeline reading the trace from
    /// a file — the baseline the overlapped wall is compared against.
    path_total: std::time::Duration,
    /// End-to-end wall of the decode-ahead overlapped ingest (auto depth)
    /// over the same file.
    overlapped_total: std::time::Duration,
    /// Peak of the `ingest.depth` gauge during the overlapped run, from
    /// the session ledger. Zero on single-CPU hosts (auto = serial).
    ingest_depth_peak: u64,
    peak_live: usize,
    arena_bytes: u64,
    ingest: Vec<IngestRate>,
}

/// Serial-ingest throughput of `bytes` (either format), best of three runs.
fn measure_ingest(bytes: &[u8], format: &'static str) -> IngestRate {
    let mut best = f64::INFINITY;
    let mut records = 0usize;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let parsed = TraceSource::from_bytes(bytes)
            .records()
            .expect("trace ingests");
        let dt = t.elapsed().as_secs_f64();
        records = parsed.len();
        if dt < best {
            best = dt;
        }
    }
    let best = best.max(1e-9);
    IngestRate {
        format,
        bytes: bytes.len() as u64,
        records_per_s: records as f64 / best,
        bytes_per_s: bytes.len() as f64 / best,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let jobs: usize = match args.iter().position(|a| a == "--jobs") {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(n) if n >= 1 => n,
            _ => {
                eprintln!("error: --jobs needs a positive integer");
                std::process::exit(2);
            }
        },
        None => std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(1),
    };
    let metrics_path: Option<String> = args.iter().position(|a| a == "--metrics").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: --metrics needs a path (or `-` for stdout)");
            std::process::exit(2);
        })
    });
    let positional: Vec<&String> = {
        let jobs_value = args.iter().position(|a| a == "--jobs").map(|i| i + 1);
        let metrics_value = args.iter().position(|a| a == "--metrics").map(|i| i + 1);
        args.iter()
            .enumerate()
            .filter(|(i, a)| {
                !a.starts_with("--") && Some(*i) != jobs_value && Some(*i) != metrics_value
            })
            .map(|(_, a)| a)
            .collect()
    };
    let scale = match positional.first().map(|s| s.as_str()) {
        Some("small") => Scale::Small,
        Some("large") => Scale::Large,
        _ => Scale::Medium,
    };
    let threads: usize = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            // Over-subscribe relative to the core count: on throttled/shared
            // machines a small number of long-running workers is hostage to
            // the slowest core (see autocheck-trace::parallel).
            std::thread::available_parallelism()
                .map(|n| n.get().max(4))
                .unwrap_or(4)
        });
    println!(
        "=== Table III: analysis efficiency ({scale:?} inputs; optimization = {threads} parser threads) ===\n"
    );
    let mut table = Table::new(&[
        "Name",
        "Pre-proc (s)",
        "(with opt)",
        "Dep analysis (s)",
        "Identify (s)",
        "Total (s)",
        "(with opt)",
        "Streaming (s)",
        "Peak live",
        "DDG n/e→c",
        "Bin ingest ×",
    ]);
    let mut rows: Vec<AppRow> = Vec::new();
    let overlap_dir = std::env::temp_dir().join(format!("autocheck-table3-{}", std::process::id()));
    std::fs::create_dir_all(&overlap_dir).expect("scratch dir for overlap traces");
    for spec in all_apps_scaled(scale) {
        let module = autocheck_minilang::compile(&spec.source).expect("compiles");
        let mut sink = WriterSink::new(Vec::new());
        Machine::new(&module, ExecOptions::default())
            .run(&mut sink, &mut NoHook)
            .expect("runs");
        let text = String::from_utf8(sink.finish().expect("trace")).expect("utf8");
        let index = index_variables_of(&module, &spec.region);

        let run = |parse_threads: usize| {
            Analyzer::new(spec.region.clone())
                .with_index_vars(index.clone())
                .with_config(PipelineConfig {
                    parse_threads,
                    ..PipelineConfig::default()
                })
                .analyze_text(&text)
                .expect("parses")
        };
        let serial = run(1);
        let parallel = run(threads);
        assert_eq!(
            serial.summary(),
            parallel.summary(),
            "parallelism must not change results"
        );
        // The analyzer runs region, MLI and dependency analysis fused in
        // one pass; the Table III dependency column comes from the staged
        // reference, which times the dependency fold on its own.
        let records = TraceSource::from_str(&text).records().expect("parses");
        let staged = Analyzer::new(spec.region.clone())
            .with_index_vars(index.clone())
            .analyze_staged(&records);
        assert_eq!(
            serial.summary(),
            staged.summary(),
            "the staged reference must agree with the engine"
        );
        // Sharded single-trace fold: auto shard count (one iteration-aligned
        // shard per core; single-CPU hosts degrade to the serial path).
        let sharded = Analyzer::new(spec.region.clone())
            .with_index_vars(index.clone())
            .with_config(PipelineConfig {
                shards: 0,
                ..PipelineConfig::default()
            })
            .analyze_text(&text)
            .expect("parses");
        assert_eq!(
            serial.summary(),
            sharded.summary(),
            "sharding must not change results"
        );
        // Overlapped decode-ahead ingest over the same trace, read from a
        // file — the input kind the pipeline serves (in-memory inputs are
        // unaffected by the overlap knob). Auto depth: serial on
        // single-CPU hosts, `min(cores, 4)` otherwise. The serial-from-file
        // wall is measured the same way so the comparison isolates the
        // pipeline, not the file I/O.
        let trace_path = overlap_dir.join(format!("{}.txt", spec.name));
        std::fs::write(&trace_path, text.as_bytes()).expect("write trace file");
        let run_path = |overlap: usize, ctx: &AnalysisCtx| {
            let t = std::time::Instant::now();
            let report = Analyzer::new(spec.region.clone())
                .with_index_vars(index.clone())
                .with_config(PipelineConfig {
                    overlap,
                    ..PipelineConfig::default()
                })
                .with_ctx(ctx.clone())
                .analyze_path(&trace_path)
                .expect("parses");
            (report, t.elapsed())
        };
        let (path_serial, path_total) = run_path(1, &AnalysisCtx::current());
        let octx = AnalysisCtx::current().with_metrics(Metrics::enabled());
        let (overlapped, overlapped_total) = run_path(0, &octx);
        assert_eq!(
            serial.summary(),
            path_serial.summary(),
            "file ingest must not change results"
        );
        assert_eq!(
            serial.summary(),
            overlapped.summary(),
            "overlapped ingest must not change results"
        );
        let _ = std::fs::remove_file(&trace_path);
        // Queue-depth peak from the ledger, validated against the bounded
        // channel's invariant: at depth d the producer can be at most d
        // batches plus one in-flight message ahead of the consumer.
        let oledger = capture_ledger(spec.name, &octx);
        let ingest_depth_peak = oledger.gauge(GaugeId::IngestDepth).1;
        let overlap_depth = autocheck_trace::resolve_overlap_depth(0);
        if overlap_depth > 1 {
            assert!(
                (1..=overlap_depth as u64 + 2).contains(&ingest_depth_peak),
                "{}: queue-depth peak {} outside [1, {}]",
                spec.name,
                ingest_depth_peak,
                overlap_depth + 2
            );
        } else {
            assert_eq!(
                ingest_depth_peak, 0,
                "{}: the serial path must book no queue depth",
                spec.name
            );
        }
        // The streaming run carries a metrics registry: schema-4 JSON
        // sources peak-live and the interner arena footprint from its
        // captured ledger, not from hand-maintained counters.
        let sctx = AnalysisCtx::current().with_metrics(Metrics::enabled());
        let streaming = StreamAnalyzer::new(spec.region.clone())
            .with_index_vars(index.clone())
            .with_ctx(sctx.clone())
            .run_read(text.as_bytes())
            .expect("streams");
        assert_eq!(
            serial.summary(),
            streaming.report.summary(),
            "streaming must not change results"
        );
        let ledger = capture_ledger(spec.name, &sctx);
        let peak_live = ledger.gauge(GaugeId::LiveRecords).1 as usize;
        assert_eq!(
            peak_live, streaming.stats.peak_live_records,
            "the ledger gauge and StreamStats report the same peak"
        );
        let arena_bytes = ledger.gauge(GaugeId::ArenaBytes).0;
        // Text-vs-binary ingest throughput on the identical record stream.
        let bin = binary::to_bytes(&records, &AnalysisCtx::current());
        let ingest = vec![
            measure_ingest(text.as_bytes(), "text"),
            measure_ingest(&bin, "binary"),
        ];
        let ingest_ratio = ingest[1].records_per_s / ingest[0].records_per_s.max(1e-9);
        table.row(vec![
            spec.name.to_string(),
            secs(serial.timings.preprocess),
            secs(parallel.timings.preprocess),
            secs(staged.timings.dependency),
            secs(serial.timings.identify),
            secs(serial.timings.total()),
            secs(parallel.timings.total()),
            secs(streaming.report.timings.total()),
            peak_live.to_string(),
            format!(
                "{}/{}→{}",
                serial.ddg.nodes, serial.ddg.edges, serial.ddg.contracted_nodes
            ),
            format!("{ingest_ratio:.1}"),
        ]);
        rows.push(AppRow {
            name: spec.name.to_string(),
            serial,
            parallel,
            dependency: staged.timings.dependency,
            sharded_total: sharded.timings.total(),
            streaming_total: streaming.report.timings.total(),
            path_total,
            overlapped_total,
            ingest_depth_peak,
            peak_live,
            arena_bytes,
            ingest,
        });
    }
    println!("{}", table.render());
    println!("shape check vs the paper: pre-processing (trace reading) dominates; the");
    println!("parallel reader cuts it; identification is the cheapest stage. The");
    println!("streaming column is one fused online pass whose peak live-record window");
    println!("(rightmost column) stays orders of magnitude below the trace length.");

    // Concurrent multi-session run: the whole suite through MultiAnalyzer,
    // each app in its own symbol space — serially and on `jobs` workers.
    let make_jobs = || -> Vec<AnalysisJob> {
        all_apps_scaled(scale)
            .into_iter()
            .map(|spec| {
                AnalysisJob::new(
                    spec.name,
                    JobInput::MiniLang(spec.source.clone()),
                    spec.region.clone(),
                )
            })
            .collect()
    };
    let serial_batch = MultiAnalyzer::new(1).run(make_jobs());
    assert!(
        serial_batch.failures.is_empty(),
        "batch failures: {:?}",
        serial_batch.failures
    );
    let parallel_batch = MultiAnalyzer::new(jobs)
        .with_metrics(metrics_path.is_some())
        .run(make_jobs());
    assert!(
        parallel_batch.failures.is_empty(),
        "batch failures: {:?}",
        parallel_batch.failures
    );
    for ((row, s), p) in rows
        .iter()
        .zip(&serial_batch.sessions)
        .zip(&parallel_batch.sessions)
    {
        assert_eq!(
            row.serial.summary(),
            s.summary,
            "{}: session summary must match the direct pipeline",
            row.name
        );
        assert_eq!(
            s.rendered, p.rendered,
            "{}: concurrent sessions must render byte-identical reports",
            row.name
        );
    }
    let batch_wall_1 = serial_batch.wall;
    let batch_wall_n = parallel_batch.wall;
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\nmulti-session (compile+trace+analyze per app, own symbol space each):\n\
         \x20 jobs=1: {:.3}s   jobs={}: {:.3}s   speedup {:.2}x ({} cpu(s) available)",
        batch_wall_1.as_secs_f64(),
        parallel_batch.jobs,
        batch_wall_n.as_secs_f64(),
        batch_wall_1.as_secs_f64() / batch_wall_n.as_secs_f64().max(1e-9),
        cpus,
    );
    if cpus == 1 {
        println!(
            "  (single-CPU machine: workers only interleave; the parallel wall\n\
             \x20  measures session-isolation overhead, not speedup)"
        );
    }

    // Sharded-fold wall across the suite. On a single-CPU host the auto
    // shard count resolves to 1 (serial path), so the sharded wall must
    // track the serial wall — enforce the ≤15% overhead bound here; on
    // multi-core hosts the ratio is a speedup signal instead.
    let shards = autocheck_trace::resolve_shard_count(0);
    let serial_wall_s: f64 = rows
        .iter()
        .map(|r| r.serial.timings.total().as_secs_f64())
        .sum();
    let shard_wall_s: f64 = rows.iter().map(|r| r.sharded_total.as_secs_f64()).sum();
    println!(
        "\nsharded fold (shards={}, auto): {:.3}s vs serial {:.3}s ({:.2}x)",
        shards,
        shard_wall_s,
        serial_wall_s,
        serial_wall_s / shard_wall_s.max(1e-9),
    );
    if cpus == 1 {
        assert!(
            shard_wall_s <= serial_wall_s * 1.15,
            "single-CPU sharded fold must stay within 15% of serial \
             (sharded {shard_wall_s:.3}s vs serial {serial_wall_s:.3}s)"
        );
        println!("  (single-CPU machine: auto degrades to serial; overhead within 15%)");
    }

    // Overlapped decode-ahead ingest wall across the suite (from file,
    // auto depth). On a single-CPU host auto resolves to serial, so the
    // overlapped wall must track the serial-from-file wall — enforce the
    // ≤10% overhead bound here; on multi-core hosts the ratio is the
    // decode-ahead speedup CI validates from the JSON.
    let overlap_depth = autocheck_trace::resolve_overlap_depth(0);
    let overlap_serial_wall_s: f64 = rows.iter().map(|r| r.path_total.as_secs_f64()).sum();
    let overlapped_wall_s: f64 = rows.iter().map(|r| r.overlapped_total.as_secs_f64()).sum();
    let _ = std::fs::remove_dir_all(&overlap_dir);
    println!(
        "\noverlapped ingest (depth={}, auto): {:.3}s vs serial-from-file {:.3}s ({:.2}x)",
        overlap_depth,
        overlapped_wall_s,
        overlap_serial_wall_s,
        overlap_serial_wall_s / overlapped_wall_s.max(1e-9),
    );
    if cpus == 1 {
        assert!(
            overlapped_wall_s <= overlap_serial_wall_s * 1.10,
            "single-CPU overlapped ingest must stay within 10% of serial \
             (overlapped {overlapped_wall_s:.3}s vs serial {overlap_serial_wall_s:.3}s)"
        );
        println!("  (single-CPU machine: auto degrades to serial; overhead within 10%)");
    }

    if let Some(path) = &metrics_path {
        let ledger = parallel_batch
            .ledger
            .as_ref()
            .expect("metrics batch produced a ledger");
        if path == "-" {
            println!("\n{}", ledger.render_table());
        } else {
            std::fs::write(path, ledger.to_json()).expect("write metrics ledger");
            println!("\nwrote batch run ledger to {path}");
        }
    }

    if json {
        let path = "BENCH_table3.json";
        std::fs::write(
            path,
            render_json(
                scale,
                threads,
                &rows,
                parallel_batch.jobs,
                batch_wall_1,
                batch_wall_n,
                shards,
                shard_wall_s,
                overlap_depth,
                overlap_serial_wall_s,
                overlapped_wall_s,
            ),
        )
        .expect("write BENCH_table3.json");
        println!("\nwrote machine-readable timings to {path}");
    }
}

/// Hand-rolled JSON (no serde in the offline vendor set). Field names are
/// the contract consumed by trend tooling; keep them stable.
#[allow(clippy::too_many_arguments)]
fn render_json(
    scale: Scale,
    threads: usize,
    rows: &[AppRow],
    jobs: usize,
    batch_wall_1: std::time::Duration,
    batch_wall_n: std::time::Duration,
    shards: usize,
    shard_wall_s: f64,
    overlap_depth: usize,
    overlap_serial_wall_s: f64,
    overlapped_wall_s: f64,
) -> String {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"table3\",");
    let _ = writeln!(out, "  \"schema\": 6,");
    let _ = writeln!(out, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(out, "  \"parse_threads\": {threads},");
    let _ = writeln!(out, "  \"unix_time\": {unix_time},");
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(
        out,
        "  \"cpus\": {},",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let _ = writeln!(
        out,
        "  \"batch_wall_serial_s\": {:.6},",
        batch_wall_1.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "  \"batch_wall_parallel_s\": {:.6},",
        batch_wall_n.as_secs_f64()
    );
    // Only meaningful as a speedup when `cpus > 1`; on a single-CPU host
    // the auto shard count degrades to serial and this tracks the serial
    // wall (CI validates accordingly).
    let _ = writeln!(out, "  \"shards\": {shards},");
    let _ = writeln!(out, "  \"shard_wall_s\": {shard_wall_s:.6},");
    // Decode-ahead ingest: resolved auto depth and end-to-end walls over
    // file-backed traces. Only a speedup signal when `cpus > 1`; on a
    // single-CPU host auto degrades to serial (and the run asserts the
    // overhead bound before writing this file).
    let _ = writeln!(out, "  \"overlap\": {overlap_depth},");
    let _ = writeln!(
        out,
        "  \"overlap_serial_wall_s\": {overlap_serial_wall_s:.6},"
    );
    let _ = writeln!(out, "  \"overlapped_wall_s\": {overlapped_wall_s:.6},");
    out.push_str("  \"apps\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let t = row.serial.timings;
        let p = row.parallel.timings;
        let d = row.serial.ddg;
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"preprocess_s\": {:.6}, \"preprocess_parallel_s\": {:.6}, \
             \"dependency_s\": {:.6}, \"identify_s\": {:.6}, \"total_s\": {:.6}, \
             \"total_parallel_s\": {:.6}, \"sharded_total_s\": {:.6}, \
             \"streaming_total_s\": {:.6}, \"path_total_s\": {:.6}, \
             \"overlapped_total_s\": {:.6}, \"ingest_depth_peak\": {}, \
             \"peak_live_records\": {}, \"records\": {}, \"arena_bytes\": {}, \
             \"ddg_nodes\": {}, \"ddg_edges\": {}, \"contracted_nodes\": {}, \
             \"contracted_edges\": {}, \"contract_wall_s\": {:.6}, \"ingest\": [{}]}}",
            row.name,
            t.preprocess.as_secs_f64(),
            p.preprocess.as_secs_f64(),
            row.dependency.as_secs_f64(),
            t.identify.as_secs_f64(),
            t.total().as_secs_f64(),
            p.total().as_secs_f64(),
            row.sharded_total.as_secs_f64(),
            row.streaming_total.as_secs_f64(),
            row.path_total.as_secs_f64(),
            row.overlapped_total.as_secs_f64(),
            row.ingest_depth_peak,
            row.peak_live,
            row.serial.records,
            row.arena_bytes,
            d.nodes,
            d.edges,
            d.contracted_nodes,
            d.contracted_edges,
            t.contract.as_secs_f64(),
            row.ingest
                .iter()
                .map(|r| {
                    format!(
                        "{{\"ingest_format\": \"{}\", \"bytes\": {}, \
                         \"records_per_s\": {:.1}, \"bytes_per_s\": {:.1}}}",
                        r.format, r.bytes, r.records_per_s, r.bytes_per_s
                    )
                })
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
