//! Table III reproduction: per-benchmark analysis-time breakdown —
//! pre-processing, dependency analysis, variable identification, total —
//! plus the streaming engine's single-pass total. The paper's "with
//! optimization" columns (its §V-A parallel trace parsing) are not
//! reproduced: every single-trace parallel mode measured here was slower
//! than the serial pass, so the only concurrency is `--jobs` across apps.
//!
//! Run with:
//! `cargo run --release -p autocheck-bench --bin table3 [scale] [--jobs N] [--json] [--metrics PATH]`
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
//! (`arena_bytes`) observed at each app's capture; schemas 5 and 6 added
//! the sharded-fold and decode-ahead-overlap runs, and schema 7 removes
//! them again together with the parallel-parse columns
//! (`parse_threads`, `preprocess_parallel_s`, `total_parallel_s`), since
//! the modes themselves are gone.
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
    capture_ledger, index_variables_of, AnalysisJob, Analyzer, JobInput, MultiAnalyzer, Report,
    StreamAnalyzer,
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
    /// Dependency-analysis time of the staged reference (the fused pass
    /// books none of its own).
    dependency: std::time::Duration,
    streaming_total: std::time::Duration,
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
    println!("=== Table III: analysis efficiency ({scale:?} inputs) ===\n");
    let mut table = Table::new(&[
        "Name",
        "Pre-proc (s)",
        "Dep analysis (s)",
        "Identify (s)",
        "Total (s)",
        "Streaming (s)",
        "Peak live",
        "DDG n/e→c",
        "Bin ingest ×",
    ]);
    let mut rows: Vec<AppRow> = Vec::new();
    for spec in all_apps_scaled(scale) {
        // Each app runs in its own session, entered for the whole block,
        // so its ledger's `arena_bytes` books this app's symbols alone.
        let ctx = AnalysisCtx::session();
        let _space = ctx.enter();
        let module = autocheck_minilang::compile(&spec.source).expect("compiles");
        let mut sink = WriterSink::new(Vec::new());
        Machine::new(&module, ExecOptions::default())
            .run(&mut sink, &mut NoHook)
            .expect("runs");
        let text = String::from_utf8(sink.finish().expect("trace")).expect("utf8");
        let index = index_variables_of(&module, &spec.region);

        let serial = Analyzer::new(spec.region.clone())
            .with_index_vars(index.clone())
            .run_bytes(text.as_bytes())
            .expect("parses")
            .report;
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
        // The streaming run carries a metrics registry: schema-4 JSON
        // sources peak-live and the interner arena footprint from its
        // captured ledger, not from hand-maintained counters.
        let sctx = ctx.clone().with_metrics(Metrics::enabled());
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
        let bin = binary::to_bytes(&records, &ctx);
        let ingest = vec![
            measure_ingest(text.as_bytes(), "text"),
            measure_ingest(&bin, "binary"),
        ];
        let ingest_ratio = ingest[1].records_per_s / ingest[0].records_per_s.max(1e-9);
        table.row(vec![
            spec.name.to_string(),
            secs(serial.timings.preprocess),
            secs(staged.timings.dependency),
            secs(serial.timings.identify),
            secs(serial.timings.total()),
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
            dependency: staged.timings.dependency,
            streaming_total: streaming.report.timings.total(),
            peak_live,
            arena_bytes,
            ingest,
        });
    }
    println!("{}", table.render());
    println!("shape check vs the paper: pre-processing (trace reading) dominates and");
    println!("identification is the cheapest stage. The streaming column is one fused");
    println!("online pass whose peak live-record window stays orders of magnitude below");
    println!("the trace length.");

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
                &rows,
                parallel_batch.jobs,
                batch_wall_1,
                batch_wall_n,
            ),
        )
        .expect("write BENCH_table3.json");
        println!("\nwrote machine-readable timings to {path}");
    }
}

/// Hand-rolled JSON (no serde in the offline vendor set). Field names are
/// the contract consumed by trend tooling; keep them stable.
fn render_json(
    scale: Scale,
    rows: &[AppRow],
    jobs: usize,
    batch_wall_1: std::time::Duration,
    batch_wall_n: std::time::Duration,
) -> String {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"table3\",");
    let _ = writeln!(out, "  \"schema\": 7,");
    let _ = writeln!(out, "  \"scale\": \"{scale:?}\",");
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
    out.push_str("  \"apps\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let t = row.serial.timings;
        let d = row.serial.ddg;
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"preprocess_s\": {:.6}, \
             \"dependency_s\": {:.6}, \"identify_s\": {:.6}, \"total_s\": {:.6}, \
             \"streaming_total_s\": {:.6}, \
             \"peak_live_records\": {}, \"records\": {}, \"arena_bytes\": {}, \
             \"ddg_nodes\": {}, \"ddg_edges\": {}, \"contracted_nodes\": {}, \
             \"contracted_edges\": {}, \"contract_wall_s\": {:.6}, \"ingest\": [{}]}}",
            row.name,
            t.preprocess.as_secs_f64(),
            row.dependency.as_secs_f64(),
            t.identify.as_secs_f64(),
            t.total().as_secs_f64(),
            row.streaming_total.as_secs_f64(),
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
