//! [`MultiAnalyzer`]: the concurrent multi-analysis front door.
//!
//! One process, N independent analyses: every job runs in its **own
//! analysis session** — a fresh [`AnalysisCtx`] with its own
//! [`SymbolSpace`](autocheck_trace::SymbolSpace) (so symbol ids, and the
//! dense tables they index, are sized per-session and never shared between
//! tenants) and, for jobs marked untrusted, its own address-hash seed (so
//! a crafted trace cannot aim precomputed hash-collision chains at the
//! process). Jobs are pulled from a shared queue by a small thread pool;
//! each worker installs its session's space for the duration of the job,
//! runs the analysis engine, and **renders all output inside
//! the session** — the returned [`SessionReport`] carries plain strings,
//! so callers never hold cross-session symbol ids.
//!
//! The multi-session stress tests assert the property this module exists
//! for: running all 14 benchmark analyses concurrently in interleaved
//! sessions produces reports and DOT output byte-identical to running them
//! one at a time.

use crate::observe::capture_ledger;
use crate::pipeline::{index_variables_of, Analyzer, PipelineConfig};
use crate::preprocess::CollectMode;
use crate::region::{Phases, Region};
use crate::report::{DepType, Report, Timings};
use crate::stream::{StreamAnalyzer, StreamConfig};
use autocheck_obs::ledger::{BatchLedger, Ledger};
use autocheck_obs::{CounterId, GaugeId, Metrics, TimerId};
use autocheck_trace::{AnalysisCtx, ResourceLimits, TraceSource};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Where one job's trace comes from.
#[derive(Clone, Debug)]
pub enum JobInput {
    /// An in-memory textual trace.
    TraceText(String),
    /// A trace file, read inside the session as the engine folds it.
    TracePath(String),
    /// MiniLang source: the session compiles it, executes it under the
    /// tracer (interning into the session's space), and analyzes the
    /// resulting records — the full substrate chain with no trace file.
    MiniLang(String),
}

/// One analysis request.
#[derive(Clone, Debug)]
pub struct AnalysisJob {
    /// Display name (manifest entry, benchmark name, tenant id…).
    pub name: String,
    /// The trace source.
    pub input: JobInput,
    /// The main computation loop's location.
    pub region: Region,
    /// Index variables; `None` derives them from the IR loop pass for
    /// MiniLang inputs (and means "none" for trace inputs).
    pub index_vars: Option<Vec<String>>,
    /// Occurrence-collection strictness.
    pub collect: CollectMode,
    /// Treat the trace as untrusted: the session gets a random
    /// address-hash seed (the `--untrusted-trace` flag).
    pub untrusted: bool,
    /// Report as a streaming job: the session's peak live-record window,
    /// the [`max_live_records`](Self::max_live_records) bound, and the
    /// engine's own contracted DOT. Batch and streaming jobs run the same
    /// engine pass; records are materialized only for `shards > 1`, and a
    /// batch job's `dot` re-reads the trace to render the staged batch
    /// numbering.
    pub stream: bool,
    /// Hard live-record bound for streaming jobs.
    pub max_live_records: Option<usize>,
    /// Session resource ceilings (trace records/bytes, symbols, arena
    /// bytes, DDG size, live window). A tripped ceiling fails *this* job
    /// with a typed message; the rest of the batch is untouched.
    pub limits: ResourceLimits,
    /// Also render the contracted DDG as DOT (batch *and* streaming jobs —
    /// the streaming engine contracts its own frozen graph at finish).
    pub dot: bool,
    /// Iteration-aligned shards for the analysis fold: `1` = serial, `0` =
    /// one per available core, `N` = at most `N` workers. Output is
    /// byte-identical to the serial fold; session resource ceilings still
    /// apply to the merged state.
    pub shards: usize,
    /// Decode-ahead depth for trace-file ingest: `1` = serial, `0` = auto
    /// (serial on single-core hosts), `n >= 2` = read and decode on
    /// background threads, `n` record batches ahead of the fold. Output is
    /// byte-identical to serial at every depth.
    pub overlap: usize,
}

impl AnalysisJob {
    /// A job with default settings (batch pipeline, trusted, any-access
    /// collection) over the given input.
    pub fn new(name: impl Into<String>, input: JobInput, region: Region) -> AnalysisJob {
        AnalysisJob {
            name: name.into(),
            input,
            region,
            index_vars: None,
            collect: CollectMode::AnyAccess,
            untrusted: false,
            stream: false,
            max_live_records: None,
            limits: ResourceLimits::default(),
            dot: false,
            shards: 1,
            overlap: 1,
        }
    }

    /// Provide explicit index variables.
    pub fn with_index_vars(mut self, vars: Vec<String>) -> AnalysisJob {
        self.index_vars = Some(vars);
        self
    }

    /// Mark the trace source untrusted (per-session seeded address maps).
    pub fn untrusted(mut self, yes: bool) -> AnalysisJob {
        self.untrusted = yes;
        self
    }

    /// Report as a streaming job (see [`AnalysisJob::stream`]).
    pub fn streaming(mut self, yes: bool) -> AnalysisJob {
        self.stream = yes;
        self
    }

    /// Apply session resource ceilings to this job.
    pub fn with_limits(mut self, limits: ResourceLimits) -> AnalysisJob {
        self.limits = limits;
        self
    }

    /// Render the contracted DDG as DOT.
    pub fn with_dot(mut self, yes: bool) -> AnalysisJob {
        self.dot = yes;
        self
    }

    /// Shard this job's trace fold across cores (`0` = auto, `1` = serial).
    pub fn with_shards(mut self, shards: usize) -> AnalysisJob {
        self.shards = shards;
        self
    }

    /// Decode the trace ahead of the fold on background threads (`0` =
    /// auto, `1` = serial, `n >= 2` = `n` batches of lookahead).
    pub fn with_overlap(mut self, overlap: usize) -> AnalysisJob {
        self.overlap = overlap;
        self
    }
}

/// One finished session, rendered entirely inside its own symbol space —
/// every field is session-independent plain data.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// The job's name.
    pub name: String,
    /// `(variable, dependency class)` pairs, sorted by name.
    pub summary: Vec<(String, DepType)>,
    /// The full report, rendered exactly as `autocheck` prints it.
    pub rendered: String,
    /// The contracted DDG in DOT form, when the job asked for it.
    pub dot: Option<String>,
    /// Records analyzed.
    pub records: u64,
    /// Loop iterations observed.
    pub iterations: u32,
    /// Peak live-record window (streaming jobs only).
    pub peak_live_records: Option<usize>,
    /// Distinct symbols interned by this session — the size its dense
    /// sym-indexed tables were bounded by.
    pub symbols: usize,
    /// Per-stage analysis timings.
    pub timings: Timings,
    /// Wall clock for the whole session (input acquisition + analysis +
    /// rendering).
    pub wall: Duration,
    /// The session's metrics snapshot, when the batch ran with metrics on
    /// ([`MultiAnalyzer::with_metrics`]).
    pub ledger: Option<Ledger>,
}

/// A job that did not produce a report.
#[derive(Clone, Debug)]
pub struct SessionFailure {
    /// The job's name.
    pub name: String,
    /// What went wrong.
    pub message: String,
    /// The session's metrics snapshot at the point of failure, when the
    /// batch ran with metrics on — a tripped quota still shows up as
    /// `session.limit_exceeded` in the aggregated ledger. Boxed: failures
    /// travel through `Result::Err` and should stay small.
    pub ledger: Option<Box<Ledger>>,
}

/// Everything a batch run produced.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Finished sessions, in job-submission order.
    pub sessions: Vec<SessionReport>,
    /// Failed jobs, in job-submission order.
    pub failures: Vec<SessionFailure>,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall clock for the whole batch.
    pub wall: Duration,
    /// The aggregated run ledger — the batch-level registry (queue waits,
    /// jobs in flight, ok/failed counts) plus every session's own ledger —
    /// when the batch ran with metrics on.
    pub ledger: Option<BatchLedger>,
}

impl BatchOutcome {
    /// A rendered aggregate summary: one line per session plus totals.
    pub fn aggregate(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut records: u64 = 0;
        let mut critical: usize = 0;
        for s in &self.sessions {
            records += s.records;
            critical += s.summary.len();
            let peak = match s.peak_live_records {
                Some(p) => format!("{p}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<10} {:>9} records  {:>4} iters  {:>2} critical  {:>8} symbols  \
                 peak-live {:>6}  total {:>9.3?}  wall {:>9.3?}",
                s.name,
                s.records,
                s.iterations,
                s.summary.len(),
                s.symbols,
                peak,
                s.timings.total(),
                s.wall,
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "  {:<10} FAILED: {}", f.name, f.message);
        }
        let _ = writeln!(
            out,
            "  {} session(s), {} failure(s), {} records, {} critical variables; \
             {} worker(s), batch wall {:.3?}",
            self.sessions.len(),
            self.failures.len(),
            records,
            critical,
            self.jobs,
            self.wall,
        );
        out
    }
}

/// The concurrent multi-analysis service: N workers, one fresh
/// [`AnalysisCtx`] per job.
#[derive(Clone, Debug)]
pub struct MultiAnalyzer {
    jobs: usize,
    metrics: bool,
}

impl MultiAnalyzer {
    /// A service front door running up to `jobs` analyses concurrently
    /// (`0` is clamped to 1).
    pub fn new(jobs: usize) -> MultiAnalyzer {
        MultiAnalyzer {
            jobs: jobs.max(1),
            metrics: false,
        }
    }

    /// Run with observability on: every session gets its own metrics
    /// registry (snapshotted into [`SessionReport::ledger`]) and the batch
    /// keeps a registry of its own — queue waits, jobs in flight, ok/failed
    /// counts — aggregated into [`BatchOutcome::ledger`].
    pub fn with_metrics(mut self, yes: bool) -> MultiAnalyzer {
        self.metrics = yes;
        self
    }

    /// Run every job, each in its own session, on up to
    /// `self.jobs` workers. Results come back in submission order
    /// regardless of completion order.
    pub fn run(&self, jobs: Vec<AnalysisJob>) -> BatchOutcome {
        let t0 = Instant::now();
        let workers = self.jobs.min(jobs.len()).max(1);
        let batch = if self.metrics {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        };
        // One job, start to finish, with the batch-level registry booked:
        // how long the job sat queued, how many jobs were in flight while
        // it ran (the gauge's peak is the achieved concurrency), and
        // whether it succeeded.
        let run_one = |job: &AnalysisJob| -> Result<SessionReport, SessionFailure> {
            batch.record_duration(TimerId::QueueWait, t0.elapsed());
            batch.gauge_add(GaugeId::JobsInFlight, 1);
            let result = run_session(job, self.metrics);
            batch.gauge_sub(GaugeId::JobsInFlight, 1);
            match &result {
                Ok(_) => batch.count(CounterId::SessionsOk, 1),
                Err(_) => batch.count(CounterId::SessionsFailed, 1),
            }
            result
        };
        let mut slots: Vec<Option<Result<SessionReport, SessionFailure>>> = Vec::new();
        slots.resize_with(jobs.len(), || None);
        if workers == 1 {
            for (slot, job) in slots.iter_mut().zip(&jobs) {
                *slot = Some(run_one(job));
            }
        } else {
            let next = AtomicUsize::new(0);
            let slots_mut = std::sync::Mutex::new(&mut slots);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let jobs = &jobs;
                    let next = &next;
                    let slots_mut = &slots_mut;
                    let run_one = &run_one;
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        let result = run_one(&jobs[i]);
                        slots_mut.lock().expect("slots poisoned")[i] = Some(result);
                    });
                }
            });
        }
        let mut sessions = Vec::new();
        let mut failures = Vec::new();
        for slot in slots {
            match slot.expect("every job slot is filled") {
                Ok(s) => sessions.push(s),
                Err(f) => failures.push(f),
            }
        }
        let wall = t0.elapsed();
        let ledger = self.metrics.then(|| BatchLedger {
            jobs: (sessions.len() + failures.len()) as u64,
            wall_ns: wall.as_nanos() as u64,
            batch: Ledger::capture("batch", &batch),
            sessions: sessions
                .iter()
                .filter_map(|s| s.ledger.clone())
                .chain(failures.iter().filter_map(|f| f.ledger.as_deref().cloned()))
                .collect(),
        });
        BatchOutcome {
            sessions,
            failures,
            jobs: workers,
            wall,
            ledger,
        }
    }
}

/// Run one job in a fresh session. Panics inside the pipeline are caught
/// and reported as failures so one bad job cannot take down the batch.
fn run_session(job: &AnalysisJob, metrics: bool) -> Result<SessionReport, SessionFailure> {
    // The ctx lives out here so a failing job's registry survives the
    // error path — its counters (notably `session.limit_exceeded`) are
    // snapshotted into the failure record.
    let mut ctx = if job.untrusted {
        AnalysisCtx::session().untrusted()
    } else {
        AnalysisCtx::session()
    };
    if !job.limits.is_unlimited() {
        ctx = ctx.with_limits(job.limits);
    }
    if metrics {
        ctx = ctx.with_metrics(Metrics::enabled());
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_session_inner(job, &ctx)
    }))
    .unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "analysis panicked".to_string());
        Err(format!("panic: {msg}"))
    })
    .map_err(|message| SessionFailure {
        name: job.name.clone(),
        message,
        ledger: ctx
            .metrics()
            .is_enabled()
            .then(|| Box::new(capture_ledger(&job.name, &ctx))),
    })
}

fn run_session_inner(job: &AnalysisJob, ctx: &AnalysisCtx) -> Result<SessionReport, String> {
    let t0 = Instant::now();
    // Output edges (report rendering, DOT) resolve via the thread-current
    // space; hold the guard for the whole session.
    let _guard = ctx.enter();

    // Every job is one run of the streaming engine. A batch job runs it
    // the way the batch front door does: the DDG is contracted for the
    // report, and the live-record bound (a streaming setting) is off.
    let (engine, drive) = if job.stream {
        let engine = StreamAnalyzer::new(job.region.clone())
            .with_config(StreamConfig {
                collect: job.collect,
                max_live_records: job.max_live_records,
                contracted_dot: job.dot,
                shards: job.shards,
                overlap: job.overlap,
                ..StreamConfig::default()
            })
            .with_ctx(ctx.clone());
        let drive = engine.drive();
        (engine, drive)
    } else {
        let batch = Analyzer::new(job.region.clone())
            .with_config(PipelineConfig {
                collect: job.collect,
                shards: job.shards,
                overlap: job.overlap,
                ..PipelineConfig::default()
            })
            .with_ctx(ctx.clone());
        (batch.engine(), batch.drive())
    };
    let trace_index = || job.index_vars.clone().unwrap_or_default();

    // Trace jobs never materialize the trace (unless sharded): records
    // flow from the source straight into the engine, interning every
    // symbol into this session's space.
    let (run, records) = match &job.input {
        JobInput::TracePath(path) => (
            engine
                .with_index_vars(trace_index())
                .run_path_with(std::path::Path::new(path), drive),
            None,
        ),
        JobInput::TraceText(text) => (
            engine
                .with_index_vars(trace_index())
                .run_bytes_with(text.as_bytes(), drive),
            None,
        ),
        JobInput::MiniLang(source) => {
            let module =
                autocheck_minilang::compile(source).map_err(|e| format!("compile error: {e:?}"))?;
            let mut machine = autocheck_interp::Machine::with_ctx(
                &module,
                autocheck_interp::ExecOptions::default(),
                ctx.clone(),
            );
            let mut sink = autocheck_interp::VecSink::default();
            machine
                .run(&mut sink, &mut autocheck_interp::NoHook)
                .map_err(|e| format!("execution error: {e}"))?;
            let index = match &job.index_vars {
                Some(v) => v.clone(),
                None => index_variables_of(&module, &job.region),
            };
            // The interpreter already produced the records; push them.
            let run = engine.with_index_vars(index).run_records_with(
                &sink.records,
                None,
                drive.contraction,
                Instant::now(),
            );
            (run, Some(sink.records))
        }
    };
    let run = run.map_err(|e| e.to_string())?;

    // A batch job's DOT keeps the batch numbering: re-fold the records
    // through the staged dependency fold, re-reading a trace input.
    let dot = if job.dot && !job.stream {
        let records = match (records, &job.input) {
            (Some(records), _) => records,
            (None, JobInput::TracePath(path)) => TraceSource::from_path(path)
                .ctx(ctx)
                .overlap(job.overlap)
                .records()
                .map_err(|e| e.to_string())?,
            (None, JobInput::TraceText(text)) => TraceSource::from_str(text)
                .ctx(ctx)
                .records()
                .map_err(|e| e.to_string())?,
            (None, JobInput::MiniLang(_)) => unreachable!("MiniLang jobs keep their records"),
        };
        Some(render_dot(&records, &job.region, &run.report, ctx))
    } else {
        run.contracted_dot
    };
    let stats = job.stream.then_some(run.stats);
    Ok(session_report(job, ctx, run.report, stats, dot, t0))
}

/// Assemble the rendered, session-independent report (called inside the
/// session's guard so `Display` resolves in the right space).
fn session_report(
    job: &AnalysisJob,
    ctx: &AnalysisCtx,
    report: Report,
    stream_stats: Option<crate::stream::StreamStats>,
    dot: Option<String>,
    t0: Instant,
) -> SessionReport {
    let wall = t0.elapsed();
    let ledger = if ctx.metrics().is_enabled() {
        ctx.metrics().record_duration(TimerId::SessionWall, wall);
        Some(capture_ledger(&job.name, ctx))
    } else {
        None
    };
    SessionReport {
        name: job.name.clone(),
        summary: report.summary(),
        rendered: report.to_string(),
        dot,
        records: report.records,
        iterations: report.iterations,
        peak_live_records: stream_stats.map(|s| s.peak_live_records),
        symbols: ctx.space().len(),
        timings: report.timings,
        wall,
        ledger,
    }
}

/// The contracted-DDG DOT rendering the `autocheck --dot` path produces,
/// computed inside the session. Re-runs only the dependency fold — with
/// event retention off, so no O(trace) vector is held — and contracts the
/// frozen graph.
fn render_dot(
    records: &[autocheck_trace::Record],
    region: &Region,
    report: &Report,
    ctx: &AnalysisCtx,
) -> String {
    let phases = Phases::compute_in(records, region, ctx);
    let graph = crate::ddg::DdgAnalysis::fold_in(
        records,
        &phases,
        &report.mli,
        crate::ddg::DdgOptions {
            retain_events: false,
            ..crate::ddg::DdgOptions::default()
        },
        ctx,
        |_| {},
    );
    crate::contract::contract_for_mli(&graph, &report.mli).to_dot()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOP_MC: &str = "\
int main() {
    int sum = 0; int r = 1;
    for (int it = 0; it < 4; it = it + 1) { // @loop-start
        sum = sum + r;
        r = r + 1;
    } // @loop-end
    print(sum);
    return 0;
}
";

    fn mini_job(name: &str) -> AnalysisJob {
        AnalysisJob::new(
            name,
            JobInput::MiniLang(LOOP_MC.to_string()),
            Region::new("main", 3, 6),
        )
    }

    #[test]
    fn single_minilang_job_round_trips() {
        let out = MultiAnalyzer::new(1).run(vec![mini_job("toy")]);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let s = &out.sessions[0];
        assert_eq!(s.name, "toy");
        assert!(s.records > 0);
        assert_eq!(s.iterations, 4);
        assert!(s.symbols > 0);
        let names: Vec<&str> = s.summary.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"sum"), "summary: {:?}", s.summary);
        assert!(s.rendered.contains("checkpoint"));
    }

    #[test]
    fn concurrent_equals_serial_and_keeps_submission_order() {
        let jobs: Vec<AnalysisJob> = (0..6).map(|i| mini_job(&format!("job{i}"))).collect();
        let serial = MultiAnalyzer::new(1).run(jobs.clone());
        let parallel = MultiAnalyzer::new(4).run(jobs);
        assert_eq!(serial.sessions.len(), 6);
        assert_eq!(parallel.sessions.len(), 6);
        for (a, b) in serial.sessions.iter().zip(&parallel.sessions) {
            assert_eq!(a.name, b.name, "submission order preserved");
            assert_eq!(a.rendered, b.rendered, "byte-identical rendering");
            assert_eq!(a.summary, b.summary);
            assert_eq!(a.symbols, b.symbols, "per-session symbol counts");
        }
    }

    #[test]
    fn trace_text_job_with_streaming_and_untrusted_seed() {
        // Build a trace in a scratch session, render it to text, and feed
        // the text as an untrusted streaming job.
        let scratch = MultiAnalyzer::new(1).run(vec![mini_job("gen")]);
        assert!(scratch.failures.is_empty());
        // Regenerate the trace text through the interpreter directly.
        let module = autocheck_minilang::compile(LOOP_MC).unwrap();
        let ctx = AnalysisCtx::session();
        let mut machine = autocheck_interp::Machine::with_ctx(
            &module,
            autocheck_interp::ExecOptions::default(),
            ctx.clone(),
        );
        let mut sink = autocheck_interp::WriterSink::new(Vec::new());
        let _g = ctx.enter();
        machine
            .run(&mut sink, &mut autocheck_interp::NoHook)
            .unwrap();
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        drop(_g);

        let job = AnalysisJob::new(
            "tenant",
            JobInput::TraceText(text),
            Region::new("main", 3, 6),
        )
        .with_index_vars(vec!["it".to_string()])
        .streaming(true)
        .untrusted(true);
        let out = MultiAnalyzer::new(2).run(vec![job.clone(), job]);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        for s in &out.sessions {
            assert!(s.peak_live_records.unwrap() > 0);
            assert!((s.peak_live_records.unwrap() as u64) < s.records);
        }
        // Untrusted sessions hash with different seeds yet report
        // identically.
        assert_eq!(out.sessions[0].rendered, out.sessions[1].rendered);
    }

    #[test]
    fn failures_are_isolated_per_session() {
        let good = mini_job("good");
        let bad = AnalysisJob::new(
            "bad",
            JobInput::TraceText("0,zz,broken,1:1,0,27,9,\n".to_string()),
            Region::new("main", 1, 2),
        );
        let missing = AnalysisJob::new(
            "missing",
            JobInput::TracePath("/nonexistent/trace.txt".to_string()),
            Region::new("main", 1, 2),
        );
        let out = MultiAnalyzer::new(3).run(vec![good, bad, missing]);
        assert_eq!(out.sessions.len(), 1);
        assert_eq!(out.failures.len(), 2);
        assert_eq!(out.failures[0].name, "bad");
        assert!(out.failures[0].message.contains("src line"));
        assert_eq!(out.failures[1].name, "missing");
        let agg = out.aggregate();
        assert!(agg.contains("good"));
        assert!(agg.contains("FAILED"));
        assert!(agg.contains("2 failure(s)"));
    }

    #[test]
    fn quota_tripped_job_leaves_the_rest_byte_identical() {
        // Acceptance bar: in an 8-job batch, one job tripping its quota
        // fails alone with a typed message; the other 7 reports are
        // byte-identical to a run with no quotas anywhere.
        let baseline_jobs: Vec<AnalysisJob> = (0..8).map(|i| mini_job(&format!("q{i}"))).collect();
        let baseline = MultiAnalyzer::new(4).run(baseline_jobs);
        assert!(baseline.failures.is_empty(), "{:?}", baseline.failures);

        let jobs: Vec<AnalysisJob> = (0..8)
            .map(|i| {
                let job = mini_job(&format!("q{i}"));
                if i == 3 {
                    job.with_limits(ResourceLimits::new().max_ddg_nodes(0))
                } else {
                    job
                }
            })
            .collect();
        let out = MultiAnalyzer::new(4).run(jobs);
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].name, "q3");
        assert!(
            out.failures[0].message.contains("resource limit exceeded"),
            "typed message, got: {}",
            out.failures[0].message
        );
        assert_eq!(out.sessions.len(), 7);
        let surviving: Vec<&SessionReport> = baseline
            .sessions
            .iter()
            .filter(|s| s.name != "q3")
            .collect();
        for (a, b) in surviving.iter().zip(&out.sessions) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.rendered, b.rendered,
                "{}: report must be untouched",
                a.name
            );
            assert_eq!(a.summary, b.summary);
        }
    }

    #[test]
    fn tripped_quota_is_counted_in_the_batch_ledger() {
        // A failed job's registry survives into the aggregated ledger: the
        // failure record carries its session ledger, the batch ledger
        // includes it, and `session.limit_exceeded` is booked.
        let jobs = vec![
            mini_job("ok"),
            mini_job("capped").with_limits(ResourceLimits::new().max_ddg_nodes(0)),
        ];
        let out = MultiAnalyzer::new(2).with_metrics(true).run(jobs);
        assert_eq!(out.sessions.len(), 1);
        assert_eq!(out.failures.len(), 1);
        let failed = out.failures[0].ledger.as_ref().expect("failure ledger");
        assert_eq!(
            failed.counter(CounterId::LimitExceeded),
            1,
            "{:?}",
            failed.counters
        );
        let batch = out.ledger.as_ref().expect("batch ledger");
        assert_eq!(batch.jobs, 2);
        assert_eq!(batch.sessions.len(), 2, "failed session ledger included");
        assert!(batch.sessions.iter().any(|l| l.name == "capped"));
    }

    #[test]
    fn metrics_batches_carry_session_and_batch_ledgers() {
        let jobs: Vec<AnalysisJob> = (0..4).map(|i| mini_job(&format!("m{i}"))).collect();
        let out = MultiAnalyzer::new(2).with_metrics(true).run(jobs.clone());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let batch = out.ledger.as_ref().expect("batch ledger present");
        assert_eq!(batch.sessions.len(), 4);
        assert_eq!(batch.batch.counter(CounterId::SessionsOk), 4);
        assert_eq!(batch.batch.counter(CounterId::SessionsFailed), 0);
        assert_eq!(batch.batch.timer(TimerId::QueueWait).1, 4);
        assert!(batch.batch.gauge(GaugeId::JobsInFlight).1 >= 1);
        for (s, l) in out.sessions.iter().zip(&batch.sessions) {
            assert_eq!(s.ledger.as_ref(), Some(l), "outcome and aggregate agree");
            assert_eq!(l.name, s.name);
            assert!(l.gauge(GaugeId::Symbols).0 > 0, "session symbols gauged");
            assert!(l.gauge(GaugeId::ArenaBytes).0 > 0, "arena footprint gauged");
            assert!(l.timer(TimerId::SessionWall).0 > 0, "session wall recorded");
            assert!(l.gauge(GaugeId::DdgNodes).0 > 0, "ddg size gauged");
        }
        // The batch ledger round-trips through its JSON form.
        let parsed = BatchLedger::from_json(&batch.to_json()).expect("parses");
        assert_eq!(&parsed, batch);
        // Metrics must not perturb output: same jobs, metrics off,
        // byte-identical renderings.
        let quiet = MultiAnalyzer::new(2).run(jobs);
        for (a, b) in out.sessions.iter().zip(&quiet.sessions) {
            assert_eq!(a.rendered, b.rendered);
            assert!(b.ledger.is_none());
        }
    }

    #[test]
    fn dot_jobs_render_the_contracted_ddg() {
        let out = MultiAnalyzer::new(1).run(vec![mini_job("dotted").with_dot(true)]);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let dot = out.sessions[0].dot.as_ref().expect("dot rendered");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("sum"));
    }

    #[test]
    fn streaming_jobs_render_the_contracted_ddg_too() {
        // Contraction used to be batch-only; the unified graph exposes it
        // online: the engine contracts its own frozen CSR graph at finish.
        let out =
            MultiAnalyzer::new(1).run(vec![mini_job("stream-dot").streaming(true).with_dot(true)]);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let s = &out.sessions[0];
        assert!(s.peak_live_records.is_some(), "really streamed");
        let dot = s.dot.as_ref().expect("streaming dot rendered");
        assert!(dot.starts_with("digraph contracted"));
        assert!(dot.contains("sum"));
        // Same dependency skeleton as the batch rendering: every batch
        // edge label pair appears (numbering may differ, labels must not).
        let batch = MultiAnalyzer::new(1).run(vec![mini_job("batch-dot").with_dot(true)]);
        let batch_dot = batch.sessions[0].dot.as_ref().unwrap();
        for name in ["sum", "r"] {
            assert_eq!(
                dot.matches(&format!("label=\"{name}\"")).count(),
                batch_dot.matches(&format!("label=\"{name}\"")).count(),
                "{name}: node presence must agree between pipelines"
            );
        }
    }
}
