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
//! Every job is one run of the one analyzer, [`StreamAnalyzer`], under the
//! job's ceilings ([`AnalysisJob::limits`], the live-record bound among
//! them). A trace job pulls records from its source into the engine; a
//! MiniLang job pushes each record from the interpreter straight into the
//! engine, so neither holds the trace. `autocheck --batch` and
//! `mlc trace --stream` run their inputs as jobs of this service.
//!
//! The multi-session stress tests assert the property this module exists
//! for: running all 14 benchmark analyses concurrently in interleaved
//! sessions produces reports and DOT output byte-identical to running them
//! one at a time.

use crate::observe::capture_ledger;
use crate::pipeline::index_variables_of;
use crate::preprocess::CollectMode;
use crate::region::Region;
use crate::report::{DepType, Timings};
use crate::stream::{StreamAnalyzer, StreamConfig, StreamRun};
use autocheck_interp::{ExecError, ExecOptions, FnSink, Machine, NoHook};
use autocheck_obs::ledger::{BatchLedger, Ledger};
use autocheck_obs::{CounterId, GaugeId, Metrics, TimerId};
use autocheck_trace::{AnalysisCtx, Record, ResourceLimits};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Where one job's trace comes from.
#[derive(Clone, Debug)]
pub enum JobInput {
    /// An in-memory textual trace.
    TraceText(String),
    /// A trace file, read inside the session as the engine folds it.
    TracePath(String),
    /// MiniLang source: the session compiles it and executes it under the
    /// tracer (interning into the session's space), pushing each record
    /// into the engine as it is emitted — the full substrate chain with no
    /// trace file and no record buffer.
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
    /// Report the session's peak live-record window
    /// ([`SessionReport::peak_live_records`]). Every job is the same engine
    /// run; this changes only what is reported.
    pub stream: bool,
    /// Session resource ceilings (trace records/bytes, symbols, arena
    /// bytes, DDG size, and the live-record bound). A tripped ceiling
    /// fails *this* job with a typed message; the rest of the batch is
    /// untouched.
    pub limits: ResourceLimits,
    /// Also render the contracted DDG as DOT ([`SessionReport::dot`]),
    /// from the graph the engine contracted at finish.
    pub dot: bool,
}

impl AnalysisJob {
    /// A job with default settings (no peak-live report, trusted,
    /// any-access collection) over the given input.
    pub fn new(name: impl Into<String>, input: JobInput, region: Region) -> AnalysisJob {
        AnalysisJob {
            name: name.into(),
            input,
            region,
            index_vars: None,
            collect: CollectMode::AnyAccess,
            untrusted: false,
            stream: false,
            limits: ResourceLimits::default(),
            dot: false,
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

    /// Report the peak live-record window (see [`AnalysisJob::stream`]).
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
    /// Peak live-record window (jobs with [`AnalysisJob::stream`] only).
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

    // Every job is one run of the streaming engine; `stream` decides only
    // whether the peak live window is reported.
    let engine = StreamAnalyzer::new(job.region.clone())
        .with_config(StreamConfig {
            collect: job.collect,
            contracted_dot: job.dot,
            ..StreamConfig::default()
        })
        .with_ctx(ctx.clone());
    let trace_index = || job.index_vars.clone().unwrap_or_default();

    // No job materializes the trace: records flow from the source or the
    // interpreter straight into the engine, interning every symbol into
    // this session's space.
    let run = match &job.input {
        JobInput::TracePath(path) => engine
            .with_index_vars(trace_index())
            .run_path(path)
            .map_err(|e| e.to_string()),
        JobInput::TraceText(text) => engine
            .with_index_vars(trace_index())
            .run_bytes(text.as_bytes())
            .map_err(|e| e.to_string()),
        JobInput::MiniLang(source) => trace_minilang(job, ctx, engine, source),
    }?;
    Ok(session_report(job, ctx, run, t0))
}

/// Compile `source`, then run it with every record it emits pushed into
/// one engine session. A ceiling that stops the engine fails the job with
/// the engine's own message, as it does a trace job.
fn trace_minilang(
    job: &AnalysisJob,
    ctx: &AnalysisCtx,
    engine: StreamAnalyzer,
    source: &str,
) -> Result<StreamRun, String> {
    let module = autocheck_minilang::compile(source).map_err(|errs| {
        let errs: Vec<String> = errs.iter().map(ToString::to_string).collect();
        format!("compile error: {}", errs.join("; "))
    })?;
    let index = match &job.index_vars {
        Some(v) => v.clone(),
        None => index_variables_of(&module, &job.region),
    };
    let mut session = engine.with_index_vars(index).session();
    let mut sink = FnSink::new(|rec: &Record| {
        session.push(rec).map_err(|e| ExecError::Sink {
            message: e.to_string(),
        })
    });
    Machine::with_ctx(&module, ExecOptions::default(), ctx.clone())
        .run(&mut sink, &mut NoHook)
        .map_err(|e| match e {
            // The only sink here is the engine.
            ExecError::Sink { message } => message,
            e => format!("execution error: {e}"),
        })?;
    Ok(session.finish())
}

/// Assemble the rendered, session-independent report (called inside the
/// session's guard so `Display` resolves in the right space).
fn session_report(
    job: &AnalysisJob,
    ctx: &AnalysisCtx,
    run: StreamRun,
    t0: Instant,
) -> SessionReport {
    let report = run.report;
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
        dot: run.contracted_dot,
        records: report.records,
        iterations: report.iterations,
        peak_live_records: job.stream.then_some(run.stats.peak_live_records),
        symbols: ctx.space().len(),
        timings: report.timings,
        wall,
        ledger,
    }
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
        let text = trace_text(LOOP_MC);

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
        // Batch and streaming jobs are one engine run: the `stream` flag
        // adds the peak-live report and changes no DOT byte.
        let out =
            MultiAnalyzer::new(1).run(vec![mini_job("stream-dot").streaming(true).with_dot(true)]);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let s = &out.sessions[0];
        assert!(s.peak_live_records.is_some(), "peak live reported");
        let dot = s.dot.as_ref().expect("streaming dot rendered");
        assert!(dot.starts_with("digraph contracted"));
        assert!(dot.contains("sum"));
        let batch = MultiAnalyzer::new(1).run(vec![mini_job("batch-dot").with_dot(true)]);
        assert!(batch.sessions[0].peak_live_records.is_none());
        assert_eq!(batch.sessions[0].dot.as_ref(), Some(dot));
    }

    #[test]
    fn the_live_record_bound_applies_to_every_job() {
        for streaming in [false, true] {
            let job = mini_job("bounded")
                .streaming(streaming)
                .with_limits(ResourceLimits::new().max_live_records(1));
            let out = MultiAnalyzer::new(1).with_metrics(true).run(vec![job]);
            assert!(out.sessions.is_empty(), "stream={streaming}");
            assert!(
                out.failures[0].message.contains("live-record bound"),
                "stream={streaming}: {}",
                out.failures[0].message
            );
            let ledger = out.failures[0].ledger.as_ref().expect("failure ledger");
            assert_eq!(ledger.counter(CounterId::LimitExceeded), 1);
        }
    }

    /// The text trace of `source`, traced in a scratch session.
    fn trace_text(source: &str) -> String {
        let module = autocheck_minilang::compile(source).unwrap();
        let ctx = AnalysisCtx::session();
        let _g = ctx.enter();
        let mut sink = autocheck_interp::WriterSink::new(Vec::new());
        Machine::with_ctx(&module, ExecOptions::default(), ctx.clone())
            .run(&mut sink, &mut NoHook)
            .unwrap();
        String::from_utf8(sink.finish().unwrap()).unwrap()
    }

    #[test]
    fn a_minilang_job_that_fails_to_compile_says_why_on_one_line() {
        let job = AnalysisJob::new(
            "broken",
            JobInput::MiniLang("int main() {\n    int x = ;\n".to_string()),
            Region::new("main", 1, 2),
        );
        let out = MultiAnalyzer::new(1).run(vec![job]);
        assert!(out.sessions.is_empty());
        let message = &out.failures[0].message;
        assert!(
            message.starts_with("compile error: error at line 2:"),
            "{message}"
        );
        assert!(
            !message.contains('\n') && !message.contains("CompileError"),
            "{message}"
        );
    }

    #[test]
    fn a_ceiling_stops_a_minilang_job_with_the_trace_jobs_message() {
        let limits = ResourceLimits::new().max_ddg_nodes(5);
        let region = Region::new("main", 3, 6);
        let mini = mini_job("mini").with_limits(limits);
        let text = AnalysisJob::new("text", JobInput::TraceText(trace_text(LOOP_MC)), region)
            .with_limits(limits);
        let out = MultiAnalyzer::new(1).run(vec![mini, text]);
        assert!(out.sessions.is_empty());
        let (mini, text) = (&out.failures[0].message, &out.failures[1].message);
        assert!(
            mini.starts_with("resource limit exceeded: ddg-nodes"),
            "{mini}"
        );
        assert_eq!(mini, text);
    }
}
