//! The one front door over the analysis engine: [`StreamAnalyzer`]
//! (also named [`crate::Analyzer`]).
//!
//! Region in, index variables in, [`Report`] out. Records are consumed
//! **as they arrive** instead of requiring the whole trace in memory: push
//! records into a [`StreamSession`] (e.g. straight from the interpreter's
//! sink — no trace file at all), hand over a slice already in memory
//! ([`StreamAnalyzer::analyze`]), or pull them from a file, a byte slice or
//! any [`io::Read`] through the trace crate's
//! [`autocheck_trace::TraceSource`] (text or binary, auto-detected).
//!
//! The analysis itself runs in `autocheck-stream`'s [`Engine`]: one pass,
//! per-iteration state retired at iteration boundaries, peak memory
//! observable as the *live-record count* ([`StreamStats`]) and optionally
//! hard-bounded by the session's
//! [`ResourceLimits::max_live_records`](autocheck_trace::ResourceLimits::max_live_records),
//! the one place a live-record bound is set. Every run ends in the same
//! finish step: classify, contract the engine's frozen DDG (Algorithm 1),
//! and assemble the [`Report`]; the one choice left is whether to render
//! the contracted DDG as DOT ([`StreamConfig::contracted_dot`]). Every
//! entry point applies the session's ceilings. `autocheck` in every mode,
//! `mlc trace --stream` and every [`crate::MultiAnalyzer`] job are this
//! same run, so they report identically by construction; the integration and property tests
//! check the engine against the staged reference
//! (`StreamAnalyzer::analyze_staged`) over the Fig. 4 example, all 14
//! benchmarks, and random MiniLang programs.

use crate::preprocess::{CollectMode, MliVar};
use crate::region::Region;
use crate::report::{Report, Timings};
use autocheck_obs::TimerId;
use autocheck_stream::{Engine, EngineConfig, EngineError, LiveBoundExceeded};
use autocheck_trace::{
    AnalysisCtx, Record, ResourceExceeded, ResourceKind, TraceReadError, TraceSource,
};
use std::fmt;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Tunables for the analyzer (defaults reproduce the paper's tool).
///
/// Every run streams the trace through the engine without holding it; the
/// paper's §V-A parallel trace parsing is deliberately not reproduced (the
/// README's "Concurrency" section has the measurements). Resource
/// ceilings, the live-record bound among them, belong to the session
/// ([`AnalysisCtx::with_limits`]), not to this configuration.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Occurrence-collection strictness (see [`CollectMode`]).
    pub collect: CollectMode,
    /// Selective trace iteration (paper §IV-B); `false` is the ablation.
    pub selective: bool,
    /// Render the contracted DDG, which every run computes at finish, as
    /// DOT ([`StreamRun::contracted_dot`]). The graph is bounded by the
    /// program, so this keeps the O(live window) memory story intact.
    pub contracted_dot: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            collect: CollectMode::AnyAccess,
            selective: true,
            contracted_dot: false,
        }
    }
}

/// A streaming analysis failure.
#[derive(Debug)]
pub enum StreamError {
    /// Reading or parsing the trace stream failed.
    Source(TraceReadError),
    /// The session's live-record bound was exceeded.
    LiveBound(LiveBoundExceeded),
    /// A session resource ceiling (DDG nodes/edges, or a trace-side limit
    /// smuggled through the source) was crossed.
    Resource(ResourceExceeded),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Source(e) => write!(f, "{e}"),
            StreamError::LiveBound(e) => write!(f, "{e}"),
            StreamError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<TraceReadError> for StreamError {
    fn from(e: TraceReadError) -> Self {
        // Surface a limit trip from the trace layer under the same variant
        // the engine uses, so callers match one shape.
        match e {
            TraceReadError::Resource(r) => StreamError::Resource(r),
            other => StreamError::Source(other),
        }
    }
}

impl From<LiveBoundExceeded> for StreamError {
    fn from(e: LiveBoundExceeded) -> Self {
        StreamError::LiveBound(e)
    }
}

impl From<EngineError> for StreamError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::LiveBound(e) => StreamError::LiveBound(e),
            EngineError::Resource(e) => StreamError::Resource(e),
        }
    }
}

impl From<ResourceExceeded> for StreamError {
    fn from(e: ResourceExceeded) -> Self {
        StreamError::Resource(e)
    }
}

/// Memory-bound observability for one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Peak live-record window (per-iteration state entries) over the run.
    pub peak_live_records: usize,
    /// The live-record bound the engine enforced: the session's
    /// `live-records` ceiling, if any.
    pub live_bound: Option<usize>,
    /// Streaming DDG node count (bounded by the program).
    pub ddg_nodes: usize,
    /// Streaming DDG edge count.
    pub ddg_edges: usize,
}

/// A finished run: the report plus the memory-bound statistics.
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// The analysis report.
    pub report: Report,
    /// Live-window statistics.
    pub stats: StreamStats,
    /// The contracted DDG rendered as DOT, when
    /// [`StreamConfig::contracted_dot`] asked for it.
    pub contracted_dot: Option<String>,
}

/// The AutoCheck analyzer.
///
/// Inputs mirror the paper's §VII "Use of AutoCheck": the dynamic trace,
/// the main loop's location, and (from the IR loop pass) the loop's
/// control variables. The analysis is one serial pass of the streaming
/// engine; the trace is never held in memory unless the caller already
/// holds it ([`analyze`](Self::analyze)).
#[derive(Clone, Debug)]
pub struct StreamAnalyzer {
    /// The main computation loop's location.
    pub region: Region,
    /// Induction/control variables of the outermost loop.
    pub index_vars: Vec<String>,
    /// Analysis tunables.
    pub config: StreamConfig,
    /// The analysis session (symbol space, address-hash seed, resource
    /// ceilings, metrics). Every stage resolves symbols through this ctx,
    /// so records pushed into this analyzer must come from the same
    /// session (the same ctx handed to the parser / interpreter).
    pub ctx: AnalysisCtx,
}

impl StreamAnalyzer {
    /// Analyzer with default configuration, scoped to the thread's current
    /// symbol space.
    pub fn new(region: Region) -> StreamAnalyzer {
        StreamAnalyzer {
            region,
            index_vars: Vec::new(),
            config: StreamConfig::default(),
            ctx: AnalysisCtx::current(),
        }
    }

    /// Set the Index variables (usually from [`crate::index_variables_of`]).
    pub fn with_index_vars(mut self, vars: Vec<String>) -> StreamAnalyzer {
        self.index_vars = vars;
        self
    }

    /// Override the configuration.
    pub fn with_config(mut self, config: StreamConfig) -> StreamAnalyzer {
        self.config = config;
        self
    }

    /// Scope this analyzer to `ctx`'s session: symbols resolve through the
    /// session's space, address-keyed maps hash with the session's seed,
    /// and the session's ceilings apply.
    pub fn with_ctx(mut self, ctx: AnalysisCtx) -> StreamAnalyzer {
        self.ctx = ctx;
        self
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            function: self.region.function.clone(),
            start_line: self.region.start_line,
            end_line: self.region.end_line,
            // `CollectMode` *is* the engine's `Collect` (shared type).
            collect: self.config.collect,
            selective: self.config.selective,
        }
    }

    /// Open a push-based session: feed records in execution order, then
    /// [`StreamSession::finish`].
    pub fn session(&self) -> StreamSession {
        StreamSession {
            engine: Engine::with_ctx(self.engine_config(), &self.ctx),
            ctx: self.ctx.clone(),
            index_vars: self.index_vars.clone(),
            region_start: self.region.start_line,
            contracted_dot: self.config.contracted_dot,
            started: None,
            split: None,
        }
    }

    /// Analyze records the caller already holds. The session's ceilings
    /// apply here as on every other entry point; with none set this cannot
    /// fail.
    pub fn analyze(&self, records: &[Record]) -> Result<Report, StreamError> {
        self.run_records(records).map(|run| run.report)
    }

    /// Analyze materialized records, returning the full [`StreamRun`].
    pub fn run_records(&self, records: &[Record]) -> Result<StreamRun, StreamError> {
        // The fold and the finish step resolve symbols (MLI names sort by
        // string) in the thread's current space: make it the session's.
        let _space = self.ctx.enter();
        let mut session = self.session();
        session.started = Some(Instant::now());
        for r in records {
            session.push(r)?;
        }
        Ok(session.finish())
    }

    /// Analyze a trace pulled from any reader (file, pipe, socket, …) with
    /// bounded buffering.
    pub fn analyze_read<R: io::Read>(&self, reader: R) -> Result<Report, StreamError> {
        self.run_read(reader).map(|run| run.report)
    }

    /// Like [`analyze_read`](Self::analyze_read), also returning the
    /// live-window statistics.
    pub fn run_read<R: io::Read>(&self, reader: R) -> Result<StreamRun, StreamError> {
        self.run_source(TraceSource::from_reader(reader))
    }

    /// Analyze a trace file in either format (text or binary, detected by
    /// its magic bytes). Ingest time is included in the pre-processing
    /// time, like the paper's Table III.
    pub fn analyze_path(&self, path: impl AsRef<Path>) -> Result<Report, StreamError> {
        self.run_path(path).map(|run| run.report)
    }

    /// Like [`analyze_path`](Self::analyze_path), also returning the
    /// live-window statistics. A `trace-bytes` ceiling is checked against
    /// the file's length before a byte is read.
    pub fn run_path(&self, path: impl AsRef<Path>) -> Result<StreamRun, StreamError> {
        self.run_source(TraceSource::from_path(path.as_ref()))
    }

    /// Analyze an in-memory trace in either format.
    pub fn run_bytes(&self, bytes: &[u8]) -> Result<StreamRun, StreamError> {
        self.run_source(TraceSource::from_bytes(bytes))
    }

    /// The one engine run every input funnels into: the source decodes a
    /// batch of records, the engine folds it record by record, and so on to
    /// the end. An engine ceiling crossed inside a batch stops the stream
    /// at that record, so ingest books exactly the records the engine took.
    ///
    /// With metrics on, one clock read after each batch's decode and one
    /// after its fold split the fused pass exactly: the session books the
    /// decode time as `stage.ingest` and the fold time as
    /// `stage.preprocess`, while the report keeps the fused total.
    fn run_source(&self, source: TraceSource<'_>) -> Result<StreamRun, StreamError> {
        let _space = self.ctx.enter();
        let mut session = self.session();
        let mut records = source.ctx(&self.ctx).stream()?;
        let started = Instant::now();
        session.started = Some(started);
        let mut laps = self.ctx.metrics().is_enabled().then_some(Laps {
            last: started,
            ingest: Duration::ZERO,
            fold: Duration::ZERO,
        });
        loop {
            let next = records.next_batch();
            if let Some(l) = &mut laps {
                let decode = l.lap();
                l.ingest += decode;
            }
            let Some(batch) = next else { break };
            let batch = batch?;
            let stop = batch
                .iter()
                .enumerate()
                .find_map(|(i, r)| session.engine.push(r).err().map(|e| (i, e)));
            if let Some((i, e)) = stop {
                records.stop_after(i + 1);
                return Err(e.into());
            }
            if let Some(l) = &mut laps {
                let fold = l.lap();
                l.fold += fold;
            }
        }
        session.split = laps.map(|l| (l.ingest, l.fold));
        Ok(session.finish())
    }
}

/// The running ingest/fold split of one engine run.
struct Laps {
    last: Instant,
    ingest: Duration,
    fold: Duration,
}

impl Laps {
    /// The time since the last lap.
    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let since = now - self.last;
        self.last = now;
        since
    }
}

/// An in-flight streaming analysis.
///
/// Timing semantics: the report's ingest (pre-processing) figure is the
/// wall-clock span from the **first push** (for a trace source, from the
/// first decode) to [`finish`](Self::finish). When records are pulled from
/// a reader ([`StreamAnalyzer::run_read`]) or pushed in a tight loop
/// ([`StreamAnalyzer::analyze`]) that is pure analysis time, and a trace
/// source's run also books its decode and fold apart in the ledger
/// (`stage.ingest`, `stage.preprocess`); in interpreter-direct mode (a sink
/// pushing as the program runs) trace generation and analysis are fused,
/// so the span deliberately includes program execution — there is no
/// separable analysis time to report, the ledger books the whole span as
/// `stage.preprocess`, and the figure must not be compared against batch
/// pre-processing.
pub struct StreamSession {
    engine: Engine,
    ctx: AnalysisCtx,
    index_vars: Vec<String>,
    region_start: u32,
    contracted_dot: bool,
    started: Option<Instant>,
    /// The fused pass's decode and fold time, when a trace source's run
    /// measured them apart.
    split: Option<(Duration, Duration)>,
}

impl StreamSession {
    /// Consume one record. Fails fast if a session resource ceiling, the
    /// live-record bound included, is exceeded.
    pub fn push(&mut self, record: &Record) -> Result<(), EngineError> {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
        self.engine.push(record)
    }

    /// Live window entries currently held.
    pub fn live_records(&self) -> usize {
        self.engine.live_records()
    }

    /// Peak live window so far.
    pub fn peak_live_records(&self) -> usize {
        self.engine.peak_live_records()
    }

    /// Records consumed so far.
    pub fn records_seen(&self) -> u64 {
        self.engine.records_seen()
    }

    /// Finalize the analysis into a [`Report`]: classification, DDG
    /// contraction (rendered as DOT when
    /// [`StreamConfig::contracted_dot`] asks for it), and report assembly.
    pub fn finish(self) -> StreamRun {
        // Everything up to here — parse, region partitioning, MLI
        // collection, dependency analysis — ran fused in the single online
        // pass; report it as the pre-processing + dependency stages'
        // combined time, with the finish step as identification.
        let ingest = self.started.map(|t| t.elapsed()).unwrap_or(Duration::ZERO);
        let ctx = &self.ctx;
        // A caller-driven session may finish with no guard held.
        let _space = ctx.enter();
        let metrics = ctx.metrics().clone();
        // The fused online pass is the streaming counterpart of
        // pre-processing; the ledger books it there, with a trace source's
        // decode time apart as ingest.
        match self.split {
            Some((decode, fold)) => {
                metrics.record_duration(TimerId::Ingest, decode);
                metrics.record_duration(TimerId::Preprocess, fold);
            }
            None => metrics.record_duration(TimerId::Preprocess, ingest),
        }
        // Finalization (retiring windows, freezing the graph) is booked
        // inside the identify stage.
        let t1 = Instant::now();
        let outcome = self.engine.finish();

        // `MliVar` *is* the engine's entry type — no conversion, the same
        // values flow into the report that the batch pipeline would build.
        let mli: Vec<MliVar> = outcome.mli;

        // The exact selection the batch `classify` performs — same shared
        // function, driven by the shared decision heuristics over the
        // engine's folded statistics.
        let (critical, skipped) =
            crate::classify::select(&mli, &self.index_vars, self.region_start, ctx, |var| {
                let stats = outcome
                    .stats
                    .get(&var.base_addr)
                    .copied()
                    .unwrap_or_default();
                crate::classify::decide(&stats, var.size)
            });

        let identify = t1.elapsed();
        metrics.record_duration(TimerId::Identify, identify);

        // Contraction (Algorithm 1) on the frozen CSR graph, whose MLI
        // nodes the engine numbered first — the staged fold's numbering,
        // so the DOT bytes are the same. Booked as the `contract` stage.
        let t = metrics.timed(TimerId::Contract);
        let contracted = crate::contract::contract_for_mli_in(&outcome.ddg, &mli, &metrics);
        let contract = t.finish();
        let ddg = crate::report::DdgSummary {
            nodes: outcome.ddg.len(),
            edges: outcome.ddg.edge_count(),
            contracted_nodes: contracted.nodes.len(),
            contracted_edges: contracted.edges.len(),
        };
        let contracted_dot = self.contracted_dot.then(|| contracted.to_dot());
        if metrics.is_enabled() {
            crate::observe::note_session_symbols(ctx);
        }
        StreamRun {
            report: Report {
                mli,
                critical,
                skipped,
                iterations: outcome.iterations,
                records: outcome.records,
                timings: Timings {
                    preprocess: ingest,
                    dependency: Duration::ZERO,
                    identify,
                    contract,
                },
                ddg,
            },
            stats: StreamStats {
                peak_live_records: outcome.peak_live_records,
                live_bound: ctx
                    .limits()
                    .get(ResourceKind::LiveRecords)
                    .map(|n| n as usize),
                // Derived from the one DdgSummary source so the stats can
                // never desynchronize from the report.
                ddg_nodes: ddg.nodes,
                ddg_edges: ddg.edges,
            },
            contracted_dot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{index_variables_of, Analyzer};
    use autocheck_trace::ResourceLimits;

    /// The Fig. 4 worked example (same source as the batch pipeline tests).
    const FIG4: &str = "\
void foo(int* p, int* q) {
    for (int i = 0; i < 10; i = i + 1) {
        q[i] = p[i] * 2;
    }
}
int main() {
    int a[10]; int b[10];
    int sum = 0; int s = 0; int r = 1;
    for (int i = 0; i < 10; i = i + 1) {
        a[i] = 0;
        b[i] = 0;
    }
    for (int it = 0; it < 10; it = it + 1) {
        int m;
        s = it + 1;
        a[it] = s * r;
        foo(a, b);
        r = r + 1;
        m = a[it] + b[it];
        sum = m;
    }
    print(sum);
    return 0;
}
";

    fn fig4_records() -> (autocheck_ir::Module, Vec<Record>) {
        let module = autocheck_minilang::compile(FIG4).expect("compiles");
        let mut machine =
            autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default());
        let mut sink = autocheck_interp::VecSink::default();
        machine
            .run(&mut sink, &mut autocheck_interp::NoHook)
            .expect("runs");
        (module, sink.records)
    }

    fn assert_reports_match(batch: &Report, stream: &Report) {
        assert_eq!(batch.mli, stream.mli);
        assert_eq!(batch.critical, stream.critical);
        assert_eq!(batch.skipped, stream.skipped);
        assert_eq!(batch.iterations, stream.iterations);
        assert_eq!(batch.records, stream.records);
    }

    #[test]
    fn streaming_equals_batch_on_fig4() {
        let (module, records) = fig4_records();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let batch = Analyzer::new(region.clone())
            .with_index_vars(index.clone())
            .analyze_staged(&records);
        let stream = StreamAnalyzer::new(region)
            .with_index_vars(index)
            .analyze(&records)
            .expect("streams");
        assert_reports_match(&batch, &stream);
        assert_eq!(
            stream
                .summary()
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "it", "r", "sum"]
        );
    }

    #[test]
    fn push_session_reports_live_window() {
        let (module, records) = fig4_records();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let mut session = StreamAnalyzer::new(region).with_index_vars(index).session();
        for r in &records {
            session.push(r).expect("no bound set");
        }
        let peak = session.peak_live_records();
        assert!(peak > 0);
        assert!(
            (peak as u64) < session.records_seen(),
            "live window must undercut the trace length"
        );
        let run = session.finish();
        assert_eq!(run.stats.peak_live_records, peak);
        assert!(run.stats.ddg_nodes > 0);
    }

    #[test]
    fn analyze_read_streams_the_textual_trace() {
        let (module, records) = fig4_records();
        let mut sink = autocheck_interp::WriterSink::new(Vec::new());
        for r in &records {
            use autocheck_interp::TraceSink as _;
            sink.record(r).unwrap();
        }
        let text = sink.finish().unwrap();

        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let batch = Analyzer::new(region.clone())
            .with_index_vars(index.clone())
            .analyze_staged(&records);
        let stream = StreamAnalyzer::new(region)
            .with_index_vars(index)
            .analyze_read(&text[..])
            .expect("streams");
        assert_reports_match(&batch, &stream);
    }

    #[test]
    fn live_bound_is_enforced() {
        let (module, records) = fig4_records();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let ctx = AnalysisCtx::current().with_limits(ResourceLimits::new().max_live_records(1));
        let analyzer = StreamAnalyzer::new(region)
            .with_index_vars(index)
            .with_ctx(ctx);
        let err = analyzer.analyze(&records).unwrap_err();
        assert!(matches!(err, StreamError::LiveBound(_)));
        assert!(err.to_string().contains("bound"));
    }

    #[test]
    fn generous_live_bound_passes() {
        let (module, records) = fig4_records();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let ctx =
            AnalysisCtx::current().with_limits(ResourceLimits::new().max_live_records(1 << 20));
        let run = StreamAnalyzer::new(region.clone())
            .with_index_vars(index.clone())
            .with_ctx(ctx)
            .run_records(&records)
            .expect("bound never hit");
        assert_eq!(run.stats.live_bound, Some(1 << 20), "the footer's bound");
        let batch = Analyzer::new(region)
            .with_index_vars(index)
            .analyze_staged(&records);
        assert_reports_match(&batch, &run.report);
    }

    #[test]
    fn malformed_stream_surfaces_parse_error() {
        let region = Region::new("main", 5, 7);
        let err = StreamAnalyzer::new(region)
            .analyze_read(&b"0,zz,broken,1:1,0,27,9,\n"[..])
            .unwrap_err();
        assert!(matches!(err, StreamError::Source(_)));
        assert!(err.to_string().contains("src line"));
    }
}
