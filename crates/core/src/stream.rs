//! Streaming front door, and the one analysis driver behind both doors.
//!
//! [`StreamAnalyzer`] mirrors the batch analyzer's API (region in, index
//! variables in, [`Report`] out) but consumes records **as they arrive**
//! instead of requiring the whole trace in memory: push records into a
//! [`StreamSession`] (e.g. straight from the interpreter's sink — no trace
//! file at all), or pull them from a file, a byte slice or any
//! [`io::Read`] through the trace crate's [`autocheck_trace::TraceSource`]
//! (text or binary, auto-detected).
//!
//! The analysis itself runs in `autocheck-stream`'s [`Engine`]: one pass,
//! per-iteration state retired at iteration boundaries, peak memory
//! observable as the *live-record count* ([`StreamStats`]) and optionally
//! hard-bounded ([`StreamConfig::max_live_records`]). [`crate::Analyzer`]
//! is a configuration of this same driver, so the two doors report
//! identically by construction; the integration and property tests check
//! the engine against the staged batch reference
//! (`Analyzer::analyze_staged`) over the Fig. 4 example, all 14
//! benchmarks, and random MiniLang programs.

use crate::preprocess::{CollectMode, MliVar};
use crate::region::Region;
use crate::report::{Report, Timings};
use autocheck_obs::TimerId;
use autocheck_stream::{
    run_sharded, Engine, EngineConfig, EngineError, EngineOutcome, LiveBoundExceeded,
};
use autocheck_trace::{
    resolve_overlap_depth, resolve_shard_count, AnalysisCtx, ParallelConfig, Record,
    ResourceExceeded, TraceReadError, TraceSource,
};
use std::fmt;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Tunables for the streaming front door (defaults match the batch
/// [`crate::PipelineConfig`] where the two overlap).
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Occurrence-collection strictness (see [`CollectMode`]).
    pub collect: CollectMode,
    /// Selective trace iteration (paper §IV-B); `false` is the ablation.
    pub selective: bool,
    /// Hard bound on the live-record window; `None` = observe only.
    pub max_live_records: Option<usize>,
    /// Contract the streaming DDG (Algorithm 1) at finish and render it as
    /// DOT ([`StreamRun::contracted_dot`]). The graph is bounded by the
    /// program, so this keeps the O(live window) memory story intact.
    pub contracted_dot: bool,
    /// Iteration-aligned shards for the engine fold: `1` = serial, `0` =
    /// one per available core, `N` = at most `N` workers. Sharded runs
    /// produce byte-identical reports and DOT output, but materialize the
    /// records (sharding is a wall-clock optimization for traces that fit
    /// in memory; the O(live window) story belongs to the serial stream)
    /// and enforce the live-record bound per shard rather than globally.
    pub shards: usize,
    /// Decode-ahead depth for reader/path inputs: `1` = serial (the
    /// default), `0` = auto (serial on single-core hosts), `n >= 2` = read
    /// and decode the trace on background threads, `n` record batches
    /// ahead of the engine fold. Output is byte-identical to serial at
    /// every depth; see [`autocheck_trace::resolve_overlap_depth`].
    pub overlap: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            collect: CollectMode::AnyAccess,
            selective: true,
            max_live_records: None,
            contracted_dot: false,
            shards: 1,
            overlap: 1,
        }
    }
}

/// A streaming analysis failure.
#[derive(Debug)]
pub enum StreamError {
    /// Reading or parsing the trace stream failed.
    Source(TraceReadError),
    /// The configured live-record bound was exceeded.
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

/// Memory-bound observability for one streaming run — what the batch
/// pipeline cannot report, because it holds everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Peak live-record window (per-iteration state entries) over the run.
    pub peak_live_records: usize,
    /// The configured bound, if any.
    pub live_bound: Option<usize>,
    /// Streaming DDG node count (bounded by the program).
    pub ddg_nodes: usize,
    /// Streaming DDG edge count.
    pub ddg_edges: usize,
}

/// A finished streaming run: the batch-identical report plus the
/// memory-bound statistics.
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// The analysis report, identical to the batch pipeline's.
    pub report: Report,
    /// Live-window statistics.
    pub stats: StreamStats,
    /// The contracted DDG rendered as DOT, when
    /// [`StreamConfig::contracted_dot`] asked for it — Algorithm 1 over the
    /// streaming graph, previously a batch-only capability.
    pub contracted_dot: Option<String>,
}

/// What the finish step does with the frozen DDG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Contraction {
    /// Leave it alone (a streaming run without contracted DOT).
    Skip,
    /// Contract it for [`crate::DdgSummary`] and the ledger, render nothing
    /// (the batch front door).
    Count,
    /// Contract it and render the DOT ([`StreamConfig::contracted_dot`]).
    Render,
}

/// The per-run settings a front door adds to [`StreamConfig`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Drive {
    /// Chunked-parse workers; above 1 the records are materialized first.
    pub(crate) parse_threads: usize,
    pub(crate) contraction: Contraction,
}

/// The streaming AutoCheck analyzer. Construction mirrors
/// [`crate::Analyzer`]: region, index variables, configuration.
#[derive(Clone, Debug)]
pub struct StreamAnalyzer {
    /// The main computation loop's location.
    pub region: Region,
    /// Induction/control variables of the outermost loop.
    pub index_vars: Vec<String>,
    /// Pipeline tunables.
    pub config: StreamConfig,
    /// The analysis session (symbol space + address-hash seed).
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

    /// Scope this analyzer to `ctx`'s session.
    pub fn with_ctx(mut self, ctx: AnalysisCtx) -> StreamAnalyzer {
        self.ctx = ctx;
        self
    }

    /// The settings [`StreamConfig`] implies for a run of this analyzer's
    /// own entry points.
    pub(crate) fn drive(&self) -> Drive {
        Drive {
            parse_threads: 1,
            contraction: if self.config.contracted_dot {
                Contraction::Render
            } else {
                Contraction::Skip
            },
        }
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            function: self.region.function.clone(),
            start_line: self.region.start_line,
            end_line: self.region.end_line,
            // `CollectMode` *is* the engine's `Collect` (shared type).
            collect: self.config.collect,
            selective: self.config.selective,
            max_live_records: self.config.max_live_records,
        }
    }

    /// Open a push-based session: feed records in execution order, then
    /// [`StreamSession::finish`].
    pub fn session(&self) -> StreamSession {
        self.session_with(self.drive().contraction)
    }

    fn session_with(&self, contraction: Contraction) -> StreamSession {
        StreamSession {
            engine: Engine::with_ctx(self.engine_config(), &self.ctx),
            ctx: self.ctx.clone(),
            index_vars: self.index_vars.clone(),
            region_start: self.region.start_line,
            live_bound: self.config.max_live_records,
            contraction,
            started: None,
        }
    }

    /// Analyze already-materialized records through the streaming engine —
    /// the drop-in equivalent of [`crate::Analyzer::analyze`], used by the
    /// equivalence tests. Honors [`StreamConfig::shards`].
    pub fn analyze(&self, records: &[Record]) -> Result<Report, StreamError> {
        self.run_records(records, None).map(|run| run.report)
    }

    /// Analyze materialized records, serial or sharded per
    /// [`StreamConfig::shards`], returning the full [`StreamRun`].
    ///
    /// `boundaries` are iteration-start record indices when already known
    /// (e.g. from the binary format's iteration-index footer); `None` lets
    /// the sharded path run one region-tracker scan.
    pub fn run_records(
        &self,
        records: &[Record],
        boundaries: Option<&[u64]>,
    ) -> Result<StreamRun, StreamError> {
        self.run_records_with(
            records,
            boundaries,
            self.drive().contraction,
            Instant::now(),
        )
    }

    /// [`run_records`](Self::run_records) with the report's ingest figure
    /// counted from `started` (the start of materialization, when the
    /// records were read for this run).
    pub(crate) fn run_records_with(
        &self,
        records: &[Record],
        boundaries: Option<&[u64]>,
        contraction: Contraction,
        started: Instant,
    ) -> Result<StreamRun, StreamError> {
        let shards = resolve_shard_count(self.config.shards);
        if shards <= 1 {
            let mut session = self.session_with(contraction);
            session.started = Some(started);
            for r in records {
                session.push(r)?;
            }
            return Ok(session.finish());
        }
        let outcome = run_sharded(
            &self.engine_config(),
            &self.ctx,
            records,
            boundaries,
            shards,
        )?;
        Ok(finish_outcome(
            move || outcome,
            &self.ctx,
            &self.index_vars,
            self.region.start_line,
            self.config.max_live_records,
            contraction,
            started.elapsed(),
        ))
    }

    /// Analyze a trace pulled from any reader (file, pipe, socket, …) with
    /// bounded buffering — the streaming equivalent of
    /// [`crate::Analyzer::analyze_text`].
    pub fn analyze_read<R: io::Read + Send>(&self, reader: R) -> Result<Report, StreamError> {
        self.run_read(reader).map(|run| run.report)
    }

    /// Like [`analyze_read`](Self::analyze_read), also returning the
    /// live-window statistics. With [`StreamConfig::shards`] above 1 the
    /// records are materialized first (see [`StreamConfig::shards`] for
    /// the trade). With [`StreamConfig::overlap`] above 1 the trace is
    /// read and decoded on background threads while the engine folds —
    /// same output, decode wall overlapped away.
    pub fn run_read<R: io::Read + Send>(&self, reader: R) -> Result<StreamRun, StreamError> {
        self.run_source(TraceSource::from_reader(reader), None, self.drive())
    }

    /// Analyze a trace file in either format, like
    /// [`run_read`](Self::run_read) over the opened file. A
    /// `trace-bytes` ceiling is checked against the file's length before
    /// a byte is read. Sharded runs read the whole file, so a binary
    /// trace's iteration-index footer plans the shards without a scan.
    pub fn run_path(&self, path: impl AsRef<Path>) -> Result<StreamRun, StreamError> {
        self.run_path_with(path.as_ref(), self.drive())
    }

    pub(crate) fn run_path_with(
        &self,
        path: &Path,
        drive: Drive,
    ) -> Result<StreamRun, StreamError> {
        if resolve_shard_count(self.config.shards) > 1 {
            let bytes = std::fs::read(path).map_err(TraceReadError::Io)?;
            return self.run_bytes_with(&bytes, drive);
        }
        self.run_source(TraceSource::from_path(path), None, drive)
    }

    /// Analyze an in-memory trace in either format. Binary traces carrying
    /// an iteration-index footer hand the shard planner its boundaries in
    /// O(index) — no extra scan.
    pub fn run_bytes(&self, bytes: &[u8]) -> Result<StreamRun, StreamError> {
        self.run_bytes_with(bytes, self.drive())
    }

    pub(crate) fn run_bytes_with(
        &self,
        bytes: &[u8],
        drive: Drive,
    ) -> Result<StreamRun, StreamError> {
        let boundaries = if resolve_shard_count(self.config.shards) > 1 {
            autocheck_trace::binary::iteration_index(bytes)
                .ok()
                .flatten()
        } else {
            None
        };
        self.run_source(TraceSource::from_bytes(bytes), boundaries.as_deref(), drive)
    }

    /// The one engine run every input funnels into. Records are
    /// materialized only for more than one shard or parse thread; the
    /// decode-ahead pipeline feeds the engine batch by batch; otherwise
    /// records flow one at a time from the source into the engine.
    fn run_source(
        &self,
        source: TraceSource<'_>,
        boundaries: Option<&[u64]>,
        drive: Drive,
    ) -> Result<StreamRun, StreamError> {
        // Overlap also accelerates the materialization in front of a
        // sharded fold; the two compose.
        let source = source.ctx(&self.ctx).overlap(self.config.overlap);
        if resolve_shard_count(self.config.shards) > 1 || drive.parse_threads > 1 {
            let started = Instant::now();
            let records = source
                .parallel(ParallelConfig {
                    threads: drive.parse_threads,
                })
                .records()?;
            return self.run_records_with(&records, boundaries, drive.contraction, started);
        }
        if resolve_overlap_depth(self.config.overlap) > 1 {
            return source.overlapped(|batches| {
                let mut session = self.session_with(drive.contraction);
                while let Some(batch) = batches.next_batch() {
                    for record in &batch? {
                        session.push(record)?;
                    }
                }
                Ok(session.finish())
            })?;
        }
        let mut session = self.session_with(drive.contraction);
        for item in source.stream()? {
            session.push(&item?)?;
        }
        Ok(session.finish())
    }
}

/// An in-flight streaming analysis.
///
/// Timing semantics: the report's ingest (pre-processing) figure is the
/// wall-clock span from the **first push** to [`finish`](Self::finish).
/// When records are pulled from a reader ([`StreamAnalyzer::run_read`]) or
/// pushed in a tight loop ([`StreamAnalyzer::analyze`]) that is pure
/// analysis time; in interpreter-direct mode (a sink pushing as the program
/// runs) trace generation and analysis are fused, so the span deliberately
/// includes program execution — there is no separable analysis time to
/// report, and the figure must not be compared against batch pre-processing.
pub struct StreamSession {
    engine: Engine,
    ctx: AnalysisCtx,
    index_vars: Vec<String>,
    region_start: u32,
    live_bound: Option<usize>,
    contraction: Contraction,
    started: Option<Instant>,
}

impl StreamSession {
    /// Consume one record. Fails fast if the configured live-record bound
    /// or a session resource ceiling is exceeded.
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

    /// Finalize the analysis into a batch-identical [`Report`].
    pub fn finish(self) -> StreamRun {
        // Everything up to here — parse, region partitioning, MLI
        // collection, dependency analysis — ran fused in the single online
        // pass; report it as the pre-processing + dependency stages'
        // combined time, with the finish step as identification.
        let ingest = self
            .started
            .map(|t| t.elapsed())
            .unwrap_or(std::time::Duration::ZERO);
        finish_outcome(
            || self.engine.finish(),
            &self.ctx,
            &self.index_vars,
            self.region_start,
            self.live_bound,
            self.contraction,
            ingest,
        )
    }
}

/// The shared finish step: classification, contraction as `contraction`
/// asks, and report assembly over an [`EngineOutcome`] — one
/// implementation whether the outcome came from a serial [`StreamSession`]
/// or a sharded merge. `outcome` is a closure so serial finalization
/// (retiring windows, freezing the graph) is booked inside the identify
/// stage, exactly as before.
fn finish_outcome(
    outcome: impl FnOnce() -> EngineOutcome,
    ctx: &AnalysisCtx,
    index_vars: &[String],
    region_start: u32,
    live_bound: Option<usize>,
    contraction: Contraction,
    ingest: std::time::Duration,
) -> StreamRun {
    let metrics = ctx.metrics().clone();
    // The fused online pass is the streaming counterpart of
    // pre-processing; the ledger books it there.
    metrics.record_duration(TimerId::Preprocess, ingest);
    let t1 = Instant::now();
    let outcome = outcome();

    // `MliVar` *is* the engine's entry type — no conversion, the same
    // values flow into the report that the batch pipeline would build.
    let mli: Vec<MliVar> = outcome.mli;

    // The exact selection the batch `classify` performs — same shared
    // function, driven by the shared decision heuristics over the
    // engine's folded statistics.
    let (critical, skipped) = crate::classify::select(&mli, index_vars, region_start, ctx, |var| {
        let stats = outcome
            .stats
            .get(&var.base_addr)
            .copied()
            .unwrap_or_default();
        crate::classify::decide(&stats, var.size)
    });

    let identify = t1.elapsed();
    metrics.record_duration(TimerId::Identify, identify);

    // Streaming contraction (Algorithm 1 on the frozen CSR graph):
    // available online for the first time because the engine's graph
    // *is* the shared graph the batch pipeline contracts. Booked as the
    // `contract` timing stage, exactly like the batch pipeline.
    let mut ddg = crate::report::DdgSummary {
        nodes: outcome.ddg.len(),
        edges: outcome.ddg.edge_count(),
        ..Default::default()
    };
    let mut contract = std::time::Duration::ZERO;
    let contracted_dot = if contraction == Contraction::Skip {
        None
    } else {
        let t = metrics.timed(TimerId::Contract);
        let contracted = crate::contract::contract_for_mli_in(&outcome.ddg, &mli, &metrics);
        contract = t.finish();
        ddg.contracted_nodes = contracted.nodes.len();
        ddg.contracted_edges = contracted.edges.len();
        (contraction == Contraction::Render).then(|| contracted.to_dot())
    };
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
                dependency: std::time::Duration::ZERO,
                identify,
                contract,
            },
            ddg,
        },
        stats: StreamStats {
            peak_live_records: outcome.peak_live_records,
            live_bound,
            // Derived from the one DdgSummary source so the stats can
            // never desynchronize from the report.
            ddg_nodes: ddg.nodes,
            ddg_edges: ddg.edges,
        },
        contracted_dot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{index_variables_of, Analyzer};

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
            sink.record(r.clone()).unwrap();
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
        let analyzer = StreamAnalyzer::new(region)
            .with_index_vars(index)
            .with_config(StreamConfig {
                max_live_records: Some(1),
                ..StreamConfig::default()
            });
        let err = analyzer.analyze(&records).unwrap_err();
        assert!(matches!(err, StreamError::LiveBound(_)));
        assert!(err.to_string().contains("bound"));
    }

    #[test]
    fn generous_live_bound_passes() {
        let (module, records) = fig4_records();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let analyzer = StreamAnalyzer::new(region.clone())
            .with_index_vars(index.clone())
            .with_config(StreamConfig {
                max_live_records: Some(1 << 20),
                ..StreamConfig::default()
            });
        let stream = analyzer.analyze(&records).expect("bound never hit");
        let batch = Analyzer::new(region)
            .with_index_vars(index)
            .analyze_staged(&records);
        assert_reports_match(&batch, &stream);
    }

    #[test]
    fn sharded_streaming_matches_serial() {
        let (module, records) = fig4_records();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let serial = StreamAnalyzer::new(region.clone())
            .with_index_vars(index.clone())
            .with_config(StreamConfig {
                contracted_dot: true,
                ..StreamConfig::default()
            })
            .run_records(&records, None)
            .expect("serial");
        // 0 = auto, 64 exceeds the iteration count → graceful degradation.
        for shards in [0usize, 2, 3, 4, 8, 64] {
            let sharded = StreamAnalyzer::new(region.clone())
                .with_index_vars(index.clone())
                .with_config(StreamConfig {
                    contracted_dot: true,
                    shards,
                    ..StreamConfig::default()
                })
                .run_records(&records, None)
                .unwrap_or_else(|e| panic!("shards={shards}: {e}"));
            assert_reports_match(&serial.report, &sharded.report);
            assert_eq!(serial.report.ddg.nodes, sharded.report.ddg.nodes);
            assert_eq!(serial.report.ddg.edges, sharded.report.ddg.edges);
            assert_eq!(
                serial.contracted_dot, sharded.contracted_dot,
                "contracted DOT must be byte-identical at shards={shards}"
            );
        }
    }

    #[test]
    fn sharded_run_bytes_reads_the_iteration_index_footer() {
        let (module, records) = fig4_records();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let serial = StreamAnalyzer::new(region.clone())
            .with_index_vars(index.clone())
            .analyze(&records)
            .expect("serial");

        let analyzer = StreamAnalyzer::new(region)
            .with_index_vars(index)
            .with_config(StreamConfig {
                shards: 4,
                ..StreamConfig::default()
            });
        // Binary trace with the v2 iteration-index footer: the sharded
        // reader plans directly from the footer, no pre-scan.
        let bounds = {
            use autocheck_stream::region::RegionTracker;
            let mut tracker = RegionTracker::with_ctx(&analyzer.ctx, "main", 13, 21);
            let annots: Vec<_> = records.iter().map(|r| tracker.annotate(r)).collect();
            autocheck_stream::boundaries_from_annots(&annots)
        };
        assert!(!bounds.is_empty(), "fig4 must expose iteration boundaries");
        let bytes = autocheck_trace::binary::to_bytes_with_index(&records, bounds, &analyzer.ctx);
        let sharded = analyzer.run_bytes(&bytes).expect("sharded from footer");
        assert_reports_match(&serial, &sharded.report);

        // A plain v1 binary (no footer) still works: the planner falls back
        // to an annotation pre-scan of the materialized records.
        let plain = autocheck_trace::binary::to_bytes(&records, &analyzer.ctx);
        let fallback = analyzer.run_bytes(&plain).expect("sharded without footer");
        assert_reports_match(&serial, &fallback.report);
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
