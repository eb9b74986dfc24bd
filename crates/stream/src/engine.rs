//! The online analysis engine: one record in, all state machines advance.
//!
//! [`Engine`] owns a [`RegionTracker`], an [`MliCollector`], a
//! [`DdgBuilder`], and one [`VarStatsBuilder`] per observed variable base.
//! Every [`push`](Engine::push) annotates the record, advances occurrence
//! collection, advances dependency analysis, and folds the resulting access
//! event (if any) into the owning variable's statistics — retiring
//! per-iteration state at iteration boundaries.
//!
//! Memory never scales with the trace: the *live-record count* — the
//! number of per-iteration window entries currently held across all
//! variables — is observable via [`Engine::live_records`] /
//! [`Engine::peak_live_records`] and can be hard-bounded by the session's
//! `ResourceLimits::max_live_records`, in which case `push` fails fast
//! instead of growing past the bound. Every ceiling the engine enforces —
//! the live window, DDG nodes and DDG edges — comes from the session's
//! [`AnalysisCtx`], and every breach books `session.limit_exceeded` once.
//!
//! The per-access work touches no hash map and no atomic in the steady
//! state: the access event names its variable's graph node, a dense table
//! maps the node to its statistics builder (the base is hashed only on a
//! node's first event), each builder's window is dense and epoch-stamped
//! (see [`VarStatsBuilder`]), and the live count and its peak are plain
//! integers, published to the `engine.live_records` gauge at finish. The
//! dense windows of all variables share one budget of
//! [`DENSE_SLOTS_PER_ENGINE`] slots.

use crate::ddg::DdgBuilder;
use crate::graph::CsrGraph;
use crate::mli::{Collect, MliCollector, MliEntry};
use crate::region::RegionTracker;
use crate::stats::{VarStats, VarStatsBuilder, DENSE_SLOTS_PER_ENGINE};
use autocheck_obs::{CounterId, GaugeId, HistId, Metrics, TimerId};
use autocheck_trace::{AnalysisCtx, Record, ResourceExceeded, ResourceKind, SymId};
use fxhash::FxSeededHashMap;
use std::fmt;

/// Per-stage fold timing samples 1 record in 64: cheap enough to leave on
/// for week-long streams, dense enough to apportion fold time between the
/// region/MLI/DDG stages. `engine.fold_samples` counts the sampled records.
const FOLD_SAMPLE_MASK: u64 = 63;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Function containing the main computation loop.
    pub function: String,
    /// First source line of the loop statement.
    pub start_line: u32,
    /// Last source line of the loop body.
    pub end_line: u32,
    /// Occurrence-collection strictness.
    pub collect: Collect,
    /// Selective trace iteration (identical results; `true` skips
    /// irrelevant opcodes).
    pub selective: bool,
}

impl EngineConfig {
    /// Configuration for the given main-loop region with batch-default
    /// analysis settings.
    pub fn for_region(function: impl Into<String>, start_line: u32, end_line: u32) -> EngineConfig {
        EngineConfig {
            function: function.into(),
            start_line,
            end_line,
            collect: Collect::AnyAccess,
            selective: true,
        }
    }
}

/// `push` exceeded the session's `live-records` ceiling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveBoundExceeded {
    /// Live window entries at the moment of failure.
    pub live: usize,
    /// The configured bound.
    pub bound: usize,
}

impl fmt::Display for LiveBoundExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "streaming live-record bound exceeded: {} live records > bound {}",
            self.live, self.bound
        )
    }
}

impl std::error::Error for LiveBoundExceeded {}

/// A [`push`](Engine::push) failure: the engine refused to grow further.
///
/// Both variants are recoverable, typed errors — the engine never panics on
/// a hostile trace; it stops at the first crossed ceiling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The live-record window crossed the session's
    /// `ResourceLimits::max_live_records`.
    LiveBound(LiveBoundExceeded),
    /// A session resource ceiling (DDG nodes or edges) was crossed.
    Resource(ResourceExceeded),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::LiveBound(e) => write!(f, "{e}"),
            EngineError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::LiveBound(e) => Some(e),
            EngineError::Resource(e) => Some(e),
        }
    }
}

impl From<LiveBoundExceeded> for EngineError {
    fn from(e: LiveBoundExceeded) -> Self {
        EngineError::LiveBound(e)
    }
}

impl From<ResourceExceeded> for EngineError {
    fn from(e: ResourceExceeded) -> Self {
        EngineError::Resource(e)
    }
}

/// Everything the engine knows at end-of-trace. `autocheck-core` turns
/// this into a `Report` byte-identical to the batch pipeline's.
#[derive(Clone, Debug)]
pub struct EngineOutcome {
    /// The MLI set, sorted like the batch `find_mli_vars`.
    pub mli: Vec<MliEntry>,
    /// Folded access statistics per variable base address (all observed
    /// bases, not just MLI — the consumer filters). Hashed with the
    /// session's address seed.
    pub stats: FxSeededHashMap<u64, VarStats>,
    /// Loop iterations observed.
    pub iterations: u32,
    /// Records consumed.
    pub records: u64,
    /// Peak live-record window across the run.
    pub peak_live_records: usize,
    /// Label of the loop header's basic block, if identified.
    pub header_label: Option<SymId>,
    /// The dependency graph, frozen into its CSR form (bounded by the
    /// program, not the trace) with the MLI variables numbered first —
    /// ready for contraction and DOT rendering.
    pub ddg: CsrGraph,
}

/// `node_builder` entry of a node with no event yet.
const NO_BUILDER: u32 = u32::MAX;

/// The online analysis engine.
pub struct Engine {
    region: RegionTracker,
    mli: MliCollector,
    ddg: DdgBuilder,
    /// One statistics builder per variable base, in first-event order.
    builders: Vec<VarStatsBuilder>,
    /// The builder of each base, looked up on a node's first event only.
    by_base: FxSeededHashMap<u64, u32>,
    /// The builder of each DDG node (`NO_BUILDER` before its first event).
    node_builder: Vec<u32>,
    /// Dense window slots the builders may still grow by.
    dense_budget: usize,
    addr_seed: u64,
    records: u64,
    /// The live-record window level and its true peak, tracked in exactly
    /// one place: breach reporting, [`Engine::peak_live_records`], and the
    /// `engine.live_records` ledger gauge (published at finish) all read
    /// these.
    live: usize,
    peak_live: usize,
    /// The session's live-record ceiling.
    max_live: Option<usize>,
    /// DDG size ceilings from the session's `ResourceLimits` (checked
    /// against the builder's incremental node/edge counters on each push
    /// that grew the graph).
    max_ddg_nodes: Option<u64>,
    max_ddg_edges: Option<u64>,
    metrics: Metrics,
    access_events: u64,
    /// Iteration tracked at the last histogram flush (metrics only).
    hist_iter: u32,
    /// `records` at the last iteration boundary (metrics only).
    hist_iter_start: u64,
}

impl Engine {
    /// Build an engine for one analysis run in the thread's current symbol
    /// space with deterministic address hashing.
    pub fn new(cfg: EngineConfig) -> Engine {
        Self::with_ctx(cfg, &AnalysisCtx::current())
    }

    /// Build an engine scoped to `ctx`: region/MLI symbols intern into the
    /// session's space, and every map keyed by trace-supplied addresses
    /// hashes with the session's seed.
    pub fn with_ctx(cfg: EngineConfig, ctx: &AnalysisCtx) -> Engine {
        Engine {
            region: RegionTracker::with_ctx(ctx, cfg.function, cfg.start_line, cfg.end_line),
            mli: MliCollector::with_ctx(cfg.collect, ctx),
            ddg: DdgBuilder::new(cfg.selective),
            builders: Vec::new(),
            by_base: ctx.addr_map(),
            node_builder: Vec::new(),
            dense_budget: DENSE_SLOTS_PER_ENGINE,
            addr_seed: ctx.addr_seed(),
            records: 0,
            live: 0,
            peak_live: 0,
            max_live: ctx
                .limits()
                .get(ResourceKind::LiveRecords)
                .map(|n| n as usize),
            max_ddg_nodes: ctx.limits().get(ResourceKind::DdgNodes),
            max_ddg_edges: ctx.limits().get(ResourceKind::DdgEdges),
            metrics: ctx.metrics().clone(),
            access_events: 0,
            hist_iter: 0,
            hist_iter_start: 0,
        }
    }

    /// Consume one trace record. Call in execution order.
    pub fn push(&mut self, r: &Record) -> Result<(), EngineError> {
        self.records += 1;
        // 1-in-64 per-stage fold timing; everything else on the metrics
        // path is counter arithmetic flushed at finish().
        let sample = self.metrics.is_enabled() && self.records & FOLD_SAMPLE_MASK == 0;
        if sample {
            self.metrics.count(CounterId::FoldSamples, 1);
        }
        let a = if sample {
            let _s = self.metrics.span(TimerId::FoldRegion);
            self.region.annotate(r)
        } else {
            self.region.annotate(r)
        };
        if sample {
            let _s = self.metrics.span(TimerId::FoldMli);
            self.mli.observe(r, a);
        } else {
            self.mli.observe(r, a);
        }
        let _ddg_span = if sample {
            Some(self.metrics.span(TimerId::FoldDdg))
        } else {
            None
        };
        if let Some(e) = self.ddg.observe(r, a) {
            self.access_events += 1;
            let b = self.builder_of(e.node, e.base);
            let builder = &mut self.builders[b];
            if e.phase == crate::region::Phase::After {
                // After-loop events are reads by construction.
                builder.feed_after_read();
            } else {
                let before = builder.live();
                builder.feed_inside_within(e.iter, e.elem, e.is_write, &mut self.dense_budget);
                // The access may have retired a whole window and added one
                // entry; apply the net change (live always includes this
                // builder's `before` entries, so it cannot underflow).
                self.live = self.live - before + builder.live();
                self.peak_live = self.peak_live.max(self.live);
            }
            if let Some(bound) = self.max_live {
                if self.live > bound {
                    self.metrics.count(CounterId::LimitExceeded, 1);
                    return Err(LiveBoundExceeded {
                        live: self.live,
                        bound,
                    }
                    .into());
                }
            }
        }
        // DDG ceilings: checked after every observe — the graph can grow
        // on dependence bookkeeping even when no access event comes out.
        if let Some(limit) = self.max_ddg_nodes {
            let used = self.ddg.graph().len() as u64;
            if used > limit {
                self.metrics.count(CounterId::LimitExceeded, 1);
                return Err(ResourceExceeded {
                    kind: ResourceKind::DdgNodes,
                    used,
                    limit,
                }
                .into());
            }
        }
        if let Some(limit) = self.max_ddg_edges {
            let used = self.ddg.graph().edge_count() as u64;
            if used > limit {
                self.metrics.count(CounterId::LimitExceeded, 1);
                return Err(ResourceExceeded {
                    kind: ResourceKind::DdgEdges,
                    used,
                    limit,
                }
                .into());
            }
        }
        if self.metrics.is_enabled() {
            let iter = self.region.iterations();
            if iter != self.hist_iter {
                // One completed iteration (or a jump over empty ones):
                // record how many records it spanned.
                self.metrics.observe(
                    HistId::IterationRecords,
                    self.records - 1 - self.hist_iter_start,
                );
                self.hist_iter = iter;
                self.hist_iter_start = self.records - 1;
            }
        }
        Ok(())
    }

    /// The statistics builder of the variable at `base` with graph node
    /// `node`: a table lookup, except on the node's first event.
    #[inline]
    fn builder_of(&mut self, node: u32, base: u64) -> usize {
        match self.node_builder.get(node as usize) {
            Some(&b) if b != NO_BUILDER => b as usize,
            _ => self.first_event(node, base),
        }
    }

    /// Bind `node` to the builder of `base`, making that builder on the
    /// base's first event: nodes that share a base share its builder.
    #[cold]
    fn first_event(&mut self, node: u32, base: u64) -> usize {
        let next = self.builders.len() as u32;
        let b = *self.by_base.entry(base).or_insert(next);
        if b == next {
            self.builders
                .push(VarStatsBuilder::for_base(self.addr_seed, base));
        }
        let node = node as usize;
        if self.node_builder.len() <= node {
            self.node_builder.resize(node + 1, NO_BUILDER);
        }
        self.node_builder[node] = b;
        b as usize
    }

    /// Live window entries currently held across all variables.
    pub fn live_records(&self) -> usize {
        self.live
    }

    /// Maximum of [`live_records`](Engine::live_records) over the run.
    pub fn peak_live_records(&self) -> usize {
        self.peak_live
    }

    /// Records consumed so far.
    pub fn records_seen(&self) -> u64 {
        self.records
    }

    /// Finalize: match the MLI set, retire all windows, freeze the DDG with
    /// the MLI variables numbered first, and hand back the folded
    /// statistics. Flushes the engine's totals (records, access
    /// events, iterations, live-window gauge, DDG size) into the session's
    /// metrics registry.
    pub fn finish(mut self) -> EngineOutcome {
        let mli = self.mli.finish();
        let builders = &mut self.builders;
        let stats: FxSeededHashMap<u64, VarStats> = self
            .by_base
            .into_iter()
            .map(|(base, b)| (base, std::mem::take(&mut builders[b as usize]).finish()))
            .collect();
        let iterations = self.region.iterations();
        let ddg = self.ddg.finish(&mli);
        let m = &self.metrics;
        if m.is_enabled() {
            m.count(CounterId::EngineRecords, self.records);
            m.count(CounterId::AccessEvents, self.access_events);
            m.gauge_set(GaugeId::Iterations, iterations as u64);
            m.gauge_publish(
                GaugeId::LiveRecords,
                self.live as u64,
                self.peak_live as u64,
            );
            m.gauge_set(GaugeId::DdgNodes, ddg.len() as u64);
            m.gauge_set(GaugeId::DdgEdges, ddg.edge_count() as u64);
        }
        EngineOutcome {
            mli,
            stats,
            iterations,
            records: self.records,
            peak_live_records: self.peak_live,
            header_label: self.region.header_label(),
            ddg,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    fn parse_str(
        text: &str,
    ) -> Result<Vec<autocheck_trace::Record>, autocheck_trace::reader::TraceReadError> {
        autocheck_trace::TraceSource::from_str(text).records()
    }

    /// Two-iteration accumulator loop (sum read+written per iteration).
    pub(crate) const TWO_ITER: &str = "\
0,2,main,2:1,0,28,0,
1,64,0,0,,
2,64,0x7f0000000000,1,sum,
0,5,main,5:1,1,27,1,
1,64,0x7f0000000000,1,sum,
r,64,0,1,1,
0,5,main,5:1,1,2,2,
1,1,1,1,9,
0,6,main,6:1,2,27,3,
1,64,0x7f0000000000,1,sum,
r,64,0,1,2,
0,6,main,6:1,2,8,4,
1,64,0,1,2,
2,64,1,0,,
r,64,1,1,3,
0,6,main,6:1,2,28,5,
1,64,1,1,3,
2,64,0x7f0000000000,1,sum,
0,5,main,5:1,1,27,6,
1,64,0x7f0000000000,1,sum,
r,64,1,1,4,
0,5,main,5:1,1,2,7,
1,1,1,1,9,
0,6,main,6:1,2,27,8,
1,64,1,1,5,
2,64,2,0,,
r,64,2,1,6,
0,6,main,6:1,2,27,9,
1,64,0x7f0000000000,1,sum,
r,64,1,1,7,
0,6,main,6:1,2,8,10,
1,64,1,1,7,
2,64,1,0,,
r,64,2,1,8,
0,6,main,6:1,2,28,11,
1,64,2,1,8,
2,64,0x7f0000000000,1,sum,
0,5,main,5:1,1,27,12,
1,64,0x7f0000000000,1,sum,
r,64,2,1,9,
0,5,main,5:1,1,2,13,
1,1,0,1,9,
0,9,main,9:1,3,27,14,
1,64,0x7f0000000000,1,sum,
r,64,2,1,10,
";

    fn run_engine(max_live: Option<u64>) -> Result<EngineOutcome, EngineError> {
        let recs = parse_str(TWO_ITER).unwrap();
        let mut limits = autocheck_trace::ResourceLimits::new();
        if let Some(n) = max_live {
            limits = limits.max_live_records(n);
        }
        let ctx = AnalysisCtx::current().with_limits(limits);
        let mut engine = Engine::with_ctx(EngineConfig::for_region("main", 5, 7), &ctx);
        for r in &recs {
            engine.push(r)?;
        }
        Ok(engine.finish())
    }

    #[test]
    fn mli_and_stats_come_out() {
        let out = run_engine(None).unwrap();
        assert_eq!(out.mli.len(), 1);
        assert_eq!(out.mli[0].name.as_str(), "sum");
        let s = out.stats[&0x7f00_0000_0000];
        assert!(s.carried, "sum is read before written each iteration");
        assert!(s.written_in_loop);
        assert!(s.read_after_loop);
        assert_eq!(out.iterations, 2);
        assert_eq!(out.records, 15);
    }

    #[test]
    fn live_window_stays_below_trace_length() {
        let out = run_engine(None).unwrap();
        assert!(out.peak_live_records >= 1);
        assert!(
            (out.peak_live_records as u64) < out.records,
            "peak live {} must undercut total {}",
            out.peak_live_records,
            out.records
        );
    }

    #[test]
    fn generous_bound_passes_tight_bound_fails() {
        assert!(run_engine(Some(64)).is_ok());
        let err = run_engine(Some(0)).unwrap_err();
        let EngineError::LiveBound(ref e) = err else {
            panic!("expected LiveBound, got {err:?}");
        };
        assert_eq!(e.bound, 0);
        assert!(e.live > 0);
        assert!(err.to_string().contains("bound 0"));
    }

    #[test]
    fn ctx_limits_bound_live_window_and_ddg_size() {
        use autocheck_trace::ResourceLimits;
        // The live-record ceiling surfaces as LiveBound.
        let ctx = AnalysisCtx::session().with_limits(ResourceLimits::new().max_live_records(0));
        let recs = {
            let _g = ctx.enter();
            parse_str(TWO_ITER).unwrap()
        };
        let mut engine = Engine::with_ctx(EngineConfig::for_region("main", 5, 7), &ctx);
        let err = recs
            .iter()
            .try_for_each(|r| engine.push(r))
            .expect_err("live bound 0 must trip");
        assert!(matches!(err, EngineError::LiveBound(_)), "got {err:?}");

        // DDG node ceiling surfaces as a typed ResourceExceeded.
        let ctx = AnalysisCtx::session().with_limits(ResourceLimits::new().max_ddg_nodes(1));
        let recs = {
            let _g = ctx.enter();
            parse_str(TWO_ITER).unwrap()
        };
        let mut engine = Engine::with_ctx(EngineConfig::for_region("main", 5, 7), &ctx);
        let err = recs
            .iter()
            .try_for_each(|r| engine.push(r))
            .expect_err("ddg node bound 1 must trip");
        match err {
            EngineError::Resource(e) => {
                assert_eq!(e.kind, ResourceKind::DdgNodes);
                assert_eq!(e.limit, 1);
                assert!(e.used > 1);
            }
            other => panic!("expected Resource(DdgNodes), got {other:?}"),
        }
    }

    #[test]
    fn a_live_bound_breach_books_the_limit_counter_once() {
        use autocheck_obs::{CounterId, Metrics};
        use autocheck_trace::ResourceLimits;
        // The session's live-record ceiling is the only live bound, and
        // its breach is booked like every other ceiling's: once, at the
        // push that fails.
        let ctx = AnalysisCtx::session()
            .with_metrics(Metrics::enabled())
            .with_limits(ResourceLimits::new().max_live_records(0));
        let recs = {
            let _g = ctx.enter();
            parse_str(TWO_ITER).unwrap()
        };
        let mut engine = Engine::with_ctx(EngineConfig::for_region("main", 5, 7), &ctx);
        let err = recs
            .iter()
            .try_for_each(|r| engine.push(r))
            .expect_err("live bound 0 must trip");
        assert!(matches!(err, EngineError::LiveBound(_)), "got {err:?}");
        assert_eq!(ctx.metrics().counter(CounterId::LimitExceeded), 1);
    }

    #[test]
    fn metrics_capture_engine_totals_and_live_peak() {
        use autocheck_obs::{CounterId, GaugeId, Metrics};
        let ctx = AnalysisCtx::session().with_metrics(Metrics::enabled());
        let recs = {
            let _g = ctx.enter();
            parse_str(TWO_ITER).unwrap()
        };
        let mut engine = Engine::with_ctx(EngineConfig::for_region("main", 5, 7), &ctx);
        for r in &recs {
            engine.push(r).unwrap();
        }
        let peak = engine.peak_live_records();
        let out = engine.finish();
        let m = ctx.metrics();
        assert_eq!(m.counter(CounterId::EngineRecords), out.records);
        assert!(m.counter(CounterId::AccessEvents) > 0);
        assert_eq!(m.gauge(GaugeId::Iterations), (2, 2));
        // The registry gauge is the same number the engine reported —
        // peak tracked in exactly one place.
        assert_eq!(m.gauge(GaugeId::LiveRecords).1, peak as u64);
        assert_eq!(out.peak_live_records, peak);
        assert_eq!(m.gauge(GaugeId::DdgNodes).0, out.ddg.len() as u64);
        assert_eq!(m.gauge(GaugeId::DdgEdges).0, out.ddg.edge_count() as u64);
    }

    #[test]
    fn metrics_do_not_change_engine_results() {
        let plain = run_engine(None).unwrap();
        let ctx = AnalysisCtx::session().with_metrics(autocheck_obs::Metrics::enabled());
        let recs = {
            let _g = ctx.enter();
            parse_str(TWO_ITER).unwrap()
        };
        let mut engine = Engine::with_ctx(EngineConfig::for_region("main", 5, 7), &ctx);
        for r in &recs {
            engine.push(r).unwrap();
        }
        let metered = engine.finish();
        assert_eq!(plain.iterations, metered.iterations);
        assert_eq!(plain.records, metered.records);
        assert_eq!(plain.peak_live_records, metered.peak_live_records);
        assert_eq!(plain.mli.len(), metered.mli.len());
        assert_eq!(plain.ddg.len(), metered.ddg.len());
        assert_eq!(plain.ddg.edge_count(), metered.ddg.edge_count());
    }

    #[test]
    fn ddg_comes_out_frozen_and_bounded() {
        let out = run_engine(None).unwrap();
        assert!(!out.ddg.is_empty());
        assert!(out.ddg.edge_count() > 0);
        // The frozen graph is traversable: some node has a parent.
        assert!((0..out.ddg.len()).any(|n| !out.ddg.parent_slice(n).is_empty()));
        assert_eq!(out.header_label.map(|l| l.as_str()).as_deref(), Some("1"));
    }
}
