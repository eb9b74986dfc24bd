//! The batch front door: [`Analyzer`], a configuration of the streaming
//! engine that reports with Table-III-style timing.
//!
//! [`Analyzer`] and [`crate::StreamAnalyzer`] share one analysis driver:
//! records flow from the trace source into the engine one at a time, and
//! the finish step classifies, contracts and assembles the [`Report`]. The
//! batch door always contracts the DDG (for [`DdgSummary`] and the ledger)
//! and never renders it. The staged passes over a materialized slice —
//! region partitioning, MLI identification, the dependency fold — remain as
//! `Analyzer::analyze_staged`, the independent side of the
//! batch-versus-stream parity suites.

use crate::ddg::{DdgAnalysis, DdgOptions, RwKind};
use crate::preprocess::{find_mli_vars_in, CollectMode};
use crate::region::{Phase, Phases, Region};
use crate::report::{DdgSummary, Report, Timings};
use crate::stream::{Contraction, Drive, StreamAnalyzer, StreamConfig, StreamError};
use autocheck_obs::{GaugeId, TimerId};
use autocheck_stream::VarStatsBuilder;
use autocheck_trace::{AnalysisCtx, Record, ResourceLimits};
use std::path::Path;
use std::time::Instant;

/// Tunables for the pipeline (defaults reproduce the paper's tool).
///
/// Every setting at its default runs the trace through the streaming
/// engine without holding it: records are materialized only for
/// `parse_threads > 1` or `shards > 1` (and by `autocheck --dot`, which
/// re-reads the trace to render the contracted DDG).
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Occurrence-collection strictness (see [`CollectMode`]).
    pub collect: CollectMode,
    /// Selective trace iteration (paper §IV-B); `false` is the ablation.
    pub selective: bool,
    /// Worker threads for trace parsing (paper §V-A, OpenMP). `1` =
    /// serial; above 1 the trace is parsed into memory by the chunked
    /// parser before the fold.
    pub parse_threads: usize,
    /// Iteration-aligned shards for the engine fold: `1` = serial, `0` =
    /// one per available core, `N` = at most `N` workers. Any value
    /// produces byte-identical reports — the plan degrades gracefully when
    /// the loop has fewer iterations than requested shards. More than one
    /// shard materializes the records.
    pub shards: usize,
    /// Decode-ahead depth for file and in-memory ingest: `1` = serial (the
    /// default), `0` = auto (serial on single-core hosts), `n >= 2` = read
    /// and decode on background threads, `n` record batches ahead. Reports
    /// are byte-identical at every depth; see
    /// [`autocheck_trace::resolve_overlap_depth`].
    pub overlap: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            collect: CollectMode::AnyAccess,
            selective: true,
            parse_threads: 1,
            shards: 1,
            overlap: 1,
        }
    }
}

/// The AutoCheck analyzer.
///
/// Inputs mirror the paper's §VII "Use of AutoCheck": the dynamic trace,
/// the main loop's location, and (from the IR loop pass) the loop's
/// control variables.
///
/// The analysis is one pass of the streaming engine, exactly as
/// [`StreamAnalyzer`] runs it: the same report, the same memory bound. The
/// trace is held in memory only when [`PipelineConfig::parse_threads`] or
/// [`PipelineConfig::shards`] is above 1. [`analyze`](Self::analyze) pushes
/// records the caller already holds.
#[derive(Clone, Debug)]
pub struct Analyzer {
    /// The main computation loop's location.
    pub region: Region,
    /// Induction/control variables of the outermost loop.
    pub index_vars: Vec<String>,
    /// Pipeline tunables.
    pub config: PipelineConfig,
    /// The analysis session (symbol space + address-hash seed). Every
    /// stage resolves symbols through this ctx, so records analyzed by
    /// this analyzer must come from the same session (the same ctx handed
    /// to the parser / interpreter).
    pub ctx: AnalysisCtx,
}

impl Analyzer {
    /// Analyzer with default configuration, scoped to the thread's current
    /// symbol space.
    pub fn new(region: Region) -> Analyzer {
        Analyzer {
            region,
            index_vars: Vec::new(),
            config: PipelineConfig::default(),
            ctx: AnalysisCtx::current(),
        }
    }

    /// Set the Index variables (usually from [`index_variables_of`]).
    pub fn with_index_vars(mut self, vars: Vec<String>) -> Analyzer {
        self.index_vars = vars;
        self
    }

    /// Override the configuration.
    pub fn with_config(mut self, config: PipelineConfig) -> Analyzer {
        self.config = config;
        self
    }

    /// Scope this analyzer to `ctx`'s session: symbols resolve through the
    /// session's space, and address-keyed maps hash with the session's
    /// seed.
    pub fn with_ctx(mut self, ctx: AnalysisCtx) -> Analyzer {
        self.ctx = ctx;
        self
    }

    /// Analyze already-parsed records.
    ///
    /// This applies none of the session's DDG or live-record ceilings, so
    /// it cannot fail; the path, bytes and text entry points enforce them.
    pub fn analyze(&self, records: &[Record]) -> Report {
        let unbounded = self.ctx.clone().with_limits(ResourceLimits::default());
        self.engine()
            .with_ctx(unbounded)
            .run_records_with(records, None, Contraction::Count, Instant::now())
            .map(|run| run.report)
            .expect("an engine without ceilings cannot fail")
    }

    /// Analyze a textual trace: parsing (serial or parallel per
    /// [`PipelineConfig::parse_threads`]) is included in the pre-processing
    /// time, like the paper's Table III.
    pub fn analyze_text(&self, text: &str) -> Result<Report, StreamError> {
        self.analyze_bytes(text.as_bytes())
    }

    /// Analyze a trace file in either format (text or binary, auto-detected
    /// by magic bytes) — [`StreamAnalyzer::run_path`] under this
    /// configuration. Ingest time is included in the pre-processing time.
    pub fn analyze_path(&self, path: impl AsRef<Path>) -> Result<Report, StreamError> {
        self.engine()
            .run_path_with(path.as_ref(), self.drive())
            .map(|run| run.report)
    }

    /// Analyze an in-memory trace in either format.
    pub fn analyze_bytes(&self, bytes: &[u8]) -> Result<Report, StreamError> {
        self.engine()
            .run_bytes_with(bytes, self.drive())
            .map(|run| run.report)
    }

    /// The streaming front door this configuration drives.
    pub(crate) fn engine(&self) -> StreamAnalyzer {
        StreamAnalyzer::new(self.region.clone())
            .with_index_vars(self.index_vars.clone())
            .with_config(StreamConfig {
                collect: self.config.collect,
                selective: self.config.selective,
                shards: self.config.shards,
                overlap: self.config.overlap,
                ..StreamConfig::default()
            })
            .with_ctx(self.ctx.clone())
    }

    pub(crate) fn drive(&self) -> Drive {
        Drive {
            parse_threads: self.config.parse_threads,
            contraction: Contraction::Count,
        }
    }

    /// The staged reference analysis: region partitioning
    /// ([`Phases::compute_in`]), MLI identification ([`find_mli_vars_in`]),
    /// one dependency fold ([`DdgAnalysis::fold_in`]) feeding per-variable
    /// [`VarStatsBuilder`]s, contraction, and [`crate::classify::select`],
    /// each a separate pass over `records`. It shares the state machines
    /// with the engine but not the driver, so the parity suites compare
    /// two drivers; it also books the Table III `dependency` time the fused
    /// pass cannot separate. Serial only; ignores [`PipelineConfig`] apart
    /// from `collect` and `selective`.
    #[doc(hidden)]
    pub fn analyze_staged(&self, records: &[Record]) -> Report {
        let m = self.ctx.metrics().clone();

        // Pre-processing: region partitioning + MLI identification.
        let t = m.timed(TimerId::Preprocess);
        let phases = Phases::compute_in(records, &self.region, &self.ctx);
        let mli = find_mli_vars_in(
            records,
            &phases,
            &self.region,
            self.config.collect,
            &self.ctx,
        );
        let preprocess = t.finish();

        // Dependency analysis: one fold of the record slice through the
        // shared streaming DdgBuilder. Events are not retained — each one
        // feeds its variable's statistics builder as it is emitted (the
        // same fold the online engine runs), so peak memory for this stage
        // is O(variables), not O(trace).
        let t = m.timed(TimerId::Dependency);
        let addr_seed = self.ctx.addr_seed();
        let mut stats = self.ctx.addr_map::<u64, VarStatsBuilder>();
        let graph = DdgAnalysis::fold_in(
            records,
            &phases,
            &mli,
            DdgOptions {
                selective: self.config.selective,
                retain_events: false,
                ..DdgOptions::default()
            },
            &self.ctx,
            |e| {
                let builder = stats
                    .entry(e.base)
                    .or_insert_with(|| VarStatsBuilder::with_seed(addr_seed));
                match (e.phase, e.kind) {
                    (Phase::Inside, kind) => {
                        builder.feed_inside(e.iter, e.elem, kind == RwKind::Write)
                    }
                    (Phase::After, RwKind::Read) => builder.feed_after_read(),
                    _ => {}
                }
            },
        );
        let dependency = t.finish();

        // Contraction (Algorithm 1), on the frozen CSR graph.
        let t = m.timed(TimerId::Contract);
        let contracted = crate::contract::contract_for_mli_in(&graph, &mli, &m);
        let contract = t.finish();
        let ddg = DdgSummary {
            nodes: graph.len(),
            edges: graph.edge_count(),
            contracted_nodes: contracted.nodes.len(),
            contracted_edges: contracted.edges.len(),
        };

        // Identification: the shared selection over the folded statistics.
        // Each MLI base is decided once, so its builder is taken out of the
        // seeded map and finished in place — no second map.
        let t = m.timed(TimerId::Identify);
        let (critical, skipped) = crate::classify::select(
            &mli,
            &self.index_vars,
            self.region.start_line,
            &self.ctx,
            |var| {
                let st = stats
                    .remove(&var.base_addr)
                    .map(|b| b.finish())
                    .unwrap_or_default();
                crate::classify::decide(&st, var.size)
            },
        );
        let identify = t.finish();

        if m.is_enabled() {
            m.gauge_set(GaugeId::DdgNodes, ddg.nodes as u64);
            m.gauge_set(GaugeId::DdgEdges, ddg.edges as u64);
            crate::observe::note_session_symbols(&self.ctx);
        }

        Report {
            mli,
            critical,
            skipped,
            iterations: phases.iterations,
            records: records.len() as u64,
            timings: Timings {
                preprocess,
                dependency,
                identify,
                contract,
            },
            ddg,
        }
    }
}

/// Find the Index variables of the main loop from the program's IR — our
/// equivalent of the paper's "llvm-pass-loop API" step.
///
/// Returns the names of the control variables of the outermost loop whose
/// header lies within `region` in the region's function.
pub fn index_variables_of(module: &autocheck_ir::Module, region: &Region) -> Vec<String> {
    let Some(fid) = module.function_by_name(&region.function) else {
        return Vec::new();
    };
    let f = module.function(fid);
    let cfg = autocheck_ir::Cfg::compute(f);
    let dom = autocheck_ir::DomTree::compute(&cfg);
    let forest = autocheck_ir::LoopForest::compute(f, &cfg, &dom);
    let Some(idx) = forest.outermost_in_region(f, region.start_line, region.end_line) else {
        return Vec::new();
    };
    autocheck_ir::loops::control_variables(module, f, &forest.loops[idx])
        .into_iter()
        .map(|c| c.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::DepType;
    use autocheck_trace::TraceSource;

    /// The paper's Figure 4 example, end to end: compile with MiniLang,
    /// trace with the interpreter, analyze, and compare with the paper's
    /// stated result — checkpoint `r`, `a`, `sum`, `it`.
    ///
    /// Line numbers: `foo` spans lines 1–5, `main` starts at 6, the main
    /// loop is lines 13–21 (as in the paper's Fig. 4 layout).
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

    fn fig4_report() -> Report {
        let module = autocheck_minilang::compile(FIG4).expect("compiles");
        let mut machine =
            autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default());
        let mut sink = autocheck_interp::VecSink::default();
        machine
            .run(&mut sink, &mut autocheck_interp::NoHook)
            .expect("runs");
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        Analyzer::new(region)
            .with_index_vars(index)
            .analyze(&sink.records)
    }

    #[test]
    fn fig4_mli_variables_match_paper() {
        let report = fig4_report();
        let mut names: Vec<_> = report.mli.iter().map(|m| m.name.as_str()).collect();
        names.sort();
        // Paper §IV-A: "'a', 'b', 'sum', 's', 'r' are the MLI variables".
        assert_eq!(names, vec!["a", "b", "r", "s", "sum"]);
    }

    #[test]
    fn fig4_critical_variables_match_paper() {
        let report = fig4_report();
        let summary = report.summary();
        // Paper §IV-C: "we should checkpoint variables 'r', 'a', 'sum' and
        // 'it'". `a` is the RAPO example, `r` the WAR example, `sum` the
        // Outcome example, `it` the Index.
        assert_eq!(
            summary,
            vec![
                ("a".to_string(), DepType::Rapo),
                ("it".to_string(), DepType::Index),
                ("r".to_string(), DepType::War),
                ("sum".to_string(), DepType::Outcome),
            ]
        );
    }

    #[test]
    fn fig4_skipped_variables_have_reasons() {
        let report = fig4_report();
        let skipped: Vec<(&str, crate::report::SkipReason)> =
            report.skipped.iter().map(|(n, r)| (&**n, *r)).collect();
        // `s` is rewritten at the top of each iteration; `b` is fully
        // rewritten by foo before being read.
        assert!(skipped
            .iter()
            .any(|(n, r)| *n == "s" && *r == crate::report::SkipReason::RewrittenBeforeRead));
        assert!(skipped
            .iter()
            .any(|(n, r)| *n == "b" && *r == crate::report::SkipReason::RewrittenBeforeRead));
    }

    #[test]
    fn fig4_iteration_count_observed() {
        let report = fig4_report();
        assert_eq!(report.iterations, 10);
        assert!(report.records > 0);
    }

    #[test]
    fn analyze_text_equals_analyze_records() {
        let module = autocheck_minilang::compile(FIG4).unwrap();
        let mut machine =
            autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default());
        let mut sink = autocheck_interp::WriterSink::new(Vec::new());
        machine
            .run(&mut sink, &mut autocheck_interp::NoHook)
            .unwrap();
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();

        let region = Region::new("main", 13, 21);
        let analyzer = Analyzer::new(region).with_index_vars(vec!["it".into()]);
        let from_text = analyzer.analyze_text(&text).unwrap();
        let records = TraceSource::from_str(&text).records().unwrap();
        let from_records = analyzer.analyze(&records);
        assert_eq!(from_text.summary(), from_records.summary());

        // Parallel parsing changes nothing.
        let mut par = analyzer.clone();
        par.config.parse_threads = 4;
        let parallel = par.analyze_text(&text).unwrap();
        assert_eq!(parallel.summary(), from_records.summary());
    }

    #[test]
    fn ablation_configs_agree_on_fig4() {
        let module = autocheck_minilang::compile(FIG4).unwrap();
        let mut machine =
            autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default());
        let mut sink = autocheck_interp::VecSink::default();
        machine
            .run(&mut sink, &mut autocheck_interp::NoHook)
            .unwrap();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);

        let selective = Analyzer::new(region.clone())
            .with_index_vars(index.clone())
            .analyze(&sink.records);
        let exhaustive = Analyzer::new(region)
            .with_index_vars(index)
            .with_config(PipelineConfig {
                selective: false,
                ..PipelineConfig::default()
            })
            .analyze(&sink.records);
        assert_eq!(selective.summary(), exhaustive.summary());
    }

    #[test]
    fn sharded_analysis_matches_serial() {
        let module = autocheck_minilang::compile(FIG4).unwrap();
        let mut machine =
            autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default());
        let mut sink = autocheck_interp::VecSink::default();
        machine
            .run(&mut sink, &mut autocheck_interp::NoHook)
            .unwrap();
        let region = Region::new("main", 13, 21);
        let index = index_variables_of(&module, &region);
        let serial = Analyzer::new(region.clone())
            .with_index_vars(index.clone())
            .analyze(&sink.records);
        // 0 = auto; 64 exceeds the iteration count (graceful degradation).
        for shards in [0usize, 2, 3, 8, 64] {
            let out = Analyzer::new(region.clone())
                .with_index_vars(index.clone())
                .with_config(PipelineConfig {
                    shards,
                    ..PipelineConfig::default()
                })
                .analyze(&sink.records);
            assert_eq!(out.summary(), serial.summary(), "{shards} shards");
            assert_eq!(out.mli, serial.mli, "{shards} shards");
            assert_eq!(out.skipped, serial.skipped, "{shards} shards");
            assert_eq!(out.iterations, serial.iterations);
            assert_eq!(out.records, serial.records);
            assert_eq!(out.ddg.nodes, serial.ddg.nodes, "{shards} shards");
            assert_eq!(out.ddg.edges, serial.ddg.edges, "{shards} shards");
            assert_eq!(out.ddg.contracted_nodes, serial.ddg.contracted_nodes);
            assert_eq!(out.ddg.contracted_edges, serial.ddg.contracted_edges);
        }
    }

    #[test]
    fn index_variables_of_finds_it() {
        let module = autocheck_minilang::compile(FIG4).unwrap();
        let region = Region::new("main", 13, 21);
        assert_eq!(index_variables_of(&module, &region), vec!["it".to_string()]);
    }

    #[test]
    fn timings_are_populated() {
        let report = fig4_report();
        // Durations are non-negative by construction; just ensure the
        // breakdown exists and total() is the sum.
        let t = report.timings;
        assert_eq!(
            t.total(),
            t.preprocess + t.dependency + t.identify + t.contract
        );
    }
}
