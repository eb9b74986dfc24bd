//! [`Analyzer`], the IR loop pass glue, and the staged reference.
//!
//! [`Analyzer`] *is* [`StreamAnalyzer`]: one type, one configuration
//! ([`crate::StreamConfig`]) and one engine run behind every entry point.
//! The staged passes over a materialized slice — region partitioning, MLI
//! identification, the dependency fold — remain as
//! `StreamAnalyzer::analyze_staged`, the independent side of the parity
//! suites; no production path runs them.

use crate::ddg::{DdgAnalysis, DdgOptions, RwKind};
use crate::preprocess::find_mli_vars_in;
use crate::region::{Phase, Phases, Region};
use crate::report::{DdgSummary, Report, Timings};
use crate::stream::StreamAnalyzer;
use autocheck_obs::{GaugeId, TimerId};
use autocheck_stream::VarStatsBuilder;
use autocheck_trace::Record;

/// The AutoCheck analyzer by its short name: the same type as
/// [`StreamAnalyzer`], so `Analyzer::new(region)` and
/// `StreamAnalyzer::new(region)` build the same analyzer.
pub type Analyzer = StreamAnalyzer;

impl StreamAnalyzer {
    /// The staged reference analysis: region partitioning
    /// ([`Phases::compute_in`]), MLI identification ([`find_mli_vars_in`]),
    /// one dependency fold ([`DdgAnalysis::fold_in`]) feeding per-variable
    /// [`VarStatsBuilder`]s, contraction, and [`crate::classify::select`],
    /// each a separate pass over `records`. It shares the state machines
    /// with the engine but not the driver, so the parity suites compare
    /// two drivers; it also books the Table III `dependency` time the fused
    /// pass cannot separate.
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
    use crate::stream::StreamConfig;
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
            .expect("no ceilings set")
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
        let from_text = analyzer.run_bytes(text.as_bytes()).unwrap().report;
        let records = TraceSource::from_str(&text).records().unwrap();
        let from_records = analyzer.analyze(&records).unwrap();
        assert_eq!(from_text.summary(), from_records.summary());
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
            .analyze(&sink.records)
            .unwrap();
        let exhaustive = Analyzer::new(region)
            .with_index_vars(index)
            .with_config(StreamConfig {
                selective: false,
                ..StreamConfig::default()
            })
            .analyze(&sink.records)
            .unwrap();
        assert_eq!(selective.summary(), exhaustive.summary());
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
