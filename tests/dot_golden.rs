//! Golden DOT snapshots: the unified graph renderer must keep producing
//! byte-identical output to the pre-unification batch implementation.
//!
//! The files under `tests/golden/` were captured from the last revision
//! that still carried two graph implementations (batch `DepGraph` +
//! streaming `StreamGraph`); these tests pin the single `CsrGraph`/
//! `DotWriter` path to those bytes on the Fig. 4 worked example and two
//! benchmark apps — one small (`is`) and the largest (`cg`). Both drivers
//! are pinned: the online engine, whose graph `autocheck --dot` and every
//! `dot` job render, and the staged reference fold. The byte parity
//! proptests cover *random* programs but compare refactored code against
//! itself; these snapshots anchor the output to history.

use autocheck_core::{
    contract_ddg, find_mli_vars, index_variables_of, CollectMode, DdgAnalysis, NodeKind, Phases,
    Region, StreamAnalyzer, StreamConfig,
};
use autocheck_interp::{ExecOptions, Machine, NoHook, VecSink};
use autocheck_stream::{Engine, EngineConfig};
use autocheck_trace::Record;

/// Full and contracted DOT of one driver.
struct Rendered {
    full: String,
    contracted: String,
}

fn records_of(source: &str) -> Vec<Record> {
    let module = autocheck_minilang::compile(source).expect("compiles");
    let mut sink = VecSink::default();
    Machine::new(&module, ExecOptions::default())
        .run(&mut sink, &mut NoHook)
        .expect("runs");
    sink.records
}

/// The staged reference: region, MLI and dependency passes over the slice.
fn staged(records: &[Record], region: &Region) -> Rendered {
    let phases = Phases::compute(records, region);
    let mli = find_mli_vars(records, &phases, region, CollectMode::AnyAccess);
    let analysis = DdgAnalysis::run(records, &phases, &mli, true);
    let bases: std::collections::HashSet<u64> = mli.iter().map(|m| m.base_addr).collect();
    let is_mli = |n: &NodeKind| matches!(n, NodeKind::Var { base, .. } if bases.contains(base));
    Rendered {
        full: analysis.graph.to_dot(is_mli),
        contracted: contract_ddg(&analysis.graph, is_mli).to_dot(),
    }
}

/// The online engine: the full DDG as `Engine::finish` freezes it, and the
/// contracted DOT a `StreamConfig::contracted_dot` run renders.
fn engine(records: &[Record], region: &Region, index: Vec<String>) -> Rendered {
    let mut engine = Engine::new(EngineConfig::for_region(
        region.function.clone(),
        region.start_line,
        region.end_line,
    ));
    for r in records {
        engine.push(r).expect("no ceiling configured");
    }
    let outcome = engine.finish();
    let bases: std::collections::HashSet<u64> = outcome.mli.iter().map(|m| m.base_addr).collect();
    let full = outcome
        .ddg
        .to_dot(|n| matches!(n, NodeKind::Var { base, .. } if bases.contains(base)));
    let run = StreamAnalyzer::new(region.clone())
        .with_index_vars(index)
        .with_config(StreamConfig {
            contracted_dot: true,
            ..StreamConfig::default()
        })
        .run_records(records)
        .expect("no ceiling configured");
    Rendered {
        full,
        contracted: run.contracted_dot.expect("contracted DOT requested"),
    }
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"))
}

fn check(tag: &str, source: &str, region: Region, index: Vec<String>) {
    let records = records_of(source);
    let golden_full = golden(&format!("{tag}_full.dot"));
    let golden_contracted = golden(&format!("{tag}_contracted.dot"));
    for (driver, r) in [
        ("staged", staged(&records, &region)),
        ("engine", engine(&records, &region, index)),
    ] {
        assert_eq!(
            r.full, golden_full,
            "{tag}: {driver} full-DDG DOT drifted from the pre-unification bytes"
        );
        assert_eq!(
            r.contracted, golden_contracted,
            "{tag}: {driver} contracted-DDG DOT drifted from the pre-unification bytes"
        );
    }
}

#[test]
fn fig4_dot_matches_golden() {
    let src = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/fig4.mc"))
        .expect("examples/fig4.mc exists");
    let module = autocheck_minilang::compile(&src).unwrap();
    let region = Region::new("main", 16, 24);
    let index = index_variables_of(&module, &region);
    check("fig4", &src, region, index);
}

#[test]
fn cg_dot_matches_golden() {
    let spec = autocheck_apps::app_by_name("cg").expect("cg exists");
    let module = autocheck_minilang::compile(&spec.source).unwrap();
    let index = index_variables_of(&module, &spec.region);
    check("cg", &spec.source, spec.region.clone(), index);
}

#[test]
fn is_dot_matches_golden() {
    let spec = autocheck_apps::app_by_name("is").expect("is exists");
    let module = autocheck_minilang::compile(&spec.source).unwrap();
    let index = index_variables_of(&module, &spec.region);
    check("is", &spec.source, spec.region.clone(), index);
}
