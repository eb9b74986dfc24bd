//! Golden DOT snapshots: the unified graph renderer must keep producing
//! byte-identical output to the pre-unification batch implementation.
//!
//! The files under `tests/golden/` were captured from the last revision
//! that still carried two graph implementations (batch `DepGraph` +
//! streaming `StreamGraph`); these tests pin the single `CsrGraph`/
//! `DotWriter` path to those bytes on the Fig. 4 worked example and two
//! benchmark apps — one small (`is`) and the largest (`cg`). The byte
//! parity proptests cover *random* programs but compare refactored code
//! against itself; these snapshots anchor the output to history.

use autocheck_core::{
    contract_ddg, find_mli_vars, index_variables_of, CollectMode, DdgAnalysis, NodeKind, Phases,
    Region, StreamAnalyzer, StreamConfig,
};
use autocheck_interp::{ExecOptions, Machine, NoHook, VecSink};

struct Rendered {
    full: String,
    contracted: String,
    streaming_contracted: String,
    batch_edges: Vec<(String, String)>,
    streaming_edges: Vec<(String, String)>,
}

fn render(source: &str, region: Region, index: Vec<String>) -> Rendered {
    let module = autocheck_minilang::compile(source).expect("compiles");
    let mut sink = VecSink::default();
    Machine::new(&module, ExecOptions::default())
        .run(&mut sink, &mut NoHook)
        .expect("runs");
    let records = sink.records;
    let phases = Phases::compute(&records, &region);
    let mli = find_mli_vars(&records, &phases, &region, CollectMode::AnyAccess);
    let analysis = DdgAnalysis::run(&records, &phases, &mli, true);
    let bases: std::collections::HashSet<u64> = mli.iter().map(|m| m.base_addr).collect();
    let is_mli = |n: &NodeKind| matches!(n, NodeKind::Var { base, .. } if bases.contains(base));
    let contracted = contract_ddg(&analysis.graph, is_mli);
    let batch_edges = labeled_edges(&contracted.nodes, &contracted.edges);

    // The streaming path: same records through the online engine with
    // contraction enabled — a capability the batch-only design could not
    // offer.
    let run = StreamAnalyzer::new(region)
        .with_index_vars(index)
        .with_config(StreamConfig {
            contracted_dot: true,
            ..StreamConfig::default()
        })
        .session_run(&records);
    let streaming_contracted = run.contracted_dot.clone().expect("streaming contraction");
    let streaming_edges = parse_dot_edges(&streaming_contracted);

    Rendered {
        full: analysis.graph.to_dot(is_mli),
        contracted: contracted.to_dot(),
        streaming_contracted,
        batch_edges,
        streaming_edges,
    }
}

/// `(parent label, child label)` pairs, sorted — the order-independent
/// skeleton of a contracted graph.
fn labeled_edges(
    nodes: &[NodeKind],
    edges: &std::collections::BTreeSet<(usize, usize)>,
) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = edges
        .iter()
        .map(|&(p, c)| (nodes[p].label(), nodes[c].label()))
        .collect();
    v.sort();
    v
}

/// Recover the labeled edge set from rendered DOT.
fn parse_dot_edges(dot: &str) -> Vec<(String, String)> {
    let mut labels = std::collections::HashMap::new();
    let mut edges = Vec::new();
    for line in dot.lines() {
        let line = line.trim();
        if let Some((id, rest)) = line
            .strip_prefix('n')
            .and_then(|l| l.split_once(" [label=\""))
        {
            let label = rest.split('"').next().unwrap().to_string();
            labels.insert(format!("n{id}"), label);
        } else if let Some((p, c)) = line.strip_suffix(';').and_then(|l| l.split_once(" -> ")) {
            edges.push((p.to_string(), c.to_string()));
        }
    }
    let mut v: Vec<(String, String)> = edges
        .into_iter()
        .map(|(p, c)| (labels[&p].clone(), labels[&c].clone()))
        .collect();
    v.sort();
    v
}

trait SessionRun {
    fn session_run(&self, records: &[autocheck_trace::Record]) -> autocheck_core::StreamRun;
}

impl SessionRun for StreamAnalyzer {
    fn session_run(&self, records: &[autocheck_trace::Record]) -> autocheck_core::StreamRun {
        let mut session = self.session();
        for r in records {
            session.push(r).expect("no live bound configured");
        }
        session.finish()
    }
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"))
}

fn check(tag: &str, source: &str, region: Region, index: Vec<String>) {
    let r = render(source, region, index);
    let golden_full = golden(&format!("{tag}_full.dot"));
    let golden_contracted = golden(&format!("{tag}_contracted.dot"));
    assert_eq!(
        r.full, golden_full,
        "{tag}: full-DDG DOT drifted from the pre-unification bytes"
    );
    assert_eq!(
        r.contracted, golden_contracted,
        "{tag}: contracted-DDG DOT drifted from the pre-unification bytes"
    );
    // Streaming contraction sees the same records without the MLI preload,
    // so node *numbering* may differ — the labeled dependency skeleton must
    // not.
    assert_eq!(
        r.streaming_edges, r.batch_edges,
        "{tag}: streaming contraction disagrees with batch contraction"
    );
    assert!(r.streaming_contracted.starts_with("digraph contracted {"));
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
