//! Cross-crate integration: the complete substrate chain on the paper's
//! Figure 4 example — compile → trace → loop pass → AutoCheck — checked
//! against every intermediate result the paper states.

use autocheck_core::{
    contract_ddg, index_variables_of, Analyzer, DdgAnalysis, DepType, NodeKind, Phases, Region,
};
use autocheck_interp::{ExecOptions, Machine, NoHook, VecSink, WriterSink};

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

fn region() -> Region {
    Region::new("main", 13, 21)
}

fn trace() -> (autocheck_ir::Module, Vec<autocheck_trace::Record>) {
    let module = autocheck_minilang::compile(FIG4).expect("compiles");
    let mut sink = VecSink::default();
    Machine::new(&module, ExecOptions::default())
        .run(&mut sink, &mut NoHook)
        .expect("runs");
    (module, sink.records)
}

#[test]
fn program_output_matches_c_semantics() {
    let module = autocheck_minilang::compile(FIG4).unwrap();
    let out = Machine::new(&module, ExecOptions::default())
        .run(&mut autocheck_interp::NullSink, &mut NoHook)
        .unwrap();
    // it=9: s=10, r=10 at the multiply, a[9]=100, b[9]=200, sum=300.
    assert_eq!(out.output, vec!["300".to_string()]);
}

#[test]
fn mli_set_matches_paper() {
    let (module, records) = trace();
    let report = Analyzer::new(region())
        .with_index_vars(index_variables_of(&module, &region()))
        .analyze(&records)
        .expect("no ceilings set");
    let mut names: Vec<_> = report.mli.iter().map(|m| m.name.as_str()).collect();
    names.sort();
    assert_eq!(names, vec!["a", "b", "r", "s", "sum"]);
}

#[test]
fn critical_set_matches_paper_conclusion() {
    let (module, records) = trace();
    let report = Analyzer::new(region())
        .with_index_vars(index_variables_of(&module, &region()))
        .analyze(&records)
        .expect("no ceilings set");
    assert_eq!(
        report.summary(),
        vec![
            ("a".to_string(), DepType::Rapo),
            ("it".to_string(), DepType::Index),
            ("r".to_string(), DepType::War),
            ("sum".to_string(), DepType::Outcome),
        ]
    );
}

#[test]
fn contracted_ddg_has_fig5d_edges() {
    let (_module, records) = trace();
    let report = Analyzer::new(region())
        .analyze(&records)
        .expect("no ceilings set");
    let phases = Phases::compute(&records, &region());
    let analysis = DdgAnalysis::run(&records, &phases, &report.mli, true);
    let bases: std::collections::HashSet<u64> = report.mli.iter().map(|m| m.base_addr).collect();
    let c = contract_ddg(
        &analysis.graph,
        |n| matches!(n, NodeKind::Var { base, .. } if bases.contains(base)),
    );
    let edge = |p: &str, ch: &str| {
        let pi = c.find_label(p).unwrap_or_else(|| panic!("node {p}"));
        let ci = c.find_label(ch).unwrap_or_else(|| panic!("node {ch}"));
        c.edges.contains(&(pi, ci))
    };
    // Fig. 5(d): a and b feed sum; s and r feed a; a feeds b (through foo).
    assert!(edge("a", "sum"), "a -> sum");
    assert!(edge("b", "sum"), "b -> sum");
    assert!(edge("s", "a"), "s -> a");
    assert!(edge("r", "a"), "r -> a");
    assert!(edge("a", "b"), "a -> b (through foo's p/q parameters)");
    // Only MLI variables (and terminals) remain: no temporaries.
    assert!(c.nodes.iter().all(|n| n.is_var() || c.nodes.len() < 100));
}

#[test]
fn analysis_is_stable_across_trace_serialization() {
    let (module, records) = trace();
    // Serialize to text and re-analyze through the text path.
    let mut sink = WriterSink::new(Vec::new());
    for r in &records {
        use autocheck_interp::TraceSink as _;
        sink.record(r).unwrap();
    }
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    let analyzer = Analyzer::new(region()).with_index_vars(index_variables_of(&module, &region()));
    let from_text = analyzer.run_bytes(text.as_bytes()).unwrap().report;
    let direct = Analyzer::new(region())
        .with_index_vars(index_variables_of(&module, &region()))
        .analyze(&records)
        .expect("no ceilings set");
    assert_eq!(from_text.summary(), direct.summary());
    assert_eq!(from_text.mli.len(), direct.mli.len());
}

#[test]
fn iteration_count_and_records_reported() {
    let (module, records) = trace();
    let report = Analyzer::new(region())
        .with_index_vars(index_variables_of(&module, &region()))
        .analyze(&records)
        .expect("no ceilings set");
    assert_eq!(report.iterations, 10);
    assert_eq!(report.records, records.len() as u64);
    assert!(
        report.checkpoint_bytes() >= 80 + 8 + 8,
        "a + r + sum at least"
    );
}
