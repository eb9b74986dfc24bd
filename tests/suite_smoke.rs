//! Workspace-surface smoke test: the umbrella crate's documented quickstart
//! (src/lib.rs) must keep compiling and running through the re-exported
//! paths alone, and the Fig. 4 example must keep producing the paper's
//! §IV-C critical set. Guards the crate map the README documents.

use autocheck_suite::{
    core::{index_variables_of, Analyzer, DepType, Region},
    interp, minilang,
};

/// The exact program from the umbrella crate's doc-comment quickstart.
#[test]
fn doc_quickstart_runs_through_reexports() {
    let module = minilang::compile("int main() { return 0; }").unwrap();
    let mut sink = interp::VecSink::default();
    interp::Machine::new(&module, interp::ExecOptions::default())
        .run(&mut sink, &mut interp::NoHook)
        .unwrap();
    let region = Region::new("main", 13, 21);
    let report = Analyzer::new(region.clone())
        .with_index_vars(index_variables_of(&module, &region))
        .analyze(&sink.records)
        .expect("no ceilings set");
    // A program with no main loop has nothing to checkpoint; the point is
    // that the whole chain runs and renders through the umbrella paths.
    assert!(report.critical.is_empty());
    assert!(!format!("{report}").is_empty());
}

/// Every layer is reachable under its re-exported name.
#[test]
fn all_seven_layers_are_reexported() {
    assert!(autocheck_suite::apps::all_apps().len() >= 14);
    assert_eq!(autocheck_suite::checkpoint::crc::crc64(b""), 0);
    assert_eq!(
        autocheck_suite::trace::TraceSource::from_str("")
            .records()
            .unwrap(),
        vec![]
    );
    assert!(autocheck_suite::ir::verify_module(
        &minilang::compile("int main() { return 0; }").unwrap()
    )
    .is_ok());
}

/// The Fig. 4 worked example (examples/fig4.mc) reports the paper's
/// critical set with the right dependency classes.
#[test]
fn fig4_example_reports_paper_critical_set() {
    let src = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/fig4.mc"))
        .expect("examples/fig4.mc exists");
    let module = minilang::compile(&src).unwrap();
    let mut sink = interp::VecSink::default();
    interp::Machine::new(&module, interp::ExecOptions::default())
        .run(&mut sink, &mut interp::NoHook)
        .unwrap();
    let region = Region::new("main", 16, 24);
    let report = Analyzer::new(region.clone())
        .with_index_vars(index_variables_of(&module, &region))
        .analyze(&sink.records)
        .expect("no ceilings set");
    let mut found: Vec<(String, DepType)> = report
        .critical
        .iter()
        .map(|c| (c.name.to_string(), c.dep))
        .collect();
    found.sort();
    assert_eq!(
        found,
        vec![
            ("a".to_string(), DepType::Rapo),
            ("it".to_string(), DepType::Index),
            ("r".to_string(), DepType::War),
            ("sum".to_string(), DepType::Outcome),
        ]
    );
}
