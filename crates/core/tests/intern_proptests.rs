//! Property tests for the interned data plane: report text and DOT output
//! must be **byte-identical** regardless of how symbols were interned.
//!
//! `SymId` values depend on first-come interning order, so ids must never
//! leak into anything user-visible. Within one process the table is shared
//! (every parse of the same trace sees the same ids), so the
//! targeted guard is [`renamed_program_reports_are_renamed_reports`]: it
//! interns a renamed identifier set in **reverse lexicographic order** —
//! forcing numeric id order and string order to disagree — and asserts the
//! renamed program's full output equals the original's with the renaming
//! applied textually. Any output path ordered or keyed by raw id would
//! come out permuted and fail. The remaining tests pin byte-determinism
//! across parse modes and pipelines, and the trace text round-trip.

use autocheck_core::{
    contract_ddg, find_mli_vars, index_variables_of, Analyzer, CollectMode, DdgAnalysis, NodeKind,
    Phases, Region, StreamAnalyzer,
};
use autocheck_trace::{writer, Record, TraceSource};
use proptest::collection::vec;
use proptest::prelude::*;

mod gen;
use gen::program;

fn parse_str(text: &str) -> Result<Vec<Record>, autocheck_trace::reader::TraceReadError> {
    TraceSource::from_str(text).records()
}

/// Trace text + region + index variables for a generated program.
fn traced(stmt_idx: &[usize], m: u32) -> (String, Region, Vec<String>) {
    let (src, start, end) = program(stmt_idx, m);
    let module = autocheck_minilang::compile(&src)
        .unwrap_or_else(|e| panic!("generated program failed to compile: {e:?}\n{src}"));
    let mut sink = autocheck_interp::WriterSink::new(Vec::new());
    autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default())
        .run(&mut sink, &mut autocheck_interp::NoHook)
        .expect("generated program runs");
    let text = String::from_utf8(sink.finish().expect("trace bytes")).expect("utf8");
    let region = Region::new("main", start, end);
    let index = index_variables_of(&module, &region);
    (text, region, index)
}

/// Everything user-visible the analysis produces for one record slice:
/// the report rendering plus both DOT graphs (complete and contracted),
/// with MLI nodes marked — all label resolution paths exercised.
fn visible_output(records: &[Record], region: &Region, index: &[String]) -> String {
    let report = Analyzer::new(region.clone())
        .with_index_vars(index.to_vec())
        .analyze(records)
        .expect("no ceilings set");
    let phases = Phases::compute(records, region);
    let mli = find_mli_vars(records, &phases, region, CollectMode::AnyAccess);
    let analysis = DdgAnalysis::run(records, &phases, &mli, true);
    let mli_bases: std::collections::HashSet<u64> = mli.iter().map(|m| m.base_addr).collect();
    let is_mli = |n: &NodeKind| matches!(n, NodeKind::Var { base, .. } if mli_bases.contains(base));
    let complete_dot = analysis.graph.to_dot(is_mli);
    let contracted_dot = contract_ddg(&analysis.graph, is_mli).to_dot();
    format!("{report}\n{complete_dot}\n{contracted_dot}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// In-memory and windowed reader parsing must yield identical records
    /// and byte-identical rendered output (determinism guard; in-process
    /// the two parses share the interner table, so the id-order property
    /// is covered by the renaming test below).
    #[test]
    fn output_bytes_identical_across_parse_modes(
        stmt_idx in vec(0usize..10, 1..7),
        m in 2u32..8,
    ) {
        let (text, region, index) = traced(&stmt_idx, m);
        let serial = parse_str(&text).unwrap();
        let windowed = TraceSource::from_reader(text.as_bytes()).records().unwrap();
        prop_assert_eq!(&serial, &windowed, "records must be equal");
        let a = visible_output(&serial, &region, &index);
        let b = visible_output(&windowed, &region, &index);
        prop_assert_eq!(a, b, "report/DOT bytes diverged across parse modes");
    }

    /// The engine shares the interner with the staged reference; its
    /// rendered report must be byte-identical too (labels resolve through
    /// the same table both ways).
    #[test]
    fn report_bytes_identical_across_pipelines(
        stmt_idx in vec(0usize..10, 1..7),
        m in 2u32..8,
    ) {
        let (text, region, index) = traced(&stmt_idx, m);
        let records = parse_str(&text).unwrap();
        let batch = Analyzer::new(region.clone())
            .with_index_vars(index.clone())
            .analyze_staged(&records);
        let stream = StreamAnalyzer::new(region)
            .with_index_vars(index)
            .analyze(&records)
            .expect("no live bound configured");
        prop_assert_eq!(batch.to_string(), stream.to_string());
    }

    /// Interning must be invisible in the trace text format: parsing and
    /// re-serializing a generated trace reproduces it byte-for-byte.
    #[test]
    fn trace_text_round_trips_byte_identically(
        stmt_idx in vec(0usize..10, 1..5),
        m in 2u32..6,
    ) {
        let (text, _, _) = traced(&stmt_idx, m);
        let records = parse_str(&text).unwrap();
        prop_assert_eq!(writer::to_string(&records), text);
    }

    /// The id-order guard. Rename every program identifier by shifting
    /// each character up one (an order- and length-preserving bijection),
    /// but intern the renamed set in *reverse* lexicographic order first,
    /// so numeric `SymId` order is the exact opposite of string order.
    /// The renamed program's report + DOT bytes must equal the original's
    /// with the same renaming applied to the text — which only holds if
    /// every sort and every label resolves through strings, never ids.
    #[test]
    fn renamed_program_reports_are_renamed_reports(
        stmt_idx in vec(0usize..10, 1..7),
        m in 2u32..8,
    ) {
        // Original identifiers and their shifted forms (same lengths, same
        // relative lexicographic order, no keyword collisions).
        let renames: &[(&str, &str)] = &[
            ("acc", "bdd"),
            ("arr", "bss"),
            ("aux", "bvy"),
            ("i", "j"),
            ("it", "ju"),
            ("out", "pvu"),
            ("tmp", "unq"),
        ];
        // Anti-order the ids: intern renamed names in reverse-sorted order.
        // (Effective the first time this test runs in the process; the
        // resulting id order persists for all cases.)
        let mut reversed: Vec<&str> = renames.iter().map(|&(_, to)| to).collect();
        reversed.sort_unstable();
        reversed.reverse();
        for name in reversed {
            autocheck_trace::SymId::intern(name);
        }

        let (src, start, end) = program(&stmt_idx, m);
        let src2 = rename_words(&src, renames);

        let run = |source: &str| {
            let module = autocheck_minilang::compile(source)
                .unwrap_or_else(|e| panic!("failed to compile: {e:?}
{source}"));
            let mut sink = autocheck_interp::WriterSink::new(Vec::new());
            autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default())
                .run(&mut sink, &mut autocheck_interp::NoHook)
                .expect("runs");
            let text = String::from_utf8(sink.finish().expect("trace")).expect("utf8");
            let region = Region::new("main", start, end);
            let index = index_variables_of(&module, &region);
            let records = parse_str(&text).unwrap();
            visible_output(&records, &region, &index)
        };
        let original = run(&src);
        let renamed = run(&src2);
        prop_assert_eq!(renamed, rename_words(&original, renames));
    }
}

/// Word-boundary identifier substitution (applied to source and output
/// alike): replace maximal `[A-Za-z0-9_]+` runs found in the map.
fn rename_words(text: &str, renames: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(text.len());
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        if !word.is_empty() {
            match renames.iter().find(|&&(from, _)| from == word) {
                Some(&(_, to)) => out.push_str(to),
                None => out.push_str(word),
            }
            word.clear();
        }
    };
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            word.push(c);
        } else {
            flush(&mut word, &mut out);
            out.push(c);
        }
    }
    flush(&mut word, &mut out);
    out
}
