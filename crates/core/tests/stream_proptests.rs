//! Property test: for random MiniLang programs, the streaming analyzer's
//! report is identical to the staged batch reference's
//! (`Analyzer::analyze_staged`, separate passes over the materialized
//! records) — critical set, dependency classes, skip reasons, first-seen
//! lines, byte sizes, iteration and record counts.

use autocheck_core::{index_variables_of, Analyzer, Region, StreamAnalyzer};
use proptest::collection::vec;
use proptest::prelude::*;

mod gen;
use gen::program;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn streaming_report_equals_batch_report(
        stmt_idx in vec(0usize..10, 1..7),
        m in 2u32..8,
    ) {
        let (src, start, end) = program(&stmt_idx, m);
        let module = autocheck_minilang::compile(&src)
            .unwrap_or_else(|e| panic!("generated program failed to compile: {e:?}\n{src}"));
        let mut sink = autocheck_interp::VecSink::default();
        autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default())
            .run(&mut sink, &mut autocheck_interp::NoHook)
            .expect("generated program runs");

        let region = Region::new("main", start, end);
        let index = index_variables_of(&module, &region);
        let batch = Analyzer::new(region.clone())
            .with_index_vars(index.clone())
            .analyze_staged(&sink.records);
        let stream = StreamAnalyzer::new(region)
            .with_index_vars(index)
            .analyze(&sink.records)
            .expect("no live bound configured");

        prop_assert_eq!(&batch.mli, &stream.mli, "MLI sets differ\n{}", src);
        prop_assert_eq!(&batch.critical, &stream.critical, "critical sets differ\n{}", src);
        prop_assert_eq!(&batch.skipped, &stream.skipped, "skip sets differ\n{}", src);
        prop_assert_eq!(batch.iterations, stream.iterations);
        prop_assert_eq!(batch.records, stream.records);
        prop_assert_eq!(batch.checkpoint_bytes(), stream.checkpoint_bytes());
    }

    #[test]
    fn streaming_from_text_equals_batch_from_text(
        stmt_idx in vec(0usize..10, 1..5),
        m in 2u32..6,
    ) {
        // Same property through the other front doors: the staged batch
        // reference over the parsed text vs the streaming analyzer's reader
        // path.
        let (src, start, end) = program(&stmt_idx, m);
        let module = autocheck_minilang::compile(&src).unwrap();
        let mut sink = autocheck_interp::WriterSink::new(Vec::new());
        autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default())
            .run(&mut sink, &mut autocheck_interp::NoHook)
            .expect("runs");
        let text = sink.finish().expect("trace bytes");

        let region = Region::new("main", start, end);
        let index = index_variables_of(&module, &region);
        let records = autocheck_trace::TraceSource::from_str(std::str::from_utf8(&text).unwrap())
            .records()
            .expect("parses");
        let batch = Analyzer::new(region.clone())
            .with_index_vars(index.clone())
            .analyze_staged(&records);
        let stream = StreamAnalyzer::new(region)
            .with_index_vars(index)
            .analyze_read(&text[..])
            .expect("streams");

        prop_assert_eq!(&batch.critical, &stream.critical);
        prop_assert_eq!(&batch.skipped, &stream.skipped);
        prop_assert_eq!(batch.records, stream.records);
    }

    #[test]
    fn faulted_streams_never_panic_the_analyzer(
        stmt_idx in vec(0usize..10, 1..5),
        m in 2u32..6,
        seed in any::<u64>(),
    ) {
        // Fault injection below the full streaming pipeline: a seeded plan
        // (short reads, truncation, injected io::Error, bit flips) over a
        // real trace must come out of StreamAnalyzer::run_read as Ok or a
        // typed StreamError — never a panic, never growth past the
        // session's ceilings.
        use autocheck_trace::{AnalysisCtx, FaultPlan, ResourceLimits};
        let (src, start, end) = program(&stmt_idx, m);
        let module = autocheck_minilang::compile(&src).unwrap();
        let mut sink = autocheck_interp::WriterSink::new(Vec::new());
        autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default())
            .run(&mut sink, &mut autocheck_interp::NoHook)
            .expect("runs");
        let text = sink.finish().expect("trace bytes");

        let ctx = AnalysisCtx::session().untrusted().with_limits(
            ResourceLimits::new()
                .max_trace_bytes(text.len() as u64)
                .max_symbols(4_096),
        );
        let _guard = ctx.enter();
        let region = Region::new("main", start, end);
        let index = index_variables_of(&module, &region);
        let plan = FaultPlan::from_seed(seed, text.len() as u64);
        // Reaching the end without unwinding IS the property; the match
        // additionally pins every failure to the typed error enum.
        match StreamAnalyzer::new(region)
            .with_index_vars(index)
            .with_ctx(ctx.clone())
            .run_read(plan.reader(&text[..]))
        {
            Ok(run) => prop_assert!(run.stats.ddg_nodes < 100_000),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}
