//! Benchmark descriptors and the shared compile→trace→analyze driver.

use autocheck_core::{index_variables_of, Analyzer, DepType, Region, Report};
use autocheck_interp::{ExecOptions, Machine, NoHook, VecSink};
use autocheck_ir::Module;
use autocheck_trace::{Record, TraceWriter};
use std::time::{Duration, Instant};

/// One benchmark.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// Short name (Table II's first column, lowercased).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// MiniLang source.
    pub source: String,
    /// The main computation loop's location (the MCLR input).
    pub region: Region,
    /// Expected critical variables with dependency types — the ground truth
    /// the paper's Table II reports for the original benchmark.
    pub expected: Vec<(&'static str, DepType)>,
}

impl AppSpec {
    /// Lines of MiniLang code (Table II's LOC analogue).
    pub fn loc(&self) -> usize {
        self.source.lines().filter(|l| !l.trim().is_empty()).count()
    }

    /// Expected critical set as sorted `(name, dep)` pairs, comparable with
    /// [`Report::summary`].
    pub fn expected_summary(&self) -> Vec<(String, DepType)> {
        let mut v: Vec<(String, DepType)> = self
            .expected
            .iter()
            .map(|(n, d)| (n.to_string(), *d))
            .collect();
        v.sort();
        v
    }
}

/// Locate the main computation loop from `// @loop-start` / `// @loop-end`
/// markers in the source. The markers sit on the loop statement's line and
/// on its closing brace, so the resulting region is exactly the paper's
/// MCLR convention (start/end line numbers in the named function).
pub fn region_from_markers(source: &str, function: &str) -> Region {
    try_region_from_markers(source, function).expect("loop markers missing or inverted")
}

/// Fallible [`region_from_markers`] for user-supplied sources: `None` when
/// either marker is missing or `@loop-end` does not come after
/// `@loop-start`.
pub fn try_region_from_markers(source: &str, function: &str) -> Option<Region> {
    let mut start = 0u32;
    let mut end = 0u32;
    for (i, line) in source.lines().enumerate() {
        if line.contains("@loop-start") {
            start = i as u32 + 1;
        }
        if line.contains("@loop-end") {
            end = i as u32 + 1;
        }
    }
    (start > 0 && end > start).then(|| Region::new(function, start, end))
}

/// Everything produced by one full run of the substrate chain on an app.
pub struct AppRun {
    /// The compiled module.
    pub module: Module,
    /// The dynamic trace.
    pub records: Vec<Record>,
    /// Size of the textual trace in bytes (Table II's "trace size").
    pub trace_bytes: u64,
    /// Wall time to generate the trace (Table II's "trace generation
    /// time").
    pub trace_gen_time: Duration,
    /// Program output of the traced run.
    pub output: Vec<String>,
    /// The AutoCheck analysis report.
    pub report: Report,
}

/// Compile, execute under the tracer, run the loop pass, and analyze.
pub fn analyze_app(spec: &AppSpec) -> AppRun {
    let module = autocheck_minilang::compile(&spec.source)
        .unwrap_or_else(|e| panic!("{} does not compile: {:?}", spec.name, e));

    let t0 = Instant::now();
    let mut sink = VecSink::default();
    let mut machine = Machine::new(&module, ExecOptions::default());
    let outcome = machine
        .run(&mut sink, &mut NoHook)
        .unwrap_or_else(|e| panic!("{} failed to run: {e}", spec.name));
    let trace_gen_time = t0.elapsed();

    // Byte size of the textual form, without keeping the text around.
    let mut text = TraceWriter::new(std::io::sink());
    for r in &sink.records {
        text.write_record(r).expect("io::sink never fails");
    }
    let trace_bytes = text.bytes_written();

    let index = index_variables_of(&module, &spec.region);
    let report = Analyzer::new(spec.region.clone())
        .with_index_vars(index)
        .analyze(&sink.records)
        .expect("no ceilings set");

    AppRun {
        module,
        records: sink.records,
        trace_bytes,
        trace_gen_time,
        output: outcome.output,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_resolve_to_region() {
        let src = "int main() {\n  int x = 0;\n  for (int i = 0; i < 3; i = i + 1) { // @loop-start\n    x = x + i;\n  } // @loop-end\n  print(x);\n  return 0;\n}\n";
        let r = region_from_markers(src, "main");
        assert_eq!(r.start_line, 3);
        assert_eq!(r.end_line, 5);
        assert_eq!(r.function, "main");
    }

    #[test]
    #[should_panic(expected = "loop markers")]
    fn missing_markers_panic() {
        region_from_markers("int main() { return 0; }", "main");
    }
}
