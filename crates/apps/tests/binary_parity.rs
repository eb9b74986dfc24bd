//! Acceptance tests for the binary trace format: ingesting a trace in
//! binary form must be **observably indistinguishable** from ingesting the
//! same trace as text — byte-identical rendered reports and DOT graphs —
//! across all three front doors (batch [`Analyzer`], [`StreamAnalyzer`],
//! and `MultiAnalyzer` jobs), on the Fig. 4 example and all 14 benchmarks.
//! Plus the `mlc convert` CLI: text → binary → text reproduces the original
//! trace byte for byte, in place too, and a failed conversion — like a
//! failed `mlc trace` — leaves no output file; and a version-2 file with an
//! iteration-index footer still reads like the version-1 trace of the same
//! run.

use autocheck_core::{
    index_variables_of, AnalysisJob, Analyzer, JobInput, MultiAnalyzer, Region, StreamAnalyzer,
    StreamConfig,
};
use autocheck_interp::{BinarySink, ExecOptions, Machine, NoHook, WriterSink};
use autocheck_trace::{binary, AnalysisCtx};
use std::path::Path;

/// Name, MiniLang source, region and index variables for every program the
/// parity tests cover: the Fig. 4 worked example plus the 14 benchmarks.
fn suite() -> Vec<(String, String, Region, Vec<String>)> {
    let fig4_src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fig4.mc"
    ))
    .expect("examples/fig4.mc exists");
    let mut progs = vec![("fig4".to_string(), fig4_src, Region::new("main", 16, 24))];
    for spec in autocheck_apps::all_apps() {
        progs.push((
            spec.name.to_string(),
            spec.source.clone(),
            spec.region.clone(),
        ));
    }
    progs
        .into_iter()
        .map(|(name, src, region)| {
            let module = autocheck_minilang::compile(&src).expect("compiles");
            let index = index_variables_of(&module, &region);
            (name, src, region, index)
        })
        .collect()
}

/// Execute `src` twice in fresh sessions, once into the text sink and once
/// into the binary sink, returning both serialized traces.
fn traces_of(src: &str) -> (Vec<u8>, Vec<u8>) {
    let module = autocheck_minilang::compile(src).expect("compiles");
    let text = {
        let ctx = AnalysisCtx::session();
        let _guard = ctx.enter();
        let mut sink = WriterSink::new(Vec::new());
        Machine::with_ctx(&module, ExecOptions::default(), ctx.clone())
            .run(&mut sink, &mut NoHook)
            .expect("runs");
        sink.finish().expect("text trace")
    };
    let bin = {
        let ctx = AnalysisCtx::session();
        let _guard = ctx.enter();
        let mut sink = BinarySink::with_ctx(Vec::new(), &ctx);
        Machine::with_ctx(&module, ExecOptions::default(), ctx.clone())
            .run(&mut sink, &mut NoHook)
            .expect("runs");
        sink.finish().expect("binary trace")
    };
    assert!(!binary::is_binary(&text));
    assert!(binary::is_binary(&bin));
    (text, bin)
}

/// Analyze `bytes` in a fresh session the way `autocheck --dot` does — one
/// engine run that renders its own contracted DDG — and return the rendered
/// report and the DOT: everything user-visible. Reading the same bytes
/// through `analyze_read` must render the same report.
fn batch_output(bytes: &[u8], region: &Region, index: &[String]) -> (String, String) {
    let ctx = AnalysisCtx::session();
    let _guard = ctx.enter();
    let run = StreamAnalyzer::new(region.clone())
        .with_index_vars(index.to_vec())
        .with_config(StreamConfig {
            contracted_dot: true,
            ..StreamConfig::default()
        })
        .with_ctx(ctx.clone())
        .run_bytes(bytes)
        .expect("ingests");
    let report = run.report.to_string();
    let batch = Analyzer::new(region.clone())
        .with_index_vars(index.to_vec())
        .with_ctx(ctx.clone())
        .analyze_read(bytes)
        .expect("ingests");
    assert_eq!(
        batch.to_string(),
        report,
        "analyze_read renders another report"
    );
    (report, run.contracted_dot.expect("DOT requested"))
}

/// Binary and text ingest must render byte-identical reports and DOT
/// through the batch pipeline, for every program in the suite.
#[test]
fn batch_reports_and_dot_are_byte_identical_across_formats() {
    for (name, src, region, index) in suite() {
        let (text, bin) = traces_of(&src);
        let (report_t, dot_t) = batch_output(&text, &region, &index);
        let (report_b, dot_b) = batch_output(&bin, &region, &index);
        assert_eq!(report_t, report_b, "{name}: batch report bytes differ");
        assert_eq!(dot_t, dot_b, "{name}: batch DOT bytes differ");
        assert!(
            !report_t.is_empty() && dot_t.starts_with("digraph"),
            "{name}"
        );
    }
}

/// The streaming pipeline reads both formats from a plain reader
/// (auto-detected) and renders the identical report either way.
#[test]
fn stream_reports_are_byte_identical_across_formats() {
    for (name, src, region, index) in suite() {
        let (text, bin) = traces_of(&src);
        let run = |bytes: &[u8]| {
            let ctx = AnalysisCtx::session();
            let _guard = ctx.enter();
            StreamAnalyzer::new(region.clone())
                .with_index_vars(index.clone())
                .with_ctx(ctx.clone())
                .analyze_read(bytes)
                .expect("streams")
                .to_string()
        };
        let from_text = run(&text);
        let from_bin = run(&bin);
        assert_eq!(from_text, from_bin, "{name}: stream report bytes differ");
        // And streaming agrees with batch on the same bytes.
        let (batch, _) = batch_output(&bin, &region, &index);
        assert_eq!(batch, from_bin, "{name}: stream diverges from batch");
    }
}

/// `MultiAnalyzer` jobs pointed at a binary trace file produce the same
/// rendered sessions as jobs pointed at the text version (auto-detect via
/// `JobInput::TracePath`).
#[test]
fn multianalyzer_jobs_are_byte_identical_across_formats() {
    let dir = std::env::temp_dir().join(format!("autocheck-binary-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let suite = suite();
    let jobs_for = |ext: &str| -> Vec<AnalysisJob> {
        suite
            .iter()
            .map(|(name, _, region, index)| {
                let path = dir.join(format!("{name}.{ext}"));
                AnalysisJob::new(
                    name.clone(),
                    JobInput::TracePath(path.to_string_lossy().into_owned()),
                    region.clone(),
                )
                .with_index_vars(index.clone())
                .with_dot(true)
            })
            .collect()
    };
    for (name, src, _, _) in &suite {
        let (text, bin) = traces_of(src);
        std::fs::write(dir.join(format!("{name}.txt")), &text).expect("write text");
        std::fs::write(dir.join(format!("{name}.bin")), &bin).expect("write binary");
    }
    let from_text = MultiAnalyzer::new(4).run(jobs_for("txt"));
    let from_bin = MultiAnalyzer::new(4).run(jobs_for("bin"));
    assert!(from_text.failures.is_empty(), "{:?}", from_text.failures);
    assert!(from_bin.failures.is_empty(), "{:?}", from_bin.failures);
    assert_eq!(from_text.sessions.len(), suite.len());
    for (t, b) in from_text.sessions.iter().zip(&from_bin.sessions) {
        assert_eq!(t.name, b.name);
        assert_eq!(t.rendered, b.rendered, "{}: session report differs", t.name);
        assert_eq!(t.dot, b.dot, "{}: session DOT differs", t.name);
        assert_eq!(t.summary, b.summary, "{}", t.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mlc convert` round trip against the real binary: trace Fig. 4 as text,
/// convert text → binary → text, and the final text must equal the original
/// byte for byte. The directly-emitted binary trace (`--format binary`)
/// must equal the converted one too.
#[test]
fn mlc_convert_round_trips_fig4_byte_identically() {
    let fig4 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig4.mc");
    let dir = std::env::temp_dir().join(format!("autocheck-mlc-convert-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let p = |n: &str| dir.join(n).to_string_lossy().into_owned();
    let mlc = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_mlc"))
            .args(args)
            .output()
            .expect("mlc runs");
        assert!(
            out.status.success(),
            "mlc {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    mlc(&["trace", fig4, "-o", &p("t.txt"), "--format", "text"]);
    mlc(&["trace", fig4, "-o", &p("t.bin"), "--format", "binary"]);
    mlc(&["convert", &p("t.txt"), &p("conv.bin")]);
    mlc(&["convert", &p("conv.bin"), &p("conv.txt")]);
    // Explicit --to overrides the flip-by-default direction.
    mlc(&["convert", &p("t.txt"), &p("same.txt"), "--to", "text"]);

    let orig_text = std::fs::read(p("t.txt")).unwrap();
    let orig_bin = std::fs::read(p("t.bin")).unwrap();
    let conv_bin = std::fs::read(p("conv.bin")).unwrap();
    let conv_text = std::fs::read(p("conv.txt")).unwrap();
    let same_text = std::fs::read(p("same.txt")).unwrap();
    assert!(binary::is_binary(&conv_bin));
    assert_eq!(
        orig_text, conv_text,
        "text -> binary -> text must round-trip byte-identically"
    );
    assert_eq!(
        orig_bin, conv_bin,
        "converted binary must equal the directly-emitted binary trace"
    );
    assert_eq!(orig_text, same_text, "--to text is the identity on text");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version-2 file (iteration-index footer) written by an earlier release
/// still reads: `tests/golden/fig4_v2.bin` decodes to the same records and
/// renders the same report and DOT as the version-1 trace of the same run.
#[test]
fn v2_footer_golden_reads_like_the_v1_trace() {
    let v2 = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/fig4_v2.bin"
    ))
    .expect("tests/golden/fig4_v2.bin exists");
    assert_eq!(u16::from_le_bytes([v2[4], v2[5]]), binary::VERSION_INDEXED);
    let (name, src, region, index) = suite().remove(0);
    assert_eq!(name, "fig4");
    let (_, v1) = traces_of(&src);
    assert_eq!(u16::from_le_bytes([v1[4], v1[5]]), binary::VERSION);
    assert_eq!(
        batch_output(&v2, &region, &index),
        batch_output(&v1, &region, &index),
        "v2 and v1 render differently"
    );
    let ctx = AnalysisCtx::session();
    let records = |bytes: &[u8]| {
        autocheck_trace::TraceSource::from_bytes(bytes)
            .ctx(&ctx)
            .records()
            .expect("decodes")
    };
    assert_eq!(records(&v2), records(&v1));
    let stream = |bytes: &[u8]| {
        let ctx = AnalysisCtx::session();
        let _guard = ctx.enter();
        StreamAnalyzer::new(region.clone())
            .with_index_vars(index.clone())
            .with_ctx(ctx.clone())
            .analyze_read(bytes)
            .expect("streams")
            .to_string()
    };
    assert_eq!(stream(&v2), stream(&v1));
}

/// Run `mlc` with `args`, returning its exit status and stderr.
fn mlc_status(args: &[&str]) -> (std::process::ExitStatus, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mlc"))
        .args(args)
        .output()
        .expect("mlc runs");
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `mlc convert` writes beside its output and renames only on success: a
/// truncated input in either format leaves no output file behind (and no
/// temporary file either).
#[test]
fn mlc_convert_of_a_truncated_input_leaves_no_output() {
    let fig4 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig4.mc");
    let dir = std::env::temp_dir().join(format!("autocheck-mlc-truncated-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let p = |n: &str| dir.join(n).to_string_lossy().into_owned();
    for format in ["text", "binary"] {
        let whole = p(&format!("whole.{format}"));
        let (status, stderr) = mlc_status(&["trace", fig4, "-o", &whole, "--format", format]);
        assert!(status.success(), "{stderr}");
        let bytes = std::fs::read(&whole).unwrap();
        // Cut mid-record, past the binary string table and the first text
        // blocks, so the converter has started writing when it fails.
        let cut = p(&format!("cut.{format}"));
        std::fs::write(&cut, &bytes[..bytes.len() / 2 + 7]).unwrap();
        let out = p(&format!("out.{format}"));
        let (status, stderr) = mlc_status(&["convert", &cut, &out]);
        assert!(!status.success(), "{format}: truncated input converted");
        assert!(stderr.starts_with("error: "), "{format}: {stderr}");
        assert!(!Path::new(&out).exists(), "{format}: output left behind");
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        ["cut.binary", "cut.text", "whole.binary", "whole.text"],
        "no temporary file survives"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mlc trace` writes beside its output and renames only on success too: a
/// program that fails mid-run, or a binary sink that cannot create its
/// spill file, exits 1 and leaves no output file (and no temporary file),
/// and an existing output file keeps its bytes.
#[test]
fn mlc_trace_of_a_failing_run_leaves_no_output() {
    let fig4 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig4.mc");
    let dir = std::env::temp_dir().join(format!("autocheck-mlc-trace-fail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let div = dir.join("div.mc");
    std::fs::write(
        &div,
        "int main() {\n    int a = 1; int b = 0;\n    print(a / b);\n    return 0;\n}\n",
    )
    .unwrap();
    let div = div.to_string_lossy().into_owned();
    let missing_tmp = dir.join("missing");
    // (program, format, TMPDIR, expected stderr)
    let cases = [
        (&div[..], "text", None, "division by zero"),
        (&div[..], "binary", None, "division by zero"),
        (
            fig4,
            "binary",
            Some(&missing_tmp),
            "cannot create a spill file",
        ),
    ];
    for (program, format, tmpdir, why) in cases {
        for existing in [None, Some(&b"an earlier trace"[..])] {
            let out = dir.join(format!("out.{format}"));
            let _ = std::fs::remove_file(&out);
            if let Some(bytes) = existing {
                std::fs::write(&out, bytes).unwrap();
            }
            let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_mlc"));
            cmd.args(["trace", program, "--format", format, "-o"])
                .arg(&out);
            if let Some(tmp) = tmpdir {
                cmd.env("TMPDIR", tmp);
            }
            let run = cmd.output().expect("mlc runs");
            let what = format!("{program} {format} over {existing:?}");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(1), "{what}: {stderr}");
            assert!(stderr.contains(why), "{what}: {stderr}");
            match existing {
                None => assert!(!out.exists(), "{what}: partial output left behind"),
                Some(bytes) => assert_eq!(std::fs::read(&out).unwrap(), bytes, "{what}"),
            }
        }
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        ["div.mc", "out.binary", "out.text"],
        "no temporary file survives"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Converting a file onto itself works: text -> binary -> text in place
/// reproduces the original bytes.
#[test]
fn mlc_convert_in_place_round_trips() {
    let fig4 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fig4.mc");
    let dir = std::env::temp_dir().join(format!("autocheck-mlc-in-place-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace = dir.join("t.trace").to_string_lossy().into_owned();
    let (status, stderr) = mlc_status(&["trace", fig4, "-o", &trace]);
    assert!(status.success(), "{stderr}");
    let original = std::fs::read(&trace).unwrap();
    let (status, stderr) = mlc_status(&["convert", &trace, &trace]);
    assert!(status.success(), "{stderr}");
    assert!(binary::is_binary(&std::fs::read(&trace).unwrap()));
    let (status, stderr) = mlc_status(&["convert", &trace, &trace]);
    assert!(status.success(), "{stderr}");
    assert_eq!(std::fs::read(&trace).unwrap(), original);
    let _ = std::fs::remove_dir_all(&dir);
}
