//! A session resolves its symbols through its own space, whatever space the
//! calling thread has entered. Every entry point below runs on the Fig. 4
//! trace, text and binary, with no guard held, and must report exactly what
//! the same call reports under the session's guard.

use autocheck_core::{index_variables_of, Analyzer, Region, Report, StreamAnalyzer};
use autocheck_interp::{ExecOptions, Machine, NoHook, VecSink};
use autocheck_trace::{binary, writer, AnalysisCtx, TraceSource};
use std::path::PathBuf;

const FIG4: &str = include_str!("../../../examples/fig4.mc");

struct Fig4 {
    region: Region,
    index: Vec<String>,
    /// `(format, trace bytes, the same bytes on disk)`.
    traces: Vec<(&'static str, Vec<u8>, PathBuf)>,
}

fn fig4() -> Fig4 {
    let module = autocheck_minilang::compile(FIG4).expect("fig4 compiles");
    let region = Region::new("main", 16, 24);
    let index = index_variables_of(&module, &region);
    let ctx = AnalysisCtx::session();
    let (text, bin) = {
        let _g = ctx.enter();
        let mut sink = VecSink::default();
        Machine::new(&module, ExecOptions::default())
            .run(&mut sink, &mut NoHook)
            .expect("fig4 runs");
        (
            writer::to_string(&sink.records).into_bytes(),
            binary::to_bytes(&sink.records, &ctx),
        )
    };
    let dir = std::env::temp_dir().join(format!("autocheck-session-space-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let traces = [("text", text), ("binary", bin)]
        .into_iter()
        .map(|(format, bytes)| {
            let path = dir.join(format!("fig4.{format}"));
            std::fs::write(&path, &bytes).unwrap();
            (format, bytes, path)
        })
        .collect();
    Fig4 {
        region,
        index,
        traces,
    }
}

/// The report as printed, its MLI names resolved through the session, and
/// the DDG sizes — everything but the wall-clock timings.
fn render(report: &Report, ctx: &AnalysisCtx) -> String {
    let mli: Vec<String> = report
        .mli
        .iter()
        .map(|m| format!("{}@{:#x}+{}", ctx.resolve(m.name), m.base_addr, m.size))
        .collect();
    format!(
        "{report}mli {mli:?}\nddg {} nodes, {} edges, {} contracted\n",
        report.ddg.nodes, report.ddg.edges, report.ddg.contracted_nodes
    )
}

/// One entry point under test: a fresh session in, the report out.
type Call<'a> = Box<dyn Fn(&AnalysisCtx) -> Report + 'a>;

/// Run `call` in a fresh session twice — without a guard, then under the
/// session's guard — and return both renderings.
fn unguarded_and_guarded(call: Call) -> (String, String) {
    let ctx = AnalysisCtx::session();
    let unguarded = render(&call(&ctx), &ctx);
    let ctx = AnalysisCtx::session();
    let guarded = {
        let _g = ctx.enter();
        render(&call(&ctx), &ctx)
    };
    (unguarded, guarded)
}

#[test]
fn entry_points_resolve_in_the_session_space_without_a_guard() {
    let fig4 = fig4();
    let analyzer = |ctx: &AnalysisCtx| {
        Analyzer::new(fig4.region.clone())
            .with_index_vars(fig4.index.clone())
            .with_ctx(ctx.clone())
    };
    let stream = |ctx: &AnalysisCtx| {
        StreamAnalyzer::new(fig4.region.clone())
            .with_index_vars(fig4.index.clone())
            .with_ctx(ctx.clone())
    };
    for (format, bytes, path) in &fig4.traces {
        let calls: [(&str, Call); 6] = [
            (
                "Analyzer::analyze_path",
                Box::new(|ctx| analyzer(ctx).analyze_path(path).unwrap()),
            ),
            (
                "StreamAnalyzer::run_bytes",
                Box::new(|ctx| stream(ctx).run_bytes(bytes).unwrap().report),
            ),
            (
                "StreamAnalyzer::run_path",
                Box::new(|ctx| stream(ctx).run_path(path).unwrap().report),
            ),
            (
                "StreamAnalyzer::run_read",
                Box::new(|ctx| stream(ctx).run_read(&bytes[..]).unwrap().report),
            ),
            (
                "StreamAnalyzer::analyze",
                Box::new(|ctx| {
                    let records = TraceSource::from_bytes(bytes).ctx(ctx).records().unwrap();
                    stream(ctx).analyze(&records).unwrap()
                }),
            ),
            (
                "StreamAnalyzer::session + finish",
                Box::new(|ctx| {
                    let records = TraceSource::from_bytes(bytes).ctx(ctx).records().unwrap();
                    let mut session = stream(ctx).session();
                    for r in &records {
                        session.push(r).unwrap();
                    }
                    session.finish().report
                }),
            ),
        ];
        for (name, call) in calls {
            let (unguarded, guarded) = unguarded_and_guarded(call);
            assert_eq!(unguarded, guarded, "{name} on the {format} trace");
            assert!(
                guarded.contains("4 critical, 10 iteration(s), 1944 record(s)"),
                "{name} on the {format} trace: {guarded}"
            );
        }
    }
    if let Some((_, _, path)) = fig4.traces.first() {
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
