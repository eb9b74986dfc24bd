//! `autocheck --dot` renders the contracted DDG from the engine's own graph
//! in the same pass as the report, in the default mode and under
//! `--stream` alike: on the Fig. 4 trace, in text and in binary, both
//! modes write exactly the pinned `tests/golden/fig4_contracted.dot`.

use autocheck_interp::{BinarySink, ExecOptions, Machine, NoHook, TraceSink, WriterSink};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Run Fig. 4 with `sink` as its tracer.
fn trace(sink: &mut dyn TraceSink) {
    let src = std::fs::read_to_string(repo_file("examples/fig4.mc")).expect("fig4.mc");
    let module = autocheck_minilang::compile(&src).expect("fig4 compiles");
    Machine::new(&module, ExecOptions::default())
        .run(sink, &mut NoHook)
        .expect("fig4 runs");
}

#[test]
fn dot_in_every_mode_and_format_writes_the_golden_bytes() {
    let dir = std::env::temp_dir().join(format!("autocheck-cli-dot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut text = WriterSink::new(Vec::new());
    trace(&mut text);
    let mut binary = BinarySink::new(Vec::new());
    trace(&mut binary);
    let traces = [
        ("text", text.finish().expect("text trace")),
        ("binary", binary.finish().expect("binary trace")),
    ];
    let golden = std::fs::read(repo_file("tests/golden/fig4_contracted.dot")).expect("golden");
    for (format, bytes) in &traces {
        let trace = dir.join(format!("fig4.{format}"));
        std::fs::write(&trace, bytes).expect("write trace");
        for mode in [&[][..], &["--stream"][..]] {
            let what = format!("{format} {mode:?}");
            let dot = dir.join("out.dot");
            let _ = std::fs::remove_file(&dot);
            let out = Command::new(env!("CARGO_BIN_EXE_autocheck"))
                .arg(&trace)
                .args(["--function", "main", "--start", "16", "--end", "24"])
                .args(["--index", "it", "--dot"])
                .arg(&dot)
                .args(mode)
                .output()
                .expect("autocheck runs");
            assert!(
                out.status.success(),
                "{what}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let written = format!("contracted DDG written to {}", dot.display());
            assert_eq!(
                stdout.lines().filter(|l| *l == written).count(),
                1,
                "{what}: {stdout}"
            );
            assert!(
                std::fs::read(&dot).expect("DOT written") == golden,
                "{what}: DOT differs from tests/golden/fig4_contracted.dot"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
