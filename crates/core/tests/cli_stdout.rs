//! `autocheck` whose standard output has no reader any more
//! (`autocheck --batch m.txt | head -1`) stops quietly with exit status
//! 141, in `--batch` and single-trace mode alike: no panic, no backtrace.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A scratch directory holding the Fig. 4 trace and a manifest naming it
/// three times.
fn setup() -> (PathBuf, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("autocheck-cli-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let src = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/fig4.mc"),
    )
    .expect("fig4.mc");
    let module = autocheck_minilang::compile(&src).expect("fig4 compiles");
    let mut sink = autocheck_interp::WriterSink::new(Vec::new());
    autocheck_interp::Machine::new(&module, autocheck_interp::ExecOptions::default())
        .run(&mut sink, &mut autocheck_interp::NoHook)
        .expect("fig4 runs");
    let trace = dir.join("fig4.trace");
    std::fs::write(&trace, sink.finish().expect("text trace")).expect("write trace");
    let manifest = dir.join("manifest.txt");
    let line = format!("{} main 16 24 it\n", trace.display());
    std::fs::write(&manifest, line.repeat(3)).expect("write manifest");
    (dir, trace, manifest)
}

/// Run `autocheck` with `args`, its standard output a pipe whose read end
/// is already closed; returns the exit status and standard error.
fn with_closed_stdout(args: &[&str]) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_autocheck"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("autocheck runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let (dir, trace, manifest) = setup();
    let trace = trace.to_str().expect("utf-8 path");
    let runs: [Vec<&str>; 3] = [
        vec!["--batch", manifest.to_str().expect("utf-8 path")],
        vec![trace, "--function", "main", "--start", "16", "--end", "24"],
        vec![
            trace,
            "--start",
            "16",
            "--end",
            "24",
            "--stream",
            "--metrics",
            "-",
        ],
    ];
    for args in runs {
        let (status, stderr) = with_closed_stdout(&args);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!((status, stderr.as_str()), (Some(141), ""), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
