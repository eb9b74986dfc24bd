//! `mlc` whose standard output has no reader any more
//! (`mlc trace fig4.mc --stream | head -1`) stops quietly with exit status
//! 141 in every subcommand that prints: no panic, no backtrace. Any other
//! failed write is one `error:` line and status 1.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The Fig. 4 example.
fn fig4() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/fig4.mc")
}

/// Run `mlc` with `args` and `stdout` as its standard output; returns the
/// exit status and standard error.
fn run_into(args: &[&str], stdout: impl Into<Stdio>) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mlc"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("mlc runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The note `mlc` writes before it runs several files under one region.
const SAME_REGION: &str = "note: --start/--end apply the same region to every input file; \
                           omit them to use each file's @loop-start/@loop-end markers\n";

/// Every subcommand that prints, on fig4, with the standard error it
/// writes before its first line of output.
fn printing_runs(fig4: &str) -> [(Vec<&str>, &'static str); 6] {
    [
        (
            vec!["trace", fig4, "--stream", "--start", "16", "--end", "24"],
            "",
        ),
        (
            vec![
                "trace",
                fig4,
                fig4,
                "--stream",
                "--start",
                "16",
                "--end",
                "24",
                "--metrics",
                "-",
            ],
            SAME_REGION,
        ),
        (vec!["run", fig4], ""),
        (vec!["ir", fig4], ""),
        (vec!["loops", fig4], ""),
        (vec!["app", "cg"], ""),
    ]
}

#[test]
fn a_closed_stdout_ends_every_printing_subcommand_quietly() {
    let fig4 = fig4();
    let fig4 = fig4.to_str().expect("utf-8 path");
    for (args, before) in printing_runs(fig4) {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let (status, stderr) = run_into(&args, writer);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!((status, stderr.as_str()), (Some(141), before), "{args:?}");
    }
}

#[test]
fn any_other_failed_write_is_one_error_line() {
    // A full device: every write fails with `ENOSPC`.
    let Ok(full) = std::fs::File::create("/dev/full") else {
        return;
    };
    let fig4 = fig4();
    let fig4 = fig4.to_str().expect("utf-8 path");
    let args = ["trace", fig4, "--stream", "--start", "16", "--end", "24"];
    let (status, stderr) = run_into(&args, full);
    assert_eq!(status, Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: cannot write to standard output: ")
            && stderr.lines().count() == 1,
        "{stderr}"
    );
}
