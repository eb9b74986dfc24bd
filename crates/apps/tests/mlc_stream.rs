//! `mlc trace <file.mc>... --stream` runs every input file as a streaming
//! `MultiAnalyzer` job: the `streaming:` footer names the live-record bound
//! the engine enforced, usage errors exit 2 before any file runs, a job
//! that fails is reported on stderr while the others still print, and
//! `--metrics` writes the session ledger for one file and the batch ledger
//! for several.

use autocheck_obs::ledger::{BatchLedger, Ledger};
use autocheck_obs::CounterId;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh per-test scratch directory holding `cg.mc`.
fn setup(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "autocheck-mlc-stream-{test}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cg = autocheck_apps::app_by_name("cg").expect("cg exists");
    std::fs::write(dir.join("cg.mc"), &cg.source).expect("write cg.mc");
    dir
}

fn mlc(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mlc"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("mlc runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn the_streaming_footer_names_the_enforced_bound() {
    let dir = setup("footer");
    for (extra, bound) in [
        (&["--limit", "live-records=100000"][..], "100000"),
        (
            &[
                "--max-live-records",
                "5000",
                "--limit",
                "live-records=100000",
            ][..],
            "5000",
        ),
        (
            &["--limit", "live-records=1", "--max-live-records", "5000"][..],
            "5000",
        ),
    ] {
        let mut args = vec!["trace", "cg.mc", "--stream"];
        args.extend(extra);
        let out = mlc(&dir, &args);
        assert!(out.status.success(), "{extra:?}: {}", stderr(&out));
        let text = stdout(&out);
        let footer = text
            .lines()
            .find(|l| l.starts_with("streaming:"))
            .expect("streaming footer");
        assert!(
            footer.contains(&format!("(bound: {bound})")),
            "{extra:?}: {footer}"
        );
    }
    // The bound that wins is the one enforced.
    let out = mlc(
        &dir,
        &[
            "trace",
            "cg.mc",
            "--stream",
            "--max-live-records",
            "1",
            "--limit",
            "live-records=100000",
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "{}", stdout(&out));
    assert!(
        stderr(&out).starts_with("error: cg.mc: streaming live-record bound exceeded:")
            && stderr(&out).contains("> bound 1"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2_before_any_file_runs() {
    let dir = setup("usage");
    for flags in [
        &["--limit", "bogus=1"][..],
        &["--start", "3"],
        &["--end", "3"],
        &["--start", "0", "--end", "5"],
        &["--start", "5", "--end", "3"],
        &["--max-live-records", "many"],
    ] {
        // `cg.mc` would run and `missing.mc` would fail to read: neither
        // may happen before the usage error.
        let mut args = vec!["trace", "cg.mc", "missing.mc", "--stream"];
        args.extend(flags);
        let out = mlc(&dir, &args);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{flags:?}: {}", stdout(&out));
        assert!(
            !stderr(&out).contains("missing.mc"),
            "{flags:?}: {}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_file_that_fails_to_compile_leaves_the_other_report() {
    let dir = setup("compile-error");
    std::fs::write(
        dir.join("bad.mc"),
        "int main() { // @loop-start\n    int x = ;\n} // @loop-end\n",
    )
    .expect("write bad.mc");
    let out = mlc(&dir, &["trace", "cg.mc", "bad.mc", "--stream"]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(
        text.starts_with("=== cg.mc ===\nAutoCheck report:"),
        "{text}"
    );
    assert!(text.contains("checkpoint"), "{text}");
    assert!(!text.contains("bad.mc"), "{text}");
    let err = stderr(&out);
    assert!(
        err.lines()
            .any(|l| l.starts_with("error: bad.mc: compile error: error at line 2:")),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_write_the_session_ledger_for_one_file_and_the_batch_ledger_for_several() {
    let dir = setup("metrics");
    std::fs::copy(dir.join("cg.mc"), dir.join("cg2.mc")).expect("copy cg.mc");

    // One file: its session ledger, also when the job fails.
    let out = mlc(
        &dir,
        &[
            "trace",
            "cg.mc",
            "--stream",
            "--max-live-records",
            "1",
            "--metrics",
            "one.json",
        ],
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let one = Ledger::from_json(&std::fs::read_to_string(dir.join("one.json")).expect("written"))
        .expect("session ledger");
    assert_eq!(one.name, "cg.mc");
    assert_eq!(one.counter(CounterId::LimitExceeded), 1);

    // Several files: the batch ledger, one session per file, named by path.
    let out = mlc(
        &dir,
        &[
            "trace",
            "cg.mc",
            "cg2.mc",
            "--stream",
            "--metrics",
            "all.json",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let all =
        BatchLedger::from_json(&std::fs::read_to_string(dir.join("all.json")).expect("written"))
            .expect("batch ledger");
    assert_eq!(all.jobs, 2);
    assert_eq!(all.batch.name, "batch");
    assert_eq!(all.batch.counter(CounterId::SessionsOk), 2);
    let names: Vec<&str> = all.sessions.iter().map(|l| l.name.as_str()).collect();
    assert_eq!(names, ["cg.mc", "cg2.mc"]);
    let _ = std::fs::remove_dir_all(&dir);
}
