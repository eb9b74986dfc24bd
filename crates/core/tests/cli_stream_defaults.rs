//! One trace is always analyzed by one serial engine pass, in every mode.
//! A default run and a `--stream` run, alone or from a `--batch` manifest,
//! fold the same records and peak at the same live window, and a default
//! run's report body equals the `--stream` one. The removed single-trace
//! concurrency flags (`--threads`, `--shards`, `--overlap`) are usage
//! errors that point at `--jobs`, and `--max-live-records` without
//! `--stream` is a usage error in single-trace and `--batch` mode alike.
//! The `streaming:` footer names the live-record bound the engine
//! enforced, whichever flag set it, and a breach is booked in the ledger.

use autocheck_obs::ledger::{BatchLedger, Ledger};
use autocheck_obs::{CounterId, GaugeId};
use std::path::{Path, PathBuf};
use std::process::Command;

const REGION: [&str; 8] = [
    "--function",
    "main",
    "--start",
    "16",
    "--end",
    "24",
    "--index",
    "it",
];

/// A fresh per-test scratch directory holding the Fig. 4 trace.
fn setup(test: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "autocheck-stream-defaults-{test}-{}",
        std::process::id()
    ));
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
    (dir, trace)
}

/// Run `autocheck` with `args` plus `--metrics`, returning its standard
/// output and the ledger text.
fn run(dir: &Path, args: &[&str]) -> (String, String) {
    let metrics = dir.join("ledger.json");
    let out = Command::new(env!("CARGO_BIN_EXE_autocheck"))
        .args(args)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("autocheck runs");
    assert!(
        out.status.success(),
        "autocheck {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (
        stdout,
        std::fs::read_to_string(&metrics).expect("ledger written"),
    )
}

/// One single-trace run: `mode` flags, then the region, then `extra`.
fn single(dir: &Path, trace: &Path, mode: &[&str], extra: &[&str]) -> (String, Ledger) {
    let mut args = vec![trace.to_str().expect("utf-8 path")];
    args.extend(mode);
    args.extend(REGION);
    args.extend(extra);
    let (stdout, ledger) = run(dir, &args);
    (stdout, Ledger::from_json(&ledger).expect("session ledger"))
}

fn stream_ledger(dir: &Path, trace: &Path, extra: &[&str]) -> Ledger {
    single(dir, trace, &["--stream"], extra).1
}

/// A report without its timing and session footers.
fn body(report: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = report
        .lines()
        .filter(|l| {
            !["timings:", "streaming:", "session:", "run ledger written"]
                .iter()
                .any(|p| l.starts_with(p))
        })
        .collect();
    while lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    lines
}

/// The per-session report sections of a `--batch` run's output.
fn batch_sections(stdout: &str) -> Vec<String> {
    let mut sections: Vec<String> = Vec::new();
    for line in stdout.lines() {
        if line.starts_with("=== aggregate") {
            break;
        }
        if line.starts_with("=== ") {
            sections.push(String::new());
        } else if let Some(section) = sections.last_mut() {
            section.push_str(line);
            section.push('\n');
        }
    }
    sections
}

fn live_peak(l: &Ledger) -> u64 {
    l.gauge(GaugeId::LiveRecords).1
}

/// The engine folded the trace. (Parsing the ledger already checked its
/// schema version.)
fn assert_serial(l: &Ledger, what: &str) {
    assert!(l.counter(CounterId::EngineRecords) > 0, "{what}: ran");
}

#[test]
fn default_stream_is_serial() {
    let (dir, trace) = setup("single");
    let stream = stream_ledger(&dir, &trace, &[]);
    let (_, default) = single(&dir, &trace, &[], &[]);
    assert_serial(&stream, "--stream");
    assert_serial(&default, "default run");
    assert_eq!(live_peak(&stream), live_peak(&default));
    assert_eq!(
        stream.counter(CounterId::EngineRecords),
        default.counter(CounterId::EngineRecords)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_batch_stream_manifest_is_serial() {
    let (dir, trace) = setup("batch");
    let manifest = dir.join("manifest.txt");
    let line = format!("{} main 16 24 it\n", trace.display());
    std::fs::write(&manifest, line.repeat(2)).expect("write manifest");
    let manifest = manifest.to_str().expect("utf-8 path");
    let serial = stream_ledger(&dir, &trace, &[]);
    let batch = BatchLedger::from_json(&run(&dir, &["--batch", manifest, "--stream"]).1)
        .expect("batch ledger");
    assert_eq!(batch.sessions.len(), 2);
    for (i, session) in batch.sessions.iter().enumerate() {
        assert_serial(session, &format!("--batch --stream session {i}"));
        assert_eq!(live_peak(session), live_peak(&serial));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_run_is_the_serial_engine() {
    let (dir, trace) = setup("default");
    let (default_out, default) = single(&dir, &trace, &[], &[]);
    let (stream_out, stream) = single(&dir, &trace, &["--stream"], &[]);
    assert_serial(&default, "default run");
    assert_eq!(live_peak(&default), live_peak(&stream));
    assert_eq!(
        default.counter(CounterId::EngineRecords),
        stream.counter(CounterId::EngineRecords)
    );
    assert!(body(&stream_out)[0].starts_with("AutoCheck report:"));
    assert_eq!(body(&default_out), body(&stream_out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_batch_manifest_is_the_serial_engine() {
    let (dir, trace) = setup("batch-default");
    let manifest = dir.join("manifest.txt");
    let line = format!("{} main 16 24 it\n", trace.display());
    std::fs::write(&manifest, line.repeat(2)).expect("write manifest");
    let manifest = manifest.to_str().expect("utf-8 path");
    let (default_out, default) = single(&dir, &trace, &[], &[]);
    let (stdout, ledger) = run(&dir, &["--batch", manifest]);
    let batch = BatchLedger::from_json(&ledger).expect("batch ledger");
    assert_eq!(batch.sessions.len(), 2);
    for (i, session) in batch.sessions.iter().enumerate() {
        assert_serial(session, &format!("--batch session {i}"));
        assert_eq!(live_peak(session), live_peak(&default));
    }
    let sections = batch_sections(&stdout);
    assert_eq!(sections.len(), 2);
    for section in &sections {
        assert_eq!(body(section), body(&default_out));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_concurrency_flags_are_usage_errors() {
    let (dir, trace) = setup("removed-flags");
    let manifest = dir.join("manifest.txt");
    std::fs::write(&manifest, format!("{} main 16 24 it\n", trace.display()))
        .expect("write manifest");
    let trace = trace.to_str().expect("utf-8 path");
    let manifest = manifest.to_str().expect("utf-8 path");
    let mut single: Vec<&str> = vec![trace];
    single.extend(REGION);
    let batch = ["--batch", manifest];
    for flag in [
        ["--threads", "2"],
        ["-t", "2"],
        ["--shards", "2"],
        ["--overlap", "2"],
    ] {
        for base in [&single[..], &batch[..]] {
            let out = Command::new(env!("CARGO_BIN_EXE_autocheck"))
                .args(base)
                .args(flag)
                .output()
                .expect("autocheck runs");
            let what = format!("{base:?} {flag:?}");
            assert_eq!(out.status.code(), Some(2), "{what}: exit status");
            assert!(out.stdout.is_empty(), "{what}: wrote to stdout");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("--jobs"), "{what}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_live_record_bound_without_stream_is_a_usage_error_in_every_mode() {
    let (dir, trace) = setup("live-bound");
    let manifest = dir.join("manifest.txt");
    std::fs::write(&manifest, format!("{} main 16 24 it\n", trace.display()))
        .expect("write manifest");
    let trace = trace.to_str().expect("utf-8 path");
    let manifest = manifest.to_str().expect("utf-8 path");
    let mut single: Vec<&str> = vec![trace];
    single.extend(REGION);
    let batch = ["--batch", manifest];
    for base in [&single[..], &batch[..]] {
        let autocheck = |extra: &[&str]| {
            Command::new(env!("CARGO_BIN_EXE_autocheck"))
                .args(base)
                .args(["--max-live-records", "1"])
                .args(extra)
                .output()
                .expect("autocheck runs")
        };
        let out = autocheck(&[]);
        assert_eq!(out.status.code(), Some(2), "{base:?}: exit status");
        assert!(out.stdout.is_empty(), "{base:?}: wrote to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--max-live-records only applies to --stream mode"),
            "{base:?}: {stderr}"
        );
        // With --stream the bound applies, and fig4 crosses it.
        let out = autocheck(&["--stream"]);
        assert_eq!(out.status.code(), Some(1), "{base:?} --stream: exit status");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("live-record bound"), "{base:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--stream` run's `streaming:` footer line.
fn streaming_footer(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("streaming:"))
        .expect("a --stream run prints the streaming footer")
}

#[test]
fn the_streaming_footer_names_the_enforced_bound() {
    let (dir, trace) = setup("footer-bound");
    let (out, _) = single(
        &dir,
        &trace,
        &["--stream"],
        &["--limit", "live-records=100000"],
    );
    assert!(streaming_footer(&out).contains("(bound: 100000)"), "{out}");
    // `--max-live-records` wins over `--limit live-records`, before or
    // after it on the command line.
    for extra in [
        [
            "--max-live-records",
            "5000",
            "--limit",
            "live-records=100000",
        ],
        ["--limit", "live-records=1", "--max-live-records", "5000"],
    ] {
        let (out, _) = single(&dir, &trace, &["--stream"], &extra);
        assert!(
            streaming_footer(&out).contains("(bound: 5000)"),
            "{extra:?}: {out}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_max_live_records_breach_is_enforced_and_booked_once() {
    let (dir, trace) = setup("breach");
    let metrics = dir.join("ledger.json");
    let out = Command::new(env!("CARGO_BIN_EXE_autocheck"))
        .arg(&trace)
        .args(REGION)
        .args(["--stream", "--max-live-records", "1"])
        .args(["--limit", "live-records=100000", "--metrics"])
        .arg(&metrics)
        .output()
        .expect("autocheck runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("> bound 1"), "{stderr}");
    let ledger = Ledger::from_json(&std::fs::read_to_string(&metrics).expect("ledger written"))
        .expect("session ledger");
    assert_eq!(ledger.counter(CounterId::LimitExceeded), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
