//! `autocheck` stays serial unless asked otherwise, in every mode. With
//! `--shards` and `--overlap` unset, a run — default or `--stream`, alone
//! or from a `--batch` manifest — books no sharded fold and no
//! decode-ahead queue in its run ledger, and its live window peaks where
//! an explicit `--stream --shards 1 --overlap 1` run's does. A default run
//! is that same engine run: its report body equals the `--stream` one.
//! Explicit values still engage both.

use autocheck_obs::ledger::{BatchLedger, Ledger};
use autocheck_obs::{CounterId, GaugeId, TimerId};
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

/// No sharded fold, no decode-ahead queue.
fn assert_serial(l: &Ledger, what: &str) {
    assert!(l.counter(CounterId::EngineRecords) > 0, "{what}: ran");
    assert_eq!(
        l.counter(CounterId::ShardRecords),
        0,
        "{what}: shard.records"
    );
    assert_eq!(l.timer(TimerId::ShardWall), (0, 0), "{what}: shard.wall");
    assert_eq!(
        l.gauge(GaugeId::IngestDepth).1,
        0,
        "{what}: ingest.depth peak"
    );
}

#[test]
fn default_stream_is_serial() {
    let (dir, trace) = setup("single");
    let default = stream_ledger(&dir, &trace, &[]);
    let serial = stream_ledger(&dir, &trace, &["--shards", "1", "--overlap", "1"]);
    assert_serial(&default, "default --stream");
    assert_serial(&serial, "--shards 1 --overlap 1");
    assert_eq!(live_peak(&default), live_peak(&serial));
    assert_eq!(
        default.counter(CounterId::EngineRecords),
        serial.counter(CounterId::EngineRecords)
    );

    // Explicit values behave as before, so the checks above can fail.
    let sharded = stream_ledger(&dir, &trace, &["--shards", "2"]);
    assert!(sharded.counter(CounterId::ShardRecords) > 0);
    assert!(sharded.timer(TimerId::ShardWall).1 > 0);
    let overlapped = stream_ledger(&dir, &trace, &["--overlap", "2"]);
    assert!(overlapped.gauge(GaugeId::IngestDepth).1 > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_batch_stream_manifest_is_serial() {
    let (dir, trace) = setup("batch");
    let manifest = dir.join("manifest.txt");
    let line = format!("{} main 16 24 it\n", trace.display());
    std::fs::write(&manifest, line.repeat(2)).expect("write manifest");
    let manifest = manifest.to_str().expect("utf-8 path");
    let serial = stream_ledger(&dir, &trace, &["--shards", "1", "--overlap", "1"]);
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
    let (stream_out, stream) = single(
        &dir,
        &trace,
        &["--stream"],
        &["--shards", "1", "--overlap", "1"],
    );
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
    let (stream_out, stream) = single(
        &dir,
        &trace,
        &["--stream"],
        &["--shards", "1", "--overlap", "1"],
    );
    let (stdout, ledger) = run(&dir, &["--batch", manifest]);
    let batch = BatchLedger::from_json(&ledger).expect("batch ledger");
    assert_eq!(batch.sessions.len(), 2);
    for (i, session) in batch.sessions.iter().enumerate() {
        assert_serial(session, &format!("--batch session {i}"));
        assert_eq!(live_peak(session), live_peak(&stream));
    }
    let sections = batch_sections(&stdout);
    assert_eq!(sections.len(), 2);
    for section in &sections {
        assert_eq!(body(section), body(&stream_out));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
