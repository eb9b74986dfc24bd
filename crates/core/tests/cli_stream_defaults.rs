//! `autocheck --stream` stays serial unless asked otherwise. With
//! `--shards` and `--overlap` unset, a streaming run, alone or from a
//! `--batch` manifest, books no sharded fold and no decode-ahead queue in
//! its run ledger, and its live window peaks where an explicit
//! `--shards 1 --overlap 1` run's does. Explicit values still engage both.

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

/// Run `autocheck` with `args` plus `--metrics`, returning the ledger text.
fn run(dir: &Path, args: &[&str]) -> String {
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
    std::fs::read_to_string(&metrics).expect("ledger written")
}

fn stream_ledger(dir: &Path, trace: &Path, extra: &[&str]) -> Ledger {
    let trace = trace.to_str().expect("utf-8 path");
    let mut args = vec![trace, "--stream"];
    args.extend(REGION);
    args.extend(extra);
    Ledger::from_json(&run(dir, &args)).expect("session ledger")
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
    let batch = BatchLedger::from_json(&run(&dir, &["--batch", manifest, "--stream"]))
        .expect("batch ledger");
    assert_eq!(batch.sessions.len(), 2);
    for (i, session) in batch.sessions.iter().enumerate() {
        assert_serial(session, &format!("--batch --stream session {i}"));
        assert_eq!(live_peak(session), live_peak(&serial));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
