//! `clibench`: the end-to-end and per-layer benchmark of the `autocheck`
//! CLI. Normally started through `run.py`, which builds both binaries:
//!
//! ```text
//! clibench --autocheck <bin> --work <dir> --workload <cg-text|cg-binary|suite-small>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every run first sets the workload up [`SETUP_REPS`] times from the seed
//! (compile, trace, write traces and manifest) and checks that each set-up
//! wrote the same bytes. Then, for `--seconds`:
//!
//! * `--trace 0` runs the release `autocheck` in a closed loop, one
//!   process at a time, alternating the default invocation and the same
//!   one with `--stream`, and checks every report;
//! * `--trace 1` runs the default invocation a few times for the untraced
//!   end-to-end time, then calls each layer's public entry point in
//!   process under spans (see `layers`).
//!
//! The last line of standard output is the JSON result.

mod alloc;
mod check;
mod digest;
mod host;
mod json;
mod layers;
mod proc;
mod spans;
mod stats;
mod workload;

use json::Obj;
use spans::Spans;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Kind, Prepared, SetupTimes};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of a traced run spent on untraced end-to-end invocations.
const TRACED_E2E_SHARE: f64 = 0.25;

/// The metrics of an end-to-end run, in output order (as `BENCHMARK.json`
/// lists them under `end_to_end`).
const END_TO_END: [&str; 5] = [
    "batch_s",
    "stream_s",
    "batch_peak_rss_mb",
    "stream_peak_rss_mb",
    "setup_s",
];

/// The metrics of a traced run, in output order (as `BENCHMARK.json`
/// lists them under `per_layer`).
const PER_LAYER: [&str; 32] = [
    "trace.read_s",
    "trace.decode_s",
    "trace.ingest_s",
    "trace.stream_s",
    "trace.drop_s",
    "core.region_s",
    "core.mli_s",
    "core.ddg_s",
    "core.contract_s",
    "core.classify_s",
    "core.render_s",
    "core.analyze_path_s",
    "stream.push_s",
    "stream.finish_s",
    "stream.run_read_s",
    "service.run_s",
    "trace.allocs_per_record",
    "trace.alloc_bytes_per_record",
    "stream.live_records_peak",
    "service.session_wall_p50_s",
    "service.session_wall_max_s",
    "minilang.compile_s",
    "interp.trace_s",
    "contract.worklist_steps",
    "ddg.contracted_nodes",
    "ddg.edges",
    "ddg.nodes",
    "engine.access_events",
    "ingest.records",
    "intern.symbols",
    "host.calib_s",
    "unattributed_s",
];

struct Args {
    autocheck: PathBuf,
    work: PathBuf,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut autocheck, mut work, mut kind) = (None, None, None);
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--autocheck" => autocheck = Some(PathBuf::from(&value)),
            "--work" => work = Some(PathBuf::from(&value)),
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        autocheck: autocheck.ok_or("--autocheck is required")?,
        work: work.ok_or("--work is required")?,
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clibench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("clibench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Failures of one run, each naming its check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
}

/// Failure messages printed per run; the results file keeps them all.
const PRINTED_FAILURES: usize = 20;

impl Tally {
    fn fail(&mut self, msg: String) {
        if self.failures.len() < PRINTED_FAILURES {
            println!("FAIL {msg}");
        }
        self.failures.push(msg);
    }
}

fn run(args: &Args) -> Result<Obj, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = root.join(&args.work);
    let dir = work.join(args.kind.name());
    let host = host::fingerprint(&root);
    println!("host {}", host.render());

    let mut tally = Tally::default();
    let (prep, setups) = set_up(args, &dir, &mut tally)?;
    let digest = host::source_digest(&root);
    let memo = work.join("memo").join(format!(
        "{}-seed{}-{digest:016x}.txt",
        args.kind.name(),
        args.seed
    ));
    let mut memo_entries: Vec<(String, String)> = prep
        .analyses
        .iter()
        .map(|a| (format!("trace {}", a.name), format!("{:016x}", a.digest)))
        .collect();
    let inputs: Vec<String> = prep
        .analyses
        .iter()
        .map(|a| {
            println!(
                "input {}: {} records, {} bytes, digest {:016x}, index [{}]",
                a.trace.display(),
                a.records,
                a.bytes,
                a.digest,
                a.index.join(",")
            );
            Obj::new()
                .str("name", &a.name)
                .num("records", a.records as f64)
                .num("bytes", a.bytes as f64)
                .str("digest", &format!("{:016x}", a.digest))
                .render()
        })
        .collect();

    let (metrics, detail) = if args.trace {
        traced(args, &prep, &setups, &work, &mut tally, &mut memo_entries)?
    } else {
        end_to_end(args, &prep, &setups, &dir, &mut tally)
    };
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(metrics.keys(), names, "metrics in BENCHMARK.json order");
    for m in memo_check(&memo, &memo_entries)? {
        tally.fail(format!(
            "{m} differs from an earlier run with the same seed"
        ));
    }

    let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{:<30} {:<14} ({} of {} analyses failed)",
        "fail_frac", fail_frac, tally.failed, tally.attempted
    );
    let correct = tally.failures.is_empty();
    let results = Obj::new()
        .str("workload", args.kind.name())
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .obj("host", host)
        .arr("inputs", inputs)
        .bool("correct", correct)
        .num("attempted", tally.attempted as f64)
        .num("failed", tally.failed as f64)
        .num("fail_frac", fail_frac)
        .arr("failures", tally.failures.iter().map(|f| json::string(f)))
        .obj("metrics", metrics.clone())
        .obj("detail", detail);
    let out = work.join("results").join(format!(
        "{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    write(&out, &results.render())?;
    println!("results written to {}", out.display());
    Ok(Obj::new()
        .bool("correct", correct)
        .num("attempted", tally.attempted.max(1) as f64)
        .num("failed", tally.failed as f64)
        .obj("metrics", metrics))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(p) = path.parent() {
        std::fs::create_dir_all(p).map_err(|e| format!("cannot create {}: {e}", p.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Set the workload up [`SETUP_REPS`] times; every repetition must write
/// the same trace bytes. The traces are then synced to disk so write-back
/// does not run during the measurement; they stay in the page cache.
fn set_up(
    args: &Args,
    dir: &Path,
    tally: &mut Tally,
) -> Result<(Prepared, Vec<SetupTimes>), String> {
    let mut times = Vec::new();
    let mut first: Option<Prepared> = None;
    for rep in 0..SETUP_REPS {
        let calib = host::calib();
        let (prep, t) = workload::setup(args.kind, args.seed, dir)?;
        times.push(SetupTimes { calib, ..t });
        match &first {
            None => first = Some(prep),
            Some(f) => {
                for (a, b) in f.analyses.iter().zip(&prep.analyses) {
                    if (a.digest, a.records) != (b.digest, b.records) {
                        tally.fail(format!(
                            "setup: check `trace-bytes` failed: set-up {} wrote other bytes for {}",
                            rep + 1,
                            a.name
                        ));
                    }
                }
            }
        }
    }
    let prep = first.expect("SETUP_REPS > 0");
    for a in &prep.analyses {
        std::fs::File::open(&a.trace)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync {}: {e}", a.trace.display()))?;
    }
    let setup_s: Vec<f64> = times.iter().map(|t| t.total).collect();
    println!(
        "setup: {} analyses, median {:.4} s over {} set-ups",
        prep.analyses.len(),
        stats::median(&setup_s),
        times.len()
    );
    Ok((prep, times))
}

/// Samples of one kind of invocation.
#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    /// Each wall time x `CALIB_REF_S / host.calib_s` timed just before it.
    scaled: Vec<f64>,
    rss_mib: Vec<f64>,
}

/// Run one `autocheck` invocation and check every analysis in it. With
/// `batch` given (the reports of the default invocation just before),
/// this is the `--stream` invocation and its reports must equal those.
/// `calib` is the `host.calib_s` sample timed just before.
#[allow(clippy::too_many_arguments)]
fn invoke(
    args: &Args,
    prep: &Prepared,
    dir: &Path,
    stream: bool,
    calib: f64,
    batch: Option<&[Option<check::Parsed>]>,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Vec<Option<check::Parsed>> {
    let mut argv = prep.cli_args();
    if stream {
        argv.push("--stream".into());
    }
    let mode = if stream { "stream" } else { "batch" };
    let names: Vec<String> = prep.analyses.iter().map(|a| a.name.clone()).collect();
    tally.attempted += names.len() as u64;
    let out = match proc::run(&args.autocheck, &argv, &dir.join("stderr.txt")) {
        Ok(o) => o,
        Err(e) => {
            tally.failed += names.len() as u64;
            tally.fail(format!("{mode}: check `exit` failed: {e}"));
            return vec![None; names.len()];
        }
    };
    samples.wall.push(out.wall);
    samples.scaled.push(out.wall * host::CALIB_REF_S / calib);
    samples.rss_mib.push(out.maxrss_kib as f64 / 1024.0);
    let parsed = check::parse(&out.stdout, &names, prep.manifest.is_some());
    for (i, a) in prep.analyses.iter().enumerate() {
        let reference = batch.and_then(|b| b[i].as_ref());
        let failures = check::check(a, out.code, parsed[i].as_ref(), reference);
        if !failures.is_empty() {
            tally.failed += 1;
        }
        for f in failures {
            tally.fail(format!("{mode} {}: {f}", a.name));
        }
    }
    if out.code != Some(0) && !out.stderr.is_empty() {
        println!("{mode} stderr: {}", out.stderr.trim_end());
    }
    parsed
}

/// Print one metric line (the median, the highest percentile with ten
/// samples beyond it, and the sample count) and add the median to
/// `metrics`.
fn put(metrics: Obj, name: &str, unit: &str, v: &[f64]) -> (Obj, f64) {
    let m = stats::median(v);
    let tail = match stats::tail(v) {
        Some((p, x)) => format!("p{p} {x:.6}"),
        None => "-".into(),
    };
    println!("{name:<30} {m:<14.6} {tail:<18} n={:<5} {unit}", v.len());
    (
        metrics.obj(name, Obj::new().num("value", m).str("unit", unit)),
        m,
    )
}

fn end_to_end(
    args: &Args,
    prep: &Prepared,
    setups: &[SetupTimes],
    dir: &Path,
    tally: &mut Tally,
) -> (Obj, Obj) {
    let (mut batch, mut stream, mut calib) = (Samples::default(), Samples::default(), Vec::new());
    let t0 = Instant::now();
    while batch.wall.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let c = host::calib();
        calib.push(c);
        let reports = invoke(args, prep, dir, false, c, None, &mut batch, tally);
        invoke(args, prep, dir, true, c, Some(&reports), &mut stream, tally);
    }
    let setup_s: Vec<f64> = setups.iter().map(|t| t.total).collect();
    let setup_scaled: Vec<f64> = setups
        .iter()
        .map(|t| t.total * host::CALIB_REF_S / t.calib)
        .collect();
    println!(
        "{:<30} {:<14} {:<18} {:<7} unit",
        "metric", "median", "tail", "n"
    );
    let metrics = [
        ("batch_s", "s", &batch.scaled),
        ("stream_s", "s", &stream.scaled),
        ("batch_peak_rss_mb", "MiB", &batch.rss_mib),
        ("stream_peak_rss_mb", "MiB", &stream.rss_mib),
        ("setup_s", "s", &setup_scaled),
    ]
    .into_iter()
    .fold(Obj::new(), |o, (name, unit, v)| put(o, name, unit, v).0);
    println!(
        "times above: each wall time x {} s / the host.calib_s timed just before it \
         (median {:.6} s, n={})",
        host::CALIB_REF_S,
        stats::median(&calib),
        calib.len()
    );
    println!(
        "unscaled wall medians: batch {:.6} s, stream {:.6} s, setup {:.6} s",
        stats::median(&batch.wall),
        stats::median(&stream.wall),
        stats::median(&setup_s)
    );
    let arr = |v: &[f64]| v.iter().map(|x| json::number(*x)).collect::<Vec<_>>();
    let detail = Obj::new()
        .arr("batch_s", arr(&batch.wall))
        .arr("stream_s", arr(&stream.wall))
        .arr("batch_peak_rss_mb", arr(&batch.rss_mib))
        .arr("stream_peak_rss_mb", arr(&stream.rss_mib))
        .arr("setup_s", arr(&setup_s))
        .arr("host.calib_s", arr(&calib))
        .arr(
            "setup_calib_s",
            arr(&setups.iter().map(|t| t.calib).collect::<Vec<_>>()),
        );
    (metrics, detail)
}

fn traced(
    args: &Args,
    prep: &Prepared,
    setups: &[SetupTimes],
    work: &Path,
    tally: &mut Tally,
    memo: &mut Vec<(String, String)>,
) -> Result<(Obj, Obj), String> {
    let mut spans = Spans::new(args.kind.name());
    let mut calib = Vec::new();
    let t0 = Instant::now();

    // Untraced end-to-end time of the default invocation, for
    // `unattributed_s`.
    let dir = work.join(args.kind.name());
    let dir = dir.as_path();
    let mut e2e = Samples::default();
    let e2e_span = spans.open("e2e.batch");
    while e2e.wall.len() < 3 || t0.elapsed().as_secs_f64() < args.seconds * TRACED_E2E_SHARE {
        let c = host::calib();
        calib.push(c);
        invoke(args, prep, dir, false, c, None, &mut e2e, tally);
    }
    spans.close(e2e_span);

    let (first, _) = spans.time("ledger", || layers::ledger_counts(&prep.analyses));
    let first = first?;
    let mut passes: Vec<layers::PassSums> = Vec::new();
    while passes.len() < 2 || t0.elapsed().as_secs_f64() < args.seconds {
        spans.set_run(passes.len() as u32 + 1);
        calib.push(host::calib());
        let id = spans.open("pass");
        let (sums, failures) = layers::pass(&prep.analyses, &mut spans);
        spans.close(id);
        tally.attempted += prep.analyses.len() as u64;
        if !failures.is_empty() {
            tally.failed += failures.len().min(prep.analyses.len()) as u64;
        }
        for f in failures {
            tally.fail(format!("traced pass {}: {f}", passes.len() + 1));
        }
        passes.push(sums);
    }
    spans.set_run(0);
    let (second, _) = spans.time("ledger", || layers::ledger_counts(&prep.analyses));
    let second = second?;
    for (name, n) in &first {
        if second.get(name) != Some(n) {
            tally.fail(format!(
                "ledger: check `ledger-repeat` failed: {name} was {n}, then {:?}",
                second.get(name)
            ));
        }
        memo.push((format!("ledger {name}"), n.to_string()));
    }

    let per_pass =
        |key: &str| -> Vec<f64> { passes.iter().filter_map(|p| p.get(key).copied()).collect() };
    println!(
        "{:<30} {:<14} {:<18} {:<7} unit",
        "per-layer metric", "median", "tail", "n"
    );
    let mut metrics = Obj::new();
    let mut layer_sum = 0.0;
    for span in [
        "trace.read",
        "trace.decode",
        "trace.ingest",
        "trace.stream",
        "trace.drop",
        "core.region",
        "core.mli",
        "core.ddg",
        "core.contract",
        "core.classify",
        "core.render",
        "core.analyze_path",
        "stream.push",
        "stream.finish",
        "stream.run_read",
        "service.run",
    ] {
        let (o, m) = put(metrics, &format!("{span}_s"), "s", &per_pass(span));
        metrics = o;
        if layers::BATCH_LAYERS.contains(&span) {
            layer_sum += m;
        }
    }
    for (name, unit) in [
        ("trace.allocs_per_record", "allocs/record"),
        ("trace.alloc_bytes_per_record", "B/record"),
        ("stream.live_records_peak", "records"),
        ("service.session_wall_p50_s", "s"),
        ("service.session_wall_max_s", "s"),
    ] {
        metrics = put(metrics, name, unit, &per_pass(name)).0;
    }
    let compile: Vec<f64> = setups.iter().map(|t| t.compile).collect();
    let trace: Vec<f64> = setups.iter().map(|t| t.trace).collect();
    metrics = put(metrics, "minilang.compile_s", "s", &compile).0;
    metrics = put(metrics, "interp.trace_s", "s", &trace).0;
    for (name, n) in &first {
        metrics = put(metrics, name, "count", &[*n as f64]).0;
    }
    metrics = put(metrics, "host.calib_s", "s", &calib).0;
    let e2e_batch = stats::median(&e2e.wall);
    println!(
        "{:<30} {:<14.6} n={} (untraced, for unattributed_s)",
        "batch_s",
        e2e_batch,
        e2e.wall.len()
    );
    metrics = put(metrics, "unattributed_s", "s", &[e2e_batch - layer_sum]).0;

    println!(
        "self time per span name, summed over the run ({} passes):",
        passes.len()
    );
    for (name, secs) in spans.self_times() {
        if !name.starts_with("analysis ") {
            println!("  {name:<28} {secs:.6} s");
        }
    }
    let span_file = work
        .join("spans")
        .join(format!("{}-seed{}.json", args.kind.name(), args.seed));
    let meta = Obj::new()
        .str("workload", args.kind.name())
        .num("seed", args.seed as f64);
    write(&span_file, &spans.to_chrome_json(meta))?;
    println!(
        "spans written to {} (Chrome trace format; opens in Perfetto)",
        span_file.display()
    );
    let detail = Obj::new().num("passes", passes.len() as f64).arr(
        "untraced_batch_s",
        e2e.wall.iter().map(|x| json::number(*x)),
    );
    Ok((metrics, detail))
}

/// Compare this run's digests and counts with earlier runs of the same
/// workload, seed and sources; record them for later runs. Returns the
/// keys whose values changed.
fn memo_check(path: &Path, entries: &[(String, String)]) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut known: BTreeMap<String, String> = text
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut changed = Vec::new();
    for (k, v) in entries {
        match known.get(k) {
            Some(old) if old != v => changed.push(k.clone()),
            Some(_) => {}
            None => {
                known.insert(k.clone(), v.clone());
            }
        }
    }
    let text: String = known.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    write(path, &text)?;
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The metric names of one section of `BENCHMARK.json`, in order.
    fn names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }
}
