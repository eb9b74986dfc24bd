//! The three workloads and their set-up: compile each app's MiniLang,
//! run it under the tracer into a trace file, and write the manifest.
//!
//! * `cg-text` — one large cg trace in the text format: text decoding and
//!   symbol interning dominate, so text-ingest changes show here.
//! * `cg-binary` — the same execution in the binary format: the text
//!   decoder never runs, so the fold, the analysis pipeline and the
//!   record layout carry a larger share; the control for text-ingest
//!   changes.
//! * `suite-small` — all 14 apps at their small size in one `--batch`
//!   manifest: fixed per-analysis costs dominate, and the 60 expected
//!   critical variables cover every dependency class.

use crate::digest;
use autocheck_apps::{all_apps, cg, AppSpec};
use autocheck_core::index_variables_of;
use autocheck_interp::{BinarySink, ExecOptions, Machine, NoHook, TraceSink, WriterSink};
use autocheck_trace::AnalysisCtx;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Vector length of cg at the default seed: `cg::spec_scaled(96, 10, 8)`,
/// the `cg` entry of `Scale::Large` (1,012,932 records).
const CG_N: usize = 96;
/// Seeds pick the vector length from `CG_N` and its two neighbours; the
/// record count is linear in it, so every seed stays within 1.1% of the
/// default's.
const CG_N_OFFSETS: [usize; 3] = [CG_N, CG_N + 1, CG_N - 1];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    CgText,
    CgBinary,
    SuiteSmall,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "cg-text" => Some(Kind::CgText),
            "cg-binary" => Some(Kind::CgBinary),
            "suite-small" => Some(Kind::SuiteSmall),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::CgText => "cg-text",
            Kind::CgBinary => "cg-binary",
            Kind::SuiteSmall => "suite-small",
        }
    }

    fn binary(self) -> bool {
        self == Kind::CgBinary
    }
}

/// The apps of a workload, in manifest order, for `seed`.
pub fn specs(kind: Kind, seed: u64) -> Vec<AppSpec> {
    match kind {
        Kind::CgText | Kind::CgBinary => {
            let n = CG_N_OFFSETS[(seed % CG_N_OFFSETS.len() as u64) as usize];
            vec![cg::spec_scaled(n, 10, 8)]
        }
        Kind::SuiteSmall => {
            let mut apps = all_apps();
            // Fisher-Yates with SplitMix64: the seed fixes the manifest order.
            let mut state = seed;
            for i in (1..apps.len()).rev() {
                let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                apps.swap(i, j);
            }
            apps
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One analysis the benchmark runs: an app's trace and what defines the
/// analysis on the command line.
#[derive(Clone, Debug)]
pub struct Analysis {
    pub name: String,
    pub spec: AppSpec,
    /// The loop pass's control variables (`--index`).
    pub index: Vec<String>,
    pub trace: PathBuf,
    /// Records the tracer wrote.
    pub records: u64,
    /// Trace file size.
    pub bytes: u64,
    pub digest: u64,
}

impl Analysis {
    /// `(name, class)` pairs as `checkpoint` lines print them, sorted.
    pub fn expected(&self) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = self
            .spec
            .expected
            .iter()
            .map(|(n, d)| (n.to_string(), d.to_string()))
            .collect();
        v.sort();
        v
    }

    /// `autocheck` arguments for this analysis alone.
    pub fn cli_args(&self) -> Vec<String> {
        let r = &self.spec.region;
        let mut args = vec![
            self.trace.to_string_lossy().into_owned(),
            "--function".into(),
            r.function.clone(),
            "--start".into(),
            r.start_line.to_string(),
            "--end".into(),
            r.end_line.to_string(),
        ];
        if !self.index.is_empty() {
            args.push("--index".into());
            args.push(self.index.join(","));
        }
        args
    }

    /// This analysis as a `--batch` manifest line.
    fn manifest_line(&self) -> String {
        let r = &self.spec.region;
        let mut line = format!(
            "{} {} {} {}",
            self.trace.display(),
            r.function,
            r.start_line,
            r.end_line
        );
        if !self.index.is_empty() {
            line.push(' ');
            line.push_str(&self.index.join(","));
        }
        line
    }
}

/// A generated workload: its analyses, and the manifest for `--batch`
/// workloads.
#[derive(Clone, Debug)]
pub struct Prepared {
    pub analyses: Vec<Analysis>,
    pub manifest: Option<PathBuf>,
}

impl Prepared {
    /// `autocheck` arguments for the default invocation (add `--stream`
    /// for the streaming one).
    pub fn cli_args(&self) -> Vec<String> {
        match &self.manifest {
            Some(m) => vec!["--batch".into(), m.to_string_lossy().into_owned()],
            None => self.analyses[0].cli_args(),
        }
    }
}

/// Seconds spent in each layer of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total: f64,
    pub compile: f64,
    pub trace: f64,
    /// `host.calib_s` timed just before this set-up (0 until the caller
    /// sets it).
    pub calib: f64,
}

/// Generate the workload into `dir`: one trace per app plus, for
/// `suite-small`, the manifest. Returns the analyses and the set-up's
/// timings (digests are taken after the clock stops).
pub fn setup(kind: Kind, seed: u64, dir: &Path) -> Result<(Prepared, SetupTimes), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let mut analyses = Vec::new();
    for spec in specs(kind, seed) {
        let ext = if kind.binary() { "btrace" } else { "trace" };
        let trace = dir.join(format!("{}.{ext}", spec.name));
        let t = Instant::now();
        let module = autocheck_minilang::compile(&spec.source)
            .map_err(|e| format!("{} does not compile: {e:?}", spec.name))?;
        times.compile += t.elapsed().as_secs_f64();
        let index = index_variables_of(&module, &spec.region);
        let t = Instant::now();
        let records = write_trace(&module, &trace, kind.binary())
            .map_err(|e| format!("tracing {}: {e}", spec.name))?;
        times.trace += t.elapsed().as_secs_f64();
        analyses.push(Analysis {
            name: spec.name.to_string(),
            spec,
            index,
            trace,
            records,
            bytes: 0,
            digest: 0,
        });
    }
    let manifest = (kind == Kind::SuiteSmall)
        .then(|| -> Result<PathBuf, String> {
            let path = dir.join("manifest.txt");
            let mut text = String::from("# trace function start end [index]\n");
            for a in &analyses {
                text.push_str(&a.manifest_line());
                text.push('\n');
            }
            std::fs::write(&path, text).map_err(|e| format!("writing manifest: {e}"))?;
            Ok(path)
        })
        .transpose()?;
    times.total = t0.elapsed().as_secs_f64();
    for a in &mut analyses {
        let bytes = std::fs::read(&a.trace).map_err(|e| format!("reading back {}: {e}", a.name))?;
        a.bytes = bytes.len() as u64;
        a.digest = digest::of(&bytes);
    }
    Ok((Prepared { analyses, manifest }, times))
}

/// Run the program under the tracer into `path`, as `mlc trace` does, in a
/// fresh symbol session so the bytes do not depend on what this process
/// interned before. Returns the records written.
fn write_trace(module: &autocheck_ir::Module, path: &Path, binary: bool) -> Result<u64, String> {
    let ctx = AnalysisCtx::session();
    let _guard = ctx.enter();
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let out = BufWriter::new(file);
    let mut machine = Machine::with_ctx(module, ExecOptions::default(), ctx.clone());
    let (records, out) = if binary {
        let mut sink = BinarySink::with_ctx(out, &ctx);
        run(&mut machine, &mut sink)?;
        let n = sink.records_written();
        (n, sink.finish().map_err(|e| e.to_string())?)
    } else {
        let mut sink = WriterSink::new(out);
        run(&mut machine, &mut sink)?;
        let n = sink.records_written();
        (n, sink.finish().map_err(|e| e.to_string())?)
    };
    out.into_inner()
        .map_err(|e| e.to_string())?
        .flush()
        .map_err(|e| e.to_string())?;
    Ok(records)
}

fn run(machine: &mut Machine, sink: &mut dyn TraceSink) -> Result<(), String> {
    machine
        .run(sink, &mut NoHook)
        .map(drop)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_the_large_cg() {
        let spec = &specs(Kind::CgText, 0)[0];
        assert_eq!(spec.source, cg::spec_scaled(96, 10, 8).source);
    }

    #[test]
    fn seeds_stay_near_the_default_size() {
        for seed in 0..12 {
            let n = CG_N_OFFSETS[(seed % 3) as usize];
            assert!(n.abs_diff(CG_N) <= 1);
            assert_eq!(
                specs(Kind::CgBinary, seed)[0].source,
                cg::spec_scaled(n, 10, 8).source
            );
        }
    }

    #[test]
    fn suite_seed_permutes_all_fourteen_apps() {
        let names = |seed| -> Vec<&'static str> {
            specs(Kind::SuiteSmall, seed)
                .iter()
                .map(|a| a.name)
                .collect()
        };
        let a = names(1);
        let mut sorted_a = a.clone();
        sorted_a.sort_unstable();
        let mut all: Vec<&str> = all_apps().iter().map(|a| a.name).collect();
        all.sort_unstable();
        assert_eq!(sorted_a, all);
        assert_eq!(a, names(1), "same seed, same order");
        assert_ne!(a, names(2), "another seed, another order");
    }

    #[test]
    fn suite_expects_sixty_critical_variables() {
        let n: usize = specs(Kind::SuiteSmall, 0)
            .iter()
            .map(|a| a.expected.len())
            .sum();
        assert_eq!(n, 60);
    }
}
