//! Host fingerprint and the fixed calibration work recorded with every
//! result: the host's speed drifts, and the end-to-end times are scaled by
//! the calibration timed beside them.

use crate::json::Obj;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Lines of the synthetic trace-shaped text [`calib`] parses: about 0.1 s
/// on a 2-vCPU Xeon.
const CALIB_LINES: usize = 200_000;

/// The reference time of [`calib`]. End-to-end times are reported as each
/// wall time x `CALIB_REF_S /` the calibration timed just before it:
/// seconds on a host that runs the calibration in exactly this long. The
/// unscaled times stay in the output and the results file.
pub const CALIB_REF_S: f64 = 0.1;

/// Text lines shaped like trace records (opcode, width, address, flag,
/// variable name). Built for each calibration and freed after it, so this
/// process stays small between runs of `autocheck` (see `proc`).
fn calib_text() -> String {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut out = String::with_capacity(CALIB_LINES * 32);
    for i in 0..CALIB_LINES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = 0x7f00_0000_0000 + (x & 0xf_ffff) * 8;
        let _ = writeln!(
            out,
            "{},64,{addr:#x},{},var{},",
            i % 7,
            i % 3,
            (x >> 20) % 64
        );
    }
    out
}

/// Time a fixed piece of trace-shaped work, in seconds: parse the lines,
/// intern the names, keep one small allocation per row, then index the
/// rows by address. It contends for the core, the caches and memory the
/// way an analysis does, so when co-tenants slow the host down it slows
/// down with `autocheck` (a register-only loop slowed about half as much).
pub fn calib() -> f64 {
    let text = calib_text();
    let t = Instant::now();
    let mut names: HashMap<&str, u32> = HashMap::new();
    let mut rows: Vec<(u32, u64, Vec<u32>)> = Vec::new();
    for line in text.lines() {
        let mut f = line.split(',');
        let mut num = |radix| {
            let v = f.next().unwrap_or("");
            u64::from_str_radix(v.trim_start_matches("0x"), radix).unwrap_or(0)
        };
        let (op, _bits, addr, flag) = (num(10), num(10), num(16), num(10));
        let name = f.next().unwrap_or("");
        let next = names.len() as u32;
        let id = *names.entry(name).or_insert(next);
        rows.push((op as u32, addr, vec![flag as u32, id]));
    }
    let mut by_addr: HashMap<u64, u32> = HashMap::new();
    for (op, addr, _) in &rows {
        by_addr.insert(*addr, *op);
    }
    black_box((&names, &rows, &by_addr));
    drop((rows, by_addr, names));
    t.elapsed().as_secs_f64()
}

/// `nproc`, CPU model, RAM, kernel, `rustc` and the code under test: the
/// git commit when the checkout is a repository, and always a digest of
/// the sources the benchmark builds.
pub fn fingerprint(root: &Path) -> Obj {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_kib = meminfo
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|k| k.parse::<u64>().ok())
        .unwrap_or(0);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Obj::new()
        .num("nproc", nproc as f64)
        .str("cpu", &cpu)
        .num("mem_kib", mem_kib as f64)
        .str("kernel", &kernel)
        .str("rustc", &command_line("rustc", &["--version"], root))
        .str("commit", &command_line("git", &["rev-parse", "HEAD"], root))
        .str("source_digest", &format!("{:016x}", source_digest(root)))
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of the build inputs of `autocheck` and of this benchmark: the
/// manifests and every file under their source directories, in path order.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = vec![
        root.join("Cargo.toml"),
        root.join("Cargo.lock"),
        root.join("clibench/Cargo.toml"),
    ];
    for dir in ["crates", "src", "vendor", "clibench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = crate::digest::Digest::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.update(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.update(&bytes);
        }
    }
    h.finish()
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}
