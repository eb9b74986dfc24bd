//! One `autocheck` invocation, timed from spawn to exit, with the kernel's
//! peak-RSS figure for that process (`ru_maxrss` from `wait4`).

use std::io::Read;
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one process did.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Spawn to exit, in seconds.
    pub wall: f64,
    /// Peak resident set, KiB.
    pub maxrss_kib: u64,
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
}

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
}

/// Make the next child's `ru_maxrss` its own. A spawned child shares this
/// process's memory until it execs, and the kernel keeps the larger of the
/// two high-water marks as the child's. So return freed heap to the
/// system, then reset this process's high-water mark to its resident size,
/// which is then a few MiB.
fn reset_peak_rss() {
    // SAFETY: `malloc_trim` only hands free heap pages back to the system;
    // it takes no pointers and every live allocation stays valid.
    unsafe { malloc_trim(0) };
    // Best effort: without it, peaks below this process's own read high.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Run `bin args…` from the current directory and wait for it.
/// Standard error goes to `stderr_file` (so neither pipe can fill while the
/// other is drained) and is read back afterwards.
pub fn run(bin: &Path, args: &[String], stderr_file: &Path) -> Result<Outcome, String> {
    let err = std::fs::File::create(stderr_file)
        .map_err(|e| format!("cannot create {}: {e}", stderr_file.display()))?;
    reset_peak_rss();
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(err))
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let pid = c_int::try_from(child.id()).expect("Linux pids fit in pid_t");
    let mut status: c_int = 0;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std's `Child` never waits
        // on it: we do not call `wait`/`try_wait` and its `Drop` does not
        // reap), and both out-pointers are valid, writable, and laid out as
        // the C types `wait4` fills.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {e}"));
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    read.map_err(|e| format!("reading stdout: {e}"))?;
    let stderr = std::fs::read_to_string(stderr_file).unwrap_or_default();
    // WIFEXITED / WEXITSTATUS.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Outcome {
        wall,
        maxrss_kib: u64::try_from(usage.ru_maxrss).unwrap_or(0),
        code,
        stdout,
        stderr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_code_output_and_peak_rss() {
        let dir = std::env::temp_dir().join(format!("clibench-proc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let err = dir.join("stderr");
        let sh = Path::new("/bin/sh");
        let ok = run(sh, &["-c".into(), "echo hi; echo oops >&2".into()], &err).expect("runs");
        assert_eq!(ok.code, Some(0));
        assert_eq!(ok.stdout, "hi\n");
        assert_eq!(ok.stderr, "oops\n");
        assert!(ok.maxrss_kib > 0);
        assert!(ok.wall > 0.0);
        let bad = run(sh, &["-c".into(), "exit 3".into()], &err).expect("runs");
        assert_eq!(bad.code, Some(3));
        let killed = run(sh, &["-c".into(), "kill -9 $$".into()], &err).expect("runs");
        assert_eq!(killed.code, None);
        // This process's own peak must not show up as the child's.
        let big = vec![1u8; 256 << 20];
        std::hint::black_box(&big);
        drop(big);
        let small = run(sh, &["-c".into(), "true".into()], &err).expect("runs");
        assert!(small.maxrss_kib < 128 << 10, "{} KiB", small.maxrss_kib);
        std::fs::remove_dir_all(&dir).ok();
    }
}
