//! Drop-guarded child processes and `/proc` sampling.
//!
//! Every `cfserve`/`cfrouter` the benchmark starts is a [`Server`]:
//! stdout and stderr go to files in the run directory (no pipe-drain
//! threads), the child is killed with SIGKILL by the kernel if the
//! benchmark itself dies (`PR_SET_PDEATHSIG`), and dropping the guard —
//! on a normal return, an error or a panic unwinding — kills and reaps
//! it. [`leftover_children`] checks afterwards that nothing survived.

use std::fs;
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 in the Linux user ABI).
const TICKS_PER_S: f64 = 100.0;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGINT: i32 = 2;
const SIGKILL: u64 = 9;
const SIGTERM: i32 = 15;

static STOP: AtomicBool = AtomicBool::new(false);
static DEADLINE: OnceLock<Instant> = OnceLock::new();

extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, Ordering::SeqCst);
}

/// Routes SIGINT/SIGTERM into a flag the load loops poll, so an
/// interrupted run unwinds through the guards instead of dying with
/// children still running.
pub fn install_signal_handlers() {
    // SAFETY: the handler only stores to an atomic, which is
    // async-signal-safe; `signal` is called with valid signal numbers.
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

/// Makes [`stop_requested`] true once `budget` has passed, so a hung
/// server cannot keep the run going past its time limit.
pub fn arm_deadline(budget: Duration) {
    let _ = DEADLINE.set(Instant::now() + budget);
}

/// Whether a SIGINT/SIGTERM arrived or the run's deadline passed.
pub fn stop_requested() -> bool {
    STOP.load(Ordering::SeqCst) || DEADLINE.get().is_some_and(|d| Instant::now() > *d)
}

/// One spawned server process.
pub struct Server {
    tag: String,
    child: Child,
    stderr_path: PathBuf,
    stdout_path: PathBuf,
    exited: Option<ExitStatus>,
}

impl Server {
    /// Spawns `bin args…` with stdout/stderr redirected to
    /// `<dir>/<tag>.out` / `<dir>/<tag>.err`.
    pub fn spawn(bin: &Path, args: &[String], dir: &Path, tag: &str) -> Result<Server, String> {
        let stdout_path = dir.join(format!("{tag}.out"));
        let stderr_path = dir.join(format!("{tag}.err"));
        let out = fs::File::create(&stdout_path).map_err(|e| format!("{tag}: {e}"))?;
        let err = fs::File::create(&stderr_path).map_err(|e| format!("{tag}: {e}"))?;
        let mut cmd = Command::new(bin);
        cmd.args(args).stdin(Stdio::null()).stdout(out).stderr(err);
        // SAFETY: the closure runs in the forked child before exec and
        // only makes one async-signal-safe system call.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Server { tag: tag.to_string(), child, stderr_path, stdout_path, exited: None })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls the stderr file for a line starting with `prefix` and
    /// returns the `host:port` after its `http://`.
    pub fn wait_announce(&mut self, prefix: &str, timeout: Duration) -> Result<String, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let text = fs::read_to_string(&self.stderr_path).unwrap_or_default();
            // Only complete lines: stderr is unbuffered, so a line can be
            // read while it is still being written.
            for line in text.split_inclusive('\n').filter(|l| l.ends_with('\n')) {
                if let Some(rest) = line.strip_prefix(prefix) {
                    if let Some(addr) = rest.split("http://").nth(1) {
                        let addr: String =
                            addr.chars().take_while(|c| !c.is_whitespace() && *c != '/').collect();
                        return Ok(addr);
                    }
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                self.exited = Some(status);
                return Err(format!("{} exited ({status}) before announcing: {text}", self.tag));
            }
            if Instant::now() > deadline || stop_requested() {
                return Err(format!("{} did not announce within {timeout:?}", self.tag));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// CPU seconds (user + system) so far; also readable while the
    /// process is a zombie, before it is reaped.
    pub fn cpu_s(&self) -> Option<f64> {
        self.state().map(|(_, cpu)| cpu)
    }

    /// The process state letter (`Z` once it exited but is not yet
    /// reaped) and its CPU seconds; `None` once it is gone.
    pub fn state(&self) -> Option<(char, f64)> {
        proc_stat(self.pid()).map(|s| (s.state, s.cpu_ticks as f64 / TICKS_PER_S))
    }

    /// `VmHWM` (peak resident set) in KiB and the thread count.
    pub fn mem_threads(&self) -> Option<(u64, u64)> {
        let text = fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let field = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        };
        Some((field("VmHWM:")?, field("Threads:")?))
    }

    /// Waits for the process to exit and reaps it. The caller must know
    /// it is exiting: a `Z` leader in [`state`](Server::state) can still
    /// have threads tearing down, so it is not yet reapable without
    /// blocking.
    pub fn wait(&mut self) -> Option<ExitStatus> {
        if self.exited.is_none() {
            self.exited = self.child.wait().ok();
        }
        self.exited
    }

    pub fn stdout(&self) -> String {
        let mut s = String::new();
        if let Ok(mut f) = fs::File::open(&self.stdout_path) {
            let _ = f.read_to_string(&mut s);
        }
        s
    }

    pub fn stderr_tail(&self) -> String {
        let text = fs::read_to_string(&self.stderr_path).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join("\n")
    }

    /// Kills and reaps the process (idempotent).
    pub fn kill(&mut self) {
        if self.exited.is_none() {
            let _ = self.child.kill();
            self.exited = self.child.wait().ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

struct ProcStat {
    state: char,
    ppid: u32,
    cpu_ticks: u64,
    comm: String,
}

fn proc_stat(pid: u32) -> Option<ProcStat> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // `comm` is parenthesised and may hold spaces: split after the last ')'.
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text[open + 1..close].to_string();
    let rest: Vec<&str> = text[close + 1..].split_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    Some(ProcStat {
        state: rest.first()?.chars().next()?,
        ppid: rest.get(1)?.parse().ok()?,
        cpu_ticks: rest.get(11)?.parse::<u64>().ok()? + rest.get(12)?.parse::<u64>().ok()?,
        comm,
    })
}

/// Children of this process still alive whose name is `cfserve` or
/// `cfrouter` — must be empty once every [`Server`] is dropped.
pub fn leftover_children() -> Vec<String> {
    let me = std::process::id();
    let Ok(entries) = fs::read_dir("/proc") else { return Vec::new() };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter_map(|pid| Some((pid, proc_stat(pid)?)))
        .filter(|(_, s)| s.ppid == me && (s.comm == "cfserve" || s.comm == "cfrouter"))
        .map(|(pid, s)| format!("{} (pid {pid})", s.comm))
        .collect()
}

/// CPU time the hypervisor has stolen from the machine's CPUs (`steal` in
/// `/proc/stat`), in milliseconds.
pub fn steal_ms() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| t.lines().next()?.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks * 1e3 / TICKS_PER_S)
}

/// Thread count of this benchmark process.
pub fn own_threads() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}
