//! Spawning the shipped daemons and reading their cost from `/proc`.
//!
//! Each daemon binds `tcp:127.0.0.1:0` and prints the bound endpoint on
//! stderr; the harness reads that line to learn the port, so runs never
//! collide on a fixed port. CPU time comes from the harness's own
//! `getrusage(RUSAGE_CHILDREN)` (children reaped so far), peak RSS from
//! each child's `VmHWM`.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pids of live children, killed by the watchdog if a run overruns.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// A running daemon child.
pub struct Daemon {
    child: Child,
    /// `HOST:PORT` the daemon bound.
    pub addr: String,
    stderr: Option<JoinHandle<String>>,
    hwm_kib: u64,
}

impl Daemon {
    /// Starts `bin args…` and waits for its `listening on tcp:ADDR`
    /// line.
    pub fn start(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        LIVE.lock().expect("pid list").push(child.id());
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr);
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    forget(child.id());
                    return Err(format!("daemon exited before listening: {seen}"));
                }
                Ok(_) => {}
            }
            seen.push_str(&line);
            if let Some(rest) = line.trim().split("listening on tcp:").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = lines.read_to_string(&mut rest);
            seen + &rest
        });
        Ok(Daemon {
            child,
            addr,
            stderr: Some(stderr),
            hwm_kib: 0,
        })
    }

    /// Reads the child's peak RSS so far; keeps the largest reading
    /// (the child may exit between two samples).
    pub fn sample_hwm(&mut self) {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()));
        if let Some(kib) = status.ok().and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        }) {
            self.hwm_kib = self.hwm_kib.max(kib);
        }
    }

    pub fn hwm_bytes(&self) -> u64 {
        self.hwm_kib * 1024
    }

    /// Waits for the daemon to exit on its own (it does after a drain).
    pub fn wait_exit(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    forget(self.child.id());
                    let log = self
                        .stderr
                        .take()
                        .and_then(|h| h.join().ok())
                        .unwrap_or_default();
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status}: {log}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    let log = self
                        .stderr
                        .take()
                        .and_then(|h| h.join().ok())
                        .unwrap_or_default();
                    return Err(format!("daemon did not exit after its drain: {log}"));
                }
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        forget(self.child.id());
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

fn forget(pid: u32) {
    LIVE.lock().expect("pid list").retain(|&p| p != pid);
}

/// Kills every live child (the run overran its deadline).
pub fn kill_all() {
    let pids = LIVE.lock().map(|l| l.clone()).unwrap_or_default();
    for pid in pids {
        let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
    }
}

const RUSAGE_CHILDREN: i32 = -1;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Seconds of user+system CPU used by children the harness has reaped,
/// to the microsecond (`/proc/self/stat` would give 10 ms ticks).
pub fn reaped_children_cpu_s() -> f64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: getrusage writes one `struct rusage` into `u`, whose
    // layout `RUsage` matches.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut u) } != 0 {
        return 0.0;
    }
    let secs = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    secs(u.utime) + secs(u.stime)
}

/// The machine's aggregate CPU counters (`cpu` line of `/proc/stat`):
/// user, nice, system, idle, iowait, irq, softirq, steal, in ticks.
pub fn host_cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect()
}

/// Per-counter change in [`host_cpu_ticks`] since `before`.
pub fn host_cpu_since(before: &[u64]) -> Vec<u64> {
    host_cpu_ticks()
        .iter()
        .zip(before)
        .map(|(now, then)| now.saturating_sub(*then))
        .collect()
}

/// The directory every round's daemon state goes under; `run.sh` mounts
/// a tmpfs there when it can.
pub fn state_root(root: &Path) -> PathBuf {
    root.join("state")
}

/// The filesystem type mounted at `dir`, from `/proc/self/mounts`, or
/// `None` when `dir` is not a mount point of its own.
pub fn mount_type(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts.lines().rev().find_map(|l| {
        let mut f = l.split_whitespace();
        let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
        (Path::new(point) == dir).then(|| kind.to_string())
    })
}

/// A fresh per-round state directory under [`state_root`].
pub struct StateDir(pub PathBuf);

impl StateDir {
    pub fn new(root: &Path, tag: &str) -> Result<Self, String> {
        let dir = state_root(root).join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(StateDir(dir))
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
