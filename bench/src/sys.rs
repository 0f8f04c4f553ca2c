//! Process accounting from `/proc`, and the guards that make sure nothing
//! the benchmark starts outlives it.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux reports them
/// in USER_HZ, which the kernel ABI fixes at 100.
const TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of a process in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident size, so the next
/// reading is the peak of what ran in between. False if the kernel refused.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User plus system CPU time of a process, in seconds.
pub fn cpu_secs(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // the command name may hold spaces; fields resume after its ')'
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields[0] is the state (field 3); utime and stime are fields 14, 15
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Children that must not outlive this process: the watchdog kills and
/// reaps whatever is still registered before it exits.
static LIVE: Mutex<Vec<Arc<Mutex<Child>>>> = Mutex::new(Vec::new());

fn kill_and_reap(child: &Mutex<Child>) {
    let mut c = child.lock().unwrap_or_else(|p| p.into_inner());
    let _ = c.kill();
    let _ = c.wait();
}

/// The `scis serve` child. Killed and reaped on drop, on every exit path
/// including a panic, and by the watchdog; it also exits by itself when
/// this process dies, because it watches the pipe it holds as its stdin.
pub struct ServerProc {
    child: Arc<Mutex<Child>>,
    pid: u32,
    _stdin: ChildStdin,
    pub addr: std::net::SocketAddr,
}

impl ServerProc {
    /// Starts `exe serve <args>` and waits for its `listening on` line.
    pub fn spawn(exe: &std::path::Path, args: &[String]) -> Result<Self, String> {
        let mut child = Command::new(exe)
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let pid = child.id();
        let child = Arc::new(Mutex::new(child));
        LIVE.lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(child.clone());
        let mut proc = ServerProc {
            child,
            pid,
            _stdin: stdin,
            addr: "0.0.0.0:0".parse().expect("literal address"),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's address: {e}"))?;
        proc.addr = line
            .trim()
            .strip_prefix("listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        Ok(proc)
    }

    pub fn pid(&self) -> String {
        self.pid.to_string()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        kill_and_reap(&self.child);
        LIVE.lock()
            .unwrap_or_else(|p| p.into_inner())
            .retain(|c| !Arc::ptr_eq(c, &self.child));
    }
}

/// In the server child: exit as soon as the parent's end of the stdin pipe
/// closes, so a benchmark killed from outside leaves no server behind.
pub fn exit_with_parent() {
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);
        std::process::exit(0);
    });
}

/// Aborts the process when a workload runs past its deadline, after
/// killing and reaping any server child.
pub fn watchdog(limit: Duration, what: String) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "loadbench: {what} exceeded its {}s watchdog",
            limit.as_secs()
        );
        for child in LIVE.lock().unwrap_or_else(|p| p.into_inner()).iter() {
            kill_and_reap(child);
        }
        std::process::exit(3);
    });
}

/// Runs `cmd` with a deadline and returns its stdout, whatever its exit
/// status; an error when it cannot start or runs too long (the child is
/// then killed and reaped).
pub fn run_with_deadline(mut cmd: Command, limit: Duration) -> Result<String, String> {
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {cmd:?}: {e}"))?;
    let start = Instant::now();
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = std::io::Read::read_to_string(&mut stdout, &mut out);
        out
    });
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return Ok(reader.join().expect("stdout reader")),
            Ok(None) if start.elapsed() > limit => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("killed after {}s", limit.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => return Err(format!("waiting: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_proc_accounting() {
        let pid = std::process::id().to_string();
        assert!(peak_rss_mib(&pid).unwrap() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        assert!(cpu_secs(&pid).unwrap() >= 0.0);
        assert!(peak_rss_mib("no-such-pid").is_none());
    }
}
