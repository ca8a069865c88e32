//! A supervised `iqft-experiments serve` child on an ephemeral loopback
//! port, plus the `/proc` readings taken from it.

use crate::workload::CACHE_MB;
use iqft_serve::{Client, ClientConfig, StatsSnapshot};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to start listening or to stop.
const DEADLINE: Duration = Duration::from_secs(30);

/// One running daemon.  Dropping it kills and reaps the process, so no
/// error path can leave a daemon behind.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    addr: String,
    addr_file: PathBuf,
}

impl Daemon {
    /// Spawns `serve --addr 127.0.0.1:0 --addr-file … --cache-mb 64` and
    /// waits until a `Ping` succeeds.  Returns the daemon and the time from
    /// spawn to the first successful `Ping`.
    pub fn spawn(binary: &Path, run_dir: &Path, tag: &str) -> Result<(Daemon, Duration), String> {
        let addr_file = run_dir.join(format!("addr-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        let started = Instant::now();
        let child = Command::new(binary)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .args(["--cache-mb", &CACHE_MB.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            addr_file,
        };
        loop {
            if let Ok(addr) = std::fs::read_to_string(&daemon.addr_file) {
                if !addr.is_empty() {
                    daemon.addr = addr;
                    break;
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if started.elapsed() > DEADLINE {
                return Err("daemon did not write its address in time".to_string());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        loop {
            match daemon
                .client()
                .and_then(|mut c| c.ping().map_err(|e| e.to_string()))
            {
                Ok(()) => return Ok((daemon, started.elapsed())),
                Err(e) if started.elapsed() > DEADLINE => {
                    return Err(format!("daemon never answered Ping: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_micros(50)),
            }
        }
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn client(&self) -> Result<Client, String> {
        let config = ClientConfig::new(self.addr.clone())
            .with_connect_deadline(Duration::from_secs(2))
            .with_reply_deadline(Duration::from_secs(10));
        Client::open(&config).map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// A `Stats` snapshot.
    pub fn stats(&self) -> Result<StatsSnapshot, String> {
        self.client()?
            .stats()
            .map_err(|e| format!("Stats failed: {e}"))
    }

    /// User plus system CPU time the daemon has used so far.
    pub fn cpu_time(&self) -> Result<Duration, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("cannot read daemon /proc stat: {e}"))?;
        cpu_time_from_stat(&stat).ok_or_else(|| "unparsable /proc stat".to_string())
    }

    /// Peak resident set size (`VmHWM`) in bytes.
    pub fn peak_rss_bytes(&self) -> Result<u64, String> {
        peak_rss_bytes(self.child.id())
    }

    /// Sends `Shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked = self
            .client()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let started = Instant::now();
        while started.elapsed() < DEADLINE {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (acked, status.success()) {
                    (Ok(()), true) => Ok(()),
                    (Err(e), _) => Err(format!("Shutdown failed: {e}")),
                    (_, false) => Err(format!("daemon exited with {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("daemon did not stop after Shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.addr_file);
    }
}

/// Peak resident set size (`VmHWM`) of process `pid`, in bytes.
pub fn peak_rss_bytes(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<u64>().ok())
        .map(|kib| kib * 1024)
        .ok_or_else(|| "no VmHWM line".to_string())
}

/// Host-wide CPU time as `(steal, total)` in USER_HZ ticks, from the first
/// line of `/proc/stat`.  Steal is time the hypervisor ran someone else
/// while this VM wanted the CPU; its share over a phase says how contended
/// the host was.
pub fn host_cpu_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat")
        .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    cpu_ticks_from_stat(&stat).ok_or_else(|| "unparsable /proc/stat".to_string())
}

fn cpu_ticks_from_stat(stat: &str) -> Option<(u64, u64)> {
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let counted = &ticks[..ticks.len().min(8)];
    Some((*counted.get(7)?, counted.iter().sum()))
}

/// utime + stime from a `/proc/<pid>/stat` line.  Linux reports both in
/// USER_HZ ticks, which is 100 per second on every architecture.
fn cpu_time_from_stat(stat: &str) -> Option<Duration> {
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 10))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_parse_this_process() {
        assert!(peak_rss_bytes(std::process::id()).unwrap() > 0);
        let line = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 250 30 0 0";
        assert_eq!(cpu_time_from_stat(line), Some(Duration::from_millis(2800)));
        let stat = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3\n";
        assert_eq!(cpu_ticks_from_stat(stat), Some((35, 1000)));
        let (steal, total) = host_cpu_ticks().unwrap();
        assert!(total > 0 && steal <= total);
    }
}
