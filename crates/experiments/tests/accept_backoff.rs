//! Descriptor exhaustion must not make the daemon spin.
//!
//! The daemon runs under `ulimit -n 32` and is dialed by more clients than
//! it has descriptors for, so `accept` keeps failing with EMFILE while the
//! listener stays readable.  Each serving core must back off instead of
//! burning a core, count the failures in its stats, and accept again once
//! the clients leave.

#![cfg(target_os = "linux")]

use iqft_serve::{Client, ClientConfig};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const DESCRIPTORS: u32 = 32;
const CLIENTS: usize = 48;
const WINDOW: Duration = Duration::from_secs(2);

/// Kills the daemon if the test fails before it shut down cleanly.
struct Daemon {
    child: Child,
    addr_file: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.addr_file);
    }
}

fn spawn_daemon(mode: &str) -> (Daemon, String) {
    let addr_file = std::env::temp_dir().join(format!(
        "iqft-accept-backoff-{mode}-{}.addr",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&addr_file);
    // `exec` keeps the shell's pid, so the child's pid is the daemon's.
    let child = Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -n {DESCRIPTORS} && exec \"$0\" \"$@\""))
        .arg(env!("CARGO_BIN_EXE_iqft-experiments"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(["--serve-mode", mode, "--addr-file"])
        .arg(&addr_file)
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn the daemon");
    let daemon = Daemon { child, addr_file };
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(addr) = std::fs::read_to_string(&daemon.addr_file) {
            if !addr.is_empty() {
                return (daemon, addr);
            }
        }
        assert!(
            Instant::now() < deadline,
            "{mode}: daemon never wrote its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The process's user + system CPU time, in clock ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // Fields after the parenthesised command name start at field 3; utime
    // and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm field") + 1..]
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

fn ticks_per_second() -> u64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.trim().parse().ok())
        .unwrap_or(100)
}

fn check_mode(mode: &str) {
    let (mut daemon, addr) = spawn_daemon(mode);
    let config = ClientConfig::new(addr.as_str())
        .with_connect_deadline(Duration::from_secs(2))
        .with_reply_deadline(Duration::from_secs(5));
    // More clients than the daemon has descriptors: the first few are
    // accepted, the rest wait in the listen backlog while accept fails.
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|i| Client::open(&config).unwrap_or_else(|e| panic!("{mode}: dial {i}: {e}")))
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    let pid = daemon.child.id();
    let before = cpu_ticks(pid);
    std::thread::sleep(WINDOW);
    let burned = cpu_ticks(pid) - before;
    let budget = ticks_per_second() * WINDOW.as_secs() / 4;
    assert!(
        burned < budget,
        "{mode}: daemon burned {burned} ticks in {WINDOW:?} with accept failing (budget {budget})"
    );

    // The first client was accepted before descriptors ran out.
    let stats = clients[0].stats().expect("stats on an accepted connection");
    assert!(stats.accept_errors > 0, "{mode}: {stats:?}");

    clients.clear();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        let answered = Client::open(&config)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.ping().map(|()| c).map_err(|e| e.to_string()));
        match answered {
            Ok(client) => break client,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "{mode}: no ping after clients left: {e}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    client.shutdown().expect("shutdown");
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(20);
    while daemon.child.try_wait().expect("poll the daemon").is_none() {
        assert!(Instant::now() < deadline, "{mode}: daemon did not drain");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn descriptor_exhaustion_backs_off_instead_of_spinning() {
    for mode in ["evented", "threads"] {
        check_mode(mode);
    }
}
