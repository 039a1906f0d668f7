//! The `dash-server` child process and the counters read about it from
//! outside: `/proc/<pid>/stat`, `/proc/<pid>/task/*/{status,schedstat}`
//! and `INFO`
//! (`/proc/<pid>/io` is read by [`crate::load::syscw_probe`]).

use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::wire::{field_u64, Conn};

/// Every server flag the benchmark depends on, passed explicitly so a
/// changed default cannot silently change the benchmark.
pub struct Flags {
    pub shards: usize,
    pub event_workers: usize,
    pub pool_mb: usize,
}

pub struct Server {
    child: Option<Child>,
    pub port: u16,
    pub pid: u32,
}

/// An unused loopback port (the listener is closed before the server
/// binds it).
fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl Server {
    /// Start `bin` on the store in `dir`; returns once the process runs
    /// (not once it listens — see [`Server::connect`]).
    pub fn spawn(bin: &Path, dir: &Path, flags: &Flags, log: &Path) -> io::Result<Server> {
        let port = free_port()?;
        let out = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)?;
        let child = Command::new(bin)
            .arg("--addr")
            .arg(format!("127.0.0.1:{port}"))
            .arg("--dir")
            .arg(dir)
            .args(["--shards", &flags.shards.to_string()])
            .args(["--event-workers", &flags.event_workers.to_string()])
            .args(["--pool-mb", &flags.pool_mb.to_string()])
            // Tracing and the slowlog threshold are set explicitly too;
            // the traced run turns tracing on with `TRACE ON`.
            .args(["--slowlog-threshold-us", "10000"])
            .args(["--log-level", "warn"])
            .stdin(Stdio::null())
            .stdout(out.try_clone()?)
            .stderr(out)
            .spawn()?;
        let pid = child.id();
        Ok(Server {
            child: Some(child),
            port,
            pid,
        })
    }

    /// Connect, retrying while the server starts up; fails if it exits
    /// or does not listen within a minute.
    pub fn connect(&mut self) -> io::Result<Conn> {
        let t0 = Instant::now();
        loop {
            match TcpStream::connect(("127.0.0.1", self.port)) {
                Ok(s) => return Conn::new(s),
                Err(e) if t0.elapsed() > Duration::from_secs(60) => return Err(e),
                Err(_) => {
                    self.check_alive()?;
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    /// SIGKILL the server and wait until it is gone.
    pub fn kill9(&mut self) -> io::Result<()> {
        if let Some(mut c) = self.child.take() {
            c.kill()?;
            c.wait()?;
        }
        Ok(())
    }

    /// Fail if the server exited on its own.
    pub fn check_alive(&mut self) -> io::Result<()> {
        if let Some(c) = self.child.as_mut() {
            if let Some(status) = c.try_wait()? {
                return Err(io::Error::other(format!("dash-server exited: {status}")));
            }
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.kill9();
    }
}

/// Out-of-process counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// utime, stime over all threads, in clock ticks.
    pub utime: u64,
    pub stime: u64,
    /// On-CPU nanoseconds summed over all live threads
    /// (`/proc/<pid>/task/*/schedstat`; finer than the ticks above).
    pub cpu_ns: u64,
    /// Voluntary + involuntary context switches over all live threads.
    pub ctx_switches: u64,
    pub epoch_pins: u64,
    pub write_lock_waits: u64,
    pub eh_splits: u64,
    pub repl_log_bytes: u64,
    pub mem_used_bytes: u64,
    pub dead_bytes: u64,
}

fn read(path: PathBuf) -> io::Result<String> {
    std::fs::read_to_string(&path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// Snapshot `/proc` and `INFO` for the server `pid` via `conn`.
pub fn counters(pid: u32, conn: &mut Conn) -> io::Result<Counters> {
    let proc = PathBuf::from(format!("/proc/{pid}"));
    let stat = read(proc.join("stat"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').map_or(0, |i| i + 2)..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<u64> {
        f.get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other("short stat"))
    };
    let (utime, stime) = (tick(11)?, tick(12)?);
    let (mut cpu_ns, mut ctx_switches) = (0, 0);
    for task in std::fs::read_dir(proc.join("task"))? {
        let task = task?.path();
        // A thread may exit between the listing and the reads.
        let (Ok(status), Ok(sched)) = (read(task.join("status")), read(task.join("schedstat")))
        else {
            continue;
        };
        ctx_switches += field_u64(&status, "voluntary_ctxt_switches")?
            + field_u64(&status, "nonvoluntary_ctxt_switches")?;
        cpu_ns += sched
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| io::Error::other("bad schedstat"))?;
    }
    let info = conn.info()?;
    Ok(Counters {
        utime,
        stime,
        cpu_ns,
        ctx_switches,
        epoch_pins: field_u64(&info, "epoch_pins")?,
        write_lock_waits: field_u64(&info, "write_lock_waits")?,
        eh_splits: field_u64(&info, "eh_splits")?,
        repl_log_bytes: field_u64(&info, "repl_log_bytes")?,
        mem_used_bytes: field_u64(&info, "mem_used_bytes")?,
        dead_bytes: field_u64(&info, "dead_bytes")?,
    })
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// Microseconds per clock tick of `/proc/<pid>/stat` CPU times.
pub fn us_per_tick() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer selector and reads no memory.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    1e6 / if hz > 0 { hz as f64 } else { 100.0 }
}
