//! The system under test as a child process: a real `xmlpruned` on an
//! ephemeral loopback port, observed only from outside — `/metrics`
//! over HTTP and `/proc/<pid>` for CPU, memory and context switches.

use crate::http::{oneshot, Body};
use std::io::Read;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use xproj_testkit::{parse_json, Json};

/// A running daemon. Dropping it kills the child, so a failed run never
/// leaves one behind on a port; [`Daemon::shutdown`] is the clean exit.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    port_file: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.port_file);
    }
}

impl Daemon {
    /// Starts `bin` with the benchmark's fixed flags (on `cpu` alone when
    /// pinning) and waits until `/healthz` answers.
    pub fn spawn(bin: &Path, out_dir: &Path, cpu: Option<usize>) -> Result<Daemon, String> {
        let port_file = out_dir.join(format!("port-{}", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = match cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(cpu.to_string()).arg(bin);
                c
            }
            None => Command::new(bin),
        };
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--reactor-threads",
            "1",
            "--port-file",
        ])
        .arg(&port_file)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        // From here on the guard owns the child.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            port_file,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(port) = std::fs::read_to_string(&daemon.port_file)
                .ok()
                .and_then(|s| s.trim().parse::<u16>().ok())
            {
                daemon.addr.set_port(port);
                if matches!(
                    oneshot(daemon.addr, "GET", "/healthz", Body::None),
                    Ok((200, _))
                ) {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() >= deadline {
                return Err("daemon did not become healthy within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Registers the auction DTD; returns its id.
    pub fn register_dtd(&self, dtd_text: &str) -> Result<String, String> {
        let (status, body) = oneshot(
            self.addr,
            "POST",
            "/v1/dtd?root=site",
            Body::Full(dtd_text.as_bytes()),
        )
        .map_err(|e| format!("register dtd: {e}"))?;
        let text = String::from_utf8_lossy(&body).into_owned();
        if status != 200 {
            return Err(format!("register dtd: {status} {text}"));
        }
        parse_json(&text)
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string))
            .ok_or_else(|| format!("register dtd: no id in {text}"))
    }

    /// Scrapes `/metrics` on a fresh connection.
    pub fn metrics(&self) -> Result<Json, String> {
        let (status, body) = oneshot(self.addr, "GET", "/metrics", Body::None)
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("GET /metrics: status {status}"));
        }
        parse_json(&String::from_utf8_lossy(&body)).map_err(|e| format!("GET /metrics: {e}"))
    }

    /// Graceful shutdown: drains, waits for the exit, and requires a
    /// clean report (`0 aborted`, exit status 0).
    pub fn shutdown(mut self) -> Result<(), String> {
        let (status, _) = oneshot(self.addr, "POST", "/admin/shutdown", Body::None)
            .map_err(|e| format!("POST /admin/shutdown: {e}"))?;
        if status != 200 {
            return Err(format!("POST /admin/shutdown: status {status}"));
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        let exit = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(exit) => break exit,
                None if Instant::now() >= deadline => {
                    return Err("daemon did not exit within 15 s of /admin/shutdown".to_string())
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let mut log = String::new();
        if let Some(mut out) = self.child.stdout.take() {
            let _ = out.read_to_string(&mut log);
        }
        if !exit.success() || !log.contains(" 0 aborted") {
            return Err(format!("unclean daemon shutdown ({exit}): {}", log.trim()));
        }
        Ok(())
    }
}

/// Counter at `path` (dot-separated) of a parsed `/metrics` document.
pub fn metric(doc: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(doc, |j, key| j.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn tasks(pid: u32) -> Vec<PathBuf> {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .map(|dir| dir.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default()
}

/// What `/proc` says a process has consumed so far, summed over threads.
#[derive(Clone, Copy, Default)]
pub struct ProcUsage {
    /// Nanoseconds on a CPU (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Voluntary + involuntary context switches.
    pub ctxsw: u64,
}

impl ProcUsage {
    pub fn read(pid: u32) -> ProcUsage {
        let mut u = ProcUsage::default();
        for task in tasks(pid) {
            if let Ok(s) = std::fs::read_to_string(task.join("schedstat")) {
                u.cpu_ns += s
                    .split_whitespace()
                    .next()
                    .and_then(|x| x.parse::<u64>().ok())
                    .unwrap_or(0);
            }
            if let Ok(s) = std::fs::read_to_string(task.join("status")) {
                u.ctxsw += s
                    .lines()
                    .filter(|l| l.contains("ctxt_switches"))
                    .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                    .sum::<u64>();
            }
        }
        u
    }

    pub fn since(self, earlier: ProcUsage) -> ProcUsage {
        ProcUsage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctxsw: self.ctxsw.saturating_sub(earlier.ctxsw),
        }
    }
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
