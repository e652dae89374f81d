//! The system under test as a child process: `afforest serve` on an
//! ephemeral loopback port with its `/metrics` sidecar.

use crate::workload::Spec;
use afforest_obs::registry::{parse_exposition, Scrape};
use afforest_serve::Client;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Accept workers: each holds one connection until its peer closes, so
/// they must outnumber the generator's two connections plus the
/// benchmark's control connection.
pub const WORKERS: usize = 4;

pub struct ServerProc {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: String,
    pub metrics_addr: String,
    pub wal_dir: Option<PathBuf>,
    /// From spawning the process to the first answered request.
    pub setup: Duration,
}

/// The `afforest serve` arguments for `spec` (without the graph path).
fn serve_flags(spec: &Spec, wal_dir: Option<&Path>, traced: bool) -> Vec<String> {
    let mut a: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &WORKERS.to_string(),
        "--metrics-addr",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(d) = wal_dir {
        a.push("--wal-dir".into());
        a.push(d.display().to_string());
    }
    if spec.shards > 0 {
        a.push("--shards".into());
        a.push(spec.shards.to_string());
    }
    if traced {
        a.extend(["--slow-log".to_string(), "0".to_string()]);
    }
    a
}

/// Has the kernel kill this process when the thread that spawned it
/// exits, so a benchmark killed mid-run leaves no server behind.
fn die_with_parent() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: PR_SET_PDEATHSIG takes one unsigned long signal number and
    // only sets this process's parent-death signal.
    unsafe {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
    }
}

impl ServerProc {
    /// Starts the server in `workdir` and waits until it has answered
    /// one request.
    pub fn spawn(
        afforest: &Path,
        graph: &Path,
        spec: &Spec,
        workdir: &Path,
        wal_dir: Option<PathBuf>,
        traced: bool,
    ) -> Result<ServerProc, String> {
        let start = Instant::now();
        let mut cmd = Command::new(afforest);
        // SAFETY: the hook runs in the forked child before exec and only
        // makes one async-signal-safe system call.
        unsafe {
            cmd.pre_exec(|| {
                die_with_parent();
                Ok(())
            });
        }
        let mut child = cmd
            .arg("serve")
            .arg(graph)
            .args(serve_flags(spec, wal_dir.as_deref(), traced))
            .current_dir(workdir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", afforest.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout);
        let mut addr = None;
        let mut metrics_addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("afforest serve exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.trim().strip_prefix("listening on ") {
                addr = rest.split_whitespace().next().map(str::to_string);
            } else if let Some(rest) = line.trim().strip_prefix("metrics on http://") {
                metrics_addr = rest.strip_suffix("/metrics").map(str::to_string);
            }
        }
        // Keep the pipe drained so the server never blocks on stdout.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut lines, &mut std::io::sink());
        });
        let mut proc = ServerProc {
            child,
            drain: Some(drain),
            addr: addr.unwrap_or_default(),
            metrics_addr: metrics_addr.unwrap_or_default(),
            wal_dir,
            setup: Duration::ZERO,
        };
        let mut c = proc.client()?;
        c.num_components()
            .map_err(|e| format!("first request: {e}"))?;
        proc.setup = start.elapsed();
        Ok(proc)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str())
            .and_then(|c| c.with_read_timeout(Some(Duration::from_secs(10))))
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Asks the server to shut down and waits for the process to end.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .client()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline && asked.is_ok() => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        asked
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One `GET /metrics` from the HTTP sidecar at `metrics_addr`.
pub fn scrape(metrics_addr: &str) -> Result<Scrape, String> {
    let mut s =
        TcpStream::connect(metrics_addr).map_err(|e| format!("metrics {metrics_addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    s.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut body = String::new();
    s.read_to_string(&mut body).map_err(|e| e.to_string())?;
    let text = body.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    parse_exposition(text)
}
