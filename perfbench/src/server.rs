//! The server under test: building `privbasis-cli` from the checkout, running
//! `serve` as a child process on OS-chosen ports, and stopping it.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bearer token for the admin ops the harness uses to register datasets.
pub const ADMIN_TOKEN: &str = "perfbench";

/// How long a spawned server may take to print its ready line.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Builds `privbasis-cli` in release mode from the checkout at `root` and returns the
/// binary's path (honouring `CARGO_TARGET_DIR`).
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "privbasis",
            "--bin",
        ])
        .arg("privbasis-cli")
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building privbasis-cli failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let bin = target.join("release").join("privbasis-cli");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "built server binary not found at {}",
            bin.display()
        ))
    }
}

/// A running `privbasis-cli serve` child. Dropping it kills and reaps the process,
/// so an error path never leaves a server (or its ports) behind.
pub struct Server {
    child: Option<Child>,
    pub tcp: SocketAddr,
    pub http: SocketAddr,
    stderr_tail: Arc<Mutex<Vec<String>>>,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `serve --port 0 --http-port 0 --threads 2` with admin ops enabled,
    /// serving `first` (`NAME=FILE`, unsharded, with `budget`) and, when given, a
    /// fresh state dir; returns once the server printed its ready line.
    pub fn spawn(
        bin: &Path,
        first: &str,
        budget: f64,
        state_dir: Option<&Path>,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--port", "0", "--http-port", "0", "--threads", "2"])
            .args(["--admin-token", ADMIN_TOKEN])
            .args(["--dataset", first, "--budget", &budget.to_string()]);
        if let Some(dir) = state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let stderr_tail = Arc::new(Mutex::new(Vec::new()));
        let tail = Arc::clone(&stderr_tail);
        // The drain thread keeps reading after the ready line, so slow-query logs
        // can never fill the pipe and stall the server.
        let drain = std::thread::spawn(move || {
            let mut reader = BufReader::new(stderr);
            let mut http = None;
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let text = line.trim_end().to_string();
                if let Some(addr) = text.strip_prefix("pb-service http gateway on ") {
                    http = addr.parse::<SocketAddr>().ok();
                }
                if let Some(rest) = text.strip_prefix("pb-service listening on ") {
                    let tcp = rest.split_whitespace().next().and_then(|a| a.parse().ok());
                    let _ = ready_tx.send((tcp, http));
                }
                let mut tail = tail.lock().expect("stderr tail lock poisoned");
                tail.push(text);
                if tail.len() > 20 {
                    tail.remove(0);
                }
            }
            // Swallow anything left so the pipe never blocks the child.
            let _ = reader.read_to_end(&mut Vec::new());
        });
        let mut server = Server {
            child: Some(child),
            tcp: SocketAddr::from(([127, 0, 0, 1], 0)),
            http: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr_tail,
            drain: Some(drain),
        };
        match ready_rx.recv_timeout(READY_TIMEOUT) {
            Ok((Some(tcp), Some(http))) => {
                server.tcp = tcp;
                server.http = http;
                Ok(server)
            }
            _ => Err(format!(
                "server did not become ready: {}",
                server.stderr_tail().join(" | ")
            )),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map(Child::id).unwrap_or(0)
    }

    /// The last lines the server wrote to stderr (for error messages).
    pub fn stderr_tail(&self) -> Vec<String> {
        self.stderr_tail
            .lock()
            .expect("stderr tail lock poisoned")
            .clone()
    }

    /// Peak resident set size (`VmHWM`) of the server process, in MB (10⁶ bytes).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb * 1024.0 / 1e6)
            .ok_or_else(|| "no VmHWM line in the server's /proc status".to_string())
    }

    /// Stops the server with the protocol `shutdown` op and waits for it to exit;
    /// kills it if it does not exit in time.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked = pb_proto::PbClient::connect(self.tcp)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let mut child = self.child.take().expect("server child present");
        let deadline = Instant::now() + Duration::from_secs(20);
        let exited = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => break None,
            }
        };
        if exited.is_none() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        match (acked, exited) {
            (Ok(()), Some(status)) if status.success() => Ok(()),
            (Err(e), _) => Err(format!("shutdown op failed: {e}")),
            (_, Some(status)) => Err(format!("server exited with {status}")),
            (_, None) => Err("server did not exit after shutdown; killed".to_string()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}
