//! The server as a child process: spawn, find its port, read its CPU time
//! and memory from `/proc`, stop it by closing its stdin.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

pub struct ServerProc {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn `bin` on an ephemeral port and wait for its `listening` line.
    /// `tmp` becomes the server's `TMPDIR`, which keeps its paged tables and
    /// spill files inside the checkout.
    pub fn spawn(bin: &Path, flags: &[&str], tmp: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(flags)
            .args(["--port", "0"])
            .env("TMPDIR", tmp)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut said = String::new();
        let addr = loop {
            let mut line = String::new();
            let read = stderr.read_line(&mut line);
            if let Some(rest) = line.split("listening on ").nth(1) {
                if let Ok(addr) = rest.split_whitespace().next().unwrap_or("").parse() {
                    break addr;
                }
            }
            said.push_str(&line);
            if !matches!(read, Ok(n) if n > 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server exited before listening: {}", said.trim()));
            }
        };
        Ok(ServerProc {
            child,
            stderr,
            addr,
        })
    }

    /// CPU time the process has used (user + system, all threads), in ns.
    ///
    /// Summed from each thread's `schedstat`, which counts in ns; the
    /// `stat` fields count in 10 ms ticks, coarser than a whole window of
    /// ad-hoc statements.  Connection threads live as long as their
    /// connection, so a delta over the window loses no thread.
    pub fn cpu_ns(&self) -> Result<u64, String> {
        let dir = format!("/proc/{}/task", self.child.id());
        let mut total = 0u64;
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
            let path = entry
                .map_err(|e| format!("{dir}: {e}"))?
                .path()
                .join("schedstat");
            // A thread may exit between the listing and the read.
            if let Ok(text) = std::fs::read_to_string(&path) {
                total += text
                    .split_whitespace()
                    .next()
                    .and_then(|ns| ns.parse::<u64>().ok())
                    .ok_or_else(|| format!("{}: unexpected format", path.display()))?;
            }
        }
        Ok(total)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn rss_hwm_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// Close the server's stdin (its shutdown signal) and reap it.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = std::io::Read::read_to_string(&mut self.stderr, &mut rest);
                    return Err(format!("server exited with {status}: {}", rest.trim()));
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("server did not stop within 15 s of stdin EOF".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    /// Error paths must not leave a server behind; after `stop` this is a
    /// no-op on an already reaped child.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
