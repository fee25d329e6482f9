//! The `served` binary as a child process: spawn it with its defaults on a
//! free local port, time set-up to the first answered request, read its
//! memory high-water mark, stop it.

use crate::netio::Caller;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a freshly spawned server may take to accept connections.
const START_DEADLINE: Duration = Duration::from_secs(20);

/// A running `served --listen` child. Dropping it kills and reaps it.
#[derive(Debug)]
pub struct ServedProc {
    child: Child,
    /// From spawn to the first request's response arriving.
    pub setup: Duration,
    /// The connection the first request went over, for the run's calls.
    pub caller: Caller,
}

/// A local port that was free a moment ago.
fn free_port() -> Result<u16, String> {
    let probe = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    probe.local_addr().map(|a| a.port()).map_err(|e| format!("local_addr: {e}"))
}

/// Spawns `served --listen 127.0.0.1:PORT` (no other flags: the service's
/// defaults are what is measured) and sends `first` as soon as it accepts.
/// The first response is checked by the caller.
pub fn spawn(binary: &Path, first: &[u8]) -> Result<(ServedProc, Vec<u8>), String> {
    let port = free_port()?;
    let addr: SocketAddr = ([127, 0, 0, 1], port).into();
    let start = Instant::now();
    let child = Command::new(binary)
        .arg("--listen")
        .arg(addr.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
    let mut proc = Guard(Some(child));
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(stream) => break stream,
            Err(e) => {
                if let Some(status) = proc.0.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                    return Err(format!("served exited during start-up: {status}"));
                }
                if start.elapsed() > START_DEADLINE {
                    return Err(format!("served did not accept on {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    };
    let mut caller = Caller::over(stream)?;
    let (response, _) = caller.call(first)?;
    let setup = start.elapsed();
    let child = proc.0.take().expect("child present until handed over");
    Ok((ServedProc { child, setup, caller }, response))
}

/// Kills a child that never made it into a [`ServedProc`].
struct Guard(Option<Child>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(child) = self.0.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl ServedProc {
    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ServedProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of the process whose status file is `path`, in MiB.
pub fn vm_hwm_mb(path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM"))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad VmHWM line '{line}'"))?;
    Ok(kb / 1024.0)
}
