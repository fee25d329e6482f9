//! A closed-loop TCP caller: one request in flight at a time.
//!
//! The caller acknowledges with the kernel's default (delayed) ACK, as a
//! plain client would. `served` writes each response as two writes on a
//! socket without `TCP_NODELAY`, so every round trip includes ~40 ms of
//! that ACK timer; README, "The caller's ACK", says why the benchmark keeps
//! it and what it cannot see because of it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A blocking closed-loop connection.
#[derive(Debug)]
pub struct Caller {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Caller {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Self::over(writer)
    }

    /// Wraps an already connected stream.
    pub fn over(writer: TcpStream) -> Result<Self, String> {
        writer.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Self { reader, writer, line: Vec::new() })
    }

    /// Sends one request line and waits for its response line; returns the
    /// response and the round-trip time.
    pub fn call(&mut self, request: &[u8]) -> Result<(Vec<u8>, Duration), String> {
        let start = Instant::now();
        self.writer.write_all(request).map_err(|e| format!("send failed: {e}"))?;
        self.line.clear();
        let read =
            self.reader.read_until(b'\n', &mut self.line).map_err(|e| format!("receive: {e}"))?;
        if read == 0 || self.line.last() != Some(&b'\n') {
            return Err("server closed the connection".to_owned());
        }
        Ok((std::mem::take(&mut self.line), start.elapsed()))
    }
}
