//! `served::Server` hosted in the benchmark process for the traced run.
//!
//! The accepted TCP connection is handed to `Server::serve_connection`
//! through two adapters that timestamp the moment the server pulls each
//! request line off its reader and the moment it finishes writing each
//! response line. Together with the client's send and receive times and
//! the response's own `latency_micros`, they split a call into read lag,
//! time in the server, write lag and transport, without touching the
//! server's code.

use served::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One instant per line, appended as lines pass an adapter.
type Stamps = Arc<Mutex<Vec<Instant>>>;

fn stamp(stamps: &Stamps, lines: usize) {
    if lines > 0 {
        let now = Instant::now();
        let mut log = stamps.lock().expect("stamp log poisoned");
        log.extend(std::iter::repeat_n(now, lines));
    }
}

fn newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// A `BufRead` that stamps each request line when the server consumes its
/// terminating newline.
struct PullStamps<R> {
    inner: R,
    pulled: Stamps,
}

impl<R: BufRead> Read for PullStamps<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        stamp(&self.pulled, newlines(&buf[..n]));
        Ok(n)
    }
}

impl<R: BufRead> BufRead for PullStamps<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        // The caller just saw these bytes through `fill_buf`, so the inner
        // buffer still holds them and this call does no I/O.
        let lines = self.inner.fill_buf().map(|buf| newlines(&buf[..amt.min(buf.len())]));
        self.inner.consume(amt);
        stamp(&self.pulled, lines.unwrap_or(0));
    }
}

/// A `Write` that stamps each response line once its newline is written.
struct WriteStamps<W> {
    inner: W,
    written: Stamps,
}

impl<W: Write> Write for WriteStamps<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        stamp(&self.written, newlines(&buf[..n]));
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The adapter logs of the accepted connection.
#[derive(Debug, Clone, Default)]
struct ConnStamps {
    pulled: Stamps,
    written: Stamps,
}

/// A traced in-process server listening on a local port for one
/// connection.
#[derive(Debug)]
pub struct InProc {
    pub server: Arc<Server>,
    pub addr: SocketAddr,
    stamps: ConnStamps,
    handler: Option<JoinHandle<()>>,
}

impl InProc {
    /// Starts a default-configured server that accepts one connection.
    pub fn start() -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let server = Arc::new(Server::start(ServeConfig::default()));
        let stamps = ConnStamps::default();
        let handler = {
            let server = Arc::clone(&server);
            let stamps = stamps.clone();
            std::thread::spawn(move || {
                if let Ok((stream, _)) = listener.accept() {
                    serve(&server, stream, &stamps);
                }
            })
        };
        Ok(Self { server, addr, stamps, handler: Some(handler) })
    }

    /// Waits for the connection handler to finish (it ends when the client
    /// closes) and shuts the server down.
    pub fn finish(&mut self) {
        if let Some(handler) = self.handler.take() {
            handler.join().expect("connection handler panicked");
        }
        self.server.shutdown();
    }

    /// A snapshot of the connection's pulled and written stamps.
    pub fn stamps(&self) -> (Vec<Instant>, Vec<Instant>) {
        let pulled = self.stamps.pulled.lock().expect("stamp log poisoned").clone();
        let written = self.stamps.written.lock().expect("stamp log poisoned").clone();
        (pulled, written)
    }
}

fn serve(server: &Server, stream: TcpStream, stamps: &ConnStamps) {
    let Ok(read_half) = stream.try_clone() else { return };
    let reader =
        PullStamps { inner: BufReader::new(read_half), pulled: Arc::clone(&stamps.pulled) };
    let writer = WriteStamps { inner: stream, written: Arc::clone(&stamps.written) };
    // A client that hangs up mid-stream ends the connection; the traced
    // run reports any missing answers itself.
    let _ = server.serve_connection(reader, writer);
}
