//! The serving loop: a bounded request queue, micro-batching workers over
//! the engine's request API, and a line-protocol connection handler.

use crate::config::ServeConfig;
use crate::metrics::Metrics;
use engine::api::run_requests;
use engine::json::JsonValue;
use engine::{
    ErrorCode, PolicyKind, Request, RequestClass, Response, ServeError, SharedSystemCache,
    WorkerCache,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// The channel a connection's writer receives `(seq, response line)` on.
type Reply = Sender<(u64, String)>;

/// One queued request with its reply route: the connection's sequence
/// number (for in-order writing) and the channel back to its writer.
struct Job {
    seq: u64,
    request: Request,
    /// When the request entered the queue (latency measurement only).
    queued: Instant,
    reply: Reply,
}

/// The request queue and the workers waiting on it, under one mutex.
struct Queue {
    jobs: VecDeque<Job>,
    /// Indices of the idle workers, the most recently idle last.
    idle: Vec<usize>,
}

/// State shared between connections and workers.
struct ServerState {
    config: ServeConfig,
    queue: Mutex<Queue>,
    /// One wake-up per worker, so a submitter chooses which worker runs a
    /// new job (see [`worker_loop`]); all of them on shutdown.
    wakeups: Vec<Condvar>,
    shutting_down: AtomicBool,
    cache: Arc<SharedSystemCache>,
    metrics: Arc<Metrics>,
}

/// A running scheduling service: worker threads draining a bounded queue
/// of [`Request`]s in micro-batches through the engine's request API, with a
/// process-wide system cache shared by every worker.
pub struct Server {
    state: Arc<ServerState>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("config", &self.state.config).finish_non_exhaustive()
    }
}

impl Server {
    /// Starts the worker threads.
    #[must_use]
    pub fn start(config: ServeConfig) -> Self {
        let workers = config.workers.max(1);
        let state = Arc::new(ServerState {
            config: config.clone(),
            queue: Mutex::new(Queue { jobs: VecDeque::new(), idle: Vec::with_capacity(workers) }),
            wakeups: (0..workers).map(|_| Condvar::new()).collect(),
            shutting_down: AtomicBool::new(false),
            cache: Arc::new(SharedSystemCache::new()),
            metrics: Arc::new(Metrics::new()),
        });
        let workers = (0..workers)
            .map(|index| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state, index))
            })
            .collect();
        Self { state, workers: Mutex::new(workers) }
    }

    /// The process-wide system cache (for stats reporting).
    #[must_use]
    pub fn cache(&self) -> &SharedSystemCache {
        &self.state.cache
    }

    /// The service counters.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }

    /// Stops accepting work, answers everything still queued, and joins
    /// the workers. Idempotent.
    pub fn shutdown(&self) {
        let queue = self.state.queue.lock().unwrap_or_else(PoisonError::into_inner);
        // ordering: Relaxed — a latch only; the queue mutex orders the drain.
        self.state.shutting_down.store(true, Ordering::Relaxed);
        drop(queue);
        for wakeup in &self.state.wakeups {
            wakeup.notify_all();
        }
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for worker in workers.drain(..) {
            // A worker that panicked already answered with poisoned locks;
            // there is nothing left to salvage from its result.
            let _ = worker.join();
        }
    }

    /// Answers one protocol stream: reads line-delimited JSON requests
    /// from `input`, writes one response line per request to `output` **in
    /// request order**. Malformed, oversized or refused requests get error
    /// responses on the same stream; only transport failures end the
    /// connection early.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error of the underlying reader.
    pub fn serve_connection<R, W>(&self, mut input: R, output: W) -> std::io::Result<()>
    where
        R: BufRead,
        W: Write + Send,
    {
        let (reply, responses) = mpsc::channel::<(u64, String)>();
        let mut read_error = None;
        std::thread::scope(|scope| {
            let writer = scope.spawn(move || write_in_order(responses, output));
            let mut seq: u64 = 0;
            let mut line = Vec::new();
            loop {
                line.clear();
                match read_limited_line(&mut input, self.state.config.max_line_bytes, &mut line) {
                    Err(error) => {
                        read_error = Some(error);
                        break;
                    }
                    Ok(LineRead::Eof) => break,
                    Ok(LineRead::Line) => {
                        if line.iter().all(u8::is_ascii_whitespace) {
                            continue; // blank lines keep streams easy to script
                        }
                        self.submit_line(&line, seq, &reply);
                        seq += 1;
                    }
                    Ok(LineRead::Oversized) => {
                        self.state.metrics.request();
                        let error = ServeError::new(
                            ErrorCode::Oversized,
                            format!(
                                "request line exceeds {} bytes",
                                self.state.config.max_line_bytes
                            ),
                        );
                        self.answer_directly(seq, JsonValue::Null, error, &reply);
                        seq += 1;
                    }
                }
            }
            drop(reply); // writer exits once every job's sender is gone
            let _ = writer.join();
        });
        match read_error {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }

    /// Serves TCP connections, usually `listener.incoming()`: each one is
    /// a protocol stream ([`Server::serve_connection`]) on its own thread.
    /// Returns once `connections` ends and every open connection has
    /// closed. Failures are logged to stderr and the loop keeps serving.
    ///
    /// Every accepted stream gets `TCP_NODELAY`. Responses leave in
    /// whole-line writes, so Nagle's algorithm gains nothing; it would only
    /// hold an answer back while an earlier one is unacknowledged (a
    /// pipelining client) until the client's delayed ACK, ~40 ms later.
    pub fn serve_tcp<I>(&self, connections: I)
    where
        I: IntoIterator<Item = std::io::Result<TcpStream>>,
    {
        std::thread::scope(|scope| {
            for stream in connections {
                let stream = match stream {
                    Ok(stream) => stream,
                    Err(error) => {
                        eprintln!("error: accept failed: {error}");
                        continue;
                    }
                };
                if let Err(error) = stream.set_nodelay(true) {
                    eprintln!("warning: cannot set TCP_NODELAY: {error}");
                }
                let reader = match stream.try_clone() {
                    Ok(clone) => BufReader::new(clone),
                    Err(error) => {
                        eprintln!("error: cannot clone connection: {error}");
                        continue;
                    }
                };
                scope.spawn(move || {
                    if let Err(error) = self.serve_connection(reader, stream) {
                        eprintln!("error: connection failed: {error}");
                    }
                });
            }
        });
    }

    /// Parses one raw line and either queues it or answers it immediately
    /// (parse failure, admission refusal, overload).
    fn submit_line(&self, line: &[u8], seq: u64, reply: &Reply) {
        self.state.metrics.request();
        let parsed = std::str::from_utf8(line)
            .map_err(|error| ServeError {
                code: ErrorCode::Parse,
                message: format!("request line is not UTF-8: {error}"),
                offset: Some(error.valid_up_to()),
            })
            .and_then(|text| {
                Request::from_line(text).map_err(|error| ServeError::from_engine(&error))
            });
        let request = match parsed {
            Ok(request) => request,
            Err(error) => {
                self.answer_directly(seq, JsonValue::Null, error, reply);
                return;
            }
        };
        if let Some(error) = self.admission_error(&request) {
            self.answer_directly(seq, request.id, error, reply);
            return;
        }
        // xlint: allow(clock) -- queue-to-answer latency measurement only.
        let job = Job { seq, request, queued: Instant::now(), reply: reply.clone() };
        let mut queue = self.state.queue.lock().unwrap_or_else(PoisonError::into_inner);
        // ordering: Relaxed — checked under the queue mutex shutdown also takes.
        if self.state.shutting_down.load(Ordering::Relaxed)
            || queue.jobs.len() >= self.state.config.queue_capacity
        {
            drop(queue);
            self.state.metrics.overloaded();
            let error =
                ServeError::new(ErrorCode::Overloaded, "request queue is full; retry later");
            let response = Response::failure(job.request.id.clone(), error);
            let _ = reply.send((seq, render_response(&response)));
            return;
        }
        queue.jobs.push_back(job);
        let idle = queue.idle.pop();
        drop(queue);
        if let Some(worker) = idle {
            self.state.wakeups[worker].notify_one();
        }
    }

    /// Checks the request against its class's admission budget.
    fn admission_error(&self, request: &Request) -> Option<ServeError> {
        let PolicyKind::Optimal { budget } = request.scenario.policy else {
            return None;
        };
        let cap = match request.class {
            RequestClass::Interactive => self.state.config.interactive_budget,
            RequestClass::Batch => self.state.config.batch_budget,
        };
        (budget > cap).then(|| {
            ServeError::new(
                ErrorCode::Admission,
                format!(
                    "optimal budget {budget} exceeds the {} class cap {cap}",
                    request.class.name()
                ),
            )
        })
    }

    /// Sends an error response for a request that never reached the queue,
    /// echoing the request id when the line parsed far enough to have one.
    fn answer_directly(&self, seq: u64, id: JsonValue, error: ServeError, reply: &Reply) {
        self.state.metrics.answered(false, 0);
        let response = Response::failure(id, error);
        let _ = reply.send((seq, render_response(&response)));
    }
}

/// Whether the server told its workers to stop **and** the queue is empty.
fn drained(state: &ServerState, queue: &Queue) -> bool {
    // ordering: Relaxed — read under the queue mutex; see `shutdown`.
    state.shutting_down.load(Ordering::Relaxed) && queue.jobs.is_empty()
}

/// One worker: drain up to `batch_max` queued jobs, answer them in one
/// call to the engine's request API, repeat until shutdown.
///
/// Each batch gets a **fresh** worker cache over the process-wide shared
/// cache: tables are cloned from the shared prototypes (never recomputed),
/// worker memory stays bounded for a long-running process, and every
/// batch's reuse is visible in the shared hit counters.
///
/// A new job wakes the most recently idle worker, and a worker sends its
/// replies under the queue mutex it then waits on, so it is idle again
/// before any client can react to them. A closed-loop client is therefore
/// served by one worker, not by whichever one wins a wake-up race. This
/// bounds peak memory: the allocator keeps a per-thread arena, so every
/// worker that has run a large optimal search keeps that search's
/// footprint resident.
fn worker_loop(state: &ServerState, index: usize) {
    let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        while queue.jobs.is_empty() {
            if drained(state, &queue) {
                return;
            }
            // A spurious wake-up leaves this worker listed, in its place.
            if !queue.idle.contains(&index) {
                queue.idle.push(index);
            }
            queue = state.wakeups[index].wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
        // A submitter pops the worker it wakes; one that found work otherwise
        // must not stay listed as idle.
        queue.idle.retain(|&worker| worker != index);
        let take = queue.jobs.len().min(state.config.batch_max);
        let jobs: Vec<Job> = queue.jobs.drain(..take).collect();
        drop(queue);
        let answers = answer_batch(state, jobs);
        queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
        for (reply, seq, line) in answers {
            let _ = reply.send((seq, line));
        }
    }
}

/// Answers one batch through the engine and renders each response, paired
/// with its reply route. The batch's worker cache is freed on return.
fn answer_batch(state: &ServerState, jobs: Vec<Job>) -> Vec<(Reply, u64, String)> {
    let (requests, routes): (Vec<Request>, Vec<_>) = jobs
        .into_iter()
        .map(|Job { seq, request, queued, reply }| (request, (seq, queued, reply)))
        .unzip();
    let mut cache = WorkerCache::with_shared(Arc::clone(&state.cache));
    let mut responses = run_requests(&requests, &mut cache);
    state.metrics.batch(routes.len() as u64);
    let mut answers = Vec::with_capacity(routes.len());
    for ((seq, queued, reply), response) in routes.into_iter().zip(responses.iter_mut()) {
        // Latency is measurement-only; it never enters the result row.
        let elapsed = queued.elapsed().as_micros();
        response.latency_micros = Some(u64::try_from(elapsed).unwrap_or(u64::MAX));
        state.metrics.answered(response.is_ok(), response.latency_micros.unwrap_or(0));
        answers.push((reply, seq, render_response(response)));
    }
    answers
}

/// Renders a response as one output line. Result rows only carry finite
/// numbers, so rendering cannot fail in practice; if it ever does, the
/// substitute line keeps the protocol invariant of one response per
/// request.
pub(crate) fn render_response(response: &Response) -> String {
    response.to_json_value().render().unwrap_or_else(|error| {
        let fallback = Response::failure(
            JsonValue::Null,
            ServeError::new(ErrorCode::Internal, format!("response rendering failed: {error}")),
        );
        fallback
            .to_json_value()
            .render()
            .unwrap_or_else(|_| "{\"status\":\"error\",\"code\":\"internal\"}".to_owned())
    })
}

/// The outcome of reading one request line.
enum LineRead {
    /// A (possibly final, unterminated) line is in the buffer.
    Line,
    /// Nothing left to read.
    Eof,
    /// The line exceeded the limit; the rest of it was discarded.
    Oversized,
}

/// Reads one `\n`-terminated line of at most `max` bytes into `buf` (the
/// terminator is stripped). Longer lines are discarded to the terminator
/// and reported as [`LineRead::Oversized`], keeping the stream aligned on
/// line boundaries.
fn read_limited_line<R: BufRead>(
    input: &mut R,
    max: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    let limit = max as u64 + 1;
    let read = Read::take(&mut *input, limit).read_until(b'\n', buf)?;
    if read == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok(LineRead::Line);
    }
    if (read as u64) < limit {
        return Ok(LineRead::Line); // final line without a terminator
    }
    // The line is longer than the limit: skip to the next line boundary.
    loop {
        buf.clear();
        let read = Read::take(&mut *input, limit).read_until(b'\n', buf)?;
        if read == 0 || buf.last() == Some(&b'\n') {
            buf.clear();
            return Ok(LineRead::Oversized);
        }
    }
}

/// Receives `(seq, line)` pairs and writes the lines in sequence order,
/// buffering out-of-order arrivals. Each wake-up takes every response
/// already queued on the channel and sends all lines that are now in order
/// in **one** `write_all`, so a response never leaves as a line and a
/// separate newline (which Nagle's algorithm would hold back until the
/// peer's delayed ACK). On disconnect, anything still pending (gaps can only
/// come from a dropped reply sender) is flushed in order, again in one
/// write, so no response is silently lost.
fn write_in_order<W: Write>(
    responses: mpsc::Receiver<(u64, String)>,
    mut output: W,
) -> std::io::Result<()> {
    let mut pending: BTreeMap<u64, String> = BTreeMap::new();
    let mut next: u64 = 0;
    let mut bytes = Vec::new();
    for (seq, line) in responses.iter() {
        pending.insert(seq, line);
        pending.extend(responses.try_iter());
        bytes.clear();
        while let Some(line) = pending.remove(&next) {
            push_line(&mut bytes, &line);
            next += 1;
        }
        if !bytes.is_empty() {
            output.write_all(&bytes)?;
            output.flush()?;
        }
    }
    bytes.clear();
    for line in pending.values() {
        push_line(&mut bytes, line);
    }
    if !bytes.is_empty() {
        output.write_all(&bytes)?;
    }
    output.flush()
}

/// Appends one response line and its terminator to an outgoing buffer.
fn push_line(bytes: &mut Vec<u8>, line: &str) {
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` that logs the bytes of every `write` call separately.
    #[derive(Default)]
    struct Recording {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Asserts that every write ends on a line terminator (so, since the
    /// stream starts at a line boundary, carries only whole lines) and
    /// returns the lines in stream order.
    fn whole_lines(writes: &[Vec<u8>]) -> Vec<String> {
        let mut lines = Vec::new();
        for write in writes {
            let text = std::str::from_utf8(write).expect("responses are UTF-8");
            assert!(text.ends_with('\n'), "write {text:?} does not end on a line boundary");
            lines.extend(text.lines().map(str::to_owned));
        }
        lines
    }

    #[test]
    fn pipelined_responses_leave_in_whole_line_writes_in_request_order() {
        // Two single-request workers finish queued requests out of order,
        // and malformed lines are answered by the reader ahead of the
        // queued requests before them.
        let server = Server::start(ServeConfig { workers: 2, batch_max: 1, ..Default::default() });
        let calls = 24;
        let mut input = String::new();
        for id in 0..calls {
            let line = match id % 6 {
                0 => format!(
                    "{{\"id\":{id},\"battery\":\"B1\",\"count\":2,\"disc\":\"coarse\",\
                     \"load\":\"ILs alt\",\"policy\":{{\"kind\":\"optimal\",\"budget\":100000}}}}"
                ),
                3 => format!("{{\"id\":{id},\"battery\":"),
                _ => format!(
                    "{{\"id\":{id},\"battery\":\"B1\",\"count\":2,\"load\":\"CL 500\",\
                     \"policy\":\"round-robin\"}}"
                ),
            };
            input.push_str(&line);
            input.push('\n');
        }
        let mut output = Recording::default();
        server.serve_connection(input.as_bytes(), &mut output).expect("in-memory I/O cannot fail");
        server.shutdown();

        let lines = whole_lines(&output.writes);
        assert_eq!(lines.len(), calls);
        assert!(output.writes.len() <= calls, "a response was split across writes");
        for (index, line) in lines.iter().enumerate() {
            let response = JsonValue::parse(line).expect("every line is one whole response");
            let status = response.get("status").and_then(JsonValue::as_str);
            if index % 6 == 3 {
                assert_eq!(status, Some("error"), "line {index}");
            } else {
                assert_eq!(status, Some("ok"), "line {index}");
                let id = response.get("id").and_then(JsonValue::as_u64);
                assert_eq!(id, Some(index as u64), "responses must keep request order");
            }
        }
    }

    #[test]
    fn a_closed_loop_client_stays_on_the_most_recently_idle_worker() {
        let server = Server::start(ServeConfig { workers: 2, ..Default::default() });
        let idle = || server.state.queue.lock().expect("no worker panics").idle.clone();
        while idle().len() < 2 {
            std::thread::yield_now();
        }
        let initial = idle();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let address = listener.local_addr().expect("a bound listener has an address");
        std::thread::scope(|scope| {
            // Connected inside the scope, so a failed assertion drops the
            // client and ends the connection the scope then waits for.
            let mut client = TcpStream::connect(address).expect("loopback connect");
            scope.spawn(|| server.serve_tcp(listener.incoming().take(1)));
            let mut replies = BufReader::new(client.try_clone().expect("clone client stream"));
            for id in 0..10 {
                let line = format!(
                    "{{\"id\":{id},\"battery\":\"B1\",\"count\":2,\"load\":\"CL 500\",\
                     \"policy\":\"round-robin\"}}\n"
                );
                client.write_all(line.as_bytes()).expect("send");
                let mut answer = String::new();
                replies.read_line(&mut answer).expect("receive");
                assert!(answer.contains("\"status\":\"ok\""), "{answer}");
                // The answering worker holds the queue mutex from its reply
                // until it waits again, so this read sees it back on top of
                // the idle stack, and the other worker still below it.
                assert_eq!(idle(), initial, "call {id} left the most recently idle worker");
            }
            client.shutdown(std::net::Shutdown::Write).expect("half-close");
        });
        server.shutdown();
    }

    #[test]
    fn ready_responses_join_into_one_write_and_the_disconnect_drain_keeps_order() {
        let (reply, responses) = mpsc::channel();
        // Sequence 3 never arrives (as if its job's sender were dropped):
        // 0..=2 leave together once 0 is in, 4 and 5 in the drain.
        for seq in [2, 1, 0, 5, 4] {
            reply.send((seq, format!("line {seq}"))).expect("the receiver is alive");
        }
        drop(reply);
        let mut output = Recording::default();
        write_in_order(responses, &mut output).expect("in-memory I/O cannot fail");
        assert_eq!(whole_lines(&output.writes), ["line 0", "line 1", "line 2", "line 4", "line 5"]);
        assert_eq!(output.writes.len(), 2);
    }
}
