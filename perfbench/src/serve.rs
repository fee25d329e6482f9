//! Talking to `served`: spawning the binary and checking its first answer,
//! and, for the traced run, splitting each call into read lag, time in the
//! server, write lag and transport, then replaying the calls' lines
//! through the request API and the system cache.

use crate::inproc::InProc;
use crate::layers::{api_layer, cache_layer};
use crate::proc::{spawn, ServedProc};
use crate::spans::Spans;
use crate::stats::percentile;
use crate::traffic::{check_row, parse_answer, Expected, BACKENDS};
use crate::{Ctx, Report};
use std::time::{Duration, Instant};

/// Whether a failure message carries an `overloaded` answer.
pub fn is_overload(why: &str) -> bool {
    why.contains("\"overloaded\"")
}

/// Spawns a server, checks its first answer and records its set-up time.
pub fn spawn_checked(ctx: &Ctx, report: &mut Report) -> Result<ServedProc, String> {
    let (proc, response) = spawn(&ctx.served, &first_line())?;
    report.attempted += 1;
    if let Err(why) = check_first(&response) {
        report.wrong(&why, false);
    }
    report.setups.push(proc.setup.as_secs_f64());
    Ok(proc)
}

/// Set-up samples a run takes: set-up is a few milliseconds and the host
/// stalls for as long, so the run spawns and stops the server this many
/// times and reports the median.
const SETUP_SAMPLES: usize = 41;

/// Spawns and stops servers until the run holds `SETUP_SAMPLES` set-up
/// samples.
pub fn top_up_setups(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    while report.setups.len() < SETUP_SAMPLES {
        spawn_checked(ctx, report)?;
    }
    Ok(())
}

/// The set-up request: a cheap paper cell every workload can ask first.
pub fn first_line() -> Vec<u8> {
    b"{\"id\":0,\"battery\":\"B1\",\"count\":2,\"load\":\"CL 500\",\"policy\":\"round-robin\"}\n"
        .to_vec()
}

/// Checks the set-up request's answer against the oracle.
pub fn check_first(response: &[u8]) -> Result<(), String> {
    let request =
        engine::Request::from_line(std::str::from_utf8(&first_line()).expect("ASCII").trim_end())
            .map_err(|e| e.to_string())?;
    let expected = engine::run_scenario(&request.scenario).map_err(|e| e.to_string())?;
    let answer = parse_answer(response, 0)?;
    check_row(&answer.row, &Expected::of(&expected))
}

/// One closed-loop call as the client saw it.
#[derive(Debug)]
pub struct Call {
    /// The request id.
    pub id: u64,
    /// A search call; the split's figures cover the cheap calls only.
    pub search: bool,
    pub sent: Instant,
    pub received: Instant,
    pub response: Vec<u8>,
}

/// Splits every answered call of a traced connection into read lag, time
/// in the server, write lag and transport, from the connection's adapter
/// stamps (pulled, written), and records the spans. The calls went over
/// the connection in order, after `skip` earlier lines. The reported
/// percentiles cover the cheap calls; every call gets spans.
pub fn serving_split(
    (pulled, written): (Vec<Instant>, Vec<Instant>),
    skip: usize,
    calls: &[Call],
    parent: Option<usize>,
    report: &mut Report,
    spans: &mut Spans,
) {
    let (mut read, mut inside, mut write, mut transport) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let stamped = pulled.iter().zip(&written).skip(skip);
    for (k, (call, (&pull, &wrote))) in calls.iter().zip(stamped).enumerate() {
        let Ok(answer) = parse_answer(&call.response, call.id) else {
            continue;
        };
        let latency = Duration::from_micros(answer.latency_micros);
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        if !call.search {
            read.push(us(pull.saturating_duration_since(call.sent)));
            inside.push(answer.latency_micros as f64);
            write.push(us(wrote.saturating_duration_since(pull).saturating_sub(latency)));
            transport.push(us(call.received.saturating_duration_since(wrote)));
        }
        let id = Some(k as u64);
        let root = spans.record("request", call.sent, call.received, parent, id);
        spans.record("served.read_lag", call.sent, pull, root, id);
        let server = spans.record("served.server", pull, wrote, root, id);
        spans.record("served.in_server", pull, (pull + latency).min(wrote), server, id);
        spans.record("served.transport", wrote, call.received, root, id);
    }
    report.metric("served.read_lag_p50_us", percentile(&read, 50.0), "us");
    report.metric("served.read_lag_p99_us", percentile(&read, 99.0), "us");
    report.metric("served.in_server_p50_us", percentile(&inside, 50.0), "us");
    report.metric("served.in_server_p99_us", percentile(&inside, 99.0), "us");
    report.metric("served.write_lag_p99_us", percentile(&write, 99.0), "us");
    report.metric("served.transport_p50_us", percentile(&transport, 50.0), "us");
    report.metric("served.transport_p99_us", percentile(&transport, 99.0), "us");
}

/// Reports the in-process server's own counters; returns its mean batch
/// size.
pub fn served_counters(host: &InProc, report: &mut Report) -> f64 {
    let snapshot = host.server.metrics().snapshot();
    let cache = host.server.cache().stats();
    let mean_batch = snapshot.batched_requests as f64 / snapshot.batches.max(1) as f64;
    report.metric("served.batch_size_mean", mean_batch, "count");
    report.metric("served.batches", snapshot.batches as f64, "count");
    report.metric("served.overloaded", snapshot.overloaded as f64, "count");
    report.metric("cache.hits", cache.hits as f64, "count");
    report.metric("cache.builds", cache.builds as f64, "count");
    let lookups = (cache.hits + cache.builds).max(1) as f64;
    report.metric("cache.hit_ratio", cache.hits as f64 / lookups, "ratio");
    mean_batch
}

/// Lines replayed by the single-thread layer measurements.
const REPLAY_LINES: usize = 4000;
/// Batches timed by the cache measurement.
const CACHE_BATCHES: usize = 64;

/// The request-API and system-cache replays of request lines (at most
/// `REPLAY_LINES` of them).
pub fn replay_layers(lines: &[Vec<u8>], mean_batch: f64, report: &mut Report, spans: &mut Spans) {
    let lines = &lines[..lines.len().min(REPLAY_LINES)];
    let batch = mean_batch.round().max(1.0) as usize;
    let api = api_layer(lines, batch, spans);
    report.metric("api.parse_ns", api.parse_ns, "ns");
    report.metric("api.render_ns", api.render_ns, "ns");
    for ((backend, _), us) in BACKENDS.iter().zip(api.run_requests_us) {
        report.metric(&format!("api.run_requests_us.{backend}"), us, "us");
    }
    let cache = cache_layer(lines, batch, CACHE_BATCHES, spans);
    report.metric("cache.clone_us", cache.clone_us, "us");
    report.metric("cache.build_us", cache.build_us, "us");
    report.metric("cache.kb_per_system", cache.kb_per_system, "KiB");
}
