//! The `grid_sweep` workload: `GridRun::stream` of a seeded random-load
//! grid into an in-memory sink, in process, at one worker per core. No
//! parse, queue or socket is involved.

use crate::spans::Spans;
use crate::stats::{median, percentile, quiet_windows};
use crate::traffic::{check_row, rng, Expected};
use crate::{Ctx, Report};
use engine::json::JsonValue;
use engine::{run_scenario, BackendKind, BatterySpec, FleetDef, GridRun, LoadSpec, PolicyKind};
use engine::{DiscSpec, Scenario, ScenarioSpec, StreamingResultWriter};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Seeded random loads per grid: 4 fleets × 256 loads × 4 policies × 2
/// backends = 8192 cells per sweep.
const LOADS: usize = 256;
/// Jobs per random load.
const JOBS: usize = 30;
/// Cells per claimed chunk: large enough that a chunk packs one
/// (system, backend) group of 128 lanes into each batch kernel call.
const CHUNK: usize = 256;
/// Rows of each sweep checked against the scalar one-off path.
const SAMPLE: usize = 8;
/// Sweeps measured at least, whatever `--seconds` says.
const MIN_SWEEPS: usize = 16;
/// Windows of consecutive sweeps the run's figures are computed over: three
/// per segment of `quiet_windows`.
const WINDOWS: usize = 9;
/// Repetitions of each traced single-layer measurement (median kept).
const LAYER_REPS: usize = 5;

fn spec(seed: u64, backends: Vec<BackendKind>) -> ScenarioSpec {
    let mut draw = rng(seed, 0x4752_4944);
    let (b1, b2) = (BatterySpec::b1(), BatterySpec::b2());
    ScenarioSpec {
        batteries: vec![],
        battery_counts: vec![],
        fleets: vec![
            FleetDef::uniform(b1.clone(), 2),
            FleetDef::uniform(b1.clone(), 3),
            FleetDef::uniform(b2.clone(), 2),
            FleetDef::mixed(vec![b1, b2]),
        ],
        discretizations: vec![DiscSpec::paper()],
        loads: (0..LOADS)
            .map(|_| LoadSpec::random_paper_levels(draw.next_u64() >> 12, JOBS))
            .collect(),
        policies: PolicyKind::deterministic().to_vec(),
        backends,
    }
}

fn full_spec(seed: u64) -> ScenarioSpec {
    spec(seed, vec![BackendKind::Discretized, BackendKind::Rv])
}

/// A `Write` sink that counts streamed rows, notes when the first row
/// arrives and keeps the bytes of the rows it was asked to sample.
struct Sink {
    /// Index of the row being written; `None` before the first.
    row: Option<usize>,
    first_row: Option<Instant>,
    wanted: BTreeMap<usize, Vec<u8>>,
}

impl Sink {
    fn new(wanted: &[usize]) -> Self {
        Self {
            row: None,
            first_row: None,
            wanted: wanted.iter().map(|&i| (i, Vec::new())).collect(),
        }
    }
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Each result row starts on a new line (see `StreamingResultWriter`).
        for piece in buf.split_inclusive(|&b| b == b'\n') {
            let body = piece.strip_suffix(b"\n").unwrap_or(piece);
            if let Some(row) = self.row {
                if !body.is_empty() && self.first_row.is_none() {
                    self.first_row = Some(Instant::now());
                }
                if let Some(bytes) = self.wanted.get_mut(&row) {
                    bytes.extend_from_slice(body);
                }
            }
            if piece.ends_with(b"\n") {
                self.row = Some(self.row.map_or(0, |r| r + 1));
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One timed sweep.
struct Sweep {
    seconds: f64,
    first_row: f64,
    cells: usize,
    sink: Sink,
}

fn sweep(spec: &ScenarioSpec, threads: usize, wanted: &[usize]) -> Result<Sweep, String> {
    let mut sink = Sink::new(wanted);
    let start = Instant::now();
    let summary = GridRun::new(spec)
        .threads(threads)
        .chunk(CHUNK)
        .stream(&mut sink)
        .map_err(|e| format!("grid run failed: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    let first_row = sink.first_row.map_or(seconds, |t| t.duration_since(start).as_secs_f64());
    Ok(Sweep { seconds, first_row, cells: summary.written, sink })
}

/// Checks the sampled rows of a sweep against `run_scenario` on the same
/// cells.
fn check_sample(sweep: &Sweep, scenarios: &[Scenario], report: &mut Report) {
    for (&index, bytes) in &sweep.sink.wanted {
        report.attempted += 1;
        let text = String::from_utf8_lossy(bytes);
        let checked = JsonValue::parse(text.trim_end_matches(','))
            .map_err(|e| e.to_string())
            .and_then(|row| {
                let expected = run_scenario(&scenarios[index]).map_err(|e| e.to_string())?;
                check_row(&row, &Expected::of(&expected))
            });
        if let Err(why) = checked {
            report.wrong(&format!("grid row {index}: {why}"), false);
        }
    }
}

fn sample_indices(seed: u64, sweep: u64, cells: usize) -> Vec<usize> {
    let mut draw = rng(seed, 0x5341_0000 + sweep);
    (0..SAMPLE).map(|_| draw.next_index(cells)).collect()
}

/// Sweeps the full grid until `seconds` pass (at least `MIN_SWEEPS`);
/// returns the sweeps' times and the cells per sweep.
fn sweeps(
    ctx: &Ctx,
    spec: &ScenarioSpec,
    seconds: f64,
    report: &mut Report,
    spans: &mut Spans,
) -> Result<Vec<Sweep>, String> {
    let scenarios = spec.expand();
    let started = Instant::now();
    let mut done = Vec::new();
    while done.len() < MIN_SWEEPS || started.elapsed() < Duration::from_secs_f64(seconds) {
        let wanted = sample_indices(ctx.seed, done.len() as u64, scenarios.len());
        let t0 = Instant::now();
        let result = sweep(spec, ctx.threads, &wanted)?;
        spans.record("grid.stream", t0, Instant::now(), None, Some(done.len() as u64));
        report.attempted += result.cells as u64;
        if result.cells != scenarios.len() {
            report.wrong(
                &format!("sweep streamed {} of {} rows", result.cells, scenarios.len()),
                false,
            );
        }
        check_sample(&result, &scenarios, report);
        done.push(result);
    }
    Ok(done)
}

/// Sweep figures of a run: consecutive sweeps are grouped into `WINDOWS`
/// windows, and the sweeps of the quiet windows (by mean sweep time, see
/// `quiet_windows`) are pooled. Returns the pool's p50 and p90 sweep time
/// (ms) and cells per second, and the median time to the first row over
/// all sweeps.
fn sweep_stats(done: &[Sweep]) -> (f64, f64, f64, f64) {
    let per_window = done.len().div_ceil(WINDOWS).max(1);
    let windows: Vec<&[Sweep]> = done.chunks(per_window).collect();
    let mean: Vec<f64> =
        windows.iter().map(|w| w.iter().map(|s| s.seconds).sum::<f64>() / w.len() as f64).collect();
    let pool: Vec<&Sweep> =
        quiet_windows(&mean).into_iter().flat_map(|w| windows[w].iter()).collect();
    let ms: Vec<f64> = pool.iter().map(|s| s.seconds * 1e3).collect();
    let cells: usize = pool.iter().map(|s| s.cells).sum();
    let rate = cells as f64 / pool.iter().map(|s| s.seconds).sum::<f64>();
    let firsts: Vec<f64> = done.iter().map(|s| s.first_row).collect();
    (percentile(&ms, 50.0), percentile(&ms, 90.0), rate, median(&firsts))
}

/// The untraced run.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let spec = full_spec(ctx.seed);
    let mut spans = Spans::new(false);
    let done = sweeps(ctx, &spec, ctx.seconds, report, &mut spans)?;
    let (p50, p90, rate, first) = sweep_stats(&done);
    report.setups.extend(done.iter().map(|s| s.first_row));
    report.metric("p50_ms", p50, "ms");
    report.metric("tail_ms", p90, "ms");
    report.metric("throughput_per_s", rate, "1/s");
    report.metric("rss_peak_mb", crate::proc::vm_hwm_mb("/proc/self/status")?, "MB");
    report.line(format!(
        "{} sweeps of {} cells at {} threads; first row after {:.4} s (median)",
        done.len(),
        spec.scenario_count(),
        ctx.threads,
        first
    ));
    Ok(())
}

/// Times one call of `f`, recording it as a span; returns seconds.
fn timed(
    name: &'static str,
    spans: &mut Spans,
    f: impl FnOnce() -> Result<(), String>,
) -> Result<f64, String> {
    let start = Instant::now();
    f()?;
    spans.record(name, start, Instant::now(), None, None);
    Ok(start.elapsed().as_secs_f64())
}

/// The traced run: per-backend single-thread cost, thread scaling and the
/// cost of streaming rows, then traced sweeps for the tracing overhead.
/// Each single-layer measurement repeats `LAYER_REPS` times, interleaved
/// with the others so that all of them see the same machine, and keeps
/// the median.
pub fn traced(ctx: &Ctx, report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let stream = |spec: &ScenarioSpec, threads: usize| sweep(spec, threads, &[]).map(|_| ());
    let full = full_spec(ctx.seed);
    let cells = full.scenario_count() as f64;
    let backends = [(BackendKind::Discretized, "discretized"), (BackendKind::Rv, "rv")];
    let one: Vec<ScenarioSpec> = backends.iter().map(|&(b, _)| spec(ctx.seed, vec![b])).collect();
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..LAYER_REPS {
        for ((_, key), grid) in backends.iter().zip(&one) {
            let secs = timed("grid.one_backend", spans, || stream(grid, 1))?;
            times.entry(key).or_default().push(secs * 1e6 / grid.scenario_count() as f64);
        }
        let single = timed("grid.stream_1_thread", spans, || stream(&full, 1))?;
        let multi = timed("grid.stream_n_threads", spans, || stream(&full, ctx.threads))?;
        times.entry("scaling").or_default().push(single / (multi * ctx.threads as f64));
        // The streaming writer's own cost: the rows of a collected run
        // pushed through `StreamingResultWriter` into a discarding sink.
        let rows = GridRun::new(&full)
            .threads(ctx.threads)
            .chunk(CHUNK)
            .collect()
            .map_err(|e| format!("grid run failed: {e}"))?;
        let push = timed("grid.stream_rows", spans, || {
            let mut writer =
                StreamingResultWriter::new(std::io::sink(), &full).map_err(|e| e.to_string())?;
            for row in &rows {
                writer.push(row).map_err(|e| e.to_string())?;
            }
            writer.finish().map(|_| ()).map_err(|e| e.to_string())
        })?;
        times.entry("stream").or_default().push(push * 1e6 / cells);
    }
    for (_, key) in backends {
        report.metric(&format!("grid.us_per_cell.{key}"), median(&times[key]), "us");
    }
    report.metric("grid.scaling_eff", median(&times["scaling"]), "ratio");
    report.metric("grid.stream_us_per_cell", median(&times["stream"]), "us");

    let done = sweeps(ctx, &full, ctx.seconds / 2.0, report, spans)?;
    let (p50, p90, _, _) = sweep_stats(&done);
    report.metric("traced.p50_ms", p50, "ms");
    report.metric("traced.tail_ms", p90, "ms");
    Ok(())
}
