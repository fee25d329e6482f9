//! `perfbench`: the repository benchmark. One command measures one workload
//! end to end (or, traced, layer by layer), checks every answer against an
//! in-process oracle, and prints a JSON summary as its last stdout line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --served PATH/TO/served [--out DIR]
//! ```
//!
//! `perfbench/run.py` builds `served` and this binary and runs it; see
//! `perfbench/README.md` for the workloads and metrics.

mod frontier;
mod grid;
mod inproc;
mod layers;
mod netio;
mod proc;
mod serve;
mod spans;
mod stats;
mod traffic;

use spans::Spans;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: layers::CountingAlloc = layers::CountingAlloc;

/// The workloads, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["closed_frontier", "grid_sweep"];

/// End-to-end metrics every untraced run reports, with units.
const END_TO_END: [(&str, &str); 5] = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// Frontier instances of the search metrics.
const SEARCH_INSTANCES: [&str; 4] = ["2xb1_ilsalt", "3xb1_ilsalt", "b1b2_ilsalt", "2xb1_ils250"];

/// Per-layer metrics every traced run reports, with units. A workload that
/// does not exercise a layer reports 0 for it.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut list: Vec<(String, &'static str)> = [
        ("served.read_lag_p50_us", "us"),
        ("served.read_lag_p99_us", "us"),
        ("served.in_server_p50_us", "us"),
        ("served.in_server_p99_us", "us"),
        ("served.write_lag_p99_us", "us"),
        ("served.transport_p50_us", "us"),
        ("served.transport_p99_us", "us"),
        ("served.batch_size_mean", "count"),
        ("served.batches", "count"),
        ("served.overloaded", "count"),
        ("api.parse_ns", "ns"),
        ("api.render_ns", "ns"),
        ("api.run_requests_us.discretized", "us"),
        ("api.run_requests_us.continuous", "us"),
        ("api.run_requests_us.rv", "us"),
        ("api.run_requests_us.ideal", "us"),
        ("cache.hits", "count"),
        ("cache.builds", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.clone_us", "us"),
        ("cache.build_us", "us"),
        ("cache.kb_per_system", "KiB"),
        ("grid.us_per_cell.discretized", "us"),
        ("grid.us_per_cell.rv", "us"),
        ("grid.scaling_eff", "ratio"),
        ("grid.stream_us_per_cell", "us"),
        ("traced.p50_ms", "ms"),
        ("traced.tail_ms", "ms"),
    ]
    .iter()
    .map(|&(name, unit)| (name.to_owned(), unit))
    .collect();
    for instance in SEARCH_INSTANCES {
        for (stem, unit) in [
            ("search.wall_ms", "ms"),
            ("search.probe_ms", "ms"),
            ("search.nodes", "count"),
            ("search.nodes_per_s", "1/s"),
            ("search.prunes.memo", "count"),
            ("search.prunes.dominance", "count"),
            ("search.prunes.charge", "count"),
            ("search.prunes.availability", "count"),
            ("search.prunes.relax", "count"),
            ("search.no_relax_ms", "ms"),
            ("search.no_relax_nodes", "count"),
            ("search.charge_only_ms", "ms"),
            ("search.charge_only_nodes", "count"),
        ] {
            list.push((format!("{stem}.{instance}"), unit));
        }
    }
    list
}

/// What one run knows about the program under test.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub served: PathBuf,
    /// Worker threads of grid sweeps and the oracle.
    pub threads: usize,
}

/// The run's accounting and measured metrics.
#[derive(Debug, Default)]
pub struct Report {
    workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// Failures that are wrong answers or error rows (not `overloaded`).
    wrong: u64,
    metrics: Vec<(String, f64, String)>,
    /// Set-up time samples in seconds.
    pub setups: Vec<f64>,
}

/// Failure messages printed before the rest are only counted.
const SHOWN_FAILURES: u64 = 10;

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    /// Counts a failed operation; anything but an `overloaded` answer is
    /// also a wrong answer.
    pub fn wrong(&mut self, why: &str, overloaded: bool) {
        self.failed += 1;
        self.wrong += u64::from(!overloaded);
        if self.failed <= SHOWN_FAILURES {
            eprintln!("{}: failure: {why}", self.workload);
        }
    }

    /// A human-readable progress line on stdout.
    pub fn line(&mut self, text: String) {
        println!("{}: {text}", self.workload);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    served: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut served) =
        (None, None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--served" => served = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        served: served.ok_or("--served is required")?,
        out,
    })
}

/// Runs the workload and fills the report.
fn run(args: &Args, ctx: &Ctx, report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    match (args.workload.as_str(), args.trace) {
        ("closed_frontier", false) => frontier::run(ctx, &traffic::Mix::new(ctx.seed), report),
        ("closed_frontier", true) => {
            frontier::traced(ctx, &traffic::Mix::new(ctx.seed), report, spans)
        }
        ("grid_sweep", false) => grid::run(ctx, report),
        ("grid_sweep", true) => grid::traced(ctx, report, spans),
        (other, _) => Err(format!("unknown workload '{other}'")),
    }
}

/// The names each workload's untraced metrics were first specified by,
/// printed next to the benchmark's uniform names.
fn alias(workload: &str, metric: &str) -> Option<&'static str> {
    Some(match (workload, metric) {
        ("closed_frontier", "p50_ms") => "call_p50_ms",
        ("closed_frontier", "tail_ms") => "call_p90_ms",
        ("closed_frontier", "throughput_per_s") => "frontier_searches_per_s",
        ("grid_sweep", "p50_ms") => "sweep_p50_ms",
        ("grid_sweep", "tail_ms") => "sweep_p90_ms",
        ("grid_sweep", "throughput_per_s") => "grid_cells_per_s",
        _ => return None,
    })
}

fn json_number(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value:?}"))
    } else {
        Err(format!("non-finite metric value {value}"))
    }
}

/// Renders the summary line: every listed metric, in list order.
fn summary(report: &Report, listed: &[(String, &str)]) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in listed.iter().enumerate() {
        let value = report.value(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if i > 0 {
            metrics.push(',');
        }
        let _ =
            write!(metrics, "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(value)?);
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.wrong == 0,
        report.attempted.max(1),
        report.failed
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let ctx =
        Ctx { seed: args.seed, seconds: args.seconds, served: args.served.clone(), threads: nproc };
    let mut report = Report { workload: args.workload.clone(), ..Report::default() };
    let mut spans = Spans::new(args.trace);
    report.line(format!(
        "seed {} seconds {} trace {} on {nproc} cores",
        ctx.seed, ctx.seconds, args.trace
    ));
    if let Err(message) = run(&args, &ctx, &mut report, &mut spans) {
        eprintln!("perfbench: {}: {message}", args.workload);
        return ExitCode::FAILURE;
    }

    let listed: Vec<(String, &str)> = if args.trace {
        let measured: Vec<String> = report.metrics.iter().map(|(n, _, _)| n.clone()).collect();
        for (name, unit) in per_layer() {
            if !measured.contains(&name) {
                report.metric(&name, 0.0, unit);
            }
        }
        per_layer()
    } else {
        report.metric("setup_s", stats::median(&report.setups), "s");
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    if args.trace {
        if let Err(message) = write_spans(&args, &spans, &mut report) {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    }
    for (name, unit) in &listed {
        let value = report.value(name).unwrap_or(0.0);
        let named = alias(&args.workload, name).map_or_else(String::new, |a| format!(" ({a})"));
        report.line(format!("{name}{named} = {value:.6} {unit}"));
    }
    report.line(format!(
        "attempted {}, failed {}, wrong answers {}",
        report.attempted, report.failed, report.wrong
    ));
    match summary(&report, &listed) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the span file and prints each span name's self time.
fn write_spans(args: &Args, spans: &Spans, report: &mut Report) -> Result<(), String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let path = args.out.join(format!("spans-{}.jsonl", args.workload));
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    spans
        .write_jsonl(std::io::BufWriter::new(file))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    for (name, (count, total, own)) in spans.self_times() {
        report.line(format!(
            "span {name}: {count} spans, total {:.3} ms, self {:.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    report.line(format!("spans written to {}", path.display()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` agree, and every
    /// workload listed there exists.
    #[test]
    fn catalog_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = engine::json::JsonValue::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(engine::json::JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(|v| v.as_str()).expect("string").to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(engine::json::JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name").to_owned())
            .collect();
        assert!(workloads.iter().all(|w| WORKLOADS.contains(&w.as_str())), "{workloads:?}");
    }
}
