//! The closed-loop `closed_frontier` workload: one caller on one
//! connection sends the four contained alternating-load frontier searches,
//! each followed by a few cheap interactive calls, and waits for every
//! answer before the next request.

use crate::inproc::InProc;
use crate::netio::Caller;
use crate::serve::{
    check_first, first_line, is_overload, replay_layers, served_counters, serving_split,
    spawn_checked, top_up_setups, Call,
};
use crate::spans::Spans;
use crate::stats::{percentile, quiet_windows};
use crate::traffic::{check_response, fleet_json, parse_answer, rng, Mix, Oracle};
use crate::{Ctx, Report};
use battery_sched::optimal::OptimalScheduler;
use battery_sched::system::SystemConfig;
use engine::json::JsonValue;
use engine::{BatterySpec, Request};
use std::time::{Duration, Instant};

/// Cheap calls after each search.
const CHEAP_PER_SEARCH: usize = 4;
/// Passes measured at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// One frontier instance: metric suffix, request fleet, load, and where
/// the committed optimum lives.
struct Instance {
    key: &'static str,
    fleet: fn() -> String,
    load: &'static str,
    document: &'static str,
    fleet_name: &'static str,
}

const INSTANCES: [Instance; 4] = [
    Instance {
        key: "2xb1_ilsalt",
        fleet: || "\"battery\":\"B1\",\"count\":2".to_owned(),
        load: "ILs alt",
        document: "BENCH_optimal.json",
        fleet_name: "2xB1",
    },
    Instance {
        key: "3xb1_ilsalt",
        fleet: || "\"battery\":\"B1\",\"count\":3".to_owned(),
        load: "ILs alt",
        document: "BENCH_optimal.json",
        fleet_name: "3xB1",
    },
    Instance {
        key: "b1b2_ilsalt",
        fleet: || fleet_json("B1+B2", &[BatterySpec::b1(), BatterySpec::b2()]),
        load: "ILs alt",
        document: "BENCH_fleet.json",
        fleet_name: "B1+B2",
    },
    Instance {
        key: "2xb1_ils250",
        fleet: || "\"battery\":\"B1\",\"count\":2".to_owned(),
        load: "ILs 250",
        document: "BENCH_optimal.json",
        fleet_name: "2xB1",
    },
];

/// The search request of an instance: batch class, coarse grid, the
/// engine's default node budget.
fn search_line(instance: &Instance, id: u64) -> Vec<u8> {
    format!(
        "{{\"id\":{id},\"class\":\"batch\",{},\"disc\":\"coarse\",\"load\":\"{}\",\
         \"policy\":{{\"kind\":\"optimal\",\"budget\":{}}}}}\n",
        (instance.fleet)(),
        instance.load,
        battery_sched::optimal::DEFAULT_BUDGET
    )
    .into_bytes()
}

/// The committed optimal lifetime of an instance, by bit pattern.
fn committed_lifetime(instance: &Instance) -> Result<u64, String> {
    let path = instance.document;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let document = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = document.get("results").and_then(JsonValue::as_array).ok_or("no results")?;
    let str_of =
        |row: &JsonValue, key: &str| row.get(key).and_then(JsonValue::as_str).map(str::to_owned);
    rows.iter()
        .find(|row| {
            str_of(row, "fleet").as_deref() == Some(instance.fleet_name)
                && str_of(row, "load").as_deref() == Some(instance.load)
                && str_of(row, "policy").as_deref() == Some("optimal")
                && str_of(row, "backend").as_deref() == Some("discretized")
                && row.get("time_step").and_then(JsonValue::as_f64) == Some(0.05)
        })
        .and_then(|row| row.get("lifetime_minutes").and_then(JsonValue::as_f64))
        .map(f64::to_bits)
        .ok_or_else(|| {
            format!("{path} has no optimal row for {} {}", instance.fleet_name, instance.load)
        })
}

/// One pass's requests: each search followed by its cheap calls, as
/// `(line, template)`; searches carry no template.
fn pass_lines(mix: &Mix, seed: u64, pass: u64) -> Vec<(Vec<u8>, Option<u64>)> {
    let mut draw = rng(seed, 0xC105_0000 + pass);
    let mut lines = Vec::new();
    for instance in &INSTANCES {
        let id = lines.len() as u64;
        lines.push((search_line(instance, id), None));
        for _ in 0..CHEAP_PER_SEARCH {
            let id = lines.len() as u64;
            let template = mix.pick(&mut draw);
            lines.push((mix.line(template, id), Some(template)));
        }
    }
    lines
}

/// What one pass measured.
#[derive(Debug)]
struct Pass {
    search_secs: f64,
    cheap_ms: Vec<f64>,
    /// Search rows in instance order.
    rows: Vec<Option<JsonValue>>,
    /// Every call of the pass, for the traced serving split.
    calls: Vec<Call>,
}

fn run_pass(
    caller: &mut Caller,
    lines: &[(Vec<u8>, Option<u64>)],
    oracle: &Oracle,
    committed: &[u64],
    report: &mut Report,
    spans: &mut Spans,
) -> Result<Pass, String> {
    let mut pass =
        Pass { search_secs: 0.0, cheap_ms: Vec::new(), rows: Vec::new(), calls: Vec::new() };
    let mut searched = 0;
    for (k, (line, template)) in lines.iter().enumerate() {
        let sent = Instant::now();
        let (response, rtt) = caller.call(line)?;
        let received = Instant::now();
        let name = if template.is_some() { "call.cheap" } else { "call.search" };
        spans.record(name, sent, received, None, Some(k as u64));
        report.attempted += 1;
        match template {
            Some(template) => {
                pass.cheap_ms.push(rtt.as_secs_f64() * 1e3);
                if let Err(why) = check_response(oracle, *template, k as u64, &response) {
                    report.wrong(&why, is_overload(&why));
                }
            }
            None => {
                pass.search_secs += rtt.as_secs_f64();
                let row = parse_answer(&response, k as u64).and_then(|answer| {
                    let got = answer.row.get("lifetime_minutes").and_then(JsonValue::as_f64);
                    if got.map(f64::to_bits) == Some(committed[searched]) {
                        Ok(answer.row)
                    } else {
                        Err(format!(
                            "{}: optimal lifetime {got:?} differs from the committed {}",
                            INSTANCES[searched].key,
                            f64::from_bits(committed[searched])
                        ))
                    }
                });
                match row {
                    Ok(row) => pass.rows.push(Some(row)),
                    Err(why) => {
                        report.wrong(&why, is_overload(&why));
                        pass.rows.push(None);
                    }
                }
                searched += 1;
            }
        }
        pass.calls.push(Call {
            id: k as u64,
            search: template.is_none(),
            sent,
            received,
            response,
        });
    }
    Ok(pass)
}

fn prepare(oracle: &Oracle, mix: &Mix, lines: &[(Vec<u8>, Option<u64>)], threads: usize) {
    let templates: Vec<u64> = lines.iter().filter_map(|(_, t)| *t).collect();
    oracle.prepare(mix, &templates, threads);
}

fn committed() -> Result<Vec<u64>, String> {
    INSTANCES.iter().map(committed_lifetime).collect()
}

/// The untraced run against the spawned binary.
pub fn run(ctx: &Ctx, mix: &Mix, report: &mut Report) -> Result<(), String> {
    let committed = committed()?;
    let oracle = Oracle::default();
    let mut spans = Spans::new(false);
    let mut proc = spawn_checked(ctx, report)?;

    let started = Instant::now();
    let (mut search_secs, mut cheap_ms) = (Vec::new(), Vec::new());
    let mut pass_index = 0;
    while pass_index < MIN_PASSES || started.elapsed() < Duration::from_secs_f64(ctx.seconds) {
        let lines = pass_lines(mix, ctx.seed, pass_index as u64);
        prepare(&oracle, mix, &lines, ctx.threads);
        let pass = run_pass(&mut proc.caller, &lines, &oracle, &committed, report, &mut spans)?;
        report.line(format!(
            "pass {pass_index}: searches {:.3} s, cheap calls p50 {:.3} ms",
            pass.search_secs,
            percentile(&pass.cheap_ms, 50.0)
        ));
        search_secs.push(pass.search_secs);
        cheap_ms.extend(pass.cheap_ms);
        pass_index += 1;
    }
    let rss = proc.peak_rss_mb()?;
    drop(proc);
    top_up_setups(ctx, report)?;
    // The cheap calls pool every call: the delayed-ACK timer sets their
    // time, and it does not stall with the host. `search_s` is taken over
    // the quiet passes (see `quiet_windows`).
    report.metric("p50_ms", percentile(&cheap_ms, 50.0), "ms");
    report.metric("tail_ms", percentile(&cheap_ms, 90.0), "ms");
    let quiet: Vec<f64> = quiet_windows(&search_secs).into_iter().map(|p| search_secs[p]).collect();
    let search_s = quiet.iter().sum::<f64>() / quiet.len() as f64;
    report.metric("throughput_per_s", INSTANCES.len() as f64 / search_s, "1/s");
    report.metric("rss_peak_mb", rss, "MB");
    report.line(format!(
        "search_s {search_s:.4} s (mean of {} quiet passes of {})",
        quiet.len(),
        search_secs.len()
    ));
    Ok(())
}

/// Passes whose cheap lines the traced API replay uses.
const REPLAY_PASSES: u64 = 16;

/// The traced run: passes over an instrumented in-process server for half
/// the run's seconds (at least one), the search ablations called directly,
/// and the API and cache replays.
pub fn traced(ctx: &Ctx, mix: &Mix, report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let committed = committed()?;
    let oracle = Oracle::default();
    let mut host = InProc::start()?;
    let mut caller = Caller::connect(host.addr)?;
    let setup = spans.open("setup", None);
    let (first, _) = caller.call(&first_line())?;
    spans.close(setup);
    report.attempted += 1;
    if let Err(why) = check_first(&first) {
        report.wrong(&why, false);
    }
    let started = Instant::now();
    let passes_span = spans.open("phase.passes", None);
    let (mut calls, mut cheap_ms, mut rows) = (Vec::new(), Vec::new(), None);
    let mut pass_index = 0;
    while pass_index == 0 || started.elapsed() < Duration::from_secs_f64(ctx.seconds / 2.0) {
        let lines = pass_lines(mix, ctx.seed, pass_index);
        prepare(&oracle, mix, &lines, ctx.threads);
        let pass = run_pass(&mut caller, &lines, &oracle, &committed, report, spans)?;
        cheap_ms.extend(pass.cheap_ms);
        calls.extend(pass.calls);
        rows.get_or_insert(pass.rows);
        pass_index += 1;
    }
    spans.close(passes_span);
    drop(caller);
    host.finish();
    report.metric("traced.p50_ms", percentile(&cheap_ms, 50.0), "ms");
    report.metric("traced.tail_ms", percentile(&cheap_ms, 90.0), "ms");

    // The set-up line went first on this connection; the passes follow it.
    serving_split(host.stamps(), 1, &calls, passes_span, report, spans);
    let mean_batch = served_counters(&host, report);

    let rows = rows.unwrap_or_default();
    for (i, instance) in INSTANCES.iter().enumerate() {
        search_layer(instance, rows[i].as_ref(), committed[i], report, spans)?;
    }
    let cheap: Vec<Vec<u8>> = (0..REPLAY_PASSES)
        .flat_map(|p| pass_lines(mix, ctx.seed, p))
        .filter_map(|(line, template)| template.map(|_| line))
        .collect();
    replay_layers(&cheap, mean_batch, report, spans);
    Ok(())
}

/// The search layer of one instance: the served row's own counters, then
/// the two bound ablations called directly on the scheduler.
fn search_layer(
    instance: &Instance,
    row: Option<&JsonValue>,
    committed: u64,
    report: &mut Report,
    spans: &mut Spans,
) -> Result<(), String> {
    let key = instance.key;
    let num =
        |field: &str| row.and_then(|r| r.get(field)).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let wall_ms = num("wall_micros") / 1e3;
    let nodes = num("nodes_explored");
    report.metric(&format!("search.wall_ms.{key}"), wall_ms, "ms");
    report.metric(&format!("search.probe_ms.{key}"), num("bound_micros") / 1e3, "ms");
    report.metric(&format!("search.nodes.{key}"), nodes, "count");
    report.metric(&format!("search.nodes_per_s.{key}"), nodes / (wall_ms / 1e3).max(1e-9), "1/s");
    for (prune, field) in [
        ("memo", "memo_hits"),
        ("dominance", "dominance_prunes"),
        ("charge", "charge_bound_prunes"),
        ("availability", "availability_bound_prunes"),
        ("relax", "relax_bound_prunes"),
    ] {
        report.metric(&format!("search.prunes.{prune}.{key}"), num(field), "count");
    }

    let line = search_line(instance, 0);
    let request = Request::from_line(std::str::from_utf8(&line).expect("ASCII").trim_end())
        .map_err(|e| e.to_string())?;
    let scenario = &request.scenario;
    let fleet = scenario.fleet.to_fleet_spec().map_err(|e| e.to_string())?;
    let disc = scenario.disc.to_discretization().map_err(|e| e.to_string())?;
    let config = SystemConfig::from_fleet(fleet, disc);
    let profile = scenario.load.profile().map_err(|e| e.to_string())?;
    let load = config.discretize(&profile).map_err(|e| e.to_string())?;
    for (label, scheduler, span) in [
        ("no_relax", OptimalScheduler::new().without_relax_bound(), "search.no_relax"),
        (
            "charge_only",
            OptimalScheduler::new().without_availability_bound().without_relax_bound(),
            "search.charge_only",
        ),
    ] {
        let mut model = config.discretized_model();
        let start = Instant::now();
        let outcome = scheduler.find_optimal_with(&config, &load, &mut model);
        spans.record(span, start, Instant::now(), None, None);
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        report.attempted += 1;
        match outcome {
            Ok(outcome) if outcome.lifetime_minutes(&config).to_bits() == committed => {
                report.metric(&format!("search.{label}_ms.{key}"), elapsed_ms, "ms");
                report.metric(
                    &format!("search.{label}_nodes.{key}"),
                    outcome.nodes_explored as f64,
                    "count",
                );
            }
            Ok(outcome) => report.wrong(
                &format!(
                    "{key} {label}: lifetime {} differs from the committed {}",
                    outcome.lifetime_minutes(&config),
                    f64::from_bits(committed)
                ),
                false,
            ),
            Err(e) => report.wrong(&format!("{key} {label}: {e}"), false),
        }
    }
    Ok(())
}
