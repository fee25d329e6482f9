//! Request traffic generated from the workload seed, and the correctness
//! oracle every answer is checked against.
//!
//! Every request line is produced here; the program under test only ever
//! sees these lines. Each line maps to a *template* (a fixed scenario), and
//! the oracle answers each template once, in process, through the engine's
//! scalar one-off path (`engine::run_scenario*`), which the served answers
//! (micro-batched struct-of-arrays kernels) must match bit for bit.

use engine::json::JsonValue;
use engine::{run_scenario_with_cache, BatterySpec, Request, WorkerCache};
use std::collections::BTreeMap;
use std::sync::Mutex;
use workload::paper_loads::TestLoad;
use workload::random::SplitMix64;

/// The four deterministic policies, by protocol name.
const POLICIES: [&str; 4] = ["sequential", "round-robin", "best-of-two", "capacity-rr"];

/// Backends by protocol name with their draw weights: mostly discretized
/// (the paper's model and the batched kernel), the other three so every
/// backend's serving path stays exercised.
pub const BACKENDS: [(&str, u64); 4] =
    [("discretized", 7), ("continuous", 1), ("rv", 1), ("ideal", 1)];

/// Seeded random loads added to the ten paper loads of the hot set.
const HOT_RANDOM_LOADS: usize = 4;
/// Jobs per seeded random load.
const RANDOM_JOBS: usize = 30;

/// Deterministic sub-stream for `(seed, stream)`.
pub fn rng(seed: u64, stream: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SplitMix64::new(mix.next_u64())
}

fn weighted_backend(rng: &mut SplitMix64) -> &'static str {
    let total: u64 = BACKENDS.iter().map(|(_, w)| w).sum();
    let mut draw = rng.next_u64() % total;
    for (name, weight) in BACKENDS {
        if draw < weight {
            return name;
        }
        draw -= weight;
    }
    BACKENDS[0].0
}

fn battery_json(spec: &BatterySpec) -> String {
    format!(
        "{{\"name\":\"{}\",\"capacity\":{:?},\"c\":{:?},\"k_prime\":{:?}}}",
        spec.name, spec.capacity, spec.c, spec.k_prime
    )
}

pub fn fleet_json(name: &str, batteries: &[BatterySpec]) -> String {
    let list: Vec<String> = batteries.iter().map(battery_json).collect();
    format!("\"fleet\":{{\"name\":\"{name}\",\"batteries\":[{}]}}", list.join(","))
}

/// The hot systems: a handful of fleets every hot request draws from, so
/// every request after the first per system hits the system cache.
fn hot_systems() -> Vec<String> {
    vec![
        "\"battery\":\"B1\",\"count\":2".to_owned(),
        "\"battery\":\"B1\",\"count\":3".to_owned(),
        "\"battery\":\"B2\",\"count\":2".to_owned(),
        "\"battery\":\"B2\",\"count\":3".to_owned(),
        fleet_json("B1+B2", &[BatterySpec::b1(), BatterySpec::b2()]),
    ]
}

fn random_load_json(seed: u64) -> String {
    format!(
        "{{\"kind\":\"random\",\"name\":\"rand-{seed}\",\"seed\":{seed},\"currents\":[0.25,0.5],\
         \"job_duration\":1.0,\"idle_duration\":1.0,\"job_count\":{RANDOM_JOBS}}}"
    )
}

/// What a correct answer carries, by bit pattern (timing fields excluded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    pub lifetime_bits: Option<u64>,
    pub residual_bits: u64,
    pub switches: u64,
    pub decisions: u64,
}

impl Expected {
    pub fn of(result: &engine::ScenarioResult) -> Self {
        Self {
            lifetime_bits: result.lifetime_minutes.map(f64::to_bits),
            residual_bits: result.residual_charge.to_bits(),
            switches: result.switches,
            decisions: result.decisions,
        }
    }
}

/// One parsed `ok` response row.
#[derive(Debug, Clone)]
pub struct Answer {
    pub latency_micros: u64,
    pub row: JsonValue,
}

/// Parses one response line and checks its id and status; the row is
/// returned for the caller's value checks.
pub fn parse_answer(line: &[u8], id: u64) -> Result<Answer, String> {
    let text = std::str::from_utf8(line).map_err(|e| format!("response is not UTF-8: {e}"))?;
    let value = JsonValue::parse(text.trim_end()).map_err(|e| format!("bad response JSON: {e}"))?;
    if value.get("id").and_then(JsonValue::as_u64) != Some(id) {
        return Err(format!("response id mismatch (want {id}): {text}"));
    }
    if value.get("status").and_then(JsonValue::as_str) != Some("ok") {
        return Err(format!("error response: {}", text.trim_end()));
    }
    let latency_micros = value.get("latency_micros").and_then(JsonValue::as_u64).unwrap_or(0);
    let row = value.get("result").cloned().ok_or("ok response without a result")?;
    Ok(Answer { latency_micros, row })
}

fn field_bits(row: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match row.get(key) {
        Some(JsonValue::Null) => Ok(None),
        Some(value) => {
            value.as_f64().map(|v| Some(v.to_bits())).ok_or_else(|| format!("'{key}' not a number"))
        }
        None => Err(format!("row lacks '{key}'")),
    }
}

/// Compares a row to the oracle's expectation (lifetime and residual by bit
/// pattern, switches and decisions exactly).
pub fn check_row(row: &JsonValue, expected: &Expected) -> Result<(), String> {
    let got = Expected {
        lifetime_bits: field_bits(row, "lifetime_minutes")?,
        residual_bits: field_bits(row, "residual_charge")?.ok_or("null residual_charge")?,
        switches: row.get("switches").and_then(JsonValue::as_u64).ok_or("bad switches")?,
        decisions: row.get("decisions").and_then(JsonValue::as_u64).ok_or("bad decisions")?,
    };
    if got == *expected {
        Ok(())
    } else {
        Err(format!("wrong answer: got {got:?}, oracle {expected:?}"))
    }
}

/// The cheap-call traffic: deterministic policies on five hot systems,
/// paper and seeded random loads, all four backends. A *template* is one
/// (system, load, policy, backend) combination; request lines render
/// templates, and the oracle answers them.
#[derive(Debug)]
pub struct Mix {
    templates: Vec<String>,
}

impl Mix {
    pub fn new(seed: u64) -> Self {
        let mut loads: Vec<String> =
            TestLoad::all().iter().map(|l| format!("\"{}\"", l.name())).collect();
        let mut draw = rng(seed, 0x4c4f_4144);
        loads.extend((0..HOT_RANDOM_LOADS).map(|_| random_load_json(draw.next_u64() >> 12)));
        let mut templates = Vec::new();
        for system in hot_systems() {
            for load in &loads {
                for policy in POLICIES {
                    for (backend, _) in BACKENDS {
                        templates.push(format!(
                            "{system},\"load\":{load},\"policy\":\"{policy}\",\"backend\":\"{backend}\""
                        ));
                    }
                }
            }
        }
        Mix { templates }
    }

    /// Draws a template: systems, loads and policies uniformly, backends by
    /// weight.
    pub fn pick(&self, stream: &mut SplitMix64) -> u64 {
        let per_backend = BACKENDS.len();
        let combos = self.templates.len() / per_backend;
        let combo = stream.next_index(combos);
        let backend = weighted_backend(stream);
        let b = BACKENDS.iter().position(|(n, _)| *n == backend).unwrap_or(0);
        (combo * per_backend + b) as u64
    }

    /// One full request line with its trailing newline.
    pub fn line(&self, template: u64, id: u64) -> Vec<u8> {
        format!("{{\"id\":{id},{}}}\n", self.templates[template as usize]).into_bytes()
    }
}

/// The oracle: expected answers per template, computed once each.
#[derive(Debug, Default)]
pub struct Oracle {
    answers: Mutex<BTreeMap<u64, Result<Expected, String>>>,
}

impl Oracle {
    /// Answers every listed template not answered yet, on `threads` threads,
    /// each with one warm worker cache (the scalar path of
    /// `run_scenario_with_cache`).
    pub fn prepare(&self, mix: &Mix, templates: &[u64], threads: usize) {
        let mut todo: Vec<u64> = {
            let answers = self.answers.lock().expect("oracle lock poisoned");
            templates.iter().copied().filter(|t| !answers.contains_key(t)).collect()
        };
        todo.sort_unstable();
        todo.dedup();
        if todo.is_empty() {
            return;
        }
        let chunk = todo.len().div_ceil(threads.max(1));
        std::thread::scope(|scope| {
            for part in todo.chunks(chunk) {
                scope.spawn(move || {
                    let mut cache = WorkerCache::new();
                    for &template in part {
                        let line = mix.line(template, 0);
                        let answer = Request::from_line(
                            std::str::from_utf8(&line).expect("generated lines are UTF-8"),
                        )
                        .map_err(|e| format!("generated request does not parse: {e}"))
                        .and_then(|request| {
                            run_scenario_with_cache(&request.scenario, &mut cache)
                                .map(|r| Expected::of(&r))
                                .map_err(|e| format!("oracle: {e}"))
                        });
                        self.answers.lock().expect("oracle lock poisoned").insert(template, answer);
                    }
                });
            }
        });
    }

    /// The expected answer of a prepared template.
    pub fn expected(&self, template: u64) -> Result<Expected, String> {
        self.answers
            .lock()
            .expect("oracle lock poisoned")
            .get(&template)
            .cloned()
            .unwrap_or_else(|| Err(format!("template {template} was never prepared")))
    }
}

/// Checks one served response line against the oracle.
pub fn check_response(
    oracle: &Oracle,
    template: u64,
    id: u64,
    line: &[u8],
) -> Result<Answer, String> {
    let answer = parse_answer(line, id)?;
    check_row(&answer.row, &oracle.expected(template)?)?;
    Ok(answer)
}
