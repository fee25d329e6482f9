//! Stepping-kernel throughput: cell-steps per second of each backend's one
//! multi-battery stepping kernel, at N ∈ {1, 8, 64, 512} cells.
//!
//! The workload is the engine's hot loop in miniature: N cells are grouped
//! into four-battery systems (N = 1 keeps a single-battery system), each a
//! [`BatteryModel`] backend instance exactly as the scenario engine caches
//! it, and each measurement cycle resets every system and runs three rounds
//! of *serve each battery in turn → idle* with the paper's B1 cell on the
//! paper grid. Drain rates are chosen so no cell empties inside a cycle,
//! so every cycle advances every cell by the same nominal step count; a job
//! that stops early aborts the run, because its throughput number would
//! count steps that never elapsed.
//!
//! Output: a table on stdout and `BENCH_kernel.json` (override with a
//! positional path). The document also carries a `bound_probes` section —
//! the wall time (`bound_micros`) of the optimal search's root pass on the
//! coarse-grid alternating-load fleets, timed here because the service
//! column DP it runs is itself a kernel on the path of every optimal
//! request. `--smoke` shrinks the workload for CI.
//!
//! ```text
//! kernelbench [OUT] [--smoke]
//! ```

use battery_sched::backends::{DiscretizedKibam, RvDiffusion};
use battery_sched::optimal::OptimalScheduler;
use battery_sched::system::SystemConfig;
use battery_sched::BatteryModel;
use dkibam::Discretization;
use engine::json::JsonValue;
use kibam::BatteryParams;
use std::time::Instant;
use workload::paper_loads::TestLoad;

/// Cell counts measured (cells = batteries over all systems).
const CELL_COUNTS: [usize; 4] = [1, 8, 64, 512];

/// Batteries per system: the representative multi-battery fleet from the
/// grid sweeps.
const BATTERIES_PER_SYSTEM: usize = 4;

/// Steps served per job portion (one draw of 1 unit every 4 steps — the
/// paper's 0.5 A level on the paper grid).
const SERVE_STEPS: u64 = 120;
const DRAW_INTERVAL: u32 = 4;
const UNITS_PER_DRAW: u32 = 1;

/// Idle steps between rounds.
const IDLE_STEPS: u64 = 120;

/// Rounds per cycle: three rounds drain ~90 units of the active battery's
/// available charge — just under B1's Eq. 8 emptiness boundary, so every
/// cycle runs its full nominal step count.
const ROUNDS_PER_CYCLE: u64 = 3;

/// Nominal steps every cell advances per cycle (its own serve, its
/// siblings' serves as recovery, idle — all windows touch every cell).
fn cell_steps_per_cycle(batteries_per_system: usize) -> u64 {
    ROUNDS_PER_CYCLE * (SERVE_STEPS * batteries_per_system as u64 + IDLE_STEPS)
}

struct Options {
    out: String,
    smoke: bool,
}

fn parse_options() -> Options {
    let mut options = Options { out: "BENCH_kernel.json".to_owned(), smoke: false };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => options.smoke = true,
            other if !other.starts_with("--") => options.out = other.to_owned(),
            other => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    options
}

/// Runs `cycles` workload cycles over `systems`, best of 3, and returns the
/// cell-steps per second (minimum wall time filters scheduler noise).
fn measure<M: BatteryModel>(systems: &mut [M], cycles: u64) -> f64 {
    let batteries = systems[0].battery_count();
    let cells = (systems.len() * batteries) as u64;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..cycles {
            for system in systems.iter_mut() {
                system.reset();
            }
            for _ in 0..ROUNDS_PER_CYCLE {
                for system in systems.iter_mut() {
                    for active in 0..batteries {
                        let advance = system
                            .advance_job(active, SERVE_STEPS, DRAW_INTERVAL, UNITS_PER_DRAW)
                            .expect("active index is in range");
                        assert!(advance.completed, "a cell emptied inside a cycle");
                    }
                }
                for system in systems.iter_mut() {
                    system.advance_idle(IDLE_STEPS);
                }
            }
        }
        std::hint::black_box(&*systems);
        best = best.min(start.elapsed().as_secs_f64());
    }
    #[allow(clippy::cast_precision_loss)]
    let steps = (cells * cell_steps_per_cycle(batteries) * cycles) as f64;
    steps / best
}

/// Times the root pass (one service-column build shared by the LP-rounding
/// warm start and the relaxation bound, the warm-start policies, and the
/// charge and availability bounds) on the coarse-grid alternating-load
/// fleets. Every optimal request runs it once, so its wall time
/// (`bound_micros`, matching the per-cell field the scenario grids record)
/// belongs in the kernel trajectory next to the stepping throughput.
fn measure_bound_probes(smoke: bool) -> JsonValue {
    let repeats = if smoke { 1 } else { 3 };
    let profile = TestLoad::IlsAlt.profile();
    let mut rows = Vec::new();
    println!("root pass (ILs alt, coarse grid, best of {repeats}):");
    println!("{:>6} {:>14}", "fleet", "bound_micros");
    for count in [2usize, 3, 4] {
        let config = SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), count)
            .expect("coarse uniform fleet");
        let load = config.discretize(&profile).expect("the paper load discretizes");
        let mut best = u128::MAX;
        for _ in 0..repeats {
            let mut model = config.discretized_model();
            let start = Instant::now();
            let bounds = OptimalScheduler::probe_root_bounds(&config, &load, &mut model)
                .expect("the root-bound probe succeeds");
            std::hint::black_box(bounds);
            best = best.min(start.elapsed().as_micros());
        }
        println!("{count:>5}x {best:>14}");
        #[allow(clippy::cast_precision_loss)]
        rows.push(JsonValue::object(vec![
            ("fleet", JsonValue::String(format!("{count}xB1"))),
            ("load", JsonValue::String(TestLoad::IlsAlt.name().to_owned())),
            ("bound_micros", JsonValue::Number(best as f64)),
        ]));
    }
    println!();
    JsonValue::Array(rows)
}

fn main() {
    let options = parse_options();
    // Cycle counts scale inversely with N so every row does comparable
    // total work; smoke mode cuts the budget ~8x for CI.
    let budget_cell_steps: u64 = if options.smoke { 1_000_000 } else { 8_000_000 };
    let params = BatteryParams::itsy_b1();
    let disc = Discretization::paper_default();

    let mut backends = Vec::new();
    for backend in ["discretized", "rv"] {
        println!("{backend} kernel (cell-steps/second, best of 3):");
        println!("{:>6} {:>14}", "cells", "cell-steps/s");
        let mut rows = Vec::new();
        for cells in CELL_COUNTS {
            let batteries = BATTERIES_PER_SYSTEM.min(cells);
            let systems = cells / batteries;
            let cycles =
                (budget_cell_steps / (cells as u64 * cell_steps_per_cycle(batteries))).max(1);
            let throughput = match backend {
                "discretized" => measure(
                    &mut vec![DiscretizedKibam::new(&params, &disc, batteries); systems],
                    cycles,
                ),
                _ => {
                    measure(&mut vec![RvDiffusion::new(&params, &disc, batteries); systems], cycles)
                }
            };
            println!("{cells:>6} {throughput:>14.3e}");
            #[allow(clippy::cast_precision_loss)]
            rows.push(JsonValue::object(vec![
                ("cells", JsonValue::Number(cells as f64)),
                ("cell_steps_per_sec", JsonValue::Number(throughput)),
            ]));
        }
        println!();
        backends.push(JsonValue::object(vec![
            ("backend", JsonValue::String(backend.to_owned())),
            ("rows", JsonValue::Array(rows)),
        ]));
    }

    let bound_probes = measure_bound_probes(options.smoke);

    #[allow(clippy::cast_precision_loss)]
    let document = JsonValue::object(vec![
        ("smoke", JsonValue::Bool(options.smoke)),
        ("batteries_per_system", JsonValue::Number(BATTERIES_PER_SYSTEM as f64)),
        ("serve_steps", JsonValue::Number(SERVE_STEPS as f64)),
        ("draw_interval", JsonValue::Number(f64::from(DRAW_INTERVAL))),
        ("idle_steps", JsonValue::Number(IDLE_STEPS as f64)),
        ("backends", JsonValue::Array(backends)),
        ("bound_probes", bound_probes),
    ]);
    let json = document.render().expect("throughput numbers are finite");
    if let Err(error) = std::fs::write(&options.out, &json) {
        eprintln!("cannot write {}: {error}", options.out);
        std::process::exit(1);
    }
    println!("wrote {} bytes to {}", json.len(), options.out);
}
