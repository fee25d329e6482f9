//! Grid-vs-one-off equivalence: a chunked grid run, whose workers reuse
//! cached systems (recovery, service and RV step tables, backend instances
//! reset between cells) across every cell they claim, must be
//! **bit-identical** to running each cell alone through [`run_scenario`]
//! with freshly built tables — same lifetimes (to the last mantissa bit),
//! same residual charge, same switch and decision counts — across uniform
//! and mixed fleets, every paper load, seeded random loads and both
//! stepped backends (discretized KiBaM and RV diffusion). The results must
//! also not depend on the worker count, which changes how the grid is cut
//! into chunks and which cells share a worker cache.

use engine::{
    run_scenario, BackendKind, BatterySpec, DiscSpec, FleetDef, GridRun, LoadSpec, PolicyKind,
    ScenarioResult, ScenarioSpec,
};
use workload::paper_loads::TestLoad;

/// Both fleet shapes of the paper experiments: the uniform pair and the
/// heterogeneous B1+B2 mix (two type groups in one system).
fn spec_with(loads: Vec<LoadSpec>, policies: Vec<PolicyKind>) -> ScenarioSpec {
    ScenarioSpec {
        batteries: vec![BatterySpec::b1()],
        battery_counts: vec![2],
        fleets: vec![FleetDef::mixed(vec![BatterySpec::b1(), BatterySpec::b2()])],
        discretizations: vec![DiscSpec::paper()],
        loads,
        policies,
        backends: vec![BackendKind::Discretized, BackendKind::Rv],
    }
}

fn assert_identical(grid: &ScenarioResult, one_off: &ScenarioResult, context: &str) {
    assert_eq!(grid.scenario, one_off.scenario, "{context}: scenario mismatch");
    assert_eq!(
        grid.lifetime_minutes.map(f64::to_bits),
        one_off.lifetime_minutes.map(f64::to_bits),
        "{context}: lifetime diverged ({:?} vs {:?})",
        grid.lifetime_minutes,
        one_off.lifetime_minutes
    );
    assert_eq!(
        grid.residual_charge.to_bits(),
        one_off.residual_charge.to_bits(),
        "{context}: residual charge diverged ({} vs {})",
        grid.residual_charge,
        one_off.residual_charge
    );
    assert_eq!(grid.switches, one_off.switches, "{context}: switch count diverged");
    assert_eq!(grid.decisions, one_off.decisions, "{context}: decision count diverged");
    assert_eq!(grid.search, one_off.search, "{context}: search stats diverged");
    assert_eq!(grid.seeded_by, one_off.seeded_by, "{context}: seed label diverged");
}

/// Runs the grid on one worker (one cache reused across every cell) and
/// re-runs every cell through the one-off entry point, asserting
/// bit-identity.
fn assert_grid_matches_one_off_runs(spec: &ScenarioSpec) {
    let grid = GridRun::new(spec).threads(1).collect().expect("grid runs");
    assert_eq!(grid.len(), spec.expand().len());
    for result in &grid {
        let one_off = run_scenario(&result.scenario).expect("one-off scenario runs");
        assert_identical(result, &one_off, &result.scenario.label());
    }
}

#[test]
fn all_paper_loads_match_one_off_runs_bit_for_bit() {
    let loads = TestLoad::all().into_iter().map(LoadSpec::Paper).collect();
    let spec = spec_with(loads, vec![PolicyKind::RoundRobin, PolicyKind::BestOfTwo]);
    assert_grid_matches_one_off_runs(&spec);
}

#[test]
fn remaining_deterministic_policies_match_one_off_runs() {
    let loads = vec![LoadSpec::Paper(TestLoad::Ils500), LoadSpec::Paper(TestLoad::IlsAlt)];
    let spec = spec_with(loads, vec![PolicyKind::Sequential, PolicyKind::CapacityRr]);
    assert_grid_matches_one_off_runs(&spec);
}

#[test]
fn seeded_random_loads_match_one_off_runs() {
    let loads = (0..8).map(|seed| LoadSpec::random_paper_levels(seed, 12)).collect();
    let spec = spec_with(loads, vec![PolicyKind::RoundRobin]);
    assert_grid_matches_one_off_runs(&spec);
}

#[test]
fn thread_count_does_not_change_grid_results() {
    // Different worker counts claim different chunks, so each worker cache
    // serves a different sequence of cells — the results must not change.
    let loads = TestLoad::all().into_iter().map(LoadSpec::Paper).collect();
    let spec = spec_with(loads, vec![PolicyKind::RoundRobin, PolicyKind::BestOfTwo]);
    let serial = GridRun::new(&spec).threads(1).collect().unwrap();
    let parallel = GridRun::new(&spec).threads(4).collect().unwrap();
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_identical(b, a, &a.scenario.label());
    }
}
