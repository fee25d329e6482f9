//! An optimal cell runs one root pass: the engine times it as
//! `bound_micros`, reports its bounds as `root_bounds` and seeds the search
//! from its warm start. The reported bounds must be exactly what the
//! scheduler's stand-alone probe computes for the same system and load.

use battery_sched::optimal::{OptimalScheduler, RootBounds};
use battery_sched::system::SystemConfig;
use engine::{run_scenario, BackendKind, BatterySpec, DiscSpec, FleetDef, LoadSpec, Scenario};
use engine::{PolicyKind, ScenarioResult};
use workload::paper_loads::TestLoad;

fn optimal_cell(fleet: FleetDef, load: TestLoad) -> (Scenario, ScenarioResult) {
    let scenario = Scenario {
        fleet,
        disc: DiscSpec::coarse(),
        load: LoadSpec::Paper(load),
        policy: PolicyKind::optimal(),
        backend: BackendKind::Discretized,
    };
    let result = run_scenario(&scenario).expect("the optimal cell runs");
    (scenario, result)
}

fn probe(scenario: &Scenario) -> RootBounds {
    let fleet = scenario.fleet.to_fleet_spec().unwrap();
    let config = SystemConfig::from_fleet(fleet, scenario.disc.to_discretization().unwrap());
    let load = config.discretize(&scenario.load.profile().unwrap()).unwrap();
    let mut model = config.discretized_model();
    OptimalScheduler::probe_root_bounds(&config, &load, &mut model).unwrap()
}

#[test]
fn optimal_row_root_bounds_equal_the_root_probe() {
    for (fleet, load) in [
        (FleetDef::uniform(BatterySpec::b1(), 2), TestLoad::IlsAlt),
        (FleetDef::mixed(vec![BatterySpec::b1(), BatterySpec::b2()]), TestLoad::IlsAlt),
        (FleetDef::uniform(BatterySpec::b1(), 2), TestLoad::Ils250),
    ] {
        let (scenario, result) = optimal_cell(fleet, load);
        let label = scenario.label();
        let bounds = result.root_bounds.expect("optimal rows carry root bounds");
        assert_eq!(bounds, probe(&scenario), "{label}: row and probe disagree");
        assert!(result.bound_micros.is_some(), "{label}: the root pass is timed");
        let steps = scenario.disc.to_discretization().unwrap().minutes_to_steps(
            result.lifetime_minutes.expect("the optimal search proves a lifetime"),
        );
        assert!(bounds.warm_start <= steps, "{label}: the warm start beat the optimum");
        assert!(
            steps <= bounds.charge.min(bounds.availability).min(bounds.relaxation),
            "{label}: a root bound underestimates the optimum"
        );
    }
}
