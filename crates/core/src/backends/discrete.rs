//! The discretized-KiBaM backend: a thin [`BatteryModel`] wrapper around
//! [`dkibam::multi::MultiBatteryState`] driven by a [`DiscreteFleet`].

use crate::model::{BatteryModel, ModelAdvance, StateKey};
use crate::schedule::BatteryCharge;
use crate::SchedError;
use dkibam::multi::MultiBatteryState;
use dkibam::{DiscreteFleet, Discretization};
use kibam::{BatteryParams, FleetSpec};

/// The discretized KiBaM of Section 2.3 as a [`BatteryModel`] backend.
///
/// Holds the static data (the fleet: per-battery parameters,
/// discretization, per-type recovery tables) next to the dynamic
/// [`MultiBatteryState`], so that searches can snapshot just the dynamic
/// part. Fleets may be heterogeneous; [`DiscretizedKibam::new`] is the
/// uniform convenience constructor the paper's systems use.
#[derive(Debug, Clone)]
pub struct DiscretizedKibam {
    fleet: DiscreteFleet,
    state: MultiBatteryState,
}

impl DiscretizedKibam {
    /// Creates a system of `count` identical, freshly charged batteries.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero; use [`DiscretizedKibam::from_fleet`] with
    /// a validated [`FleetSpec`] to handle the error explicitly.
    #[must_use]
    pub fn new(params: &BatteryParams, disc: &Discretization, count: usize) -> Self {
        Self::from_fleet_data(DiscreteFleet::uniform(params, disc, count))
    }

    /// Creates a freshly charged system from a (possibly heterogeneous)
    /// fleet.
    #[must_use]
    pub fn from_fleet(fleet: &FleetSpec, disc: &Discretization) -> Self {
        Self::from_fleet_data(DiscreteFleet::new(fleet.clone(), *disc))
    }

    fn from_fleet_data(fleet: DiscreteFleet) -> Self {
        let state = MultiBatteryState::new_full(&fleet);
        Self { fleet, state }
    }

    /// The current joint discrete state.
    #[must_use]
    pub fn state(&self) -> &MultiBatteryState {
        &self.state
    }

    /// The static fleet data (per-battery parameters and recovery tables).
    #[must_use]
    pub fn fleet(&self) -> &DiscreteFleet {
        &self.fleet
    }

    /// The discretization in use.
    #[must_use]
    pub fn disc(&self) -> &Discretization {
        self.fleet.disc()
    }
}

impl BatteryModel for DiscretizedKibam {
    type State = MultiBatteryState;

    fn backend_name(&self) -> &'static str {
        "discretized"
    }

    fn battery_count(&self) -> usize {
        self.fleet.len()
    }

    fn type_of(&self, index: usize) -> usize {
        self.fleet.type_of(index)
    }

    fn reset(&mut self) {
        self.state = MultiBatteryState::new_full(&self.fleet);
    }

    fn save_state(&self) -> MultiBatteryState {
        self.state.clone()
    }

    fn save_state_into(&self, out: &mut MultiBatteryState) {
        out.copy_from(&self.state);
    }

    fn restore_state(&mut self, state: &MultiBatteryState) {
        self.state.copy_from(state);
    }

    fn is_empty(&self, index: usize) -> bool {
        self.state.batteries()[index].is_empty(self.fleet.params_of(index))
    }

    fn available(&self) -> Vec<usize> {
        self.state.available(&self.fleet)
    }

    fn available_into(&self, out: &mut Vec<usize>) {
        self.state.available_into(&self.fleet, out);
    }

    fn any_available(&self) -> bool {
        self.state.any_available(&self.fleet)
    }

    fn memo_key(&self) -> Option<StateKey> {
        StateKey::from_typed_words(
            self.state
                .batteries()
                .iter()
                .enumerate()
                .map(|(i, b)| (self.fleet.type_of(i), b.state_word())),
        )
    }

    fn key_dominates(&self, a: &StateKey, b: &StateKey) -> bool {
        a.dominates_pairwise(b, dkibam::DiscreteBattery::word_dominates)
    }

    fn charge(&self, index: usize) -> BatteryCharge {
        let battery = &self.state.batteries()[index];
        BatteryCharge {
            total: battery.total_charge(self.fleet.disc()),
            available: battery.available_charge(self.fleet.params_of(index), self.fleet.disc()),
        }
    }

    fn total_charge(&self) -> f64 {
        self.state.total_charge(&self.fleet)
    }

    fn usable_charge(&self) -> f64 {
        self.state
            .batteries()
            .iter()
            .filter(|b| !b.is_observed_empty())
            .map(|b| f64::from(b.charge_units()) * self.fleet.disc().charge_unit())
            .sum()
    }

    fn service_inputs(&self, index: usize) -> Option<(&dkibam::ServiceRateTable, u32, u32)> {
        let battery = &self.state.batteries()[index];
        // A retired battery serves nothing, ever: build from zero charge.
        let charge = if battery.is_observed_empty() { 0 } else { battery.charge_units() };
        Some((self.fleet.service_of(index), charge, battery.height_units()))
    }

    fn column_inputs(
        &self,
        index: usize,
    ) -> Option<(dkibam::DiscreteBattery, &kibam::BatteryParams, &dkibam::RecoveryTable)> {
        let battery = self.state.batteries()[index];
        Some((battery, self.fleet.params_of(index), self.fleet.table_of(index)))
    }

    fn states_identical(&self, a: usize, b: usize) -> bool {
        self.fleet.type_of(a) == self.fleet.type_of(b)
            && self.state.batteries()[a] == self.state.batteries()[b]
    }

    fn advance_idle(&mut self, steps: u64) {
        self.state.advance_idle(steps, &self.fleet);
    }

    fn advance_job(
        &mut self,
        active: usize,
        steps: u64,
        draw_interval_steps: u32,
        units_per_draw: u32,
    ) -> Result<ModelAdvance, SchedError> {
        let advance = self.state.advance_job(
            active,
            steps,
            draw_interval_steps,
            units_per_draw,
            &self.fleet,
        )?;
        Ok(ModelAdvance { steps_consumed: advance.steps_consumed, completed: advance.completed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b1_plus_b2() -> DiscretizedKibam {
        let fleet =
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap();
        DiscretizedKibam::from_fleet(&fleet, &Discretization::paper_default())
    }

    #[test]
    fn tracks_the_underlying_multi_battery_state() {
        let params = BatteryParams::itsy_b1();
        let disc = Discretization::paper_default();
        let mut model = DiscretizedKibam::new(&params, &disc, 2);
        assert_eq!(model.state().total_charge_units(), 1100);
        model.advance_job(0, 100, 2, 1).unwrap();
        assert_eq!(model.state().total_charge_units(), 1050);
        assert_eq!(model.backend_name(), "discretized");
        assert!((model.usable_charge() - 10.5).abs() < 1e-12);
    }

    #[test]
    fn key_dominance_is_permutation_invariant() {
        let params = BatteryParams::itsy_b1();
        let disc = Discretization::paper_default();
        let mut model = DiscretizedKibam::new(&params, &disc, 2);
        let fresh = model.memo_key().unwrap();
        let initial = model.save_state();
        model.advance_job(0, 100, 2, 1).unwrap();
        let drained_0 = model.memo_key().unwrap();
        model.restore_state(&initial);
        model.advance_job(1, 100, 2, 1).unwrap();
        let drained_1 = model.memo_key().unwrap();

        // A fresh system dominates a drained one, never the reverse.
        assert!(model.key_dominates(&fresh, &drained_0));
        assert!(!model.key_dominates(&drained_0, &fresh));
        // Permuted drains dominate each other (identical canonical keys).
        assert!(model.key_dominates(&drained_0, &drained_1));
        assert!(model.key_dominates(&drained_1, &drained_0));
        // Reflexive.
        assert!(model.key_dominates(&drained_0, &drained_0));
    }

    #[test]
    fn usable_charge_excludes_retired_batteries() {
        let params = BatteryParams::itsy_b1();
        let disc = Discretization::paper_default();
        let mut model = DiscretizedKibam::new(&params, &disc, 2);
        // Drain battery 0 until it is observed empty.
        let advance = model.advance_job(0, 2_000, 2, 1).unwrap();
        assert!(!advance.completed);
        assert!(model.usable_charge() < model.total_charge());
    }

    #[test]
    fn mixed_fleet_keys_do_not_swap_batteries_across_types() {
        // Drain the B1 vs. drain the B2 by the same amount: under the old
        // global sort these states could collide; with type groups they
        // must stay distinct.
        let mut model = b1_plus_b2();
        assert_eq!(model.type_of(0), 0);
        assert_eq!(model.type_of(1), 1);
        let initial = model.save_state();
        model.advance_job(0, 100, 2, 1).unwrap();
        let drained_b1 = model.memo_key().unwrap();
        model.restore_state(&initial);
        model.advance_job(1, 100, 2, 1).unwrap();
        let drained_b2 = model.memo_key().unwrap();
        assert_ne!(drained_b1, drained_b2, "cross-type states must not collide");
        assert!(drained_b1.same_layout(&drained_b2));
        // Same layout, comparable within groups: the fresh system dominates
        // both drained variants.
        let fresh = {
            model.restore_state(&initial);
            model.memo_key().unwrap()
        };
        assert!(model.key_dominates(&fresh, &drained_b1));
        assert!(model.key_dominates(&fresh, &drained_b2));
        assert!(!model.key_dominates(&drained_b1, &fresh));
    }

    #[test]
    fn reset_refills_a_drained_mixed_fleet_to_full() {
        let mut model = b1_plus_b2();
        let fresh_key = model.memo_key().unwrap();
        model.advance_job(0, 1_000_000, 2, 1).unwrap();
        assert!(model.advance_job(1, 300, 2, 1).unwrap().completed);
        assert_eq!(model.available(), vec![1]);
        model.reset();
        assert_eq!(model.state(), &MultiBatteryState::new_full(model.fleet()));
        assert_eq!(model.memo_key().unwrap(), fresh_key);
        assert_eq!(model.available(), vec![0, 1]);
        assert!((model.total_charge() - 16.5).abs() < 1e-12);
    }

    #[test]
    fn mixed_fleet_batteries_are_never_symmetric() {
        let model = b1_plus_b2();
        // Both fresh, but different types: not interchangeable.
        assert!(!model.states_identical(0, 1));
        let uniform =
            DiscretizedKibam::new(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 2);
        assert!(uniform.states_identical(0, 1));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "different type-group layouts")]
    fn cross_layout_dominance_is_rejected_in_debug_builds() {
        let mixed = b1_plus_b2();
        let mixed_key = mixed.memo_key().unwrap();
        let uniform =
            DiscretizedKibam::new(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 2);
        let uniform_key = uniform.memo_key().unwrap();
        let _ = mixed.key_dominates(&mixed_key, &uniform_key);
    }
}
