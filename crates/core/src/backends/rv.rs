//! The Rakhmatov–Vrudhula diffusion backend: cross-model validation.
//!
//! Wraps the discretized RV stepping form of the [`rv`] crate as a
//! [`BatteryModel`] backend, the way [`super::DiscretizedKibam`] wraps
//! `dkibam`. RV parameters are fitted per battery *type* from the fleet's
//! KiBaM parameters ([`rv::RvParams::from_kibam`]: shared capacity,
//! matched steady-state recovery gain), and the per-type correction tables
//! live in a static [`rv::RvFleet`] so that search snapshots carry only the
//! dynamic [`RvCell`]s.
//!
//! The backend is a full search citizen: cells keep integer consumed units
//! and *grid-aligned* fixed-point diffusion moments, so canonical
//! [`StateKey`]s are exact (equal words ⇔ equal states) and both the
//! transposition table and dominance pruning of the optimal search engage —
//! unlike the float-state continuous backend, which opts out of keying.
//! Like the continuous backend, it explicitly opts **out** of
//! [`BatteryModel::service_inputs`]: the availability bound's
//! service-frontier analysis is a KiBaM-shaped (Eq. 8) computation, and a
//! diffusion battery has no equivalent precomputed frontier, so the search
//! soundly degrades to the charge bound on this backend.
//!
//! Scheduling semantics mirror the discretized KiBaM: draws consume whole
//! charge units at draw instants, the other batteries recover meanwhile,
//! and emptiness (`σ ≥ α`) is *observed* at draw instants and sticky once
//! observed (Section 4.3 of the paper).

use crate::model::{BatteryModel, ModelAdvance, StateKey};
use crate::schedule::BatteryCharge;
use crate::SchedError;
use dkibam::Discretization;
use kibam::{BatteryParams, FleetSpec};
use rv::{RvCell, RvFleet};

/// The Rakhmatov–Vrudhula diffusion model as a [`BatteryModel`] backend.
#[derive(Debug, Clone)]
pub struct RvDiffusion {
    fleet: RvFleet,
    cells: Vec<RvCell>,
}

impl RvDiffusion {
    /// Creates a system of `count` identical, freshly charged batteries.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero; use [`RvDiffusion::from_fleet`] with a
    /// validated [`FleetSpec`] to handle the error explicitly.
    #[must_use]
    pub fn new(params: &BatteryParams, disc: &Discretization, count: usize) -> Self {
        // xlint: allow(panic) -- documented `# Panics` convenience constructor
        let fleet = FleetSpec::uniform(*params, count).expect("battery count must be positive");
        Self::from_fleet(&fleet, disc)
    }

    /// Creates a freshly charged system from a (possibly heterogeneous)
    /// fleet. Each battery type's RV parameters are fitted from its KiBaM
    /// parameters.
    #[must_use]
    pub fn from_fleet(fleet: &FleetSpec, disc: &Discretization) -> Self {
        let fleet = RvFleet::new(fleet.clone(), *disc);
        let cells = (0..fleet.len()).map(|i| fleet.table_of(i).fresh_cell()).collect();
        Self { fleet, cells }
    }

    /// The per-battery states, in index order.
    #[must_use]
    pub fn cells(&self) -> &[RvCell] {
        &self.cells
    }

    /// The static fleet data (fitted parameters and correction tables).
    #[must_use]
    pub fn fleet(&self) -> &RvFleet {
        &self.fleet
    }

    /// Lets every battery except `active` (pass `None` for an idle period)
    /// recover for `steps` time steps.
    fn recover_others(&mut self, active: Option<usize>, steps: u64) {
        for (index, cell) in self.cells.iter_mut().enumerate() {
            if Some(index) != active {
                self.fleet.table_of(index).recover(cell, steps);
            }
        }
    }
}

impl BatteryModel for RvDiffusion {
    type State = Vec<RvCell>;

    fn backend_name(&self) -> &'static str {
        "rv"
    }

    fn battery_count(&self) -> usize {
        self.cells.len()
    }

    fn type_of(&self, index: usize) -> usize {
        self.fleet.type_of(index)
    }

    fn reset(&mut self) {
        for (index, cell) in self.cells.iter_mut().enumerate() {
            *cell = self.fleet.table_of(index).fresh_cell();
        }
    }

    fn save_state(&self) -> Vec<RvCell> {
        self.cells.clone()
    }

    fn save_state_into(&self, out: &mut Vec<RvCell>) {
        out.clear();
        out.extend_from_slice(&self.cells);
    }

    fn restore_state(&mut self, state: &Vec<RvCell>) {
        self.cells.clone_from(state);
    }

    fn is_empty(&self, index: usize) -> bool {
        self.fleet.table_of(index).is_empty(&self.cells[index])
    }

    fn memo_key(&self) -> Option<StateKey> {
        let mut words = [(0usize, 0u128); crate::model::MAX_KEY_BATTERIES];
        if self.cells.len() > words.len() {
            return None;
        }
        for (index, cell) in self.cells.iter().enumerate() {
            let word = self.fleet.table_of(index).state_word(cell)?;
            words[index] = (self.fleet.type_of(index), word);
        }
        StateKey::from_typed_words(words.into_iter().take(self.cells.len()))
    }

    fn key_dominates(&self, a: &StateKey, b: &StateKey) -> bool {
        a.dominates_pairwise(b, RvCell::word_dominates)
    }

    fn charge(&self, index: usize) -> BatteryCharge {
        let table = self.fleet.table_of(index);
        let cell = &self.cells[index];
        // Policies decide on `available`, which for the RV model is the
        // apparent remaining charge α - σ: it shrinks under load faster
        // than the true charge and recovers when idle, exactly the signal
        // best-of-two needs.
        BatteryCharge { total: table.total_charge(cell), available: table.apparent_charge(cell) }
    }

    fn usable_charge(&self) -> f64 {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, cell)| !cell.is_observed_empty())
            .map(|(index, cell)| self.fleet.table_of(index).total_charge(cell))
            .sum()
    }

    // `service_inputs` deliberately stays at the trait default
    // (`None`): the availability bound's service envelopes are built from
    // the discretized KiBaM's Eq. 8 reachability analysis, which has no RV
    // counterpart here, so the search degrades to the (still admissible)
    // charge bound — the same explicit opt-out as the continuous backend.

    fn states_identical(&self, a: usize, b: usize) -> bool {
        self.fleet.type_of(a) == self.fleet.type_of(b) && self.cells[a] == self.cells[b]
    }

    fn advance_idle(&mut self, steps: u64) {
        self.recover_others(None, steps);
    }

    fn advance_job(
        &mut self,
        active: usize,
        steps: u64,
        draw_interval_steps: u32,
        units_per_draw: u32,
    ) -> Result<ModelAdvance, SchedError> {
        if active >= self.cells.len() {
            return Err(SchedError::InvalidBatteryIndex { index: active, count: self.cells.len() });
        }
        if draw_interval_steps == 0 || units_per_draw == 0 {
            // Degenerate "job" that draws nothing: just idle time.
            self.advance_idle(steps);
            return Ok(ModelAdvance { steps_consumed: steps, completed: true });
        }
        if self.is_empty(active) {
            self.cells[active].mark_observed_empty();
            return Ok(ModelAdvance { steps_consumed: 0, completed: false });
        }

        let table = self.fleet.table_of(active);
        let advance =
            table.serve(&mut self.cells[active], steps, draw_interval_steps, units_per_draw);
        self.recover_others(Some(active), advance.steps_consumed);
        Ok(ModelAdvance { steps_consumed: advance.steps_consumed, completed: advance.completed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv::RvParams;

    fn b1_pair() -> RvDiffusion {
        RvDiffusion::new(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 2)
    }

    #[test]
    fn constant_load_matches_the_analytic_rv_lifetime() {
        let disc = Discretization::paper_default();
        let mut model = RvDiffusion::new(&BatteryParams::itsy_b1(), &disc, 1);
        let advance = model.advance_job(0, 1_000_000, 2, 1).unwrap();
        assert!(!advance.completed);
        let minutes = disc.steps_to_minutes(advance.steps_consumed);
        let analytic =
            rv::analytic::lifetime_constant_current(&RvParams::itsy_b1(), 0.5).unwrap().unwrap();
        assert!((minutes - analytic).abs() < 0.05, "died at {minutes}, analytic {analytic}");
        assert!(model.is_empty(0));
        assert!(model.available().is_empty());
    }

    #[test]
    fn idle_periods_recover_apparent_charge() {
        let mut model = b1_pair();
        model.advance_job(0, 100, 2, 1).unwrap();
        let after_job = model.charge(0);
        model.advance_idle(100);
        let after_idle = model.charge(0);
        assert!(after_idle.available > after_job.available);
        assert!((after_idle.total - after_job.total).abs() < 1e-12, "idle consumes nothing");
    }

    #[test]
    fn passive_batteries_recover_while_the_active_one_serves() {
        let mut model = b1_pair();
        // Stress battery 1, then serve on battery 0: battery 1 recovers.
        model.advance_job(1, 100, 2, 1).unwrap();
        let stressed = model.charge(1);
        model.advance_job(0, 100, 2, 1).unwrap();
        assert!(model.charge(1).available > stressed.available);
    }

    #[test]
    fn observed_empty_is_sticky_even_after_recovery() {
        let mut model =
            RvDiffusion::new(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 1);
        let advance = model.advance_job(0, 1_000_000, 2, 1).unwrap();
        assert!(!advance.completed);
        model.advance_idle(1_000_000);
        assert!(model.charge(0).available > 0.0, "the deficit dissipated");
        assert!(model.is_empty(0), "but the battery stays retired");
        assert!((model.usable_charge() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn scheduling_an_empty_battery_consumes_no_time() {
        let mut model = b1_pair();
        let first = model.advance_job(0, 1_000_000, 2, 1).unwrap();
        assert!(!first.completed);
        let again = model.advance_job(0, 100, 2, 1).unwrap();
        assert_eq!(again.steps_consumed, 0);
        assert!(!again.completed);
        assert!(model.advance_job(9, 100, 2, 1).is_err());
    }

    #[test]
    fn memo_keys_canonicalize_same_type_permutations() {
        let mut model = b1_pair();
        let fresh = model.save_state();
        let fresh_key = model.memo_key().expect("RV states pack into exact keys");
        model.advance_job(0, 100, 2, 1).unwrap();
        let key_0 = model.memo_key().unwrap();
        model.restore_state(&fresh);
        model.advance_job(1, 100, 2, 1).unwrap();
        let key_1 = model.memo_key().unwrap();
        assert_eq!(key_0, key_1, "permuted same-type drains share a canonical key");
        assert_ne!(fresh_key, key_0);
        // Dominance: the fresh fleet dominates the drained one.
        assert!(model.key_dominates(&fresh_key, &key_0));
        assert!(!model.key_dominates(&key_0, &fresh_key));
    }

    #[test]
    fn mixed_fleet_keys_do_not_swap_batteries_across_types() {
        let fleet =
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap();
        let mut model = RvDiffusion::from_fleet(&fleet, &Discretization::paper_default());
        assert_eq!(model.type_of(0), 0);
        assert_eq!(model.type_of(1), 1);
        assert!(!model.states_identical(0, 1), "different types are never symmetric");
        let initial = model.save_state();
        model.advance_job(0, 100, 2, 1).unwrap();
        let drained_b1 = model.memo_key().unwrap();
        model.restore_state(&initial);
        model.advance_job(1, 100, 2, 1).unwrap();
        let drained_b2 = model.memo_key().unwrap();
        assert_ne!(drained_b1, drained_b2, "cross-type states must not collide");
        assert!(drained_b1.same_layout(&drained_b2));
    }

    #[test]
    fn mixed_fleet_tracks_per_battery_capacity() {
        let fleet =
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap();
        let mut model = RvDiffusion::from_fleet(&fleet, &Discretization::paper_default());
        assert!((model.total_charge() - 16.5).abs() < 1e-9);
        let b1_death = model.advance_job(0, 1_000_000, 2, 1).unwrap();
        assert!(!b1_death.completed);
        let b2_death = model.advance_job(1, 1_000_000, 2, 1).unwrap();
        assert!(!b2_death.completed);
        assert!(
            b2_death.steps_consumed > b1_death.steps_consumed,
            "the larger B2 outlives the B1 under the same load"
        );
        model.reset();
        assert!((model.total_charge() - 16.5).abs() < 1e-9);
        assert_eq!(model.available(), vec![0, 1]);
    }

    #[test]
    fn save_restore_round_trips_including_in_place() {
        let mut model = b1_pair();
        let fresh = model.save_state();
        model.advance_job(0, 500, 2, 1).unwrap();
        let mut scratch = model.save_state();
        model.advance_job(1, 300, 2, 1).unwrap();
        model.save_state_into(&mut scratch);
        let drained = model.total_charge();
        model.restore_state(&fresh);
        assert!((model.total_charge() - 11.0).abs() < 1e-12);
        model.restore_state(&scratch);
        assert!((model.total_charge() - drained).abs() < 1e-12);
    }

    fn b1_plus_b2() -> RvDiffusion {
        let fleet =
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap();
        RvDiffusion::from_fleet(&fleet, &Discretization::paper_default())
    }

    /// The per-cell reference the backend must reproduce: the active cell
    /// serves through its own step table, then every other cell recovers
    /// once by the consumed steps.
    fn per_cell_reference(
        cells: &mut [RvCell],
        fleet: &RvFleet,
        active: usize,
        steps: u64,
        interval: u32,
        units: u32,
    ) -> ModelAdvance {
        if interval == 0 || units == 0 {
            for (i, cell) in cells.iter_mut().enumerate() {
                fleet.table_of(i).recover(cell, steps);
            }
            return ModelAdvance { steps_consumed: steps, completed: true };
        }
        let table = fleet.table_of(active);
        if table.is_empty(&cells[active]) {
            cells[active].mark_observed_empty();
            return ModelAdvance { steps_consumed: 0, completed: false };
        }
        let advance = table.serve(&mut cells[active], steps, interval, units);
        for (i, cell) in cells.iter_mut().enumerate() {
            if i != active {
                fleet.table_of(i).recover(cell, advance.steps_consumed);
            }
        }
        ModelAdvance { steps_consumed: advance.steps_consumed, completed: advance.completed }
    }

    fn assert_cells_bit_identical(model: &RvDiffusion, reference: &[RvCell]) {
        for (i, (cell, expected)) in model.cells().iter().zip(reference).enumerate() {
            assert_eq!(cell.consumed_units(), expected.consumed_units(), "cell {i} consumed");
            assert_eq!(cell.is_observed_empty(), expected.is_observed_empty(), "cell {i} retired");
            for (a, b) in cell.moments().iter().zip(expected.moments()) {
                assert_eq!(a.to_bits(), b.to_bits(), "cell {i} moment bits diverged");
            }
        }
    }

    /// Drives the backend and the per-cell reference through an identical
    /// seeded mix of jobs and idle periods, comparing every cell after
    /// every epoch.
    fn exercise_against_the_reference(mut model: RvDiffusion, seed: u64) {
        let mut rng = workload::random::SplitMix64::new(seed);
        let mut reference = model.cells().to_vec();
        for _ in 0..150 {
            if rng.next_index(4) == 0 {
                let steps = rng.next_u64() % 2_000;
                model.advance_idle(steps);
                for (i, cell) in reference.iter_mut().enumerate() {
                    model.fleet().table_of(i).recover(cell, steps);
                }
            } else {
                let active = rng.next_index(model.battery_count());
                let steps = rng.next_u64() % 3_000;
                // 0 exercises the degenerate job that draws nothing.
                let interval = u32::try_from(rng.next_index(5)).unwrap();
                let units = u32::try_from(rng.next_index(3)).unwrap();
                let advance = model.advance_job(active, steps, interval, units).unwrap();
                let expected = per_cell_reference(
                    &mut reference,
                    model.fleet(),
                    active,
                    steps,
                    interval,
                    units,
                );
                assert_eq!(advance, expected);
            }
            assert_cells_bit_identical(&model, &reference);
        }
    }

    #[test]
    fn uniform_fleet_job_stepping_matches_the_per_cell_reference() {
        exercise_against_the_reference(b1_pair(), 0xD5_0909);
        exercise_against_the_reference(
            RvDiffusion::new(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 3),
            11,
        );
    }

    #[test]
    fn mixed_fleet_job_stepping_matches_the_per_cell_reference() {
        exercise_against_the_reference(b1_plus_b2(), 0xB1B2);
        exercise_against_the_reference(b1_plus_b2(), 1234);
    }

    #[test]
    fn a_retired_cell_serves_nothing_and_leaves_the_fleet_untouched() {
        let mut model = b1_pair();
        let death = model.advance_job(0, 1_000_000, 2, 1).unwrap();
        assert!(!death.completed);
        assert!(model.cells()[0].is_observed_empty());
        assert!(!model.cells()[1].is_observed_empty(), "only the active cell retires");
        assert!(!model.is_empty(1));

        let before = model.save_state();
        let again = model.advance_job(0, 100, 2, 1).unwrap();
        assert_eq!(again, ModelAdvance { steps_consumed: 0, completed: false });
        assert_cells_bit_identical(&model, &before);
        assert!(model.advance_job(2, 100, 2, 1).is_err());
        assert_cells_bit_identical(&model, &before);
    }

    #[test]
    fn reset_refreshes_every_cell() {
        let mut model = b1_plus_b2();
        let fresh_key = model.memo_key().unwrap();
        model.advance_job(0, 1_000_000, 2, 1).unwrap();
        model.advance_job(1, 700, 2, 1).unwrap();
        assert_ne!(model.memo_key().unwrap(), fresh_key);
        model.reset();
        let fresh: Vec<RvCell> = (0..2).map(|i| model.fleet().table_of(i).fresh_cell()).collect();
        assert_cells_bit_identical(&model, &fresh);
        assert_eq!(model.memo_key().unwrap(), fresh_key);
    }

    #[test]
    fn memo_key_words_are_the_step_table_packing() {
        let mut model = b1_pair();
        model.advance_job(0, 250, 2, 1).unwrap();
        model.advance_idle(37);
        let words = model.cells().iter().enumerate().map(|(i, cell)| {
            (model.type_of(i), model.fleet().table_of(i).state_word(cell).unwrap())
        });
        assert_eq!(model.memo_key(), StateKey::from_typed_words(words));
    }

    #[test]
    fn degenerate_draw_pattern_is_idle_time() {
        let mut model = b1_pair();
        let advance = model.advance_job(0, 50, 0, 0).unwrap();
        assert!(advance.completed);
        assert!((model.total_charge() - 11.0).abs() < 1e-12);
    }
}
