//! Multi-battery discrete state.
//!
//! Battery scheduling operates on several batteries at once: at any instant
//! one battery serves the load while the others recover. This module holds
//! the joint integer state of all batteries and advances it through idle
//! periods and (portions of) jobs. The schedulers in the `battery-sched`
//! crate — including the optimal, search-based one — drive exactly this
//! state, which makes it the discrete analogue of the network of
//! total-charge / height-difference automata of Figure 5.
//!
//! The state is purely dynamic; all static data — per-battery parameters,
//! discretization, per-type recovery tables — lives in a
//! [`DiscreteFleet`], which every state-advancing method takes. Fleets may
//! be heterogeneous (e.g. one B1 next to one B2): emptiness tests and
//! recovery dynamics are always evaluated against the battery's own
//! parameters and table.

use crate::{DiscreteBattery, DiscreteFleet, DkibamError};

/// Result of letting one battery serve (a portion of) a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobAdvance {
    /// Time steps that actually elapsed.
    pub steps_consumed: u64,
    /// `true` if the requested number of steps was served completely;
    /// `false` if the active battery was observed empty at a draw instant
    /// before the end (the remaining steps still need to be served by
    /// another battery).
    pub completed: bool,
}

/// The joint discrete state of a fleet of batteries.
///
/// Per-battery state is a [`DiscreteBattery`]; per-battery parameters come
/// from the [`DiscreteFleet`] passed to each method (the paper's systems are
/// uniform fleets, but any mix is supported). The type is `Eq + Hash` so
/// optimal-schedule searches can memoize visited states.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MultiBatteryState {
    batteries: Vec<DiscreteBattery>,
}

impl MultiBatteryState {
    /// Creates a state with every battery of the fleet fully charged.
    #[must_use]
    pub fn new_full(fleet: &DiscreteFleet) -> Self {
        Self {
            batteries: (0..fleet.len())
                .map(|i| DiscreteBattery::full(fleet.params_of(i), fleet.disc()))
                .collect(),
        }
    }

    /// Creates a state from explicit per-battery states.
    #[must_use]
    pub fn from_batteries(batteries: Vec<DiscreteBattery>) -> Self {
        Self { batteries }
    }

    /// Overwrites this state with `other`, reusing the existing allocation
    /// (derived `Clone` cannot; search schedulers restore states millions of
    /// times).
    pub fn copy_from(&mut self, other: &MultiBatteryState) {
        self.batteries.clone_from(&other.batteries);
    }

    /// The number of batteries in the system.
    #[must_use]
    pub fn battery_count(&self) -> usize {
        self.batteries.len()
    }

    /// All per-battery states, in index order.
    #[must_use]
    pub fn batteries(&self) -> &[DiscreteBattery] {
        &self.batteries
    }

    /// The state of battery `index`.
    ///
    /// # Errors
    ///
    /// Returns [`DkibamError::BatteryIndexOutOfRange`] if `index` is not a
    /// valid battery index.
    pub fn battery(&self, index: usize) -> Result<&DiscreteBattery, DkibamError> {
        self.batteries
            .get(index)
            .ok_or(DkibamError::BatteryIndexOutOfRange { index, count: self.batteries.len() })
    }

    /// Indices of the batteries that can still serve a job: not yet observed
    /// empty and not currently satisfying the emptiness criterion.
    #[must_use]
    pub fn available(&self, fleet: &DiscreteFleet) -> Vec<usize> {
        self.batteries
            .iter()
            .enumerate()
            .filter(|&(i, b)| !b.is_empty(fleet.params_of(i)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Fills `out` with the indices of the batteries that can still serve a
    /// job, reusing its allocation. Search schedulers query availability at
    /// every node; this keeps the hot path allocation-free.
    pub fn available_into(&self, fleet: &DiscreteFleet, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.batteries
                .iter()
                .enumerate()
                .filter(|&(i, b)| !b.is_empty(fleet.params_of(i)))
                .map(|(i, _)| i),
        );
    }

    /// Whether at least one battery can still serve a job (the negation of
    /// [`MultiBatteryState::all_empty`], without building an index list).
    #[must_use]
    pub fn any_available(&self, fleet: &DiscreteFleet) -> bool {
        self.batteries.iter().enumerate().any(|(i, b)| !b.is_empty(fleet.params_of(i)))
    }

    /// Whether every battery is empty (the system has reached the end of its
    /// lifetime).
    #[must_use]
    pub fn all_empty(&self, fleet: &DiscreteFleet) -> bool {
        self.batteries.iter().enumerate().all(|(i, b)| b.is_empty(fleet.params_of(i)))
    }

    /// Total remaining charge units over all batteries. This is exactly the
    /// quantity the paper's maximum-finder automaton converts into a cost:
    /// the longest-lived schedule leaves the least charge behind.
    #[must_use]
    pub fn total_charge_units(&self) -> u64 {
        self.batteries.iter().map(|b| u64::from(b.charge_units())).sum()
    }

    /// Total remaining charge in A·min.
    #[must_use]
    pub fn total_charge(&self, fleet: &DiscreteFleet) -> f64 {
        self.total_charge_units() as f64 * fleet.disc().charge_unit()
    }

    /// Lets every battery recover for `steps` time steps (an idle period of
    /// the load, or the portion of a job served by some other battery).
    pub fn advance_idle(&mut self, steps: u64, fleet: &DiscreteFleet) {
        #[cfg(debug_assertions)]
        let total_before = self.total_charge_units();
        for (i, battery) in self.batteries.iter_mut().enumerate() {
            battery.advance_recovery(steps, fleet.table_of(i));
        }
        // Charge conservation: recovery redistributes charge between the
        // bound and available wells; it never changes the fleet total.
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.total_charge_units(),
            total_before,
            "idle recovery changed the total charge"
        );
    }

    /// Lets battery `active` serve a job portion of `steps` time steps with
    /// the given draw pattern while all other batteries recover.
    ///
    /// If the active battery is observed empty at a draw instant (Eq. 8), it
    /// is retired, the remaining steps are *not* served, and the returned
    /// [`JobAdvance`] reports `completed == false` together with the number
    /// of steps that did elapse; the caller then re-schedules the remainder
    /// on another battery, mirroring the scheduler automaton of Figure 5(d).
    ///
    /// Only the active battery walks the draw loop. The passive batteries
    /// recover once through the whole consumed window afterwards: bulk
    /// recovery composes additively ([`RecoveryTable::skip`] of `a` then `b`
    /// equals a skip of `a + b`, because progress is an absolute position on
    /// the recovery ladder), so this equals recovering them at every draw
    /// instant.
    ///
    /// [`RecoveryTable::skip`]: crate::RecoveryTable::skip
    ///
    /// # Errors
    ///
    /// Returns [`DkibamError::BatteryIndexOutOfRange`] if `active` is not a
    /// valid battery index.
    pub fn advance_job(
        &mut self,
        active: usize,
        steps: u64,
        draw_interval: u32,
        units_per_draw: u32,
        fleet: &DiscreteFleet,
    ) -> Result<JobAdvance, DkibamError> {
        if active >= self.batteries.len() {
            return Err(DkibamError::BatteryIndexOutOfRange {
                index: active,
                count: self.batteries.len(),
            });
        }
        if draw_interval == 0 || units_per_draw == 0 {
            // Degenerate "job" that draws nothing: just idle time.
            self.advance_idle(steps, fleet);
            return Ok(JobAdvance { steps_consumed: steps, completed: true });
        }
        let active_params = fleet.params_of(active);
        let active_table = fleet.table_of(active);
        let battery = &mut self.batteries[active];
        if battery.is_empty(active_params) {
            battery.mark_observed_empty();
            return Ok(JobAdvance { steps_consumed: 0, completed: false });
        }

        let interval = u64::from(draw_interval);
        let draws = steps / interval;
        let remainder = steps - draws * interval;
        let mut consumed = 0;
        let mut completed = true;
        for _ in 0..draws {
            battery.advance_recovery(interval, active_table);
            consumed += interval;
            // As in the single-battery simulation, the emptiness condition is
            // checked at the draw instant both before and after the draw.
            #[cfg(debug_assertions)]
            let n_before = battery.charge_units();
            if !battery.is_empty(active_params) {
                battery.draw(units_per_draw);
            }
            // Charge conservation: a draw instant removes at most
            // `units_per_draw` units, all from the active battery.
            #[cfg(debug_assertions)]
            debug_assert!(
                n_before - battery.charge_units() <= units_per_draw,
                "draw instant removed more than the configured draw"
            );
            if battery.is_empty(active_params) {
                battery.mark_observed_empty();
                completed = false;
                break;
            }
        }
        if completed {
            battery.advance_recovery(remainder, active_table);
            consumed += remainder;
        }
        for (i, passive) in self.batteries.iter_mut().enumerate() {
            if i != active {
                passive.advance_recovery(consumed, fleet.table_of(i));
            }
        }
        Ok(JobAdvance { steps_consumed: consumed, completed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Discretization;
    use kibam::{BatteryParams, FleetSpec};

    fn two_b1() -> DiscreteFleet {
        DiscreteFleet::uniform(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 2)
    }

    fn b1_plus_b2() -> DiscreteFleet {
        DiscreteFleet::new(
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap(),
            Discretization::paper_default(),
        )
    }

    #[test]
    fn new_full_creates_identical_full_batteries() {
        let fleet = two_b1();
        let state = MultiBatteryState::new_full(&fleet);
        assert_eq!(state.battery_count(), 2);
        assert_eq!(state.total_charge_units(), 1100);
        assert!((state.total_charge(&fleet) - 11.0).abs() < 1e-12);
        assert_eq!(state.available(&fleet), vec![0, 1]);
        assert!(!state.all_empty(&fleet));
    }

    #[test]
    fn heterogeneous_fleet_fills_per_battery_capacities() {
        let fleet = b1_plus_b2();
        let state = MultiBatteryState::new_full(&fleet);
        assert_eq!(state.batteries()[0].charge_units(), 550);
        assert_eq!(state.batteries()[1].charge_units(), 1100);
        assert!((state.total_charge(&fleet) - 16.5).abs() < 1e-12);
        assert_eq!(state.available(&fleet), vec![0, 1]);
    }

    #[test]
    fn battery_access_is_bounds_checked() {
        let fleet = two_b1();
        let state = MultiBatteryState::new_full(&fleet);
        assert!(state.battery(1).is_ok());
        assert!(matches!(
            state.battery(2),
            Err(DkibamError::BatteryIndexOutOfRange { index: 2, count: 2 })
        ));
    }

    #[test]
    fn advance_job_discharges_only_the_active_battery() {
        let fleet = two_b1();
        let mut state = MultiBatteryState::new_full(&fleet);
        // One minute of 500 mA: 100 steps, one unit every 2 steps.
        let advance = state.advance_job(0, 100, 2, 1, &fleet).unwrap();
        assert!(advance.completed);
        assert_eq!(advance.steps_consumed, 100);
        assert_eq!(state.batteries()[0].charge_units(), 500);
        assert_eq!(state.batteries()[1].charge_units(), 550);
        assert!(state.batteries()[0].height_units() > 0);
        assert_eq!(state.batteries()[1].height_units(), 0);
    }

    #[test]
    fn advance_job_on_out_of_range_battery_fails() {
        let fleet = two_b1();
        let mut state = MultiBatteryState::new_full(&fleet);
        assert!(state.advance_job(5, 10, 2, 1, &fleet).is_err());
    }

    #[test]
    fn active_battery_is_retired_when_observed_empty() {
        let fleet = two_b1();
        // Battery 0 is nearly dead: few charge units, big height difference.
        let dying = DiscreteBattery::from_units(30, 120);
        let fresh = DiscreteBattery::full(fleet.params_of(1), fleet.disc());
        let mut state = MultiBatteryState::from_batteries(vec![dying, fresh]);
        let advance = state.advance_job(0, 200, 2, 1, &fleet).unwrap();
        assert!(!advance.completed);
        assert!(advance.steps_consumed < 200);
        assert!(state.batteries()[0].is_observed_empty());
        // The other battery is still usable, so the system is not dead yet.
        assert!(!state.all_empty(&fleet));
        assert_eq!(state.available(&fleet), vec![1]);
    }

    #[test]
    fn scheduling_an_already_empty_battery_consumes_no_time() {
        let fleet = two_b1();
        let mut dead = DiscreteBattery::from_units(10, 100);
        assert!(dead.is_empty(fleet.params_of(0)));
        dead.mark_observed_empty();
        let fresh = DiscreteBattery::full(fleet.params_of(1), fleet.disc());
        let mut state = MultiBatteryState::from_batteries(vec![dead, fresh]);
        let advance = state.advance_job(0, 100, 2, 1, &fleet).unwrap();
        assert_eq!(advance.steps_consumed, 0);
        assert!(!advance.completed);
    }

    #[test]
    fn idle_advance_recovers_all_batteries() {
        let fleet = two_b1();
        let used_a = DiscreteBattery::from_units(400, 60);
        let used_b = DiscreteBattery::from_units(300, 80);
        let mut state = MultiBatteryState::from_batteries(vec![used_a, used_b]);
        state.advance_idle(1_000, &fleet);
        assert!(state.batteries()[0].height_units() < 60);
        assert!(state.batteries()[1].height_units() < 80);
        // Total charge never changes during idle periods.
        assert_eq!(state.total_charge_units(), 700);
    }

    #[test]
    fn degenerate_job_with_no_draws_is_idle_time() {
        let fleet = two_b1();
        let mut state = MultiBatteryState::new_full(&fleet);
        let advance = state.advance_job(0, 50, 0, 0, &fleet).unwrap();
        assert!(advance.completed);
        assert_eq!(state.total_charge_units(), 1100);
    }

    #[test]
    fn available_into_matches_available() {
        let fleet =
            DiscreteFleet::uniform(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 3);
        let mut state = MultiBatteryState::new_full(&fleet);
        let mut buf = vec![7usize; 5];
        state.available_into(&fleet, &mut buf);
        assert_eq!(buf, state.available(&fleet));
        assert!(state.any_available(&fleet));
        // Retire battery 1 and check the reduced set.
        let advance = state.advance_job(1, 10_000, 2, 1, &fleet).unwrap();
        assert!(!advance.completed);
        state.available_into(&fleet, &mut buf);
        assert_eq!(buf, vec![0, 2]);
        assert!(state.any_available(&fleet));
    }

    #[test]
    fn mixed_fleet_emptiness_uses_per_battery_parameters() {
        // Drain the B1 of a B1+B2 fleet dry: the (larger) B2 keeps serving.
        let fleet = b1_plus_b2();
        let mut state = MultiBatteryState::new_full(&fleet);
        let advance = state.advance_job(0, 100_000, 2, 1, &fleet).unwrap();
        assert!(!advance.completed);
        assert!(state.batteries()[0].is_observed_empty());
        assert_eq!(state.available(&fleet), vec![1]);
        let advance = state.advance_job(1, 100, 2, 1, &fleet).unwrap();
        assert!(advance.completed);
    }

    fn b1_b2_b1() -> DiscreteFleet {
        let (b1, b2) = (BatteryParams::itsy_b1(), BatteryParams::itsy_b2());
        DiscreteFleet::new(
            FleetSpec::new(vec![b1, b2, b1]).unwrap(),
            Discretization::paper_default(),
        )
    }

    /// The per-draw reference the kernel must reproduce: at every draw
    /// instant *every* battery recovers through the elapsed interval, then
    /// the active one draws, with Eq. 8 checked before and after the draw.
    fn per_draw_reference(
        batteries: &mut [DiscreteBattery],
        fleet: &DiscreteFleet,
        active: usize,
        steps: u64,
        draw_interval: u32,
        units_per_draw: u32,
    ) -> JobAdvance {
        let recover_all = |batteries: &mut [DiscreteBattery], steps: u64| {
            for (i, battery) in batteries.iter_mut().enumerate() {
                battery.advance_recovery(steps, fleet.table_of(i));
            }
        };
        if draw_interval == 0 || units_per_draw == 0 {
            recover_all(batteries, steps);
            return JobAdvance { steps_consumed: steps, completed: true };
        }
        let params = fleet.params_of(active);
        if batteries[active].is_empty(params) {
            batteries[active].mark_observed_empty();
            return JobAdvance { steps_consumed: 0, completed: false };
        }
        let interval = u64::from(draw_interval);
        let mut consumed = 0;
        for _ in 0..steps / interval {
            recover_all(batteries, interval);
            consumed += interval;
            if !batteries[active].is_empty(params) {
                batteries[active].draw(units_per_draw);
            }
            if batteries[active].is_empty(params) {
                batteries[active].mark_observed_empty();
                return JobAdvance { steps_consumed: consumed, completed: false };
            }
        }
        recover_all(batteries, steps % interval);
        JobAdvance { steps_consumed: steps, completed: true }
    }

    #[test]
    fn passive_batteries_recover_once_through_a_job_cut_short_by_a_death() {
        let fleet = b1_b2_b1();
        // A fresh B1 serves 500 mA until it dies (about 2 min, Table 3)
        // while both passive batteries sit mid-recovery, clocks running.
        let initial = vec![
            DiscreteBattery::full(fleet.params_of(0), fleet.disc()),
            DiscreteBattery::from_raw_parts(700, 90, 13, false),
            DiscreteBattery::from_raw_parts(350, 60, 5, false),
        ];
        let mut state = MultiBatteryState::from_batteries(initial.clone());
        let advance = state.advance_job(0, 1_001, 2, 1, &fleet).unwrap();
        assert!(!advance.completed, "the active battery dies inside the job");
        assert!(advance.steps_consumed > 0 && advance.steps_consumed < 1_001);
        assert!(state.batteries()[0].is_observed_empty());

        let mut reference = initial.clone();
        let expected = per_draw_reference(&mut reference, &fleet, 0, 1_001, 2, 1);
        assert_eq!(advance, expected);
        for (i, battery) in state.batteries().iter().enumerate() {
            assert_eq!(battery.state_word(), reference[i].state_word(), "battery {i}");
        }
        // Each passive battery sits exactly where one recovery advance by
        // the consumed steps puts it.
        for i in [1, 2] {
            let mut recovered = initial[i];
            recovered.advance_recovery(advance.steps_consumed, fleet.table_of(i));
            assert_eq!(state.batteries()[i], recovered, "passive battery {i}");
            assert!(state.batteries()[i].height_units() < initial[i].height_units());
        }
    }

    /// Drives the kernel and the per-draw reference through an identical
    /// seeded mix of jobs and idle periods, comparing every battery's state
    /// word after every epoch.
    fn exercise_against_the_reference(fleet: &DiscreteFleet, seed: u64) {
        let mut rng = workload::random::SplitMix64::new(seed);
        let mut state = MultiBatteryState::new_full(fleet);
        let mut reference = state.batteries().to_vec();
        for _ in 0..200 {
            if rng.next_index(4) == 0 {
                let steps = rng.next_u64() % 2_000;
                state.advance_idle(steps, fleet);
                for (i, battery) in reference.iter_mut().enumerate() {
                    battery.advance_recovery(steps, fleet.table_of(i));
                }
            } else {
                let active = rng.next_index(fleet.len());
                let steps = rng.next_u64() % 3_000;
                // 0 exercises the degenerate job that draws nothing.
                let interval = u32::try_from(rng.next_index(5)).unwrap();
                let units = u32::try_from(rng.next_index(3)).unwrap();
                let advance = state.advance_job(active, steps, interval, units, fleet).unwrap();
                let expected =
                    per_draw_reference(&mut reference, fleet, active, steps, interval, units);
                assert_eq!(advance, expected);
            }
            for (i, battery) in state.batteries().iter().enumerate() {
                assert_eq!(battery.state_word(), reference[i].state_word(), "battery {i}");
            }
        }
    }

    #[test]
    fn uniform_fleet_job_stepping_matches_the_per_draw_reference() {
        exercise_against_the_reference(&two_b1(), 0xD5_0909);
        exercise_against_the_reference(
            &DiscreteFleet::uniform(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 3),
            7,
        );
    }

    #[test]
    fn mixed_fleet_job_stepping_matches_the_per_draw_reference() {
        exercise_against_the_reference(&b1_plus_b2(), 0xB1B2);
        exercise_against_the_reference(&b1_b2_b1(), 42);
    }

    #[test]
    fn large_fleet_job_stepping_matches_the_per_draw_reference() {
        // More batteries than fit one 64-bit word of per-battery flags, so
        // no fleet size is special to the kernel.
        let fleet =
            DiscreteFleet::uniform(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 70);
        exercise_against_the_reference(&fleet, 0x70);
    }

    #[test]
    fn a_retired_battery_serves_nothing_and_leaves_the_fleet_untouched() {
        let fleet = b1_plus_b2();
        let mut state = MultiBatteryState::new_full(&fleet);
        let advance = state.advance_job(0, 1_000_000, 2, 1, &fleet).unwrap();
        assert!(!advance.completed);
        assert!(state.batteries()[0].is_observed_empty());
        assert!(!state.batteries()[1].is_observed_empty(), "only the active battery retires");
        // The passive B2 recovered through the death window: still full,
        // never drawn from.
        assert_eq!(state.batteries()[1].charge_units(), 1100);

        // Scheduling the retired battery again elapses no time, so nobody
        // recovers either: the whole state stays bit-identical.
        let before = state.clone();
        let again = state.advance_job(0, 100, 2, 1, &fleet).unwrap();
        assert_eq!(again, JobAdvance { steps_consumed: 0, completed: false });
        assert_eq!(state, before);
        assert_eq!(state.available(&fleet), vec![1]);
    }

    #[test]
    fn an_out_of_range_job_leaves_the_state_untouched() {
        let fleet = b1_plus_b2();
        let mut state = MultiBatteryState::new_full(&fleet);
        state.advance_job(1, 300, 2, 1, &fleet).unwrap();
        let before = state.clone();
        assert!(matches!(
            state.advance_job(2, 100, 2, 1, &fleet),
            Err(DkibamError::BatteryIndexOutOfRange { index: 2, count: 2 })
        ));
        assert_eq!(state, before);
    }

    #[test]
    fn copy_from_refills_a_drained_state_to_full() {
        let fleet = b1_b2_b1();
        let full = MultiBatteryState::new_full(&fleet);
        let mut state = full.clone();
        state.advance_job(0, 100_000, 2, 1, &fleet).unwrap();
        state.advance_job(1, 700, 2, 1, &fleet).unwrap();
        assert_ne!(state, full);
        state.copy_from(&full);
        assert_eq!(state, full);
        for (i, battery) in state.batteries().iter().enumerate() {
            let fresh = DiscreteBattery::full(fleet.params_of(i), fleet.disc());
            assert_eq!(battery.state_word(), fresh.state_word(), "battery {i}");
        }
    }

    #[test]
    fn state_equality_and_hashing_ignore_nothing() {
        use std::collections::HashSet;
        let fleet = two_b1();
        let a = MultiBatteryState::new_full(&fleet);
        let b = MultiBatteryState::new_full(&fleet);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        let mut c = b.clone();
        c = {
            let mut batteries = c.batteries().to_vec();
            batteries[0].draw(1);
            MultiBatteryState::from_batteries(batteries)
        };
        assert!(!set.contains(&c));
    }
}
