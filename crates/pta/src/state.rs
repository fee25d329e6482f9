//! Global states of a network of priced timed automata.

use crate::automaton::LocationId;
use crate::expr::{ClockId, VarId};
use crate::network::AutomatonId;

/// A global state of a network: the current location of every automaton, the
/// values of all clocks and variables, plus the accumulated cost and elapsed
/// time.
///
/// Cost and time are *observations* along a run rather than part of the
/// state identity: two runs reaching the same locations, clocks and
/// variables are considered to have reached the same state (see
/// [`State::key`]), which is what makes minimum-cost search sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    pub(crate) locations: Vec<LocationId>,
    pub(crate) clocks: Vec<u64>,
    pub(crate) vars: Vec<i64>,
    pub(crate) cost: u64,
    pub(crate) time: u64,
}

impl State {
    /// The current location of the given automaton.
    ///
    /// # Panics
    ///
    /// Panics if the automaton identifier does not belong to the network
    /// this state was produced from.
    #[must_use]
    pub fn location(&self, automaton: AutomatonId) -> LocationId {
        self.locations[automaton.index()]
    }

    /// The locations of all automata, in automaton order.
    #[must_use]
    pub fn locations(&self) -> &[LocationId] {
        &self.locations
    }

    /// The value of a clock, in discrete time steps.
    #[must_use]
    pub fn clock(&self, clock: ClockId) -> Option<u64> {
        self.clocks.get(clock.index()).copied()
    }

    /// The value of a variable.
    #[must_use]
    pub fn var(&self, var: VarId) -> Option<i64> {
        self.vars.get(var.index()).copied()
    }

    /// All variable values, in declaration order.
    #[must_use]
    pub fn vars(&self) -> &[i64] {
        &self.vars
    }

    /// The cost accumulated since the initial state.
    #[must_use]
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// The number of time steps elapsed since the initial state.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The identity of this state for search purposes: locations, clocks and
    /// variables (cost and time excluded).
    #[must_use]
    pub fn key(&self) -> StateKey {
        StateKey {
            locations: self.locations.iter().map(|l| l.index()).collect(),
            clocks: self.clocks.clone(),
            vars: self.vars.clone(),
        }
    }
}

/// The hashable, totally ordered identity of a [`State`] (locations,
/// clocks and variables); the derived `Ord` is what lets the searches use
/// `BTreeMap`/`BTreeSet` for deterministic iteration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateKey {
    locations: Vec<usize>,
    clocks: Vec<u64>,
    vars: Vec<i64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> State {
        State {
            locations: vec![LocationId(0), LocationId(2)],
            clocks: vec![3, 0],
            vars: vec![10, -5],
            cost: 7,
            time: 3,
        }
    }

    #[test]
    fn accessors_return_components() {
        let s = state();
        assert_eq!(s.location(AutomatonId(1)), LocationId(2));
        assert_eq!(s.clock(ClockId(0)), Some(3));
        assert_eq!(s.clock(ClockId(5)), None);
        assert_eq!(s.var(VarId(1)), Some(-5));
        assert_eq!(s.var(VarId(9)), None);
        assert_eq!(s.cost(), 7);
        assert_eq!(s.time(), 3);
        assert_eq!(s.vars(), &[10, -5]);
        assert_eq!(s.locations().len(), 2);
    }

    #[test]
    fn key_ignores_cost_and_time() {
        let a = state();
        let mut b = state();
        b.cost = 999;
        b.time = 999;
        assert_eq!(a.key(), b.key());
        let mut c = state();
        c.vars[0] = 11;
        assert_ne!(a.key(), c.key());
        let mut d = state();
        d.clocks[1] = 1;
        assert_ne!(a.key(), d.key());
    }

    #[test]
    fn keys_hash_consistently() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(state().key());
        assert!(set.contains(&state().key()));
    }
}
