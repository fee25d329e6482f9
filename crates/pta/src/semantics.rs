//! Discrete-time operational semantics of a network of priced timed
//! automata.
//!
//! A global state evolves either by an **action transition** — an internal
//! edge, a binary hand-shake or a broadcast — or by a **delay transition**
//! of one time step. Committed locations forbid delay and take priority over
//! non-committed action transitions, mirroring Uppaal/Cora. Costs accumulate
//! through edge cost updates and per-step location cost rates.

use crate::automaton::{Edge, LocationId, SyncDirection};
use crate::expr::EvalContext;
use crate::network::{AutomatonId, ChannelKind, Network};
use crate::state::State;
use crate::PtaError;

/// The label of a transition between two global states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransitionLabel {
    /// One discrete time step elapsed.
    Delay,
    /// An automaton took an edge without synchronisation.
    Internal {
        /// The automaton that moved.
        automaton: AutomatonId,
        /// The index of the edge (in that automaton's edge list).
        edge: usize,
    },
    /// A channel synchronisation: one sender plus its receivers (exactly one
    /// for binary channels, any number — including zero — for broadcasts).
    Sync {
        /// The channel synchronised on.
        channel: crate::automaton::ChannelId,
        /// The sending automaton and edge index.
        sender: (AutomatonId, usize),
        /// The receiving automata and edge indices, in automaton order.
        receivers: Vec<(AutomatonId, usize)>,
    },
}

/// The operational semantics of a [`Network`]: initial state and successor
/// computation.
#[derive(Debug)]
pub struct Semantics<'a> {
    network: &'a Network,
    arrays: Vec<Vec<i64>>,
    /// Clocks saturate at this value during delays. It exceeds every constant
    /// a clock can be compared against (all literals, table entries and
    /// initial variable values in the model), so saturation never changes
    /// the truth value of any guard or invariant — this is the discrete-time
    /// analogue of the classical maximum-constant (k-extrapolation)
    /// abstraction and is what keeps the reachable state space finite.
    clock_cap: u64,
}

impl<'a> Semantics<'a> {
    /// Creates the semantics of a network after validating it.
    ///
    /// # Errors
    ///
    /// Propagates [`Network::validate`] errors.
    pub fn new(network: &'a Network) -> Result<Self, PtaError> {
        network.validate()?;
        let arrays = network.array_values();
        let clock_cap = clock_cap_for(network, &arrays);
        Ok(Self { network, arrays, clock_cap })
    }

    /// The value at which clocks saturate during delay transitions.
    #[must_use]
    pub fn clock_cap(&self) -> u64 {
        self.clock_cap
    }

    /// The underlying network.
    #[must_use]
    pub fn network(&self) -> &Network {
        self.network
    }

    /// The initial state: every automaton in its initial location, all
    /// clocks and the cost at zero, variables at their declared initial
    /// values.
    ///
    /// # Errors
    ///
    /// Returns [`PtaError::InitialInvariantViolated`] if an initial location
    /// invariant does not hold, or an evaluation error if an invariant is
    /// ill-formed.
    pub fn initial_state(&self) -> Result<State, PtaError> {
        let state = State {
            locations: self.network.automata().iter().map(|a| a.initial()).collect(),
            clocks: vec![0; self.network.clock_count()],
            vars: self.network.initial_vars(),
            cost: 0,
            time: 0,
        };
        for (index, automaton) in self.network.automata().iter().enumerate() {
            if !self.invariant_holds(&state, index)? {
                return Err(PtaError::InitialInvariantViolated {
                    automaton: automaton.name().to_owned(),
                });
            }
        }
        Ok(state)
    }

    /// Computes all successor states of `state`, paired with the transition
    /// labels that produce them.
    ///
    /// # Errors
    ///
    /// Returns evaluation errors for ill-formed expressions and
    /// [`PtaError::NegativeCost`] if a cost expression evaluates negatively.
    pub fn successors(&self, state: &State) -> Result<Vec<(TransitionLabel, State)>, PtaError> {
        let mut result = Vec::new();
        let committed_active = self.any_committed(state);

        // Action transitions.
        for (index, automaton) in self.network.automata().iter().enumerate() {
            let automaton_id = AutomatonId(index);
            let source = state.locations[index];
            for (edge_index, edge) in automaton.edges_from(source) {
                if !self.guard_holds(state, edge)? {
                    continue;
                }
                match edge.sync() {
                    None => {
                        let participants = vec![(automaton_id, edge_index)];
                        if committed_active && !self.involves_committed(state, &participants) {
                            continue;
                        }
                        if let Some(next) = self.apply_action(state, &participants)? {
                            result.push((
                                TransitionLabel::Internal {
                                    automaton: automaton_id,
                                    edge: edge_index,
                                },
                                next,
                            ));
                        }
                    }
                    Some(sync) if sync.direction == SyncDirection::Send => {
                        let kind = self.network.channel_kind(sync.channel)?;
                        match kind {
                            ChannelKind::Binary => {
                                for (recv_auto, recv_edge) in
                                    self.enabled_receivers(state, sync.channel, index)?
                                {
                                    let participants =
                                        vec![(automaton_id, edge_index), (recv_auto, recv_edge)];
                                    if committed_active
                                        && !self.involves_committed(state, &participants)
                                    {
                                        continue;
                                    }
                                    if let Some(next) = self.apply_action(state, &participants)? {
                                        result.push((
                                            TransitionLabel::Sync {
                                                channel: sync.channel,
                                                sender: (automaton_id, edge_index),
                                                receivers: vec![(recv_auto, recv_edge)],
                                            },
                                            next,
                                        ));
                                    }
                                }
                            }
                            ChannelKind::Broadcast => {
                                // Every automaton with an enabled receiving
                                // edge participates with its first such edge.
                                let mut receivers = Vec::new();
                                for other in 0..self.network.automata().len() {
                                    if other == index {
                                        continue;
                                    }
                                    if let Some(first) = self
                                        .enabled_receivers(state, sync.channel, usize::MAX)?
                                        .into_iter()
                                        .find(|(a, _)| a.index() == other)
                                    {
                                        receivers.push(first);
                                    }
                                }
                                let mut participants = vec![(automaton_id, edge_index)];
                                participants.extend(receivers.iter().copied());
                                if committed_active
                                    && !self.involves_committed(state, &participants)
                                {
                                    continue;
                                }
                                if let Some(next) = self.apply_action(state, &participants)? {
                                    result.push((
                                        TransitionLabel::Sync {
                                            channel: sync.channel,
                                            sender: (automaton_id, edge_index),
                                            receivers,
                                        },
                                        next,
                                    ));
                                }
                            }
                        }
                    }
                    // Receive edges never initiate a transition on their own.
                    Some(_) => {}
                }
            }
        }

        // Delay transition of one time step (forbidden while a committed
        // location is occupied).
        if !committed_active {
            if let Some(next) = self.apply_delay(state)? {
                result.push((TransitionLabel::Delay, next));
            }
        }

        Ok(result)
    }

    fn context<'s>(&'s self, state: &'s State) -> EvalContext<'s> {
        EvalContext::new(&state.vars, &self.arrays, &state.clocks)
    }

    fn guard_holds(&self, state: &State, edge: &Edge) -> Result<bool, PtaError> {
        edge.guard().eval(&self.context(state))
    }

    fn invariant_holds(&self, state: &State, automaton_index: usize) -> Result<bool, PtaError> {
        let automaton = &self.network.automata()[automaton_index];
        let location = state.locations[automaton_index];
        let invariant = automaton
            .location(location)
            .map(|l| l.invariant().clone())
            .unwrap_or(crate::expr::BoolExpr::True);
        invariant.eval(&self.context(state))
    }

    fn all_invariants_hold(&self, state: &State) -> Result<bool, PtaError> {
        for index in 0..self.network.automata().len() {
            if !self.invariant_holds(state, index)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn any_committed(&self, state: &State) -> bool {
        self.network.automata().iter().enumerate().any(|(index, automaton)| {
            automaton.location(state.locations[index]).map(|l| l.is_committed()).unwrap_or(false)
        })
    }

    fn involves_committed(&self, state: &State, participants: &[(AutomatonId, usize)]) -> bool {
        participants.iter().any(|(automaton, _)| {
            let index = automaton.index();
            self.network.automata()[index]
                .location(state.locations[index])
                .map(|l| l.is_committed())
                .unwrap_or(false)
        })
    }

    /// Enabled receiving edges on `channel` over all automata except
    /// `exclude` (pass `usize::MAX` to exclude nothing).
    fn enabled_receivers(
        &self,
        state: &State,
        channel: crate::automaton::ChannelId,
        exclude: usize,
    ) -> Result<Vec<(AutomatonId, usize)>, PtaError> {
        let mut receivers = Vec::new();
        for (index, automaton) in self.network.automata().iter().enumerate() {
            if index == exclude {
                continue;
            }
            let source = state.locations[index];
            for (edge_index, edge) in automaton.edges_from(source) {
                let Some(sync) = edge.sync() else { continue };
                if sync.direction != SyncDirection::Receive || sync.channel != channel {
                    continue;
                }
                if self.guard_holds(state, edge)? {
                    receivers.push((AutomatonId(index), edge_index));
                    // Only the first enabled receiving edge per automaton is
                    // considered (sufficient for the TA-KiBaM models, where
                    // at most one receiving edge is enabled at a time).
                    break;
                }
            }
        }
        Ok(receivers)
    }

    /// Applies the edges of all participants (sender/internal first, then
    /// receivers in the given order), checks the invariants of the resulting
    /// state and returns it, or `None` if an invariant is violated.
    fn apply_action(
        &self,
        state: &State,
        participants: &[(AutomatonId, usize)],
    ) -> Result<Option<State>, PtaError> {
        let mut next = state.clone();
        let mut added_cost: u64 = 0;
        for (automaton_id, edge_index) in participants {
            let automaton = &self.network.automata()[automaton_id.index()];
            let edge = &automaton.edges()[*edge_index];
            // Cost and update right-hand sides are evaluated against the
            // current (partially updated) valuation, as in Uppaal's
            // sequential assignment semantics.
            let cost = {
                let ctx = EvalContext::new(&next.vars, &self.arrays, &next.clocks);
                edge.cost().eval(&ctx)?
            };
            if cost < 0 {
                return Err(PtaError::NegativeCost { value: cost });
            }
            added_cost += cost as u64;
            let mut new_values = Vec::with_capacity(edge.updates().len());
            {
                let ctx = EvalContext::new(&next.vars, &self.arrays, &next.clocks);
                for update in edge.updates() {
                    new_values.push((update.target, update.value.eval(&ctx)?));
                }
            }
            for (target, value) in new_values {
                if target.index() >= next.vars.len() {
                    return Err(PtaError::UnknownVariable { variable: target.index() });
                }
                next.vars[target.index()] = value;
            }
            for clock in edge.clock_resets() {
                if clock.index() >= next.clocks.len() {
                    return Err(PtaError::UnknownClock { clock: clock.index() });
                }
                next.clocks[clock.index()] = 0;
            }
            next.locations[automaton_id.index()] = edge.target();
        }
        next.cost = next.cost.saturating_add(added_cost);
        if self.all_invariants_hold(&next)? {
            Ok(Some(next))
        } else {
            Ok(None)
        }
    }

    /// Applies a delay of one time step, or returns `None` if an invariant
    /// forbids it.
    fn apply_delay(&self, state: &State) -> Result<Option<State>, PtaError> {
        let mut next = state.clone();
        for clock in &mut next.clocks {
            *clock = (*clock + 1).min(self.clock_cap);
        }
        next.time += 1;
        // Cost rates are evaluated in the state in which the time passes.
        let mut rate_sum: u64 = 0;
        {
            let ctx = self.context(state);
            for (index, automaton) in self.network.automata().iter().enumerate() {
                let location = state.locations[index];
                let rate = automaton
                    .location(location)
                    .map(|l| l.cost_rate().eval(&ctx))
                    .transpose()?
                    .unwrap_or(0);
                if rate < 0 {
                    return Err(PtaError::NegativeCost { value: rate });
                }
                rate_sum += rate as u64;
            }
        }
        next.cost = next.cost.saturating_add(rate_sum);
        if self.all_invariants_hold(&next)? {
            Ok(Some(next))
        } else {
            Ok(None)
        }
    }
}

/// Computes the clock saturation bound for a network: one more than the
/// largest non-negative integer appearing as a literal in any expression, as
/// an entry of any constant table, or as an initial variable value.
fn clock_cap_for(network: &Network, arrays: &[Vec<i64>]) -> u64 {
    let mut max: i64 = 0;
    let mut visit_int = |expr: &crate::expr::IntExpr| {
        let mut stack = vec![expr];
        while let Some(e) = stack.pop() {
            match e {
                crate::expr::IntExpr::Const(v) => max = max.max(*v),
                crate::expr::IntExpr::Var(_) => {}
                crate::expr::IntExpr::Elem(_, index) => stack.push(index),
                crate::expr::IntExpr::Add(a, b)
                | crate::expr::IntExpr::Sub(a, b)
                | crate::expr::IntExpr::Mul(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
    };
    fn visit_bool(expr: &crate::expr::BoolExpr, visit_int: &mut impl FnMut(&crate::expr::IntExpr)) {
        match expr {
            crate::expr::BoolExpr::True => {}
            crate::expr::BoolExpr::Cmp(a, _, b) => {
                visit_int(a);
                visit_int(b);
            }
            crate::expr::BoolExpr::ClockCmp(_, _, b) => visit_int(b),
            crate::expr::BoolExpr::And(a, b) | crate::expr::BoolExpr::Or(a, b) => {
                visit_bool(a, visit_int);
                visit_bool(b, visit_int);
            }
            crate::expr::BoolExpr::Not(a) => visit_bool(a, visit_int),
        }
    }
    for automaton in network.automata() {
        for location in automaton.locations() {
            visit_bool(location.invariant(), &mut visit_int);
            visit_int(location.cost_rate());
        }
        for edge in automaton.edges() {
            visit_bool(edge.guard(), &mut visit_int);
            visit_int(edge.cost());
            for update in edge.updates() {
                visit_int(&update.value);
            }
        }
    }
    for table in arrays {
        for &value in table {
            max = max.max(value);
        }
    }
    for value in network.initial_vars() {
        max = max.max(value);
    }
    (max as u64).saturating_add(1)
}

/// Convenience: location identifier constructors for tests and model
/// builders that index locations positionally.
impl LocationId {
    /// Creates a location identifier from a raw index. Only meaningful for
    /// locations that exist in the automaton it is used with.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        LocationId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Automaton, Edge, Location};
    use crate::expr::{BoolExpr, CmpOp, IntExpr};
    use crate::network::ChannelKind;

    /// A single automaton that counts to three using a clock with guard and
    /// invariant, accumulating cost at rate 2 while waiting.
    fn counting_network() -> (Network, crate::expr::VarId) {
        let mut network = Network::new();
        let x = network.add_clock("x");
        let count = network.add_var("count", 0);
        let mut automaton = Automaton::new("counter");
        let wait = automaton.add_location(
            Location::new("wait")
                .with_invariant(BoolExpr::clock_le(x, IntExpr::constant(3)))
                .with_cost_rate(IntExpr::constant(2)),
        );
        let done = automaton.add_location(Location::new("done"));
        automaton
            .add_edge(
                Edge::new(wait, done)
                    .with_guard(BoolExpr::clock_ge(x, IntExpr::constant(3)))
                    .with_update(count, IntExpr::var(count).add(IntExpr::constant(1))),
            )
            .unwrap();
        network.add_automaton(automaton).unwrap();
        (network, count)
    }

    #[test]
    fn initial_state_has_declared_values() {
        let (network, count) = counting_network();
        let semantics = Semantics::new(&network).unwrap();
        let initial = semantics.initial_state().unwrap();
        assert_eq!(initial.var(count), Some(0));
        assert_eq!(initial.cost(), 0);
        assert_eq!(initial.time(), 0);
    }

    #[test]
    fn delay_respects_invariant_and_accumulates_cost() {
        let (network, count) = counting_network();
        let semantics = Semantics::new(&network).unwrap();
        let mut state = semantics.initial_state().unwrap();
        // Three delays are possible, each costing 2; then the invariant
        // blocks further delay and only the edge remains.
        for step in 1..=3 {
            let successors = semantics.successors(&state).unwrap();
            let (_, delayed) = successors
                .iter()
                .find(|(label, _)| *label == TransitionLabel::Delay)
                .expect("delay must be possible");
            state = delayed.clone();
            assert_eq!(state.time(), step);
            assert_eq!(state.cost(), 2 * step);
        }
        let successors = semantics.successors(&state).unwrap();
        assert!(
            successors.iter().all(|(label, _)| *label != TransitionLabel::Delay),
            "invariant x <= 3 must forbid a fourth delay"
        );
        let (_, after_edge) = successors
            .iter()
            .find(|(label, _)| matches!(label, TransitionLabel::Internal { .. }))
            .expect("the guarded edge is enabled at x == 3");
        assert_eq!(after_edge.var(count), Some(1));
    }

    #[test]
    fn guard_blocks_edge_until_clock_reaches_bound() {
        let (network, _) = counting_network();
        let semantics = Semantics::new(&network).unwrap();
        let initial = semantics.initial_state().unwrap();
        let successors = semantics.successors(&initial).unwrap();
        assert!(
            successors.iter().all(|(label, _)| !matches!(label, TransitionLabel::Internal { .. })),
            "the edge guard x >= 3 must block at time 0"
        );
    }

    #[test]
    fn binary_synchronisation_moves_both_automata() {
        let mut network = Network::new();
        let go = network.add_channel("go", ChannelKind::Binary);
        let token = network.add_var("token", 0);

        let mut sender = Automaton::new("sender");
        let s0 = sender.add_location(Location::new("s0"));
        let s1 = sender.add_location(Location::new("s1"));
        sender
            .add_edge(Edge::new(s0, s1).with_send(go).with_update(token, IntExpr::constant(1)))
            .unwrap();
        let sender_id = network.add_automaton(sender).unwrap();

        let mut receiver = Automaton::new("receiver");
        let r0 = receiver.add_location(Location::new("r0"));
        let r1 = receiver.add_location(Location::new("r1"));
        receiver
            .add_edge(
                Edge::new(r0, r1)
                    .with_receive(go)
                    // The receiver sees the sender's update (sequential semantics).
                    .with_update(token, IntExpr::var(token).add(IntExpr::constant(10))),
            )
            .unwrap();
        let receiver_id = network.add_automaton(receiver).unwrap();

        let semantics = Semantics::new(&network).unwrap();
        let initial = semantics.initial_state().unwrap();
        let successors = semantics.successors(&initial).unwrap();
        let sync = successors
            .iter()
            .find(|(label, _)| matches!(label, TransitionLabel::Sync { .. }))
            .expect("the hand-shake must be enabled");
        let (_, next) = sync;
        assert_eq!(next.location(sender_id), s1);
        assert_eq!(next.location(receiver_id), r1);
        assert_eq!(next.var(token), Some(11));
    }

    #[test]
    fn broadcast_reaches_all_ready_receivers_and_fires_without_any() {
        let mut network = Network::new();
        let all = network.add_channel("all", ChannelKind::Broadcast);
        let hits = network.add_var("hits", 0);

        let mut sender = Automaton::new("sender");
        let s0 = sender.add_location(Location::new("s0"));
        let s1 = sender.add_location(Location::new("s1"));
        sender.add_edge(Edge::new(s0, s1).with_send(all)).unwrap();
        network.add_automaton(sender).unwrap();

        for name in ["r1", "r2"] {
            let mut receiver = Automaton::new(name);
            let r0 = receiver.add_location(Location::new("r0"));
            let r1 = receiver.add_location(Location::new("r1"));
            receiver
                .add_edge(
                    Edge::new(r0, r1)
                        .with_receive(all)
                        .with_update(hits, IntExpr::var(hits).add(IntExpr::constant(1))),
                )
                .unwrap();
            network.add_automaton(receiver).unwrap();
        }

        let semantics = Semantics::new(&network).unwrap();
        let initial = semantics.initial_state().unwrap();
        let successors = semantics.successors(&initial).unwrap();
        let (label, next) = successors
            .iter()
            .find(|(label, _)| matches!(label, TransitionLabel::Sync { .. }))
            .expect("broadcast is enabled");
        assert_eq!(next.var(hits), Some(2));
        if let TransitionLabel::Sync { receivers, .. } = label {
            assert_eq!(receivers.len(), 2);
        }
    }

    #[test]
    fn committed_locations_forbid_delay_and_take_priority() {
        let mut network = Network::new();
        let flag = network.add_var("flag", 0);

        // Automaton A sits in a committed location with an outgoing edge.
        let mut a = Automaton::new("a");
        let a0 = a.add_location(Location::new("a0").committed());
        let a1 = a.add_location(Location::new("a1"));
        a.add_edge(Edge::new(a0, a1).with_update(flag, IntExpr::constant(1))).unwrap();
        network.add_automaton(a).unwrap();

        // Automaton B has an unrelated edge that must be suppressed while A
        // is committed.
        let mut b = Automaton::new("b");
        let b0 = b.add_location(Location::new("b0"));
        let b1 = b.add_location(Location::new("b1"));
        b.add_edge(Edge::new(b0, b1)).unwrap();
        let b_id = network.add_automaton(b).unwrap();

        let semantics = Semantics::new(&network).unwrap();
        let initial = semantics.initial_state().unwrap();
        let successors = semantics.successors(&initial).unwrap();
        assert!(successors.iter().all(|(label, _)| *label != TransitionLabel::Delay));
        for (_, next) in &successors {
            assert_eq!(next.location(b_id), b0, "b may not move while a is committed");
        }
        assert_eq!(successors.len(), 1);
    }

    #[test]
    fn negative_edge_cost_is_rejected() {
        let mut network = Network::new();
        let mut a = Automaton::new("a");
        let l0 = a.add_location(Location::new("l0"));
        let l1 = a.add_location(Location::new("l1"));
        a.add_edge(Edge::new(l0, l1).with_cost(IntExpr::constant(-5))).unwrap();
        network.add_automaton(a).unwrap();
        let semantics = Semantics::new(&network).unwrap();
        let initial = semantics.initial_state().unwrap();
        assert!(matches!(
            semantics.successors(&initial),
            Err(PtaError::NegativeCost { value: -5 })
        ));
    }

    #[test]
    fn initial_invariant_violation_is_reported() {
        let mut network = Network::new();
        let v = network.add_var("v", 0);
        let mut a = Automaton::new("a");
        a.add_location(Location::new("impossible").with_invariant(BoolExpr::cmp(
            v,
            CmpOp::Gt,
            IntExpr::constant(0),
        )));
        network.add_automaton(a).unwrap();
        let semantics = Semantics::new(&network).unwrap();
        assert!(matches!(
            semantics.initial_state(),
            Err(PtaError::InitialInvariantViolated { .. })
        ));
    }

    #[test]
    fn variable_invariants_can_block_action_transitions() {
        let mut network = Network::new();
        let v = network.add_var("v", 0);
        let mut a = Automaton::new("a");
        let l0 = a.add_location(Location::new("l0"));
        // Target location requires v == 0, but the edge sets v to 1.
        let l1 = a.add_location(Location::new("l1").with_invariant(BoolExpr::cmp(
            v,
            CmpOp::Eq,
            IntExpr::constant(0),
        )));
        a.add_edge(Edge::new(l0, l1).with_update(v, IntExpr::constant(1))).unwrap();
        network.add_automaton(a).unwrap();
        let semantics = Semantics::new(&network).unwrap();
        let initial = semantics.initial_state().unwrap();
        let successors = semantics.successors(&initial).unwrap();
        assert!(
            successors.iter().all(|(label, _)| !matches!(label, TransitionLabel::Internal { .. })),
            "the move to l1 violates its invariant and must be pruned"
        );
    }
}
