//! Single timed automata: locations, switches and synchronisation labels.

use crate::expr::{BoolExpr, ClockId, IntExpr, VarId};
use crate::PtaError;

/// Identifier of a location within one automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocationId(pub(crate) usize);

impl LocationId {
    /// The raw index of this location in the automaton's declaration order.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Identifier of a channel declared in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub(crate) usize);

impl ChannelId {
    /// The raw index of this channel in the network's declaration order.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A location of a timed automaton.
///
/// Locations carry an invariant (when the location may be occupied), a cost
/// rate (cost accumulated per time step while the location is occupied) and
/// the *committed* flag (no delay may happen and committed locations have
/// priority, as in Uppaal/Cora).
#[derive(Debug, Clone, PartialEq)]
pub struct Location {
    name: String,
    invariant: BoolExpr,
    cost_rate: IntExpr,
    committed: bool,
}

impl Location {
    /// Creates a location with a true invariant, zero cost rate and no
    /// committed flag.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            invariant: BoolExpr::True,
            cost_rate: IntExpr::Const(0),
            committed: false,
        }
    }

    /// Sets the location invariant.
    #[must_use]
    pub fn with_invariant(mut self, invariant: BoolExpr) -> Self {
        self.invariant = invariant;
        self
    }

    /// Sets the cost rate (`cost' == rate` in Cora syntax): the amount added
    /// to the global cost for every time step spent in this location.
    #[must_use]
    pub fn with_cost_rate(mut self, rate: IntExpr) -> Self {
        self.cost_rate = rate;
        self
    }

    /// Marks the location as committed.
    #[must_use]
    pub fn committed(mut self) -> Self {
        self.committed = true;
        self
    }

    /// The location name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The location invariant.
    #[must_use]
    pub fn invariant(&self) -> &BoolExpr {
        &self.invariant
    }

    /// The cost rate expression.
    #[must_use]
    pub fn cost_rate(&self) -> &IntExpr {
        &self.cost_rate
    }

    /// Whether the location is committed.
    #[must_use]
    pub fn is_committed(&self) -> bool {
        self.committed
    }
}

/// Direction of a synchronisation: `c!` (send) or `c?` (receive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncDirection {
    /// The sending side (`channel!`).
    Send,
    /// The receiving side (`channel?`).
    Receive,
}

/// A synchronisation label on an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sync {
    /// The channel synchronised on.
    pub channel: ChannelId,
    /// Whether this edge sends or receives.
    pub direction: SyncDirection,
}

/// An assignment `variable := expression` performed when an edge fires.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// The variable being assigned.
    pub target: VarId,
    /// The assigned value, evaluated in the pre-update state.
    pub value: IntExpr,
}

/// A switch (edge) of a timed automaton.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    source: LocationId,
    target: LocationId,
    guard: BoolExpr,
    sync: Option<Sync>,
    updates: Vec<Update>,
    clock_resets: Vec<ClockId>,
    cost: IntExpr,
}

impl Edge {
    /// Creates an edge from `source` to `target` with a true guard, no
    /// synchronisation, no updates and zero cost.
    #[must_use]
    pub fn new(source: LocationId, target: LocationId) -> Self {
        Self {
            source,
            target,
            guard: BoolExpr::True,
            sync: None,
            updates: Vec::new(),
            clock_resets: Vec::new(),
            cost: IntExpr::Const(0),
        }
    }

    /// Sets the guard.
    #[must_use]
    pub fn with_guard(mut self, guard: BoolExpr) -> Self {
        self.guard = guard;
        self
    }

    /// Labels the edge as sending on `channel` (`channel!`).
    #[must_use]
    pub fn with_send(mut self, channel: ChannelId) -> Self {
        self.sync = Some(Sync { channel, direction: SyncDirection::Send });
        self
    }

    /// Labels the edge as receiving on `channel` (`channel?`).
    #[must_use]
    pub fn with_receive(mut self, channel: ChannelId) -> Self {
        self.sync = Some(Sync { channel, direction: SyncDirection::Receive });
        self
    }

    /// Appends an assignment performed when the edge fires.
    #[must_use]
    pub fn with_update(mut self, target: VarId, value: IntExpr) -> Self {
        self.updates.push(Update { target, value });
        self
    }

    /// Appends a clock reset performed when the edge fires.
    #[must_use]
    pub fn with_reset(mut self, clock: ClockId) -> Self {
        self.clock_resets.push(clock);
        self
    }

    /// Sets the discrete cost added to the global cost when the edge fires
    /// (`cost += value` in Cora syntax).
    #[must_use]
    pub fn with_cost(mut self, cost: IntExpr) -> Self {
        self.cost = cost;
        self
    }

    /// The source location.
    #[must_use]
    pub fn source(&self) -> LocationId {
        self.source
    }

    /// The target location.
    #[must_use]
    pub fn target(&self) -> LocationId {
        self.target
    }

    /// The guard expression.
    #[must_use]
    pub fn guard(&self) -> &BoolExpr {
        &self.guard
    }

    /// The synchronisation label, if any.
    #[must_use]
    pub fn sync(&self) -> Option<&Sync> {
        self.sync.as_ref()
    }

    /// The variable assignments performed when the edge fires.
    #[must_use]
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// The clocks reset when the edge fires.
    #[must_use]
    pub fn clock_resets(&self) -> &[ClockId] {
        &self.clock_resets
    }

    /// The discrete cost expression of the edge.
    #[must_use]
    pub fn cost(&self) -> &IntExpr {
        &self.cost
    }
}

/// A single timed automaton: a set of locations and edges plus an initial
/// location.
#[derive(Debug, Clone, PartialEq)]
pub struct Automaton {
    name: String,
    locations: Vec<Location>,
    edges: Vec<Edge>,
    initial: LocationId,
}

impl Automaton {
    /// Creates an empty automaton with the given name. The first added
    /// location becomes the initial location unless
    /// [`set_initial`](Automaton::set_initial) is called.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), locations: Vec::new(), edges: Vec::new(), initial: LocationId(0) }
    }

    /// Adds a location and returns its identifier.
    pub fn add_location(&mut self, location: Location) -> LocationId {
        self.locations.push(location);
        LocationId(self.locations.len() - 1)
    }

    /// Adds an edge.
    ///
    /// # Errors
    ///
    /// Returns [`PtaError::UnknownLocation`] if the edge refers to a
    /// location that has not been added to this automaton.
    pub fn add_edge(&mut self, edge: Edge) -> Result<(), PtaError> {
        for loc in [edge.source, edge.target] {
            if loc.0 >= self.locations.len() {
                return Err(PtaError::UnknownLocation {
                    automaton: self.name.clone(),
                    location: loc.0,
                });
            }
        }
        self.edges.push(edge);
        Ok(())
    }

    /// Sets the initial location.
    ///
    /// # Errors
    ///
    /// Returns [`PtaError::UnknownLocation`] if the location does not exist.
    pub fn set_initial(&mut self, initial: LocationId) -> Result<(), PtaError> {
        if initial.0 >= self.locations.len() {
            return Err(PtaError::UnknownLocation {
                automaton: self.name.clone(),
                location: initial.0,
            });
        }
        self.initial = initial;
        Ok(())
    }

    /// The automaton name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The locations in declaration order.
    #[must_use]
    pub fn locations(&self) -> &[Location] {
        &self.locations
    }

    /// The location with the given identifier.
    #[must_use]
    pub fn location(&self, id: LocationId) -> Option<&Location> {
        self.locations.get(id.0)
    }

    /// The edges in declaration order.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The initial location.
    #[must_use]
    pub fn initial(&self) -> LocationId {
        self.initial
    }

    /// The edges leaving the given location, with their indices.
    pub fn edges_from(&self, source: LocationId) -> impl Iterator<Item = (usize, &Edge)> {
        self.edges.iter().enumerate().filter(move |(_, e)| e.source == source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    #[test]
    fn location_builder_sets_all_attributes() {
        let clockless = Location::new("idle");
        assert_eq!(clockless.name(), "idle");
        assert_eq!(clockless.invariant(), &BoolExpr::True);
        assert!(!clockless.is_committed());

        let fancy = Location::new("busy")
            .with_invariant(BoolExpr::cmp(IntExpr::constant(1), CmpOp::Eq, IntExpr::constant(1)))
            .with_cost_rate(IntExpr::constant(5))
            .committed();
        assert!(fancy.is_committed());
        assert_eq!(fancy.cost_rate(), &IntExpr::Const(5));
    }

    #[test]
    fn edges_validate_location_ids() {
        let mut automaton = Automaton::new("a");
        let l0 = automaton.add_location(Location::new("l0"));
        let l1 = automaton.add_location(Location::new("l1"));
        assert!(automaton.add_edge(Edge::new(l0, l1)).is_ok());
        assert!(matches!(
            automaton.add_edge(Edge::new(l0, LocationId(9))),
            Err(PtaError::UnknownLocation { location: 9, .. })
        ));
        assert!(automaton.set_initial(l1).is_ok());
        assert!(automaton.set_initial(LocationId(5)).is_err());
        assert_eq!(automaton.initial(), l1);
    }

    #[test]
    fn edges_from_filters_by_source() {
        let mut automaton = Automaton::new("a");
        let l0 = automaton.add_location(Location::new("l0"));
        let l1 = automaton.add_location(Location::new("l1"));
        automaton.add_edge(Edge::new(l0, l1)).unwrap();
        automaton.add_edge(Edge::new(l1, l0)).unwrap();
        automaton.add_edge(Edge::new(l0, l0)).unwrap();
        assert_eq!(automaton.edges_from(l0).count(), 2);
        assert_eq!(automaton.edges_from(l1).count(), 1);
    }

    #[test]
    fn edge_builder_accumulates_updates_and_resets() {
        let mut automaton = Automaton::new("a");
        let l0 = automaton.add_location(Location::new("l0"));
        let channel = ChannelId(0);
        let edge = Edge::new(l0, l0)
            .with_guard(BoolExpr::True)
            .with_send(channel)
            .with_update(VarId(0), IntExpr::constant(1))
            .with_update(VarId(1), IntExpr::constant(2))
            .with_reset(ClockId(0))
            .with_cost(IntExpr::constant(3));
        assert_eq!(edge.updates().len(), 2);
        assert_eq!(edge.clock_resets().len(), 1);
        assert_eq!(edge.sync().unwrap().direction, SyncDirection::Send);
        assert_eq!(edge.cost(), &IntExpr::Const(3));
    }
}
