//! Optimal battery schedules.
//!
//! The paper obtains optimal schedules by asking Uppaal Cora for a
//! minimum-cost path through the TA-KiBaM. This module computes the same
//! optimum directly: a depth-first branch-and-bound search over the battery
//! state, branching only at scheduling points (job starts and battery-empty
//! events), with
//!
//! * a **charge upper bound** on the remaining lifetime derived from the
//!   remaining usable charge and the load ahead (a schedule can never
//!   outlive the point at which the load has requested more charge than all
//!   batteries jointly hold),
//! * an **availability upper bound** that couples per-battery draw/recovery
//!   dynamics with the load's duty cycle: each battery reports an
//!   admissible service envelope ([`BatteryModel::service_inputs`],
//!   backed by the per-type [`dkibam::ServiceRateTable`]) bounding the
//!   units it can serve within any window given the demand delivered by
//!   then, and the bound walks the remaining epochs charging every draw
//!   against both the joint charge budget and the fleet's joint
//!   availability. On loads that strand charge (`ILs alt` leaves ~70 %
//!   behind) the charge bound never fires — batteries die from the Eq. 8
//!   emptiness criterion, not exhaustion — while the availability bound
//!   tracks exactly that criterion: it shrinks the 3-battery alternating
//!   search ~4× (53.6k nodes vs 208.5k, pinned in
//!   `tests/bound_admissibility.rs`) and fires on roughly half of all
//!   nodes there, where the charge bound fires on none,
//! * **symmetry pruning** (batteries in identical states need only be tried
//!   once),
//! * a **transposition table** keyed by the canonicalized battery state and
//!   the position in the load, pruning revisits that cannot improve on an
//!   earlier visit ([`OptimalOutcome::memo_hits`]),
//! * **dominance pruning**: a candidate whose batteries are component-wise
//!   no better than an already-expanded state at the same load position —
//!   an elder sibling or any transposition — is skipped; the table keeps
//!   only the Pareto front of expanded states per position
//!   ([`OptimalOutcome::dominance_prunes`]), and
//! * **warm starting** from the best of *all* deterministic policies
//!   (sequential, round robin, best-of-two, capacity-weighted round
//!   robin) *plus* an LP-rounding seed — the relaxation's optimal
//!   fractional assignment ([`relax::max_coverage`]) rounded to one
//!   battery per job epoch and replayed as a schedule — so the bounds are
//!   maximally effective from node 0; [`OptimalOutcome::seeded_by`]
//!   reports which policy provided the incumbent.
//!
//! Every request starts with one **root pass**
//! ([`OptimalScheduler::root_pass`]): the fresh fleet's exact per-battery
//! service columns are built once by the serve/skip dynamic program of
//! [`dkibam::ColumnBuilder`], and two consumers share them — the
//! LP-rounding seed above, and the **relaxation root bound**, which drops
//! only the "one battery per draw" coupling and couples the columns
//! through the shared demand (the closed form of the `relax` crate's
//! prefix-capacity transportation relaxation, [`relax::coverage_bound`]).
//! The relaxation is a root diagnostic ([`RootBounds::relaxation`]), not a
//! node bound: evaluated per node it cost ~20 µs each time and pruned too
//! little to pay for itself, losing on the wall clock on every contained
//! frontier instance, so the search prunes with the charge and
//! availability bounds only.
//!
//! The search runs on an explicit stack (no recursion) and is
//! allocation-free per node in steady state: snapshots live in a pool
//! indexed by depth, and candidate buffers are arenas that grow only to
//! the search's high-water mark. The availability bound builds each
//! distinct service envelope once per search: an envelope depends only on
//! the battery's type, charge and height (and the load's largest draw,
//! fixed per search), and a search revisits few of those — 3×B1 `ILs alt`
//! asks for 160,788 envelopes over 53,595 nodes but only 356 distinct ones.
//! A bounded per-search memo keeps them; past its cap, a miss is rebuilt
//! into a scratch slot on every evaluation
//! ([`OptimalOutcome::envelope_builds`] counts the builds).
//!
//! How much each pruning buys depends on the load: deep searches with
//! converging histories (e.g. `ILs 250`, random loads, three-battery
//! systems) shrink 5–10× under the transposition table, while short
//! alternating loads on two batteries (`ILs alt`) are already near-minimal
//! after symmetry pruning and only the availability bound trims them
//! further. The availability bound alone sits ~2× above the true optimum
//! at the root of the alternating loads; the relaxation's exact
//! per-battery columns close part of that gap at the root
//! (`examples/frontier_probe.rs` and
//! [`OptimalScheduler::probe_root_bounds`] measure the per-bound root
//! tightness). The bench harness
//! (`cargo run --release -p bench --bin scenarios -- --optimal`) prints the
//! per-load node counts of both searches.
//!
//! The search is generic over the [`BatteryModel`] backend: it runs against
//! the discretized KiBaM (the paper's model, [`OptimalScheduler::find_optimal`])
//! or any other backend ([`OptimalScheduler::find_optimal_with`]), using the
//! backend's cheap save/restore state to branch. Memoization and dominance
//! pruning engage automatically on backends that support them (the
//! discretized KiBaM does; the continuous backend falls back to the plain
//! bounded search). It returns the maximum achievable system lifetime for
//! the given discretization together with the decision sequence that
//! realises it (replayable through [`crate::policy::FixedSchedule`]).

use crate::model::{BatteryModel, StateKey};
use crate::policy::{
    BestAvailable, CapacityWeightedRoundRobin, RoundRobin, SchedulingPolicy, Sequential,
};
use crate::system::{simulate_policy_with, SystemConfig};
use crate::SchedError;
use dkibam::{
    ColumnBuilder, DiscreteEpoch, DiscretizedLoad, EnvelopeCursor, ServiceColumn, ServiceEnvelope,
    ServiceRateTable,
};
use std::collections::HashMap; // xlint: allow(hash) -- see `FxMap` below
use std::hash::{BuildHasherDefault, Hasher};
use workload::LoadProfile;

/// A minimal Fx-style hasher (multiply–xor–rotate, as used by rustc). The
/// transposition table hashes a fat key (up to four `u128` words plus the
/// position) at every node; the default SipHash is a measurable fraction of
/// the whole search there, and HashDoS resistance is irrelevant for a
/// single-process search table. The build environment is offline, so this is
/// written out instead of depending on `rustc-hash`.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher {
    state: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.mix(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    #[inline]
    fn write_u128(&mut self, value: u128) {
        #[allow(clippy::cast_possible_truncation)]
        // xlint: allow(cast) -- hashing deliberately folds the two u64 halves
        self.mix(value as u64);
        #[allow(clippy::cast_possible_truncation)]
        // xlint: allow(cast) -- hashing deliberately folds the two u64 halves
        self.mix((value >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        // xlint: allow(cast) -- usize -> u64 is lossless on supported targets
        self.mix(value as u64);
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// The search's hash map: Fx-hashed for speed. Hash iteration order is
/// never observed — `seen` and `fronts` are probed by key only, so the
/// determinism argument does not rest on this container.
// xlint: allow(hash) -- keyed lookups only; iteration order is never observed
type FxMap<K, V> = HashMap<K, V, FxBuild>;

/// Default node budget of the search (decision nodes, not states).
pub const DEFAULT_BUDGET: usize = 20_000_000;

/// The most batteries the availability bound handles (per-battery table
/// references live in a fixed-size array on the bound's hot path); larger
/// fleets simply skip the availability bound.
const MAX_BOUND_BATTERIES: usize = 8;

/// The most Pareto-maximal expanded states retained per load position for
/// dominance checks. The cap bounds both memory and the per-node scan cost;
/// states beyond it are still explored, just not recorded as pruners.
const MAX_STATES_PER_POSITION: usize = 16;

/// The most entries the transposition table retains. Bounds the memory of
/// deep searches (an entry is ~90 bytes); once full, new states are still
/// explored but no longer recorded, so pruning degrades gracefully instead
/// of exhausting memory.
const MAX_MEMO_ENTRIES: usize = 1_000_000;

/// The most service envelopes one search memoizes. Measured distinct
/// envelopes per search: 46–402 on the contained frontier instances at the
/// coarse grid (~1.5–2.7 KB each), 99–3,524 at the paper grid (~8–14 KB
/// each; 3×B1 `ILs alt` is the largest, ~30 MB). The cap keeps that
/// largest case with 2× headroom and bounds the memo to ~70–110 MB at the
/// paper grid, the same order as the transposition table's bound. Past
/// the cap a miss is built into a per-battery scratch slot instead, as if
/// there were no memo.
const MAX_ENVELOPE_ENTRIES: usize = 8_192;

/// The most `(StateKey, elapsed)` entries retained across *all* dominance
/// fronts, analogous to [`MAX_MEMO_ENTRIES`]: fine-grained loads can visit
/// millions of distinct positions, and without a global cap the per-position
/// `Vec`s (and their map slots) would grow unboundedly. Once full, existing
/// fronts still prune; new positions are no longer recorded.
const MAX_FRONT_ENTRIES: usize = 500_000;

/// The result of an optimal-schedule search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimalOutcome {
    /// The maximum achievable system lifetime, in time steps.
    pub lifetime_steps: u64,
    /// The decisions (battery index per scheduling point) realising it.
    pub decisions: Vec<usize>,
    /// The number of decision nodes explored by the search.
    pub nodes_explored: usize,
    /// Nodes pruned by the transposition table: the same canonical battery
    /// state was reached at the same load position with at least as much
    /// lifetime already accumulated.
    pub memo_hits: usize,
    /// Nodes pruned because an already-expanded state at the same load
    /// position (an elder sibling or a transposition) was component-wise at
    /// least as good.
    pub dominance_prunes: usize,
    /// Nodes cut by the usable-charge upper bound against the incumbent.
    pub charge_bound_prunes: usize,
    /// Nodes cut by the availability-aware upper bound (recovery-coupled
    /// service envelopes) after the charge bound failed to fire.
    pub availability_bound_prunes: usize,
    /// Service envelopes the availability bound built: the misses of the
    /// search's envelope memo (every evaluation looks up one envelope per
    /// battery; only a state not seen before, or one past the memo's cap,
    /// costs a build).
    pub envelope_builds: usize,
    /// The deterministic policy whose simulated lifetime seeded the warm
    /// start incumbent, or `None` if no policy produced a lifetime (the
    /// load ended before the batteries died under every policy).
    pub seeded_by: Option<&'static str>,
}

impl OptimalOutcome {
    /// The optimal lifetime in minutes under the given configuration.
    #[must_use]
    pub fn lifetime_minutes(&self, config: &SystemConfig) -> f64 {
        config.disc().steps_to_minutes(self.lifetime_steps)
    }
}

/// Exact optimal-schedule search (branch and bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimalScheduler {
    budget: usize,
    memoize: bool,
    dominance: bool,
    availability: bool,
    /// Entries the search's envelope memo may store.
    envelope_cap: usize,
}

impl Default for OptimalScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl OptimalScheduler {
    /// Creates a scheduler with the default node budget and all prunings
    /// (memoization + dominance + the availability bound) enabled.
    #[must_use]
    pub fn new() -> Self {
        Self {
            budget: DEFAULT_BUDGET,
            memoize: true,
            dominance: true,
            availability: true,
            envelope_cap: MAX_ENVELOPE_ENTRIES,
        }
    }

    /// Creates a scheduler with an explicit node budget. The search fails
    /// with [`SchedError::SearchBudgetExceeded`] instead of silently
    /// returning a sub-optimal answer when the budget runs out.
    #[must_use]
    pub fn with_budget(budget: usize) -> Self {
        Self { budget, ..Self::new() }
    }

    /// A reference scheduler with memoization, dominance pruning and the
    /// availability bound disabled: the plain bounded search (charge
    /// bound, symmetry and warm start only — the seed search).
    /// Equivalence tests and the bench harness compare the pruned search
    /// against this one — both must return identical lifetimes, the
    /// pruned one in (far) fewer nodes.
    #[must_use]
    pub fn reference() -> Self {
        Self { memoize: false, dominance: false, availability: false, ..Self::new() }
    }

    /// Disables the transposition table (for ablation and equivalence
    /// testing).
    #[must_use]
    pub fn without_memoization(mut self) -> Self {
        self.memoize = false;
        self
    }

    /// Disables sibling dominance pruning (for ablation and equivalence
    /// testing).
    #[must_use]
    pub fn without_dominance(mut self) -> Self {
        self.dominance = false;
        self
    }

    /// Disables the availability-aware bound, leaving only the charge
    /// bound (for ablation: this is the full pre-availability search, so
    /// node-count comparisons against it isolate what the new bound buys).
    #[must_use]
    pub fn without_availability_bound(mut self) -> Self {
        self.availability = false;
        self
    }

    /// Returns the scheduler unchanged. The min-cost-flow relaxation is no
    /// longer a per-node bound (it is evaluated once, at the root — see
    /// [`OptimalScheduler::root_pass`]), so there is nothing to disable;
    /// kept only for callers written against the ablation it once was.
    #[must_use]
    pub fn without_relax_bound(self) -> Self {
        self
    }

    /// Caps the search's envelope memo at `cap` entries; 0 rebuilds every
    /// envelope on every evaluation, the memo-free search.
    #[cfg(test)]
    fn with_envelope_cap(mut self, cap: usize) -> Self {
        self.envelope_cap = cap;
        self
    }

    /// The node budget of this scheduler.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Finds the optimal schedule for a load profile under the discretized
    /// KiBaM backend (the paper's model).
    ///
    /// # Errors
    ///
    /// Propagates discretization errors and returns
    /// [`SchedError::SearchBudgetExceeded`] if the node budget is exhausted.
    pub fn find_optimal(
        &self,
        config: &SystemConfig,
        profile: &LoadProfile,
    ) -> Result<OptimalOutcome, SchedError> {
        let load = config.discretize(profile)?;
        self.find_optimal_on(config, &load)
    }

    /// Finds the optimal schedule for an already-discretized load under the
    /// discretized KiBaM backend.
    ///
    /// # Errors
    ///
    /// Same as [`OptimalScheduler::find_optimal`].
    pub fn find_optimal_on(
        &self,
        config: &SystemConfig,
        load: &DiscretizedLoad,
    ) -> Result<OptimalOutcome, SchedError> {
        let mut model = config.discretized_model();
        self.find_optimal_with(config, load, &mut model)
    }

    /// Finds the optimal schedule against an arbitrary [`BatteryModel`]
    /// backend: one [`OptimalScheduler::root_pass`], then
    /// [`OptimalScheduler::search_from`] it. The model is reset before the
    /// search; it must have been built for the same parameters and
    /// discretization as `config`.
    ///
    /// # Errors
    ///
    /// Same as [`OptimalScheduler::find_optimal`].
    pub fn find_optimal_with<M: BatteryModel>(
        &self,
        config: &SystemConfig,
        load: &DiscretizedLoad,
        model: &mut M,
    ) -> Result<OptimalOutcome, SchedError> {
        let root = Self::root_pass(config, load, model)?;
        self.search_from(config, load, model, root)
    }

    /// Runs the branch-and-bound search seeded from a root pass's warm
    /// start. `root` must come from [`OptimalScheduler::root_pass`] on the
    /// same configuration, load and backend.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::SearchBudgetExceeded`] if the node budget is
    /// exhausted.
    pub fn search_from<M: BatteryModel>(
        &self,
        config: &SystemConfig,
        load: &DiscretizedLoad,
        model: &mut M,
        root: RootPass,
    ) -> Result<OptimalOutcome, SchedError> {
        let seeded_by = root.warm.seeded_by;
        let mut search = Search::new(config, load, model, *self, root.warm);
        search.explore()?;

        Ok(OptimalOutcome {
            lifetime_steps: search.best_steps,
            decisions: search.best_decisions,
            nodes_explored: search.nodes,
            memo_hits: search.memo_hits,
            dominance_prunes: search.dominance_prunes,
            charge_bound_prunes: search.charge_bound_prunes,
            availability_bound_prunes: search.availability_bound_prunes,
            envelope_builds: search.envelopes.builds,
            seeded_by,
        })
    }
}

/// The values of the search's admissible upper bounds at the root position
/// (fresh fleet, start of load), plus the warm-start incumbent. Each bound
/// is a number of lifetime steps; `optimum ≤ min(bounds)` and
/// `warm_start ≤ optimum`, so `min(bounds) − warm_start` brackets the gap
/// the search has to close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootBounds {
    /// The usable-charge bound.
    pub charge: u64,
    /// The availability (recovery-coupled service envelope) bound.
    pub availability: u64,
    /// The min-cost-flow relaxation bound over exact per-battery service
    /// columns, or `u64::MAX` when the backend cannot provide columns.
    pub relaxation: u64,
    /// The warm-start incumbent (best deterministic policy or LP rounding).
    pub warm_start: u64,
}

/// The root pass of one optimal request: the warm-start incumbent and the
/// root bounds, computed from one build of the fresh fleet's service
/// columns. [`OptimalScheduler::search_from`] seeds the search with it.
#[derive(Debug)]
pub struct RootPass {
    /// The search's upper bounds at the root, and the warm start.
    pub bounds: RootBounds,
    warm: WarmStart,
}

impl OptimalScheduler {
    /// The root pass of an optimal request: builds the fresh fleet's exact
    /// per-battery service columns once, feeds them to both the
    /// LP-rounding warm start and the relaxation root bound, and evaluates
    /// the charge and availability bounds at the root position.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the warm-start policies.
    pub fn root_pass<M: BatteryModel>(
        config: &SystemConfig,
        load: &DiscretizedLoad,
        model: &mut M,
    ) -> Result<RootPass, SchedError> {
        let columns = root_columns(load, model);
        let warm = warm_start(config, load, model, columns.as_ref())?;
        let relaxation = columns.map_or(u64::MAX, |columns| relax_root_bound(load, &columns));
        // Bounds are probed against a zeroed incumbent so they never
        // early-exit at the pruning margin.
        let probe = WarmStart { steps: 0, decisions: Vec::new(), seeded_by: None };
        let mut search = Search::new(config, load, model, OptimalScheduler::new(), probe);
        let charge = search.charge_bound(0, 0);
        let availability = search.availability_bound(0, 0, u64::MAX);
        let bounds = RootBounds { charge, availability, relaxation, warm_start: warm.steps };
        Ok(RootPass { bounds, warm })
    }

    /// The root pass's bounds alone: the search's upper bounds at the root
    /// position (fresh fleet, start of load) plus the warm-start
    /// incumbent, without searching. Diagnostic API for bound-tightness
    /// tests and the bench harness.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the warm-start policies.
    pub fn probe_root_bounds<M: BatteryModel>(
        config: &SystemConfig,
        load: &DiscretizedLoad,
        model: &mut M,
    ) -> Result<RootBounds, SchedError> {
        Ok(Self::root_pass(config, load, model)?.bounds)
    }
}

/// The warm-start incumbent: the best deterministic-policy schedule.
#[derive(Debug)]
struct WarmStart {
    steps: u64,
    decisions: Vec<usize>,
    seeded_by: Option<&'static str>,
}

/// The fresh fleet's full-horizon service columns, shared by the
/// LP-rounding seed and the relaxation root bound.
struct RootColumns {
    /// One exact column per battery ([`ColumnBuilder`]).
    columns: Vec<ServiceColumn>,
    /// Batteries not yet observed empty.
    alive: u64,
}

/// Builds the fresh fleet's service columns over the whole load. `None`
/// when the backend cannot produce columns (no relaxation to evaluate or
/// round).
fn root_columns<M: BatteryModel>(load: &DiscretizedLoad, model: &mut M) -> Option<RootColumns> {
    model.reset();
    let battery_count = model.battery_count();
    if battery_count == 0 || battery_count > MAX_BOUND_BATTERIES {
        return None;
    }
    let mut builder = ColumnBuilder::default();
    let mut columns: Vec<ServiceColumn> = Vec::with_capacity(battery_count);
    let mut alive: u64 = 0;
    for battery in 0..battery_count {
        let (state, params, recovery) = model.column_inputs(battery)?;
        alive += u64::from(!state.is_observed_empty());
        // A column depends only on the battery's type and state: a battery
        // identical to an earlier one (every same-type battery of a fresh
        // fleet) copies that battery's column instead of rerunning the DP.
        let column = match (0..battery).find(|&earlier| model.states_identical(earlier, battery)) {
            Some(earlier) => columns[earlier].clone(),
            None => {
                let mut column = ServiceColumn::default();
                builder.build(state, params, recovery, load.epochs(), 0, &mut column);
                column
            }
        };
        columns.push(column);
    }
    Some(RootColumns { columns, alive })
}

/// Simulates every deterministic policy — plus the LP-rounding plan, when
/// the backend can produce service columns — and returns the best lifetime
/// as the search's initial incumbent, which makes the bounds maximally
/// effective from the first node.
fn warm_start<M: BatteryModel>(
    config: &SystemConfig,
    load: &DiscretizedLoad,
    model: &mut M,
    columns: Option<&RootColumns>,
) -> Result<WarmStart, SchedError> {
    let mut warm = WarmStart { steps: 0, decisions: Vec::new(), seeded_by: None };
    for (name, policy) in [
        ("sequential", &mut Sequential::new() as &mut dyn SchedulingPolicy),
        ("round robin", &mut RoundRobin::new()),
        ("best of two", &mut BestAvailable::new()),
        ("capacity-weighted round robin", &mut CapacityWeightedRoundRobin::new()),
    ] {
        let outcome = simulate_policy_with(config, load, policy, model)?;
        if let Some(steps) = outcome.lifetime_steps() {
            if steps > warm.steps {
                warm.steps = steps;
                warm.decisions = outcome.schedule().decisions();
                warm.seeded_by = Some(name);
            }
        }
    }
    if let Some(columns) = columns {
        let mut policy = lp_rounding_plan(load, columns);
        let outcome = simulate_policy_with(config, load, &mut policy, model)?;
        if let Some(steps) = outcome.lifetime_steps() {
            if steps > warm.steps {
                warm.steps = steps;
                warm.decisions = outcome.schedule().decisions();
                warm.seeded_by = Some("lp-rounding");
            }
        }
    }
    Ok(warm)
}

/// Builds the LP-rounding seed: solve the min-cost-flow relaxation over
/// the fresh fleet's exact service columns ([`relax::max_coverage`], whose
/// costs prefer early coverage and round-robin rotation), then round the
/// fractional assignment to one battery per job epoch — the battery the
/// relaxation gives the most units of that epoch to.
fn lp_rounding_plan(load: &DiscretizedLoad, root: &RootColumns) -> PlanPolicy {
    let columns: Vec<&[u64]> = root.columns.iter().map(|column| column.units.as_slice()).collect();
    let demands: Vec<u64> = load
        .epochs()
        .iter()
        .filter(|epoch| !epoch.is_idle())
        .map(DiscreteEpoch::total_units)
        .collect();
    let coverage = relax::max_coverage(&columns, &demands);
    let plan = (0..demands.len())
        .map(|e| {
            let mut best = 0usize;
            let mut best_units = 0u64;
            for (battery, assigned) in coverage.assignment.iter().enumerate() {
                let units = assigned.get(e).copied().unwrap_or(0);
                if units > best_units {
                    best_units = units;
                    best = battery;
                }
            }
            best
        })
        .collect();
    PlanPolicy { plan }
}

/// Min-cost-flow relaxation bound on the lifetime from the root. It drops
/// only the "one battery per draw" coupling: battery `i`'s cumulative
/// service through job epoch `e` is bounded by its *exact* best-case
/// column `columns[i][e]` (the serve/skip DP of [`ColumnBuilder`], which
/// prices every recovery the battery would actually need), and the fleet
/// jointly covers each epoch's demand. Because the columns are
/// cumulative, the optimum of that transportation relaxation has a
/// closed-form min cut ([`relax::coverage_bound`]); here the demand walk
/// uses its epoch form directly: the system dies in the first epoch whose
/// cumulative demand exceeds the summed column capacities, and the last
/// coverable draw inside that epoch follows from the remaining unit
/// budget.
fn relax_root_bound(load: &DiscretizedLoad, root: &RootColumns) -> u64 {
    // The columns were built over these same epochs: one entry per job
    // epoch, so `job_epoch` always indexes within them.
    let columns = &root.columns;
    let mut cumulative_demand: u64 = 0;
    let mut whole_epochs: u64 = 0;
    let mut steps: u64 = 0;
    let mut job_epoch = 0usize;
    for epoch in load.epochs() {
        let duration = epoch.duration_steps();
        if epoch.is_idle() {
            steps += duration;
            continue;
        }
        let interval = u64::from(epoch.draw_interval_steps());
        let units = u64::from(epoch.units_per_draw());
        let draws_possible = duration / interval;
        let epoch_demand = draws_possible * units;
        let capacity: u64 =
            columns.iter().map(|column| column.units[job_epoch]).fold(0, u64::saturating_add);
        let mut death: Option<u64> = None;
        if cumulative_demand.saturating_add(epoch_demand) > capacity {
            // The relaxed fleet dies in this epoch: it can cover
            // `capacity − cumulative_demand` more units, i.e. that many
            // whole draws, and survives one draw interval past the last
            // covered draw (or to the first draw, if none).
            let draws_served = capacity.saturating_sub(cumulative_demand) / units;
            death = Some(steps + (draws_served + 1).min(draws_possible) * interval);
        }
        // Serialization cut: of the `whole_epochs` job epochs so far, at
        // most `alive` can be split between batteries (every mid-epoch
        // handoff consumes one of the remaining deaths); the rest must each
        // be served whole by a single battery, and `Σ full_epochs` caps how
        // many whole serves the fleet has. The fractional LP may still
        // split a whole serve across batteries, so this is the
        // relaxation's integral face — it is what keeps the bound from
        // degenerating to the charge budget on fresh fleets, where
        // per-unit capacity is plentiful but serialized epoch coverage is
        // not.
        if epoch_demand > 0 {
            whole_epochs += 1;
            let full_serves: u64 = columns
                .iter()
                .map(|column| column.full_epochs[job_epoch])
                .fold(0, u64::saturating_add);
            if whole_epochs.saturating_sub(root.alive) > full_serves {
                // Some prior whole epoch cannot be fully covered; the
                // system dies by this epoch's last draw at the latest.
                let at_last_draw = steps + draws_possible * interval;
                death = Some(death.map_or(at_last_draw, |d| d.min(at_last_draw)));
            }
        }
        if let Some(death) = death {
            return death;
        }
        cumulative_demand += epoch_demand;
        steps += duration;
        job_epoch += 1;
    }
    steps
}

/// Replays a per-job-epoch battery plan (the rounded LP assignment). When
/// the planned battery is unavailable, or the job continues past a battery
/// death, it falls back to the available battery with the most available
/// charge (ties to the lowest index), mirroring [`BestAvailable`].
#[derive(Debug, Clone)]
struct PlanPolicy {
    plan: Vec<usize>,
}

impl SchedulingPolicy for PlanPolicy {
    fn name(&self) -> &str {
        "lp-rounding"
    }

    fn choose(&mut self, ctx: &crate::policy::DecisionContext<'_>) -> Option<usize> {
        if !ctx.continuation {
            if let Some(&planned) = self.plan.get(ctx.job_index) {
                if ctx.available.contains(&planned) {
                    return Some(planned);
                }
            }
        }
        let mut best: Option<usize> = None;
        for &battery in ctx.available {
            let better = match best {
                None => true,
                Some(current) => ctx.charges[battery]
                    .available
                    .total_cmp(&ctx.charges[current].available)
                    .is_gt(),
            };
            if better {
                best = Some(battery);
            }
        }
        best
    }

    fn reset(&mut self) {}
}

/// One decision node on the explicit DFS stack. The frame at stack index
/// `d` owns snapshot `pool[d]` (the state at its decision point) and the
/// candidate range `cand_start..cand_end` of the shared candidate arena.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Index of the job epoch this decision schedules.
    epoch_index: usize,
    /// Steps already served into that epoch.
    offset: u64,
    /// Lifetime accumulated up to the decision point.
    elapsed: u64,
    /// Candidate range in the candidate arena.
    cand_start: usize,
    cand_end: usize,
    /// Next candidate (absolute arena index) to expand.
    next_candidate: usize,
}

/// One search's service envelopes, keyed by `(battery type, charge units,
/// height units)`: the inputs [`BatteryModel::service_inputs`] reports,
/// which with the search's fixed largest draw determine the envelope.
/// Dropped with the search.
struct EnvelopeMemo {
    /// Key → index of the stored envelope in `arena`.
    index: FxMap<(usize, u32, u32), usize>,
    /// `arena[..index.len()]` holds the stored envelopes, each at its exact
    /// length. Once the memo is full, `arena[cap + battery]` is battery's
    /// scratch slot for the misses it no longer stores.
    arena: Vec<ServiceEnvelope>,
    /// Build buffer of stored envelopes (its capacity is reused; the arena
    /// keeps a right-sized clone).
    scratch: ServiceEnvelope,
    /// Most envelopes stored.
    cap: usize,
    /// Envelopes built (memo misses).
    builds: usize,
}

impl EnvelopeMemo {
    fn new(cap: usize) -> Self {
        Self {
            index: FxMap::default(),
            arena: Vec::new(),
            scratch: ServiceEnvelope::new(),
            cap,
            builds: 0,
        }
    }

    /// Battery `battery`'s current service envelope, as its type's table
    /// and the envelope's index in `arena` (valid until the next call for
    /// the same battery), building it on a miss. `None` when the backend
    /// cannot bound service.
    fn resolve<'m, M: BatteryModel>(
        &mut self,
        model: &'m M,
        battery: usize,
        max_units_per_draw: u32,
    ) -> Option<(&'m ServiceRateTable, usize)> {
        let (table, charge, height) = model.service_inputs(battery)?;
        let key = (model.type_of(battery), charge, height);
        if let Some(&slot) = self.index.get(&key) {
            return Some((table, slot));
        }
        self.builds += 1;
        let stored = self.index.len();
        if stored < self.cap {
            // Below the cap no scratch slot exists yet, so the arena holds
            // exactly the stored envelopes.
            debug_assert_eq!(self.arena.len(), stored, "scratch slots appear only at the cap");
            table.build_envelope(charge, height, max_units_per_draw, &mut self.scratch);
            self.arena.push(self.scratch.clone());
            self.index.insert(key, stored);
            return Some((table, stored));
        }
        let slot = self.cap + battery;
        if self.arena.len() <= slot {
            self.arena.resize_with(slot + 1, ServiceEnvelope::new);
        }
        table.build_envelope(charge, height, max_units_per_draw, &mut self.arena[slot]);
        Some((table, slot))
    }
}

struct Search<'a, M: BatteryModel> {
    model: &'a mut M,
    epochs: &'a [DiscreteEpoch],
    charge_unit: f64,
    /// Largest single-draw size in the load, for the service envelopes.
    max_units_per_draw: u32,
    budget: usize,
    memoize: bool,
    dominance: bool,
    availability: bool,
    nodes: usize,
    memo_hits: usize,
    dominance_prunes: usize,
    charge_bound_prunes: usize,
    availability_bound_prunes: usize,
    best_steps: u64,
    best_decisions: Vec<usize>,
    current_decisions: Vec<usize>,
    /// Explicit DFS stack; `stack[d]`'s branch snapshot is `pool[d]`.
    stack: Vec<Frame>,
    /// Snapshot pool indexed by depth; grows only to the maximum depth.
    pool: Vec<M::State>,
    /// Arena of candidate battery indices, ranges owned by frames.
    candidates: Vec<usize>,
    /// Reusable availability buffer.
    avail: Vec<usize>,
    /// The availability bound's service envelopes, each built once.
    envelopes: EnvelopeMemo,
    /// Per-battery envelope cursors of the availability walk (windows and
    /// demands are queried in non-decreasing order, so each cursor only
    /// moves forward).
    cursors: Vec<EnvelopeCursor>,
    /// Cursor snapshot at the start of the epoch under test, for the
    /// in-epoch death scan (whose windows restart below the epoch's end).
    cursors_mark: Vec<EnvelopeCursor>,
    /// Transposition table: the lifetime accumulated when a canonical state
    /// was first expanded at a load position. Exact-equality revisits are
    /// pruned in O(1).
    seen: FxMap<(StateKey, usize, u64), u64>,
    /// Per-position Pareto fronts of expanded states (bounded per position
    /// and globally): a new state component-wise dominated by a recorded one
    /// is pruned.
    fronts: FxMap<(usize, u64), Vec<(StateKey, u64)>>,
    /// Total entries across all fronts, enforcing [`MAX_FRONT_ENTRIES`].
    front_entries: usize,
}

impl<'a, M: BatteryModel> Search<'a, M> {
    /// Builds a search over `load` against a freshly reset `model`, with
    /// the scheduler's pruning configuration and a warm-start incumbent.
    fn new(
        config: &SystemConfig,
        load: &'a DiscretizedLoad,
        model: &'a mut M,
        scheduler: OptimalScheduler,
        warm: WarmStart,
    ) -> Self {
        // The largest single draw of the load ahead, for the service
        // envelopes (a battery's recovery state may overshoot its
        // serviceable band by at most one draw).
        let max_units_per_draw =
            load.epochs().iter().map(DiscreteEpoch::units_per_draw).max().unwrap_or(0);
        model.reset();
        Search {
            model,
            epochs: load.epochs(),
            charge_unit: config.disc().charge_unit(),
            max_units_per_draw,
            budget: scheduler.budget,
            memoize: scheduler.memoize,
            dominance: scheduler.dominance,
            availability: scheduler.availability,
            nodes: 0,
            memo_hits: 0,
            dominance_prunes: 0,
            charge_bound_prunes: 0,
            availability_bound_prunes: 0,
            best_steps: warm.steps,
            best_decisions: warm.decisions,
            current_decisions: Vec::new(),
            stack: Vec::new(),
            pool: Vec::new(),
            candidates: Vec::new(),
            avail: Vec::new(),
            envelopes: EnvelopeMemo::new(scheduler.envelope_cap),
            cursors: Vec::new(),
            cursors_mark: Vec::new(),
            seen: FxMap::default(),
            fronts: FxMap::default(),
            front_entries: 0,
        }
    }
}

impl<M: BatteryModel> Search<'_, M> {
    /// Runs the depth-first exploration from the freshly reset model.
    fn explore(&mut self) -> Result<(), SchedError> {
        if !self.enter_position(0, 0, 0)? {
            return Ok(());
        }
        while let Some(top) = self.stack.last().copied() {
            let depth = self.stack.len() - 1;
            if top.next_candidate >= top.cand_end {
                self.stack.pop();
                self.candidates.truncate(top.cand_start);
                if depth > 0 {
                    self.current_decisions.pop();
                }
                continue;
            }
            let battery = self.candidates[top.next_candidate];
            self.stack[depth].next_candidate += 1;

            // Re-branch from the decision point and serve (a portion of) the
            // job on the chosen battery.
            let epoch = self.epochs[top.epoch_index];
            self.model.restore_state(&self.pool[depth]);
            let remaining = epoch.duration_steps() - top.offset;
            let advance = self.model.advance_job(
                battery,
                remaining,
                epoch.draw_interval_steps(),
                epoch.units_per_draw(),
            )?;
            let (child_epoch, child_offset) = if advance.completed {
                (top.epoch_index + 1, 0)
            } else {
                (top.epoch_index, top.offset + advance.steps_consumed)
            };
            let child_elapsed = top.elapsed + advance.steps_consumed;

            self.current_decisions.push(battery);
            if !self.enter_position(child_epoch, child_offset, child_elapsed)? {
                self.current_decisions.pop();
            }
        }
        Ok(())
    }

    /// Advances the model (which must hold the state for the given position)
    /// deterministically to the next decision point and, unless the position
    /// is a leaf or pruned, pushes a decision frame. Returns whether a frame
    /// was pushed.
    fn enter_position(
        &mut self,
        mut epoch_index: usize,
        mut offset: u64,
        mut elapsed: u64,
    ) -> Result<bool, SchedError> {
        // The system lifetime ends the moment the last battery is observed
        // empty — trailing idle time of the load does not count.
        if !self.model.any_available() {
            self.record_candidate(elapsed);
            return Ok(false);
        }
        // Advance deterministically (idle epochs) until the next decision.
        loop {
            let Some(epoch) = self.epochs.get(epoch_index) else {
                // The load ended before the batteries died; the schedule kept
                // the system alive for the whole (truncated) load.
                self.record_candidate(elapsed);
                return Ok(false);
            };
            if epoch.is_idle() {
                let steps = epoch.duration_steps() - offset;
                self.model.advance_idle(steps);
                elapsed += steps;
                epoch_index += 1;
                offset = 0;
            } else if offset >= epoch.duration_steps() {
                epoch_index += 1;
                offset = 0;
            } else {
                break;
            }
        }
        if !self.model.any_available() {
            self.record_candidate(elapsed);
            return Ok(false);
        }

        self.nodes += 1;
        if self.nodes > self.budget {
            return Err(SchedError::SearchBudgetExceeded { budget: self.budget });
        }

        // Charge bound: even if every remaining unit of usable charge were
        // extractable, the load ahead limits how long the system can live.
        if elapsed + self.charge_bound(epoch_index, offset) <= self.best_steps {
            self.charge_bound_prunes += 1;
            return Ok(false);
        }
        // Availability bound: recovery dynamics limit how fast that charge
        // can actually be served. Evaluated only when the (cheaper) charge
        // bound fails to fire, so the split counters attribute each prune
        // to the weakest bound that achieves it.
        if self.availability {
            let margin = self.best_steps.saturating_sub(elapsed);
            let bound = self.availability_bound(epoch_index, offset, margin);
            if elapsed.saturating_add(bound) <= self.best_steps {
                self.availability_bound_prunes += 1;
                return Ok(false);
            }
        }

        // Transposition table + dominance pruning. An earlier visit of the
        // same (or a component-wise at-least-as-good) canonical state at the
        // same load position with at least as much accumulated lifetime has
        // already explored — or soundly bound-pruned — every completion this
        // node could reach. Time always advances with the load, so two
        // visits of the same position in practice carry the same `elapsed`;
        // the comparison is kept for safety.
        if self.memoize || self.dominance {
            if let Some(key) = self.model.memo_key() {
                if self.memoize {
                    let under_cap = self.seen.len() < MAX_MEMO_ENTRIES;
                    match self.seen.entry((key, epoch_index, offset)) {
                        std::collections::hash_map::Entry::Occupied(mut entry) => {
                            if *entry.get() >= elapsed {
                                self.memo_hits += 1;
                                return Ok(false);
                            }
                            entry.insert(elapsed);
                        }
                        std::collections::hash_map::Entry::Vacant(entry) => {
                            if under_cap {
                                entry.insert(elapsed);
                            }
                        }
                    }
                }
                if self.dominance {
                    // Keys that dominate earlier entries evict them
                    // (dominance is transitive), so each front holds only
                    // Pareto-maximal expanded states, capped per position to
                    // bound the scan and globally to bound memory (beyond
                    // the global cap, existing fronts still prune but new
                    // positions are not recorded).
                    let front = if self.front_entries < MAX_FRONT_ENTRIES {
                        Some(self.fronts.entry((epoch_index, offset)).or_default())
                    } else {
                        self.fronts.get_mut(&(epoch_index, offset))
                    };
                    if let Some(front) = front {
                        let model: &M = self.model;
                        for (stored, stored_elapsed) in front.iter() {
                            if *stored_elapsed >= elapsed && model.key_dominates(stored, &key) {
                                self.dominance_prunes += 1;
                                return Ok(false);
                            }
                        }
                        let before = front.len();
                        front.retain(|(stored, stored_elapsed)| {
                            !(elapsed >= *stored_elapsed && model.key_dominates(&key, stored))
                        });
                        self.front_entries -= before - front.len();
                        if front.len() < MAX_STATES_PER_POSITION
                            && self.front_entries < MAX_FRONT_ENTRIES
                        {
                            front.push((key, elapsed));
                            self.front_entries += 1;
                        }
                    }
                }
            }
        }

        // Candidate batteries, deduplicated by identical state (symmetry)
        // and ordered by remaining charge (best first) so that good
        // incumbents are found early.
        self.model.available_into(&mut self.avail);
        let cand_start = self.candidates.len();
        for position in 0..self.avail.len() {
            let battery = self.avail[position];
            let duplicate = self.candidates[cand_start..]
                .iter()
                .any(|&other| self.model.states_identical(other, battery));
            if !duplicate {
                self.candidates.push(battery);
            }
        }
        {
            let model: &M = self.model;
            self.candidates[cand_start..]
                .sort_by(|&a, &b| model.charge(b).total.total_cmp(&model.charge(a).total));
        }

        let depth = self.stack.len();
        self.save_snapshot(depth);
        self.stack.push(Frame {
            epoch_index,
            offset,
            elapsed,
            cand_start,
            cand_end: self.candidates.len(),
            next_candidate: cand_start,
        });
        Ok(true)
    }

    /// Saves the model's current state into `pool[depth]`, allocating only
    /// when the pool has never been this deep before.
    fn save_snapshot(&mut self, depth: usize) {
        if depth == self.pool.len() {
            self.pool.push(self.model.save_state());
        } else {
            self.model.save_state_into(&mut self.pool[depth]);
        }
    }

    fn record_candidate(&mut self, elapsed: u64) {
        if elapsed > self.best_steps {
            self.best_steps = elapsed;
            self.best_decisions.clone_from(&self.current_decisions);
        }
    }

    /// Charge upper bound on the additional lifetime obtainable from this
    /// position: walk the remaining load; the system cannot survive past
    /// the point at which the load has requested more charge units than all
    /// usable batteries jointly hold.
    fn charge_bound(&self, epoch_index: usize, offset: u64) -> u64 {
        let mut units_left = dkibam::checked::f64_to_u64(
            ((self.model.usable_charge() + 1e-9) / self.charge_unit).floor().max(0.0),
        );
        let mut steps: u64 = 0;
        let mut offset = offset;
        for epoch in &self.epochs[epoch_index..] {
            let duration = epoch.duration_steps() - offset;
            offset = 0;
            if epoch.is_idle() {
                steps += duration;
                continue;
            }
            let interval = u64::from(epoch.draw_interval_steps());
            let draws_possible = duration / interval;
            let units_needed = draws_possible * u64::from(epoch.units_per_draw());
            if units_needed < units_left {
                units_left -= units_needed;
                steps += duration;
            } else {
                // The batteries run dry somewhere in this epoch.
                let draws_served = units_left / u64::from(epoch.units_per_draw());
                steps += (draws_served + 1).min(draws_possible) * interval;
                return steps;
            }
        }
        steps
    }

    /// Availability upper bound on the additional lifetime obtainable from
    /// this position. Every survived draw instant consumes its units from
    /// *some* battery, so the cumulative demand up to any draw instant can
    /// never exceed the fleet's joint service capability over that window
    /// — the sum of the per-battery recovery-coupled service envelopes
    /// ([`BatteryModel::service_inputs`]), each also paced by the
    /// demand delivered so far (a battery's recovery state only climbs by
    /// serving). The walk checks that necessary condition at the last draw
    /// of every remaining job epoch and, once it fails, locates the last
    /// coverable draw inside the failing epoch.
    ///
    /// Returns `u64::MAX` (no claim) when the backend cannot bound
    /// service, and may return early with any value above `limit` once the
    /// walk has survived past it (the caller only compares against
    /// `limit`, so the exact value no longer matters).
    fn availability_bound(&mut self, epoch_index: usize, offset: u64, limit: u64) -> u64 {
        let battery_count = self.model.battery_count();
        if battery_count > MAX_BOUND_BATTERIES {
            return u64::MAX;
        }
        let mut tables: [Option<&ServiceRateTable>; MAX_BOUND_BATTERIES] =
            [None; MAX_BOUND_BATTERIES];
        let mut slots = [0usize; MAX_BOUND_BATTERIES];
        let model: &M = self.model;
        for battery in 0..battery_count {
            match self.envelopes.resolve(model, battery, self.max_units_per_draw) {
                Some((table, slot)) => {
                    tables[battery] = Some(table);
                    slots[battery] = slot;
                }
                None => return u64::MAX,
            }
        }
        self.cursors.clear();
        self.cursors.resize(battery_count, EnvelopeCursor::default());
        let envelopes = &self.envelopes.arena;
        let cursors = &mut self.cursors;
        let marks = &mut self.cursors_mark;
        let fleet_units = |cursors: &mut [EnvelopeCursor], window: u64, demand: u64| -> u64 {
            let mut total: u64 = 0;
            for battery in 0..battery_count {
                // xlint: allow(panic) -- every index was populated in the loop above
                let table = tables[battery].expect("all envelope tables were filled above");
                #[cfg(debug_assertions)]
                let cursor_before = cursors[battery];
                total = total.saturating_add(table.units_within(
                    &envelopes[slots[battery]],
                    &mut cursors[battery],
                    window,
                    demand,
                ));
                // Cursor monotonicity: the availability walk queries windows
                // and demands in non-decreasing order, so a cursor only
                // advances; the only rewind is the explicit `marks` restore.
                #[cfg(debug_assertions)]
                debug_assert!(
                    cursor_before <= cursors[battery],
                    "envelope cursor moved backwards inside the walk"
                );
            }
            total
        };

        let mut demand: u64 = 0;
        let mut steps: u64 = 0;
        let mut offset = offset;
        for epoch in &self.epochs[epoch_index..] {
            let duration = epoch.duration_steps() - offset;
            offset = 0;
            if epoch.is_idle() {
                steps += duration;
                continue;
            }
            if steps > limit {
                // The walk has already survived past the pruning margin;
                // the caller cannot use a larger bound, so stop walking.
                return steps;
            }
            let interval = u64::from(epoch.draw_interval_steps());
            let units = u64::from(epoch.units_per_draw());
            let draws_possible = duration / interval;
            let epoch_demand = demand + draws_possible * units;
            // The binding check sits at the epoch's last draw instant:
            // demand peaks there while the envelopes keep growing through
            // the idle time that follows. The cursor snapshot lets the
            // death scan below rewind to the epoch's start.
            marks.clone_from(cursors);
            if epoch_demand <= fleet_units(cursors, steps + draws_possible * interval, epoch_demand)
            {
                demand = epoch_demand;
                steps += duration;
                continue;
            }
            // The fleet cannot cover this epoch: the system dies at (or
            // before) the first uncoverable draw. Envelopes regenerate
            // stepwise, so scan for the last draw whose cumulative demand
            // still fits.
            cursors.clone_from(marks);
            let mut draws_served = 0;
            for draw in 1..=draws_possible {
                let at_draw = demand + draw * units;
                if at_draw <= fleet_units(cursors, steps + draw * interval, at_draw) {
                    draws_served = draw;
                }
            }
            return steps + (draws_served + 1).min(draws_possible) * interval;
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BestAvailable, FixedSchedule, RoundRobin};
    use crate::system::simulate_policy;
    use dkibam::Discretization;
    use kibam::{BatteryParams, FleetSpec};
    use std::collections::BTreeSet;
    use workload::builder::LoadProfileBuilder;
    use workload::paper_loads::TestLoad;
    use workload::random::SplitMix64;

    /// A coarse two-battery configuration that keeps the exhaustive search
    /// small enough for unit tests while preserving the model behaviour.
    fn coarse_config() -> SystemConfig {
        SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), 2).unwrap()
    }

    #[test]
    fn optimal_never_loses_to_deterministic_policies() {
        let config = coarse_config();
        for load in [TestLoad::Cl500, TestLoad::IlsAlt, TestLoad::Ils500] {
            let optimal = OptimalScheduler::new().find_optimal(&config, &load.profile()).unwrap();
            for policy in
                [&mut RoundRobin::new() as &mut dyn SchedulingPolicy, &mut BestAvailable::new()]
            {
                let outcome = simulate_policy(&config, &load.profile(), policy).unwrap();
                assert!(
                    optimal.lifetime_steps >= outcome.lifetime_steps().unwrap(),
                    "{load}: optimal must dominate {}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn optimal_schedule_is_replayable() {
        let config = coarse_config();
        let load = TestLoad::IlsAlt.profile();
        let optimal = OptimalScheduler::new().find_optimal(&config, &load).unwrap();
        let mut replay = FixedSchedule::new(optimal.decisions.clone());
        let outcome = simulate_policy(&config, &load, &mut replay).unwrap();
        assert_eq!(outcome.lifetime_steps(), Some(optimal.lifetime_steps));
    }

    #[test]
    fn optimal_improves_on_round_robin_for_alternating_load() {
        // Table 5: the optimal schedule beats round robin by ~32 % on
        // ILs alt; the coarse discretization preserves a clear gap.
        let config = coarse_config();
        let load = TestLoad::IlsAlt.profile();
        let optimal = OptimalScheduler::new().find_optimal(&config, &load).unwrap();
        let rr = simulate_policy(&config, &load, &mut RoundRobin::new())
            .unwrap()
            .lifetime_steps()
            .unwrap();
        assert!(
            optimal.lifetime_steps as f64 >= rr as f64 * 1.15,
            "optimal {} vs round robin {rr}",
            optimal.lifetime_steps
        );
    }

    #[test]
    fn memoized_search_matches_the_reference_search() {
        let config = coarse_config();
        for load in [TestLoad::Cl500, TestLoad::IlsAlt] {
            let pruned = OptimalScheduler::new().find_optimal(&config, &load.profile()).unwrap();
            let reference =
                OptimalScheduler::reference().find_optimal(&config, &load.profile()).unwrap();
            assert_eq!(
                pruned.lifetime_steps, reference.lifetime_steps,
                "{load}: pruning must not change the optimum"
            );
            assert!(
                pruned.nodes_explored <= reference.nodes_explored,
                "{load}: pruning must not grow the search ({} vs {})",
                pruned.nodes_explored,
                reference.nodes_explored
            );
        }
    }

    #[test]
    fn pruning_counters_are_reported() {
        let config = coarse_config();
        // ILs 250 drains slowly, so its deep search has many converging
        // histories (ILs alt on two batteries has none after symmetry
        // pruning — see the module docs).
        let load = TestLoad::Ils250.profile();
        let pruned = OptimalScheduler::new().find_optimal(&config, &load).unwrap();
        assert!(pruned.memo_hits > 0, "the slow-drain load revisits states");
        assert!(pruned.dominance_prunes > 0, "expanded states dominate later siblings");
        let reference = OptimalScheduler::reference().find_optimal(&config, &load).unwrap();
        assert_eq!(reference.memo_hits, 0);
        assert_eq!(reference.dominance_prunes, 0);
        assert!(
            pruned.nodes_explored * 5 <= reference.nodes_explored,
            "pruning shrinks the deep search at least 5x ({} vs {})",
            pruned.nodes_explored,
            reference.nodes_explored
        );
        assert_eq!(pruned.lifetime_steps, reference.lifetime_steps);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let config = coarse_config();
        let result =
            OptimalScheduler::with_budget(1).find_optimal(&config, &TestLoad::Ils250.profile());
        assert!(matches!(result, Err(SchedError::SearchBudgetExceeded { budget: 1 })));
    }

    #[test]
    fn single_battery_optimal_equals_single_battery_simulation() {
        let config =
            SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), 1).unwrap();
        let load = TestLoad::Cl500.profile();
        let optimal = OptimalScheduler::new().find_optimal(&config, &load).unwrap();
        let only_choice = simulate_policy(&config, &load, &mut RoundRobin::new())
            .unwrap()
            .lifetime_steps()
            .unwrap();
        assert_eq!(optimal.lifetime_steps, only_choice);
    }

    #[test]
    fn load_too_short_to_kill_batteries_reports_full_duration() {
        let config = coarse_config();
        // A finite load of two 500 mA jobs: both batteries easily survive.
        let profile =
            LoadProfileBuilder::new().job(0.5, 1.0).idle(1.0).job(0.5, 1.0).build_finite().unwrap();
        let optimal = OptimalScheduler::new().find_optimal(&config, &profile).unwrap();
        let total_steps = config.disc().minutes_to_steps(3.0);
        assert_eq!(optimal.lifetime_steps, total_steps);
    }

    #[test]
    fn continuous_backend_search_dominates_and_replays() {
        let config = coarse_config();
        let load = config.discretize(&TestLoad::IlsAlt.profile()).unwrap();
        let mut model = config.continuous_model();
        let optimal =
            OptimalScheduler::new().find_optimal_with(&config, &load, &mut model).unwrap();

        // The continuous backend has no memo key, so the table never fires.
        assert_eq!(optimal.memo_hits, 0);

        // Dominates the deterministic policies on the same backend.
        for policy in
            [&mut RoundRobin::new() as &mut dyn SchedulingPolicy, &mut BestAvailable::new()]
        {
            let outcome =
                crate::system::simulate_policy_with(&config, &load, policy, &mut model).unwrap();
            assert!(optimal.lifetime_steps >= outcome.lifetime_steps().unwrap());
        }

        // And the decision sequence replays to the same lifetime.
        let mut replay = FixedSchedule::new(optimal.decisions.clone());
        let outcome =
            crate::system::simulate_policy_with(&config, &load, &mut replay, &mut model).unwrap();
        assert_eq!(outcome.lifetime_steps(), Some(optimal.lifetime_steps));
    }

    /// Every memo lookup returns exactly the envelope a fresh build gives
    /// for the battery's state, retired batteries built from zero charge.
    /// The states come from seeded random schedules on B1/B2 fleets at the
    /// coarse grid, run until every battery has retired.
    #[test]
    fn memoized_envelopes_equal_fresh_builds() {
        let disc = Discretization::coarse();
        let (b1, b2) = (BatteryParams::itsy_b1(), BatteryParams::itsy_b2());
        let max_units_per_draw = 2;
        let mut fresh = ServiceEnvelope::new();
        for fleet in [vec![b1, b2, b1], vec![b2, b2]] {
            let config = SystemConfig::from_fleet(FleetSpec::new(fleet).unwrap(), disc);
            let mut model = config.discretized_model();
            // Tables built here, not taken from the backend, so the check
            // does not lean on the inputs it is checking.
            let tables: Vec<ServiceRateTable> = (0..model.battery_count())
                .map(|b| ServiceRateTable::for_battery(model.column_inputs(b).unwrap().1, &disc))
                .collect();
            let mut memo = EnvelopeMemo::new(MAX_ENVELOPE_ENTRIES);
            let (mut lookups, mut stranded) = (0usize, 0usize);
            let (mut live_slots, mut retired_slots) = (BTreeSet::new(), BTreeSet::new());
            let mut available = Vec::new();
            let mut rng = SplitMix64::new(0x5eed_e7e1);
            for _ in 0..40 {
                model.reset();
                while model.any_available() {
                    model.available_into(&mut available);
                    let battery = available[rng.next_index(available.len())];
                    let steps = 1 + rng.next_u64() % 60;
                    let interval = [2, 4][rng.next_index(2)];
                    let units = 1 + u32::from(rng.next_u64() % 2 == 0);
                    model.advance_job(battery, steps, interval, units).unwrap();
                    if rng.next_index(3) == 0 {
                        model.advance_idle(rng.next_u64() % 40);
                    }
                    for (b, expected_table) in tables.iter().enumerate() {
                        let (table, slot) = memo.resolve(&model, b, max_units_per_draw).unwrap();
                        let (state, _, _) = model.column_inputs(b).unwrap();
                        let retired = state.is_observed_empty();
                        let charge = if retired { 0 } else { state.charge_units() };
                        expected_table.build_envelope(
                            charge,
                            state.height_units(),
                            max_units_per_draw,
                            &mut fresh,
                        );
                        assert_eq!(table, expected_table, "battery {b}: the backend's table");
                        assert_eq!(memo.arena[slot], fresh, "battery {b} at {state:?}");
                        lookups += 1;
                        if retired {
                            stranded += usize::from(state.charge_units() > 0);
                            retired_slots.insert(slot);
                        } else {
                            live_slots.insert(slot);
                        }
                    }
                }
            }
            assert!(
                retired_slots.is_disjoint(&live_slots),
                "a retired battery resolved to a live battery's envelope"
            );
            assert!(stranded > 0, "retired batteries strand charge, so the zero rule is exercised");
            assert!(memo.builds * 2 < lookups, "states recur ({} of {lookups})", memo.builds);
        }
    }

    /// The memo only saves rebuilds: with it off (cap 0) or full after a
    /// few entries, the search returns the same outcome in every field but
    /// the build count.
    #[test]
    fn the_envelope_memo_leaves_the_search_unchanged() {
        let disc = Discretization::coarse();
        let mixed = SystemConfig::from_fleet(
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap(),
            disc,
        );
        for (label, config, load) in [
            ("2xB1 ILs alt", coarse_config(), TestLoad::IlsAlt),
            ("B1+B2 ILs alt", mixed, TestLoad::IlsAlt),
            ("2xB1 ILs 250", coarse_config(), TestLoad::Ils250),
        ] {
            let profile = load.profile();
            let memoized = OptimalScheduler::new().find_optimal(&config, &profile).unwrap();
            for cap in [0, 8] {
                let capped = OptimalScheduler::new()
                    .with_envelope_cap(cap)
                    .find_optimal(&config, &profile)
                    .unwrap();
                assert!(
                    capped.envelope_builds > memoized.envelope_builds,
                    "{label}, cap {cap}: a capped memo rebuilds"
                );
                assert_eq!(
                    OptimalOutcome { envelope_builds: memoized.envelope_builds, ..capped },
                    memoized,
                    "{label}, cap {cap}: the memo changed the search"
                );
            }
        }
    }

    #[test]
    fn continuous_and_discretized_optima_agree_on_coarse_grid() {
        let config = coarse_config();
        let load = config.discretize(&TestLoad::Cl500.profile()).unwrap();
        let discrete = OptimalScheduler::new().find_optimal_on(&config, &load).unwrap();
        let mut model = config.continuous_model();
        let continuous =
            OptimalScheduler::new().find_optimal_with(&config, &load, &mut model).unwrap();
        let a = discrete.lifetime_steps as f64;
        let b = continuous.lifetime_steps as f64;
        assert!((a - b).abs() / b < 0.06, "discrete {a} vs continuous {b} steps");
    }
}
