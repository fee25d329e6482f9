//! The discretized RV stepping form and its precomputed correction table.
//!
//! The analytic model ([`crate::analytic`]) evolves continuous moments with
//! one `exp` per term per interval. Scheduling simulations and the optimal
//! search instead step on the discretization grid of the scheduling paper
//! (time steps `T`, charge units `Γ`), so this module precomputes, per
//! battery *type*, everything the per-draw hot loop needs — the term rates
//! `β²m²`, the per-step decay factors `e^{-β²m²T}`, the fixed-point grid of
//! the moments and the emptiness threshold — exactly like `dkibam` caches a
//! [`dkibam::RecoveryTable`] per type: built once per fleet (and shared
//! through the engine's worker caches), never per cell or per node.

use crate::{RvCell, RvError, RvParams, MAX_STEP_TERMS, MOMENT_SCALE};
use dkibam::Discretization;

/// Result of letting one battery serve (a portion of) a job through the
/// stepping form. Mirrors `dkibam::multi::JobAdvance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepAdvance {
    /// Time steps that actually elapsed.
    pub steps_consumed: u64,
    /// `true` if the requested number of steps was served completely;
    /// `false` if the battery was observed empty at a draw instant before
    /// the end.
    pub completed: bool,
}

/// The precomputed per-type correction table of the discretized RV model.
///
/// Holds the validated [`RvParams`] next to the derived per-term decay
/// factors and the fixed-point moment grid, and implements the stepping
/// operations ([`serve`](RvStepTable::serve) /
/// [`recover`](RvStepTable::recover)) on [`RvCell`] states. Within one
/// `serve` call the draw pattern's constant current is applied with the
/// exact closed-form moment update between draw instants, consumption is
/// counted in whole charge units at the draw instants (as in the
/// discretized KiBaM), and emptiness (`σ ≥ α`) is *observed* at draw
/// instants only.
#[derive(Debug, Clone, PartialEq)]
pub struct RvStepTable {
    params: RvParams,
    disc: Discretization,
    /// Per-term decay rates `β²m²`, 1/min.
    rates: [f64; MAX_STEP_TERMS],
    /// Per-term single-step decay factors `e^{-β²m²·T}`.
    step_decays: [f64; MAX_STEP_TERMS],
    /// Charge units of a full battery, `round(α / Γ)`.
    capacity_units: u32,
    /// Fixed-point grid spacing of the moments, `Γ /` [`MOMENT_SCALE`].
    moment_quantum: f64,
    /// σ at or above this value means empty (`α` minus a relative slack).
    empty_threshold: f64,
}

impl RvStepTable {
    /// Builds the correction table for one battery type.
    ///
    /// # Errors
    ///
    /// Returns [`RvError::InvalidTerms`] if the parameters carry more than
    /// [`MAX_STEP_TERMS`] correction terms — the stepping form keeps the
    /// moments in a fixed-size cell, and silently truncating the sum would
    /// change σ, so oversized orders are refused (the analytic module
    /// handles them).
    pub fn new(params: &RvParams, disc: &Discretization) -> Result<Self, RvError> {
        if params.terms() > MAX_STEP_TERMS {
            return Err(RvError::InvalidTerms { value: params.terms() });
        }
        let mut rates = [0.0; MAX_STEP_TERMS];
        let mut step_decays = [0.0; MAX_STEP_TERMS];
        for m in 0..params.terms() {
            rates[m] = params.rate(m + 1);
            step_decays[m] = (-rates[m] * disc.time_step()).exp();
        }
        Ok(Self {
            params: *params,
            disc: *disc,
            rates,
            step_decays,
            capacity_units: disc.charge_units(params.alpha()),
            moment_quantum: disc.charge_unit() / MOMENT_SCALE,
            empty_threshold: params.alpha() * (1.0 - 1e-9),
        })
    }

    /// The battery parameters behind this table.
    #[must_use]
    pub fn params(&self) -> &RvParams {
        &self.params
    }

    /// The discretization this table was built for.
    #[must_use]
    pub fn disc(&self) -> &Discretization {
        &self.disc
    }

    /// Charge units of a full battery.
    #[must_use]
    pub fn capacity_units(&self) -> u32 {
        self.capacity_units
    }

    /// The fixed-point grid spacing of the diffusion moments, in A·min.
    #[must_use]
    pub fn moment_quantum(&self) -> f64 {
        self.moment_quantum
    }

    /// A freshly charged cell.
    #[must_use]
    pub fn fresh_cell(&self) -> RvCell {
        RvCell::fresh()
    }

    /// The apparent charge lost, `σ = consumed·Γ + 2·Σ_m u_m`, in A·min.
    #[must_use]
    pub fn sigma(&self, cell: &RvCell) -> f64 {
        f64::from(cell.consumed_units) * self.disc.charge_unit()
            + 2.0 * cell.moments.iter().sum::<f64>()
    }

    /// True remaining charge `max(α - consumed·Γ, 0)` in A·min (the last
    /// draw before the emptiness observation may overshoot slightly).
    #[must_use]
    pub fn total_charge(&self, cell: &RvCell) -> f64 {
        (self.params.alpha() - f64::from(cell.consumed_units) * self.disc.charge_unit()).max(0.0)
    }

    /// Apparent remaining charge `max(α - σ, 0)` in A·min — what a
    /// scheduling policy sees as available.
    #[must_use]
    pub fn apparent_charge(&self, cell: &RvCell) -> f64 {
        (self.params.alpha() - self.sigma(cell)).max(0.0)
    }

    /// The emptiness criterion `σ ≥ α`, sticky once the battery has been
    /// observed empty.
    #[must_use]
    pub fn is_empty(&self, cell: &RvCell) -> bool {
        cell.observed_empty || self.sigma(cell) >= self.empty_threshold
    }

    /// Lets the battery recover (zero current) for `steps` time steps: each
    /// moment decays by its per-step factor raised to `steps`
    /// (`e^{-β²m²·T·steps}`), then re-aligns to the grid.
    pub fn recover(&self, cell: &mut RvCell, steps: u64) {
        if steps == 0 {
            return;
        }
        for (moment, step_decay) in
            cell.moments.iter_mut().zip(&self.step_decays).take(self.params.terms())
        {
            *moment *= decay_pow(*step_decay, steps);
        }
        self.align(&mut cell.moments);
    }

    /// Lets the battery serve a job portion of `steps` time steps with the
    /// given draw pattern (one draw of `units_per_draw` charge units every
    /// `draw_interval_steps` steps, i.e. the constant current
    /// `units·Γ / (interval·T)`).
    ///
    /// Between draw instants the moments follow the exact constant-current
    /// solution; at each draw instant the units are consumed, the state
    /// re-aligns to the grid, and emptiness is checked — if `σ ≥ α` the
    /// battery is observed empty there, retired, and the advance reports
    /// `completed == false`. Steps after the last full draw interval are
    /// recovery, exactly as in the discretized KiBaM.
    pub fn serve(
        &self,
        cell: &mut RvCell,
        steps: u64,
        draw_interval_steps: u32,
        units_per_draw: u32,
    ) -> StepAdvance {
        debug_assert!(draw_interval_steps > 0 && units_per_draw > 0);
        let interval = u64::from(draw_interval_steps);
        let interval_minutes = self.disc.steps_to_minutes(interval);
        let current = f64::from(units_per_draw) * self.disc.charge_unit() / interval_minutes;
        let draws = steps / interval;
        let remainder = steps - draws * interval;

        // Per-interval factors, derived from the cached per-step decays once
        // per call (the interval is constant within a job portion).
        let mut interval_decay = [0.0; MAX_STEP_TERMS];
        let mut interval_gain = [0.0; MAX_STEP_TERMS];
        for m in 0..self.params.terms() {
            interval_decay[m] = decay_pow(self.step_decays[m], interval);
            interval_gain[m] = current * (1.0 - interval_decay[m]) / self.rates[m];
        }

        let mut consumed: u64 = 0;
        for _ in 0..draws {
            for m in 0..self.params.terms() {
                cell.moments[m] = cell.moments[m] * interval_decay[m] + interval_gain[m];
            }
            cell.consumed_units = cell.consumed_units.saturating_add(units_per_draw);
            self.align(&mut cell.moments);
            consumed += interval;
            if self.is_empty(cell) {
                cell.observed_empty = true;
                return StepAdvance { steps_consumed: consumed, completed: false };
            }
        }
        self.recover(cell, remainder);
        consumed += remainder;
        StepAdvance { steps_consumed: consumed, completed: true }
    }

    /// Packs a cell into a canonical state word
    /// ([`RvCell::state_word`] with this table's grid), or `None` for
    /// oversized components.
    #[must_use]
    pub fn state_word(&self, cell: &RvCell) -> Option<u128> {
        cell.state_word(self.moment_quantum)
    }

    /// Rounds every moment to the fixed-point grid. Called after every state
    /// transition, so cells are always grid-aligned (which makes
    /// [`state_word`](RvStepTable::state_word) exact).
    fn align(&self, moments: &mut [f64; MAX_STEP_TERMS]) {
        for moment in moments.iter_mut().take(self.params.terms()) {
            *moment = (*moment / self.moment_quantum).round() * self.moment_quantum;
        }
    }
}

/// `decay^steps` for a per-step decay factor in `(0, 1)`, via exact integer
/// exponentiation (the discretized model's decay is the per-step factor
/// iterated, so two advances of `n` and `m` steps compose like one advance
/// of `n + m` steps up to grid rounding).
fn decay_pow(decay: f64, steps: u64) -> f64 {
    match i32::try_from(steps) {
        Ok(steps) => decay.powi(steps),
        // Far beyond any load horizon; the decay has long underflowed.
        Err(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{evolve, DiffusionState};

    fn table() -> RvStepTable {
        RvStepTable::new(&RvParams::itsy_b1(), &Discretization::paper_default()).unwrap()
    }

    #[test]
    fn construction_validates_the_truncation_order() {
        let disc = Discretization::paper_default();
        let oversized = RvParams::new(5.5, 0.07, MAX_STEP_TERMS + 1).unwrap();
        assert!(matches!(RvStepTable::new(&oversized, &disc), Err(RvError::InvalidTerms { .. })));
        let t = table();
        assert_eq!(t.capacity_units(), 550);
        assert!((t.moment_quantum() - 0.01 / MOMENT_SCALE).abs() < 1e-15);
    }

    #[test]
    fn fresh_cell_is_full_and_available() {
        let t = table();
        let cell = t.fresh_cell();
        assert_eq!(t.sigma(&cell), 0.0);
        assert!((t.total_charge(&cell) - 5.5).abs() < 1e-12);
        assert!((t.apparent_charge(&cell) - 5.5).abs() < 1e-12);
        assert!(!t.is_empty(&cell));
    }

    #[test]
    fn serving_consumes_integer_units_and_builds_a_deficit() {
        let t = table();
        let mut cell = t.fresh_cell();
        // One minute of 500 mA: 100 steps, one unit every 2 steps.
        let advance = t.serve(&mut cell, 100, 2, 1);
        assert!(advance.completed);
        assert_eq!(advance.steps_consumed, 100);
        assert_eq!(cell.consumed_units(), 50);
        assert!((t.total_charge(&cell) - 5.0).abs() < 1e-12);
        assert!(t.sigma(&cell) > 0.5, "the diffusion deficit adds to the consumed charge");
        assert!(t.apparent_charge(&cell) < t.total_charge(&cell));
    }

    #[test]
    fn stepping_tracks_the_analytic_solution() {
        // After a minute of 500 mA the stepped σ must agree with the
        // analytic constant-current solution to within the fixed-point
        // grid (the per-draw alignment is the only difference).
        let t = table();
        let params = RvParams::itsy_b1();
        let mut cell = t.fresh_cell();
        t.serve(&mut cell, 100, 2, 1);
        let analytic = evolve(&params, &DiffusionState::full(&params), 0.5, 1.0).unwrap();
        assert!(
            (t.sigma(&cell) - analytic.sigma()).abs() < 1e-3,
            "stepped {} vs analytic {}",
            t.sigma(&cell),
            analytic.sigma()
        );
        // Recovery agrees too.
        let mut rested = cell;
        t.recover(&mut rested, 200);
        let analytic_rested = evolve(&params, &analytic, 0.0, 2.0).unwrap();
        assert!((t.sigma(&rested) - analytic_rested.sigma()).abs() < 1e-3);
    }

    #[test]
    fn recovery_composes_additively_on_the_grid() {
        let t = table();
        let mut cell = t.fresh_cell();
        t.serve(&mut cell, 100, 2, 1);
        let mut once = cell;
        t.recover(&mut once, 300);
        let mut twice = cell;
        t.recover(&mut twice, 150);
        t.recover(&mut twice, 150);
        for (a, b) in once.moments().iter().zip(twice.moments()) {
            assert!((a - b).abs() <= 2.0 * t.moment_quantum(), "{a} vs {b}");
        }
    }

    #[test]
    fn recovery_decays_each_moment_by_its_closed_form_factor() {
        let disc = Discretization::paper_default();
        for (params, served) in [(RvParams::itsy_b1(), 100), (RvParams::itsy_b2(), 120)] {
            let t = RvStepTable::new(&params, &disc).unwrap();
            let mut cell = t.fresh_cell();
            t.serve(&mut cell, served, 2, 1);
            let before = cell;
            t.recover(&mut cell, 777);
            assert_eq!(cell.consumed_units(), before.consumed_units(), "recovery draws nothing");
            for m in 0..params.terms() {
                let decay = (-params.rate(m + 1) * disc.steps_to_minutes(777)).exp();
                let expected = before.moments()[m] * decay;
                assert!(
                    (cell.moments()[m] - expected).abs() <= t.moment_quantum(),
                    "term {m}: {} vs {expected}",
                    cell.moments()[m]
                );
            }
            assert!(t.sigma(&cell) < t.sigma(&before), "the deficit shrinks");
            // A zero-step recovery is the identity, bit for bit.
            let mut same = cell;
            t.recover(&mut same, 0);
            assert_eq!(same, cell);
        }
    }

    #[test]
    fn state_words_separate_distinct_cells_and_agree_on_equal_ones() {
        let t = table();
        let mut a = t.fresh_cell();
        let mut b = t.fresh_cell();
        t.serve(&mut a, 250, 2, 1);
        t.serve(&mut b, 250, 2, 1);
        assert_eq!(t.state_word(&a), t.state_word(&b));
        assert_eq!(t.state_word(&a), a.state_word(t.moment_quantum()));
        t.recover(&mut b, 40);
        assert_ne!(t.state_word(&a), t.state_word(&b), "recovery moves the packed word");
        assert_ne!(t.state_word(&t.fresh_cell()), t.state_word(&a));
    }

    #[test]
    fn a_long_job_observes_the_battery_empty_at_a_draw_instant() {
        let t = table();
        let mut cell = t.fresh_cell();
        let advance = t.serve(&mut cell, 1_000_000, 2, 1);
        assert!(!advance.completed);
        assert_eq!(advance.steps_consumed % 2, 0, "death lands on a draw instant");
        assert!(cell.is_observed_empty());
        assert!(t.is_empty(&cell));
        // The battery died from the apparent-charge criterion with real
        // charge still inside (the rate-capacity effect).
        assert!(t.total_charge(&cell) > 0.0);
        // Close to the analytic CL 500 lifetime of the fitted model.
        let minutes = t.disc().steps_to_minutes(advance.steps_consumed);
        let analytic =
            crate::analytic::lifetime_constant_current(&RvParams::itsy_b1(), 0.5).unwrap().unwrap();
        assert!((minutes - analytic).abs() < 0.05, "stepped {minutes} vs analytic {analytic}");
    }

    #[test]
    fn observed_empty_is_sticky_through_recovery() {
        let t = table();
        let mut cell = t.fresh_cell();
        t.serve(&mut cell, 1_000_000, 2, 1);
        t.recover(&mut cell, 1_000_000);
        assert!(t.apparent_charge(&cell) > 0.0, "the deficit dissipated");
        assert!(t.is_empty(&cell), "but the battery stays retired");
    }

    #[test]
    fn cells_stay_grid_aligned_for_exact_packing() {
        let t = table();
        let mut cell = t.fresh_cell();
        t.serve(&mut cell, 250, 2, 1);
        t.recover(&mut cell, 37);
        for &moment in cell.moments() {
            let quanta = moment / t.moment_quantum();
            assert!((quanta - quanta.round()).abs() < 1e-6, "moment off-grid: {moment}");
        }
        assert!(t.state_word(&cell).is_some());
    }
}
