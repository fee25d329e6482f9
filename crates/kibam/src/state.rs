use crate::{BatteryParams, KibamError, CHARGE_EPSILON};

/// Battery state in the original KiBaM coordinates: the charge `y1` in the
/// available-charge well and the charge `y2` in the bound-charge well
/// (Figure 1 / Eq. 1 of the paper).
///
/// The battery is *empty* once the available-charge well is drained
/// (`y1 = 0`), even though bound charge may remain.
///
/// # Example
///
/// ```
/// use kibam::{BatteryParams, TwoWellState};
///
/// let b1 = BatteryParams::itsy_b1();
/// let full = b1.full_state();
/// assert!(!full.is_empty());
/// assert!((full.total() - b1.capacity()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoWellState {
    available: f64,
    bound: f64,
}

impl TwoWellState {
    /// Creates a state from well contents, validating both charges.
    ///
    /// # Errors
    ///
    /// Returns [`KibamError::InvalidCharge`] if either charge is negative,
    /// NaN or infinite.
    pub fn new(available: f64, bound: f64) -> Result<Self, KibamError> {
        for value in [available, bound] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(KibamError::InvalidCharge { value });
            }
        }
        Ok(Self { available, bound })
    }

    /// Internal constructor that skips validation (used where values are
    /// known to be derived from validated inputs).
    pub(crate) fn new_unchecked(available: f64, bound: f64) -> Self {
        Self { available, bound }
    }

    /// Charge `y1` in the available-charge well (A·min).
    #[must_use]
    pub fn available(&self) -> f64 {
        self.available
    }

    /// Charge `y2` in the bound-charge well (A·min).
    #[must_use]
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// Total remaining charge `γ = y1 + y2` (A·min).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.available + self.bound
    }

    /// Whether the battery is empty, i.e. the available-charge well is
    /// (numerically) drained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.available <= CHARGE_EPSILON
    }

    /// Converts the state to the transformed `(δ, γ)` coordinates of Eq. 2.
    ///
    /// `δ = h2 - h1 = y2 / (1 - c) - y1 / c` is the height difference
    /// between the wells and `γ = y1 + y2` the total charge.
    #[must_use]
    pub fn to_transformed(&self, params: &BatteryParams) -> TransformedState {
        let c = params.c();
        let delta = self.bound / (1.0 - c) - self.available / c;
        TransformedState { delta, gamma: self.total() }
    }
}

/// Battery state in the transformed coordinates of Eq. 2 of the paper:
/// the well *height difference* `δ = h2 - h1` and the *total charge*
/// `γ = y1 + y2`.
///
/// In these coordinates the dynamics decouple nicely: `γ` decreases linearly
/// with the drawn current while `δ` follows a first-order relaxation, and the
/// battery is empty exactly when `γ = (1 - c) · δ` (Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformedState {
    /// Height difference `δ` between the bound- and available-charge wells.
    pub delta: f64,
    /// Total remaining charge `γ` (A·min).
    pub gamma: f64,
}

impl TransformedState {
    /// The state of a freshly charged battery: `δ = 0`, `γ = C`.
    #[must_use]
    pub fn full(params: &BatteryParams) -> Self {
        Self { delta: 0.0, gamma: params.capacity() }
    }

    /// Converts back to the original two-well coordinates.
    ///
    /// The inverse transform is `y1 = c·γ - c(1-c)·δ`, `y2 = γ - y1`. Values
    /// are clamped at zero to absorb floating-point round-off at the empty
    /// boundary.
    #[must_use]
    pub fn to_two_well(&self, params: &BatteryParams) -> TwoWellState {
        let c = params.c();
        let available = (c * self.gamma - c * (1.0 - c) * self.delta).max(0.0);
        let bound = (self.gamma - available).max(0.0);
        TwoWellState { available, bound }
    }

    /// Charge remaining in the available-charge well, `y1 = c·(γ - (1-c)·δ)`.
    #[must_use]
    pub fn available_charge(&self, params: &BatteryParams) -> f64 {
        let c = params.c();
        (c * (self.gamma - (1.0 - c) * self.delta)).max(0.0)
    }

    /// The *emptiness margin* `γ - (1 - c)·δ`; the battery is empty when this
    /// reaches zero (Eq. 3). Positive values mean charge is still available.
    #[must_use]
    pub fn margin(&self, params: &BatteryParams) -> f64 {
        self.gamma - (1.0 - params.c()) * self.delta
    }

    /// Whether the battery is empty under the criterion of Eq. 3.
    #[must_use]
    pub fn is_empty(&self, params: &BatteryParams) -> bool {
        self.margin(params) <= CHARGE_EPSILON
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b1() -> BatteryParams {
        BatteryParams::itsy_b1()
    }

    #[test]
    fn new_validates_charges() {
        assert!(TwoWellState::new(1.0, 2.0).is_ok());
        assert!(TwoWellState::new(-0.1, 2.0).is_err());
        assert!(TwoWellState::new(1.0, f64::NAN).is_err());
        assert!(TwoWellState::new(f64::INFINITY, 0.0).is_err());
    }

    #[test]
    fn full_state_has_zero_height_difference() {
        let t = b1().full_state().to_transformed(&b1());
        assert!(t.delta.abs() < 1e-12);
        assert!((t.gamma - 5.5).abs() < 1e-12);
    }

    #[test]
    fn round_trip_two_well_transformed() {
        let params = b1();
        let original = TwoWellState::new(0.3, 2.7).unwrap();
        let back = original.to_transformed(&params).to_two_well(&params);
        assert!((back.available() - 0.3).abs() < 1e-10);
        assert!((back.bound() - 2.7).abs() < 1e-10);
    }

    #[test]
    fn empty_criterion_matches_available_charge() {
        let params = b1();
        // A state right at the empty boundary: y1 = 0.
        let state = TwoWellState::new(0.0, 3.0).unwrap();
        let t = state.to_transformed(&params);
        assert!(t.is_empty(&params));
        assert!(state.is_empty());
        assert!(t.available_charge(&params).abs() < 1e-12);
        // Margin is gamma - (1-c) delta = y1 / c.
        let nonempty = TwoWellState::new(0.5, 3.0).unwrap().to_transformed(&params);
        assert!((nonempty.margin(&params) - 0.5 / params.c()).abs() < 1e-10);
    }

    #[test]
    fn transformed_full_matches_capacity() {
        let params = b1();
        let t = TransformedState::full(&params);
        assert_eq!(t.gamma, params.capacity());
        assert_eq!(t.delta, 0.0);
        let w = t.to_two_well(&params);
        assert!((w.available() - params.c() * params.capacity()).abs() < 1e-12);
    }

    #[test]
    fn to_two_well_clamps_negative_roundoff() {
        let params = b1();
        // delta slightly larger than the empty boundary: available charge
        // would be a tiny negative number without clamping.
        let gamma = 1.0;
        let delta = gamma / (1.0 - params.c()) + 1e-9;
        let t = TransformedState { delta, gamma };
        let w = t.to_two_well(&params);
        assert!(w.available() >= 0.0);
        assert!(w.bound() >= 0.0);
    }
}
