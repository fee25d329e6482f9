//! Integer and boolean expressions over variables, constant arrays and
//! clocks.
//!
//! Guards, invariants, cost rates and updates in the automata are all
//! expressed with the small expression language defined here. It covers what
//! the paper's TA-KiBaM needs: integer arithmetic over variables, lookups in
//! precomputed constant tables with computed indices (e.g.
//! `recov_time[m_delta[id]]`), comparisons, clock comparisons and boolean
//! combinations.

use crate::PtaError;

/// Identifier of an integer variable declared in a
/// [`Network`](crate::network::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

/// Identifier of a constant lookup table declared in a
/// [`Network`](crate::network::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub(crate) usize);

/// Identifier of a clock declared in a [`Network`](crate::network::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClockId(pub(crate) usize);

impl VarId {
    /// The raw index of this variable in the network's declaration order.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0
    }
}

impl ArrayId {
    /// The raw index of this array in the network's declaration order.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0
    }
}

impl ClockId {
    /// The raw index of this clock in the network's declaration order.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Comparison operators usable in guards and invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Greater than or equal.
    Ge,
    /// Strictly greater than.
    Gt,
}

impl CmpOp {
    /// Applies the comparison to two integers.
    #[must_use]
    pub fn apply(&self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Gt => lhs > rhs,
        }
    }
}

/// An integer expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IntExpr {
    /// An integer literal.
    Const(i64),
    /// The current value of a variable.
    Var(VarId),
    /// An element of a constant table, at a computed index.
    Elem(ArrayId, Box<IntExpr>),
    /// Sum of two expressions.
    Add(Box<IntExpr>, Box<IntExpr>),
    /// Difference of two expressions.
    Sub(Box<IntExpr>, Box<IntExpr>),
    /// Product of two expressions.
    Mul(Box<IntExpr>, Box<IntExpr>),
}

// The `add`/`sub`/`mul` combinators intentionally mirror the operator names:
// they build expression *trees* rather than computing values, so implementing
// the `std::ops` traits (whose contracts imply evaluation) would mislead.
#[allow(clippy::should_implement_trait)]
impl IntExpr {
    /// An integer literal.
    #[must_use]
    pub fn constant(value: i64) -> Self {
        IntExpr::Const(value)
    }

    /// The value of a variable.
    #[must_use]
    pub fn var(var: VarId) -> Self {
        IntExpr::Var(var)
    }

    /// A constant-table lookup `array[index]`.
    #[must_use]
    pub fn elem(array: ArrayId, index: IntExpr) -> Self {
        IntExpr::Elem(array, Box::new(index))
    }

    /// `self + other`.
    #[must_use]
    pub fn add(self, other: IntExpr) -> Self {
        IntExpr::Add(Box::new(self), Box::new(other))
    }

    /// `self - other`.
    #[must_use]
    pub fn sub(self, other: IntExpr) -> Self {
        IntExpr::Sub(Box::new(self), Box::new(other))
    }

    /// `self * other`.
    #[must_use]
    pub fn mul(self, other: IntExpr) -> Self {
        IntExpr::Mul(Box::new(self), Box::new(other))
    }

    /// Evaluates the expression in the given context.
    ///
    /// # Errors
    ///
    /// Returns [`PtaError::UnknownVariable`], [`PtaError::UnknownArray`] or
    /// [`PtaError::IndexOutOfBounds`] if the expression refers to entities
    /// that do not exist in the context.
    pub fn eval(&self, ctx: &EvalContext<'_>) -> Result<i64, PtaError> {
        match self {
            IntExpr::Const(value) => Ok(*value),
            IntExpr::Var(var) => ctx.var(*var),
            IntExpr::Elem(array, index) => {
                let index = index.eval(ctx)?;
                ctx.array_element(*array, index)
            }
            IntExpr::Add(lhs, rhs) => Ok(lhs.eval(ctx)?.wrapping_add(rhs.eval(ctx)?)),
            IntExpr::Sub(lhs, rhs) => Ok(lhs.eval(ctx)?.wrapping_sub(rhs.eval(ctx)?)),
            IntExpr::Mul(lhs, rhs) => Ok(lhs.eval(ctx)?.wrapping_mul(rhs.eval(ctx)?)),
        }
    }
}

impl From<i64> for IntExpr {
    fn from(value: i64) -> Self {
        IntExpr::Const(value)
    }
}

impl From<VarId> for IntExpr {
    fn from(var: VarId) -> Self {
        IntExpr::Var(var)
    }
}

/// A boolean expression used in guards and invariants.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BoolExpr {
    /// Always true (the default guard/invariant).
    True,
    /// Comparison between two integer expressions.
    Cmp(IntExpr, CmpOp, IntExpr),
    /// Comparison between a clock value and an integer expression.
    ClockCmp(ClockId, CmpOp, IntExpr),
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Negation.
    Not(Box<BoolExpr>),
}

impl BoolExpr {
    /// `lhs op rhs` over integer expressions.
    #[must_use]
    pub fn cmp(lhs: impl Into<IntExpr>, op: CmpOp, rhs: impl Into<IntExpr>) -> Self {
        BoolExpr::Cmp(lhs.into(), op, rhs.into())
    }

    /// `clock <= bound`.
    #[must_use]
    pub fn clock_le(clock: ClockId, bound: impl Into<IntExpr>) -> Self {
        BoolExpr::ClockCmp(clock, CmpOp::Le, bound.into())
    }

    /// `clock >= bound`.
    #[must_use]
    pub fn clock_ge(clock: ClockId, bound: impl Into<IntExpr>) -> Self {
        BoolExpr::ClockCmp(clock, CmpOp::Ge, bound.into())
    }

    /// `clock < bound`.
    #[must_use]
    pub fn clock_lt(clock: ClockId, bound: impl Into<IntExpr>) -> Self {
        BoolExpr::ClockCmp(clock, CmpOp::Lt, bound.into())
    }

    /// `self && other`.
    #[must_use]
    pub fn and(self, other: BoolExpr) -> Self {
        BoolExpr::And(Box::new(self), Box::new(other))
    }

    /// `self || other`.
    #[must_use]
    pub fn or(self, other: BoolExpr) -> Self {
        BoolExpr::Or(Box::new(self), Box::new(other))
    }

    /// `!self`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        BoolExpr::Not(Box::new(self))
    }

    /// Evaluates the expression in the given context.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`IntExpr::eval`] and returns
    /// [`PtaError::UnknownClock`] for clock references outside the context.
    pub fn eval(&self, ctx: &EvalContext<'_>) -> Result<bool, PtaError> {
        match self {
            BoolExpr::True => Ok(true),
            BoolExpr::Cmp(lhs, op, rhs) => Ok(op.apply(lhs.eval(ctx)?, rhs.eval(ctx)?)),
            BoolExpr::ClockCmp(clock, op, rhs) => {
                let clock_value = ctx.clock(*clock)?;
                Ok(op.apply(clock_value, rhs.eval(ctx)?))
            }
            BoolExpr::And(lhs, rhs) => Ok(lhs.eval(ctx)? && rhs.eval(ctx)?),
            BoolExpr::Or(lhs, rhs) => Ok(lhs.eval(ctx)? || rhs.eval(ctx)?),
            BoolExpr::Not(inner) => Ok(!inner.eval(ctx)?),
        }
    }
}

/// The values an expression is evaluated against: variable values, constant
/// tables and clock values.
#[derive(Debug, Clone, Copy)]
pub struct EvalContext<'a> {
    vars: &'a [i64],
    arrays: &'a [Vec<i64>],
    clocks: &'a [u64],
}

impl<'a> EvalContext<'a> {
    /// Creates an evaluation context from slices of variable values,
    /// constant tables and clock values.
    #[must_use]
    pub fn new(vars: &'a [i64], arrays: &'a [Vec<i64>], clocks: &'a [u64]) -> Self {
        Self { vars, arrays, clocks }
    }

    fn var(&self, var: VarId) -> Result<i64, PtaError> {
        self.vars.get(var.0).copied().ok_or(PtaError::UnknownVariable { variable: var.0 })
    }

    fn clock(&self, clock: ClockId) -> Result<i64, PtaError> {
        self.clocks.get(clock.0).map(|&v| v as i64).ok_or(PtaError::UnknownClock { clock: clock.0 })
    }

    fn array_element(&self, array: ArrayId, index: i64) -> Result<i64, PtaError> {
        let table = self.arrays.get(array.0).ok_or(PtaError::UnknownArray { array: array.0 })?;
        if index < 0 || index as usize >= table.len() {
            return Err(PtaError::IndexOutOfBounds { array: array.0, index, length: table.len() });
        }
        Ok(table[index as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(vars: &'a [i64], arrays: &'a [Vec<i64>], clocks: &'a [u64]) -> EvalContext<'a> {
        EvalContext::new(vars, arrays, clocks)
    }

    #[test]
    fn arithmetic_evaluates() {
        let vars = [5, -2];
        let context = ctx(&vars, &[], &[]);
        let expr = IntExpr::var(VarId(0)).mul(IntExpr::constant(3)).add(IntExpr::var(VarId(1)));
        assert_eq!(expr.eval(&context).unwrap(), 13);
        let expr = IntExpr::constant(10).sub(IntExpr::var(VarId(0)));
        assert_eq!(expr.eval(&context).unwrap(), 5);
    }

    #[test]
    fn array_lookup_with_computed_index() {
        let vars = [2];
        let arrays = vec![vec![100, 50, 25, 12]];
        let context = ctx(&vars, &arrays, &[]);
        let expr = IntExpr::elem(ArrayId(0), IntExpr::var(VarId(0)).add(IntExpr::constant(1)));
        assert_eq!(expr.eval(&context).unwrap(), 12);
    }

    #[test]
    fn array_lookup_out_of_bounds_is_an_error() {
        let arrays = vec![vec![1, 2, 3]];
        let context = ctx(&[], &arrays, &[]);
        let expr = IntExpr::elem(ArrayId(0), IntExpr::constant(3));
        assert!(matches!(
            expr.eval(&context),
            Err(PtaError::IndexOutOfBounds { index: 3, length: 3, .. })
        ));
        let negative = IntExpr::elem(ArrayId(0), IntExpr::constant(-1));
        assert!(negative.eval(&context).is_err());
    }

    #[test]
    fn unknown_references_are_errors() {
        let context = ctx(&[], &[], &[]);
        assert!(IntExpr::var(VarId(0)).eval(&context).is_err());
        assert!(IntExpr::elem(ArrayId(0), IntExpr::constant(0)).eval(&context).is_err());
        assert!(BoolExpr::clock_le(ClockId(0), 5).eval(&context).is_err());
    }

    #[test]
    fn comparisons_and_boolean_connectives() {
        let vars = [4];
        let clocks = [7u64];
        let context = ctx(&vars, &[], &clocks);
        assert!(BoolExpr::cmp(VarId(0), CmpOp::Eq, 4).eval(&context).unwrap());
        assert!(BoolExpr::cmp(VarId(0), CmpOp::Lt, 5).eval(&context).unwrap());
        assert!(!BoolExpr::cmp(VarId(0), CmpOp::Gt, 5).eval(&context).unwrap());
        assert!(BoolExpr::clock_ge(ClockId(0), 7).eval(&context).unwrap());
        assert!(!BoolExpr::clock_lt(ClockId(0), 7).eval(&context).unwrap());
        let both = BoolExpr::cmp(VarId(0), CmpOp::Ne, 0).and(BoolExpr::clock_le(ClockId(0), 10));
        assert!(both.eval(&context).unwrap());
        let either = BoolExpr::cmp(VarId(0), CmpOp::Gt, 100).or(BoolExpr::True);
        assert!(either.eval(&context).unwrap());
        assert!(!BoolExpr::True.not().eval(&context).unwrap());
    }

    #[test]
    fn all_comparison_operators_behave() {
        assert!(CmpOp::Lt.apply(1, 2));
        assert!(CmpOp::Le.apply(2, 2));
        assert!(CmpOp::Eq.apply(3, 3));
        assert!(CmpOp::Ne.apply(3, 4));
        assert!(CmpOp::Ge.apply(4, 4));
        assert!(CmpOp::Gt.apply(5, 4));
        assert!(!CmpOp::Gt.apply(4, 4));
    }

    #[test]
    fn conversions_into_int_expr() {
        let from_literal: IntExpr = 42i64.into();
        assert_eq!(from_literal, IntExpr::Const(42));
        let from_var: IntExpr = VarId(3).into();
        assert_eq!(from_var, IntExpr::Var(VarId(3)));
    }
}
