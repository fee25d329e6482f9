//! Checked numeric conversions for model quantities.
//!
//! The discretized kernels constantly move between the continuous domain
//! (charge in mA·min, time in minutes) and the discrete one (charge
//! units, time steps, table indices). A bare `as` cast at such a seam
//! silently saturates or truncates; these helpers centralize every such
//! conversion behind a `debug_assert!` that the value is actually
//! representable, while compiling to the identical saturating cast in
//! release builds — so lifetimes and golden tables are bit-for-bit
//! unchanged. The workspace linter (`cargo run -p xlint`) bans ad-hoc
//! integer `as` casts in the numeric crates and routes them here.
//!
//! Float-to-integer helpers expect the caller to have already applied its
//! rounding mode (`round`, `floor`, `ceil`): the helper checks and casts,
//! it does not round, so the rounding intent stays visible at the call
//! site.

/// Converts an already-rounded, nonnegative float (charge units, step
/// counts) to `u64`.
#[inline]
#[must_use]
pub fn f64_to_u64(x: f64) -> u64 {
    debug_assert!(
        x.is_finite() && (0.0..=9_007_199_254_740_992.0).contains(&x), // 2^53: exact range
        "f64_to_u64: {x} is not an exactly-representable nonnegative count"
    );
    // xlint: allow(cast) -- the debug_assert above pins the exact-integer range
    x as u64
}

/// Converts an already-rounded, nonnegative float to `u32`.
#[inline]
#[must_use]
pub fn f64_to_u32(x: f64) -> u32 {
    debug_assert!(
        x.is_finite() && (0.0..=f64::from(u32::MAX)).contains(&x),
        "f64_to_u32: {x} out of range"
    );
    // xlint: allow(cast) -- the debug_assert above pins the u32 range
    x as u32
}

/// Converts an already-rounded, nonnegative float to `usize`.
#[inline]
#[must_use]
pub fn f64_to_usize(x: f64) -> usize {
    debug_assert!(
        x.is_finite() && (0.0..=9_007_199_254_740_992.0).contains(&x),
        "f64_to_usize: {x} out of range"
    );
    // xlint: allow(cast) -- the debug_assert above pins the exact-integer range
    x as usize
}

/// Converts an already-rounded float (possibly negative: scaled model
/// constants) to `i64`.
#[inline]
#[must_use]
pub fn f64_to_i64(x: f64) -> i64 {
    debug_assert!(
        x.is_finite() && x.abs() <= 9_007_199_254_740_992.0,
        "f64_to_i64: {x} out of range"
    );
    // xlint: allow(cast) -- the debug_assert above pins the exact-integer range
    x as i64
}

/// Widens a `u32` height/type/unit id to a `usize` index (lossless on every
/// supported target: `usize` is at least 32 bits).
#[inline]
#[must_use]
pub fn index(value: u32) -> usize {
    // xlint: allow(cast) -- u32 -> usize is lossless on 32/64-bit targets
    value as usize
}

/// Converts a `u64` count to a `usize` index.
#[inline]
#[must_use]
pub fn index_u64(value: u64) -> usize {
    debug_assert!(usize::try_from(value).is_ok(), "index_u64: {value} exceeds usize");
    // xlint: allow(cast) -- the debug_assert above pins the usize range
    value as usize
}

/// Narrows a `usize` length/index to `u32`.
#[inline]
#[must_use]
pub fn to_u32(value: usize) -> u32 {
    debug_assert!(u32::try_from(value).is_ok(), "to_u32: {value} exceeds u32");
    // xlint: allow(cast) -- the debug_assert above pins the u32 range
    value as u32
}

/// Widens a `usize` index to `u64` (lossless on every supported target:
/// `usize` is at most 64 bits).
#[inline]
#[must_use]
pub fn to_u64(value: usize) -> u64 {
    // xlint: allow(cast) -- usize -> u64 is lossless on 32/64-bit targets
    value as u64
}

/// Converts a `u64` step count to `i64` (for the PTA integer domain).
#[inline]
#[must_use]
pub fn u64_to_i64(value: u64) -> i64 {
    debug_assert!(i64::try_from(value).is_ok(), "u64_to_i64: {value} exceeds i64");
    // xlint: allow(cast) -- the debug_assert above pins the i64 range
    value as i64
}

/// Converts a `usize` count to `i64` (for the PTA integer domain).
#[inline]
#[must_use]
pub fn usize_to_i64(value: usize) -> i64 {
    debug_assert!(i64::try_from(value).is_ok(), "usize_to_i64: {value} exceeds i64");
    // xlint: allow(cast) -- the debug_assert above pins the i64 range
    value as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_helpers_match_the_saturating_cast_in_range() {
        assert_eq!(f64_to_u64(0.0), 0);
        assert_eq!(f64_to_u64(42.0), 42);
        assert_eq!(f64_to_u32(7.0), 7);
        assert_eq!(f64_to_usize(3.0), 3);
        assert_eq!(f64_to_i64(-5.0), -5);
        assert_eq!(f64_to_i64(5.0), 5);
    }

    #[test]
    fn integer_helpers_round_trip() {
        assert_eq!(index(9), 9);
        assert_eq!(index_u64(1 << 40), 1usize << 40);
        assert_eq!(to_u32(123), 123);
        assert_eq!(to_u64(usize::MAX), usize::MAX as u64);
        assert_eq!(u64_to_i64(1 << 62), 1i64 << 62);
        assert_eq!(usize_to_i64(77), 77);
    }

    #[test]
    #[should_panic(expected = "f64_to_u32")]
    #[cfg(debug_assertions)]
    fn out_of_range_is_caught_in_debug() {
        let _ = f64_to_u32(f64::from(u32::MAX) + 2.0);
    }

    #[test]
    #[should_panic(expected = "f64_to_u64")]
    #[cfg(debug_assertions)]
    fn nan_is_caught_in_debug() {
        let _ = f64_to_u64(f64::NAN);
    }
}
