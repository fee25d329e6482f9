//! Recovery-coupled service-rate analysis of a battery type.
//!
//! The optimal-schedule search needs an *admissible* answer to the question
//! "how many charge units could this battery possibly still serve within
//! the next `Δ` time steps, given that the load has delivered `D` draw
//! units by then?". Total charge alone wildly overestimates on loads that
//! strand charge (`ILs alt` leaves ~70 % of the capacity behind): batteries
//! die from the emptiness criterion (Eq. 8, `c·n ≤ (1−c)·m`), not from
//! running out of charge, and the height difference `m` only relaxes at the
//! finite rate of the recovery table (Eq. 6). This module precomputes, once
//! per battery type, a reachability analysis of the discrete dynamics that
//! turns three facts into a cheap upper envelope:
//!
//! * the **service frontier** `threshold(n)` — the largest height
//!   difference at which a battery holding `n` charge units is still
//!   non-empty. A battery that serves a draw while the *post-draw* state
//!   violates the frontier is retired on the spot (the observed-empty flag
//!   is sticky), so every draw except a battery's final one must land at
//!   `m ≤ threshold(n)` — and the frontier *shrinks* as charge drains;
//! * the **recovery cost ladder** — Eq. 6 recovery is fastest at large
//!   height differences, and the largest serviceable height after `s`
//!   units have been served is `threshold(n₀ − s) + u`, so the `j`-th
//!   height unit a battery regains can never cost fewer steps than the
//!   table time at that shrinking ceiling;
//! * **demand pacing** — the height difference only *rises* by serving,
//!   and a battery can never have served more units than the whole load
//!   has delivered, so a recovery completing while the load has delivered
//!   `D` units can occur at height at most `m₀ + D − (recoveries so far)`.
//!   Early recoveries are therefore priced at *low* heights — the slow
//!   part of Eq. 6 — which is exactly what makes alternating loads strand
//!   charge.
//!
//! [`ServiceRateTable::build_envelope`] bakes the state-dependent parts
//! into a [`ServiceEnvelope`]; [`ServiceRateTable::units_within`] then
//! answers `(Δ, D)` queries against it in amortized constant time via a
//! monotone [`EnvelopeCursor`]. An envelope is a pure function of its
//! table, the battery's charge and height units and the load's largest
//! draw, and queries never mutate it, so one built envelope serves every
//! battery and every node that reaches the same `(n, m)`: the
//! `battery-sched` search builds each distinct envelope once per search
//! and sums them into an availability-aware upper bound on the remaining
//! system lifetime. Admissibility (the envelope may never undercount what
//! a real schedule serves) is asserted against brute-force single-battery
//! service enumeration in this module's tests.

use crate::{Discretization, RecoveryTable};
use kibam::BatteryParams;

/// Precomputed service-rate data of one battery type: the emptiness
/// frontier per charge level and the recovery cost structure it couples to.
///
/// Built once per battery type next to the [`RecoveryTable`] (see
/// [`crate::DiscreteFleet`]), shared by every search cell that uses the
/// type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRateTable {
    /// `threshold[n]` = the largest height difference `m` at which a
    /// battery with `n` charge units is still non-empty under Eq. 8.
    threshold: Vec<u32>,
    /// Per-unit recovery times, indexed by height difference (`None` at or
    /// below one unit — the asymptotic tail never recovers).
    recovery_steps: Vec<Option<u64>>,
    /// `prefix_steps[h]` = Σ of `recovery_steps[2..=h]`, for O(1) sums of
    /// recovery ladders over height ranges.
    prefix_steps: Vec<u64>,
}

/// The state-dependent half of a battery's service envelope, built by
/// [`ServiceRateTable::build_envelope`] and queried through
/// [`ServiceRateTable::units_within`]. Buffers are reused across builds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceEnvelope {
    /// `units_at[r]` = the most charge units servable given `r` completed
    /// recovery units (the shrinking-frontier condition); non-decreasing,
    /// capped at the remaining charge.
    units_at: Vec<u64>,
    /// `frontier_height[j]` = the largest height at which the `j`-th
    /// recovery unit can occur, ignoring demand pacing (1-indexed via
    /// `frontier_height[j - 1]`); non-increasing.
    frontier_height: Vec<u32>,
    /// Prefix sums of `steps(frontier_height[..])`, `frontier_prefix[j]` =
    /// cost of the first `j` frontier-priced recoveries.
    frontier_prefix: Vec<u64>,
    /// The battery's current height difference (for the demand-pacing
    /// branch).
    height: u32,
    /// The battery's remaining charge units.
    charge: u64,
}

impl ServiceEnvelope {
    /// Creates an empty envelope (filled by
    /// [`ServiceRateTable::build_envelope`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The most units this battery can ever serve, regardless of time.
    #[must_use]
    pub fn max_units(&self) -> u64 {
        self.units_at.last().copied().unwrap_or(0)
    }
}

/// Monotone query cursor over a [`ServiceEnvelope`]: windows and demands
/// must be queried in non-decreasing order (rewind by restoring a saved
/// copy). Holds the recovery units granted so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct EnvelopeCursor {
    /// Recovery units granted.
    recovered: usize,
}

impl ServiceRateTable {
    /// Builds the service-rate table for a battery type: the emptiness
    /// frontier for every charge level `0..=N`, the per-unit recovery
    /// times, and their prefix sums.
    #[must_use]
    pub fn for_battery(params: &BatteryParams, disc: &Discretization) -> Self {
        Self::from_recovery(params, disc, &RecoveryTable::for_battery(params, disc))
    }

    /// Like [`ServiceRateTable::for_battery`], reusing an already-built
    /// [`RecoveryTable`] for the same `(params, disc)` instead of paying
    /// the O(N) log evaluations again (see [`crate::DiscreteFleet`]).
    #[must_use]
    pub fn from_recovery(
        params: &BatteryParams,
        disc: &Discretization,
        table: &RecoveryTable,
    ) -> Self {
        let capacity_units = disc.charge_units(params.capacity());
        let c = params.c();
        let ratio = c / (1.0 - c);
        let threshold: Vec<u32> = (0..=capacity_units)
            .map(|n| {
                // Largest m with c·n > (1−c)·m, found from the float
                // estimate and corrected against the exact predicate so the
                // frontier matches `DiscreteBattery::is_empty` bit for bit.
                let mut m = crate::checked::f64_to_u32((ratio * f64::from(n)).floor().max(0.0)) + 1;
                while m > 0 && c * f64::from(n) <= (1.0 - c) * f64::from(m) {
                    m -= 1;
                }
                m
            })
            .collect();
        let recovery_steps: Vec<Option<u64>> =
            (0..=table.max_units()).map(|m| table.steps(m)).collect();
        let mut prefix_steps = Vec::with_capacity(recovery_steps.len());
        let mut sum = 0u64;
        for steps in &recovery_steps {
            sum += steps.unwrap_or(0);
            prefix_steps.push(sum);
        }
        Self { threshold, recovery_steps, prefix_steps }
    }

    /// The largest height difference at which a battery holding `n` charge
    /// units is still non-empty (the Eq. 8 frontier). Saturates at the top
    /// of the table for `n` beyond the capacity.
    #[must_use]
    pub fn service_threshold(&self, n: u32) -> u32 {
        let top = self.threshold.len() - 1;
        self.threshold[crate::checked::index(n).min(top)]
    }

    /// The Eq. 6 recovery time at height difference `m`, saturating at the
    /// top of the table (`None` at or below one unit).
    #[must_use]
    pub fn recovery_steps(&self, m: u32) -> Option<u64> {
        let top = self.recovery_steps.len() - 1;
        self.recovery_steps[crate::checked::index(m).min(top)]
    }

    /// Σ of the recovery times at heights `2..=h` (0 for `h ≤ 1`),
    /// saturating above the table: heights past the top are charged the
    /// top's (fastest) time.
    fn height_range_cost(&self, h: u64) -> u64 {
        let top = crate::checked::to_u64(self.prefix_steps.len() - 1);
        if h <= top {
            return self.prefix_steps[crate::checked::index_u64(h)];
        }
        let extra = h - top;
        let top = crate::checked::index_u64(top);
        self.prefix_steps[top] + extra * self.recovery_steps[top].unwrap_or(0)
    }

    /// Whether a battery at `(n, m)` could serve `s + 1` units without
    /// retiring before the final draw, given `r` completed recovery units:
    /// the height before the final draw, `m + s − r`, must sit on the
    /// frontier of the charge left then. (The final draw itself may
    /// overshoot the frontier — the battery retires serving it.)
    fn can_serve(&self, n: u32, m: u32, s: u64, r: u64) -> bool {
        let charge_left = n.saturating_sub(u32::try_from(s).unwrap_or(u32::MAX));
        u64::from(m) + s <= r + u64::from(self.service_threshold(charge_left))
    }

    /// Fills `out` with the service envelope of a battery currently at
    /// `(n, m)`. `max_units_per_draw` is the largest single draw of the
    /// load ahead (one final draw may overshoot the service frontier by
    /// that much). Buffers inside `out` are reused.
    pub fn build_envelope(
        &self,
        n: u32,
        m: u32,
        max_units_per_draw: u32,
        out: &mut ServiceEnvelope,
    ) {
        out.units_at.clear();
        out.frontier_height.clear();
        out.frontier_prefix.clear();
        out.height = m;
        out.charge = u64::from(n);
        let overshoot = u64::from(max_units_per_draw);

        // units_at[r]: extend while the shrinking-frontier condition holds,
        // granting the final draw its overshoot.
        let mut served: u64 = 0;
        // Crossing pointer for the recovery-height maximization below: the
        // largest prior-serve count S where the climb branch still sits at
        // or under the frontier branch (non-decreasing in j).
        let mut crossing: u64 = 0;
        for recovered in 0u64.. {
            while served < out.charge
                && self.can_serve(n, m, served.saturating_sub(overshoot), recovered)
            {
                served += 1;
            }
            out.units_at.push(served);
            if served >= out.charge {
                break;
            }
            // The j-th recovery's height is capped by both the climb (the
            // height has risen by at most the S serves preceding it:
            // m + S − (j − 1)) and the shrinking service frontier of the
            // charge left after those serves (thr(n − S) + overshoot); the
            // admissible price is the best case over S — the crossing of
            // the rising climb branch and the falling frontier branch —
            // or the start height for recoveries preceding all serving.
            let j = recovered + 1;
            let idle_height = u64::from(m).saturating_sub(j - 1);
            let climb = |s: u64| (u64::from(m) + s + 1).saturating_sub(j);
            // No overshoot here: every priced recovery precedes a further
            // serve, and a battery only keeps serving while its post-draw
            // height sits on the frontier proper.
            let frontier = |s: u64| {
                u64::from(
                    self.service_threshold(n.saturating_sub(u32::try_from(s).unwrap_or(u32::MAX))),
                )
            };
            while crossing < out.charge && climb(crossing + 1) <= frontier(crossing + 1) {
                crossing += 1;
            }
            let mut height = idle_height.max(climb(crossing).min(frontier(crossing)));
            if crossing < out.charge {
                height = height.max(frontier(crossing + 1).min(climb(crossing + 1)));
            }
            if self.recovery_steps(u32::try_from(height).unwrap_or(u32::MAX)).is_none() {
                // The reachable band cannot recover: the envelope ends.
                break;
            }
            // Envelope monotonicity: the recovery frontier only shrinks as
            // units are served, so the priced heights are non-increasing.
            debug_assert!(
                out.frontier_height.last().map_or(true, |&prev| height <= u64::from(prev)),
                "service frontier heights must be non-increasing"
            );
            // `height` was validated against the u32 recovery table above.
            out.frontier_height.push(crate::checked::to_u32(crate::checked::index_u64(height)));
            let cost = self.height_range_cost(height) - self.height_range_cost(height - 1);
            let previous = out.frontier_prefix.last().copied().unwrap_or(0);
            out.frontier_prefix.push(previous + cost);
        }
    }

    /// The minimum time (steps) for the first `r` recovery units of
    /// `envelope` under demand cap `demand_units`: each recovery is priced
    /// at the cheapest (largest) height it could occur at — the frontier
    /// ladder capped by the demand-paced climb `m₀ + D − (j − 1)` — with
    /// the first recovery riding free on a pre-accumulated clock.
    fn recovery_time(&self, envelope: &ServiceEnvelope, r: usize, demand_units: u64) -> u64 {
        if r <= 1 {
            return 0;
        }
        let priced = r - 1;
        // Demand-paced ceiling for recovery j: m₀ + min(D, charge) + 1 − j.
        let climb = u64::from(envelope.height) + envelope.charge.min(demand_units) + 1;
        // The frontier branch governs recoveries j with
        // frontier_height[j] + j ≤ climb; frontier_height[j] + j is
        // non-decreasing (the frontier shrinks by at most one per serve),
        // so that set is a prefix — find its end by binary search over the
        // first `priced` entries (j is 1-based, stored at index j − 1).
        let limit = priced.min(envelope.frontier_height.len());
        let mut lo = 0usize;
        let mut hi = limit;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if u64::from(envelope.frontier_height[mid]) + (crate::checked::to_u64(mid) + 1) <= climb
            {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let split = lo;
        let mut total = if split > 0 { envelope.frontier_prefix[split - 1] } else { 0 };
        if split < priced {
            // Demand-paced heights climb − (split+1) down to climb − priced.
            let high = climb.saturating_sub(crate::checked::to_u64(split) + 1);
            let low = climb.saturating_sub(crate::checked::to_u64(priced));
            if low <= 1 {
                return u64::MAX;
            }
            total = total
                .saturating_add(self.height_range_cost(high))
                .saturating_sub(self.height_range_cost(low - 1));
        }
        total
    }

    /// Upper bound on the units a battery with `envelope` can serve within
    /// `window_steps`, given the load delivers at most `demand_units` over
    /// that window. `cursor` carries the recoveries granted so far and must
    /// be queried with non-decreasing `(window, demand)` pairs (save and
    /// restore it to rewind).
    #[must_use]
    pub fn units_within(
        &self,
        envelope: &ServiceEnvelope,
        cursor: &mut EnvelopeCursor,
        window_steps: u64,
        demand_units: u64,
    ) -> u64 {
        while cursor.recovered + 1 < envelope.units_at.len()
            && self.recovery_time(envelope, cursor.recovered + 1, demand_units) <= window_steps
        {
            cursor.recovered += 1;
        }
        // Charge conservation: no window lets a battery serve more units
        // than the charge it held when the envelope was built.
        debug_assert!(
            envelope.units_at[cursor.recovered] <= envelope.charge,
            "service envelope promised more units than the battery's charge"
        );
        envelope.units_at[cursor.recovered].min(demand_units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiscreteBattery;

    fn b1_coarse() -> (BatteryParams, Discretization, ServiceRateTable) {
        let params = BatteryParams::itsy_b1();
        let disc = Discretization::coarse();
        let table = ServiceRateTable::for_battery(&params, &disc);
        (params, disc, table)
    }

    /// Evaluates an envelope at a window with unbounded demand, the way a
    /// fresh (non-cursor) caller would.
    fn units_at_window(table: &ServiceRateTable, env: &ServiceEnvelope, window: u64) -> u64 {
        let mut cursor = EnvelopeCursor::default();
        table.units_within(env, &mut cursor, window, u64::MAX)
    }

    #[test]
    fn threshold_matches_the_emptiness_predicate_exactly() {
        let (params, disc, table) = b1_coarse();
        let capacity = disc.charge_units(params.capacity());
        for n in 0..=capacity {
            let threshold = table.service_threshold(n);
            if threshold > 0 {
                let live = DiscreteBattery::from_units(n, threshold);
                assert!(!live.is_empty(&params), "n={n}: m={threshold} must be serviceable");
            }
            let dead = DiscreteBattery::from_units(n, threshold + 1);
            assert!(dead.is_empty(&params), "n={n}: m={} must be empty", threshold + 1);
        }
    }

    #[test]
    fn threshold_is_monotone_in_charge() {
        let (params, disc, table) = b1_coarse();
        let capacity = disc.charge_units(params.capacity());
        let mut previous = 0;
        for n in 0..=capacity {
            let threshold = table.service_threshold(n);
            assert!(threshold >= previous, "the frontier never shrinks as charge grows");
            previous = threshold;
        }
        // Beyond the capacity the lookup saturates instead of panicking.
        assert_eq!(table.service_threshold(capacity + 100), previous);
    }

    #[test]
    fn envelope_is_monotone_and_charge_capped() {
        let (_, _, table) = b1_coarse();
        let mut env = ServiceEnvelope::new();
        for (n, m) in [(110u32, 0u32), (80, 14), (30, 5), (8, 1), (0, 3)] {
            table.build_envelope(n, m, 1, &mut env);
            assert!(!env.units_at.is_empty(), "(n={n}, m={m}): envelopes are never empty");
            assert!(
                env.units_at.windows(2).all(|w| w[0] <= w[1]),
                "(n={n}, m={m}): units monotone"
            );
            assert!(
                env.frontier_prefix.windows(2).all(|w| w[0] <= w[1]),
                "(n={n}, m={m}): costs monotone"
            );
            assert!(
                env.max_units() <= u64::from(n),
                "(n={n}, m={m}): can never serve more than the remaining charge"
            );
            // Queries are monotone in the window and capped by demand.
            let mut previous = 0;
            for window in [0u64, 20, 80, 200, 400, 1_000] {
                let units = units_at_window(&table, &env, window);
                assert!(units >= previous);
                previous = units;
            }
            let mut cursor = EnvelopeCursor::default();
            assert!(table.units_within(&env, &mut cursor, 1_000, 7) <= 7);
        }
    }

    #[test]
    fn demand_pacing_slows_early_recoveries() {
        // A fresh battery's height can only climb as fast as the load
        // delivers draws, so with little demand its recoveries are priced
        // at low (slow) heights and the envelope must shrink.
        let (_, _, table) = b1_coarse();
        let mut env = ServiceEnvelope::new();
        table.build_envelope(110, 0, 1, &mut env);
        let mut starved = EnvelopeCursor::default();
        let mut fed = EnvelopeCursor::default();
        let with_low_demand = table.units_within(&env, &mut starved, 400, 30);
        let with_high_demand = table.units_within(&env, &mut fed, 400, 10_000);
        assert!(
            with_low_demand < with_high_demand,
            "demand pacing must bind: {with_low_demand} vs {with_high_demand}"
        );
    }

    #[test]
    fn worn_batteries_have_smaller_envelopes_than_fresh_ones() {
        let (_, _, table) = b1_coarse();
        let mut fresh = ServiceEnvelope::new();
        let mut worn = ServiceEnvelope::new();
        table.build_envelope(110, 0, 1, &mut fresh);
        table.build_envelope(80, 14, 1, &mut worn);
        for window in [0u64, 20, 80, 200, 400] {
            let fresh_units = units_at_window(&table, &fresh, window);
            let worn_units = units_at_window(&table, &worn, window);
            assert!(
                fresh_units >= worn_units,
                "window {window}: fresh {fresh_units} < worn {worn_units}"
            );
        }
        // A worn battery cannot cover a 500 mA epoch (10 units / 20 steps)
        // the way a fresh one can — the shape the availability bound
        // exploits.
        assert!(units_at_window(&table, &fresh, 20) >= 10);
        assert!(units_at_window(&table, &worn, 20) <= 5);
    }

    #[test]
    fn envelope_never_undercounts_brute_force_service() {
        // Admissibility at the single-battery level: for a sample of
        // states, enumerate every subset of the next `slots` draw slots and
        // count the most units any serving pattern delivers; the envelope
        // evaluated at the window (with demand = the slots offered) must
        // never report less.
        let (params, disc, table) = b1_coarse();
        let recovery = RecoveryTable::for_battery(&params, &disc);
        let mut env = ServiceEnvelope::new();
        for interval in [2u64, 4] {
            let slots = 11u32;
            for (n, m) in [(110, 0), (110, 18), (80, 14), (60, 11), (30, 5), (20, 3), (8, 1)] {
                let best = max_served(
                    DiscreteBattery::from_units(n, m),
                    &params,
                    &recovery,
                    interval,
                    slots,
                );
                table.build_envelope(n, m, 1, &mut env);
                let mut cursor = EnvelopeCursor::default();
                let window = u64::from(slots) * interval;
                let bound = table.units_within(&env, &mut cursor, window, u64::from(slots));
                assert!(
                    bound >= u64::from(best),
                    "(n={n}, m={m}, interval={interval}): envelope {bound} undercounts \
                     brute force {best}"
                );
            }
        }
    }

    /// Brute force: the most draws a single battery can serve among the
    /// next `slots` draw instants (spaced `interval` steps), trying every
    /// serve/skip pattern under the real discrete dynamics (including
    /// sticky retirement at a post-draw emptiness observation).
    fn max_served(
        battery: DiscreteBattery,
        params: &BatteryParams,
        recovery: &RecoveryTable,
        interval: u64,
        slots: u32,
    ) -> u32 {
        if slots == 0 {
            return 0;
        }
        // Skip this slot: recover through it.
        let mut skipped = battery;
        skipped.advance_recovery(interval, recovery);
        let mut best = max_served(skipped, params, recovery, interval, slots - 1);
        // Serve this slot if the battery is up to it: recovery runs up to
        // the draw instant, the draw lands if the battery is non-empty
        // there, and a post-draw emptiness observation retires it.
        let mut served = battery;
        served.advance_recovery(interval, recovery);
        if !served.is_empty(params) {
            served.draw(1);
            let rest = if served.is_empty(params) {
                0
            } else {
                max_served(served, params, recovery, interval, slots - 1)
            };
            best = best.max(1 + rest);
        }
        best
    }
}
