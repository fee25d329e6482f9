//! Sampled charge trajectories.
//!
//! Figure 6 of the paper plots, over time, the *total* and *available* charge
//! of each battery together with the schedule. This module produces such
//! trajectories for a single battery under a piecewise-constant load; the
//! multi-battery version (with the schedule) lives in the `battery-sched`
//! crate and builds on this.

use crate::analytic::evolve_unchecked;
use crate::lifetime::Segment;
use crate::{BatteryParams, KibamError, TransformedState, TwoWellState};

/// One sample of a charge trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Absolute time of the sample, in minutes.
    pub time: f64,
    /// Total remaining charge `γ` at that time (A·min).
    pub total_charge: f64,
    /// Charge in the available-charge well at that time (A·min).
    pub available_charge: f64,
    /// Current drawn from the battery at that time (A).
    pub current: f64,
}

/// A sampled trajectory of a single battery under a load.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The samples, in increasing time order, spaced by the sampling step.
    pub points: Vec<TracePoint>,
    /// The time at which the battery became empty, if it did within the load.
    pub lifetime: Option<f64>,
}

impl Trace {
    /// The state (in two-well coordinates) at the last sample, if any.
    #[must_use]
    pub fn final_state(&self, params: &BatteryParams) -> Option<TwoWellState> {
        self.points.last().map(|p| {
            let bound = (p.total_charge - p.available_charge).max(0.0);
            TwoWellState::new(p.available_charge, bound).unwrap_or_else(|_| params.full_state())
        })
    }
}

/// Samples the battery state every `sample_step` minutes while applying the
/// given load segments, stopping when the battery empties or the segments
/// run out.
///
/// # Errors
///
/// Returns [`KibamError::InvalidDuration`] if `sample_step` is not strictly
/// positive and finite.
pub fn trace_segments<I>(
    params: &BatteryParams,
    segments: I,
    sample_step: f64,
) -> Result<Trace, KibamError>
where
    I: IntoIterator<Item = Segment>,
{
    if !(sample_step.is_finite() && sample_step > 0.0) {
        return Err(KibamError::InvalidDuration { value: sample_step });
    }
    let mut state = TransformedState::full(params);
    let mut time = 0.0_f64;
    let mut points = vec![sample(params, time, state, 0.0)];
    let mut lifetime = None;

    'outer: for segment in segments {
        let mut remaining = segment.duration();
        // Stop once the leftover duration is pure floating-point residue, so
        // that no (near-)duplicate time samples are emitted.
        while remaining > 1e-12 {
            let dt = sample_step.min(remaining);
            let next = evolve_unchecked(params, state, segment.current(), dt);
            if next.is_empty(params) {
                // Refine the crossing within this sampling interval.
                let mut lo = 0.0;
                let mut hi = dt;
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    if evolve_unchecked(params, state, segment.current(), mid).is_empty(params) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                let t_empty = 0.5 * (lo + hi);
                state = evolve_unchecked(params, state, segment.current(), t_empty);
                time += t_empty;
                points.push(sample(params, time, state, segment.current()));
                lifetime = Some(time);
                break 'outer;
            }
            state = next;
            time += dt;
            remaining -= dt;
            points.push(sample(params, time, state, segment.current()));
        }
    }

    Ok(Trace { points, lifetime })
}

fn sample(params: &BatteryParams, time: f64, state: TransformedState, current: f64) -> TracePoint {
    TracePoint {
        time,
        total_charge: state.gamma,
        available_charge: state.available_charge(params),
        current,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b1() -> BatteryParams {
        BatteryParams::itsy_b1()
    }

    #[test]
    fn rejects_bad_sample_step() {
        assert!(trace_segments(&b1(), Vec::new(), 0.0).is_err());
        assert!(trace_segments(&b1(), Vec::new(), -0.1).is_err());
        assert!(trace_segments(&b1(), Vec::new(), f64::NAN).is_err());
    }

    #[test]
    fn empty_load_produces_single_initial_sample() {
        let trace = trace_segments(&b1(), Vec::new(), 0.1).unwrap();
        assert_eq!(trace.points.len(), 1);
        assert_eq!(trace.points[0].time, 0.0);
        assert_eq!(trace.points[0].total_charge, 5.5);
        assert!(trace.lifetime.is_none());
    }

    #[test]
    fn trace_lifetime_matches_lifetime_solver() {
        let params = b1();
        let pattern = vec![Segment::new(0.5, 1.0).unwrap(), Segment::idle(1.0).unwrap()];
        let segments: Vec<Segment> =
            std::iter::repeat(pattern.clone()).flatten().take(40).collect();
        let trace = trace_segments(&params, segments, 0.05).unwrap();
        let lifetime =
            crate::lifetime::lifetime_for_segments(&params, std::iter::repeat(pattern).flatten())
                .unwrap()
                .lifetime;
        let traced = trace.lifetime.expect("battery empties within 40 segments");
        assert!((traced - lifetime).abs() < 1e-6, "{traced} vs {lifetime}");
    }

    #[test]
    fn samples_are_monotone_in_time_and_total_charge_non_increasing() {
        let params = b1();
        let segments: Vec<Segment> =
            std::iter::repeat(vec![Segment::new(0.25, 1.0).unwrap(), Segment::idle(1.0).unwrap()])
                .flatten()
                .take(30)
                .collect();
        let trace = trace_segments(&params, segments, 0.1).unwrap();
        for pair in trace.points.windows(2) {
            assert!(pair[1].time > pair[0].time);
            assert!(pair[1].total_charge <= pair[0].total_charge + 1e-12);
        }
    }

    #[test]
    fn available_charge_recovers_during_idle() {
        let params = b1();
        let segments = vec![Segment::new(0.5, 1.0).unwrap(), Segment::idle(2.0).unwrap()];
        let trace = trace_segments(&params, segments, 0.1).unwrap();
        // Find the sample at the end of the job and the last sample.
        let at_job_end = trace.points.iter().find(|p| (p.time - 1.0).abs() < 1e-9).unwrap();
        let last = trace.points.last().unwrap();
        assert!(last.available_charge > at_job_end.available_charge);
        assert!((last.total_charge - at_job_end.total_charge).abs() < 1e-12);
    }

    #[test]
    fn final_state_is_consistent() {
        let params = b1();
        let segments = vec![Segment::new(0.25, 2.0).unwrap()];
        let trace = trace_segments(&params, segments, 0.5).unwrap();
        let state = trace.final_state(&params).unwrap();
        assert!((state.total() - (5.5 - 0.5)).abs() < 1e-9);
    }
}
