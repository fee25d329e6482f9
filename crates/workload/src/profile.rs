use crate::WorkloadError;
use kibam::lifetime::Segment;

/// One epoch of a load: a period of constant current.
///
/// Following the paper's terminology (Section 4.1), a load is divided into
/// epochs; an epoch with positive current is a *job*, an epoch with zero
/// current is an *idle period*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Epoch {
    current: f64,
    duration: f64,
}

impl Epoch {
    /// Creates an epoch with the given current (A) and duration (min).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidCurrent`] for negative or non-finite
    /// currents and [`WorkloadError::InvalidDuration`] for non-positive or
    /// non-finite durations.
    pub fn new(current: f64, duration: f64) -> Result<Self, WorkloadError> {
        if !(current.is_finite() && current >= 0.0) {
            return Err(WorkloadError::InvalidCurrent { value: current });
        }
        if !(duration.is_finite() && duration > 0.0) {
            return Err(WorkloadError::InvalidDuration { value: duration });
        }
        Ok(Self { current, duration })
    }

    /// A job epoch (positive current expected, but zero is accepted).
    ///
    /// # Errors
    ///
    /// Same as [`Epoch::new`].
    pub fn job(current: f64, duration: f64) -> Result<Self, WorkloadError> {
        Self::new(current, duration)
    }

    /// An idle epoch of the given duration.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidDuration`] for non-positive or
    /// non-finite durations.
    pub fn idle(duration: f64) -> Result<Self, WorkloadError> {
        Self::new(0.0, duration)
    }

    /// The current drawn during this epoch, in amperes.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.current
    }

    /// The duration of this epoch, in minutes.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Whether this epoch is an idle period (draws no current).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        // xlint: allow(float-eq) -- idle is defined as exactly-zero current
        self.current == 0.0
    }

    /// Whether this epoch is a job (draws current).
    #[must_use]
    pub fn is_job(&self) -> bool {
        !self.is_idle()
    }

    /// The charge drawn over the epoch, in A·min.
    #[must_use]
    pub fn charge(&self) -> f64 {
        self.current * self.duration
    }

    /// Converts this epoch into a [`kibam::lifetime::Segment`].
    #[must_use]
    pub fn to_segment(&self) -> Segment {
        Segment::new(self.current, self.duration)
            // xlint: allow(panic) -- epoch invariants are a superset of segment invariants
            .expect("epoch invariants are a superset of segment invariants")
    }
}

/// A piecewise-constant load profile: a sequence of [`Epoch`]s, either finite
/// or repeating its pattern cyclically forever.
///
/// The paper's test loads repeat a small pattern (e.g. "one-minute 500 mA
/// job, one-minute idle") until the batteries are empty; such loads are
/// modelled as *cyclic* profiles. Random loads and truncated loads are
/// *finite* profiles.
///
/// # Example
///
/// ```
/// use workload::{Epoch, LoadProfile};
///
/// # fn main() -> Result<(), workload::WorkloadError> {
/// let profile = LoadProfile::cyclic(vec![
///     Epoch::job(0.5, 1.0)?,
///     Epoch::idle(1.0)?,
/// ])?;
/// assert!(profile.is_cyclic());
/// assert_eq!(profile.pattern().len(), 2);
/// // The epoch iterator is infinite for cyclic profiles.
/// assert_eq!(profile.epochs().take(5).count(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    pattern: Vec<Epoch>,
    cyclic: bool,
}

impl LoadProfile {
    /// Creates a finite profile from a list of epochs.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::EmptyProfile`] if `epochs` is empty.
    pub fn finite(epochs: Vec<Epoch>) -> Result<Self, WorkloadError> {
        if epochs.is_empty() {
            return Err(WorkloadError::EmptyProfile);
        }
        Ok(Self { pattern: epochs, cyclic: false })
    }

    /// Creates a cyclic profile that repeats `pattern` forever.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::EmptyProfile`] if the pattern is empty and
    /// [`WorkloadError::IdleCycle`] if the pattern draws no charge at all
    /// (such a profile would never exercise a battery).
    pub fn cyclic(pattern: Vec<Epoch>) -> Result<Self, WorkloadError> {
        if pattern.is_empty() {
            return Err(WorkloadError::EmptyProfile);
        }
        if pattern.iter().all(Epoch::is_idle) {
            return Err(WorkloadError::IdleCycle);
        }
        Ok(Self { pattern, cyclic: true })
    }

    /// The underlying epoch pattern (one period for cyclic profiles, the
    /// whole load for finite ones).
    #[must_use]
    pub fn pattern(&self) -> &[Epoch] {
        &self.pattern
    }

    /// Whether this profile repeats its pattern forever.
    #[must_use]
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// Iterates over the epochs of the load. The iterator is infinite for
    /// cyclic profiles.
    #[must_use]
    pub fn epochs(&self) -> EpochIter<'_> {
        EpochIter { profile: self, index: 0 }
    }

    /// Iterates over the load as [`kibam::lifetime::Segment`]s (infinite for
    /// cyclic profiles).
    #[must_use]
    pub fn segments(&self) -> SegmentIter<'_> {
        SegmentIter { inner: self.epochs() }
    }

    /// The duration of one pattern period, in minutes.
    #[must_use]
    pub fn pattern_duration(&self) -> f64 {
        self.pattern.iter().map(Epoch::duration).sum()
    }

    /// The charge drawn by one pattern period, in A·min.
    #[must_use]
    pub fn pattern_charge(&self) -> f64 {
        self.pattern.iter().map(Epoch::charge).sum()
    }

    /// The total duration of the load, or `None` for cyclic (infinite)
    /// profiles.
    #[must_use]
    pub fn total_duration(&self) -> Option<f64> {
        (!self.cyclic).then(|| self.pattern_duration())
    }

    /// The total charge drawn by the load, or `None` for cyclic (infinite)
    /// profiles.
    #[must_use]
    pub fn total_charge(&self) -> Option<f64> {
        (!self.cyclic).then(|| self.pattern_charge())
    }

    /// The current drawn at absolute time `time` (minutes from the start of
    /// the load), or `None` if a finite load has already ended by then.
    #[must_use]
    pub fn current_at(&self, time: f64) -> Option<f64> {
        if time < 0.0 {
            return None;
        }
        let period = self.pattern_duration();
        let local = if self.cyclic {
            // Reduce into one period; guard against `period == 0` is not
            // needed because epochs have strictly positive durations.
            time % period
        } else {
            if time >= period {
                return None;
            }
            time
        };
        let mut elapsed = 0.0;
        for epoch in &self.pattern {
            elapsed += epoch.duration();
            if local < elapsed {
                return Some(epoch.current());
            }
        }
        // Floating point fell off the end of the pattern; report the last
        // epoch's current.
        self.pattern.last().map(Epoch::current)
    }

    /// Returns a finite profile containing the epochs of this load up to (at
    /// least) the given time horizon. Epochs are never split: the final epoch
    /// is included whole.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidBound`] if `horizon` is not positive
    /// and finite.
    pub fn truncate_to_duration(&self, horizon: f64) -> Result<LoadProfile, WorkloadError> {
        if !(horizon.is_finite() && horizon > 0.0) {
            return Err(WorkloadError::InvalidBound { value: horizon });
        }
        let mut epochs = Vec::new();
        let mut elapsed = 0.0;
        for epoch in self.epochs() {
            epochs.push(epoch);
            elapsed += epoch.duration();
            if elapsed >= horizon {
                break;
            }
        }
        LoadProfile::finite(epochs)
    }

    /// Returns a finite profile containing the epochs of this load until the
    /// cumulative drawn charge reaches `charge` (A·min), or the finite load
    /// ends. Useful to bound a cyclic load by the total capacity of the
    /// batteries that will serve it.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidBound`] if `charge` is not positive
    /// and finite.
    pub fn truncate_to_charge(&self, charge: f64) -> Result<LoadProfile, WorkloadError> {
        if !(charge.is_finite() && charge > 0.0) {
            return Err(WorkloadError::InvalidBound { value: charge });
        }
        let mut epochs = Vec::new();
        let mut drawn = 0.0;
        for epoch in self.epochs() {
            epochs.push(epoch);
            drawn += epoch.charge();
            if drawn >= charge {
                break;
            }
        }
        LoadProfile::finite(epochs)
    }

    /// The number of jobs (non-idle epochs) in the pattern.
    #[must_use]
    pub fn jobs_per_pattern(&self) -> usize {
        self.pattern.iter().filter(|e| e.is_job()).count()
    }
}

/// Iterator over the epochs of a [`LoadProfile`]; infinite for cyclic
/// profiles. Created by [`LoadProfile::epochs`].
#[derive(Debug, Clone)]
pub struct EpochIter<'a> {
    profile: &'a LoadProfile,
    index: usize,
}

impl Iterator for EpochIter<'_> {
    type Item = Epoch;

    fn next(&mut self) -> Option<Epoch> {
        let pattern = &self.profile.pattern;
        if self.profile.cyclic {
            let epoch = pattern[self.index % pattern.len()];
            self.index += 1;
            Some(epoch)
        } else if self.index < pattern.len() {
            let epoch = pattern[self.index];
            self.index += 1;
            Some(epoch)
        } else {
            None
        }
    }
}

/// Iterator over the load as [`Segment`]s; infinite for cyclic profiles.
/// Created by [`LoadProfile::segments`].
#[derive(Debug, Clone)]
pub struct SegmentIter<'a> {
    inner: EpochIter<'a>,
}

impl Iterator for SegmentIter<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        self.inner.next().map(|e| e.to_segment())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Epoch {
        Epoch::job(0.5, 1.0).unwrap()
    }

    fn idle() -> Epoch {
        Epoch::idle(1.0).unwrap()
    }

    #[test]
    fn epoch_validation() {
        assert!(Epoch::new(0.5, 1.0).is_ok());
        assert!(Epoch::new(-0.5, 1.0).is_err());
        assert!(Epoch::new(0.5, 0.0).is_err());
        assert!(Epoch::new(f64::NAN, 1.0).is_err());
        assert!(Epoch::new(0.5, f64::INFINITY).is_err());
    }

    #[test]
    fn epoch_classification_and_charge() {
        assert!(job().is_job());
        assert!(!job().is_idle());
        assert!(idle().is_idle());
        assert_eq!(job().charge(), 0.5);
        assert_eq!(idle().charge(), 0.0);
        let segment = job().to_segment();
        assert_eq!(segment.current(), 0.5);
        assert_eq!(segment.duration(), 1.0);
    }

    #[test]
    fn finite_profile_requires_epochs() {
        assert!(matches!(LoadProfile::finite(vec![]), Err(WorkloadError::EmptyProfile)));
        assert!(LoadProfile::finite(vec![job()]).is_ok());
    }

    #[test]
    fn cyclic_profile_rejects_all_idle_pattern() {
        assert!(matches!(LoadProfile::cyclic(vec![idle(), idle()]), Err(WorkloadError::IdleCycle)));
        assert!(LoadProfile::cyclic(vec![job(), idle()]).is_ok());
    }

    #[test]
    fn epoch_iterator_finite_vs_cyclic() {
        let finite = LoadProfile::finite(vec![job(), idle()]).unwrap();
        assert_eq!(finite.epochs().count(), 2);
        let cyclic = LoadProfile::cyclic(vec![job(), idle()]).unwrap();
        let first_five: Vec<Epoch> = cyclic.epochs().take(5).collect();
        assert_eq!(first_five.len(), 5);
        assert_eq!(first_five[0], job());
        assert_eq!(first_five[1], idle());
        assert_eq!(first_five[2], job());
        assert_eq!(first_five[4], job());
    }

    #[test]
    fn totals_only_for_finite_profiles() {
        let finite = LoadProfile::finite(vec![job(), idle(), job()]).unwrap();
        assert_eq!(finite.total_duration(), Some(3.0));
        assert_eq!(finite.total_charge(), Some(1.0));
        let cyclic = LoadProfile::cyclic(vec![job(), idle()]).unwrap();
        assert_eq!(cyclic.total_duration(), None);
        assert_eq!(cyclic.total_charge(), None);
        assert_eq!(cyclic.pattern_duration(), 2.0);
        assert_eq!(cyclic.pattern_charge(), 0.5);
    }

    #[test]
    fn current_at_handles_cyclic_wraparound() {
        let cyclic = LoadProfile::cyclic(vec![job(), idle()]).unwrap();
        assert_eq!(cyclic.current_at(0.5), Some(0.5));
        assert_eq!(cyclic.current_at(1.5), Some(0.0));
        assert_eq!(cyclic.current_at(2.5), Some(0.5));
        assert_eq!(cyclic.current_at(100.25), Some(0.5));
        assert_eq!(cyclic.current_at(-1.0), None);
    }

    #[test]
    fn current_at_ends_for_finite_profiles() {
        let finite = LoadProfile::finite(vec![job(), idle()]).unwrap();
        assert_eq!(finite.current_at(0.5), Some(0.5));
        assert_eq!(finite.current_at(1.5), Some(0.0));
        assert_eq!(finite.current_at(2.5), None);
    }

    #[test]
    fn truncate_to_duration_covers_horizon() {
        let cyclic = LoadProfile::cyclic(vec![job(), idle()]).unwrap();
        let finite = cyclic.truncate_to_duration(5.0).unwrap();
        assert!(!finite.is_cyclic());
        assert!(finite.total_duration().unwrap() >= 5.0);
        assert!(cyclic.truncate_to_duration(-1.0).is_err());
    }

    #[test]
    fn truncate_to_charge_covers_bound() {
        let cyclic = LoadProfile::cyclic(vec![job(), idle()]).unwrap();
        let finite = cyclic.truncate_to_charge(3.0).unwrap();
        assert!(finite.total_charge().unwrap() >= 3.0);
        assert!(cyclic.truncate_to_charge(f64::NAN).is_err());
    }

    #[test]
    fn truncate_to_charge_stops_at_end_of_finite_load() {
        let finite = LoadProfile::finite(vec![job(), idle()]).unwrap();
        let truncated = finite.truncate_to_charge(100.0).unwrap();
        assert_eq!(truncated.pattern().len(), 2);
    }

    #[test]
    fn jobs_per_pattern_counts_only_jobs() {
        let profile = LoadProfile::finite(vec![job(), idle(), job(), idle()]).unwrap();
        assert_eq!(profile.jobs_per_pattern(), 2);
    }

    #[test]
    fn segment_iterator_mirrors_epochs() {
        let profile = LoadProfile::finite(vec![job(), idle()]).unwrap();
        let segments: Vec<_> = profile.segments().collect();
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].current(), 0.5);
        assert_eq!(segments[1].current(), 0.0);
    }
}
