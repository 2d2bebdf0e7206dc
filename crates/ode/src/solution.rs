//! Sampled trajectories and the waveform metrics the paper's comparisons
//! need.
//!
//! The paper's evaluation compares *waveforms*: the microgenerator output power
//! during tuning (Fig. 8a), the supercapacitor voltage against experimental
//! measurements (Figs. 8b and 9) and the RMS power before/after tuning. A
//! [`Trajectory`] holds one sampled waveform, and its metrics are the ones
//! those comparisons use: per-component extraction, linear interpolation
//! between samples and the maximum/RMS deviation between two waveforms.
//! Integrators do not write here themselves: in `harvsim-core` the session
//! offers every accepted point to its probes, and the dense capture probe
//! records into a pair of trajectories.

use harvsim_linalg::DVector;

use crate::OdeError;

/// A sampled trajectory `(t_k, x_k)` produced by an integrator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trajectory {
    times: Vec<f64>,
    states: Vec<DVector>,
}

impl Trajectory {
    /// Creates an empty trajectory.
    pub fn new() -> Self {
        Trajectory { times: Vec::new(), states: Vec::new() }
    }

    /// Creates an empty trajectory with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Trajectory { times: Vec::with_capacity(capacity), states: Vec::with_capacity(capacity) }
    }

    /// Appends a sample. Times must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `t` is smaller than the last recorded time or if the state
    /// dimension differs from previously recorded samples.
    pub fn push(&mut self, t: f64, state: DVector) {
        if let Some(&last) = self.times.last() {
            assert!(t >= last, "trajectory times must be non-decreasing ({t} < {last})");
        }
        if let Some(first) = self.states.first() {
            assert_eq!(first.len(), state.len(), "state dimension changed mid-trajectory");
        }
        self.times.push(t);
        self.states.push(state);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Recorded sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Recorded states, one per sample time.
    pub fn states(&self) -> &[DVector] {
        &self.states
    }

    /// First recorded time.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty.
    pub fn first_time(&self) -> f64 {
        *self.times.first().expect("trajectory is empty")
    }

    /// Last recorded time.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty.
    pub fn last_time(&self) -> f64 {
        *self.times.last().expect("trajectory is empty")
    }

    /// Last recorded state.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty.
    pub fn last_state(&self) -> &DVector {
        self.states.last().expect("trajectory is empty")
    }

    /// Extracts the scalar waveform of state component `index` as `(t, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the stored states.
    pub fn component(&self, index: usize) -> Vec<(f64, f64)> {
        self.times.iter().zip(&self.states).map(|(&t, x)| (t, x[index])).collect()
    }

    /// Linearly interpolates the state at time `t`.
    ///
    /// Times outside the recorded range clamp to the first/last sample, which is
    /// the behaviour waveform comparison wants (both solvers cover the same
    /// nominal span but may end at slightly different final step times).
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidParameter`] if the trajectory is empty.
    fn interpolate(&self, t: f64) -> Result<DVector, OdeError> {
        if self.is_empty() {
            return Err(OdeError::InvalidParameter(
                "cannot interpolate an empty trajectory".to_string(),
            ));
        }
        if t <= self.times[0] {
            return Ok(self.states[0].clone());
        }
        if t >= *self.times.last().expect("non-empty") {
            return Ok(self.states.last().expect("non-empty").clone());
        }
        // Binary search for the bracketing interval.
        let idx = match self.times.binary_search_by(|probe| probe.partial_cmp(&t).expect("finite"))
        {
            Ok(exact) => return Ok(self.states[exact].clone()),
            Err(insertion) => insertion,
        };
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let w = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
        let x0 = &self.states[idx - 1];
        let x1 = &self.states[idx];
        Ok(DVector::from_fn(x0.len(), |i| x0[i] + w * (x1[i] - x0[i])))
    }

    /// Maximum absolute difference between component `index` of this trajectory
    /// and the same component of `other`, evaluated at `samples` uniformly spaced
    /// times over the overlapping span. Used to quantify how closely the
    /// explicit state-space solution tracks the Newton–Raphson reference.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidParameter`] if either trajectory is empty, the
    /// spans do not overlap, or `samples < 2`.
    pub fn max_deviation(
        &self,
        other: &Trajectory,
        index: usize,
        samples: usize,
    ) -> Result<f64, OdeError> {
        self.compare_with(other, index, samples).map(|(max, _)| max)
    }

    /// Root-mean-square difference between component `index` of this trajectory
    /// and of `other` over the overlapping span.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Trajectory::max_deviation`].
    pub fn rms_deviation(
        &self,
        other: &Trajectory,
        index: usize,
        samples: usize,
    ) -> Result<f64, OdeError> {
        self.compare_with(other, index, samples).map(|(_, rms)| rms)
    }

    fn compare_with(
        &self,
        other: &Trajectory,
        index: usize,
        samples: usize,
    ) -> Result<(f64, f64), OdeError> {
        if self.is_empty() || other.is_empty() {
            return Err(OdeError::InvalidParameter("cannot compare empty trajectories".into()));
        }
        if samples < 2 {
            return Err(OdeError::InvalidParameter("comparison needs at least 2 samples".into()));
        }
        let t0 = self.first_time().max(other.first_time());
        let t1 = self.last_time().min(other.last_time());
        if !(t1 > t0) {
            return Err(OdeError::InvalidParameter(
                "trajectories do not overlap in time".to_string(),
            ));
        }
        let mut max_dev: f64 = 0.0;
        let mut sq_sum = 0.0;
        for k in 0..samples {
            let t = t0 + (t1 - t0) * (k as f64) / ((samples - 1) as f64);
            let a = self.interpolate(t)?[index];
            let b = other.interpolate(t)?[index];
            let d = (a - b).abs();
            max_dev = max_dev.max(d);
            sq_sum += d * d;
        }
        Ok((max_dev, (sq_sum / samples as f64).sqrt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_trajectory() -> Trajectory {
        // x(t) = [t, 2t] sampled at 0, 1, 2, 3.
        let mut tr = Trajectory::new();
        for k in 0..4 {
            let t = k as f64;
            tr.push(t, DVector::from_slice(&[t, 2.0 * t]));
        }
        tr
    }

    #[test]
    fn push_and_access() {
        let tr = ramp_trajectory();
        assert_eq!(tr.len(), 4);
        assert!(!tr.is_empty());
        assert_eq!(tr.first_time(), 0.0);
        assert_eq!(tr.last_time(), 3.0);
        assert_eq!(tr.last_state().as_slice(), &[3.0, 6.0]);
        assert_eq!(tr.times().len(), 4);
        assert_eq!(tr.states().len(), 4);
        assert_eq!(tr.component(1)[2], (2.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn push_rejects_time_going_backwards() {
        let mut tr = ramp_trajectory();
        tr.push(1.0, DVector::zeros(2));
    }

    #[test]
    #[should_panic(expected = "dimension changed")]
    fn push_rejects_dimension_change() {
        let mut tr = ramp_trajectory();
        tr.push(4.0, DVector::zeros(3));
    }

    #[test]
    fn interpolation_linear_and_clamped() {
        let tr = ramp_trajectory();
        let x = tr.interpolate(1.5).unwrap();
        assert!((x[0] - 1.5).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
        // Exact sample.
        assert_eq!(tr.interpolate(2.0).unwrap().as_slice(), &[2.0, 4.0]);
        // Clamping outside the range.
        assert_eq!(tr.interpolate(-5.0).unwrap().as_slice(), &[0.0, 0.0]);
        assert_eq!(tr.interpolate(99.0).unwrap().as_slice(), &[3.0, 6.0]);
        assert!(Trajectory::new().interpolate(0.0).is_err());
    }

    #[test]
    fn deviation_between_identical_trajectories_is_zero() {
        let tr = ramp_trajectory();
        assert_eq!(tr.max_deviation(&tr, 0, 10).unwrap(), 0.0);
        assert_eq!(tr.rms_deviation(&tr, 1, 10).unwrap(), 0.0);
    }

    #[test]
    fn deviation_between_offset_trajectories() {
        let a = ramp_trajectory();
        let mut b = Trajectory::new();
        for k in 0..4 {
            let t = k as f64;
            b.push(t, DVector::from_slice(&[t + 0.5, 2.0 * t]));
        }
        let max = a.max_deviation(&b, 0, 50).unwrap();
        assert!((max - 0.5).abs() < 1e-12);
        let rms = a.rms_deviation(&b, 0, 50).unwrap();
        assert!((rms - 0.5).abs() < 1e-12);
        assert!(a.max_deviation(&Trajectory::new(), 0, 10).is_err());
        assert!(a.max_deviation(&b, 0, 1).is_err());
    }

    #[test]
    fn non_overlapping_trajectories_rejected() {
        let a = ramp_trajectory();
        let mut b = Trajectory::new();
        b.push(10.0, DVector::zeros(2));
        b.push(11.0, DVector::zeros(2));
        assert!(a.max_deviation(&b, 0, 10).is_err());
    }
}
