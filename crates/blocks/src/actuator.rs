//! The linear tuning actuator.
//!
//! The tuning mechanism of the practical harvester moves one of the two tuning
//! magnets along the beam axis with a linear actuator; the magnet gap sets the
//! axial tuning force and therefore the resonant frequency (Eq. 12). Because
//! the force–gap curve is characterised once (the design papers obtain it from
//! magnetostatic FEM), the actuator is modelled directly in the frequency
//! domain: it slews the *achieved* resonant frequency towards a target at a
//! finite rate, which is what determines the tuning duration and hence the
//! energy the tuning move costs.

use crate::block::BlockError;

/// The linear actuator that re-positions the tuning magnet.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningActuator {
    /// Slew rate of the achieved resonance, in hertz of shift per second.
    rate_hz_per_s: f64,
    /// Presently achieved resonant frequency, in hertz.
    current_hz: f64,
    /// Target resonant frequency, in hertz.
    target_hz: f64,
    /// Total actuator travel expressed in hertz of accumulated retuning.
    total_travel_hz: f64,
    /// Number of completed moves.
    completed_moves: usize,
}

impl TuningActuator {
    /// Creates an actuator currently parked at `initial_hz`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] for a non-positive rate or
    /// frequency.
    pub fn new(rate_hz_per_s: f64, initial_hz: f64) -> Result<Self, BlockError> {
        if !(rate_hz_per_s > 0.0) || !rate_hz_per_s.is_finite() {
            return Err(BlockError::InvalidParameter {
                name: "rate_hz_per_s",
                value: rate_hz_per_s,
                constraint: "must be positive and finite",
            });
        }
        if !(initial_hz > 0.0) || !initial_hz.is_finite() {
            return Err(BlockError::InvalidParameter {
                name: "initial_hz",
                value: initial_hz,
                constraint: "must be positive and finite",
            });
        }
        Ok(TuningActuator {
            rate_hz_per_s,
            current_hz: initial_hz,
            target_hz: initial_hz,
            total_travel_hz: 0.0,
            completed_moves: 0,
        })
    }

    /// The presently achieved resonant frequency, in hertz.
    pub fn current_hz(&self) -> f64 {
        self.current_hz
    }

    /// The target resonant frequency, in hertz.
    pub fn target_hz(&self) -> f64 {
        self.target_hz
    }

    /// Returns `true` while the actuator has not yet reached its target.
    pub fn is_moving(&self) -> bool {
        (self.target_hz - self.current_hz).abs() > 1e-9
    }

    /// Total accumulated travel, in hertz of retuning (a proxy for actuator
    /// wear and energy use across a long run).
    pub fn total_travel_hz(&self) -> f64 {
        self.total_travel_hz
    }

    /// Number of completed moves.
    pub fn completed_moves(&self) -> usize {
        self.completed_moves
    }

    /// Restores the actuator's mutable state from checkpoint values (the slew
    /// rate is a construction parameter and stays untouched). The values are
    /// installed bit-for-bit — no clamping — because a resumed run must
    /// continue exactly where the saved one stopped.
    pub fn restore(
        &mut self,
        current_hz: f64,
        target_hz: f64,
        total_travel_hz: f64,
        completed_moves: usize,
    ) {
        self.current_hz = current_hz;
        self.target_hz = target_hz;
        self.total_travel_hz = total_travel_hz;
        self.completed_moves = completed_moves;
    }

    /// Commands a new target frequency and returns the time the move will take
    /// at the configured rate, in seconds.
    pub fn command(&mut self, target_hz: f64) -> f64 {
        self.target_hz = target_hz.max(0.0);
        self.time_to_complete()
    }

    /// Remaining move time at the configured rate, in seconds.
    fn time_to_complete(&self) -> f64 {
        (self.target_hz - self.current_hz).abs() / self.rate_hz_per_s
    }

    /// Advances the actuator by `dt` seconds and returns the newly achieved
    /// frequency. The move saturates exactly at the target (no overshoot).
    pub fn advance(&mut self, dt: f64) -> f64 {
        if dt <= 0.0 || !self.is_moving() {
            return self.current_hz;
        }
        let direction = (self.target_hz - self.current_hz).signum();
        let step = (self.rate_hz_per_s * dt).min((self.target_hz - self.current_hz).abs());
        self.current_hz += direction * step;
        self.total_travel_hz += step;
        if !self.is_moving() {
            self.completed_moves += 1;
        }
        self.current_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(TuningActuator::new(0.0, 70.0).is_err());
        assert!(TuningActuator::new(2.0, 0.0).is_err());
        assert!(TuningActuator::new(2.0, 70.0).is_ok());
    }

    #[test]
    fn commanded_move_completes_at_the_configured_rate() {
        let mut a = TuningActuator::new(2.0, 70.0).unwrap();
        assert!(!a.is_moving());
        let duration = a.command(84.0);
        assert!((duration - 7.0).abs() < 1e-12, "14 Hz at 2 Hz/s takes 7 s");
        assert!(a.is_moving());
        assert_eq!(a.target_hz(), 84.0);

        a.advance(3.5);
        assert!((a.current_hz() - 77.0).abs() < 1e-9);
        assert!((a.time_to_complete() - 3.5).abs() < 1e-9);

        a.advance(10.0); // over-long step saturates exactly at the target
        assert!((a.current_hz() - 84.0).abs() < 1e-12);
        assert!(!a.is_moving());
        assert_eq!(a.completed_moves(), 1);
        assert!((a.total_travel_hz() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn downward_moves_work_too() {
        let mut a = TuningActuator::new(1.0, 84.0).unwrap();
        let duration = a.command(70.0);
        assert!((duration - 14.0).abs() < 1e-12);
        a.advance(7.0);
        assert!((a.current_hz() - 77.0).abs() < 1e-9);
        a.advance(7.0);
        assert!((a.current_hz() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn zero_or_negative_dt_is_a_no_op() {
        let mut a = TuningActuator::new(2.0, 70.0).unwrap();
        a.command(75.0);
        let before = a.current_hz();
        assert_eq!(a.advance(0.0), before);
        assert_eq!(a.advance(-1.0), before);
    }

    #[test]
    fn travel_accumulates_across_moves() {
        let mut a = TuningActuator::new(2.0, 70.0).unwrap();
        a.command(72.0);
        a.advance(100.0);
        a.command(71.0);
        a.advance(100.0);
        assert!((a.total_travel_hz() - 3.0).abs() < 1e-9);
        assert_eq!(a.completed_moves(), 2);
        assert_eq!(a.rate_hz_per_s, 2.0);
    }
}
