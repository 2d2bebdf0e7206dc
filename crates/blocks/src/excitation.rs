//! Ambient vibration excitation profiles.
//!
//! The harvester is driven by base acceleration `a(t)`; the input force on the
//! proof mass is `F_a = m·a(t)` (Eq. 8). The paper's two evaluation scenarios
//! step the ambient frequency (70 → 71 Hz and 70 → 84 Hz) while keeping the
//! amplitude constant.

use crate::block::BlockError;

/// Time profile of the ambient vibration frequency.
#[derive(Debug, Clone, PartialEq)]
pub enum FrequencyProfile {
    /// Constant frequency for the whole run.
    Constant {
        /// Frequency in hertz.
        frequency_hz: f64,
    },
    /// A step change at `step_time_s`, as used by the paper's two scenarios.
    Step {
        /// Frequency before the step, in hertz.
        initial_hz: f64,
        /// Frequency after the step, in hertz.
        final_hz: f64,
        /// Time of the step, in seconds.
        step_time_s: f64,
    },
}

impl FrequencyProfile {
    /// The instantaneous frequency at time `t` (seconds), in hertz.
    pub fn frequency_at(&self, t: f64) -> f64 {
        match *self {
            FrequencyProfile::Constant { frequency_hz } => frequency_hz,
            FrequencyProfile::Step { initial_hz, final_hz, step_time_s } => {
                if t < step_time_s {
                    initial_hz
                } else {
                    final_hz
                }
            }
        }
    }

    /// Validates the profile (positive frequencies, a non-negative finite
    /// step time).
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), BlockError> {
        let check_positive = |name: &'static str, value: f64| {
            if value > 0.0 && value.is_finite() {
                Ok(())
            } else {
                Err(BlockError::InvalidParameter { name, value, constraint: "must be positive" })
            }
        };
        match *self {
            FrequencyProfile::Constant { frequency_hz } => {
                check_positive("frequency_hz", frequency_hz)
            }
            FrequencyProfile::Step { initial_hz, final_hz, step_time_s } => {
                check_positive("initial_hz", initial_hz)?;
                check_positive("final_hz", final_hz)?;
                if !(step_time_s >= 0.0) || !step_time_s.is_finite() {
                    return Err(BlockError::InvalidParameter {
                        name: "step_time_s",
                        value: step_time_s,
                        constraint: "must be non-negative and finite",
                    });
                }
                Ok(())
            }
        }
    }
}

/// Sinusoidal base-acceleration excitation with a time-varying frequency.
///
/// The acceleration is `a(t) = A·sin(φ(t))` with the phase accumulated from
/// the instantaneous frequency, `φ̇ = 2π·f(t)`, so that a frequency step
/// produces a continuous waveform (no phase jump), matching how a real shaker
/// behaves.
#[derive(Debug, Clone)]
pub struct VibrationExcitation {
    amplitude: f64,
    profile: FrequencyProfile,
}

impl VibrationExcitation {
    /// Creates an excitation with acceleration amplitude `amplitude` (m/s²) and
    /// the given frequency profile.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] for a non-positive amplitude or
    /// an invalid profile.
    pub fn new(amplitude: f64, profile: FrequencyProfile) -> Result<Self, BlockError> {
        if !(amplitude > 0.0) || !amplitude.is_finite() {
            return Err(BlockError::InvalidParameter {
                name: "amplitude",
                value: amplitude,
                constraint: "must be positive and finite",
            });
        }
        profile.validate()?;
        Ok(VibrationExcitation { amplitude, profile })
    }

    /// The acceleration amplitude in m/s².
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// The frequency profile.
    pub fn profile(&self) -> &FrequencyProfile {
        &self.profile
    }

    /// Instantaneous ambient frequency at time `t`, in hertz. The paper's
    /// microcontroller "detects the ambient vibration frequency"; the controller
    /// model reads it through this accessor.
    pub fn frequency_at(&self, t: f64) -> f64 {
        self.profile.frequency_at(t)
    }

    /// Accumulated phase `φ(t) = 2π ∫₀ᵗ f(τ) dτ`, computed analytically for
    /// the supported profiles.
    fn phase_at(&self, t: f64) -> f64 {
        let two_pi = 2.0 * std::f64::consts::PI;
        let integral = match self.profile {
            FrequencyProfile::Constant { frequency_hz } => frequency_hz * t,
            FrequencyProfile::Step { initial_hz, final_hz, step_time_s } => {
                if t <= step_time_s {
                    initial_hz * t
                } else {
                    initial_hz * step_time_s + final_hz * (t - step_time_s)
                }
            }
        };
        two_pi * integral
    }

    /// Base acceleration `a(t)` in m/s².
    fn acceleration_at(&self, t: f64) -> f64 {
        self.amplitude * self.phase_at(t).sin()
    }

    /// Inertial force `F_a = m·a(t)` applied to a proof mass of `mass` kilograms.
    pub fn force_at(&self, t: f64, mass: f64) -> f64 {
        mass * self.acceleration_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile() {
        let p = FrequencyProfile::Constant { frequency_hz: 70.0 };
        assert!(p.validate().is_ok());
        assert_eq!(p.frequency_at(0.0), 70.0);
        assert_eq!(p.frequency_at(1e6), 70.0);
        assert!(FrequencyProfile::Constant { frequency_hz: 0.0 }.validate().is_err());
    }

    #[test]
    fn step_profile_matches_scenarios() {
        let p = FrequencyProfile::Step { initial_hz: 70.0, final_hz: 71.0, step_time_s: 10.0 };
        assert!(p.validate().is_ok());
        assert_eq!(p.frequency_at(9.999), 70.0);
        assert_eq!(p.frequency_at(10.0), 71.0);
        assert!(FrequencyProfile::Step { initial_hz: 70.0, final_hz: 71.0, step_time_s: -1.0 }
            .validate()
            .is_err());
    }

    #[test]
    fn excitation_validation() {
        let profile = FrequencyProfile::Constant { frequency_hz: 70.0 };
        assert!(VibrationExcitation::new(0.0, profile.clone()).is_err());
        assert!(VibrationExcitation::new(0.6, profile).is_ok());
        for step_time_s in [-1.0, f64::NAN, f64::INFINITY] {
            let step = FrequencyProfile::Step { initial_hz: 70.0, final_hz: 84.0, step_time_s };
            assert!(VibrationExcitation::new(0.6, step).is_err(), "step time {step_time_s}");
        }
    }

    #[test]
    fn acceleration_is_sinusoidal_with_correct_amplitude_and_period() {
        let e = VibrationExcitation::new(0.6, FrequencyProfile::Constant { frequency_hz: 70.0 })
            .unwrap();
        assert_eq!(e.amplitude(), 0.6);
        assert_eq!(e.frequency_at(0.0), 70.0);
        // Peak near a quarter period.
        let quarter = 0.25 / 70.0;
        assert!((e.acceleration_at(quarter) - 0.6).abs() < 1e-6);
        // Zero crossing at half period.
        assert!(e.acceleration_at(0.5 / 70.0).abs() < 1e-6);
        // Force scales with mass.
        assert!((e.force_at(quarter, 0.02) - 0.012).abs() < 1e-6);
    }

    #[test]
    fn phase_is_continuous_across_a_frequency_step() {
        let e = VibrationExcitation::new(
            0.6,
            FrequencyProfile::Step { initial_hz: 70.0, final_hz: 84.0, step_time_s: 1.0 },
        )
        .unwrap();
        let before = e.phase_at(1.0 - 1e-9);
        let after = e.phase_at(1.0 + 1e-9);
        assert!((after - before).abs() < 1e-5, "phase jump {}", after - before);
        // Well after the step the frequency is 84 Hz: phase slope check.
        let slope = (e.phase_at(2.0 + 1e-4) - e.phase_at(2.0)) / 1e-4;
        assert!((slope - 2.0 * std::f64::consts::PI * 84.0).abs() < 1.0);
    }
}
