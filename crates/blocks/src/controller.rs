//! The microcontroller digital process (Section III-D, Fig. 7 of the paper).
//!
//! The microcontroller is the purely digital part of the harvester: it needs no
//! state equations, only the control flow of Fig. 7, which this module encodes
//! as a [`Process`] for the `harvsim-digital` kernel:
//!
//! 1. a watchdog timer wakes the microcontroller periodically;
//! 2. it first checks whether enough energy is stored in the supercapacitor —
//!    if not, it goes straight back to sleep;
//! 3. if energy suffices, it measures the ambient vibration frequency and
//!    compares it with the microgenerator's present resonant frequency;
//! 4. if they differ by more than a tolerance it drives the linear actuator to
//!    move the tuning magnet until the resonance matches the ambient frequency,
//!    then sleeps again.
//!
//! The controller talks to the analogue world only through the
//! [`HarvesterEnvironment`] trait (supercapacitor voltage, ambient and resonant
//! frequency, load mode, resonance actuation), which the mixed-signal
//! co-simulation in `harvsim-core` implements on top of the state-space model.

use harvsim_digital::{Process, SimTime};

use crate::actuator::TuningActuator;
use crate::block::BlockError;
use crate::params::LoadMode;

/// The analogue-side quantities and knobs the digital controller can access.
pub trait HarvesterEnvironment {
    /// Present supercapacitor terminal voltage, in volts.
    fn supercapacitor_voltage(&self) -> f64;

    /// Present ambient vibration frequency, in hertz (what the frequency
    /// detector would measure).
    fn ambient_frequency_hz(&self) -> f64;

    /// Present resonant frequency of the microgenerator, in hertz.
    fn resonant_frequency_hz(&self) -> f64;

    /// Switches the equivalent load resistor mode (Eq. 16).
    fn set_load_mode(&mut self, mode: LoadMode);

    /// Applies a new resonant frequency (the actuator has moved the tuning
    /// magnet; the microgenerator's effective stiffness changes accordingly).
    fn set_resonant_frequency(&mut self, frequency_hz: f64);
}

/// Configuration of the controller's decision logic (the Fig. 7 duty cycle).
/// It is the only home of these settings: [`crate::HarvesterParameters`]
/// describes the plant and carries none of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Watchdog period, in seconds.
    pub watchdog_period_s: f64,
    /// Supercapacitor voltage that counts as "enough energy", in volts.
    pub energy_threshold_v: f64,
    /// Frequency mismatch below which no tuning is performed, in hertz.
    pub frequency_tolerance_hz: f64,
    /// How long the microcontroller stays awake measuring, in seconds.
    pub measurement_duration_s: f64,
    /// Actuator slew rate, in hertz of resonance shift per second.
    pub tuning_rate_hz_per_s: f64,
    /// How often the resonance is updated while the actuator moves, in seconds.
    pub tuning_update_interval_s: f64,
}

impl ControllerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), BlockError> {
        let positive: [(&'static str, f64); 4] = [
            ("watchdog_period_s", self.watchdog_period_s),
            ("energy_threshold_v", self.energy_threshold_v),
            ("tuning_rate_hz_per_s", self.tuning_rate_hz_per_s),
            ("tuning_update_interval_s", self.tuning_update_interval_s),
        ];
        for (name, value) in positive {
            if !(value > 0.0) || !value.is_finite() {
                return Err(BlockError::InvalidParameter {
                    name,
                    value,
                    constraint: "must be positive and finite",
                });
            }
        }
        if !(self.frequency_tolerance_hz >= 0.0) {
            return Err(BlockError::InvalidParameter {
                name: "frequency_tolerance_hz",
                value: self.frequency_tolerance_hz,
                constraint: "must be non-negative",
            });
        }
        if !(self.measurement_duration_s >= 0.0) || !self.measurement_duration_s.is_finite() {
            return Err(BlockError::InvalidParameter {
                name: "measurement_duration_s",
                value: self.measurement_duration_s,
                constraint: "must be non-negative and finite",
            });
        }
        Ok(())
    }
}

/// The controller's present phase in the Fig. 7 flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControllerState {
    /// Waiting for the watchdog; load resistor in sleep mode.
    #[default]
    Sleeping,
    /// Awake and measuring the ambient/resonant frequencies.
    Measuring,
    /// Driving the actuator; load resistor in tuning mode.
    Tuning,
}

/// Cumulative statistics of the controller's activity, used to validate the
/// duty-cycle behaviour in tests and to report tuning events in examples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Number of watchdog wake-ups handled.
    pub wakeups: usize,
    /// Number of wake-ups that found insufficient stored energy.
    pub skipped_low_energy: usize,
    /// Number of wake-ups that found the frequency already matched.
    pub skipped_frequency_match: usize,
    /// Number of tuning moves started.
    pub tunings_started: usize,
    /// Number of tuning moves completed.
    pub tunings_completed: usize,
}

/// The microcontroller process implementing the Fig. 7 control flow.
#[derive(Debug, Clone)]
pub struct MicroController {
    config: ControllerConfig,
    state: ControllerState,
    actuator: TuningActuator,
    stats: ControllerStats,
    /// Time of the last resume, used to advance the actuator while tuning.
    last_resume_s: f64,
}

impl MicroController {
    /// Creates the controller with its actuator parked at `initial_resonance_hz`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if the configuration or initial
    /// frequency is invalid.
    pub fn new(config: ControllerConfig, initial_resonance_hz: f64) -> Result<Self, BlockError> {
        config.validate()?;
        let actuator = TuningActuator::new(config.tuning_rate_hz_per_s, initial_resonance_hz)?;
        Ok(MicroController {
            config,
            state: ControllerState::Sleeping,
            actuator,
            stats: ControllerStats::default(),
            last_resume_s: 0.0,
        })
    }

    /// The controller's present phase.
    pub fn state(&self) -> ControllerState {
        self.state
    }

    /// Activity statistics accumulated so far.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The tuning actuator (read access for reporting).
    pub fn actuator(&self) -> &TuningActuator {
        &self.actuator
    }

    fn watchdog_wakeup(&self, now: SimTime) -> SimTime {
        now + SimTime::from_secs_f64(self.config.watchdog_period_s)
    }
}

impl<E: HarvesterEnvironment> Process<E> for MicroController {
    fn name(&self) -> &str {
        "microcontroller"
    }

    fn resume(&mut self, now: SimTime, env: &mut E) -> Option<SimTime> {
        let now_s = now.as_secs_f64();
        let elapsed = (now_s - self.last_resume_s).max(0.0);
        self.last_resume_s = now_s;

        match self.state {
            ControllerState::Sleeping => {
                // Watchdog fired: wake up and check the stored energy (Fig. 7).
                self.stats.wakeups += 1;
                if env.supercapacitor_voltage() < self.config.energy_threshold_v {
                    self.stats.skipped_low_energy += 1;
                    env.set_load_mode(LoadMode::Sleep);
                    return Some(self.watchdog_wakeup(now));
                }
                // Enough energy: stay awake to measure the frequencies.
                env.set_load_mode(LoadMode::McuAwake);
                self.state = ControllerState::Measuring;
                Some(now + SimTime::from_secs_f64(self.config.measurement_duration_s.max(1e-3)))
            }
            ControllerState::Measuring => {
                let ambient = env.ambient_frequency_hz();
                let resonant = env.resonant_frequency_hz();
                if (ambient - resonant).abs() <= self.config.frequency_tolerance_hz {
                    // Already matched: go back to sleep until the next watchdog.
                    self.stats.skipped_frequency_match += 1;
                    env.set_load_mode(LoadMode::Sleep);
                    self.state = ControllerState::Sleeping;
                    return Some(self.watchdog_wakeup(now));
                }
                // Start a tuning move towards the ambient frequency.
                self.stats.tunings_started += 1;
                self.actuator.command(ambient);
                env.set_load_mode(LoadMode::Tuning);
                self.state = ControllerState::Tuning;
                Some(now + SimTime::from_secs_f64(self.config.tuning_update_interval_s))
            }
            ControllerState::Tuning => {
                // Advance the actuator by the elapsed interval and push the new
                // resonance into the analogue model.
                let achieved = self.actuator.advance(elapsed);
                env.set_resonant_frequency(achieved);
                if self.actuator.is_moving() {
                    Some(now + SimTime::from_secs_f64(self.config.tuning_update_interval_s))
                } else {
                    // Move finished: release the actuator load and sleep.
                    self.stats.tunings_completed += 1;
                    env.set_load_mode(LoadMode::Sleep);
                    self.state = ControllerState::Sleeping;
                    Some(self.watchdog_wakeup(now))
                }
            }
        }
    }

    fn save_state(&self) -> Vec<u8> {
        // Fixed-layout little-endian blob; the leading tag lets a restore
        // into the wrong process type fail loudly instead of resuming with
        // garbage. The config and actuator rate are construction parameters
        // (covered by the checkpoint's rebuild section), so only the mutable
        // Fig. 7 flow state is captured here.
        let mut bytes = Vec::with_capacity(85);
        bytes.extend_from_slice(b"MCU1");
        bytes.push(match self.state {
            ControllerState::Sleeping => 0,
            ControllerState::Measuring => 1,
            ControllerState::Tuning => 2,
        });
        for count in [
            self.stats.wakeups,
            self.stats.skipped_low_energy,
            self.stats.skipped_frequency_match,
            self.stats.tunings_started,
            self.stats.tunings_completed,
        ] {
            bytes.extend_from_slice(&(count as u64).to_le_bytes());
        }
        bytes.extend_from_slice(&self.last_resume_s.to_bits().to_le_bytes());
        for value in
            [self.actuator.current_hz(), self.actuator.target_hz(), self.actuator.total_travel_hz()]
        {
            bytes.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&(self.actuator.completed_moves() as u64).to_le_bytes());
        bytes
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        if bytes.len() != 85 || &bytes[..4] != b"MCU1" {
            return false;
        }
        let u64_at = |offset: usize| {
            u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8-byte slice"))
        };
        let f64_at = |offset: usize| f64::from_bits(u64_at(offset));
        self.state = match bytes[4] {
            0 => ControllerState::Sleeping,
            1 => ControllerState::Measuring,
            2 => ControllerState::Tuning,
            _ => return false,
        };
        self.stats = ControllerStats {
            wakeups: u64_at(5) as usize,
            skipped_low_energy: u64_at(13) as usize,
            skipped_frequency_match: u64_at(21) as usize,
            tunings_started: u64_at(29) as usize,
            tunings_completed: u64_at(37) as usize,
        };
        self.last_resume_s = f64_at(45);
        self.actuator.restore(f64_at(53), f64_at(61), f64_at(69), u64_at(77) as usize);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvsim_digital::Kernel;

    /// A scripted analogue environment for controller unit tests.
    struct FakeEnvironment {
        supercap_v: f64,
        ambient_hz: f64,
        resonant_hz: f64,
        load_mode: LoadMode,
        load_history: Vec<LoadMode>,
    }

    impl FakeEnvironment {
        fn new(supercap_v: f64, ambient_hz: f64, resonant_hz: f64) -> Self {
            FakeEnvironment {
                supercap_v,
                ambient_hz,
                resonant_hz,
                load_mode: LoadMode::Sleep,
                load_history: Vec::new(),
            }
        }
    }

    impl HarvesterEnvironment for FakeEnvironment {
        fn supercapacitor_voltage(&self) -> f64 {
            self.supercap_v
        }
        fn ambient_frequency_hz(&self) -> f64 {
            self.ambient_hz
        }
        fn resonant_frequency_hz(&self) -> f64 {
            self.resonant_hz
        }
        fn set_load_mode(&mut self, mode: LoadMode) {
            self.load_mode = mode;
            self.load_history.push(mode);
        }
        fn set_resonant_frequency(&mut self, frequency_hz: f64) {
            self.resonant_hz = frequency_hz;
        }
    }

    fn config() -> ControllerConfig {
        ControllerConfig {
            watchdog_period_s: 10.0,
            energy_threshold_v: 2.2,
            frequency_tolerance_hz: 0.25,
            measurement_duration_s: 0.5,
            tuning_rate_hz_per_s: 2.0,
            tuning_update_interval_s: 0.05,
        }
    }

    fn run_for(env: &mut FakeEnvironment, controller: MicroController, seconds: u64) {
        let mut kernel: Kernel<FakeEnvironment> = Kernel::new();
        kernel.spawn_at(SimTime::from_secs_f64(config().watchdog_period_s), controller);
        kernel.run_until(SimTime::from_secs(seconds), env).unwrap();
    }

    #[test]
    fn configuration_validation() {
        assert!(config().validate().is_ok());
        let mut bad = config();
        bad.watchdog_period_s = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = config();
        bad.frequency_tolerance_hz = -1.0;
        assert!(bad.validate().is_err());
        for (tolerance, duration) in [(f64::NAN, 0.5), (0.5, f64::NAN), (0.5, f64::INFINITY)] {
            let mut bad = config();
            bad.frequency_tolerance_hz = tolerance;
            bad.measurement_duration_s = duration;
            assert!(bad.validate().is_err(), "tolerance {tolerance}, duration {duration}");
        }
        assert!(MicroController::new(config(), 0.0).is_err());
    }

    #[test]
    fn low_energy_wakeups_go_straight_back_to_sleep() {
        let controller = MicroController::new(config(), 70.0).unwrap();
        let mut env = FakeEnvironment::new(1.0, 71.0, 70.0); // below the 2.2 V threshold
        run_for(&mut env, controller, 100);
        // Every wake-up must have ended in sleep mode and never started tuning.
        assert_eq!(env.load_mode, LoadMode::Sleep);
        assert!(env.load_history.iter().all(|m| *m == LoadMode::Sleep));
        assert_eq!(env.resonant_hz, 70.0);
    }

    #[test]
    fn matched_frequency_skips_tuning() {
        let controller = MicroController::new(config(), 70.0).unwrap();
        let mut env = FakeEnvironment::new(3.0, 70.1, 70.0); // within 0.25 Hz tolerance
        run_for(&mut env, controller, 100);
        assert_eq!(env.resonant_hz, 70.0, "no tuning should have happened");
        // The controller woke up, measured (McuAwake) and went back to sleep.
        assert!(env.load_history.contains(&LoadMode::McuAwake));
        assert!(!env.load_history.contains(&LoadMode::Tuning));
        assert_eq!(env.load_mode, LoadMode::Sleep);
    }

    #[test]
    fn mismatch_with_enough_energy_triggers_a_complete_tuning_move() {
        let controller = MicroController::new(config(), 70.0).unwrap();
        let mut env = FakeEnvironment::new(3.0, 71.0, 70.0);
        run_for(&mut env, controller, 60);
        // The resonance must have been retuned to the ambient frequency.
        assert!((env.resonant_hz - 71.0).abs() < 1e-6, "resonance {}", env.resonant_hz);
        // The load went through awake and tuning modes and ended asleep.
        assert!(env.load_history.contains(&LoadMode::McuAwake));
        assert!(env.load_history.contains(&LoadMode::Tuning));
        assert_eq!(env.load_mode, LoadMode::Sleep);
    }

    #[test]
    fn wide_retune_takes_proportionally_longer() {
        // 14 Hz at 2 Hz/s = 7 s of tuning: after 3 s of tuning the resonance is
        // only part-way; after 60 s it has arrived.
        let mut kernel: Kernel<FakeEnvironment> = Kernel::new();
        let controller = MicroController::new(config(), 70.0).unwrap();
        kernel.spawn_at(SimTime::from_secs(10), controller);
        let mut env = FakeEnvironment::new(3.0, 84.0, 70.0);
        // Wake-up at 10 s, measurement done at 10.5 s, tuning 10.5 → 17.5 s.
        kernel.run_until(SimTime::from_secs_f64(14.0), &mut env).unwrap();
        assert!(env.resonant_hz > 70.5 && env.resonant_hz < 84.0, "mid-move {}", env.resonant_hz);
        kernel.run_until(SimTime::from_secs(60), &mut env).unwrap();
        assert!((env.resonant_hz - 84.0).abs() < 1e-6);
    }

    #[test]
    fn statistics_track_the_decision_path() {
        // Drive the controller directly (not through the kernel) to inspect stats.
        let mut controller = MicroController::new(config(), 70.0).unwrap();
        let mut env = FakeEnvironment::new(3.0, 71.0, 70.0);
        let t0 = SimTime::from_secs(10);
        let t1 = Process::<FakeEnvironment>::resume(&mut controller, t0, &mut env).unwrap();
        assert_eq!(controller.state(), ControllerState::Measuring);
        assert_eq!(controller.stats().wakeups, 1);
        let mut t = Process::<FakeEnvironment>::resume(&mut controller, t1, &mut env).unwrap();
        assert_eq!(controller.state(), ControllerState::Tuning);
        assert_eq!(controller.stats().tunings_started, 1);
        // Step the tuning phase until it completes.
        for _ in 0..200 {
            if controller.state() != ControllerState::Tuning {
                break;
            }
            t = Process::<FakeEnvironment>::resume(&mut controller, t, &mut env).unwrap();
        }
        assert_eq!(controller.state(), ControllerState::Sleeping);
        assert_eq!(controller.stats().tunings_completed, 1);
        assert!((controller.actuator().current_hz() - 71.0).abs() < 1e-9);
        assert_eq!(controller.config().watchdog_period_s, 10.0);
    }
}
