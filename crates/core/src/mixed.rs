//! The vocabulary of the mixed analogue/digital co-simulation: which
//! analogue engine a [`Session`] marches with, the work statistics it
//! accumulates and the digital control actions it applies to the blocks.
//! The co-simulation itself runs as a [`Session`]; checkpoints, the service
//! and the server record and report these types.
//!
//! [`Session`]: crate::session::Session

use harvsim_blocks::LoadMode;

use crate::baseline::{BaselineOptions, BaselineStats};
use crate::solver::{SolverOptions, SolverStats};

/// Which analogue engine drives a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimulationEngine {
    /// The proposed linearised state-space technique (explicit Adams–Bashforth).
    StateSpace(SolverOptions),
    /// The Newton–Raphson implicit baseline (stand-in for the commercial tools).
    NewtonRaphson(BaselineOptions),
}

impl SimulationEngine {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SimulationEngine::StateSpace(_) => "linearised-state-space",
            SimulationEngine::NewtonRaphson(_) => "newton-raphson-baseline",
        }
    }

    /// The engine's dense recording interval, in seconds: a
    /// [`crate::probe::WaveformProbe`] at this spacing captures exactly the
    /// decimated trajectories the engine's own recorder produces.
    pub fn record_interval(&self) -> f64 {
        match self {
            SimulationEngine::StateSpace(options) => options.record_interval,
            SimulationEngine::NewtonRaphson(options) => options.record_interval,
        }
    }
}

/// Analogue work statistics of a mixed-signal run (one of the two variants is
/// populated depending on the engine).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Statistics of the state-space engine (zeroed for baseline runs).
    pub state_space: SolverStats,
    /// Statistics of the Newton–Raphson baseline (zeroed for state-space runs).
    pub baseline: BaselineStats,
}

/// A record of one digital control action applied during the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlEvent {
    /// Simulation time of the action, in seconds.
    pub time_s: f64,
    /// Load mode in force after the action.
    pub load_mode: LoadMode,
    /// Resonant frequency in force after the action, in hertz.
    pub resonant_frequency_hz: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvester::TunableHarvester;
    use crate::probe::WaveformProbe;
    use crate::session::{Session, Simulation};
    use harvsim_blocks::{
        ControllerConfig, FrequencyProfile, HarvesterParameters, VibrationExcitation,
    };

    fn quick_solver_options() -> SolverOptions {
        SolverOptions { record_interval: 2e-3, ..Default::default() }
    }

    fn harvester(step_to_hz: f64, step_at: f64) -> TunableHarvester {
        let params = HarvesterParameters::practical_device();
        let excitation = VibrationExcitation::new(
            params.acceleration_amplitude,
            FrequencyProfile::Step { initial_hz: 70.0, final_hz: step_to_hz, step_time_s: step_at },
        )
        .unwrap();
        TunableHarvester::new(params, excitation).unwrap()
    }

    fn quick_controller_config() -> ControllerConfig {
        ControllerConfig {
            watchdog_period_s: 0.4,
            energy_threshold_v: 2.0,
            frequency_tolerance_hz: 0.25,
            measurement_duration_s: 0.05,
            tuning_rate_hz_per_s: 10.0,
            tuning_update_interval_s: 0.02,
        }
    }

    fn start(harvester: TunableHarvester, duration_s: f64, initial_v: f64) -> Session {
        let engine = SimulationEngine::StateSpace(quick_solver_options());
        Session::start(harvester, quick_controller_config(), engine, duration_s, initial_v).unwrap()
    }

    #[test]
    fn engine_names_and_validation() {
        let state_space = SimulationEngine::StateSpace(SolverOptions::default());
        assert_eq!(state_space.name(), "linearised-state-space");
        assert_eq!(state_space.record_interval(), SolverOptions::default().record_interval);
        let baseline = SimulationEngine::NewtonRaphson(BaselineOptions::default());
        assert_eq!(baseline.name(), "newton-raphson-baseline");
        assert_eq!(baseline.record_interval(), BaselineOptions::default().record_interval);
        let bad = SimulationEngine::StateSpace(SolverOptions { ab_order: 0, ..Default::default() });
        assert!(Simulation::scenario1().engine(bad).start().is_err());
    }

    #[test]
    fn rejects_non_positive_duration() {
        let engine = SimulationEngine::StateSpace(quick_solver_options());
        let started =
            Session::start(harvester(71.0, 0.1), quick_controller_config(), engine, 0.0, 2.4);
        assert!(started.is_err());
    }

    /// A short but complete closed-loop run: the ambient frequency steps from
    /// 70 Hz to 71 Hz, the controller wakes on its watchdog, finds enough energy
    /// and retunes the resonance to follow the ambient frequency.
    #[test]
    fn controller_retunes_the_resonance_in_closed_loop() {
        let mut session = start(harvester(71.0, 0.05), 1.6, 2.6);
        let capture = session.add_probe(WaveformProbe::new(2e-3));
        session.run_to_end().unwrap();
        let report = session.report();
        let h = session.harvester();
        // The resonance must have followed the ambient frequency.
        assert!(
            (h.resonant_frequency_hz() - 71.0).abs() < 0.2,
            "resonance ended at {}",
            h.resonant_frequency_hz()
        );
        // Control events were recorded and the kernel processed activity.
        assert!(!report.control_events.is_empty());
        assert!(report.digital_events > 0);
        assert!(report.engine_stats.state_space.steps > 100);
        // The run ends with the load back in sleep mode (tuning finished).
        assert_eq!(h.load_mode(), LoadMode::Sleep);
        // Trajectories cover the whole span on a common grid.
        let waveform = session.probe::<WaveformProbe>(capture).unwrap();
        assert!((waveform.states().last_time() - 1.6).abs() < 1e-6);
        assert_eq!(waveform.states().len(), waveform.terminals().len());
        assert!(report.final_state.is_finite());
    }

    #[test]
    fn low_energy_prevents_tuning() {
        // Start with the supercapacitor nearly empty: the controller must skip tuning.
        let mut session = start(harvester(71.0, 0.05), 1.0, 0.5);
        session.run_to_end().unwrap();
        assert!((session.harvester().resonant_frequency_hz() - 70.0).abs() < 1e-9);
        // The only control action (if any) is the load returning to sleep.
        let report = session.report();
        assert!(report.control_events.iter().all(|event| event.load_mode == LoadMode::Sleep));
    }
}
