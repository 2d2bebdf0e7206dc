//! The paper's evaluation scenarios (Section IV).
//!
//! * **Scenario 1** — narrow tuning: the ambient frequency steps from 70 Hz to
//!   71 Hz and the harvester retunes by 1 Hz.
//! * **Scenario 2** — wide tuning: the ambient frequency steps by 14 Hz (the
//!   maximum tuning range of the design, 70 → 84 Hz).
//!
//! A [`ScenarioConfig`] bundles the parameter set, the excitation profile, the
//! controller configuration and the analogue engine; a
//! [`crate::session::Simulation`] built from it runs the closed-loop
//! mixed-signal simulation. [`ScenarioConfig::experimental_surrogate`]
//! produces the stand-in for the paper's measured curves (see DESIGN.md §3):
//! the same scenario with parasitic losses and small parameter perturbations
//! that the nominal model does not include, mimicking the systematic
//! differences between the HDL model and the physical device that the paper
//! itself points out.

use harvsim_blocks::{
    ControllerConfig, FrequencyProfile, HarvesterParameters, Scenario, VibrationExcitation,
};

use crate::session::SimulationEngine;
use crate::solver::SolverOptions;
use crate::{CoreError, TunableHarvester};

/// A complete, runnable description of one evaluation scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Which of the paper's two scenarios this is.
    pub scenario: Scenario,
    /// Total simulated time, in seconds. The paper simulates long
    /// supercapacitor-charging spans; the default here is shortened so the
    /// examples and benches run in seconds — the waveform shapes and the
    /// relative CPU-time comparison are unaffected (see DESIGN.md §4).
    pub duration_s: f64,
    /// Time at which the ambient frequency steps, in seconds.
    pub frequency_step_time_s: f64,
    /// Initial supercapacitor voltage, in volts.
    pub initial_supercap_voltage: f64,
    /// Harvester parameter set.
    pub parameters: HarvesterParameters,
    /// Controller configuration (watchdog period, thresholds, actuator rate).
    pub controller: ControllerConfig,
    /// Analogue engine used for the run.
    pub engine: SimulationEngine,
    /// Optional human-readable label. [`ScenarioConfig::sweep`] stamps each
    /// expanded point with its `param=value` path, and the explorer carries
    /// the label into error attribution
    /// ([`CoreError::Scenario`]) so a failed grid point is identifiable
    /// without positional bookkeeping.
    pub label: Option<String>,
}

impl ScenarioConfig {
    fn base(scenario: Scenario) -> Self {
        let parameters = HarvesterParameters::practical_device();
        let controller = ControllerConfig {
            watchdog_period_s: 2.0,
            energy_threshold_v: 2.2,
            frequency_tolerance_hz: 0.25,
            measurement_duration_s: 0.2,
            tuning_rate_hz_per_s: 2.0,
            tuning_update_interval_s: 0.05,
        };
        ScenarioConfig {
            scenario,
            duration_s: 12.0,
            frequency_step_time_s: 1.0,
            initial_supercap_voltage: 2.5,
            parameters,
            controller,
            engine: SimulationEngine::StateSpace(SolverOptions::default()),
            label: None,
        }
    }

    /// The label errors and sweep rows identify this configuration by:
    /// the explicit [`ScenarioConfig::label`] when set, the scenario id
    /// otherwise.
    pub fn effective_label(&self) -> String {
        self.label.clone().unwrap_or_else(|| self.scenario.id().to_string())
    }

    /// Sets the label carried into sweep rows and error attribution.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Scenario 1 (70 → 71 Hz) with default, quick-running settings.
    pub fn scenario1() -> Self {
        Self::base(Scenario::NarrowTuning)
    }

    /// Scenario 2 (70 → 84 Hz) with default, quick-running settings. The wider
    /// retune takes the actuator 7 s at the default 2 Hz/s rate, so the default
    /// duration is longer than Scenario 1's.
    pub fn scenario2() -> Self {
        let mut config = Self::base(Scenario::WideTuning);
        config.duration_s = 16.0;
        config
    }

    /// Switches the analogue engine.
    pub fn with_engine(mut self, engine: SimulationEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for inconsistent values.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.duration_s > 0.0) {
            return Err(CoreError::InvalidConfiguration("duration must be positive".into()));
        }
        if !(self.frequency_step_time_s >= 0.0 && self.frequency_step_time_s < self.duration_s) {
            return Err(CoreError::InvalidConfiguration(
                "the frequency step must occur inside the simulated span".into(),
            ));
        }
        if !(self.initial_supercap_voltage >= 0.0) {
            return Err(CoreError::InvalidConfiguration(
                "initial supercapacitor voltage must be non-negative".into(),
            ));
        }
        self.parameters.validate()?;
        self.controller.validate()?;
        Ok(())
    }

    /// Builds the harvester model for this scenario (step excitation profile).
    ///
    /// # Errors
    ///
    /// Propagates parameter and assembly failures.
    pub fn build_harvester(&self) -> Result<TunableHarvester, CoreError> {
        let excitation = VibrationExcitation::new(
            self.parameters.acceleration_amplitude,
            FrequencyProfile::Step {
                initial_hz: self.scenario.initial_frequency_hz(),
                final_hz: self.scenario.target_frequency_hz(),
                step_time_s: self.frequency_step_time_s,
            },
        )?;
        TunableHarvester::new(self.parameters.clone(), excitation)
    }

    /// The "experimental" surrogate configuration of this scenario: the same
    /// run with parasitic leakage across the store (a 20 kΩ sleep-mode load
    /// instead of 1 GΩ), 10 % extra mechanical damping and 3 % weaker
    /// transduction — loss mechanisms the nominal HDL-style model omits,
    /// exactly the kind of discrepancy the paper attributes its
    /// simulation/measurement differences to. The surrogate acts as the
    /// measured curve in the Fig. 8(b)/Fig. 9 reproductions.
    pub fn experimental_surrogate(&self) -> ScenarioConfig {
        let mut surrogate = self.clone();
        surrogate.parameters.load_sleep_ohms = 2.0e4;
        surrogate.parameters.parasitic_damping *= 1.10;
        surrogate.parameters.flux_linkage *= 0.97;
        surrogate
    }

    /// Expands this configuration into one clone per value of `param` — the
    /// grid-building step of a parameter sweep. [`SweepGrid`] chains calls
    /// into the full cross product, which the [`crate::explore::Explorer`]
    /// (or any session loop) runs point by point.
    pub fn sweep(&self, param: SweepParameter, values: &[f64]) -> Vec<ScenarioConfig> {
        values
            .iter()
            .map(|&value| {
                let mut point = self.clone();
                param.apply(&mut point, value);
                // Chained sweeps build up the full `scenario+p1=v1+p2=v2`
                // path, so every grid point is identifiable in errors and
                // sweep records without positional bookkeeping.
                point.label =
                    Some(format!("{}+{}={value:e}", self.effective_label(), param.label()));
                point
            })
            .collect()
    }
}

/// A declarative cross-product sweep grid: a base configuration plus an
/// ordered list of axes, expanded row-major (the **last** axis varies
/// fastest). This replaces the hand-rolled `flat_map` chains previously
/// duplicated at every sweep call site; `repro table2 --sweep` and the
/// design-space [`crate::explore::Explorer`] both build their grids here, so
/// the `scenario+p1=v1+p2=v2` label path is pinned in exactly one place.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    base: ScenarioConfig,
    axes: Vec<(SweepParameter, Vec<f64>)>,
}

impl SweepGrid {
    /// Starts a grid over `base` with no axes (a single point: `base` itself).
    pub fn new(base: ScenarioConfig) -> Self {
        SweepGrid { base, axes: Vec::new() }
    }

    /// Appends an axis. Axes expand in insertion order, so the axis added
    /// last is the innermost (fastest-varying) one.
    pub fn axis(mut self, param: SweepParameter, values: &[f64]) -> Self {
        self.axes.push((param, values.to_vec()));
        self
    }

    /// The base configuration every point is derived from.
    pub fn base(&self) -> &ScenarioConfig {
        &self.base
    }

    /// The axes in expansion order (last = innermost).
    pub fn axes(&self) -> &[(SweepParameter, Vec<f64>)] {
        &self.axes
    }

    /// Number of points in the full cross product (`1` for an axis-free
    /// grid, `0` if any axis is empty).
    pub fn len(&self) -> usize {
        self.axes.iter().map(|(_, values)| values.len()).product()
    }

    /// Whether the cross product is empty (some axis has no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the full cross product, row-major with the last axis varying
    /// fastest. Every point's label is its `scenario+p1=v1+p2=v2` path,
    /// produced by chaining [`ScenarioConfig::sweep`] per axis — the same
    /// labels a hand-rolled `flat_map` chain over `sweep` produces.
    pub fn expand(&self) -> Vec<ScenarioConfig> {
        let mut points = vec![self.base.clone()];
        for (param, values) in &self.axes {
            points = points.iter().flat_map(|point| point.sweep(*param, values)).collect();
        }
        points
    }
}

/// Scenario parameter swept by [`ScenarioConfig::sweep`] — the design axes
/// the roadmap's many-scenario studies move along: load/excitation/pre-charge
/// plus the topology and controller axes the design-space explorer
/// ([`crate::explore`]) cross-products over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepParameter {
    /// Sleep-mode equivalent load resistance, in ohms (the leakage axis: 1 GΩ
    /// nominal, 20 kΩ for the experimental surrogate).
    SleepLoadOhms,
    /// Ambient vibration acceleration amplitude, in m/s² (the excitation
    /// axis).
    AccelerationAmplitude,
    /// Initial supercapacitor pre-charge, in volts (the stored-energy axis).
    InitialSupercapVoltage,
    /// Dickson multiplier stage count (the topology axis). Values are rounded
    /// to the nearest integer; non-positive values round to zero and are then
    /// rejected by [`ScenarioConfig::validate`], surfacing as an attributed
    /// per-point failure rather than a panic.
    MultiplierStages,
    /// Supercapacitor storage sizing, as a multiplicative scale applied to
    /// all four branch capacitances (`C_i0`, `C_i1`, `C_d`, `C_l`) of the
    /// configuration being expanded — `1.0` keeps the base sizing, `250`
    /// turns the practical 2.2 mF device into the paper-scale 0.55 F one.
    StorageScale,
    /// Number of segments in the diode piecewise-linear lookup tables (the
    /// accuracy/speed granularity axis). Rounded like
    /// [`SweepParameter::MultiplierStages`]; values below 2 fail validation
    /// per point.
    PwlSegments,
    /// Digital duty-cycle period: the microcontroller's watchdog wake-up
    /// interval, in seconds (applied to both the controller configuration and
    /// the parameter set so the two stay consistent).
    WatchdogPeriod,
}

impl SweepParameter {
    /// Short label used in sweep row names (`load`, `acc`, `v0`, `stages`,
    /// `store`, `pwl`, `wdt`).
    pub fn label(&self) -> &'static str {
        match self {
            SweepParameter::SleepLoadOhms => "load",
            SweepParameter::AccelerationAmplitude => "acc",
            SweepParameter::InitialSupercapVoltage => "v0",
            SweepParameter::MultiplierStages => "stages",
            SweepParameter::StorageScale => "store",
            SweepParameter::PwlSegments => "pwl",
            SweepParameter::WatchdogPeriod => "wdt",
        }
    }

    /// The inverse of [`SweepParameter::label`], for CLI axis flags.
    pub fn from_label(label: &str) -> Option<SweepParameter> {
        match label {
            "load" => Some(SweepParameter::SleepLoadOhms),
            "acc" => Some(SweepParameter::AccelerationAmplitude),
            "v0" => Some(SweepParameter::InitialSupercapVoltage),
            "stages" => Some(SweepParameter::MultiplierStages),
            "store" => Some(SweepParameter::StorageScale),
            "pwl" => Some(SweepParameter::PwlSegments),
            "wdt" => Some(SweepParameter::WatchdogPeriod),
            _ => None,
        }
    }

    /// Writes `value` into the field(s) this axis controls. Integer-valued
    /// axes round; out-of-range results are left for
    /// [`ScenarioConfig::validate`] to reject per point, so a bad axis value
    /// becomes an attributed failure row instead of aborting the grid.
    pub fn apply(&self, config: &mut ScenarioConfig, value: f64) {
        match self {
            SweepParameter::SleepLoadOhms => config.parameters.load_sleep_ohms = value,
            SweepParameter::AccelerationAmplitude => {
                config.parameters.acceleration_amplitude = value;
            }
            SweepParameter::InitialSupercapVoltage => config.initial_supercap_voltage = value,
            SweepParameter::MultiplierStages => {
                config.parameters.multiplier_stages = value.round().max(0.0) as usize;
            }
            SweepParameter::StorageScale => {
                config.parameters.supercap_ci0 *= value;
                config.parameters.supercap_ci1 *= value;
                config.parameters.supercap_cd *= value;
                config.parameters.supercap_cl *= value;
            }
            SweepParameter::PwlSegments => {
                config.parameters.diode_table_segments = value.round().max(0.0) as usize;
            }
            SweepParameter::WatchdogPeriod => {
                config.controller.watchdog_period_s = value;
                config.parameters.watchdog_period_s = value;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::WaveformProbe;
    use crate::session::Simulation;

    #[test]
    fn default_configurations_are_valid_and_match_the_paper() {
        let s1 = ScenarioConfig::scenario1();
        assert!(s1.validate().is_ok());
        assert_eq!(s1.scenario.frequency_shift_hz(), 1.0);
        let s2 = ScenarioConfig::scenario2();
        assert!(s2.validate().is_ok());
        assert_eq!(s2.scenario.frequency_shift_hz(), 14.0);
        assert!(s2.duration_s > s1.duration_s);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut config = ScenarioConfig::scenario1();
        config.duration_s = 0.0;
        assert!(config.validate().is_err());
        let mut config = ScenarioConfig::scenario1();
        config.frequency_step_time_s = 100.0;
        assert!(config.validate().is_err());
        let mut config = ScenarioConfig::scenario1();
        config.initial_supercap_voltage = -1.0;
        assert!(config.validate().is_err());
        config.initial_supercap_voltage = f64::NAN;
        assert!(config.validate().is_err());
        let mut config = ScenarioConfig::scenario1();
        config.controller.frequency_tolerance_hz = f64::NAN;
        assert!(config.validate().is_err());
        let mut config = ScenarioConfig::scenario1();
        config.controller.measurement_duration_s = f64::NAN;
        assert!(config.validate().is_err());
        let mut config = ScenarioConfig::scenario1();
        config.parameters.measurement_duration_s = f64::NAN;
        assert!(config.validate().is_err());
    }

    #[test]
    fn build_harvester_uses_the_step_profile() {
        let config = ScenarioConfig::scenario2();
        let harvester = config.build_harvester().unwrap();
        assert_eq!(harvester.ambient_frequency_hz(0.0), 70.0);
        assert_eq!(harvester.ambient_frequency_hz(config.frequency_step_time_s + 1.0), 84.0);
    }

    /// Sweep expansion produces one configuration per value with only the
    /// swept parameter changed, and chained sweeps build the cross product.
    #[test]
    fn sweep_expands_the_parameter_grid() {
        let base = ScenarioConfig::scenario1();
        let loads = base.sweep(SweepParameter::SleepLoadOhms, &[1.0e9, 2.0e4]);
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].parameters.load_sleep_ohms, 1.0e9);
        assert_eq!(loads[1].parameters.load_sleep_ohms, 2.0e4);
        assert_eq!(
            loads[1].parameters.acceleration_amplitude,
            base.parameters.acceleration_amplitude
        );
        assert_eq!(loads[1].duration_s, base.duration_s);

        let grid: Vec<ScenarioConfig> = loads
            .iter()
            .flat_map(|point| point.sweep(SweepParameter::AccelerationAmplitude, &[0.4, 0.6, 0.8]))
            .collect();
        assert_eq!(grid.len(), 6);
        assert_eq!(grid[5].parameters.load_sleep_ohms, 2.0e4);
        assert_eq!(grid[5].parameters.acceleration_amplitude, 0.8);

        let precharges = base.sweep(SweepParameter::InitialSupercapVoltage, &[2.0, 2.6]);
        assert_eq!(precharges[0].initial_supercap_voltage, 2.0);
        assert_eq!(precharges[1].initial_supercap_voltage, 2.6);
        for point in &grid {
            assert!(point.validate().is_ok());
        }
        assert_eq!(SweepParameter::SleepLoadOhms.label(), "load");
        assert_eq!(SweepParameter::AccelerationAmplitude.label(), "acc");
        assert_eq!(SweepParameter::InitialSupercapVoltage.label(), "v0");
    }

    /// The `SweepGrid` builder must reproduce the hand-rolled `flat_map`
    /// cross product exactly, including the pinned `scenario+p1=v1+p2=v2`
    /// label path (regression pin for the sweep-label wire format: stored
    /// explore rows and error attributions carry these strings).
    #[test]
    fn sweep_grid_builder_pins_labels_and_cross_product() {
        let base = ScenarioConfig::scenario1().with_label("sweep");
        let grid = SweepGrid::new(base.clone())
            .axis(SweepParameter::SleepLoadOhms, &[1.0e9, 2.0e4])
            .axis(SweepParameter::AccelerationAmplitude, &[0.4, 0.6, 0.8]);
        assert_eq!(grid.len(), 6);
        assert!(!grid.is_empty());
        assert_eq!(grid.axes().len(), 2);
        let points = grid.expand();
        assert_eq!(points.len(), 6);

        // Bit-identical to the chained flat_map expansion it replaces.
        let reference: Vec<ScenarioConfig> = base
            .sweep(SweepParameter::SleepLoadOhms, &[1.0e9, 2.0e4])
            .iter()
            .flat_map(|point| point.sweep(SweepParameter::AccelerationAmplitude, &[0.4, 0.6, 0.8]))
            .collect();
        for (point, expected) in points.iter().zip(&reference) {
            assert_eq!(point.label, expected.label);
            assert_eq!(point.parameters.load_sleep_ohms, expected.parameters.load_sleep_ohms);
            assert_eq!(
                point.parameters.acceleration_amplitude,
                expected.parameters.acceleration_amplitude
            );
        }
        // The pinned label format, spelled out for the innermost-fastest
        // row-major order: last axis varies fastest.
        assert_eq!(points[0].label.as_deref(), Some("sweep+load=1e9+acc=4e-1"));
        assert_eq!(points[1].label.as_deref(), Some("sweep+load=1e9+acc=6e-1"));
        assert_eq!(points[5].label.as_deref(), Some("sweep+load=2e4+acc=8e-1"));

        // An axis-free grid is the base point itself; an empty axis empties
        // the product.
        assert_eq!(SweepGrid::new(base.clone()).expand().len(), 1);
        let empty = SweepGrid::new(base).axis(SweepParameter::PwlSegments, &[]);
        assert!(empty.is_empty());
        assert!(empty.expand().is_empty());
    }

    /// The explorer's new design axes write the fields they advertise and
    /// round-trip through `from_label`.
    #[test]
    fn extended_sweep_axes_apply_their_fields() {
        let base = ScenarioConfig::scenario1();
        let stages = base.sweep(SweepParameter::MultiplierStages, &[3.0]);
        assert_eq!(stages[0].parameters.multiplier_stages, 3);
        assert_eq!(stages[0].label.as_deref(), Some("scenario1+stages=3e0"));

        let scaled = base.sweep(SweepParameter::StorageScale, &[250.0]);
        assert!((scaled[0].parameters.supercap_ci0 - 0.55).abs() < 1e-12);
        assert!((scaled[0].parameters.supercap_cd - 0.125).abs() < 1e-12);

        let pwl = base.sweep(SweepParameter::PwlSegments, &[300.0]);
        assert_eq!(pwl[0].parameters.diode_table_segments, 300);

        let wdt = base.sweep(SweepParameter::WatchdogPeriod, &[0.75]);
        assert_eq!(wdt[0].controller.watchdog_period_s, 0.75);
        assert_eq!(wdt[0].parameters.watchdog_period_s, 0.75);

        // A non-positive stage count survives `apply` (rounds to zero) and is
        // rejected by validation — the attributed-failure path of the grid.
        let bad = base.sweep(SweepParameter::MultiplierStages, &[-1.0]);
        assert_eq!(bad[0].parameters.multiplier_stages, 0);
        assert!(bad[0].validate().is_err());

        for param in [
            SweepParameter::SleepLoadOhms,
            SweepParameter::AccelerationAmplitude,
            SweepParameter::InitialSupercapVoltage,
            SweepParameter::MultiplierStages,
            SweepParameter::StorageScale,
            SweepParameter::PwlSegments,
            SweepParameter::WatchdogPeriod,
        ] {
            assert_eq!(SweepParameter::from_label(param.label()), Some(param));
        }
        assert_eq!(SweepParameter::from_label("nonsense"), None);
    }

    #[test]
    fn short_scenario_run_produces_waveforms() {
        let mut config = ScenarioConfig::scenario1();
        config.duration_s = 0.3;
        config.frequency_step_time_s = 0.1;
        // The surrogate drains faster (leakage) but still runs.
        for config in [config.clone(), config.experimental_surrogate()] {
            let mut session = Simulation::from_config(config.clone()).start().unwrap();
            let capture = session.add_probe(WaveformProbe::new(config.engine.record_interval()));
            session.run_to_end().unwrap();
            let states = session.probe::<WaveformProbe>(capture).unwrap().states();
            assert!(states.len() > 10);
            assert!((states.last_time() - 0.3).abs() < 1e-6);
            assert!(session.report().final_state.is_finite());
        }
        assert_eq!(
            ScenarioConfig::scenario1().with_engine(config.engine).engine.name(),
            "linearised-state-space"
        );
    }
}
