//! Parameter sets for the practical tunable energy harvester.
//!
//! The case study of the paper is the autonomous tunable electromagnetic
//! harvester of Ayala-Garcia et al. (PowerMEMS 2009) / Zhu et al. (Sensors and
//! Actuators A, 2010): a cantilever with a four-magnet proof mass, an untuned
//! resonance close to 70 Hz, a magnetic tuning mechanism with a ±14 Hz range, a
//! 5-stage Dickson voltage multiplier, a supercapacitor store, and a
//! microcontroller-driven linear actuator. Exact component values are not
//! tabulated in the paper, so the defaults below are chosen to reproduce the
//! published operating point: ≈110–120 µW RMS generated power at 70 Hz under
//! ≈0.06 g ambient acceleration, an open-circuit EMF of a couple of volts, and
//! the load currents of Eq. 16. `repro fig8a`, `fig8b` and `fig9` print how
//! the resulting waveforms compare to the paper's figures.

use crate::block::BlockError;

/// Operating mode of the equivalent load resistor `Req` (Eq. 16 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LoadMode {
    /// Microcontroller asleep: `Req = 1 GΩ` (essentially no load).
    #[default]
    Sleep,
    /// Microcontroller awake (measuring / deciding): `Req = 33 Ω`.
    McuAwake,
    /// Actuator performing a tuning move: `Req = 16.7 Ω`.
    Tuning,
}

impl LoadMode {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            LoadMode::Sleep => "sleep",
            LoadMode::McuAwake => "mcu-awake",
            LoadMode::Tuning => "tuning",
        }
    }
}

/// The two evaluation scenarios of Section IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Scenario 1 — narrow tuning range: the ambient frequency shifts from
    /// 70 Hz to 71 Hz (1 Hz retune).
    NarrowTuning,
    /// Scenario 2 — wide tuning range: the ambient frequency shifts by 14 Hz,
    /// the maximum tuning range of the design (70 Hz → 84 Hz).
    WideTuning,
}

impl Scenario {
    /// The ambient frequency before the shift, in hertz.
    pub fn initial_frequency_hz(&self) -> f64 {
        70.0
    }

    /// The ambient frequency after the shift, in hertz.
    pub fn target_frequency_hz(&self) -> f64 {
        match self {
            Scenario::NarrowTuning => 71.0,
            Scenario::WideTuning => 84.0,
        }
    }

    /// The magnitude of the frequency shift, in hertz.
    pub fn frequency_shift_hz(&self) -> f64 {
        self.target_frequency_hz() - self.initial_frequency_hz()
    }

    /// Short identifier used in reports ("scenario1" / "scenario2").
    pub fn id(&self) -> &'static str {
        match self {
            Scenario::NarrowTuning => "scenario1",
            Scenario::WideTuning => "scenario2",
        }
    }
}

/// Complete parameter set of the tunable energy harvesting system.
///
/// Grouped by block; see the module documentation for how the default values
/// were chosen. All quantities are in SI units.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvesterParameters {
    // --- Microgenerator (mechanical + electromagnetic), Eqs. 8–13 ---
    /// Proof mass `m` in kilograms.
    pub proof_mass: f64,
    /// Untuned resonant frequency `f_r` in hertz.
    pub untuned_resonance_hz: f64,
    /// Parasitic (mechanical) damping factor `c_p` in N·s/m.
    pub parasitic_damping: f64,
    /// Electromagnetic flux linkage `Φ = N·B·l` in V·s/m (equivalently N/A).
    pub flux_linkage: f64,
    /// Coil resistance `R_c` in ohms.
    pub coil_resistance: f64,
    /// Coil inductance `L_c` in henries.
    pub coil_inductance: f64,
    /// Cantilever buckling load `F_b` in newtons (Eq. 12 denominator).
    pub buckling_load: f64,
    /// Maximum axial tuning force the magnet pair can produce, in newtons.
    pub max_tuning_force: f64,

    // --- Ambient vibration ---
    /// Acceleration amplitude of the ambient vibration in m/s².
    pub acceleration_amplitude: f64,

    // --- Power processing: Dickson voltage multiplier, Eq. 14 ---
    /// Number of multiplier stages (the paper uses 5).
    pub multiplier_stages: usize,
    /// Stage capacitance in farads (identical for every stage).
    pub stage_capacitance: f64,
    /// Diode saturation current `Is` in amperes.
    pub diode_saturation_current: f64,
    /// Diode emission coefficient (ideality factor).
    pub diode_emission_coefficient: f64,
    /// Number of segments in the diode piecewise-linear lookup tables.
    pub diode_table_segments: usize,
    /// Shunt capacitance at the multiplier's AC input rail in farads: the coil
    /// self-capacitance plus the lumped diode junction capacitances. Besides
    /// being physical, it regularises the port when every diode is off — the
    /// rail would otherwise be resistively open and the coil-inductance mode
    /// would become arbitrarily stiff (see DESIGN.md §3.2).
    pub input_capacitance: f64,

    // --- Storage: Zubieta–Bonert supercapacitor, Eq. 15 ---
    /// Immediate-branch resistance `R_i` in ohms.
    pub supercap_ri: f64,
    /// Immediate-branch constant capacitance `C_i0` in farads.
    pub supercap_ci0: f64,
    /// Immediate-branch voltage-dependent capacitance coefficient `C_i1` in F/V.
    pub supercap_ci1: f64,
    /// Delayed-branch resistance `R_d` in ohms.
    pub supercap_rd: f64,
    /// Delayed-branch capacitance `C_d` in farads.
    pub supercap_cd: f64,
    /// Long-term-branch resistance `R_l` in ohms.
    pub supercap_rl: f64,
    /// Long-term-branch capacitance `C_l` in farads.
    pub supercap_cl: f64,

    // --- Load: equivalent resistor, Eq. 16 ---
    /// `Req` when the microcontroller sleeps, in ohms.
    pub load_sleep_ohms: f64,
    /// `Req` when the microcontroller is awake, in ohms.
    pub load_awake_ohms: f64,
    /// `Req` while the actuator tunes, in ohms.
    pub load_tuning_ohms: f64,

    // --- Controller / actuator ---
    /// Watchdog period in seconds (how often the microcontroller wakes).
    pub watchdog_period_s: f64,
    /// Supercapacitor voltage that counts as "enough energy" to start tuning, in volts.
    pub energy_threshold_v: f64,
    /// Frequency mismatch below which no tuning is performed, in hertz.
    pub frequency_tolerance_hz: f64,
    /// How long the microcontroller stays awake for measurement, in seconds.
    pub measurement_duration_s: f64,
    /// Actuator tuning speed expressed in hertz of resonance shift per second.
    pub tuning_rate_hz_per_s: f64,
}

impl HarvesterParameters {
    /// Parameters of the practical tunable harvester, scaled so that a complete
    /// charge/tune cycle completes within a few hundred simulated seconds
    /// (supercapacitance of a few tens of millifarads). This is the default set
    /// used by the examples, tests and benches.
    pub fn practical_device() -> Self {
        HarvesterParameters {
            proof_mass: 0.02,
            untuned_resonance_hz: 70.0,
            parasitic_damping: 0.088,
            flux_linkage: 15.0,
            coil_resistance: 150.0,
            coil_inductance: 20e-3,
            buckling_load: 2.0,
            max_tuning_force: 1.0,
            acceleration_amplitude: 0.6,
            multiplier_stages: 5,
            stage_capacitance: 10e-6,
            diode_saturation_current: 1e-6,
            diode_emission_coefficient: 1.05,
            diode_table_segments: 600,
            input_capacitance: 470e-9,
            supercap_ri: 2.5,
            supercap_ci0: 2.2e-3,
            supercap_ci1: 1e-4,
            supercap_rd: 90.0,
            supercap_cd: 0.5e-3,
            supercap_rl: 3000.0,
            supercap_cl: 0.5e-3,
            load_sleep_ohms: 1.0e9,
            load_awake_ohms: 33.0,
            load_tuning_ohms: 16.7,
            watchdog_period_s: 20.0,
            energy_threshold_v: 2.2,
            frequency_tolerance_hz: 0.25,
            measurement_duration_s: 0.5,
            tuning_rate_hz_per_s: 2.0,
        }
    }

    /// Parameters with a full-size supercapacitor (≈ 0.55 F immediate branch),
    /// matching the paper's hours-long charging experiments. Available for
    /// paper-scale spans; the default tests and benches use
    /// [`HarvesterParameters::practical_device`] so they finish quickly
    /// (DESIGN.md §4).
    pub fn paper_scale_device() -> Self {
        HarvesterParameters {
            supercap_ci0: 0.55,
            supercap_ci1: 0.05,
            supercap_cd: 0.1,
            supercap_cl: 0.2,
            watchdog_period_s: 600.0,
            ..Self::practical_device()
        }
    }

    /// The untuned spring stiffness `k_s = m·(2π·f_r)²` in N/m.
    pub fn spring_stiffness(&self) -> f64 {
        let omega = 2.0 * std::f64::consts::PI * self.untuned_resonance_hz;
        self.proof_mass * omega * omega
    }

    /// Equivalent load resistance for a [`LoadMode`] (Eq. 16).
    pub fn load_resistance(&self, mode: LoadMode) -> f64 {
        match mode {
            LoadMode::Sleep => self.load_sleep_ohms,
            LoadMode::McuAwake => self.load_awake_ohms,
            LoadMode::Tuning => self.load_tuning_ohms,
        }
    }

    /// Tuning force required to move the resonance to `target_hz` (inverse of
    /// Eq. 12): `F_t = F_b·((f'_r/f_r)² − 1)`.
    pub fn tuning_force_for_frequency(&self, target_hz: f64) -> f64 {
        let ratio = target_hz / self.untuned_resonance_hz;
        self.buckling_load * (ratio * ratio - 1.0)
    }

    /// Tuned resonant frequency produced by an axial tuning force `force`
    /// (Eq. 12): `f'_r = f_r·√(1 + F_t/F_b)`.
    pub fn tuned_frequency_for_force(&self, force: f64) -> f64 {
        let arg = 1.0 + force / self.buckling_load;
        self.untuned_resonance_hz * arg.max(0.0).sqrt()
    }

    /// The maximum achievable tuned frequency given `max_tuning_force`.
    pub fn max_tuned_frequency(&self) -> f64 {
        self.tuned_frequency_for_force(self.max_tuning_force)
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] naming the first offending
    /// parameter.
    pub fn validate(&self) -> Result<(), BlockError> {
        let positives: [(&'static str, f64); 23] = [
            ("proof_mass", self.proof_mass),
            ("untuned_resonance_hz", self.untuned_resonance_hz),
            ("parasitic_damping", self.parasitic_damping),
            ("flux_linkage", self.flux_linkage),
            ("coil_resistance", self.coil_resistance),
            ("coil_inductance", self.coil_inductance),
            ("buckling_load", self.buckling_load),
            ("acceleration_amplitude", self.acceleration_amplitude),
            ("stage_capacitance", self.stage_capacitance),
            ("diode_saturation_current", self.diode_saturation_current),
            ("diode_emission_coefficient", self.diode_emission_coefficient),
            ("input_capacitance", self.input_capacitance),
            ("supercap_ri", self.supercap_ri),
            ("supercap_ci0", self.supercap_ci0),
            ("supercap_rd", self.supercap_rd),
            ("supercap_cd", self.supercap_cd),
            ("supercap_rl", self.supercap_rl),
            ("supercap_cl", self.supercap_cl),
            ("load_sleep_ohms", self.load_sleep_ohms),
            ("load_awake_ohms", self.load_awake_ohms),
            ("load_tuning_ohms", self.load_tuning_ohms),
            ("watchdog_period_s", self.watchdog_period_s),
            ("tuning_rate_hz_per_s", self.tuning_rate_hz_per_s),
        ];
        for (name, value) in positives {
            if !(value > 0.0) || !value.is_finite() {
                return Err(BlockError::InvalidParameter {
                    name,
                    value,
                    constraint: "must be positive and finite",
                });
            }
        }
        if self.multiplier_stages == 0 {
            return Err(BlockError::InvalidParameter {
                name: "multiplier_stages",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        if self.diode_table_segments < 2 {
            return Err(BlockError::InvalidParameter {
                name: "diode_table_segments",
                value: self.diode_table_segments as f64,
                constraint: "must be at least 2",
            });
        }
        let non_negative_finite: [(&'static str, f64); 2] = [
            ("supercap_ci1", self.supercap_ci1),
            ("measurement_duration_s", self.measurement_duration_s),
        ];
        for (name, value) in non_negative_finite {
            if !(value >= 0.0) || !value.is_finite() {
                return Err(BlockError::InvalidParameter {
                    name,
                    value,
                    constraint: "must be non-negative and finite",
                });
            }
        }
        let non_negative: [(&'static str, f64); 2] = [
            ("energy_threshold_v", self.energy_threshold_v),
            ("frequency_tolerance_hz", self.frequency_tolerance_hz),
        ];
        for (name, value) in non_negative {
            if !(value >= 0.0) {
                return Err(BlockError::InvalidParameter {
                    name,
                    value,
                    constraint: "must be non-negative",
                });
            }
        }
        Ok(())
    }
}

impl Default for HarvesterParameters {
    fn default() -> Self {
        Self::practical_device()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parameters_are_valid() {
        assert!(HarvesterParameters::practical_device().validate().is_ok());
        assert!(HarvesterParameters::paper_scale_device().validate().is_ok());
        assert_eq!(HarvesterParameters::default(), HarvesterParameters::practical_device());
    }

    #[test]
    fn derived_quantities_match_resonance() {
        let p = HarvesterParameters::practical_device();
        let ks = p.spring_stiffness();
        // f = (1/2π)·sqrt(k/m) must recover 70 Hz.
        let f = (ks / p.proof_mass).sqrt() / (2.0 * std::f64::consts::PI);
        assert!((f - 70.0).abs() < 1e-9);
    }

    #[test]
    fn load_modes_follow_eq16() {
        let p = HarvesterParameters::practical_device();
        assert_eq!(p.load_resistance(LoadMode::Sleep), 1.0e9);
        assert_eq!(p.load_resistance(LoadMode::McuAwake), 33.0);
        assert!((p.load_resistance(LoadMode::Tuning) - 16.7).abs() < 1e-12);
        assert_eq!(LoadMode::Sleep.name(), "sleep");
        assert_eq!(LoadMode::default(), LoadMode::Sleep);
    }

    #[test]
    fn tuning_force_and_frequency_are_inverse_operations() {
        let p = HarvesterParameters::practical_device();
        for target in [70.0, 71.0, 75.0, 84.0] {
            let force = p.tuning_force_for_frequency(target);
            let recovered = p.tuned_frequency_for_force(force);
            assert!((recovered - target).abs() < 1e-9, "target {target}, got {recovered}");
        }
        // Zero force leaves the resonance untouched.
        assert!((p.tuned_frequency_for_force(0.0) - 70.0).abs() < 1e-12);
        // The configured maximum force must reach at least the paper's 84 Hz.
        assert!(p.max_tuned_frequency() >= 84.0, "max tuned f = {}", p.max_tuned_frequency());
    }

    #[test]
    fn scenarios_match_the_paper() {
        assert_eq!(Scenario::NarrowTuning.initial_frequency_hz(), 70.0);
        assert_eq!(Scenario::NarrowTuning.target_frequency_hz(), 71.0);
        assert_eq!(Scenario::NarrowTuning.frequency_shift_hz(), 1.0);
        assert_eq!(Scenario::WideTuning.frequency_shift_hz(), 14.0);
        assert_eq!(Scenario::NarrowTuning.id(), "scenario1");
        assert_eq!(Scenario::WideTuning.id(), "scenario2");
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut p = HarvesterParameters::practical_device();
        p.proof_mass = 0.0;
        assert!(p.validate().is_err());

        let mut p = HarvesterParameters::practical_device();
        p.multiplier_stages = 0;
        assert!(p.validate().is_err());

        let mut p = HarvesterParameters::practical_device();
        p.diode_table_segments = 1;
        assert!(p.validate().is_err());

        let mut p = HarvesterParameters::practical_device();
        p.supercap_ci1 = -1.0;
        assert!(p.validate().is_err());

        let mut p = HarvesterParameters::practical_device();
        p.frequency_tolerance_hz = -0.1;
        assert!(p.validate().is_err());

        // NaN fails every ordered comparison, so it must be refused, and the
        // error must name the offending field with its own value.
        type Slot = fn(&mut HarvesterParameters) -> &mut f64;
        let fields: [(&str, Slot); 4] = [
            ("supercap_ci1", |p| &mut p.supercap_ci1),
            ("energy_threshold_v", |p| &mut p.energy_threshold_v),
            ("frequency_tolerance_hz", |p| &mut p.frequency_tolerance_hz),
            ("measurement_duration_s", |p| &mut p.measurement_duration_s),
        ];
        for (field, slot) in fields {
            let mut p = HarvesterParameters::practical_device();
            *slot(&mut p) = f64::NAN;
            match p.validate() {
                Err(BlockError::InvalidParameter { name, value, .. }) => {
                    assert_eq!(name, field);
                    assert!(value.is_nan(), "{field} reported {value}");
                }
                other => panic!("NaN {field} validated as {other:?}"),
            }
        }
        for (field, slot) in [fields[0], fields[3]] {
            let mut p = HarvesterParameters::practical_device();
            *slot(&mut p) = f64::INFINITY;
            assert!(
                matches!(p.validate(), Err(BlockError::InvalidParameter { name, .. }) if name == field),
                "+inf {field} must be refused"
            );
        }
    }
}
