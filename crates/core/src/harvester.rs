//! The complete tunable energy-harvester model (Section III-E of the paper).
//!
//! [`TunableHarvester`] owns the three analogue component blocks
//! (microgenerator, Dickson multiplier, supercapacitor + load), wires their
//! terminals together — the generator port is shared with the multiplier
//! input, the multiplier output with the storage port — and exposes the
//! resulting model through [`AnalogueSystem`] so the march-in-time solver and
//! the Newton–Raphson baseline can simulate it. With the default five-stage
//! multiplier the global model has 12 state variables: the 11 of the paper's
//! "11 by 11 matrix of state equations" (three mechanical/electrical generator
//! states, five stage voltages, three supercapacitor branches) plus the
//! multiplier's rail-capacitance state that regularises the generator port
//! (see DESIGN.md §3.2).

use harvsim_blocks::{
    DicksonMultiplier, FrequencyProfile, HarvesterParameters, LoadMode, Microgenerator,
    StateSpaceBlock, Supercapacitor, VibrationExcitation,
};
use harvsim_linalg::DVector;

use crate::assembly::{AnalogueSystem, Assembly, GlobalLinearisation, StampReport};
use crate::CoreError;

/// Net name of the generator/multiplier voltage terminal `V_m`.
const NET_GENERATOR_VOLTAGE: &str = "Vm";
/// Net name of the generator/multiplier current terminal `I_m`.
const NET_GENERATOR_CURRENT: &str = "Im";
/// Net name of the storage-port voltage terminal `V_c`.
const NET_STORAGE_VOLTAGE: &str = "Vc";
/// Net name of the storage-port current terminal `I_c`.
const NET_STORAGE_CURRENT: &str = "Ic";

/// The complete mixed-technology tunable energy harvester (analogue part).
#[derive(Debug, Clone)]
pub struct TunableHarvester {
    parameters: HarvesterParameters,
    microgenerator: Microgenerator,
    multiplier: DicksonMultiplier,
    supercapacitor: Supercapacitor,
    assembly: Assembly,
}

impl TunableHarvester {
    /// Builds the complete harvester from a parameter set and an ambient
    /// vibration excitation.
    ///
    /// # Errors
    ///
    /// Propagates block construction failures and assembly ill-posedness.
    pub fn new(
        parameters: HarvesterParameters,
        excitation: VibrationExcitation,
    ) -> Result<Self, CoreError> {
        let microgenerator = Microgenerator::new(&parameters, excitation)?;
        let multiplier = DicksonMultiplier::new(&parameters)?;
        let supercapacitor = Supercapacitor::new(&parameters)?;

        let mut builder = Assembly::builder();
        builder.add_block(&microgenerator, &[NET_GENERATOR_VOLTAGE, NET_GENERATOR_CURRENT])?;
        builder.add_block(
            &multiplier,
            &[
                NET_GENERATOR_VOLTAGE,
                NET_GENERATOR_CURRENT,
                NET_STORAGE_VOLTAGE,
                NET_STORAGE_CURRENT,
            ],
        )?;
        builder.add_block(&supercapacitor, &[NET_STORAGE_VOLTAGE, NET_STORAGE_CURRENT])?;
        let assembly = builder.build()?;

        Ok(TunableHarvester { parameters, microgenerator, multiplier, supercapacitor, assembly })
    }

    /// Convenience constructor: a harvester driven at a constant ambient
    /// frequency with the parameter set's default acceleration amplitude.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TunableHarvester::new`].
    pub fn with_constant_excitation(
        parameters: HarvesterParameters,
        frequency_hz: f64,
    ) -> Result<Self, CoreError> {
        let excitation = VibrationExcitation::new(
            parameters.acceleration_amplitude,
            FrequencyProfile::Constant { frequency_hz },
        )?;
        Self::new(parameters, excitation)
    }

    /// The parameter set the harvester was built from.
    pub fn parameters(&self) -> &HarvesterParameters {
        &self.parameters
    }

    /// The assembly wiring plan (net/state naming, offsets).
    pub fn assembly(&self) -> &Assembly {
        &self.assembly
    }

    /// Read access to the microgenerator block.
    pub fn microgenerator(&self) -> &Microgenerator {
        &self.microgenerator
    }

    /// Read access to the voltage-multiplier block.
    pub fn multiplier(&self) -> &DicksonMultiplier {
        &self.multiplier
    }

    /// Read access to the supercapacitor block.
    pub fn supercapacitor(&self) -> &Supercapacitor {
        &self.supercapacitor
    }

    /// Switches the multiplier's diodes between PWL-table companions (the
    /// paper's technique, default) and exact analytic Shockley evaluation —
    /// the device-evaluation policy of the commercial tools the
    /// Newton–Raphson baseline stands in for. The session layer flips this
    /// on for baseline runs so the speed comparison measures the technique
    /// against honest exact device evaluation, not against its own lookup
    /// trick.
    pub fn set_exact_diode_companions(&mut self, exact: bool) {
        self.multiplier.set_exact_companions(exact);
    }

    /// Whether the multiplier evaluates its diodes exactly (see
    /// [`TunableHarvester::set_exact_diode_companions`]).
    pub fn exact_diode_companions(&self) -> bool {
        self.multiplier.exact_companions()
    }

    fn blocks(&self) -> [&dyn StateSpaceBlock; 3] {
        [&self.microgenerator, &self.multiplier, &self.supercapacitor]
    }

    /// Global initial state with every supercapacitor branch pre-charged to
    /// `supercap_voltage` volts (the paper's experiments start from a partly
    /// charged store; starting from zero only stretches the time axis). The
    /// multiplier's output stage is pre-charged to the same voltage so the
    /// storage port starts in equilibrium instead of with an artificial inrush.
    ///
    /// # Errors
    ///
    /// Propagates assembly mismatches (cannot occur for a well-formed harvester).
    pub fn initial_state(&self, supercap_voltage: f64) -> Result<DVector, CoreError> {
        let mut x = self.assembly.initial_state(&self.blocks())?;
        let voltage = supercap_voltage.max(0.0);
        let offset = self.supercap_state_offset();
        for i in 0..3 {
            x[offset + i] = voltage;
        }
        let output_stage = self.multiplier_state_offset() + self.multiplier.stage_count() - 1;
        x[output_stage] = voltage;
        Ok(x)
    }

    /// Offset of the supercapacitor branch voltages inside the global state.
    pub fn supercap_state_offset(&self) -> usize {
        self.assembly.state_offset(2)
    }

    /// Offset of the multiplier stage voltages inside the global state.
    pub fn multiplier_state_offset(&self) -> usize {
        self.assembly.state_offset(1)
    }

    /// Index of the generator-voltage net `V_m` in the terminal vector.
    pub fn generator_voltage_net(&self) -> usize {
        self.assembly.net_index(NET_GENERATOR_VOLTAGE).expect("net exists by construction")
    }

    /// Index of the generator-current net `I_m` in the terminal vector.
    pub fn generator_current_net(&self) -> usize {
        self.assembly.net_index(NET_GENERATOR_CURRENT).expect("net exists by construction")
    }

    /// Index of the storage-voltage net `V_c` in the terminal vector.
    pub fn storage_voltage_net(&self) -> usize {
        self.assembly.net_index(NET_STORAGE_VOLTAGE).expect("net exists by construction")
    }

    /// Supercapacitor terminal voltage computed from the branch states in `x`
    /// (open-circuit approximation, used by the digital controller's energy
    /// check).
    pub fn supercapacitor_voltage(&self, x: &DVector) -> f64 {
        let offset = self.supercap_state_offset();
        let branches = x.segment(offset, 3);
        self.supercapacitor.terminal_voltage(&branches, 0.0)
    }

    /// Stored supercapacitor energy in joules for the state `x`.
    pub fn stored_energy(&self, x: &DVector) -> f64 {
        let offset = self.supercap_state_offset();
        self.supercapacitor.stored_energy(&x.segment(offset, 3))
    }

    /// The ambient vibration frequency at time `t`, in hertz.
    pub fn ambient_frequency_hz(&self, t: f64) -> f64 {
        self.microgenerator.excitation().frequency_at(t)
    }

    /// The microgenerator's present (tuned) resonant frequency, in hertz.
    pub fn resonant_frequency_hz(&self) -> f64 {
        self.microgenerator.resonant_frequency_hz()
    }

    /// Retunes the microgenerator to a new resonant frequency (called by the
    /// digital controller through the mixed-signal interface).
    pub fn set_resonant_frequency(&mut self, frequency_hz: f64) {
        self.microgenerator.set_resonant_frequency(frequency_hz);
    }

    /// The piezoelectric tuning force currently applied to the
    /// microgenerator, in newtons. Saved by checkpoints instead of the
    /// derived resonant frequency: the force is the raw stored datum, so
    /// restoring it round-trips bit-exactly where a frequency→force→frequency
    /// trip through `sqrt` would not.
    pub fn tuning_force(&self) -> f64 {
        self.microgenerator.tuning_force()
    }

    /// Restores a previously saved tuning force (see
    /// [`TunableHarvester::tuning_force`]).
    pub fn set_tuning_force(&mut self, force: f64) {
        self.microgenerator.set_tuning_force(force);
    }

    /// Switches the equivalent load resistor mode (Eq. 16).
    pub fn set_load_mode(&mut self, mode: LoadMode) {
        self.supercapacitor.set_load_mode(mode);
    }

    /// The present load mode.
    pub fn load_mode(&self) -> LoadMode {
        self.supercapacitor.load_mode()
    }
}

impl AnalogueSystem for TunableHarvester {
    fn state_count(&self) -> usize {
        self.assembly.state_count()
    }

    fn net_count(&self) -> usize {
        self.assembly.net_count()
    }

    fn state_names(&self) -> Vec<String> {
        self.assembly.state_names().to_vec()
    }

    fn net_names(&self) -> Vec<String> {
        self.assembly.net_names().to_vec()
    }

    fn linearise_global(
        &self,
        t: f64,
        x: &DVector,
        y: &DVector,
    ) -> Result<GlobalLinearisation, CoreError> {
        self.assembly.linearise_global(&self.blocks(), t, x, y)
    }

    fn linearise_global_into(
        &self,
        t: f64,
        x: &DVector,
        y: &DVector,
        out: &mut GlobalLinearisation,
    ) -> Result<(), CoreError> {
        self.assembly.linearise_global_into(&self.blocks(), t, x, y, out)
    }

    fn relinearise_global_into(
        &self,
        t: f64,
        x: &DVector,
        y: &DVector,
        out: &mut GlobalLinearisation,
    ) -> Result<StampReport, CoreError> {
        self.assembly.relinearise_global_into(&self.blocks(), t, x, y, out)
    }

    fn stiff_states(&self) -> Vec<usize> {
        self.assembly.stiff_states().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harvester() -> TunableHarvester {
        TunableHarvester::with_constant_excitation(HarvesterParameters::practical_device(), 70.0)
            .unwrap()
    }

    #[test]
    fn dimensions_match_the_paper() {
        let h = harvester();
        // 3 (microgenerator) + 6 (multiplier incl. the rail state) +
        // 3 (supercapacitor) = 12 states: the paper's 11x11 state matrix of
        // Section III-E plus the rail-capacitance regularisation state.
        assert_eq!(h.state_count(), 12);
        assert_eq!(h.net_count(), 4);
        assert_eq!(h.state_names().len(), 12);
        assert_eq!(h.net_names().len(), 4);
        assert_eq!(h.assembly().block_count(), 3);
        assert_eq!(h.multiplier_state_offset(), 3);
        assert_eq!(h.supercap_state_offset(), 9);
        assert_eq!(h.generator_voltage_net(), 0);
        assert_eq!(h.generator_current_net(), 1);
        assert_eq!(h.storage_voltage_net(), 2);
        assert_eq!(h.assembly().net_index(NET_STORAGE_CURRENT), Some(3));
        assert!(h.parameters().validate().is_ok());
        assert_eq!(h.multiplier().stage_count(), 5);
        // The partition contracts wired through the assembly: one
        // constant-Jacobian block (the microgenerator) and three stiff
        // interface states — coil current (global 2), output stage (7) and
        // rail shunt (8) — in ascending order.
        assert_eq!(h.assembly().constant_block_count(), 1);
        assert_eq!(h.assembly().stiff_states(), &[2, 7, 8]);
        assert_eq!(h.stiff_states(), vec![2, 7, 8]);
    }

    #[test]
    fn initial_state_precharges_the_supercapacitor() {
        let h = harvester();
        let x = h.initial_state(2.4).unwrap();
        assert_eq!(x.len(), 12);
        assert!((h.supercapacitor_voltage(&x) - 2.4).abs() < 1e-6);
        assert!(h.stored_energy(&x) > 0.0);
        // Mechanical and multiplier states start at rest.
        assert_eq!(x[0], 0.0);
        assert_eq!(x[3], 0.0);
        // Negative requests clamp to zero.
        let x0 = h.initial_state(-1.0).unwrap();
        assert_eq!(h.supercapacitor_voltage(&x0), 0.0);
    }

    #[test]
    fn terminal_elimination_is_well_posed_at_rest() {
        let h = harvester();
        let x = h.initial_state(2.4).unwrap();
        let y_guess = DVector::zeros(4);
        let lin = h.linearise_global(0.0, &x, &y_guess).unwrap();
        let y = lin.solve_terminals(&x).unwrap();
        assert!(y.is_finite());
        // At rest with no coil current the generator current must be ~0 and the
        // storage-port voltage close to the supercapacitor voltage.
        assert!(y[h.generator_current_net()].abs() < 1e-9);
        assert!((y[h.storage_voltage_net()] - 2.4).abs() < 0.2);
        // The total-step matrix exists and is finite.
        let a = lin.total_step_matrix().unwrap();
        assert!(a.is_finite());
        assert_eq!(a.rows(), 12);
    }

    #[test]
    fn controls_propagate_to_the_blocks() {
        let mut h = harvester();
        assert_eq!(h.load_mode(), LoadMode::Sleep);
        h.set_load_mode(LoadMode::Tuning);
        assert_eq!(h.load_mode(), LoadMode::Tuning);
        assert!((h.resonant_frequency_hz() - 70.0).abs() < 1e-9);
        h.set_resonant_frequency(71.0);
        assert!((h.resonant_frequency_hz() - 71.0).abs() < 1e-9);
        assert_eq!(h.ambient_frequency_hz(0.0), 70.0);
    }
}
