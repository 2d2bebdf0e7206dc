//! The supercapacitor storage element and the equivalent load resistor
//! (Section III-C, Eqs. 15–16 of the paper).
//!
//! The storage model is the three-branch Zubieta–Bonert equivalent circuit:
//! an *immediate* branch (`R_i`, `C_i0 + C_i1·V_i`) that dominates on the
//! seconds time scale, a *delayed* branch (`R_d`, `C_d`) acting over minutes and
//! a *long-term* branch (`R_l`, `C_l`) acting over tens of minutes, all in
//! parallel across the terminal. The charge-redistribution between the branches
//! is what makes supercapacitor charging curves deviate from a single-RC shape,
//! which is why the paper adopts this model "for its good accuracy".
//!
//! The equivalent load resistor `R_eq` in parallel with the terminal represents
//! the consumption of the microcontroller and the tuning actuator; its value
//! switches between the three modes of Eq. 16 under control of the digital
//! side.
//!
//! The block's state variables are the three branch capacitor voltages
//! (`V_i`, `V_d`, `V_l`); its terminal variables are the port voltage `V_c` and
//! current `I_c`, with one algebraic constraint — Kirchhoff's current law at
//! the terminal node:
//!
//! ```text
//! I_c = (V_c − V_i)/R_i + (V_c − V_d)/R_d + (V_c − V_l)/R_l + V_c/R_eq
//! ```

use harvsim_linalg::DVector;

use crate::block::{
    BlockError, Jacobian, JacobianPattern, JacobianStructure, LocalLinearisation, StateSpaceBlock,
};
use crate::params::{HarvesterParameters, LoadMode};

/// Index of the immediate-branch voltage state `V_i`.
const STATE_IMMEDIATE: usize = 0;
/// Index of the delayed-branch voltage state `V_d`.
const STATE_DELAYED: usize = 1;
/// Index of the long-term-branch voltage state `V_l`.
const STATE_LONG_TERM: usize = 2;

/// The three-branch supercapacitor with its mode-dependent equivalent load.
#[derive(Debug, Clone)]
pub struct Supercapacitor {
    ri: f64,
    ci0: f64,
    ci1: f64,
    rd: f64,
    cd: f64,
    rl: f64,
    cl: f64,
    load_sleep: f64,
    load_awake: f64,
    load_tuning: f64,
    load_mode: LoadMode,
}

impl Supercapacitor {
    /// Builds the supercapacitor + load block from the shared parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if the parameters fail
    /// validation.
    pub fn new(params: &HarvesterParameters) -> Result<Self, BlockError> {
        params.validate()?;
        Ok(Supercapacitor {
            ri: params.supercap_ri,
            ci0: params.supercap_ci0,
            ci1: params.supercap_ci1,
            rd: params.supercap_rd,
            cd: params.supercap_cd,
            rl: params.supercap_rl,
            cl: params.supercap_cl,
            load_sleep: params.load_sleep_ohms,
            load_awake: params.load_awake_ohms,
            load_tuning: params.load_tuning_ohms,
            load_mode: LoadMode::Sleep,
        })
    }

    /// The present load mode (Eq. 16 selector).
    pub fn load_mode(&self) -> LoadMode {
        self.load_mode
    }

    /// Switches the equivalent load resistor to a new mode. Called by the
    /// digital controller when the microcontroller wakes, sleeps or starts a
    /// tuning move.
    pub fn set_load_mode(&mut self, mode: LoadMode) {
        self.load_mode = mode;
    }

    /// The present equivalent load resistance `R_eq`, in ohms.
    pub fn load_resistance(&self) -> f64 {
        match self.load_mode {
            LoadMode::Sleep => self.load_sleep,
            LoadMode::McuAwake => self.load_awake,
            LoadMode::Tuning => self.load_tuning,
        }
    }

    /// Effective immediate-branch capacitance `C_i0 + C_i1·v` at branch voltage
    /// `v` (the Zubieta model's voltage-dependent term). The local linearisation
    /// treats this value as constant over one step; the error this introduces is
    /// part of the LLE the engine monitors.
    fn immediate_capacitance(&self, v: f64) -> f64 {
        self.ci0 + self.ci1 * v.max(0.0)
    }

    /// Total stored energy `½·C·V²` summed over the three branches, in joules.
    pub fn stored_energy(&self, state: &DVector) -> f64 {
        0.5 * self.immediate_capacitance(state[STATE_IMMEDIATE]) * state[STATE_IMMEDIATE].powi(2)
            + 0.5 * self.cd * state[STATE_DELAYED].powi(2)
            + 0.5 * self.cl * state[STATE_LONG_TERM].powi(2)
    }

    /// Terminal voltage `V_c` consistent with a given branch state and terminal
    /// current, obtained from the KCL constraint. With `I_c = 0` (open circuit)
    /// this is the weighted average of the branch voltages.
    pub fn terminal_voltage(&self, state: &DVector, terminal_current: f64) -> f64 {
        let g_total = 1.0 / self.ri + 1.0 / self.rd + 1.0 / self.rl + 1.0 / self.load_resistance();
        let branch_sum = state[STATE_IMMEDIATE] / self.ri
            + state[STATE_DELAYED] / self.rd
            + state[STATE_LONG_TERM] / self.rl;
        (terminal_current + branch_sum) / g_total
    }
}

impl StateSpaceBlock for Supercapacitor {
    fn name(&self) -> &str {
        "supercapacitor"
    }

    fn state_count(&self) -> usize {
        3
    }

    fn terminal_count(&self) -> usize {
        2
    }

    fn constraint_count(&self) -> usize {
        1
    }

    fn state_names(&self) -> Vec<String> {
        vec!["V_immediate".to_string(), "V_delayed".to_string(), "V_longterm".to_string()]
    }

    fn terminal_names(&self) -> Vec<String> {
        vec!["Vc".to_string(), "Ic".to_string()]
    }

    fn initial_state(&self) -> DVector {
        DVector::zeros(3)
    }

    fn linearise(&self, t: f64, x: &DVector, y: &DVector) -> LocalLinearisation {
        let mut out = LocalLinearisation::zeros(3, 2, 1);
        self.linearise_into(t, x, y, &mut out);
        out
    }

    fn linearise_into(&self, _t: f64, x: &DVector, _y: &DVector, out: &mut LocalLinearisation) {
        let ci = self.immediate_capacitance(x[STATE_IMMEDIATE]);
        let tau_i = self.ri * ci;
        let tau_d = self.rd * self.cd;
        let tau_l = self.rl * self.cl;
        out.clear();

        // Branch dynamics (Eq. 15): dV_b/dt = (Vc - V_b) / (R_b·C_b).
        out.a[(0, 0)] = -1.0 / tau_i;
        out.a[(1, 1)] = -1.0 / tau_d;
        out.a[(2, 2)] = -1.0 / tau_l;
        out.b[(0, 0)] = 1.0 / tau_i;
        out.b[(1, 0)] = 1.0 / tau_d;
        out.b[(2, 0)] = 1.0 / tau_l;

        // KCL at the terminal node:
        // Ic - (Vc - Vi)/Ri - (Vc - Vd)/Rd - (Vc - Vl)/Rl - Vc/Req = 0.
        let req = self.load_resistance();
        out.c[(0, 0)] = 1.0 / self.ri;
        out.c[(0, 1)] = 1.0 / self.rd;
        out.c[(0, 2)] = 1.0 / self.rl;
        let g_total = 1.0 / self.ri + 1.0 / self.rd + 1.0 / self.rl + 1.0 / req;
        out.d[(0, 0)] = -g_total;
        out.d[(0, 1)] = 1.0;
    }

    /// The Zubieta model's voltage-dependent immediate-branch capacitance
    /// `C_i0 + C_i1·V_i` makes the branch time constant — and with it the
    /// block's `A`/`B` entries — vary smoothly with the state, so the block
    /// must be restamped at every linearisation (the conservative default,
    /// stated explicitly here because this is the one hot block where the
    /// classification is a genuine modelling fact, not an omission).
    fn jacobian_structure(&self) -> JacobianStructure {
        JacobianStructure::Nonlinear
    }

    /// The branches are decoupled from one another: `A` is diagonal, `B`
    /// feeds `V_c` into every branch, and the KCL row couples all three
    /// branches, `V_c` and `I_c` — 11 of the 20 entries, in every load mode.
    fn jacobian_pattern(&self) -> JacobianPattern {
        let branches = [STATE_IMMEDIATE, STATE_DELAYED, STATE_LONG_TERM];
        let mut entries = Vec::with_capacity(11);
        entries.extend(branches.map(|branch| (Jacobian::A, branch, branch)));
        entries.extend(branches.map(|branch| (Jacobian::B, branch, 0)));
        entries.extend(branches.map(|branch| (Jacobian::C, 0, branch)));
        entries.extend([(Jacobian::D, 0, 0), (Jacobian::D, 0, 1)]);
        JacobianPattern::new(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn supercap() -> Supercapacitor {
        Supercapacitor::new(&HarvesterParameters::practical_device()).unwrap()
    }

    #[test]
    fn block_metadata() {
        let s = supercap();
        assert_eq!(s.name(), "supercapacitor");
        assert_eq!(s.state_count(), 3);
        assert_eq!(s.terminal_count(), 2);
        assert_eq!(s.constraint_count(), 1);
        assert_eq!(s.state_names().len(), 3);
        assert_eq!(s.terminal_names(), vec!["Vc", "Ic"]);
        assert_eq!(s.initial_state().len(), 3);
    }

    #[test]
    fn construction_rejects_bad_parameters() {
        let mut params = HarvesterParameters::practical_device();
        params.supercap_ri = 0.0;
        assert!(Supercapacitor::new(&params).is_err());
    }

    #[test]
    fn load_modes_switch_req() {
        let mut s = supercap();
        assert_eq!(s.load_mode(), LoadMode::Sleep);
        assert_eq!(s.load_resistance(), 1.0e9);
        s.set_load_mode(LoadMode::McuAwake);
        assert_eq!(s.load_resistance(), 33.0);
        s.set_load_mode(LoadMode::Tuning);
        assert!((s.load_resistance() - 16.7).abs() < 1e-12);
    }

    #[test]
    fn voltage_dependent_capacitance() {
        let s = supercap();
        let params = HarvesterParameters::practical_device();
        assert!((s.immediate_capacitance(0.0) - params.supercap_ci0).abs() < 1e-15);
        assert!(
            (s.immediate_capacitance(2.0) - (params.supercap_ci0 + 2.0 * params.supercap_ci1))
                .abs()
                < 1e-15
        );
        // Negative voltages do not reduce the capacitance below Ci0.
        assert!((s.immediate_capacitance(-1.0) - params.supercap_ci0).abs() < 1e-15);
    }

    #[test]
    fn stored_energy_grows_with_voltage() {
        let s = supercap();
        let low = s.stored_energy(&DVector::from_slice(&[1.0, 1.0, 1.0]));
        let high = s.stored_energy(&DVector::from_slice(&[2.0, 2.0, 2.0]));
        assert!(high > 3.0 * low, "energy must grow superlinearly with voltage");
        assert_eq!(s.stored_energy(&DVector::zeros(3)), 0.0);
    }

    #[test]
    fn linearisation_matches_eq15_structure() {
        let s = supercap();
        let lin = s.linearise(0.0, &DVector::zeros(3), &DVector::zeros(2));
        assert!(lin.is_consistent());
        let params = HarvesterParameters::practical_device();
        let tau_i = params.supercap_ri * params.supercap_ci0;
        assert!((lin.a[(0, 0)] + 1.0 / tau_i).abs() < 1e-9);
        assert!((lin.b[(0, 0)] - 1.0 / tau_i).abs() < 1e-9);
        // Branches are decoupled from one another.
        assert_eq!(lin.a[(0, 1)], 0.0);
        assert_eq!(lin.a[(1, 2)], 0.0);
        // KCL row: unit coefficient on Ic, negative total conductance on Vc.
        assert_eq!(lin.d[(0, 1)], 1.0);
        assert!(lin.d[(0, 0)] < 0.0);
    }

    #[test]
    fn open_circuit_terminal_voltage_is_branch_average() {
        let mut s = supercap();
        s.set_load_mode(LoadMode::Sleep); // ~no load
        let state = DVector::from_slice(&[2.0, 2.0, 2.0]);
        let vc = s.terminal_voltage(&state, 0.0);
        assert!((vc - 2.0).abs() < 1e-6, "uniform branches must give Vc ≈ branch voltage");
        // With a heavy load the terminal voltage sags below the branch voltage.
        s.set_load_mode(LoadMode::Tuning);
        let sagged = s.terminal_voltage(&state, 0.0);
        // The 16.7 Ω tuning load against the 2.5 Ω immediate-branch resistance
        // forms a divider of roughly 16.7/(16.7 + 2.5) ≈ 0.87.
        assert!(sagged < 1.8, "tuning load must sag the terminal voltage, got {sagged}");
        assert!(sagged > 1.5, "the sag should stay near the divider prediction, got {sagged}");
    }

    #[test]
    fn charging_from_constant_terminal_voltage_approaches_it() {
        // Integrate the branch equations with Vc held at 3 V: every branch must
        // converge towards 3 V with its own time constant.
        let s = supercap();
        let mut x = DVector::zeros(3);
        let h = 1e-3;
        let y = DVector::from_slice(&[3.0, 0.0]);
        for _ in 0..200_000 {
            let lin = s.linearise(0.0, &x, &y);
            let dx = lin.state_derivative(&x, &y);
            x.axpy(h, &dx).unwrap();
        }
        // 200 s of charging: immediate branch (τ ≈ 5.5 ms), delayed branch
        // (τ ≈ 45 ms) and long branch (τ = 1.5 s) all converge to the applied voltage.
        assert!((x[STATE_IMMEDIATE] - 3.0).abs() < 1e-3);
        assert!((x[STATE_DELAYED] - 3.0).abs() < 1e-3);
        assert!(x[STATE_LONG_TERM] > 2.9);
        // Monotone, bounded behaviour: nothing exceeds the applied voltage.
        assert!(x.iter().all(|&v| v <= 3.0 + 1e-9));
    }

    #[test]
    fn discharge_through_load_dissipates_energy() {
        let mut s = supercap();
        s.set_load_mode(LoadMode::McuAwake);
        let mut x = DVector::from_slice(&[2.5, 2.5, 2.5]);
        let initial_energy = s.stored_energy(&x);
        let h = 1e-4;
        for _ in 0..20_000 {
            // Open output port (Ic = 0): the only path is the internal load Req.
            let vc = s.terminal_voltage(&x, 0.0);
            let y = DVector::from_slice(&[vc, 0.0]);
            let lin = s.linearise(0.0, &x, &y);
            let dx = lin.state_derivative(&x, &y);
            x.axpy(h, &dx).unwrap();
        }
        let final_energy = s.stored_energy(&x);
        assert!(
            final_energy < 0.8 * initial_energy,
            "a 33 Ω load must visibly discharge the store within 2 s: {initial_energy} -> {final_energy}"
        );
        assert!(x.iter().all(|&v| v >= 0.0), "branch voltages must not go negative");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Passivity: with no external current (Ic = 0) the stored energy can
        /// never increase, whatever the initial branch voltages and load mode.
        #[test]
        fn passivity_without_external_input(
            vi in 0.0f64..3.0,
            vd in 0.0f64..3.0,
            vl in 0.0f64..3.0,
            mode in 0usize..3,
        ) {
            let mut s = supercap_for_prop();
            s.set_load_mode(match mode {
                0 => LoadMode::Sleep,
                1 => LoadMode::McuAwake,
                _ => LoadMode::Tuning,
            });
            let mut x = DVector::from_slice(&[vi, vd, vl]);
            let initial = s.stored_energy(&x);
            let h = 1e-4;
            for _ in 0..2_000 {
                let vc = s.terminal_voltage(&x, 0.0);
                let y = DVector::from_slice(&[vc, 0.0]);
                let lin = s.linearise(0.0, &x, &y);
                let dx = lin.state_derivative(&x, &y);
                x.axpy(h, &dx).unwrap();
            }
            let final_energy = s.stored_energy(&x);
            prop_assert!(final_energy <= initial * (1.0 + 1e-6) + 1e-12,
                "energy increased from {initial} to {final_energy}");
        }
    }

    fn supercap_for_prop() -> Supercapacitor {
        Supercapacitor::new(&HarvesterParameters::practical_device()).unwrap()
    }
}
