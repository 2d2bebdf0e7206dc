//! The tunable electromagnetic microgenerator block (Eqs. 8–13 of the paper).
//!
//! The microgenerator is a cantilever with a four-magnet proof mass moving past
//! a fixed coil. Its dynamic model (Eq. 8) couples the mechanical oscillator to
//! the coil circuit through the electromagnetic force `F_em = Φ·i_L` (Eq. 11)
//! and the back-EMF `V_em = Φ·ż` (Eq. 9). The magnetic tuning mechanism applies
//! an axial force `F_t` between two tuning magnets, which changes the effective
//! stiffness of the cantilever and therefore the resonant frequency according
//! to `f'_r = f_r·√(1 + F_t/F_b)` (Eq. 12).
//!
//! The block's state variables are the relative displacement `z`, the relative
//! velocity `ż` and the coil current `i_L` (exactly the state choice of
//! Eq. 13); its terminal variables are the output voltage `V_m` and current
//! `I_m`, with the algebraic constraint `I_m = i_L`.
//!
//! The axial (z-direction) component of the tuning force, `F_t·z` in Eq. 8, is
//! negligible at the small beam deflections of this device compared to the
//! stiffness change it produces; the model therefore represents tuning purely
//! as a stiffness modification, which is also how the companion design papers
//! characterise the mechanism.

use harvsim_linalg::DVector;

use crate::block::{
    BlockError, Jacobian, JacobianPattern, JacobianStructure, LocalLinearisation, StateSpaceBlock,
};
use crate::excitation::VibrationExcitation;
use crate::params::HarvesterParameters;

/// Index of the coil-current state `i_L` within the block's state vector
/// (after the displacement `z` and the velocity `ż`).
const STATE_COIL_CURRENT: usize = 2;

/// The tunable electromagnetic microgenerator block.
#[derive(Debug, Clone)]
pub struct Microgenerator {
    proof_mass: f64,
    spring_stiffness: f64,
    parasitic_damping: f64,
    flux_linkage: f64,
    coil_resistance: f64,
    coil_inductance: f64,
    buckling_load: f64,
    untuned_resonance_hz: f64,
    max_tuning_force: f64,
    /// Present axial tuning force applied by the tuning-magnet pair, in newtons.
    tuning_force: f64,
    excitation: VibrationExcitation,
}

impl Microgenerator {
    /// Builds the microgenerator from the shared parameter set and an ambient
    /// vibration excitation.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if the parameter set fails
    /// validation.
    pub fn new(
        params: &HarvesterParameters,
        excitation: VibrationExcitation,
    ) -> Result<Self, BlockError> {
        params.validate()?;
        Ok(Microgenerator {
            proof_mass: params.proof_mass,
            spring_stiffness: params.spring_stiffness(),
            parasitic_damping: params.parasitic_damping,
            flux_linkage: params.flux_linkage,
            coil_resistance: params.coil_resistance,
            coil_inductance: params.coil_inductance,
            buckling_load: params.buckling_load,
            untuned_resonance_hz: params.untuned_resonance_hz,
            max_tuning_force: params.max_tuning_force,
            tuning_force: 0.0,
            excitation,
        })
    }

    /// The ambient excitation driving the generator.
    pub fn excitation(&self) -> &VibrationExcitation {
        &self.excitation
    }

    /// Present axial tuning force, in newtons.
    pub fn tuning_force(&self) -> f64 {
        self.tuning_force
    }

    /// Applies an axial tuning force (clamped to `[0, max_tuning_force]`); the
    /// effective stiffness becomes `k_s·(1 + F_t/F_b)` so the resonance follows
    /// Eq. 12.
    pub fn set_tuning_force(&mut self, force: f64) {
        self.tuning_force = force.clamp(0.0, self.max_tuning_force);
    }

    /// Sets the tuning force so that the resonant frequency becomes
    /// `target_hz` (clamped to the achievable range).
    pub fn set_resonant_frequency(&mut self, target_hz: f64) {
        let ratio = (target_hz / self.untuned_resonance_hz).max(0.0);
        let force = self.buckling_load * (ratio * ratio - 1.0);
        self.set_tuning_force(force);
    }

    /// The present (tuned) resonant frequency `f'_r` from Eq. 12, in hertz.
    pub fn resonant_frequency_hz(&self) -> f64 {
        self.untuned_resonance_hz * (1.0 + self.tuning_force / self.buckling_load).max(0.0).sqrt()
    }

    /// The untuned resonant frequency `f_r`, in hertz.
    pub fn untuned_resonance_hz(&self) -> f64 {
        self.untuned_resonance_hz
    }

    /// Effective spring stiffness including the tuning contribution, in N/m.
    pub fn effective_stiffness(&self) -> f64 {
        self.spring_stiffness * (1.0 + self.tuning_force / self.buckling_load)
    }
}

impl StateSpaceBlock for Microgenerator {
    fn name(&self) -> &str {
        "microgenerator"
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
        vec!["z".to_string(), "dz_dt".to_string(), "i_coil".to_string()]
    }

    fn terminal_names(&self) -> Vec<String> {
        vec!["Vm".to_string(), "Im".to_string()]
    }

    fn initial_state(&self) -> DVector {
        DVector::zeros(3)
    }

    fn linearise(&self, t: f64, x: &DVector, y: &DVector) -> LocalLinearisation {
        let mut out = LocalLinearisation::zeros(3, 2, 1);
        self.linearise_into(t, x, y, &mut out);
        out
    }

    fn linearise_into(&self, t: f64, _x: &DVector, _y: &DVector, out: &mut LocalLinearisation) {
        let m = self.proof_mass;
        let ks = self.effective_stiffness();
        let cp = self.parasitic_damping;
        let phi = self.flux_linkage;
        let rc = self.coil_resistance;
        let lc = self.coil_inductance;
        out.clear();

        // State Jacobian (Eq. 13): rows are [dz/dt, dv/dt, di/dt].
        out.a[(0, 1)] = 1.0;
        out.a[(1, 0)] = -ks / m;
        out.a[(1, 1)] = -cp / m;
        out.a[(1, 2)] = -phi / m;
        out.a[(2, 1)] = phi / lc;
        out.a[(2, 2)] = -rc / lc;

        // Terminal Jacobian: only the coil equation sees Vm (with -1/Lc).
        out.b[(2, 0)] = -1.0 / lc;

        // Excitation: the inertial force enters the velocity equation.
        out.e[1] = self.excitation.force_at(t, m) / m;

        // Algebraic constraint: Im - i_L = 0.
        out.c[(0, 2)] = -1.0;
        out.d[(0, 1)] = 1.0;
    }

    /// The generator's Eq. 13 Jacobians depend only on the physical
    /// parameters and the tuning force — quantities the digital side changes
    /// between solver segments, never within one. Declaring the contribution
    /// constant lets the assembler stamp the block once per segment and skip
    /// its scatter + Eq. 3 monitoring on every subsequent relinearisation.
    fn jacobian_structure(&self) -> JacobianStructure {
        JacobianStructure::Constant
    }

    /// Eq. 13's couplings: `ż` drives `z`, the spring, damper and coil force
    /// act on `ż`, the back-EMF and coil resistance on `i_L`, the port
    /// voltage on the coil, and the port current equals `i_L` — 9 of the 20
    /// entries.
    fn jacobian_pattern(&self) -> JacobianPattern {
        JacobianPattern::new(vec![
            (Jacobian::A, 0, 1),
            (Jacobian::A, 1, 0),
            (Jacobian::A, 1, 1),
            (Jacobian::A, 1, 2),
            (Jacobian::A, 2, 1),
            (Jacobian::A, 2, 2),
            (Jacobian::B, 2, 0),
            (Jacobian::C, 0, 2),
            (Jacobian::D, 0, 1),
        ])
    }

    /// Only the inertial excitation force varies along a segment; every other
    /// affine entry is structurally zero and already in place from the
    /// segment-opening full stamp.
    fn affine_into(&self, t: f64, _x: &DVector, _y: &DVector, out: &mut LocalLinearisation) {
        out.e[1] = self.excitation.force_at(t, self.proof_mass) / self.proof_mass;
    }

    /// The coil current is the generator-port interface state: its own time
    /// constant `L_c/R_c` (≈ 133 µs for the practical device) sits two
    /// decades below the mechanical period, and through the port constraint
    /// `V_m = V_rail` it forms a fast coupled pair with the multiplier's
    /// rail-regularisation shunt (≈ −3.7·10³ ± 9.6·10³ i s⁻¹ in sleep).
    /// Declaring it stiff keeps that pair *whole* inside the exact
    /// exponential lane — splitting an oscillatory pair across the
    /// explicit/exact partition would freeze half the oscillator per step and
    /// ruin the port waveforms.
    fn stiff_states(&self) -> Vec<usize> {
        vec![STATE_COIL_CURRENT]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::excitation::FrequencyProfile;

    fn generator() -> Microgenerator {
        let params = HarvesterParameters::practical_device();
        let excitation = VibrationExcitation::new(
            params.acceleration_amplitude,
            FrequencyProfile::Constant { frequency_hz: 70.0 },
        )
        .unwrap();
        Microgenerator::new(&params, excitation).unwrap()
    }

    #[test]
    fn block_metadata() {
        let g = generator();
        assert_eq!(g.name(), "microgenerator");
        assert_eq!(g.state_count(), 3);
        assert_eq!(g.terminal_count(), 2);
        assert_eq!(g.constraint_count(), 1);
        assert_eq!(g.state_names().len(), 3);
        assert_eq!(g.terminal_names(), vec!["Vm", "Im"]);
        assert_eq!(g.initial_state().len(), 3);
        assert!(g.excitation().amplitude() > 0.0);
    }

    #[test]
    fn construction_rejects_invalid_parameters() {
        let mut params = HarvesterParameters::practical_device();
        params.proof_mass = -1.0;
        let excitation =
            VibrationExcitation::new(0.6, FrequencyProfile::Constant { frequency_hz: 70.0 })
                .unwrap();
        assert!(Microgenerator::new(&params, excitation).is_err());
    }

    #[test]
    fn linearisation_is_consistent_and_matches_eq13() {
        let g = generator();
        let lin = g.linearise(0.0, &DVector::zeros(3), &DVector::zeros(2));
        assert!(lin.is_consistent());
        let params = HarvesterParameters::practical_device();
        // Row dz/dt = v.
        assert_eq!(lin.a[(0, 1)], 1.0);
        // Row dv/dt coefficients.
        assert!((lin.a[(1, 0)] + params.spring_stiffness() / params.proof_mass).abs() < 1e-9);
        assert!((lin.a[(1, 1)] + params.parasitic_damping / params.proof_mass).abs() < 1e-12);
        assert!((lin.a[(1, 2)] + params.flux_linkage / params.proof_mass).abs() < 1e-12);
        // Coil equation.
        assert!((lin.a[(2, 1)] - params.flux_linkage / params.coil_inductance).abs() < 1e-9);
        assert!((lin.a[(2, 2)] + params.coil_resistance / params.coil_inductance).abs() < 1e-9);
        assert!((lin.b[(2, 0)] + 1.0 / params.coil_inductance).abs() < 1e-9);
        // Constraint Im = i_L.
        assert_eq!(lin.c[(0, 2)], -1.0);
        assert_eq!(lin.d[(0, 1)], 1.0);
    }

    #[test]
    fn excitation_enters_velocity_equation() {
        let g = generator();
        // At a quarter period of 70 Hz the acceleration is at its +0.6 m/s² peak.
        let quarter = 0.25 / 70.0;
        let lin = g.linearise(quarter, &DVector::zeros(3), &DVector::zeros(2));
        assert!((lin.e[1] - 0.6).abs() < 1e-6);
        assert_eq!(lin.e[0], 0.0);
        assert_eq!(lin.e[2], 0.0);
    }

    #[test]
    fn tuning_follows_eq12() {
        let mut g = generator();
        assert!((g.resonant_frequency_hz() - 70.0).abs() < 1e-12);
        g.set_resonant_frequency(84.0);
        assert!((g.resonant_frequency_hz() - 84.0).abs() < 1e-9);
        // Stiffness grows with the square of the frequency ratio.
        let expected_ratio = (84.0f64 / 70.0).powi(2);
        let params = HarvesterParameters::practical_device();
        assert!(
            (g.effective_stiffness() / params.spring_stiffness() - expected_ratio).abs() < 1e-9
        );
        // The tuning force is clamped to the achievable range.
        g.set_resonant_frequency(200.0);
        assert!(g.resonant_frequency_hz() <= params.max_tuned_frequency() + 1e-9);
        g.set_tuning_force(-5.0);
        assert_eq!(g.tuning_force(), 0.0);
    }

    #[test]
    fn undriven_generator_decays_to_rest() {
        // Integrate ẋ = A·x with no excitation and no load (terminals at zero):
        // the mechanical energy must decay monotonically over whole periods.
        let g = generator();
        let lin = g.linearise(0.0, &DVector::zeros(3), &DVector::zeros(2));
        let mut x = DVector::from_slice(&[1e-3, 0.0, 0.0]);
        let h = 1e-6;
        let params = HarvesterParameters::practical_device();
        let energy = |x: &DVector| {
            0.5 * params.spring_stiffness() * x[0] * x[0]
                + 0.5 * params.proof_mass * x[1] * x[1]
                + 0.5 * params.coil_inductance * x[2] * x[2]
        };
        let initial_energy = energy(&x);
        for _ in 0..50_000 {
            let dx = lin.a.mul_vector(&x);
            x.axpy(h, &dx).unwrap();
        }
        assert!(energy(&x) < initial_energy, "passive block must dissipate energy");
        assert!(x.is_finite());
    }
}
