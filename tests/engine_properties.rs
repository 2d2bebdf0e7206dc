//! Property-based integration tests of the simulation engine's key invariants:
//! stability of accepted steps (Eq. 7), consistency of terminal elimination
//! (Eq. 4) and robustness of the assembled model across parameter variations.

mod common;

use harvsim::core::assembly::AnalogueSystem;
use harvsim::linalg::{eigen, DMatrix, DVector};
use harvsim::{HarvesterParameters, TunableHarvester};
use proptest::prelude::*;

fn harvester_with(mass_scale: f64, cap_scale: f64, frequency: f64) -> TunableHarvester {
    let mut params = HarvesterParameters::practical_device();
    params.proof_mass *= mass_scale;
    params.stage_capacitance *= cap_scale;
    TunableHarvester::with_constant_excitation(params, frequency).expect("harvester builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Eq. 4 consistency: whatever the operating point, the terminal vector
    /// returned by the elimination step satisfies the algebraic constraints.
    #[test]
    fn terminal_elimination_satisfies_the_constraints(
        mass_scale in 0.5f64..2.0,
        cap_scale in 0.5f64..2.0,
        frequency in 55.0f64..90.0,
        supercap_v in 0.5f64..3.0,
    ) {
        let harvester = harvester_with(mass_scale, cap_scale, frequency);
        let x = harvester.initial_state(supercap_v).expect("initial state");
        let y_guess = DVector::zeros(harvester.net_count());
        let lin = harvester.linearise_global(0.0, &x, &y_guess).expect("linearisation");
        let y = lin.solve_terminals(&x).expect("elimination");
        // Residual of the algebraic part: Jyx·x + Jyy·y + g ≈ 0.
        let mut residual = lin.jyx.mul_vector(&x);
        residual += &lin.jyy.mul_vector(&y);
        residual += &lin.gy;
        prop_assert!(residual.norm_inf() < 1e-6, "constraint residual {}", residual.norm_inf());
    }

    /// Eq. 7: the step limit chosen by the engine's stability rules keeps the
    /// spectral radius of I + h·A inside the unit circle (up to round-off).
    #[test]
    fn stability_rules_respect_eq7(
        mass_scale in 0.5f64..2.0,
        frequency in 55.0f64..90.0,
    ) {
        let harvester = harvester_with(mass_scale, 1.0, frequency);
        let x = harvester.initial_state(2.5).expect("initial state");
        let y_guess = DVector::zeros(harvester.net_count());
        let lin = harvester.linearise_global(0.0, &x, &y_guess).expect("linearisation");
        let a = lin.total_step_matrix().expect("total-step matrix");
        let rule = harvsim::ode::stability::StabilityRule::SpectralRadius { safety: 0.8 };
        if let Some(h) = harvsim::ode::stability::max_stable_step(&a, rule).expect("rule") {
            if h > 0.0 {
                let m = &DMatrix::identity(a.rows()) + &a.scaled(h);
                let rho = eigen::spectral_radius(&m).expect("spectral radius");
                prop_assert!(rho < 1.0 + 1e-6, "rho(I + hA) = {rho} at h = {h}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Bootstrap invariant: across initial store charges and step times, a
    /// short Scenario-1 run keeps the supercapacitor voltage finite and
    /// non-negative at every recorded sample (the store is passive — nothing
    /// in the model can drive it below ground).
    #[test]
    fn supercap_voltage_stays_physical_in_short_runs(
        initial_v in 0.5f64..3.2,
        step_fraction in 0.2f64..0.7,
    ) {
        let mut scenario = harvsim::ScenarioConfig::scenario1();
        scenario.duration_s = 0.15;
        scenario.frequency_step_time_s = scenario.duration_s * step_fraction;
        scenario.initial_supercap_voltage = initial_v;
        let outcome = common::dense_run(&scenario);
        let offset = outcome.harvester.supercap_state_offset();
        prop_assert!(outcome.states.len() > 10, "too few samples recorded");
        for (t, state) in outcome.states.times().iter().zip(outcome.states.states()) {
            for branch in 0..3 {
                let v = state[offset + branch];
                prop_assert!(v.is_finite(), "branch {branch} non-finite at t = {t}");
                prop_assert!(v >= -1e-9, "branch {branch} went negative ({v}) at t = {t}");
            }
        }
    }
}

#[test]
fn assembled_model_is_passive_at_rest() {
    // With no excitation-phase energy yet injected (t = 0 crossing), all
    // eigenvalues of the total-step matrix must lie in the closed left half
    // plane: the analogue blocks are passive, the property the paper relies on
    // for its diagonal-dominance argument.
    let harvester = harvester_with(1.0, 1.0, 70.0);
    let x = harvester.initial_state(2.5).expect("initial state");
    let y_guess = DVector::zeros(harvester.net_count());
    let lin = harvester.linearise_global(0.0, &x, &y_guess).expect("linearisation");
    let a = lin.total_step_matrix().expect("total-step matrix");
    let eigs = eigen::eigenvalues(&a).expect("eigenvalues");
    for eig in eigs {
        assert!(eig.re <= 1e-6, "unstable analogue mode: {} + {}i", eig.re, eig.im);
    }
}
