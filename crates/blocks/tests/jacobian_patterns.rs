//! The structural-pattern contract, checked mechanically: every shipped
//! block's declared [`JacobianPattern`] must contain every entry its
//! `linearise_into` writes anything but `+0.0` to, at random operating points
//! and in every configuration the block can be switched to — the Dickson
//! multiplier at 2–6 stages with table and exact companions, the
//! supercapacitor in all three load modes, the microgenerator retuned. The
//! assembler restamps and monitors only the pattern, so an entry missing
//! from it would silently freeze at its segment-opening value.

use harvsim_blocks::{
    DicksonMultiplier, FrequencyProfile, HarvesterParameters, JacobianPattern, LoadMode,
    LocalLinearisation, Microgenerator, StateSpaceBlock, Supercapacitor, VibrationExcitation,
};
use harvsim_linalg::DVector;
use proptest::prelude::*;

/// Linearises `block` at `(t, x, y)` through `linearise_into` on a buffer
/// prefilled with garbage (the stamp must write every entry it owns) and
/// checks the result against the pattern declared at construction.
fn assert_admitted(block: &dyn StateSpaceBlock, pattern: &JacobianPattern, t: f64, x: &DVector) {
    let y = DVector::from_fn(block.terminal_count(), |i| 0.3 * i as f64 - 0.1);
    let mut lin = LocalLinearisation::zeros(
        block.state_count(),
        block.terminal_count(),
        block.constraint_count(),
    );
    for matrix in [&mut lin.a, &mut lin.b, &mut lin.c, &mut lin.d] {
        matrix.fill(-7.5);
    }
    block.linearise_into(t, x, &y, &mut lin);
    assert!(
        pattern.admits(&lin),
        "{} stamped outside its declared pattern at t = {t}, x = {:?}",
        block.name(),
        x.as_slice()
    );
}

fn load_mode(index: usize) -> LoadMode {
    [LoadMode::Sleep, LoadMode::McuAwake, LoadMode::Tuning][index]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Dickson ladder at 2–6 stages over the harvester's table sizes,
    /// table or exact companions, with node voltages spanning deep reverse
    /// bias through hard conduction.
    #[test]
    fn dickson_pattern_covers_every_stamp(
        stages in 2usize..=6,
        table in 0usize..4,
        exact in 0usize..2,
        states in prop::collection::vec(-4.0f64..4.0, 7),
        spread in 0usize..4,
    ) {
        let mut params = HarvesterParameters::practical_device();
        params.multiplier_stages = stages;
        params.diode_table_segments = [16, 150, 600, 1023][table];
        let mut block = DicksonMultiplier::new(&params).unwrap();
        let pattern = block.jacobian_pattern();
        block.set_exact_companions(exact == 1);
        // Node voltages from millivolt ripples (inside the knee grid) to
        // volts (deep reverse and conduction).
        let spread = [1e-3, 0.05, 0.3, 2.0][spread];
        let x = DVector::from_fn(stages + 1, |i| spread * states[i]);
        assert_admitted(&block, &pattern, 0.0, &x);
    }

    /// The supercapacitor in every load mode, across the voltage range the
    /// Zubieta capacitance term switches on at (`V_i ≥ 0`).
    #[test]
    fn supercapacitor_pattern_covers_every_load_mode(
        mode in 0usize..3,
        states in prop::collection::vec(-1.0f64..4.0, 3),
    ) {
        let mut block = Supercapacitor::new(&HarvesterParameters::practical_device()).unwrap();
        let pattern = block.jacobian_pattern();
        block.set_load_mode(load_mode(mode));
        assert_admitted(&block, &pattern, 0.0, &DVector::from_slice(&states));
    }

    /// The microgenerator at any tuning force and excitation time.
    #[test]
    fn microgenerator_pattern_covers_every_tuning(
        frequency in 60.0f64..90.0,
        t in 0.0f64..10.0,
        states in prop::collection::vec(-1.0f64..1.0, 3),
    ) {
        let params = HarvesterParameters::practical_device();
        let excitation = VibrationExcitation::new(
            params.acceleration_amplitude,
            FrequencyProfile::Constant { frequency_hz: 70.0 },
        )
        .unwrap();
        let mut block = Microgenerator::new(&params, excitation).unwrap();
        let pattern = block.jacobian_pattern();
        block.set_resonant_frequency(frequency);
        assert_admitted(&block, &pattern, t, &DVector::from_slice(&states));
    }
}
