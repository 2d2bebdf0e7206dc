//! Integration tests of the closed-loop tuning behaviour (microcontroller +
//! actuator + analogue model) and of the resonance physics of Eq. 12.

use harvsim::blocks::ControllerConfig;
use harvsim::{HarvesterParameters, LoadMode, ScenarioConfig, Simulation};

#[test]
fn closed_loop_retunes_to_the_new_ambient_frequency() {
    // A fast controller so the whole loop fits in a debug-build test.
    let mut scenario = ScenarioConfig::scenario1();
    scenario.duration_s = 1.2;
    scenario.frequency_step_time_s = 0.05;
    scenario.initial_supercap_voltage = 2.6;
    scenario.controller = ControllerConfig {
        watchdog_period_s: 0.3,
        energy_threshold_v: 2.0,
        frequency_tolerance_hz: 0.25,
        measurement_duration_s: 0.05,
        tuning_rate_hz_per_s: 10.0,
        tuning_update_interval_s: 0.02,
    };
    let mut session = Simulation::from_config(scenario).start().expect("session");
    session.run_to_end().expect("run");
    let harvester = session.harvester();

    assert!(
        (harvester.resonant_frequency_hz() - 71.0).abs() < 0.2,
        "resonance should track the ambient frequency, got {}",
        harvester.resonant_frequency_hz()
    );
    assert_eq!(harvester.load_mode(), LoadMode::Sleep, "the run ends back in sleep mode");
    assert!(!session.control_events().is_empty());
    // The recorded control events show the Eq. 16 load modes being exercised.
    assert!(session
        .control_events()
        .iter()
        .any(|event| event.load_mode == LoadMode::Tuning || event.load_mode == LoadMode::Sleep));
}

#[test]
fn insufficient_energy_defers_tuning() {
    let mut scenario = ScenarioConfig::scenario1();
    scenario.duration_s = 0.5;
    scenario.frequency_step_time_s = 0.05;
    scenario.initial_supercap_voltage = 0.8; // well below the 2.2 V threshold
    scenario.controller.watchdog_period_s = 0.2;
    let mut session = Simulation::from_config(scenario).start().expect("session starts");
    session.run_to_end().expect("scenario runs");
    assert!(
        (session.harvester().resonant_frequency_hz() - 70.0).abs() < 1e-9,
        "no tuning should happen with an empty store"
    );
}

#[test]
fn eq12_tuning_relation_holds_in_the_model() {
    let params = HarvesterParameters::practical_device();
    // Round-trip through Eq. 12 for the paper's maximum 14 Hz shift.
    let force = params.tuning_force_for_frequency(84.0);
    assert!(force > 0.0 && force <= params.max_tuning_force);
    let back = params.tuned_frequency_for_force(force);
    assert!((back - 84.0).abs() < 1e-9);
    // The effective stiffness scales with the square of the frequency ratio.
    let mut harvester =
        harvsim::TunableHarvester::with_constant_excitation(params.clone(), 70.0).expect("builds");
    harvester.set_resonant_frequency(77.0);
    let ratio = harvester.microgenerator().effective_stiffness() / params.spring_stiffness();
    assert!((ratio - (77.0f64 / 70.0).powi(2)).abs() < 1e-6);
}
