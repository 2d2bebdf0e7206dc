//! Cross-crate integration tests: the complete harvester model driven through
//! the public `harvsim` API.
//!
//! Spans are kept short (fractions of a second) because these tests run in
//! debug builds; the release-mode benches and the `repro` binary exercise the
//! longer paper-scale spans.

mod common;

use common::dense_run;
use harvsim::core::measurement;
use harvsim::{
    BaselineOptions, HarvesterParameters, ScenarioConfig, SimulationEngine, SolverOptions,
    TunableHarvester,
};

fn short_scenario1() -> ScenarioConfig {
    let mut scenario = ScenarioConfig::scenario1();
    scenario.duration_s = 0.3;
    scenario.frequency_step_time_s = 0.1;
    scenario
}

#[test]
fn complete_model_has_the_papers_dimensions() {
    use harvsim::core::assembly::AnalogueSystem;
    let harvester =
        TunableHarvester::with_constant_excitation(HarvesterParameters::practical_device(), 70.0)
            .expect("harvester builds");
    assert_eq!(
        harvester.state_count(),
        12,
        "the paper's 11x11 state matrix plus the rail-capacitance state (DESIGN.md §3.2)"
    );
    assert_eq!(harvester.net_count(), 4, "Vm, Im, Vc, Ic terminal variables");
}

#[test]
fn scenario1_generates_power_and_holds_the_store_voltage() {
    let scenario = short_scenario1();
    let outcome = dense_run(&scenario);
    let vm = outcome.harvester.generator_voltage_net();
    let im = outcome.harvester.generator_current_net();
    let report =
        measurement::power_report(&outcome.terminals, vm, im, scenario.frequency_step_time_s)
            .expect("power report");
    // The operating point targets roughly 100 uW of generated power; accept a
    // generous band since the span is very short.
    assert!(
        report.rms_before_uw > 5.0 && report.rms_before_uw < 1000.0,
        "RMS power before the step = {} uW",
        report.rms_before_uw
    );
    let vc = outcome.harvester.storage_voltage_net();
    let store = measurement::supercap_voltage_waveform(&outcome.terminals, vc);
    assert!(store.iter().all(|(_, v)| *v > 2.0 && *v < 3.5), "store voltage stays physical");
}

#[test]
fn proposed_and_baseline_engines_agree_on_the_waveforms() {
    let scenario = short_scenario1();
    let proposed = dense_run(&scenario);
    let baseline = dense_run(
        &scenario.clone().with_engine(SimulationEngine::NewtonRaphson(BaselineOptions::default())),
    );
    let vc = proposed.harvester.storage_voltage_net();
    let accuracy =
        measurement::compare_component(&proposed.terminals, &baseline.terminals, vc, 400)
            .expect("waveforms compare");
    assert!(
        accuracy.max_deviation < 0.05,
        "supercap-voltage deviation between engines = {} V",
        accuracy.max_deviation
    );
    let proposed_cpu = proposed.report.engine_stats.state_space.cpu_time;
    let baseline_cpu = baseline.report.engine_stats.baseline.cpu_time;
    assert!(
        baseline_cpu > proposed_cpu,
        "state-space engine must be faster: {proposed_cpu:?} vs baseline {baseline_cpu:?}"
    );
}

#[test]
fn engine_choice_is_configurable_through_the_public_api() {
    let scenario =
        short_scenario1().with_engine(SimulationEngine::NewtonRaphson(BaselineOptions::default()));
    let outcome = dense_run(&scenario);
    assert!(outcome.report.engine_stats.baseline.steps > 0);
    assert_eq!(outcome.report.engine_stats.state_space.steps, 0);

    let scenario = short_scenario1().with_engine(SimulationEngine::StateSpace(SolverOptions {
        ab_order: 2,
        ..Default::default()
    }));
    let outcome = dense_run(&scenario);
    assert!(outcome.report.engine_stats.state_space.steps > 0);
}

#[test]
fn experimental_surrogate_diverges_but_stays_correlated() {
    let scenario = short_scenario1();
    let simulation = dense_run(&scenario);
    let surrogate = dense_run(&scenario.experimental_surrogate());
    let vc = simulation.harvester.storage_voltage_net();
    let comparison =
        measurement::compare_component(&simulation.terminals, &surrogate.terminals, vc, 200)
            .expect("waveforms compare");
    // The surrogate has leakage and extra damping, so it must differ a little —
    // but not wildly (the paper's Fig. 8(b)/9 show close correlation).
    assert!(comparison.max_deviation > 0.0);
    assert!(comparison.max_deviation < 0.3, "deviation {} V", comparison.max_deviation);
}
