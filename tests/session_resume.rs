//! Acceptance tests for session pause/resume: a run paused at arbitrary
//! `run_until` boundaries and resumed must be **bit-identical** to an
//! uninterrupted run — trajectories, final state, work statistics and control
//! actions — for both analogue engines.
//!
//! The property holds by construction (pausing keeps the in-flight march —
//! derivative history, step-ladder rung, stability plan, Newton iterate —
//! alive in the session and never truncates a step to land on the pause
//! time), and these tests pin it.

use std::time::Instant;

use harvsim::{BaselineOptions, ScenarioConfig, Simulation, SimulationEngine, WaveformProbe};

/// A short closed-loop scenario with enough digital activity (watchdog wakes,
/// a retune) that pauses land inside analogue segments, at segment
/// boundaries, and around control actions.
fn busy_scenario() -> ScenarioConfig {
    let mut scenario = ScenarioConfig::scenario1();
    scenario.duration_s = 0.9;
    scenario.frequency_step_time_s = 0.1;
    scenario.controller.watchdog_period_s = 0.25;
    scenario.controller.energy_threshold_v = 2.0;
    scenario.controller.measurement_duration_s = 0.05;
    scenario.controller.tuning_rate_hz_per_s = 10.0;
    scenario.controller.tuning_update_interval_s = 0.02;
    scenario
}

/// Runs the scenario through a session, pausing at every time in `pauses`
/// (plus a final run_to_end), with a dense capture probe at 1 ms. With no
/// pauses this is the uninterrupted reference run.
fn paused_run(
    scenario: &ScenarioConfig,
    pauses: &[f64],
) -> (harvsim::ode::Trajectory, harvsim::ode::Trajectory, harvsim::SessionReport) {
    let mut session = Simulation::from_config(scenario.clone()).start().expect("session starts");
    let capture = session.add_probe(WaveformProbe::new(1e-3));
    for &pause in pauses {
        let reached = session.run_until(pause).expect("segment runs");
        // Pausing overshoots to the next accepted boundary, never undershoots.
        assert!(reached >= pause.min(scenario.duration_s) - 1e-12, "paused at {reached}");
        assert!(!session.is_finished() || reached >= scenario.duration_s - 1e-9);
    }
    session.run_to_end().expect("run completes");
    assert!(session.is_finished());
    let report = session.report();
    let probe = session.probe::<WaveformProbe>(capture).expect("typed probe");
    (probe.states().clone(), probe.terminals().clone(), report)
}

fn assert_resume_is_bit_identical(scenario: ScenarioConfig) {
    // Reference: the uninterrupted dense run.
    let (reference_states, reference_terminals, reference) = paused_run(&scenario, &[]);

    // Pause points chosen to land mid-segment, across watchdog boundaries and
    // right next to the span end.
    let pauses = [0.013, 0.2501, 0.251, 0.4217, 0.75, 0.8999];
    let (states, terminals, report) = paused_run(&scenario, &pauses);

    assert_eq!(report.final_state, reference.final_state, "final states must match bit for bit");
    assert_eq!(states.len(), reference_states.len(), "same recorded grid");
    for (i, (sample, expected)) in states.states().iter().zip(reference_states.states()).enumerate()
    {
        assert_eq!(sample, expected, "state sample {i}");
    }
    for (i, (sample, expected)) in
        terminals.states().iter().zip(reference_terminals.states()).enumerate()
    {
        assert_eq!(sample, expected, "terminal sample {i}");
    }
    assert_eq!(states.times(), reference_states.times(), "sample times match");
    // Work statistics agree exactly: the paused run took the same steps.
    let ref_stats = &reference.engine_stats;
    assert_eq!(report.engine_stats.state_space.steps, ref_stats.state_space.steps);
    assert_eq!(
        report.engine_stats.state_space.steps_by_order,
        ref_stats.state_space.steps_by_order
    );
    assert_eq!(report.engine_stats.baseline.steps, ref_stats.baseline.steps);
    assert_eq!(
        report.engine_stats.baseline.newton_iterations,
        ref_stats.baseline.newton_iterations
    );
    // And the digital side saw the identical event/control sequence.
    assert_eq!(report.digital_events, reference.digital_events);
    assert_eq!(report.control_events, reference.control_events);
}

#[test]
fn state_space_resume_is_bit_identical() {
    assert_resume_is_bit_identical(busy_scenario());
}

#[test]
fn baseline_resume_is_bit_identical() {
    let mut scenario = busy_scenario();
    scenario.duration_s = 0.5; // the Newton baseline is ~7× slower per second
    scenario.engine = SimulationEngine::NewtonRaphson(BaselineOptions::default());
    assert_resume_is_bit_identical(scenario);
}

/// Single-stepping (the finest observation granularity) is just another pause
/// pattern: stepping all the way through must match the uninterrupted run.
#[test]
fn single_stepped_session_matches_the_uninterrupted_run() {
    let mut scenario = busy_scenario();
    scenario.duration_s = 0.3;
    let (reference_states, _, reference) = paused_run(&scenario, &[]);

    let mut session = Simulation::from_config(scenario.clone()).start().expect("session starts");
    let capture = session.add_probe(WaveformProbe::new(1e-3));
    let mut guard = 0usize;
    while !session.is_finished() {
        // A deadline already past: exactly one unit of work per call.
        session.run_until_deadline(f64::INFINITY, Some(Instant::now())).expect("step");
        guard += 1;
        assert!(guard < 500_000, "session failed to finish");
    }
    assert_eq!(session.report().final_state, reference.final_state);
    let probe = session.probe::<WaveformProbe>(capture).expect("typed probe");
    assert_eq!(probe.states().len(), reference_states.len());
}
