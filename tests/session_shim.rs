//! Acceptance pin for the dense session: a `Session` observed by one
//! `WaveformProbe` at the engine's record interval must produce
//! **bit-identical** trajectories and work statistics to the direct
//! pre-session mixed-signal loop — reimplemented in `tests/common` exactly as
//! the pre-session driver had it: one kernel, one solver workspace, `solve_into_with`
//! per analogue segment, control actions applied between segments.
//!
//! Plus the streaming-memory half of the acceptance criteria: a sweep point
//! run with streaming probes only allocates no dense trajectory — its probe
//! footprint is a few hundred bytes, independent of the simulated span, while
//! the dense capture's grows with it.

mod common;

use common::{dense_run, direct_mixed_loop};
use harvsim::core::measurement;
use harvsim::core::StateSpaceSolver;
use harvsim::{
    EnvelopeProbe, PowerProbe, ScenarioConfig, Simulation, SimulationEngine, StepHistogramProbe,
};

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

/// The headline pin: a scenario run as a dense session — what the
/// run-to-completion shim used to build — ≡ the direct pre-session loop, bit
/// for bit.
#[test]
fn scenario_run_through_the_shim_matches_the_direct_pr4_loop() {
    let scenario = busy_scenario();
    let dense = dense_run(&scenario);

    let solver_options = match scenario.engine {
        SimulationEngine::StateSpace(options) => options,
        SimulationEngine::NewtonRaphson(_) => unreachable!("scenario1 defaults to state-space"),
    };
    let solver = StateSpaceSolver::new(solver_options).expect("solver");
    let mut harvester = scenario.build_harvester().expect("harvester");
    let (states, terminals, final_state, steps, control_events) = direct_mixed_loop(
        &mut harvester,
        scenario.controller,
        &solver,
        scenario.duration_s,
        scenario.initial_supercap_voltage,
        false,
    );

    assert_eq!(dense.report.final_state, final_state, "final state must match bit for bit");
    assert_eq!(dense.report.engine_stats.state_space.steps, steps, "same accepted steps");
    assert_eq!(dense.states.len(), states.len(), "same recorded grid");
    assert_eq!(dense.states.times(), states.times());
    for (i, (sample, expected)) in dense.states.states().iter().zip(states.states()).enumerate() {
        assert_eq!(sample, expected, "state sample {i}");
    }
    for (i, (sample, expected)) in
        dense.terminals.states().iter().zip(terminals.states()).enumerate()
    {
        assert_eq!(sample, expected, "terminal sample {i}");
    }
    // Identical control trajectory (time, mode, frequency per action).
    assert_eq!(dense.report.control_events.len(), control_events.len());
    for (event, (time, mode, hz)) in dense.report.control_events.iter().zip(&control_events) {
        assert_eq!(event.time_s, *time);
        assert_eq!(event.load_mode, *mode);
        assert_eq!(event.resonant_frequency_hz, *hz);
    }
    // And the retuned harvester ends in the same place.
    assert_eq!(dense.harvester.resonant_frequency_hz(), harvester.resonant_frequency_hz());
    assert_eq!(dense.harvester.load_mode(), harvester.load_mode());
}

/// Streaming-memory acceptance: a sweep point observed only by streaming
/// probes retains a constant few hundred bytes regardless of the simulated
/// span, while the dense capture's footprint grows with it — no dense
/// `Trajectory` exists anywhere on the streaming path.
#[test]
fn streaming_sweep_points_never_materialise_dense_trajectories() {
    let streaming_peak = |duration: f64| {
        let mut scenario = busy_scenario();
        scenario.duration_s = duration;
        let mut session = Simulation::from_config(scenario).start().expect("session");
        let vc = session.harvester().storage_voltage_net();
        session.add_probe(EnvelopeProbe::terminal(vc));
        session.add_probe(StepHistogramProbe::new());
        session.run_to_end().expect("runs");
        session.report().peak_probe_bytes
    };
    let short = streaming_peak(0.3);
    let long = streaming_peak(0.9);
    assert_eq!(short, long, "streaming probe memory must be span-independent");
    assert!(short < 4096, "streaming probes stay in the hundreds of bytes: {short}");

    // The dense capture, by contrast, retains O(recorded samples).
    let mut scenario = busy_scenario();
    scenario.duration_s = 0.9;
    let dense = dense_run(&scenario);
    assert!(
        dense.report.peak_probe_bytes > 10 * long,
        "dense capture {} B should dwarf streaming {} B",
        dense.report.peak_probe_bytes,
        long
    );
}

/// The perf-gate criterion "passes with probes attached" in microcosm:
/// attaching streaming probes must not change the computed trajectory at all
/// (observation is read-only), so the probed session's final state matches
/// an unobserved session bit for bit.
#[test]
fn attached_probes_do_not_perturb_the_solution() {
    let scenario = busy_scenario();
    let mut unobserved = Simulation::from_config(scenario.clone()).start().expect("session");
    unobserved.run_to_end().expect("runs");
    let reference = unobserved.report();
    let mut session = Simulation::from_config(scenario).start().expect("session");
    let vc = session.harvester().storage_voltage_net();
    session.add_probe(EnvelopeProbe::terminal(vc));
    session.add_probe(StepHistogramProbe::new());
    session.run_to_end().expect("runs");
    assert_eq!(session.report().final_state, reference.final_state);
    assert_eq!(
        session.report().engine_stats.state_space.steps,
        reference.engine_stats.state_space.steps
    );
}

/// The streaming `PowerProbe` subsumes the post-hoc `power_report` walk: on
/// the same run its windows agree with the dense-trajectory computation to
/// within the decimation error of the recorded grid (the probe integrates
/// every accepted step; `power_report` re-walks the 1 ms recording).
#[test]
fn streaming_power_probe_agrees_with_the_post_hoc_report() {
    let mut scenario = busy_scenario();
    scenario.duration_s = 1.2;
    scenario.frequency_step_time_s = 0.3;
    let dense = dense_run(&scenario);
    let vm = dense.harvester.generator_voltage_net();
    let im = dense.harvester.generator_current_net();
    let reference =
        measurement::power_report(&dense.terminals, vm, im, scenario.frequency_step_time_s)
            .expect("post-hoc report");

    let mut session = Simulation::from_config(scenario.clone()).start().expect("session");
    let probe = session.add_probe(PowerProbe::new(
        vm,
        im,
        scenario.frequency_step_time_s,
        scenario.duration_s,
    ));
    session.run_to_end().expect("runs");
    let streaming = session.probe::<PowerProbe>(probe).expect("typed probe").report();

    let close = |a: f64, b: f64| (a - b).abs() <= 0.15 * a.abs().max(b.abs()) + 1.0;
    assert!(
        close(streaming.rms_before_uw, reference.rms_before_uw),
        "before: streaming {} vs post-hoc {}",
        streaming.rms_before_uw,
        reference.rms_before_uw
    );
    assert!(
        close(streaming.rms_after_uw, reference.rms_after_uw),
        "after: streaming {} vs post-hoc {}",
        streaming.rms_after_uw,
        reference.rms_after_uw
    );
    assert!(
        close(streaming.dip_uw, reference.dip_uw),
        "dip: streaming {} vs post-hoc {}",
        streaming.dip_uw,
        reference.dip_uw
    );
}
