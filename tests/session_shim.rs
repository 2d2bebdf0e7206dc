//! Acceptance pins for the streaming session: a sweep point run with
//! streaming probes only allocates no dense trajectory — its probe footprint
//! is a few hundred bytes, independent of the simulated span, while the dense
//! capture's grows with it; observation never perturbs the solution; and the
//! streaming power probe agrees with the post-hoc report over the dense
//! capture. The bit-identity of a session with the segment loop written out
//! directly is `harvsim-core`'s
//! `session::tests::session_matches_the_direct_segment_loop_bit_for_bit`.

mod common;

use common::dense_run;
use harvsim::core::measurement;
use harvsim::{EnvelopeProbe, PowerProbe, ScenarioConfig, Simulation, StepHistogramProbe};

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
