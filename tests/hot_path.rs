//! Regression test for the zero-allocation hot path on a closed loop: the
//! cached terminal factorisation keeps the engine's cost asymmetry observable
//! through the session's solver statistics. The per-segment pins (fresh vs
//! reused workspace bit-identity, the cached-`Jyy` counts on one segment, the
//! unpartitioned governor) are `harvsim-core` `solver::tests`, which drive
//! the march directly.

use harvsim::{ScenarioConfig, Simulation};

/// The closed-loop scenario (digital controller switching load modes) still
/// only refactorises when `Jyy` actually changes: factorisations stay within
/// a small multiple of the number of analogue segments.
#[test]
fn closed_loop_factorisations_scale_with_segments_not_steps() {
    let mut scenario = ScenarioConfig::scenario1();
    scenario.duration_s = 0.4;
    scenario.frequency_step_time_s = 0.1;
    let mut session = Simulation::from_config(scenario).start().expect("session starts");
    session.run_to_end().expect("scenario runs");
    let stats = session.report().engine_stats.state_space;
    assert!(stats.steps > 500, "steps {}", stats.steps);
    assert!(
        stats.factorisations < stats.steps / 50,
        "factorisations {} vs steps {}",
        stats.factorisations,
        stats.steps
    );
    assert_eq!(stats.cached_solves + stats.factorisations, stats.linearisations);
}
