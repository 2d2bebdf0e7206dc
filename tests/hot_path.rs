//! Regression tests for the zero-allocation hot path: the workspace-reusing
//! solver entry point must be *bit-identical* to the fresh-workspace one on
//! the full harvester model, and the cached terminal factorisation must make
//! the engine's cost asymmetry observable through [`harvsim::core::solver`]'s
//! statistics.

mod common;

use common::HideStiff;
use harvsim::core::solver::{SolverOptions, SolverWorkspace, StateSpaceSolver};
use harvsim::ode::Trajectory;
use harvsim::{HarvesterParameters, ScenarioConfig, Simulation, TunableHarvester};

fn harvester() -> TunableHarvester {
    TunableHarvester::with_constant_excitation(HarvesterParameters::practical_device(), 70.0)
        .expect("harvester builds")
}

/// `solve` (fresh workspace per call) and `solve_into_with` (one workspace
/// reused across consecutive segments) must produce bit-identical trajectories
/// on the full `TunableHarvester`: the workspace changes where temporaries
/// live, never their values.
#[test]
fn workspace_path_is_bit_identical_on_the_full_harvester() {
    let h = harvester();
    let x0 = h.initial_state(2.5).expect("initial state");
    let options = SolverOptions { record_interval: 1e-3, ..Default::default() };
    let solver = StateSpaceSolver::new(options).expect("solver");

    // Reference: two consecutive segments through fresh workspaces.
    let first = solver.solve(&h, 0.0, 0.05, &x0).expect("first segment");
    let second = solver.solve(&h, 0.05, 0.1, &first.final_state).expect("second segment");

    // Same two segments through one reused workspace.
    let mut workspace = SolverWorkspace::new();
    let mut states = Trajectory::new();
    let mut terminals = Trajectory::new();
    let (mid, stats_a) = solver
        .solve_into_with(&h, 0.0, 0.05, &x0, &mut states, &mut terminals, &mut workspace)
        .expect("first segment (workspace)");
    let (end, stats_b) = solver
        .solve_into_with(&h, 0.05, 0.1, &mid, &mut states, &mut terminals, &mut workspace)
        .expect("second segment (workspace)");

    assert_eq!(mid, first.final_state, "segment-1 final state must match bit for bit");
    assert_eq!(end, second.final_state, "segment-2 final state must match bit for bit");
    assert_eq!(stats_a.steps, first.stats.steps);
    assert_eq!(stats_b.steps, second.stats.steps);
    assert_eq!(states.len(), first.states.len() + second.states.len());
    for (i, reference) in first.states.states().iter().chain(second.states.states()).enumerate() {
        assert_eq!(&states.states()[i], reference, "state sample {i}");
    }
    for (i, reference) in
        first.terminals.states().iter().chain(second.terminals.states()).enumerate()
    {
        assert_eq!(&terminals.states()[i], reference, "terminal sample {i}");
    }
}

/// On the assembled harvester the terminal sub-matrix `Jyy` is constant
/// between load-mode switches, so a whole analogue segment needs exactly one
/// LU factorisation while every step's Eq. 4 elimination hits the cache —
/// the asymmetry behind the paper's Table II, now visible in the statistics.
#[test]
fn harvester_steps_hit_the_cached_terminal_factorisation() {
    let h = harvester();
    let x0 = h.initial_state(2.5).expect("initial state");
    let solver = StateSpaceSolver::new(SolverOptions::default()).expect("solver");
    let result = solver.solve(&h, 0.0, 0.1, &x0).expect("segment");
    assert!(result.stats.steps > 100, "steps {}", result.stats.steps);
    assert_eq!(
        result.stats.factorisations, 1,
        "constant Jyy: one factorisation per segment, not one per step"
    );
    assert_eq!(result.stats.cached_solves, result.stats.steps);
    // The stability limit refreshes with relinearisations, orders of
    // magnitude less often than the step count.
    assert!(result.stats.stability_updates < result.stats.steps / 10);
    // Every accepted step is booked under exactly one Adams–Bashforth order,
    // and the stiff exponential lane is accounted separately (it rides along
    // on the same steps rather than double-booking the histogram).
    assert_eq!(result.stats.steps_by_order.iter().sum::<usize>(), result.stats.steps);
    assert_eq!(
        result.stats.stiff_exact_steps, result.stats.steps,
        "the harvester declares stiff interface states, so every partitioned step runs them exact"
    );
    // With the stiff interface poles priced out of the stability plan the
    // governor is free to ride the high-order regions: order 4 dominates the
    // partitioned march (DESIGN.md §7).
    assert!(
        result.stats.steps_by_order[3] > result.stats.steps / 2,
        "steps_by_order {:?}",
        result.stats.steps_by_order
    );
    // The constant-contract split skips the microgenerator's stamp on every
    // relinearisation (all steps but each segment's opening full stamp).
    assert!(
        result.stats.constant_stamps_skipped >= result.stats.steps - 1,
        "constant stamps skipped {} of {} steps",
        result.stats.constant_stamps_skipped,
        result.stats.steps
    );
}

/// For a system declaring no stiff states (the harvester seen through
/// `HideStiff`) the real rail/storage interface poles still bind the march,
/// so the governor rides the order-2 region (widest real-axis interval above
/// order 1) through the steady state of the assembled harvester
/// (DESIGN.md §6.2).
#[test]
fn imex_off_governor_still_rides_ab2_on_the_interface_poles() {
    let h = harvester();
    let x0 = h.initial_state(2.5).expect("initial state");
    let solver = StateSpaceSolver::new(SolverOptions::default()).expect("solver");
    let result = solver.solve(&HideStiff(&h), 0.0, 0.1, &x0).expect("segment");
    assert_eq!(result.stats.stiff_exact_steps, 0, "no stiff states, no exponential lane");
    assert!(
        result.stats.steps_by_order[1] > result.stats.steps / 2,
        "steps_by_order {:?}",
        result.stats.steps_by_order
    );
}

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
