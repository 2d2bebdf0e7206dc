//! Integration tests for the partitioned stiff/non-stiff march (DESIGN.md §7).
//! The partition is whatever the system declares through `stiff_states()`;
//! the harvester seen through `common::HideStiff` declares none and so runs
//! the classic unpartitioned march. The partition machinery must be
//! inert for such systems, and the partitioned harvester march must agree
//! with the fine-stepped unpartitioned reference while taking far fewer
//! steps.

mod common;

use common::{dense_run, direct_mixed_loop, HideStiff};
use harvsim::core::solver::{SolverOptions, SolverWorkspace, StateSpaceSolver};
use harvsim::ode::Trajectory;
use harvsim::{HarvesterParameters, ScenarioConfig, TunableHarvester};

fn harvester() -> TunableHarvester {
    TunableHarvester::with_constant_excitation(HarvesterParameters::practical_device(), 70.0)
        .expect("harvester builds")
}

/// The partitioned march must stay close to the unpartitioned reference —
/// same physics, different integrator — while needing far fewer steps,
/// because the stiff interface poles no longer price the stability limit.
#[test]
fn partitioned_march_agrees_with_the_unpartitioned_reference_and_takes_fewer_steps() {
    let h = harvester();
    let x0 = h.initial_state(2.5).expect("initial state");
    let span = 0.1;

    let solver = StateSpaceSolver::new(SolverOptions::default()).expect("solver");
    let partitioned = solver.solve(&h, 0.0, span, &x0).expect("partitioned run");
    let reference = solver.solve(&HideStiff(&h), 0.0, span, &x0).expect("reference run");

    // On this short start-up transient the margin is modest (the conduction
    // inrush dominates); full scenarios halve the step count (see
    // `closed_loop_scenario_retunes_identically_under_both_integrators`).
    assert!(
        partitioned.stats.steps * 10 < reference.stats.steps * 8,
        "partitioned {} steps vs unpartitioned {}",
        partitioned.stats.steps,
        reference.stats.steps
    );
    assert_eq!(partitioned.stats.stiff_exact_steps, partitioned.stats.steps);
    // Supercapacitor branch voltages (the Table II observable) agree to well
    // under the cross-engine acceptance band.
    let offset = h.supercap_state_offset();
    for branch in 0..3 {
        let a = partitioned.final_state[offset + branch];
        let b = reference.final_state[offset + branch];
        assert!((a - b).abs() < 2e-4, "branch {branch}: partitioned {a} vs reference {b}");
    }
    // The binding step-limit eigenvalue is no longer the −4.1e4 s⁻¹
    // storage/rail interface pole: either nothing constrains the step below
    // the cap, or a slower physical pole does.
    assert!(
        partitioned.stats.binding_pole[0].abs() < 3.0e4,
        "binding pole {:?} still looks like the interface pole",
        partitioned.stats.binding_pole
    );
    // The unpartitioned march, by contrast, is pinned by the interface pole.
    assert!(
        reference.stats.binding_pole[0].abs() > 3.0e4,
        "unpartitioned binding pole {:?}",
        reference.stats.binding_pole
    );
}

/// End-to-end closed-loop scenario check: the partitioned engine drives the
/// same control trajectory (retune to the new ambient frequency) as the
/// unpartitioned march of the same closed loop, and its stats record the
/// partition's activity.
#[test]
fn closed_loop_scenario_retunes_identically_under_both_integrators() {
    let mut scenario = ScenarioConfig::scenario1();
    scenario.duration_s = 1.6;
    scenario.frequency_step_time_s = 0.05;
    scenario.controller.watchdog_period_s = 0.4;
    scenario.controller.energy_threshold_v = 2.0;
    scenario.controller.measurement_duration_s = 0.05;
    scenario.controller.tuning_rate_hz_per_s = 10.0;
    scenario.controller.tuning_update_interval_s = 0.02;

    let partitioned = dense_run(&scenario);
    let solver = StateSpaceSolver::new(SolverOptions::default()).expect("solver");
    let mut unpartitioned = scenario.build_harvester().expect("harvester");
    let (_, _, _, reference_steps, _) = direct_mixed_loop(
        &mut unpartitioned,
        scenario.controller,
        &solver,
        scenario.duration_s,
        scenario.initial_supercap_voltage,
        true,
    );

    let tuned = partitioned.harvester.resonant_frequency_hz();
    let tuned_reference = unpartitioned.resonant_frequency_hz();
    assert!((tuned - 71.0).abs() < 0.2, "partitioned retune ended at {tuned}");
    assert!((tuned - tuned_reference).abs() < 0.1, "engines disagree on the retune");
    let stats = partitioned.report.engine_stats.state_space;
    assert_eq!(stats.stiff_exact_steps, stats.steps);
    assert!(stats.constant_stamps_skipped > 0);
    assert!(stats.steps < reference_steps / 2);
}

/// The IMEX switch is the system's own `stiff_states()` declaration. A system
/// that declares none leaves every partition counter at zero, and a workspace
/// that just ran the partitioned march carries nothing of the partition into
/// the next segment: marching the unpartitioned view through it is
/// bit-identical to a fresh-workspace march. The machinery must be inert, not
/// merely close.
#[test]
fn imex_flag_is_inert_for_systems_without_stiff_states() {
    let h = harvester();
    let hidden = HideStiff(&h);
    let x0 = h.initial_state(2.5).expect("initial state");
    let solver = StateSpaceSolver::new(SolverOptions::default()).expect("solver");
    let fresh = solver.solve(&hidden, 0.0, 0.05, &x0).expect("unpartitioned march");

    let mut workspace = SolverWorkspace::new();
    let (mut states, mut terminals) = (Trajectory::new(), Trajectory::new());
    let (_, partitioned) = solver
        .solve_into_with(&h, 0.0, 0.05, &x0, &mut states, &mut terminals, &mut workspace)
        .expect("partitioned march");
    assert_eq!(partitioned.stiff_exact_steps, partitioned.steps);
    let (mut states, mut terminals) = (Trajectory::new(), Trajectory::new());
    let (reused, stats) = solver
        .solve_into_with(&hidden, 0.0, 0.05, &x0, &mut states, &mut terminals, &mut workspace)
        .expect("unpartitioned march through the reused workspace");

    assert_eq!(reused, fresh.final_state);
    assert_eq!(stats.steps, fresh.stats.steps);
    assert_eq!(stats.steps_by_order, fresh.stats.steps_by_order);
    assert_eq!(stats.stiff_exact_steps, 0);
    assert_eq!(fresh.stats.stiff_exact_steps, 0);
    assert_eq!(states.states(), fresh.states.states());
}
