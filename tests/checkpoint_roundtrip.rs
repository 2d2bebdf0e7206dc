//! Durable checkpoint round-trip battery: `save → load → resume` must be
//! **bit-identical** to an uninterrupted run — trajectories, final state,
//! work statistics, digital events and control actions — for random pause
//! points and both analogue engines. This generalises
//! `tests/session_resume.rs` (in-memory pause/resume) to the serialised
//! path: the session is checkpointed to bytes, dropped, and rebuilt from the
//! bytes alone. Only the wall-clock `cpu_time` statistics are excluded from
//! the comparison — they measure the host, not the model — and billing
//! continuity is asserted separately (totals carried across the restore are
//! monotone and end at the full-run total).

use std::sync::OnceLock;

use harvsim::core::session::{ControlEvent, EngineStats};
use harvsim::linalg::DVector;
use harvsim::ode::Trajectory;
use harvsim::{
    BaselineOptions, ScenarioConfig, Session, Simulation, SimulationEngine, WaveformProbe,
};
use proptest::prelude::*;

/// The comparable outcome of an uninterrupted run — a `Sync` extract of the
/// finished session (which owns the harvester and is not shareable across
/// the proptest cases).
struct Reference {
    states: Trajectory,
    terminals: Trajectory,
    final_state: DVector,
    engine_stats: EngineStats,
    digital_events: u64,
    control_events: Vec<ControlEvent>,
}

fn reference_for(scenario: &ScenarioConfig) -> Reference {
    let mut session = Simulation::from_config(scenario.clone()).start().expect("session starts");
    let capture = session.add_probe(WaveformProbe::new(RECORD_INTERVAL_S));
    session.run_to_end().expect("reference run");
    let report = session.report();
    let probe = session.probe::<WaveformProbe>(capture).expect("typed probe");
    Reference {
        states: probe.states().clone(),
        terminals: probe.terminals().clone(),
        final_state: report.final_state,
        engine_stats: report.engine_stats,
        digital_events: report.digital_events,
        control_events: report.control_events,
    }
}

/// A short closed-loop scenario with enough digital activity (watchdog
/// wakes, a retune) that random pause points land mid-segment, at segment
/// boundaries, and around control actions.
fn busy_scenario() -> ScenarioConfig {
    let mut scenario = ScenarioConfig::scenario1();
    scenario.duration_s = 0.5;
    scenario.frequency_step_time_s = 0.1;
    scenario.controller.watchdog_period_s = 0.15;
    scenario.controller.energy_threshold_v = 2.0;
    scenario.controller.measurement_duration_s = 0.05;
    scenario.controller.tuning_rate_hz_per_s = 10.0;
    scenario.controller.tuning_update_interval_s = 0.02;
    scenario
}

/// Sample spacing of every dense capture in this battery, in seconds.
const RECORD_INTERVAL_S: f64 = 1e-3;

/// Engine statistics comparison, exact on every counter except the
/// wall-clock `cpu_time` fields.
fn assert_stats_match_sans_cpu(label: &str, a: &EngineStats, b: &EngineStats) {
    assert_eq!(a.state_space.steps, b.state_space.steps, "{label}: steps");
    assert_eq!(a.state_space.linearisations, b.state_space.linearisations, "{label}");
    assert_eq!(a.state_space.factorisations, b.state_space.factorisations, "{label}");
    assert_eq!(a.state_space.cached_solves, b.state_space.cached_solves, "{label}");
    assert_eq!(a.state_space.stability_updates, b.state_space.stability_updates, "{label}");
    assert_eq!(a.state_space.steps_by_order, b.state_space.steps_by_order, "{label}");
    assert_eq!(a.state_space.stiff_exact_steps, b.state_space.stiff_exact_steps, "{label}");
    assert_eq!(
        a.state_space.constant_stamps_skipped, b.state_space.constant_stamps_skipped,
        "{label}"
    );
    assert_eq!(a.state_space.pwl_stamps_skipped, b.state_space.pwl_stamps_skipped, "{label}");
    assert_eq!(a.state_space.binding_pole, b.state_space.binding_pole, "{label}");
    assert_eq!(a.state_space.max_jacobian_change, b.state_space.max_jacobian_change, "{label}");
    assert_eq!(a.baseline.steps, b.baseline.steps, "{label}: baseline steps");
    assert_eq!(a.baseline.newton_iterations, b.baseline.newton_iterations, "{label}");
    assert_eq!(a.baseline.factorisations, b.baseline.factorisations, "{label}");
}

/// Runs the scenario with checkpoint/drop/restore cycles at the two pause
/// fractions and asserts the outcome is bit-identical to `reference`.
fn assert_durable_roundtrip(scenario: &ScenarioConfig, reference: &Reference, pauses: [f64; 2]) {
    let mut session = Simulation::from_config(scenario.clone()).start().expect("session starts");
    let mut probe_id = session.add_probe(WaveformProbe::new(RECORD_INTERVAL_S));
    let mut billed_floor = std::time::Duration::ZERO;
    for fraction in pauses {
        let pause = fraction * scenario.duration_s;
        session.run_until(pause).expect("runs to the pause point");
        // Save, drop the live session entirely, rebuild from bytes alone.
        let bytes = session.checkpoint().expect("checkpoint serialises");
        drop(session);
        let (restored, ids) = Session::restore_with_probes(
            &bytes,
            vec![Box::new(WaveformProbe::new(RECORD_INTERVAL_S))],
        )
        .expect("checkpoint restores");
        assert_eq!(ids.len(), 1);
        probe_id = ids[0];
        // Billing continuity: the carried engine-time total never regresses
        // across a save/restore boundary.
        let billed = restored.report().engine_time();
        assert!(billed >= billed_floor, "billing went backwards across restore");
        billed_floor = billed;
        session = restored;
    }
    session.run_to_end().expect("resumed run completes");
    assert!(session.is_finished());
    let report = session.report();
    assert!(report.engine_time() >= billed_floor, "final billing below carried total");

    assert_eq!(
        report.final_state, reference.final_state,
        "final state must match bit for bit (pauses {pauses:?})"
    );
    assert_stats_match_sans_cpu("work statistics", &report.engine_stats, &reference.engine_stats);
    assert_eq!(report.digital_events, reference.digital_events);
    assert_eq!(report.control_events, reference.control_events);

    // The probe's trajectory — saved samples carried through the checkpoint,
    // later samples recorded by the resumed march — matches the
    // uninterrupted dense capture sample for sample.
    let probe = session.probe::<WaveformProbe>(probe_id).expect("probe survives with its type");
    assert_eq!(probe.states().times(), reference.states.times(), "sample grid");
    for (i, (sample, expected)) in
        probe.states().states().iter().zip(reference.states.states()).enumerate()
    {
        assert_eq!(sample, expected, "state sample {i}");
    }
    for (i, (sample, expected)) in
        probe.terminals().states().iter().zip(reference.terminals.states()).enumerate()
    {
        assert_eq!(sample, expected, "terminal sample {i}");
    }
}

fn state_space_reference() -> &'static (ScenarioConfig, Reference) {
    static REF: OnceLock<(ScenarioConfig, Reference)> = OnceLock::new();
    REF.get_or_init(|| {
        let scenario = busy_scenario();
        let reference = reference_for(&scenario);
        (scenario, reference)
    })
}

fn baseline_reference() -> &'static (ScenarioConfig, Reference) {
    static REF: OnceLock<(ScenarioConfig, Reference)> = OnceLock::new();
    REF.get_or_init(|| {
        let mut scenario = busy_scenario();
        scenario.duration_s = 0.3; // the Newton baseline is ~7× slower per second
        scenario.engine = SimulationEngine::NewtonRaphson(BaselineOptions::default());
        let reference = reference_for(&scenario);
        (scenario, reference)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn state_space_durable_roundtrip(p1 in 0.05f64..0.9, p2 in 0.05f64..0.9) {
        let (scenario, reference) = state_space_reference();
        assert_durable_roundtrip(scenario, reference, [p1.min(p2), p1.max(p2)]);
    }

    #[test]
    fn baseline_durable_roundtrip(p1 in 0.05f64..0.9, p2 in 0.05f64..0.9) {
        let (scenario, reference) = baseline_reference();
        assert_durable_roundtrip(scenario, reference, [p1.min(p2), p1.max(p2)]);
    }
}

/// Ladders for the per-device battery: `(stages, knee segments)`. The first
/// three fit the checkpoint's 64-bit slot (10 bits per diode, at most six
/// diodes), so their diode segments travel in the frame; the last two (seven
/// diodes; 1 201 table segments) do not and restamp on every step.
const LADDERS: [(usize, usize); 5] = [(3, 600), (5, 600), (6, 600), (7, 600), (5, 1200)];

fn ladder_reference(index: usize) -> &'static (ScenarioConfig, Reference) {
    static REFS: [OnceLock<(ScenarioConfig, Reference)>; LADDERS.len()] =
        [const { OnceLock::new() }; LADDERS.len()];
    REFS[index].get_or_init(|| {
        let (stages, knee_segments) = LADDERS[index];
        let mut scenario = busy_scenario();
        scenario.duration_s = 0.3;
        scenario.parameters.multiplier_stages = stages;
        scenario.parameters.diode_table_segments = knee_segments;
        let reference = reference_for(&scenario);
        (scenario, reference)
    })
}

/// Per-device stamp state across durable round-trips: pausing at random
/// accepted steps of 3-, 5- and 6-stage ladders — whose tracked diode
/// segments ride in the checkpoint while the block-local stamp buffers do
/// not — must resume bit-identically, `pwl_stamps_skipped` included. A
/// 7-stage ladder and a 1 200-segment table, outside the slot, must resume
/// just as exactly on the restamp-every-step path.
#[test]
fn per_device_stamp_state_survives_durable_roundtrips() {
    let mut seed = 0x9e37_79b9_u64;
    let mut fraction = || {
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        0.05 + 0.85 * (seed >> 11) as f64 / (1_u64 << 53) as f64
    };
    for (index, &(stages, knee_segments)) in LADDERS.iter().enumerate() {
        let (scenario, reference) = ladder_reference(index);
        let skipped = reference.engine_stats.state_space.pwl_stamps_skipped;
        if stages <= 6 && knee_segments < 1023 {
            assert!(skipped > 0, "{stages} stages / {knee_segments}: tracked ladders skip");
        } else {
            assert_eq!(skipped, 0, "{stages} stages / {knee_segments}: restamp every step");
        }
        for _ in 0..2 {
            let (p1, p2) = (fraction(), fraction());
            assert_durable_roundtrip(scenario, reference, [p1.min(p2), p1.max(p2)]);
        }
    }
}

/// A checkpoint at `t = 0` (nothing run yet) and one after the session
/// finished both round-trip cleanly — the boundary cases the random pause
/// fractions cannot hit.
#[test]
fn edge_time_checkpoints_roundtrip() {
    let (scenario, reference) = state_space_reference();
    // t = 0: nothing marched, no in-flight march in the frame.
    let session = Simulation::from_config(scenario.clone()).start().unwrap();
    let bytes = session.checkpoint().unwrap();
    drop(session);
    let mut restored = Session::restore(&bytes).unwrap();
    restored.run_to_end().unwrap();
    assert_eq!(restored.report().final_state, reference.final_state);

    // Finished: the checkpoint captures the terminal state and restores as
    // a finished session.
    let mut session = Simulation::from_config(scenario.clone()).start().unwrap();
    session.run_to_end().unwrap();
    let report = session.report();
    let bytes = session.checkpoint().unwrap();
    let restored = Session::restore(&bytes).unwrap();
    assert!(restored.is_finished());
    assert_eq!(restored.report().final_state, report.final_state);
    assert_eq!(restored.report().engine_time(), report.engine_time());
}
