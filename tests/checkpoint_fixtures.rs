//! Golden checkpoint fixtures: canonical v1 frames committed under
//! `tests/fixtures/`, with tests that today's code still loads them and
//! resumes **bit-identically** to a fresh uninterrupted run of the embedded
//! scenario — the backward-compatibility contract for the wire format. The
//! version-skew half of the contract is pinned too: a frame whose format
//! version is incremented, or whose rebuild digest no longer matches its
//! rebuild section, is rejected with a typed [`harvsim::CheckpointError`],
//! never a panic and never a quietly different simulation.
//!
//! Regenerating the fixtures is only legitimate when the format version is
//! deliberately bumped; run
//! `cargo test --test checkpoint_fixtures -- --ignored` and commit the new
//! bytes together with the version change.

use std::path::PathBuf;

use harvsim::{
    fnv1a64, CheckpointError, CoreError, EnvelopeProbe, Probe, ScenarioConfig, Session, Simulation,
    WaveformProbe, CHECKPOINT_VERSION,
};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The scenario both fixtures embed. Must not change while the format
/// version stays at 1 — the fixtures pin its encoding. The LTE tolerances
/// are the defaults the fixtures were written with, pinned so that a change
/// of the defaults leaves the embedded scenario as it is.
fn fixture_scenario() -> ScenarioConfig {
    let mut scenario = ScenarioConfig::scenario1();
    scenario.engine = harvsim::SimulationEngine::StateSpace(harvsim::SolverOptions {
        lte_relative_tolerance: 3e-6,
        lte_absolute_tolerance: 3e-13,
        ..Default::default()
    });
    scenario.duration_s = 0.12;
    scenario.frequency_step_time_s = 0.03;
    scenario.controller.watchdog_period_s = 0.04;
    scenario.controller.energy_threshold_v = 2.0;
    scenario.controller.measurement_duration_s = 0.01;
    scenario.controller.tuning_rate_hz_per_s = 10.0;
    scenario.controller.tuning_update_interval_s = 0.005;
    scenario.label = Some("fixture".into());
    scenario
}

fn baseline_fixture_scenario() -> ScenarioConfig {
    let mut scenario = fixture_scenario();
    scenario.duration_s = 0.08;
    scenario.engine = harvsim::SimulationEngine::NewtonRaphson(harvsim::BaselineOptions::default());
    scenario
}

/// Fresh probes of the types the state-space fixture was saved with.
/// Construction parameters are irrelevant — restore overwrites them from the
/// saved blobs.
fn fixture_probes() -> Vec<Box<dyn Probe>> {
    vec![Box::new(WaveformProbe::new(1.0)), Box::new(EnvelopeProbe::terminal(0))]
}

/// Recomputes and rewrites the trailing frame checksum — used to forge
/// header skews that are *internally consistent* frames, so the tests reach
/// the version/digest checks instead of tripping the checksum first.
fn reseal(frame: &mut [u8]) {
    let body = frame.len() - 8;
    let checksum = fnv1a64(&frame[..body]);
    frame[body..].copy_from_slice(&checksum.to_le_bytes());
}

fn load_fixture(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|err| {
        panic!(
            "missing golden fixture {} ({err}); regenerate with \
             `cargo test --test checkpoint_fixtures -- --ignored` ONLY on a \
             deliberate format-version bump",
            path.display()
        )
    })
}

#[test]
fn state_space_fixture_loads_and_resumes_bit_identically() {
    let bytes = load_fixture("checkpoint_v1_state_space.bin");
    let (mut resumed, ids) =
        Session::restore_with_probes(&bytes, fixture_probes()).expect("golden fixture loads");
    assert!(!resumed.is_finished());
    resumed.run_to_end().expect("resumed run completes");

    // Reference: the same scenario run uninterrupted, observed identically.
    let scenario = fixture_scenario();
    let mut reference = Simulation::from_config(scenario.clone()).start().unwrap();
    let ref_capture = reference.add_probe(WaveformProbe::new(match &scenario.engine {
        harvsim::SimulationEngine::StateSpace(options) => options.record_interval,
        harvsim::SimulationEngine::NewtonRaphson(options) => options.record_interval,
    }));
    let vc = reference.harvester().storage_voltage_net();
    let ref_envelope = reference.add_probe(EnvelopeProbe::terminal(vc));
    reference.run_to_end().unwrap();

    let resumed_report = resumed.report();
    let reference_report = reference.report();
    assert_eq!(resumed_report.final_state, reference_report.final_state);
    assert_eq!(
        resumed_report.engine_stats.state_space.steps,
        reference_report.engine_stats.state_space.steps
    );
    assert_eq!(
        resumed_report.engine_stats.state_space.steps_by_order,
        reference_report.engine_stats.state_space.steps_by_order
    );
    assert_eq!(resumed_report.digital_events, reference_report.digital_events);
    assert_eq!(resumed_report.control_events, reference_report.control_events);

    // Probe state carried through the fixture: the dense capture equals the
    // uninterrupted capture sample for sample, and the envelope agrees.
    let waveform = resumed.probe::<WaveformProbe>(ids[0]).expect("typed waveform");
    let ref_waveform = reference.probe::<WaveformProbe>(ref_capture).unwrap();
    assert_eq!(waveform.states().times(), ref_waveform.states().times());
    for (sample, expected) in waveform.states().states().iter().zip(ref_waveform.states().states())
    {
        assert_eq!(sample, expected);
    }
    let envelope = resumed.probe::<EnvelopeProbe>(ids[1]).expect("typed envelope");
    let ref_env = reference.probe::<EnvelopeProbe>(ref_envelope).unwrap();
    assert_eq!(envelope.min().to_bits(), ref_env.min().to_bits());
    assert_eq!(envelope.max().to_bits(), ref_env.max().to_bits());
    assert_eq!(envelope.samples(), ref_env.samples());
}

#[test]
fn baseline_fixture_loads_and_resumes_bit_identically() {
    let bytes = load_fixture("checkpoint_v1_baseline.bin");
    let mut resumed = Session::restore(&bytes).expect("golden fixture loads");
    resumed.run_to_end().expect("resumed run completes");

    let mut reference = Simulation::from_config(baseline_fixture_scenario()).start().unwrap();
    reference.run_to_end().unwrap();

    let resumed_report = resumed.report();
    let reference_report = reference.report();
    assert_eq!(resumed_report.final_state, reference_report.final_state);
    assert_eq!(
        resumed_report.engine_stats.baseline.steps,
        reference_report.engine_stats.baseline.steps
    );
    assert_eq!(
        resumed_report.engine_stats.baseline.newton_iterations,
        reference_report.engine_stats.baseline.newton_iterations
    );
    assert_eq!(resumed_report.control_events, reference_report.control_events);
}

/// An incremented format version is rejected with the typed version-skew
/// error even when the frame is otherwise internally consistent (checksum
/// resealed) — readers refuse to guess at layouts they were not built for.
#[test]
fn incremented_format_version_is_rejected_typed() {
    let mut bytes = load_fixture("checkpoint_v1_state_space.bin");
    let skewed = CHECKPOINT_VERSION + 1;
    bytes[4..6].copy_from_slice(&skewed.to_le_bytes());
    reseal(&mut bytes);
    match Session::restore(&bytes) {
        Err(CoreError::Checkpoint(CheckpointError::UnsupportedVersion { found, supported })) => {
            assert_eq!(found, skewed);
            assert_eq!(supported, CHECKPOINT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// A header digest that no longer matches the rebuild section — a doctored
/// configuration or an options-encoding skew — is the typed digest error,
/// not a silently different simulation.
#[test]
fn mismatched_rebuild_digest_is_rejected_typed() {
    let mut bytes = load_fixture("checkpoint_v1_state_space.bin");
    bytes[8] ^= 0x5a; // corrupt the stored digest, keep the frame consistent
    reseal(&mut bytes);
    match Session::restore(&bytes) {
        Err(CoreError::Checkpoint(CheckpointError::DigestMismatch { .. })) => {}
        other => panic!("expected DigestMismatch, got {other:?}"),
    }
}

/// An unknown payload kind is its own typed rejection.
#[test]
fn unknown_payload_kind_is_rejected_typed() {
    let mut bytes = load_fixture("checkpoint_v1_state_space.bin");
    bytes[6] = 0x7f;
    reseal(&mut bytes);
    match Session::restore(&bytes) {
        Err(CoreError::Checkpoint(CheckpointError::UnsupportedKind(0x7f))) => {}
        other => panic!("expected UnsupportedKind, got {other:?}"),
    }
}

/// Restoring with the wrong probe complement is a typed error, not a
/// silently probe-less resume.
#[test]
fn probe_complement_mismatch_is_rejected_typed() {
    let bytes = load_fixture("checkpoint_v1_state_space.bin");
    // Too few probes.
    match Session::restore(&bytes) {
        Err(CoreError::Checkpoint(CheckpointError::Malformed(_))) => {}
        other => panic!("expected Malformed for missing probes, got {other:?}"),
    }
    // Right count, wrong types (blob tags do not match).
    let wrong: Vec<Box<dyn Probe>> =
        vec![Box::new(EnvelopeProbe::terminal(0)), Box::new(WaveformProbe::new(1.0))];
    match Session::restore_with_probes(&bytes, wrong) {
        Err(CoreError::Checkpoint(CheckpointError::Malformed(_))) => {}
        other => panic!("expected Malformed for wrong probe types, got {other:?}"),
    }
}

/// Regenerates the committed fixtures. `#[ignore]`d: run explicitly (and
/// commit the result) ONLY when the wire-format version is deliberately
/// bumped — on any other day, a failing fixture test means the format
/// changed without a version bump, and the fix is in the code, not here.
#[test]
#[ignore = "writes tests/fixtures/*.bin; run only on a deliberate format-version bump"]
fn regenerate_fixtures() {
    std::fs::create_dir_all(fixture_dir()).expect("fixture dir");

    let mut session = Simulation::from_config(fixture_scenario()).start().unwrap();
    session.add_probe(WaveformProbe::new(match &fixture_scenario().engine {
        harvsim::SimulationEngine::StateSpace(options) => options.record_interval,
        harvsim::SimulationEngine::NewtonRaphson(options) => options.record_interval,
    }));
    let vc = session.harvester().storage_voltage_net();
    session.add_probe(EnvelopeProbe::terminal(vc));
    session.run_until(0.05).unwrap();
    let bytes = session.checkpoint().unwrap();
    std::fs::write(fixture_dir().join("checkpoint_v1_state_space.bin"), &bytes).unwrap();

    let mut session = Simulation::from_config(baseline_fixture_scenario()).start().unwrap();
    session.run_until(0.03).unwrap();
    let bytes = session.checkpoint().unwrap();
    std::fs::write(fixture_dir().join("checkpoint_v1_baseline.bin"), &bytes).unwrap();
}
