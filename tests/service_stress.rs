//! Scheduler stress battery: the slice pool driven through
//! [`harvsim::Server::execute`] over a real, fsync'd
//! [`harvsim::SessionStore`]. Pinned properties:
//!
//! * one thousand sessions, every one preempted at slice boundaries with its
//!   frame sealed into the store each time, finish **bit-identical** to
//!   running the same spec sequentially on one thread — including a few
//!   that run past the 2 s watchdog, so a digital wake and a retune happen
//!   under preemption;
//! * quarantine: a session that panics mid-run fails alone, its neighbours
//!   finish bit-identically, and the frame the store keeps for it resumes to
//!   its uninterrupted result;
//! * watchdog preemption at a zero budget is bit-identical;
//! * billing is exact: the bill of a paused or quarantined session equals
//!   the engine time its stored frame carries, across a drain and a restart.

mod serving;

use std::sync::Arc;
use std::time::Duration;

use harvsim::linalg::DVector;
use harvsim::{
    Command, FaultPlan, FaultSite, Response, ScenarioConfig, ServerOptions, Session, Simulation,
    SubmitSpec, WireState,
};
use serving::{
    await_resolved, await_state, await_status, count_files_with_suffix, reference_fnv,
    silence_injected_panics, start_server, state_fnv, status, stored_engine_ns, submit, unique_dir,
};

const JOBS: usize = 1000;
const DURATION_S: f64 = 0.015;
const SLICE_S: f64 = 0.006; // => 3 slices per short session (2 preemptions + finish)
/// Sessions that run past the scenario's 2 s watchdog period.
const LONG_JOBS: [usize; 3] = [100, 500, 900];
const LONG_DURATION_S: f64 = 2.3;

/// Session `k`'s spec: a short scenario-1 run, perturbed per session so no
/// two sessions share a trajectory (a swapped checkpoint would be caught);
/// every tenth one runs scenario 2, and the [`LONG_JOBS`] run long enough
/// for the controller's first wake, its frequency measurement and the start
/// of its retune.
fn spec(k: usize) -> SubmitSpec {
    let mut spec = SubmitSpec::new(format!("job-{k}"));
    spec.scenario = if k % 10 == 3 { 2 } else { 1 };
    spec.duration_s = Some(DURATION_S);
    spec.step_at_s = Some(0.005);
    spec.initial_voltage = Some(2.5 + k as f64 * 1e-4);
    if LONG_JOBS.contains(&k) {
        spec.duration_s = Some(LONG_DURATION_S);
        spec.step_at_s = Some(1.0);
    }
    spec
}

/// Sequential reference digests, computed on a plain thread-chunked map (no
/// server involved) to keep the test's wall clock sane. A long session's
/// reference must itself have woken the controller and retuned, or the
/// battery would not exercise what it claims.
fn sequential_references(specs: &[SubmitSpec]) -> Vec<u64> {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let chunk = specs.len().div_ceil(threads);
    let mut slots: Vec<u64> = vec![0; specs.len()];
    std::thread::scope(|scope| {
        for (piece, specs) in slots.chunks_mut(chunk).zip(specs.chunks(chunk)) {
            scope.spawn(move || {
                for (slot, spec) in piece.iter_mut().zip(specs) {
                    let mut session = spec.simulation().start().expect("reference starts");
                    session.run_to_end().expect("reference completes");
                    let report = session.report();
                    if spec.duration_s == Some(LONG_DURATION_S) {
                        assert!(report.digital_events > 0, "{}: the watchdog never woke", spec.id);
                        let initial =
                            report.control_events.first().map(|e| e.resonant_frequency_hz);
                        assert!(
                            report
                                .control_events
                                .iter()
                                .any(|e| Some(e.resonant_frequency_hz) != initial),
                            "{}: no retune inside the span: {:?}",
                            spec.id,
                            report.control_events
                        );
                    }
                    *slot = state_fnv(&report.final_state);
                }
            });
        }
    });
    slots
}

#[test]
fn thousand_served_sessions_match_sequential() {
    let specs: Vec<SubmitSpec> = (0..JOBS).map(spec).collect();
    let references = sequential_references(&specs);
    let dir = unique_dir("stress");
    // An unarmed plan injects nothing; its slice-boundary call count proves
    // every session was preempted.
    let slices = Arc::new(FaultPlan::new(0));
    let server = start_server(
        &dir,
        ServerOptions {
            workers: None, // thread per core
            slice_s: SLICE_S,
            class_capacity: JOBS,
            fault_plan: Some(Arc::clone(&slices)),
            ..ServerOptions::default()
        },
    );
    for spec in &specs {
        submit(&server, spec);
    }
    let stats = await_resolved(&server);
    assert_eq!((stats.offered, stats.admitted, stats.shed), (JOBS as u64, JOBS as u64, 0));
    assert_eq!((stats.done, stats.failed), (JOBS as u64, 0), "every session finishes");

    for (spec, reference) in specs.iter().zip(&references) {
        let info = status(&server, &spec.id);
        assert_eq!(
            info.final_state_fnv,
            Some(*reference),
            "{}: served final state diverged from sequential",
            spec.id
        );
        assert!(info.billed_ns > 0, "{}: a finished session must have been billed", spec.id);
        assert!(info.time_s >= spec.duration_s.unwrap(), "{} stopped early", spec.id);
    }
    // A short session takes three slices, a long one hundreds.
    assert!(
        slices.calls(FaultSite::SliceBoundary) > 3 * JOBS as u64 + 1000,
        "every session must be preempted at each slice ({} slices)",
        slices.calls(FaultSite::SliceBoundary)
    );

    assert!(matches!(server.execute(Command::Drain), Response::Drained { checkpointed: 0, .. }));
    server.join();
    // Every finished session left the store; no write left litter behind.
    assert_eq!(count_files_with_suffix(&dir, ".tmp"), 0);
    let store = harvsim::SessionStore::open(&dir).expect("reopen store");
    assert!(store.active_ids().is_empty(), "finished sessions must leave the store");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Quarantine semantics: a session that panics mid-run is isolated (it
/// answers `failed`), the frame the store holds for it resumes
/// bit-identically, and every neighbour finishes — one bad session never
/// takes the pool down.
#[test]
fn quarantined_session_keeps_its_checkpoint_and_neighbours_finish() {
    silence_injected_panics();
    const QJOBS: usize = 8;
    let specs: Vec<SubmitSpec> = (0..QJOBS).map(spec).collect();
    let references: Vec<u64> = specs.iter().map(reference_fnv).collect();
    let dir = unique_dir("quarantine");

    // Every session starts from a frame one slice in, as a restart finds
    // them, so whichever slice the fault hits, the victim has a stored frame.
    {
        let store = harvsim::SessionStore::open(&dir).expect("open store");
        for spec in &specs {
            let mut session = spec.simulation().start().expect("session starts");
            session.run_until(SLICE_S).expect("first slice runs");
            store.put(&spec.id, &session.checkpoint().expect("frame seals")).expect("put");
        }
    }
    // Panic at the 10th slice boundary (budget 1, so exactly one victim).
    let plan = Arc::new(FaultPlan::new(0xC0FFEE).with_site(FaultSite::SliceBoundary, 10, 1));
    let server = start_server(
        &dir,
        ServerOptions {
            workers: Some(2),
            slice_s: SLICE_S,
            fault_plan: Some(Arc::clone(&plan)),
            ..ServerOptions::default()
        },
    );
    for spec in &specs {
        assert!(matches!(
            server.execute(Command::Submit(spec.clone())),
            Response::Resubmitted { state: WireState::Queued, .. }
        ));
    }
    let stats = await_resolved(&server);
    assert_eq!(plan.injected(FaultSite::SliceBoundary), 1, "the fault fired");
    assert_eq!((stats.done, stats.failed), (QJOBS as u64 - 1, 1), "exactly one victim");
    assert!(!server.is_shutdown(), "a quarantine is not a server kill");

    let mut victim = None;
    for (spec, reference) in specs.iter().zip(&references) {
        let info = status(&server, &spec.id);
        match info.state {
            WireState::Failed => victim = Some((spec, *reference)),
            WireState::Done => assert_eq!(
                info.final_state_fnv,
                Some(*reference),
                "{}: neighbour of a quarantined session diverged",
                spec.id
            ),
            other => panic!("{} ended {other:?}", spec.id),
        }
    }
    let (spec, reference) = victim.expect("one session was quarantined");
    assert!(matches!(server.execute(Command::Drain), Response::Drained { checkpointed: 0, .. }));
    server.join();

    // The store keeps exactly the victim's last sealed frame, and it resumes
    // to the uninterrupted result.
    let store = harvsim::SessionStore::open(&dir).expect("reopen store");
    assert_eq!(store.active_ids(), vec![spec.id.clone()]);
    let frame = store.get(&spec.id).expect("the quarantined session's frame loads");
    let mut resumed = Session::restore(&frame).expect("quarantined frame restores");
    resumed.run_to_end().expect("resumed session completes");
    assert_eq!(
        state_fnv(&resumed.report().final_state),
        reference,
        "{}: resume-from-quarantine diverged from sequential",
        spec.id
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero watchdog budget preempts after every accepted step batch —
/// maximal watchdog pressure — and the result is still bit-identical.
#[test]
fn watchdog_preemption_preserves_bit_identity() {
    let mut spec = spec(0);
    spec.duration_s = Some(0.03);
    let reference = reference_fnv(&spec);
    let dir = unique_dir("watchdog");
    let slices = Arc::new(FaultPlan::new(0));
    let server = start_server(
        &dir,
        ServerOptions {
            workers: Some(1),
            slice_s: 0.01, // 3 plain slices
            slice_timeout: Some(Duration::ZERO),
            fault_plan: Some(Arc::clone(&slices)),
            ..ServerOptions::default()
        },
    );
    submit(&server, &spec);
    let info = await_state(&server, &spec.id, &[WireState::Done]);
    assert_eq!(info.final_state_fnv, Some(reference));
    assert!(info.billed_ns > 0);
    assert!(
        slices.calls(FaultSite::SliceBoundary) > 3,
        "a zero watchdog budget must preempt far more often than the 3 plain slices (got {})",
        slices.calls(FaultSite::SliceBoundary)
    );
    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exact billing through the one front: a paused session's bill equals the
/// engine time of the frame the store holds for it, and stays equal after a
/// drain, a restart, a resume and a second pause; the resumed run then
/// finishes bit-identically.
#[test]
fn paused_bill_equals_the_stored_frame_across_restarts() {
    let mut spec = SubmitSpec::new("bill-0");
    spec.duration_s = Some(0.8);
    spec.step_at_s = Some(0.3);
    let reference = reference_fnv(&spec);
    let dir = unique_dir("billing");
    let options = ServerOptions { workers: Some(1), slice_s: 0.002, ..ServerOptions::default() };
    let pause = |server: &harvsim::Server| {
        assert!(matches!(
            server.execute(Command::Pause { id: spec.id.clone() }),
            Response::Paused { .. }
        ));
        await_state(server, &spec.id, &[WireState::Paused])
    };

    // Lifetime 1: several slices, then pause and drain.
    let server = start_server(&dir, options.clone());
    submit(&server, &spec);
    await_status(&server, &spec.id, |info| info.time_s >= 0.02);
    let first = pause(&server);
    assert!(matches!(server.execute(Command::Drain), Response::Drained { checkpointed: 1, .. }));
    server.join();
    assert!(first.billed_ns > 0);
    assert_eq!(stored_engine_ns(&dir, &spec.id), first.billed_ns, "bill at the first pause");

    // Lifetime 2: the re-adopted session books its frame-carried time on
    // its first slice, runs on, and pauses again.
    let server = start_server(&dir, options.clone());
    assert!(matches!(
        server.execute(Command::Resume { id: spec.id.clone() }),
        Response::Resumed { .. }
    ));
    await_status(&server, &spec.id, |info| info.time_s >= first.time_s + 0.02);
    let second = pause(&server);
    assert!(second.recovered);
    assert!(matches!(server.execute(Command::Drain), Response::Drained { checkpointed: 1, .. }));
    server.join();
    assert!(second.billed_ns > first.billed_ns);
    assert_eq!(stored_engine_ns(&dir, &spec.id), second.billed_ns, "bill after a restart");

    // Lifetime 3: finish; the result is the uninterrupted run's.
    let server = start_server(&dir, options);
    assert!(matches!(
        server.execute(Command::Resume { id: spec.id.clone() }),
        Response::Resumed { .. }
    ));
    let done = await_state(&server, &spec.id, &[WireState::Done]);
    assert_eq!(done.final_state_fnv, Some(reference));
    assert!(done.billed_ns > second.billed_ns);
    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Slices that end inside an analogue segment bill the engine time they
/// spent: four 0.02 s slices inside one watchdog segment, then a panic at
/// the fifth slice boundary quarantines the session — its bill is the four
/// slices' engine time, exactly what its stored frame carries, not zero.
#[test]
fn quarantined_mid_segment_session_bills_its_slices() {
    silence_injected_panics();
    let mut spec = SubmitSpec::new("mid-segment");
    spec.duration_s = Some(0.5);
    spec.step_at_s = Some(0.1);
    let dir = unique_dir("mid-segment");
    let plan = Arc::new(FaultPlan::new(7).with_site(FaultSite::SliceBoundary, 5, 1));
    let server = start_server(
        &dir,
        ServerOptions {
            workers: Some(1),
            slice_s: 0.02,
            fault_plan: Some(plan),
            ..ServerOptions::default()
        },
    );
    submit(&server, &spec);
    let info = await_state(&server, &spec.id, &[WireState::Failed]);
    assert!(info.billed_ns > 0, "mid-segment slices must bill");
    server.execute(Command::Drain);
    server.join();
    assert_eq!(stored_engine_ns(&dir, &spec.id), info.billed_ns);

    // The same span inline never closes a segment (the first watchdog wake
    // is at 2 s), so the closed-segment counters alone would bill nothing.
    let mut inline = spec.simulation().start().unwrap();
    inline.run_until(0.08).unwrap();
    assert!(inline.engine_stats().state_space.cpu_time.is_zero());
    assert!(inline.report().engine_time() > Duration::ZERO);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A short closed-loop scenario with watchdog wakes and a retune inside a
/// 15 ms window.
fn closed_loop_scenario() -> ScenarioConfig {
    let mut scenario = ScenarioConfig::scenario1();
    scenario.duration_s = DURATION_S;
    scenario.frequency_step_time_s = 0.005;
    scenario.controller.watchdog_period_s = 0.006;
    scenario.controller.energy_threshold_v = 2.0;
    scenario.controller.measurement_duration_s = 0.002;
    scenario.controller.tuning_rate_hz_per_s = 10.0;
    scenario.controller.tuning_update_interval_s = 0.002;
    scenario.initial_supercap_voltage = 2.5003;
    scenario.label = Some("job-3".into());
    scenario
}

/// A probe that panics after a fixed number of samples — stands in for any
/// user observer with a latent bug.
struct PanickingProbe {
    samples: usize,
    panic_at: usize,
}

impl harvsim::Probe for PanickingProbe {
    fn on_sample(&mut self, _t: f64, _states: &DVector, _terminals: &DVector) {
        self.samples += 1;
        if self.samples >= self.panic_at {
            panic!("injected fault: probe panic at sample {}", self.samples);
        }
    }
}

/// A panicking user probe is containable: the panic unwinds out of the
/// session without corrupting anything durable — a checkpoint sealed before
/// the probe was attached restores and resumes bit-identically.
#[test]
fn probe_panic_leaves_sealed_checkpoints_untouched() {
    silence_injected_panics();
    let scenario = closed_loop_scenario();

    // Uninterrupted reference.
    let mut reference = Simulation::from_config(scenario.clone()).start().expect("starts");
    reference.run_to_end().expect("completes");
    let reference = reference.report();

    // Seal a mid-run checkpoint, then let a faulty probe panic on resume.
    let mut session = Simulation::from_config(scenario).start().expect("starts");
    session.run_until(DURATION_S / 2.0).expect("first half runs");
    let frame = session.checkpoint().expect("mid-run frame seals");

    let mut victim = Session::restore(&frame).expect("frame restores");
    victim.add_probe(PanickingProbe { samples: 0, panic_at: 1 });
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| victim.run_to_end()));
    let payload = outcome.expect_err("the probe panic must surface to the supervisor");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload is the probe's format string");
    assert!(message.contains("injected fault"), "payload preserved: {message}");

    // The sealed frame is unaffected: a clean restore finishes the run
    // bit-identically to the uninterrupted reference.
    let mut resumed = Session::restore(&frame).expect("frame still restores after the panic");
    resumed.run_to_end().expect("resumed run completes");
    let resumed = resumed.report();
    assert_eq!(resumed.final_state, reference.final_state);
    assert_eq!(resumed.engine_stats.state_space.steps, reference.engine_stats.state_space.steps);
    assert_eq!(resumed.digital_events, reference.digital_events);
    assert_eq!(resumed.control_events, reference.control_events);
}
