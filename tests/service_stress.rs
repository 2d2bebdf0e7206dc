//! Scheduler stress battery: one thousand sessions through the
//! [`harvsim::SessionService`] under a deliberately tiny resident-memory
//! budget, so almost every preemption becomes a checkpoint-evict/thaw cycle.
//! Pinned properties:
//!
//! * every job finishes, and its result is **bit-identical** to running the
//!   same scenario sequentially on one thread (final state, step counts,
//!   digital events, control actions);
//! * billing conserves: each job's billed engine time equals its own
//!   report's engine-time total, and the per-job bills sum to the service
//!   total — slice deltas telescope exactly because the counters ride
//!   inside the checkpoints;
//! * fairness: round-robin slicing gives every equal-length job the same
//!   number of slices (±1), so no session starves behind the queue;
//! * eviction accounting balances: every frozen job thaws exactly once per
//!   eviction.

use std::sync::{Arc, Once};
use std::time::Duration;

use harvsim::core::session::ControlEvent;
use harvsim::linalg::DVector;
use harvsim::{
    FaultPlan, FaultSite, ScenarioConfig, ServiceError, ServiceOptions, Session, SessionService,
    Simulation, SimulationEngine,
};

/// Keep deliberately injected panics out of the test output while leaving the
/// default hook in charge of every *real* panic (assertion failures included).
fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .map(String::from)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !message.contains("injected fault") {
                default_hook(info);
            }
        }));
    });
}

const JOBS: usize = 1000;
const DURATION_S: f64 = 0.015;
const SLICE_S: f64 = 0.006; // => 3 slices per job (2 preemptions + finish)

/// Job `k`'s scenario: a short closed-loop run with a retune and watchdog
/// wakes inside the window, perturbed per job so no two jobs share a
/// trajectory (a swapped checkpoint would be caught).
fn job_scenario(k: usize) -> ScenarioConfig {
    let mut scenario = ScenarioConfig::scenario1();
    scenario.duration_s = DURATION_S;
    scenario.frequency_step_time_s = 0.005;
    scenario.controller.watchdog_period_s = 0.006;
    scenario.controller.energy_threshold_v = 2.0;
    scenario.controller.measurement_duration_s = 0.002;
    scenario.controller.tuning_rate_hz_per_s = 10.0;
    scenario.controller.tuning_update_interval_s = 0.002;
    scenario.initial_supercap_voltage = 2.5 + k as f64 * 1e-4;
    // A sprinkle of Newton–Raphson jobs keeps both engines in the same pool.
    if k % 100 == 7 {
        scenario.engine = SimulationEngine::NewtonRaphson(Default::default());
    }
    scenario.label = Some(format!("job-{k}"));
    scenario
}

/// Plain-data extract of a sequential single-thread run, for cross-thread
/// comparison against the scheduled outcome.
struct Reference {
    final_state: DVector,
    state_space_steps: usize,
    baseline_steps: usize,
    digital_events: u64,
    control_events: Vec<ControlEvent>,
}

fn reference_for(k: usize) -> Reference {
    let mut session = Simulation::from_config(job_scenario(k)).start().expect("job starts");
    session.run_to_end().expect("job completes");
    let report = session.report();
    Reference {
        final_state: report.final_state,
        state_space_steps: report.engine_stats.state_space.steps,
        baseline_steps: report.engine_stats.baseline.steps,
        digital_events: report.digital_events,
        control_events: report.control_events,
    }
}

/// Sequential references for all jobs, computed on a plain thread-chunked
/// map (no service involved) to keep the test's wall clock sane.
fn sequential_references() -> Vec<Reference> {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let chunk = JOBS.div_ceil(threads);
    let mut slots: Vec<Option<Reference>> = (0..JOBS).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (t, piece) in slots.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (i, slot) in piece.iter_mut().enumerate() {
                    *slot = Some(reference_for(t * chunk + i));
                }
            });
        }
    });
    slots.into_iter().map(|slot| slot.expect("every reference computed")).collect()
}

#[test]
fn thousand_sessions_scheduled_under_memory_pressure_match_sequential() {
    let references = sequential_references();

    let service = SessionService::new(ServiceOptions {
        workers: None, // thread per core
        slice_s: SLICE_S,
        // ~6 resident frames' worth: with a full pool this forces the
        // checkpoint-evict/thaw path on nearly every preemption.
        resident_budget_bytes: Some(64 * 1024),
        ..Default::default()
    })
    .expect("valid options");
    let jobs: Vec<Simulation> =
        (0..JOBS).map(|k| Simulation::from_config(job_scenario(k))).collect();
    let report = service.run(jobs);

    assert_eq!(report.outcomes.len(), JOBS);
    assert!(report.workers >= 1);
    assert!(report.evictions > 0, "the {}-byte budget must force checkpoint evictions", 64 * 1024);
    assert!(report.peak_resident_bytes > 0);

    let mut total_billed = std::time::Duration::ZERO;
    let mut total_restores = 0usize;
    let mut min_slices = usize::MAX;
    let mut max_slices = 0usize;
    for (k, (outcome, reference)) in report.outcomes.iter().zip(&references).enumerate() {
        assert_eq!(outcome.label.as_deref(), Some(format!("job-{k}").as_str()));
        let job_report = outcome
            .result
            .as_ref()
            .unwrap_or_else(|err| panic!("job {k} failed under the scheduler: {err}"));

        // Bit-identical to the sequential run of the same scenario.
        assert_eq!(
            job_report.final_state, reference.final_state,
            "job {k}: scheduled final state diverged from sequential"
        );
        assert_eq!(job_report.engine_stats.state_space.steps, reference.state_space_steps);
        assert_eq!(job_report.engine_stats.baseline.steps, reference.baseline_steps);
        assert_eq!(job_report.digital_events, reference.digital_events);
        assert_eq!(job_report.control_events, reference.control_events);

        // Billing conservation, job by job: the telescoped slice deltas end
        // exactly at the job's own engine-time total.
        assert_eq!(
            outcome.billed_engine_time,
            job_report.engine_time(),
            "job {k}: billed time does not telescope to the report total"
        );
        total_billed += outcome.billed_engine_time;
        total_restores += outcome.restores;
        assert_eq!(outcome.restores, outcome.evictions, "job {k}: every eviction thaws once");
        min_slices = min_slices.min(outcome.slices);
        max_slices = max_slices.max(outcome.slices);
    }

    // ...and in aggregate.
    assert_eq!(report.total_billed, total_billed, "service total is the sum of job bills");
    assert_eq!(report.evictions, total_restores, "eviction/thaw ledger balances");

    // Fairness: every job is preempted at least once (nobody runs to
    // completion in one slice while others wait), and round-robin keeps the
    // slice counts of equal-length jobs within one of each other.
    assert!(min_slices >= 2, "every job must be preempted at least once (min {min_slices})");
    assert!(
        max_slices - min_slices <= 1,
        "round-robin fairness bound violated: slices range {min_slices}..={max_slices}"
    );
}

/// Quarantine semantics: a session that panics mid-batch is isolated with a
/// typed [`ServiceError::SessionPanicked`], its last sealed checkpoint stays
/// loadable and resumes bit-identically, and every neighbour finishes with
/// correct billing — one bad job never takes the pool down.
#[test]
fn quarantined_session_keeps_its_checkpoint_and_neighbours_finish() {
    silence_injected_panics();
    const QJOBS: usize = 8;
    let references: Vec<Reference> = (0..QJOBS).map(reference_for).collect();

    // Panic at the 10th slice boundary (budget 1, so exactly one victim).
    // With 8 jobs and round-robin slicing, boundary ordinals 0..=7 are first
    // slices, so ordinal 9 hits some job's *second* slice — guaranteeing the
    // victim has already sealed a checkpoint when the panic lands.
    let plan = Arc::new(FaultPlan::new(0xC0FFEE).with_site(FaultSite::SliceBoundary, 10, 1));
    let service = SessionService::new(ServiceOptions {
        workers: Some(2),
        slice_s: SLICE_S,
        resident_budget_bytes: Some(0), // evict everything: checkpoint every slice
        fault_plan: Some(Arc::clone(&plan)),
        ..Default::default()
    })
    .expect("valid options");
    let jobs: Vec<Simulation> =
        (0..QJOBS).map(|k| Simulation::from_config(job_scenario(k))).collect();
    let report = service.run(jobs);

    assert_eq!(plan.injected(FaultSite::SliceBoundary), 1, "the fault fired");
    assert_eq!(report.quarantined, 1, "exactly one session is quarantined");
    assert!(!report.interrupted, "a quarantine is not a service interruption");

    let mut ok_jobs = 0usize;
    let mut total_billed = Duration::ZERO;
    for (k, (outcome, reference)) in report.outcomes.iter().zip(&references).enumerate() {
        total_billed += outcome.billed_engine_time;
        match &outcome.result {
            Err(ServiceError::SessionPanicked { id, payload }) => {
                assert_eq!(id, &format!("job-{k}"), "quarantine is attributed to the victim");
                assert!(payload.contains("injected fault"), "payload preserved: {payload}");
                // The last good checkpoint survives quarantine: it restores
                // and resumes to a final state bit-identical to an
                // uninterrupted run of the same scenario.
                let frame = outcome
                    .last_checkpoint
                    .as_ref()
                    .expect("a quarantined session retains its last sealed frame");
                let mut resumed = Session::restore(frame).expect("quarantined frame restores");
                resumed.run_to_end().expect("resumed session completes");
                let resumed = resumed.report();
                assert_eq!(
                    resumed.final_state, reference.final_state,
                    "job {k}: resume-from-quarantine diverged from sequential"
                );
                assert_eq!(resumed.engine_stats.state_space.steps, reference.state_space_steps);
                assert_eq!(resumed.control_events, reference.control_events);
            }
            Ok(job_report) => {
                ok_jobs += 1;
                assert_eq!(
                    job_report.final_state, reference.final_state,
                    "job {k}: neighbour of a quarantined session diverged"
                );
                assert_eq!(
                    outcome.billed_engine_time,
                    job_report.engine_time(),
                    "job {k}: billing still telescopes next to a quarantine"
                );
            }
            Err(other) => panic!("job {k}: unexpected error {other}"),
        }
    }
    assert_eq!(ok_jobs, QJOBS - 1, "every non-victim job completes");
    assert_eq!(report.total_billed, total_billed, "partial slices of the victim are still billed");
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
    let scenario = job_scenario(3);

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
