//! Crash-recovery torture battery: a store-backed batch driven to completion
//! through repeated fault-injected service kills, torn writes, bit flips,
//! I/O errors and injected panics — all from one deterministic seeded
//! [`FaultPlan`]. Pinned properties:
//!
//! * the batch **converges**: restarting the service over the same
//!   [`SessionStore`] re-admits interrupted jobs from their last sealed
//!   frame and eventually completes every job, with ≥ 5 kill/restart cycles
//!   actually exercised mid-batch;
//! * every completed job's final state is **bit-identical** to an
//!   uninterrupted sequential run, no matter how many crashes interrupted it;
//! * **billing conserves across restarts**: a recovered job's frame carries
//!   its engine-time counters, so the billed total equals the report total
//!   exactly — crashes never double-bill or drop time;
//! * the quarantine/recovery **ledger balances** every cycle, no panic
//!   escapes the service, and the store directory ends clean: no `*.tmp`
//!   litter, no active entries left behind.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use harvsim::core::session::ControlEvent;
use harvsim::linalg::DVector;
use harvsim::{
    FaultKind, FaultPlan, FaultSite, ScenarioConfig, ServiceError, ServiceOptions, SessionService,
    SessionStore, Simulation, StoreOptions,
};

const JOBS: usize = 18;
const DURATION_S: f64 = 0.015;
const SLICE_S: f64 = 0.004; // => ~4 slices per job, ~72+ slice boundaries per clean pass

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

/// A store directory unique to this process and call site.
fn unique_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("harvsim-recovery-{tag}-{}-{n}", std::process::id()))
}

/// Job `k`'s scenario: same closed-loop shape as the stress battery, with a
/// per-job perturbation so a resurrected or swapped frame would be caught by
/// the bit-identity comparison.
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
    scenario.label = Some(format!("job-{k}"));
    scenario
}

/// Plain-data extract of a sequential single-thread run.
struct Reference {
    final_state: DVector,
    state_space_steps: usize,
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
        digital_events: report.digital_events,
        control_events: report.control_events,
    }
}

fn count_files_with_suffix(dir: &std::path::Path, suffix: &str) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
                .count()
        })
        .unwrap_or(0)
}

/// The torture loop itself. One shared seeded plan drives kills at every
/// 12th slice boundary (five of them), panics at checkpoint encode/decode
/// and slice boundaries, and torn/flipped/failing store I/O — each with a
/// finite budget, so the faults provably drain and the batch converges.
///
/// Why every 12th boundary: the batch needs ≥ `JOBS * ceil(duration/slice)`
/// ≈ 72 successful slice boundaries to complete, and the boundary ordinal
/// counts every slice attempted across all cycles — so kills at ordinals
/// 12/24/36/48/60 are all guaranteed to land mid-batch, before completion
/// is arithmetically possible.
#[test]
fn killed_and_restarted_batches_converge_bit_identically() {
    silence_injected_panics();
    let references: Vec<Reference> = (0..JOBS).map(reference_for).collect();
    let dir = unique_dir("torture");

    let plan = Arc::new(
        FaultPlan::new(0x5EED_F00D)
            .with_kills(12, 5)
            .with_site(FaultSite::SliceBoundary, 40, 2) // panics mid-schedule
            .with_site(FaultSite::CheckpointEncode, 35, 1) // panic while sealing
            .with_site(FaultSite::CheckpointDecode, 50, 1) // panic while thawing
            .with_site(FaultSite::StoreWrite, 7, 6) // torn writes, flips, I/O errors
            .with_site(FaultSite::StoreRead, 11, 3) // flips and I/O errors on load
            .with_site(FaultSite::StoreRename, 13, 2), // I/O errors at the commit point
    );

    let mut cycles = 0usize;
    let mut killed_cycles = 0usize;
    let mut total_recovered = 0usize;
    let mut total_discarded = 0usize;
    let mut total_quarantined = 0usize;
    let final_report = loop {
        cycles += 1;
        assert!(cycles <= 60, "torture loop failed to converge in 60 cycles");

        let mut store = SessionStore::open_with(
            &dir,
            StoreOptions { write_attempts: 3, retry_backoff: Duration::from_micros(50) },
        )
        .expect("store (re)opens over whatever the last crash left behind");
        store.set_fault_plan(Some(Arc::clone(&plan)));

        let service = SessionService::new(ServiceOptions {
            workers: Some(3),
            slice_s: SLICE_S,
            // Tiny budget: almost every preemption checkpoints to the store.
            resident_budget_bytes: Some(16 * 1024),
            fault_plan: Some(Arc::clone(&plan)),
            ..Default::default()
        })
        .expect("valid options");
        let jobs: Vec<Simulation> =
            (0..JOBS).map(|k| Simulation::from_config(job_scenario(k))).collect();
        let report = service.run_with_store(jobs, &store).expect("ids are unique");

        // Per-cycle ledgers must balance even on crashed cycles.
        assert_eq!(report.outcomes.len(), JOBS);
        assert_eq!(
            report.quarantined,
            report
                .outcomes
                .iter()
                .filter(|o| matches!(o.result, Err(ServiceError::SessionPanicked { .. })))
                .count(),
            "cycle {cycles}: quarantine ledger out of balance"
        );
        assert_eq!(
            report.recovered_jobs,
            report.outcomes.iter().filter(|o| o.recovered).count(),
            "cycle {cycles}: recovery ledger out of balance"
        );
        assert_eq!(
            report.degraded_writes,
            report.outcomes.iter().map(|o| o.degraded_writes).sum::<usize>(),
            "cycle {cycles}: degradation ledger out of balance"
        );

        // Jobs that did complete — even on a cycle later cut short — are
        // bit-identical and billed exactly, kills notwithstanding.
        for (k, (outcome, reference)) in report.outcomes.iter().zip(&references).enumerate() {
            assert_eq!(outcome.id, format!("job-{k}"));
            match &outcome.result {
                Ok(job_report) => {
                    assert_eq!(
                        job_report.final_state, reference.final_state,
                        "cycle {cycles}, job {k}: final state diverged after recovery"
                    );
                    assert_eq!(
                        job_report.engine_stats.state_space.steps,
                        reference.state_space_steps
                    );
                    assert_eq!(job_report.digital_events, reference.digital_events);
                    assert_eq!(job_report.control_events, reference.control_events);
                    assert_eq!(
                        outcome.billed_engine_time,
                        job_report.engine_time(),
                        "cycle {cycles}, job {k}: billing not conserved across restarts"
                    );
                }
                Err(ServiceError::Interrupted) => {
                    assert!(report.interrupted, "Interrupted outcomes only on killed cycles");
                }
                Err(ServiceError::SessionPanicked { id, payload }) => {
                    assert_eq!(id, &outcome.id);
                    assert!(payload.contains("injected fault"), "unexpected payload: {payload}");
                }
                Err(other) => panic!("cycle {cycles}, job {k}: unexpected error {other}"),
            }
        }

        if report.interrupted {
            killed_cycles += 1;
        }
        total_recovered += report.recovered_jobs;
        total_discarded += report.recovery_discarded;
        total_quarantined += report.quarantined;

        let clean = !report.interrupted
            && report.degraded_writes == 0
            && report.outcomes.iter().all(|o| o.result.is_ok());
        if clean {
            break report;
        }
    };

    // The schedule actually exercised what the test advertises.
    assert_eq!(plan.kills(), 5, "all five kills fired mid-batch");
    assert!(killed_cycles >= 5, "each kill interrupts its own cycle (got {killed_cycles})");
    assert!(cycles > killed_cycles, "at least one clean cycle finishes the batch");
    assert!(total_recovered > 0, "kills mid-batch must leave frames to recover from");
    assert!(total_quarantined >= 1, "at least one injected panic led to a recorded quarantine");
    assert!(
        total_quarantined
            <= (plan.injected(FaultSite::SliceBoundary)
                + plan.injected(FaultSite::CheckpointEncode)
                + plan.injected(FaultSite::CheckpointDecode)) as usize,
        "every quarantine traces back to an injected panic"
    );
    // Discards are possible (flipped reads at admission) but each one is
    // typed and the job restarted fresh — reflected in the bit-identity
    // checks above. Record the totals so a degenerate all-discard run
    // (which would make recovery vacuous) is caught.
    assert!(
        total_discarded <= total_recovered + JOBS,
        "discards stayed bounded (got {total_discarded})"
    );

    // Final pass: everything completed, bit-identically, with exact billing.
    let mut total_billed = Duration::ZERO;
    for outcome in &final_report.outcomes {
        let job_report = outcome.result.as_ref().expect("clean cycle: every job Ok");
        assert_eq!(outcome.billed_engine_time, job_report.engine_time());
        total_billed += outcome.billed_engine_time;
    }
    assert_eq!(final_report.total_billed, total_billed);

    // The store directory ends clean: no temp-file litter from torn writes
    // (crashed cycles' leftovers were swept on reopen; the clean cycle wrote
    // none), and a fresh recovery scan finds nothing left to recover.
    assert_eq!(
        count_files_with_suffix(&dir, ".tmp"),
        0,
        "no temp files survive a clean completion"
    );
    let store = SessionStore::open(&dir).expect("store reopens after completion");
    assert!(store.active_ids().is_empty(), "no session left active after a clean completion");
    assert!(store.recovery().recovered.is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

/// Graceful degradation: when the disk refuses every write, the batch still
/// completes from resident frozen bytes — results identical, failures
/// counted, nothing panics.
#[test]
fn store_outage_degrades_to_resident_frames_without_losing_results() {
    silence_injected_panics();
    const DJOBS: usize = 4;
    let references: Vec<Reference> = (0..DJOBS).map(reference_for).collect();
    let dir = unique_dir("degraded");

    // Every store write fails with a synthetic I/O error, forever.
    let plan = Arc::new(FaultPlan::new(9).with_site_kinds(
        FaultSite::StoreWrite,
        1,
        u64::MAX,
        &[FaultKind::Io],
    ));
    let mut store = SessionStore::open_with(
        &dir,
        StoreOptions { write_attempts: 2, retry_backoff: Duration::ZERO },
    )
    .expect("store opens");
    store.set_fault_plan(Some(Arc::clone(&plan)));

    let service = SessionService::new(ServiceOptions {
        workers: Some(2),
        slice_s: SLICE_S,
        resident_budget_bytes: Some(0), // evict everything: a persist per slice
        ..Default::default()
    })
    .expect("valid options");
    let jobs: Vec<Simulation> =
        (0..DJOBS).map(|k| Simulation::from_config(job_scenario(k))).collect();
    let report = service.run_with_store(jobs, &store).expect("ids are unique");

    assert!(!report.interrupted);
    assert_eq!(report.quarantined, 0);
    assert!(report.degraded_writes > 0, "the outage was actually exercised");
    for (k, (outcome, reference)) in report.outcomes.iter().zip(&references).enumerate() {
        let job_report =
            outcome.result.as_ref().unwrap_or_else(|err| panic!("job {k} failed: {err}"));
        assert_eq!(
            job_report.final_state, reference.final_state,
            "job {k}: degraded-mode result diverged"
        );
        assert_eq!(outcome.billed_engine_time, job_report.engine_time());
    }
    // Nothing persisted, so nothing is left active either.
    assert!(store.active_ids().is_empty());

    std::fs::remove_dir_all(&dir).ok();
}
