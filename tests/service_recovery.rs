//! Crash-recovery torture battery: a batch of sessions served through
//! [`harvsim::Server::execute`] over one [`SessionStore`] directory, driven
//! to completion through repeated fault-injected server kills, torn writes,
//! bit flips, I/O errors and injected panics — all from one deterministic
//! seeded [`FaultPlan`]. Pinned properties:
//!
//! * the batch **converges**: restarting the server over the same store
//!   re-adopts interrupted sessions, the client's resubmission re-admits
//!   them from their last sealed frame, and every session eventually
//!   completes, with ≥ 5 kill/restart cycles actually exercised mid-batch;
//! * every completed session's final state is **bit-identical** to an
//!   uninterrupted sequential run, no matter how many crashes interrupted
//!   it;
//! * the offer ledger **balances** every cycle, every failure traces back to
//!   an injected fault, no panic escapes the server, and the store
//!   directory ends clean: no `*.tmp` litter, no active entries left behind.

mod serving;

use std::sync::Arc;
use std::time::Duration;

use harvsim::{
    Command, FaultKind, FaultPlan, FaultSite, Response, ServerOptions, SessionStore, StoreOptions,
    SubmitSpec, WireState,
};
use serving::{
    await_resolved, count_files_with_suffix, reference_fnv, silence_injected_panics, status,
    submit, unique_dir,
};

const JOBS: usize = 18;
const SLICE_S: f64 = 0.004; // => 4 slices per session, 72 slice boundaries per clean pass

/// Session `k`'s spec: a per-session perturbation, so a resurrected or
/// swapped frame would be caught by the bit-identity comparison.
fn spec(k: usize) -> SubmitSpec {
    let mut spec = SubmitSpec::new(format!("job-{k}"));
    spec.duration_s = Some(0.015);
    spec.step_at_s = Some(0.005);
    spec.initial_voltage = Some(2.5 + k as f64 * 1e-4);
    spec
}

/// Opens the store at `dir` with fast retries and `plan` armed on its I/O,
/// and starts a server over it.
fn start(dir: &std::path::Path, plan: &Arc<FaultPlan>, workers: usize) -> harvsim::Server {
    let mut store = SessionStore::open_with(
        dir,
        StoreOptions { write_attempts: 3, retry_backoff: Duration::from_micros(50) },
    )
    .expect("store (re)opens over whatever the last crash left behind");
    store.set_fault_plan(Some(Arc::clone(plan)));
    harvsim::Server::start(
        store,
        ServerOptions {
            workers: Some(workers),
            slice_s: SLICE_S,
            fault_plan: Some(Arc::clone(plan)),
            ..ServerOptions::default()
        },
    )
    .expect("valid options")
}

/// The torture loop itself. One shared seeded plan drives kills at every
/// 12th slice boundary (five of them), panics at checkpoint encode/decode
/// and slice boundaries, and torn/flipped/failing store I/O — each with a
/// finite budget, so the faults provably drain and the batch converges.
///
/// Why every 12th boundary: the batch needs ≥ `JOBS * ceil(duration/slice)`
/// = 72 successful slice boundaries to complete, and the boundary ordinal
/// counts every slice attempted across all cycles — so kills at ordinals
/// 12/24/36/48/60 are all guaranteed to land before completion is
/// arithmetically possible.
///
/// Each cycle is one server lifetime: the client submits every session (a
/// known id the store recovered is re-admitted from its frame, a lost one
/// starts over), waits until each has resolved or the server was killed,
/// and drains. A session quarantined by a panic, or whose frame failed to
/// load, keeps its stored frame and resumes in the next cycle.
#[test]
fn killed_and_restarted_batches_converge_bit_identically() {
    silence_injected_panics();
    let specs: Vec<SubmitSpec> = (0..JOBS).map(spec).collect();
    let references: Vec<u64> = specs.iter().map(reference_fnv).collect();
    let dir = unique_dir("torture");

    let plan = Arc::new(
        FaultPlan::new(0x5EED_F00D)
            .with_kills(12, 5)
            .with_site(FaultSite::SliceBoundary, 40, 2) // panics mid-schedule
            .with_site(FaultSite::CheckpointEncode, 35, 1) // panic while sealing
            // Only recovered sessions thaw (about 40 per run), so every 20th.
            .with_site(FaultSite::CheckpointDecode, 20, 1) // panic while thawing
            .with_site(FaultSite::StoreWrite, 7, 6) // torn writes, flips, I/O errors
            .with_site(FaultSite::StoreRead, 11, 3) // flips and I/O errors on load
            .with_site(FaultSite::StoreRename, 13, 2), // I/O errors at the commit point
    );

    let mut cycles = 0usize;
    let mut killed_cycles = 0usize;
    let mut total_recovered = 0usize;
    let mut total_failed = 0u64;
    loop {
        cycles += 1;
        assert!(cycles <= 60, "torture loop failed to converge in 60 cycles");
        let server = start(&dir, &plan, 3);
        let mut recovered = 0usize;
        for spec in &specs {
            match server.execute(Command::Submit(spec.clone())) {
                Response::Submitted { .. } => {}
                Response::Resubmitted { state: WireState::Queued, .. } => recovered += 1,
                other => panic!("cycle {cycles}: submit of {} answered {other:?}", spec.id),
            }
        }
        let stats = await_resolved(&server);
        // The offer ledger balances even on crashed cycles.
        assert_eq!(stats.offered, JOBS as u64);
        assert_eq!(stats.admitted + stats.shed + stats.resubmitted, stats.offered);
        assert_eq!(stats.shed, 0, "cycle {cycles}: no session may be shed");

        // Sessions that did complete — even on a cycle later cut short — are
        // bit-identical, kills notwithstanding.
        let mut done = 0usize;
        for (spec, reference) in specs.iter().zip(&references) {
            let info = status(&server, &spec.id);
            match info.state {
                WireState::Done => {
                    done += 1;
                    assert_eq!(
                        info.final_state_fnv,
                        Some(*reference),
                        "cycle {cycles}, {}: final state diverged after recovery",
                        spec.id
                    );
                    assert!(info.billed_ns > 0);
                }
                WireState::Failed => assert_eq!(info.final_state_fnv, None),
                unresolved => assert!(
                    server.is_shutdown(),
                    "cycle {cycles}, {}: left {unresolved:?} on a live server",
                    spec.id
                ),
            }
        }
        total_recovered += recovered;
        total_failed += stats.failed;

        let killed = server.is_shutdown();
        if killed {
            killed_cycles += 1;
        } else {
            // Every session has resolved, so the drain has nothing to park.
            assert!(matches!(server.execute(Command::Drain), Response::Drained { .. }));
        }
        server.join();
        // Clean: nothing killed, every session done, and no torn write or
        // failed removal left anything on disk.
        if !killed
            && done == JOBS
            && count_files_with_suffix(&dir, ".tmp") == 0
            && store_is_empty(&dir)
        {
            break;
        }
    }

    // The schedule actually exercised what the test advertises.
    assert_eq!(plan.kills(), 5, "all five kills fired mid-batch");
    assert!(killed_cycles >= 5, "each kill interrupts its own cycle (got {killed_cycles})");
    assert!(cycles > killed_cycles, "at least one clean cycle finishes the batch");
    assert!(total_recovered > 0, "kills mid-batch must leave frames to recover from");
    for site in [
        FaultSite::SliceBoundary,
        FaultSite::CheckpointEncode,
        FaultSite::CheckpointDecode,
        FaultSite::StoreWrite,
        FaultSite::StoreRead,
        FaultSite::StoreRename,
    ] {
        assert!(plan.injected(site) > 0, "no {site:?} fault fired");
    }
    assert!(total_failed >= 1, "at least one injected panic led to a quarantine");
    let injected = |sites: &[FaultSite]| sites.iter().map(|&site| plan.injected(site)).sum::<u64>();
    assert!(
        total_failed
            <= injected(&[
                FaultSite::SliceBoundary,
                FaultSite::CheckpointEncode,
                FaultSite::CheckpointDecode,
                FaultSite::StoreRead,
            ]),
        "every failure traces back to an injected panic or a failed load"
    );

    // The store directory ends clean: no temp-file litter from torn writes,
    // and a fresh recovery scan finds nothing left to recover.
    assert_eq!(count_files_with_suffix(&dir, ".tmp"), 0, "no temp files survive");
    let store = SessionStore::open(&dir).expect("store reopens after completion");
    assert!(store.active_ids().is_empty(), "no session left active after a clean completion");
    assert!(store.recovery().recovered.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Whether a fresh recovery scan of `dir` finds no active session. Opening
/// the store sweeps what a crash left behind, so call it only after the
/// litter check.
fn store_is_empty(dir: &std::path::Path) -> bool {
    SessionStore::open(dir).expect("store reopens").active_ids().is_empty()
}

/// Graceful degradation: when the disk refuses every write, every session
/// still finishes from its resident state — results identical, nothing
/// panics, and nothing is left in the store.
#[test]
fn store_outage_degrades_to_resident_frames_without_losing_results() {
    silence_injected_panics();
    const DJOBS: usize = 4;
    let specs: Vec<SubmitSpec> = (0..DJOBS).map(spec).collect();
    let references: Vec<u64> = specs.iter().map(reference_fnv).collect();
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
    let server = harvsim::Server::start(
        store,
        ServerOptions { workers: Some(2), slice_s: SLICE_S, ..ServerOptions::default() },
    )
    .expect("valid options");
    for spec in &specs {
        submit(&server, spec);
    }
    let stats = await_resolved(&server);
    assert_eq!((stats.done, stats.failed), (DJOBS as u64, 0));
    assert!(plan.injected(FaultSite::StoreWrite) > 0, "the outage was actually exercised");
    for (spec, reference) in specs.iter().zip(&references) {
        let info = status(&server, &spec.id);
        assert_eq!(info.final_state_fnv, Some(*reference), "{}: degraded result diverged", spec.id);
        assert!(info.billed_ns > 0);
    }
    assert!(matches!(server.execute(Command::Drain), Response::Drained { checkpointed: 0, .. }));
    server.join();
    // Nothing persisted, so nothing is left active either.
    assert!(store_is_empty(&dir));
    std::fs::remove_dir_all(&dir).ok();
}
