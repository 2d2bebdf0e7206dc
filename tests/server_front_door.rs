//! The hardened front door, end to end: full command lifecycle over a real
//! socket transport, idempotent retry after a dropped reply, deterministic
//! admission-control shedding, graceful drain with bit-identical resumption
//! after a restart, the kill-during-drain torture, and the unix-socket
//! listener itself (`Server::serve_unix`: bind, drain and kill wake-ups, the
//! non-socket refusal).
//!
//! Bit-identity is witnessed at the wire level: the `status` line of a
//! finished session carries the FNV-1a-64 digest of its final state vector,
//! which must equal the digest of an uninterrupted sequential run of the
//! same spec.

#![cfg(unix)]

mod serving;

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use harvsim::core::store::SessionStore;
use harvsim::{
    Client, Command, CoreError, FaultKind, FaultPlan, FaultSite, JobClass, Response, RetryPolicy,
    Server, ServerOptions, SubmitSpec, WireError, WireState,
};
use serving::{await_state, reference_fnv, start_server, unique_dir};

/// A distinct, quickly-finishing spec per index: unique id, unique initial
/// voltage (so final states differ across jobs), ~7 slices at the test's
/// 0.002 s slice.
fn quick_spec(k: usize, class: JobClass) -> SubmitSpec {
    let mut spec = SubmitSpec::new(format!("door-{}-{k}", class));
    spec.class = class;
    spec.deadline_s = Some(0.5 + k as f64);
    spec.duration_s = Some(0.015);
    spec.step_at_s = Some(0.004);
    spec.initial_voltage = Some(2.5 + k as f64 * 1e-3);
    spec
}

/// A long spec (hundreds of slices at 0.002 s) that cannot finish before the
/// test gets a pause/cancel/drain in.
fn long_spec(id: &str, class: JobClass) -> SubmitSpec {
    let mut spec = SubmitSpec::new(id);
    spec.class = class;
    spec.duration_s = Some(0.8);
    spec.step_at_s = Some(0.3);
    spec.initial_voltage = Some(2.6);
    spec
}

/// A retrying [`Client`] whose "connections" are socket pairs served by a
/// dedicated handler thread each — a faithful stand-in for a unix-socket
/// transport that the test fully controls.
fn pair_client(
    server: &Server,
) -> Client<UnixStream, impl FnMut(&RetryPolicy) -> std::io::Result<(UnixStream, UnixStream)>> {
    let server = server.clone();
    let connect = move |policy: &RetryPolicy| -> std::io::Result<(UnixStream, UnixStream)> {
        let (client_end, server_end) = UnixStream::pair()?;
        client_end.set_read_timeout(Some(policy.deadline))?;
        let handler = server.clone();
        let read_half = server_end.try_clone()?;
        std::thread::spawn(move || {
            let _ = handler.handle_connection(read_half, server_end);
        });
        Ok((client_end.try_clone()?, client_end))
    };
    Client::new(
        connect,
        RetryPolicy {
            attempts: 3,
            deadline: Duration::from_secs(20),
            backoff: Duration::from_millis(5),
        },
    )
}

#[test]
fn full_lifecycle_over_a_socket_transport_is_bit_identical() {
    let dir = unique_dir("lifecycle");
    let server = start_server(
        &dir,
        ServerOptions { workers: Some(2), slice_s: 0.002, ..ServerOptions::default() },
    );
    let mut client = pair_client(&server);

    assert_eq!(client.send(&Command::Ping).expect("ping"), Response::Pong);

    let specs: Vec<SubmitSpec> =
        JobClass::ALL.iter().enumerate().map(|(k, class)| quick_spec(k, *class)).collect();
    for spec in &specs {
        match client.send(&Command::Submit(spec.clone())).expect("submit") {
            Response::Submitted { id, class, .. } => {
                assert_eq!(id, spec.id);
                assert_eq!(class, spec.class);
            }
            other => panic!("submit answered {other:?}"),
        }
    }

    for spec in &specs {
        let info = await_state(&server, &spec.id, &[WireState::Done]);
        assert_eq!(info.class, spec.class);
        assert!(info.billed_ns > 0, "a finished session must have been billed");
        assert_eq!(
            info.final_state_fnv,
            Some(reference_fnv(spec)),
            "{}: scheduled final state diverged from the sequential run",
            spec.id
        );
        // `bill` and `status` must agree on the ledger.
        match client.send(&Command::Bill { id: spec.id.clone() }).expect("bill") {
            Response::Billed { id, billed_ns } => {
                assert_eq!(id, spec.id);
                assert_eq!(billed_ns, info.billed_ns);
            }
            other => panic!("bill answered {other:?}"),
        }
    }

    match client.send(&Command::Stats).expect("stats") {
        Response::Stats(stats) => {
            assert_eq!(stats.offered, 3);
            assert_eq!(stats.admitted, 3);
            assert_eq!(stats.shed, 0);
            assert_eq!(stats.done, 3);
            assert_eq!(stats.failed, 0);
            assert_eq!(stats.depths, [0, 0, 0], "finished sessions are no longer resident");
            assert!(
                stats.queue_latency_ns.iter().any(|&ns| ns > 0),
                "queue latency must have been booked"
            );
        }
        other => panic!("stats answered {other:?}"),
    }

    // Unknown and invalid requests answer typed, never close the connection.
    match client.send(&Command::Status { id: "nobody".into() }).expect("status") {
        Response::Error(WireError::UnknownSession { id }) => assert_eq!(id, "nobody"),
        other => panic!("unknown session answered {other:?}"),
    }

    match client.send(&Command::Drain).expect("drain") {
        Response::Drained { checkpointed, not_started, .. } => {
            assert_eq!(checkpointed, 0, "every session already finished");
            assert_eq!(not_started, 0);
        }
        other => panic!("drain answered {other:?}"),
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pause_resume_cancel_are_idempotent_state_transitions() {
    let dir = unique_dir("prc");
    let server = start_server(
        &dir,
        ServerOptions { workers: Some(1), slice_s: 0.002, ..ServerOptions::default() },
    );

    let held = long_spec("prc-held", JobClass::Batch);
    let doomed = long_spec("prc-doomed", JobClass::Batch);
    for spec in [&held, &doomed] {
        assert!(matches!(
            server.execute(Command::Submit(spec.clone())),
            Response::Submitted { .. }
        ));
    }

    // Pause both (from Queued or Running — both paths must land in Paused).
    for id in ["prc-held", "prc-doomed"] {
        assert!(matches!(
            server.execute(Command::Pause { id: id.into() }),
            Response::Paused { .. }
        ));
        let info = await_state(&server, id, &[WireState::Paused]);
        assert_eq!(info.state, WireState::Paused);
        // Pausing a paused session is a no-op, not an error.
        assert!(matches!(
            server.execute(Command::Pause { id: id.into() }),
            Response::Paused { .. }
        ));
    }

    // Cancel the doomed one from Paused; cancelling again stays cancelled.
    assert!(matches!(
        server.execute(Command::Cancel { id: "prc-doomed".into() }),
        Response::Cancelled { .. }
    ));
    await_state(&server, "prc-doomed", &[WireState::Cancelled]);
    assert!(matches!(
        server.execute(Command::Cancel { id: "prc-doomed".into() }),
        Response::Cancelled { .. }
    ));
    // Resubmitting a cancelled id reports its state; it is NOT re-admitted.
    match server.execute(Command::Submit(doomed.clone())) {
        Response::Resubmitted { state, .. } => assert_eq!(state, WireState::Cancelled),
        other => panic!("resubmit of cancelled answered {other:?}"),
    }
    // Resuming a cancelled session is a typed state error.
    match server.execute(Command::Resume { id: "prc-doomed".into() }) {
        Response::Error(WireError::InvalidState { state, .. }) => {
            assert_eq!(state, WireState::Cancelled)
        }
        other => panic!("resume of cancelled answered {other:?}"),
    }

    // Resume the held one and let it finish — bit-identically.
    assert!(matches!(
        server.execute(Command::Resume { id: "prc-held".into() }),
        Response::Resumed { .. }
    ));
    let info = await_state(&server, "prc-held", &[WireState::Done]);
    assert_eq!(info.final_state_fnv, Some(reference_fnv(&held)));

    match server.execute(Command::Stats) {
        Response::Stats(stats) => {
            assert_eq!((stats.admitted, stats.done, stats.cancelled), (2, 1, 1));
        }
        other => panic!("stats answered {other:?}"),
    }
    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_sheds_typed_and_recovers_capacity() {
    let dir = unique_dir("overload");
    let server = start_server(
        &dir,
        ServerOptions {
            workers: Some(1),
            slice_s: 0.002,
            class_capacity: 2,
            ..ServerOptions::default()
        },
    );

    // Two best-effort residents fill the class; the third is shed typed.
    // Resident-count admission makes this deterministic: paused/queued/
    // running sessions all hold their seat until resolved.
    for k in 0..2 {
        let spec = long_spec(&format!("load-{k}"), JobClass::BestEffort);
        assert!(matches!(server.execute(Command::Submit(spec)), Response::Submitted { .. }));
    }
    match server.execute(Command::Submit(long_spec("load-2", JobClass::BestEffort))) {
        Response::Error(WireError::Overloaded { class, depth, capacity }) => {
            assert_eq!(class, JobClass::BestEffort);
            assert_eq!((depth, capacity), (2, 2));
        }
        other => panic!("overloaded submit answered {other:?}"),
    }
    // Other classes are unaffected by best-effort pressure.
    assert!(matches!(
        server.execute(Command::Submit(quick_spec(9, JobClass::Interactive))),
        Response::Submitted { .. }
    ));
    // A shed session was never admitted: it has no state to query or bill.
    assert!(matches!(
        server.execute(Command::Status { id: "load-2".into() }),
        Response::Error(WireError::UnknownSession { .. })
    ));

    // Cancelling a resident frees its seat; the retried submit now lands.
    assert!(matches!(
        server.execute(Command::Cancel { id: "load-0".into() }),
        Response::Cancelled { .. }
    ));
    await_state(&server, "load-0", &[WireState::Cancelled]);
    assert!(matches!(
        server.execute(Command::Submit(long_spec("load-2", JobClass::BestEffort))),
        Response::Submitted { .. }
    ));

    match server.execute(Command::Stats) {
        Response::Stats(stats) => {
            assert_eq!(stats.offered, 5);
            assert_eq!(stats.admitted, 4);
            assert_eq!(stats.shed, 1);
            assert_eq!(
                stats.admitted + stats.shed + stats.resubmitted,
                stats.offered,
                "every offer is accounted admitted, shed or resubmitted"
            );
        }
        other => panic!("stats answered {other:?}"),
    }
    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_reply_retry_is_idempotent_and_single_billed() {
    let dir = unique_dir("retry");
    // The very first wire write — the reply to the first submit — is eaten
    // by an injected I/O fault; the session is already admitted by then.
    let plan = Arc::new(FaultPlan::new(0xD00D).with_site_kinds(
        FaultSite::WireWrite,
        1,
        1,
        &[FaultKind::Io],
    ));
    let server = start_server(
        &dir,
        ServerOptions {
            workers: Some(2),
            slice_s: 0.002,
            fault_plan: Some(plan.clone()),
            ..ServerOptions::default()
        },
    );
    let mut client = pair_client(&server);

    let spec = quick_spec(0, JobClass::Interactive);
    // The client never sees the dropped reply: it reconnects, resends, and
    // the idempotent resubmission reports the already-admitted session.
    match client.send(&Command::Submit(spec.clone())).expect("submit with retry") {
        Response::Resubmitted { id, .. } => assert_eq!(id, spec.id),
        other => panic!("retried submit answered {other:?}"),
    }
    plan.drained().expect("the armed wire-write fault must have fired");

    let info = await_state(&server, &spec.id, &[WireState::Done]);
    assert_eq!(info.final_state_fnv, Some(reference_fnv(&spec)));

    match client.send(&Command::Stats).expect("stats") {
        Response::Stats(stats) => {
            assert_eq!(stats.offered, 2, "both the submit and its retry are offers");
            assert_eq!(stats.admitted, 1, "the session was admitted exactly once");
            assert_eq!(stats.resubmitted, 1, "the retry is booked as an idempotent resubmit");
            assert_eq!(stats.shed, 0);
            assert_eq!(stats.done, 1);
        }
        other => panic!("stats answered {other:?}"),
    }
    // Billed exactly once: `bill` equals the finished status' ledger and is
    // stable across reads.
    let billed = match client.send(&Command::Bill { id: spec.id.clone() }).expect("bill") {
        Response::Billed { billed_ns, .. } => billed_ns,
        other => panic!("bill answered {other:?}"),
    };
    assert_eq!(billed, info.billed_ns);

    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_hammering_the_door_stay_accounted() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 4;
    let dir = unique_dir("hammer");
    let server = start_server(
        &dir,
        ServerOptions { workers: Some(4), slice_s: 0.002, ..ServerOptions::default() },
    );

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut client = pair_client(&server);
                for j in 0..PER_CLIENT {
                    let mut spec = quick_spec(c * PER_CLIENT + j, JobClass::ALL[j % 3]);
                    spec.id = format!("hammer-{c}-{j}");
                    match client.send(&Command::Submit(spec)).expect("submit") {
                        Response::Submitted { .. } | Response::Resubmitted { .. } => {}
                        Response::Error(WireError::Overloaded { .. }) => continue,
                        other => panic!("client {c} submit answered {other:?}"),
                    }
                    // Interleave the other verbs while jobs are in flight.
                    let id = format!("hammer-{c}-{j}");
                    client.send(&Command::Status { id: id.clone() }).expect("status");
                    if j == PER_CLIENT - 1 {
                        client.send(&Command::Cancel { id }).expect("cancel");
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    // Wait for the flight to land: every admitted session resolves.
    let deadline = Instant::now() + Duration::from_secs(120);
    let stats = loop {
        let stats = server.stats();
        if stats.done + stats.failed + stats.cancelled == stats.admitted {
            break stats;
        }
        assert!(Instant::now() < deadline, "sessions stuck in flight: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(stats.offered, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.admitted + stats.shed + stats.resubmitted, stats.offered);
    assert_eq!(stats.failed, 0, "no session may fail under concurrency alone");
    assert_eq!(stats.depths, [0, 0, 0], "no session may leak resident");

    // Every admitted id answers `status` with a resolved state.
    for c in 0..CLIENTS {
        for j in 0..PER_CLIENT {
            match server.execute(Command::Status { id: format!("hammer-{c}-{j}") }) {
                Response::Status(info) => assert!(
                    matches!(
                        info.state,
                        WireState::Done | WireState::Cancelled | WireState::Failed
                    ),
                    "hammer-{c}-{j} left unresolved: {:?}",
                    info.state
                ),
                Response::Error(WireError::UnknownSession { .. }) => {} // shed
                other => panic!("status answered {other:?}"),
            }
        }
    }
    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_then_restart_resumes_bit_identically_with_billing_conserved() {
    let dir = unique_dir("drain");
    let specs: Vec<SubmitSpec> = (0..3)
        .map(|k| {
            let mut spec = long_spec(&format!("drain-{k}"), JobClass::Batch);
            spec.initial_voltage = Some(2.55 + k as f64 * 1e-3);
            spec
        })
        .collect();
    let references: Vec<u64> = specs.iter().map(reference_fnv).collect();

    // Phase 1: run until every session has made progress, then drain.
    let mut billed_at_drain = Vec::new();
    {
        let server = start_server(
            &dir,
            ServerOptions { workers: Some(2), slice_s: 0.002, ..ServerOptions::default() },
        );
        for spec in &specs {
            assert!(matches!(
                server.execute(Command::Submit(spec.clone())),
                Response::Submitted { .. }
            ));
        }
        // At least one slice each, so there is real state to checkpoint.
        for spec in &specs {
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                if let Response::Status(info) =
                    server.execute(Command::Status { id: spec.id.clone() })
                {
                    if info.time_s > 0.0 {
                        break;
                    }
                }
                assert!(Instant::now() < deadline, "{} never progressed", spec.id);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        match server.execute(Command::Drain) {
            Response::Drained { checkpointed, not_started, .. } => {
                assert_eq!(checkpointed, 3, "every resident session must be persisted");
                assert_eq!(not_started, 0);
            }
            other => panic!("drain answered {other:?}"),
        }
        // Drain is idempotent: the second call reports the same accounting.
        assert!(matches!(
            server.execute(Command::Drain),
            Response::Drained { checkpointed: 3, not_started: 0, .. }
        ));
        // Admissions are refused once draining.
        assert!(matches!(
            server.execute(Command::Submit(quick_spec(7, JobClass::Batch))),
            Response::Error(WireError::Draining)
        ));
        // The refused submit is still an offer: it is booked as shed.
        let stats = server.stats();
        assert_eq!(stats.shed, 1, "a submit refused while draining is shed");
        assert_eq!(
            stats.admitted + stats.shed + stats.resubmitted,
            stats.offered,
            "every offer is accounted admitted, shed or resubmitted"
        );
        for spec in &specs {
            match server.execute(Command::Status { id: spec.id.clone() }) {
                Response::Status(info) => {
                    assert_eq!(info.state, WireState::Paused);
                    assert!(info.billed_ns > 0);
                    billed_at_drain.push(info.billed_ns);
                }
                other => panic!("status answered {other:?}"),
            }
        }
        server.join();
    }

    // The sealed store carries exactly the drained sessions, no temp litter.
    {
        let store = SessionStore::open(&dir).expect("reopen store");
        let mut ids = store.active_ids();
        ids.sort();
        assert_eq!(ids, vec!["drain-0", "drain-1", "drain-2"]);
    }
    assert_no_temp_litter(&dir);

    // Phase 2: a fresh server over the same store re-adopts and finishes
    // every session bit-identically; the restart never re-bills the work
    // already on the ledger.
    {
        let server = start_server(
            &dir,
            ServerOptions { workers: Some(2), slice_s: 0.002, ..ServerOptions::default() },
        );
        for spec in &specs {
            match server.execute(Command::Submit(spec.clone())) {
                Response::Resubmitted { id, state } => {
                    assert_eq!(id, spec.id);
                    assert_eq!(state, WireState::Queued, "recovered sessions re-enter the queue");
                }
                other => panic!("resubmit answered {other:?}"),
            }
        }
        for ((spec, reference), before) in specs.iter().zip(&references).zip(&billed_at_drain) {
            let info = await_state(&server, &spec.id, &[WireState::Done]);
            assert!(info.recovered, "{} must be marked recovered", spec.id);
            assert_eq!(
                info.final_state_fnv,
                Some(*reference),
                "{}: resumed run diverged from the sequential reference",
                spec.id
            );
            assert!(
                info.billed_ns >= *before,
                "{}: the frame-carried ledger went backwards ({} < {before})",
                spec.id,
                info.billed_ns
            );
        }
        server.execute(Command::Drain);
        server.join();
    }
    // Finished sessions left the store; the manifest is clean.
    let store = SessionStore::open(&dir).expect("final reopen");
    assert!(store.active_ids().is_empty(), "finished sessions must leave the store");
    assert_no_temp_litter(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_during_drain_is_recoverable_bit_identically() {
    let dir = unique_dir("killdrain");
    let specs: Vec<SubmitSpec> =
        (0..3).map(|k| long_spec(&format!("torture-{k}"), JobClass::Batch)).collect();
    let references: Vec<u64> = specs.iter().map(reference_fnv).collect();

    // Phase 1: make progress, drain cleanly — three durable frames.
    {
        let server = start_server(
            &dir,
            ServerOptions { workers: Some(2), slice_s: 0.002, ..ServerOptions::default() },
        );
        for spec in &specs {
            server.execute(Command::Submit(spec.clone()));
        }
        for spec in &specs {
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                if let Response::Status(info) =
                    server.execute(Command::Status { id: spec.id.clone() })
                {
                    if info.time_s > 0.0 {
                        break;
                    }
                }
                assert!(Instant::now() < deadline, "{} never progressed", spec.id);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        assert!(matches!(server.execute(Command::Drain), Response::Drained { .. }));
        server.join();
    }

    // Phase 2: a drain that is killed between two persists. The recovered
    // sessions never run (nobody resumed them), so the slice-boundary
    // ordinal is consumed only by the drain loop: entry 0 survives, the
    // kill fires before entry 1.
    let plan = Arc::new(FaultPlan::new(0xBAD).with_kills(1, 1));
    {
        let server = start_server(
            &dir,
            ServerOptions {
                workers: Some(1),
                slice_s: 0.002,
                fault_plan: Some(plan.clone()),
                ..ServerOptions::default()
            },
        );
        match server.execute(Command::Drain) {
            Response::Error(WireError::Failed(detail)) => {
                assert!(detail.contains("killed during drain"), "unexpected detail {detail:?}");
            }
            other => panic!("killed drain answered {other:?}"),
        }
        assert_eq!(plan.kills(), 1, "the kill schedule must have fired exactly once");
        server.join();
    }

    // Phase 3: the kill lost nothing durable — a clean server over the same
    // store resumes all three bit-identically.
    {
        let store = SessionStore::open(&dir).expect("reopen after kill");
        let mut ids = store.active_ids();
        ids.sort();
        assert_eq!(
            ids,
            vec!["torture-0", "torture-1", "torture-2"],
            "the killed drain must not have lost or corrupted any session"
        );
    }
    {
        let server = start_server(
            &dir,
            ServerOptions { workers: Some(2), slice_s: 0.002, ..ServerOptions::default() },
        );
        for spec in &specs {
            assert!(matches!(
                server.execute(Command::Submit(spec.clone())),
                Response::Resubmitted { state: WireState::Queued, .. }
            ));
        }
        for (spec, reference) in specs.iter().zip(&references) {
            let info = await_state(&server, &spec.id, &[WireState::Done]);
            assert_eq!(
                info.final_state_fnv,
                Some(*reference),
                "{}: post-kill resume diverged from the sequential reference",
                spec.id
            );
            assert!(info.billed_ns > 0);
        }
        server.execute(Command::Drain);
        server.join();
    }
    assert_no_temp_litter(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_resubmit_after_drain_is_refused_and_shed() {
    let dir = unique_dir("drain-readmit");
    let spec = long_spec("readmit-0", JobClass::Batch);
    let options = ServerOptions { workers: Some(1), slice_s: 0.002, ..ServerOptions::default() };

    // Phase 1: make progress, then drain: one durable frame.
    {
        let server = start_server(&dir, options.clone());
        assert!(matches!(
            server.execute(Command::Submit(spec.clone())),
            Response::Submitted { .. }
        ));
        let deadline = Instant::now() + Duration::from_secs(60);
        while !matches!(
            server.execute(Command::Status { id: spec.id.clone() }),
            Response::Status(info) if info.time_s > 0.0
        ) {
            assert!(Instant::now() < deadline, "{} never progressed", spec.id);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(matches!(
            server.execute(Command::Drain),
            Response::Drained { checkpointed: 1, .. }
        ));
        server.join();
    }

    // Phase 2: a restarted server drains before the client resubmits. No
    // worker is left to run a re-admitted session, so the recovered id is
    // refused like a fresh one and stays paused in the store.
    let server = start_server(&dir, options);
    assert!(matches!(server.execute(Command::Drain), Response::Drained { checkpointed: 1, .. }));
    assert_eq!(server.execute(Command::Submit(spec.clone())), Response::Error(WireError::Draining));
    assert_eq!(
        server.execute(Command::Resume { id: spec.id.clone() }),
        Response::Error(WireError::Draining)
    );
    match server.execute(Command::Status { id: spec.id.clone() }) {
        Response::Status(info) => {
            assert_eq!(info.state, WireState::Paused, "the refused resubmit changed the entry");
            assert!(info.recovered);
        }
        other => panic!("status answered {other:?}"),
    }
    let stats = server.stats();
    assert_eq!((stats.offered, stats.admitted, stats.shed, stats.resubmitted), (1, 0, 1, 0));
    assert_eq!(stats.depths, [0, 1, 0], "the recovered session keeps its batch seat");
    server.join();

    let store = SessionStore::open(&dir).expect("reopen store");
    assert_eq!(store.active_ids(), vec![spec.id.clone()], "the frame stays durable");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_process_submits_with_malformed_deadlines_are_refused_typed() {
    let dir = unique_dir("deadline");
    let server = start_server(
        &dir,
        ServerOptions { workers: Some(1), slice_s: 0.002, ..ServerOptions::default() },
    );
    for (k, bad) in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY].into_iter().enumerate() {
        let mut spec = quick_spec(k, JobClass::Batch);
        spec.deadline_s = Some(bad);
        match server.execute(Command::Submit(spec.clone())) {
            Response::Error(WireError::Protocol(detail)) => {
                assert!(detail.contains("deadline"), "unhelpful rejection: {detail}");
            }
            other => panic!("deadline {bad} answered {other:?}"),
        }
        assert!(matches!(
            server.execute(Command::Status { id: spec.id }),
            Response::Error(WireError::UnknownSession { .. })
        ));
    }
    // Like a line that fails to parse, a malformed deadline books no offer.
    let stats = server.stats();
    assert_eq!((stats.offered, stats.admitted, stats.shed), (0, 0, 0));
    assert_eq!(stats.depths, [0, 0, 0]);
    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_encode_panic_quarantines_one_session() {
    let dir = unique_dir("quarantine");
    // The second checkpoint any slice seals panics; every quick spec is
    // preempted several times, so the fault lands mid-run.
    let plan = Arc::new(FaultPlan::new(0xC0DE).with_site(FaultSite::CheckpointEncode, 2, 1));
    let server = start_server(
        &dir,
        ServerOptions {
            workers: Some(2),
            slice_s: 0.002,
            fault_plan: Some(plan.clone()),
            ..ServerOptions::default()
        },
    );
    let specs: Vec<SubmitSpec> = (0..3).map(|k| quick_spec(k, JobClass::Batch)).collect();
    for spec in &specs {
        assert!(matches!(
            server.execute(Command::Submit(spec.clone())),
            Response::Submitted { .. }
        ));
    }
    let mut failed = 0;
    for spec in &specs {
        let info = await_state(&server, &spec.id, &[WireState::Done, WireState::Failed]);
        if info.state == WireState::Failed {
            failed += 1;
            assert_eq!(info.final_state_fnv, None);
        } else {
            assert_eq!(info.final_state_fnv, Some(reference_fnv(spec)), "{} diverged", spec.id);
        }
    }
    assert_eq!(failed, 1, "exactly one session is quarantined");
    plan.drained().expect("the armed encode fault fired");
    let stats = server.stats();
    assert_eq!((stats.done, stats.failed), (2, 1));
    assert_eq!(stats.depths, [0, 0, 0], "the quarantined session gave its seat back");
    assert_eq!(stats.admitted + stats.shed + stats.resubmitted, stats.offered);
    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failing_session_is_isolated_from_its_neighbours() {
    let dir = unique_dir("isolated");
    // The first slice boundary panics. Admission cannot see that failure;
    // one worker pops in submission order, so it lands on the first spec's
    // first slice while its neighbours wait in the queue.
    let plan = Arc::new(FaultPlan::new(0x150).with_site(FaultSite::SliceBoundary, 1, 1));
    let server = start_server(
        &dir,
        ServerOptions {
            workers: Some(1),
            slice_s: 0.002,
            fault_plan: Some(plan.clone()),
            ..ServerOptions::default()
        },
    );
    let specs: Vec<SubmitSpec> = (0..3).map(|k| quick_spec(k, JobClass::Batch)).collect();
    for spec in &specs {
        assert!(matches!(
            server.execute(Command::Submit(spec.clone())),
            Response::Submitted { .. }
        ));
    }
    let failed = await_state(&server, &specs[0].id, &[WireState::Done, WireState::Failed]);
    assert_eq!(failed.state, WireState::Failed);
    assert_eq!(failed.final_state_fnv, None);
    // The status names why: the injected panic's payload, in process and
    // over the wire alike.
    let cause = failed.cause.as_deref().expect("a failed status names its cause");
    assert!(cause.contains("injected fault"), "cause: {cause}");
    let status = Command::Status { id: specs[0].id.clone() };
    match pair_client(&server).send(&status).expect("status over the wire") {
        Response::Status(info) => assert_eq!(info, failed),
        other => panic!("status answered {other:?}"),
    }
    for spec in &specs[1..] {
        let info = await_state(&server, &spec.id, &[WireState::Done, WireState::Failed]);
        assert_eq!(info.final_state_fnv, Some(reference_fnv(spec)), "{} diverged", spec.id);
        assert_eq!(info.cause, None);
    }
    plan.drained().expect("the armed slice panic fired");
    let stats = server.stats();
    assert_eq!((stats.done, stats.failed), (2, 1));
    assert_eq!(stats.depths, [0, 0, 0], "the failed session gave its seat back");
    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec whose scenario fails validation — a 0.05 s span that keeps the
/// default 1 s frequency step, or (in process, where the wire's value checks
/// do not apply) a negative span — is refused at `submit`, over the wire and
/// in process alike: a malformed command, so no offer is booked and no entry
/// is created.
#[test]
fn submits_with_invalid_scenarios_are_refused_without_an_entry() {
    let dir = unique_dir("invalid-scenario");
    let server = start_server(
        &dir,
        ServerOptions { workers: Some(1), slice_s: 0.002, ..ServerOptions::default() },
    );
    let mut wire = SubmitSpec::new("short-span-wire");
    wire.duration_s = Some(0.05);
    let mut in_process = SubmitSpec::new("short-span-in-process");
    in_process.duration_s = Some(0.05);
    let mut backwards = SubmitSpec::new("backwards-span");
    backwards.duration_s = Some(-1.0);
    let mut client = pair_client(&server);
    let answers = [
        client.send(&Command::Submit(wire.clone())).expect("wire submit"),
        server.execute(Command::Submit(in_process.clone())),
        server.execute(Command::Submit(backwards.clone())),
    ];
    for (spec, answer) in [&wire, &in_process, &backwards].into_iter().zip(answers) {
        match answer {
            Response::Error(WireError::Protocol(detail)) => {
                assert!(detail.contains("scenario"), "unhelpful rejection: {detail}");
            }
            other => panic!("{} answered {other:?}", spec.id),
        }
        assert!(matches!(
            server.execute(Command::Status { id: spec.id.clone() }),
            Response::Error(WireError::UnknownSession { .. })
        ));
    }
    let stats = server.stats();
    assert_eq!((stats.offered, stats.admitted, stats.shed), (0, 0, 0));
    assert_eq!(stats.depths, [0, 0, 0]);
    // A valid spec is still admitted afterwards.
    let valid = quick_spec(0, JobClass::Batch);
    assert!(matches!(server.execute(Command::Submit(valid)), Response::Submitted { .. }));
    assert_eq!(server.stats().offered, 1);
    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn start_rejects_bad_options() {
    let dir = unique_dir("options");
    let bad = [
        ServerOptions { slice_s: 0.0, ..ServerOptions::default() },
        ServerOptions { slice_s: f64::NAN, ..ServerOptions::default() },
        ServerOptions { workers: Some(0), ..ServerOptions::default() },
        ServerOptions { class_capacity: 0, ..ServerOptions::default() },
        ServerOptions { max_frame_len: 63, ..ServerOptions::default() },
    ];
    for options in bad {
        let store = SessionStore::open(&dir).expect("open store");
        match Server::start(store, options.clone()) {
            Err(CoreError::InvalidConfiguration(_)) => {}
            Err(other) => panic!("{options:?} failed untyped: {other}"),
            Ok(_) => panic!("{options:?} was accepted"),
        }
    }
    let server = start_server(&dir, ServerOptions::default());
    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// No `*.tmp` staging files and no orphaned (non-manifest) frames may ever
/// survive in the store directory.
fn assert_no_temp_litter(dir: &PathBuf) {
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let name = entry.expect("entry").file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "temp staging file {name:?} leaked into the store");
    }
}

/// Runs `serve_unix` on a thread of its own; its result arrives on the
/// returned channel.
fn spawn_listener(server: &Server, socket: &Path) -> mpsc::Receiver<std::io::Result<()>> {
    let (done, result) = mpsc::channel();
    let server = server.clone();
    let socket = socket.to_path_buf();
    std::thread::spawn(move || {
        let _ = done.send(server.serve_unix(&socket));
    });
    result
}

/// Connects the moment the listener is bound: retries, without sleeping,
/// only the refusals of the instants before `bind` and `listen` complete.
fn connect_when_bound(socket: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match UnixStream::connect(socket) {
            Ok(stream) => return stream,
            Err(err)
                if matches!(err.kind(), ErrorKind::NotFound | ErrorKind::ConnectionRefused) =>
            {
                assert!(Instant::now() < deadline, "{socket:?} was never bound: {err}");
                std::thread::yield_now();
            }
            Err(err) => panic!("connect {socket:?}: {err}"),
        }
    }
}

/// A single-attempt [`Client`] over the server's unix socket.
fn socket_client(
    socket: &Path,
) -> Client<UnixStream, impl FnMut(&RetryPolicy) -> std::io::Result<(UnixStream, UnixStream)>> {
    let socket = socket.to_path_buf();
    Client::new(
        move |policy: &RetryPolicy| -> std::io::Result<(UnixStream, UnixStream)> {
            let stream = connect_when_bound(&socket);
            stream.set_read_timeout(Some(policy.deadline))?;
            Ok((stream.try_clone()?, stream))
        },
        RetryPolicy {
            attempts: 1,
            deadline: Duration::from_secs(20),
            backoff: Duration::from_millis(5),
        },
    )
}

#[test]
fn serve_unix_answers_a_connect_right_after_bind_and_returns_on_drain() {
    let dir = unique_dir("listen");
    let socket = dir.with_extension("sock");
    // A listener that died without cleaning up leaves its socket file
    // behind; the next server replaces it.
    drop(UnixListener::bind(&socket).expect("bind a stale socket"));
    assert!(socket.exists());

    let server = start_server(
        &dir,
        ServerOptions { workers: Some(1), slice_s: 0.002, ..ServerOptions::default() },
    );
    let finished = spawn_listener(&server, &socket);
    let mut client = socket_client(&socket);
    assert_eq!(client.send(&Command::Ping).expect("ping right after bind"), Response::Pong);
    // A second, idle connection: its handler stays blocked reading, which
    // must not keep the listener alive past the drain, and the listener's
    // return must end that handler.
    let mut idle = connect_when_bound(&socket);
    // A connection its handler closes (an undecodable frame) gets the typed
    // reply and then end of stream while the listener keeps running.
    let mut refused = connect_when_bound(&socket);
    refused.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    refused.write_all(b"\xff\n").expect("send a non-UTF-8 frame");
    let mut reply = Vec::new();
    let read = refused.read_to_end(&mut reply);
    assert!(read.is_ok(), "the handler's close did not reach the client: {read:?}");
    assert!(reply.starts_with(b"err protocol"), "{}", String::from_utf8_lossy(&reply));
    assert!(
        matches!(finished.try_recv(), Err(mpsc::TryRecvError::Empty)),
        "the listener returned before any shutdown"
    );

    // Drain with a slice in flight: the worker leaves its loop before the
    // drain completes, so the wake must come from the drain itself.
    let spec = long_spec("listen-0", JobClass::Batch);
    assert!(matches!(
        client.send(&Command::Submit(spec.clone())).expect("submit"),
        Response::Submitted { .. }
    ));
    let deadline = Instant::now() + Duration::from_secs(60);
    while !matches!(
        server.execute(Command::Status { id: spec.id.clone() }),
        Response::Status(info) if info.time_s > 0.0
    ) {
        assert!(Instant::now() < deadline, "{} never progressed", spec.id);
        std::thread::yield_now();
    }
    assert!(matches!(
        client.send(&Command::Drain).expect("drain"),
        Response::Drained { checkpointed: 1, .. }
    ));
    let served = finished
        .recv_timeout(Duration::from_secs(30))
        .expect("serve_unix must return once the drain completes");
    served.expect("a drained listener returns Ok");
    assert!(!socket.exists(), "the listener must remove its socket file");
    // The idle connection's handler wakes from `read`, returns and closes
    // the connection: its client reads end-of-stream, not a timeout.
    idle.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let read = idle.read(&mut [0u8; 16]);
    assert!(matches!(read, Ok(0)), "the idle handler outlived the listener: {read:?}");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_kill_wakes_the_blocked_listener() {
    let dir = unique_dir("listen-kill");
    let socket = dir.with_extension("sock");
    let plan = Arc::new(FaultPlan::new(0x50C).with_kills(3, 1));
    let server = start_server(
        &dir,
        ServerOptions {
            workers: Some(1),
            slice_s: 0.002,
            fault_plan: Some(plan.clone()),
            ..ServerOptions::default()
        },
    );
    let finished = spawn_listener(&server, &socket);
    let mut client = socket_client(&socket);
    // The listener is registered and blocked in `accept` before the job that
    // carries the kill is submitted.
    assert_eq!(client.send(&Command::Ping).expect("ping"), Response::Pong);
    assert!(matches!(
        client.send(&Command::Submit(long_spec("listen-kill-0", JobClass::Batch))).expect("submit"),
        Response::Submitted { .. }
    ));

    let served = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("serve_unix must return once a kill stops the server");
    served.expect("a killed server's listener returns Ok");
    assert_eq!(plan.kills(), 1, "the kill schedule must have fired exactly once");
    assert!(server.is_shutdown());
    assert!(!socket.exists(), "the listener must remove its socket file");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_unix_refuses_a_path_that_is_not_a_socket() {
    let dir = unique_dir("listen-refuse");
    let server = start_server(&dir, ServerOptions { workers: Some(1), ..ServerOptions::default() });
    // A mistyped `--socket` pointing at the store's own manifest, or at a
    // directory, must fail typed and leave the file as it was.
    let manifest = dir.join("MANIFEST");
    let before = std::fs::read(&manifest).expect("the opened store has a manifest");
    for victim in [&manifest, &dir] {
        let refused = spawn_listener(&server, victim)
            .recv_timeout(Duration::from_secs(30))
            .expect("serve_unix must refuse instead of serving");
        let err = refused.expect_err("a non-socket path must be refused");
        assert_eq!(err.kind(), ErrorKind::AlreadyExists, "{victim:?}: {err}");
    }
    assert_eq!(std::fs::read(&manifest).expect("manifest survives"), before);
    assert!(dir.is_dir());
    assert!(SessionStore::open(&dir).is_ok(), "the store still opens");

    assert!(matches!(server.execute(Command::Drain), Response::Drained { .. }));
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
